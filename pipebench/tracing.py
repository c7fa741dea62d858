"""Spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer (module
functions wherever a ``repro`` module imported them by name, and methods
on the classes that define them) with a wrapper that
opens a span while the runner is inside an op.  Outside an op the
wrapper only forwards the call, so the benchmark's own checks leave no
spans.  :func:`uninstall` puts every original back.

Spans live in parallel lists in memory with a parent index each, and are
written out once the traced phase ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.sizes: List[int] = []
        self.stack: List[int] = []

    def clear(self) -> None:
        for column in (self.names, self.starts, self.ends, self.parents,
                       self.sizes, self.stack):
            column.clear()

    def columns(self) -> tuple:
        """The recorded spans, for :meth:`extend` in another process."""
        return (self.names, self.starts, self.ends, self.parents,
                self.sizes)

    def extend(self, columns: tuple) -> None:
        """Append spans another tracer recorded (see :meth:`columns`)."""
        names, starts, ends, parents, sizes = columns
        offset = len(self.names)
        self.names.extend(names)
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.parents.extend(parent + offset if parent >= 0 else -1
                            for parent in parents)
        self.sizes.extend(sizes)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.sizes.append(0)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _clock()
        self.stack.pop()

    def discard(self, index: int) -> None:
        """Drop the span at *index* (the newest) and any children."""
        for column in (self.names, self.starts, self.ends, self.parents,
                       self.sizes):
            del column[index:]

    def summary(self) -> Dict[str, List[float]]:
        """Per span name: [self seconds, count, bytes].  A span's self
        time is its duration minus the time its child spans cover."""
        covered = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[index] - self.starts[index]
        out: Dict[str, List[float]] = {}
        for index, name in enumerate(self.names):
            row = out.setdefault(name, [0.0, 0, 0])
            row[0] += self.ends[index] - self.starts[index] - covered[index]
            row[1] += 1
            row[2] += self.sizes[index]
        return out

    def write(self, path: str, header: dict) -> None:
        origin = self.starts[0] if self.starts else 0.0
        document = dict(header)
        document["columns"] = ["name", "start_s", "end_s", "parent",
                               "bytes"]
        document["spans"] = [
            [name, start - origin, end - origin, parent, size]
            for name, start, end, parent, size in zip(
                self.names, self.starts, self.ends, self.parents,
                self.sizes)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _result_len(args, kwargs, result) -> int:
    return len(result) if result else 0


def _first_arg_len(args, kwargs, result) -> int:
    return len(args[0])


def _second_arg_len(args, kwargs, result) -> int:
    return len(args[1])


def _written_len(args, kwargs, result) -> int:
    # DiskStorage.write(self, cache, name, data, timestamp=None)
    return len(args[3] if len(args) > 3 else kwargs["data"])


#: (module, function, span name, size of the span's payload).
FUNCTIONS = (
    ("repro.minic.parser", "parse_program", "minic.parse", None),
    ("repro.minic.codegen", "generate", "minic.codegen", None),
    ("repro.ir.verifier", "verify_module", "ir.verify", None),
    ("repro.transforms.pass_manager", "optimize", "transforms.optimize",
     None),
    ("repro.bitcode.writer", "write_module", "bitcode.write", _result_len),
    ("repro.bitcode.reader", "read_module", "bitcode.read",
     _first_arg_len),
    ("repro.targets.native", "serialize_native", "llee.native.store",
     _result_len),
    ("repro.targets.native", "deserialize_native", "llee.native.load",
     _first_arg_len),
    ("repro.execution.tier2", "generate_source", "tier2.codegen", None),
    ("repro.execution.tier2", "build_unit", "tier2.build", None),
)

#: (module, class, method, span name or f(self) -> name, size).
METHODS = (
    ("repro.llee.jit", "FunctionJIT", "translate",
     lambda jit: "targets.{0}.translate".format(jit.target.name), None),
    ("repro.llee.storage", "DiskStorage", "read", "llee.storage.read",
     _result_len),
    ("repro.llee.storage", "DiskStorage", "write", "llee.storage.write",
     _written_len),
    ("repro.execution.tier2", "Tier2Cache", "load_serialized", "tier2.load",
     _second_arg_len),
    # The LLEE's Interpreter(engine="fast") is a FastInterpreter, whose
    # run overrides Interpreter.run.
    ("repro.execution.fastpath", "FastInterpreter", "run", "execution.run",
     None),
    ("repro.execution.machine_sim", "MachineSimulator", "run",
     "machine_sim.run", None),
)


def _wrap(tracer: Tracer, fn: Callable, name, size) -> Callable:
    stack = tracer.stack
    named = callable(name)

    def traced(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        index = tracer.open(name(args[0]) if named else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if size is not None:
            tracer.sizes[index] = size(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_decode(tracer: Tracer, fn: Callable) -> Callable:
    """``DecodeCache.decode`` runs on every tier-1 call; keep a span only
    when it decoded (a miss), judged by the cache's own counter."""
    stack = tracer.stack

    def traced(cache, function):
        if not stack:
            return fn(cache, function)
        before = cache.stats.functions_decoded
        index = tracer.open("fastpath.decode")
        try:
            return fn(cache, function)
        finally:
            tracer.close(index)
            if cache.stats.functions_decoded == before:
                tracer.discard(index)

    traced.__wrapped__ = fn
    return traced


def _pass_methods() -> List[Tuple[type, str]]:
    """The classes defining ``run``/``run_module`` for each -O2 pass."""
    from repro.transforms.pass_manager import (
        FunctionPass, ModulePass, standard_pipeline)

    found = []
    for pass_ in standard_pipeline(2):
        attr = "run_module" if isinstance(pass_, ModulePass) else "run"
        for klass in type(pass_).__mro__:
            if attr in vars(klass):
                if klass not in (FunctionPass, ModulePass) \
                        and (klass, attr) not in found:
                    found.append((klass, attr))
                break
    return found


def install(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """Put the wrappers in place; returns what :func:`uninstall` needs
    to restore: (module or class, attribute, original)."""
    replaced = []
    modules = [module for name, module in list(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for module_name, attr, span, size in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap(tracer, original, span, size)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    replaced.append((module, key, original))
    targets = [(getattr(importlib.import_module(module_name), cls), attr,
                span, size)
               for module_name, cls, attr, span, size in METHODS]
    targets.extend((klass, attr,
                    lambda pass_: "transforms." + pass_.name, None)
                   for klass, attr in _pass_methods())
    for klass, attr, span, size in targets:
        original = vars(klass)[attr]
        setattr(klass, attr, _wrap(tracer, original, span, size))
        replaced.append((klass, attr, original))
    from repro.execution.fastpath import DecodeCache

    original = vars(DecodeCache)["decode"]
    DecodeCache.decode = _wrap_decode(tracer, original)
    replaced.append((DecodeCache, "decode", original))
    return replaced


def uninstall(replaced: List[Tuple[object, str, Callable]]) -> None:
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)


def layer_metrics(summary: Dict[str, List[float]],
                  counts: Dict[str, float], passes: int
                  ) -> Dict[str, float]:
    """Per-pass layer metrics from a span summary and the ops' counts
    (both totals over *passes* passes)."""

    def self_s(*names):
        return sum(summary.get(name, (0.0,))[0] for name in names) / passes

    def spans(name):
        return summary.get(name, (0, 0))[1] / passes

    def payload(name):
        return summary.get(name, (0, 0, 0))[2] / passes

    def count(name):
        return counts.get(name, 0) / passes

    pass_spans = sorted(name for name in summary
                        if name.startswith("transforms.")
                        and name != "transforms.optimize")
    metrics = {
        "minic.parse_s": self_s("minic.parse"),
        "minic.codegen_s": self_s("minic.codegen"),
        "ir.verify_s": self_s("ir.verify"),
        "transforms.optimize_s": self_s("transforms.optimize",
                                        *pass_spans),
        "transforms.insts_in": count("transforms.insts_in"),
        "transforms.insts_out": count("transforms.insts_out"),
        "bitcode.write_s": self_s("bitcode.write"),
        "bitcode.read_s": self_s("bitcode.read"),
        "bitcode.bytes": payload("bitcode.read"),
        "targets.x86.translate_s": self_s("targets.x86.translate"),
        "targets.sparc.translate_s": self_s("targets.sparc.translate"),
        "targets.functions_translated":
            count("targets.functions_translated"),
        "targets.native_bytes": payload("llee.native.store"),
        "llee.storage.write_s": self_s("llee.storage.write"),
        "llee.storage.writes": spans("llee.storage.write"),
        "llee.storage.bytes_written": payload("llee.storage.write"),
        "llee.storage.read_s": self_s("llee.storage.read"),
        "llee.storage.reads": spans("llee.storage.read"),
        "llee.cache.hit_ratio": counts.get("cache.hits", 0)
        / counts["cache.lookups"] if counts.get("cache.lookups") else 0.0,
        "llee.native.load_s": self_s("llee.native.load"),
        "llee.native.store_s": self_s("llee.native.store"),
        "fastpath.decode_s": self_s("fastpath.decode"),
        "fastpath.functions_decoded": spans("fastpath.decode"),
        "fastpath.tier1_steps": count("fastpath.tier1_steps"),
        "tier2.compile_s": self_s("tier2.codegen", "tier2.build"),
        "tier2.load_s": self_s("tier2.load"),
        "tier2.compiles": count("tier2.compiles"),
        "tier2.warm_loads": count("tier2.warm_loads"),
        "tier2.steps": count("tier2.steps"),
        "tier2.step_share": counts.get("tier2.steps", 0) / counts["steps"]
        if counts.get("steps") else 0.0,
        "tier2.osr_entries": count("tier2.osr_entries"),
        "tier2.side_exits": count("tier2.side_exits"),
        "execution.run_s": self_s("execution.run"),
        "machine_sim.run_s": self_s("machine_sim.run"),
        "machine_sim.instructions": count("machine_sim.instructions"),
        "unattributed_s": self_s(*(name for name in summary
                                   if name.startswith("op."))),
    }
    run_s = metrics["machine_sim.run_s"]
    metrics["machine_sim.cycles_per_s"] = \
        count("cycles") / run_s if run_s else 0.0
    for name in pass_spans:
        metrics[name + "_s"] = self_s(name)
        metrics[name + ".changes"] = count(name + ".changes")
    return metrics
