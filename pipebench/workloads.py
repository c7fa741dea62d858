"""The pipeline workloads.

Each workload owns its inputs (suite programs at one scale), builds them
in :meth:`Workload.setup`, and hands the runner one pass of operations
at a time.  An operation is one program compiled, translated, or
launched to exit; its ``call`` is the only code the runner times, and
its ``check`` validates the result outside the timing and returns the
counts the op produced.

Every layer is driven through its public entry point, looked up as a
module attribute at call time so the tracing wrappers in ``tracing.py``
see the call.  No tier-3 or async-compile keyword is ever passed.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro import bitcode, ir, minic, transforms
from repro.benchsuite import SUITE_ORDER, load_workload
from repro.llee.manager import LLEE
from repro.llee.storage import DiskStorage
from repro.targets import make_target
from repro.targets import native as native_code
from repro.targets.verify import verify_native_module

#: The tiered execution config of ``launch``: tier 2 with trace-guided
#: superblocks and on-stack replacement, the fastest synchronous config
#: the LLEE offers without tier 3.
TIERED = {"tier2": True, "superblocks": True, "osr": True}

TARGETS = ("x86", "sparc")


class Mismatch(Exception):
    """An op's result disagrees with the oracle or fails a check."""


@dataclass
class Op:
    kind: str
    program: str
    call: Callable[[], object]
    #: Validates ``call``'s result and returns the op's counts; raises
    #: :class:`Mismatch` (or whatever the checked layer raises).
    check: Callable[[object], Dict[str, float]]


class _RecordingStorage(DiskStorage):
    """A DiskStorage that remembers its last write, so a check can read
    back the translation an offline-translate op just stored."""

    last_write = None

    def write(self, cache, name, data, timestamp=None):
        super().write(cache, name, data, timestamp=timestamp)
        self.last_write = (cache, name)


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def oracle_key(program: str, scale: float) -> str:
    return "{0}@{1}".format(program, scale)


def compile_object(source: str, name: str) -> bytes:
    module = minic.compile_source(source, name, optimization_level=2)
    return bitcode.write_module(module)


def read_native(storage: _RecordingStorage, target):
    """Deserialize and verify the translation *storage* last wrote."""
    if storage.last_write is None:
        raise Mismatch("no translation was stored")
    native = native_code.deserialize_native(
        storage.read(*storage.last_write), target)
    verify_native_module(native)
    return native


def expect(entry: dict, return_value, output: str, exit_status: int):
    got = (return_value, output, exit_status)
    want = (entry["return_value"], entry["output"], entry["exit_status"])
    if got != want:
        raise Mismatch("got (return, exit) {0!r}, oracle {1!r}{2}".format(
            (got[0], got[2]), (want[0], want[2]),
            "" if got[1] == want[1] else "; output differs"))


class Workload:
    """Programs at one scale; subclasses add setup and the ops."""

    name = ""
    programs: Sequence[str] = ()
    scale = 0.0
    #: Does this workload execute programs (and so need the oracle)?
    executes = True

    def __init__(self, scratch: str, oracle: Dict[str, dict]):
        self._scratch = scratch
        self._oracle = oracle
        self._dirs: List[str] = []
        self.sources: Dict[str, str] = {}
        self.expected: Dict[str, dict] = {}

    def setup(self) -> None:
        self._load_sources()
        self.prepare()
        self.warm_up()

    def warm_up(self) -> None:
        """Run the first program's ops of two passes, so that lazy
        imports and first-use tables are in place, for the first and
        the repeated path of each op kind, in the process every pass is
        forked from.  Only one program: every module built in a process
        lengthens the use lists of the interned constants all modules
        share, which slows every later verify and use removal, in the
        passes forked from it too."""
        self.begin_phase()
        rng = random.Random(0)
        for _ in range(2):
            for op in self.ops(rng):
                if op.program == self.programs[0]:
                    op.check(op.call())

    def _load_sources(self) -> None:
        for program in self.programs:
            source = load_workload(program, self.scale).source
            self.sources[program] = source
            if not self.executes:
                continue
            entry = self._oracle.get(oracle_key(program, self.scale))
            if entry is None or entry["source_sha256"] \
                    != source_digest(source):
                raise Mismatch(
                    "oracle for {0} at scale {1} is missing or was made "
                    "from other source; regenerate it with "
                    "pipebench/oracle.py".format(program, self.scale))
            self.expected[program] = entry

    def prepare(self) -> None:
        """Build what the ops need (object code, caches)."""

    def begin_phase(self) -> None:
        """Reset per-phase state before a timed phase."""

    def ops(self, rng) -> List[Op]:
        raise NotImplementedError

    def storage(self) -> "_RecordingStorage":
        """A DiskStorage in a fresh directory, removed by :meth:`close`."""
        directory = tempfile.mkdtemp(prefix=self.name + "-",
                                     dir=self._scratch)
        self._dirs.append(directory)
        return _RecordingStorage(directory)

    def close(self) -> None:
        for directory in self._dirs:
            shutil.rmtree(directory, ignore_errors=True)
        self._dirs.clear()


class Toolchain(Workload):
    """MiniC -> -O2 -> verified object code -> offline translation for
    both targets into an on-disk translation cache.  Nothing executes."""

    name = "toolchain"
    programs = tuple(SUITE_ORDER)
    scale = 0.05
    executes = False

    def prepare(self) -> None:
        self.targets = {name: make_target(name) for name in TARGETS}

    def begin_phase(self) -> None:
        self._storage = self.storage()

    def ops(self, rng) -> List[Op]:
        order = list(self.programs)
        rng.shuffle(order)
        built: Dict[str, bytes] = {}
        ops: List[Op] = []
        for program in order:
            ops.append(self._cc(program, built))
            targets = list(TARGETS)
            rng.shuffle(targets)
            ops.extend(self._llc(program, name, built) for name in targets)
        return ops

    def _cc(self, program: str, built: Dict[str, bytes]) -> Op:
        source = self.sources[program]

        def call():
            module = minic.compile_source(source, program)
            insts_in = module.num_instructions()
            report = transforms.optimize(module, level=2)
            ir.verify_module(module)
            built[program] = bitcode.write_module(module)
            return module, insts_in, report

        def check(result):
            module, insts_in, report = result
            counts = {
                "object_bytes": len(built[program]),
                "llva_insts": module.num_instructions(),
                "transforms.insts_in": insts_in,
                "transforms.insts_out": module.num_instructions(),
            }
            for pass_name, stats in report.stats.items():
                counts["transforms.{0}.changes".format(pass_name)] = \
                    stats.changes
            return counts

        return Op("cc", program, call, check)

    def _llc(self, program: str, target_name: str,
             built: Dict[str, bytes]) -> Op:
        target = self.targets[target_name]
        storage = self._storage

        def call():
            storage.last_write = None
            return LLEE(target, storage).offline_translate(built[program])

        def check(stats):
            native = read_native(storage, target)
            if stats.functions_translated != len(native.functions):
                raise Mismatch("translated {0} functions, stored {1}".format(
                    stats.functions_translated, len(native.functions)))
            return {target_name + "_insts": native.num_instructions(),
                    "targets.functions_translated":
                        stats.functions_translated}

        return Op("llc-" + target_name, program, call, check)


class Launch(Workload):
    """Every suite row at a small scale, each op a fresh LLEE over one
    DiskStorage that starts empty in each timed phase."""

    name = "launch"
    programs = tuple(SUITE_ORDER)
    scale = 0.05

    def prepare(self) -> None:
        self.target = make_target("x86")
        self.code = {program: compile_object(self.sources[program], program)
                     for program in self.programs}

    def begin_phase(self) -> None:
        self._storage = self.storage()
        self._launched = set()

    def ops(self, rng) -> List[Op]:
        order = list(self.programs)
        rng.shuffle(order)
        ops = []
        for program in order:
            kind = "warm" if program in self._launched else "cold"
            self._launched.add(program)
            ops.append(self._launch(program, kind))
        return ops

    def _launch(self, program: str, kind: str) -> Op:
        code = self.code[program]
        storage = self._storage

        def call():
            return LLEE(self.target, storage).run_interpreted(code, **TIERED)

        def check(report):
            expect(self.expected[program], report.return_value,
                   report.output, report.exit_status)
            # A fresh LLEE's tier-2 cache totals are this run's.
            return {
                "steps": report.steps,
                "tier2.steps": report.tier2_steps,
                "fastpath.tier1_steps": report.steps - report.tier2_steps,
                "tier2.compiles": report.tier2_functions_compiled
                - report.tier2_warm_compiles,
                "tier2.warm_loads": report.tier2_warm_compiles,
                "tier2.osr_entries": report.tier2_osr_entries,
                "tier2.side_exits": report.tier2_side_exits,
                "cache.lookups": 1,
                "cache.hits": int(report.translation_cache_hit),
            }

        return Op(kind, program, call, check)


class Native(Workload):
    """Short-running rows on both simulated targets from a translation
    cache filled in setup: the paper's Figure 3 cache-hit path."""

    name = "native"
    #: The rows whose x86 simulation stays under about 0.25 s at this
    #: scale; gzip, crafty and parser take 0.5-1.2 s, bc, art and bzip2
    #: longer still.
    programs = ("anagram", "ks", "ft", "yacr2", "equake", "mcf", "ammp",
                "vpr", "twolf", "vortex", "gap")
    scale = 0.05

    def prepare(self) -> None:
        self.targets = {name: make_target(name) for name in TARGETS}
        self.code = {program: compile_object(self.sources[program], program)
                     for program in self.programs}
        self._storage = self.storage()
        for target in self.targets.values():
            for program in self.programs:
                LLEE(target, self._storage).offline_translate(
                    self.code[program])
                read_native(self._storage, target)

    def ops(self, rng) -> List[Op]:
        ops = [self._run(program, target) for program in self.programs
               for target in TARGETS]
        rng.shuffle(ops)
        return ops

    def _run(self, program: str, target_name: str) -> Op:
        code = self.code[program]
        target = self.targets[target_name]

        def call():
            return LLEE(target, self._storage).run_executable(code)

        def check(report):
            expect(self.expected[program], report.return_value,
                   report.output, report.exit_status)
            return {"cycles": report.cycles,
                    "machine_sim.instructions":
                        report.native_instructions_executed,
                    "targets.functions_translated": report.functions_jitted,
                    "cache.lookups": 1,
                    "cache.hits": int(report.cache_hit)}

        return Op(target_name, program, call, check)


WORKLOADS = {cls.name: cls for cls in (Toolchain, Launch, Native)}


def scratch_dir(root: str) -> str:
    """The benchmark's working directory inside the checkout."""
    path = os.path.join(root, ".pipebench")
    os.makedirs(path, exist_ok=True)
    return path
