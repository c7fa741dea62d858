"""Regenerate ``oracle.json``, the benchmark's correctness oracle.

For every program a workload executes, at that workload's scale, the
oracle holds the output, return value and exit status of the reference
interpreter running the unoptimized (-O0) module.  That engine and that
module share nothing with the optimizer, the fast engine, tier 2 or
either target, so agreement with it is independent evidence.  Each entry
records the SHA-256 of the MiniC source it was made from; the benchmark
refuses an entry whose source has changed.

Usage, from the root of the repository:
    python3 pipebench/oracle.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE_PATH = os.path.join(HERE, "oracle.json")


def load_oracle() -> dict:
    with open(ORACLE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def build_oracle() -> dict:
    from repro.benchsuite import load_workload
    from repro.execution import Interpreter
    from repro.minic import compile_source

    from workloads import WORKLOADS, oracle_key, source_digest

    entries = {}
    for workload in WORKLOADS.values():
        if not workload.executes:
            continue
        for program in workload.programs:
            key = oracle_key(program, workload.scale)
            if key in entries:
                continue
            source = load_workload(program, workload.scale).source
            module = compile_source(source, program)
            result = Interpreter(module).run("main")
            entries[key] = {
                "source_sha256": source_digest(source),
                "return_value": result.return_value,
                "output": result.output,
                "exit_status": result.exit_status,
            }
            print("{0:16s} {1:>10d} steps".format(key, result.steps),
                  flush=True)
    return entries


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    entries = build_oracle()
    with open(ORACLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
