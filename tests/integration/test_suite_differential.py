"""Whole-suite differential testing at reduced scale.

Every Table 2 workload must produce *identical* results and output when
run (a) by the interpreter, (b) after -O2, (c) translated to x86, and
(d) translated to SPARC — plus survive a bitcode round trip.  This is
the deepest integration net in the repository: it crosses the MiniC
front-end, the optimizer, the object-code encoder, both translators,
both register allocators, and both execution engines.
"""

import pytest

from repro.benchsuite import SUITE_ORDER, load_workload
from repro.bitcode import read_module, write_module
from repro.execution import Interpreter
from repro.execution.machine_sim import MachineSimulator
from repro.minic import compile_source
from repro.targets import make_target, translate_module

SCALE = 0.08

#: A fast cross-section for the per-commit tests; the benchmarks cover
#: the full suite.
FAST_SET = ["anagram", "ks", "ft", "yacr2", "mcf", "gzip", "vortex",
            "gap", "equake"]


@pytest.fixture(scope="module")
def compiled():
    store = {}
    for name in FAST_SET:
        workload = load_workload(name, SCALE)
        module = compile_source(workload.source, name,
                                optimization_level=0)
        reference = Interpreter(module).run("main")
        store[name] = (workload, reference)
    return store


@pytest.mark.parametrize("name", FAST_SET)
def test_optimizer_preserves_output(compiled, name):
    workload, reference = compiled[name]
    module = compile_source(workload.source, name, optimization_level=2)
    result = Interpreter(module).run("main")
    assert result.return_value == reference.return_value
    assert result.output == reference.output
    assert result.steps <= reference.steps


@pytest.mark.parametrize("name", FAST_SET)
def test_bitcode_round_trip_preserves_output(compiled, name):
    workload, reference = compiled[name]
    module = compile_source(workload.source, name, optimization_level=2)
    module2 = read_module(write_module(module))
    result = Interpreter(module2).run("main")
    assert result.return_value == reference.return_value
    assert result.output == reference.output


@pytest.mark.parametrize("name", FAST_SET)
@pytest.mark.parametrize("target_name", ["x86", "sparc"])
def test_native_matches_interpreter(compiled, name, target_name):
    workload, reference = compiled[name]
    module = compile_source(workload.source, name, optimization_level=2)
    native = translate_module(module, make_target(target_name))
    simulator = MachineSimulator(native, module)
    value, status = simulator.run("main")
    assert value == reference.return_value, (name, target_name)
    assert simulator.output_text() == reference.output
    assert status == reference.exit_status


def test_all_seventeen_workloads_compile_and_verify():
    """Every Table 2 row must at least build cleanly at tiny scale."""
    from repro.ir import verify_module

    for name in SUITE_ORDER:
        workload = load_workload(name, 0.05)
        module = compile_source(workload.source, name,
                                optimization_level=2)
        verify_module(module)
        assert module.num_instructions() > 50, name
