"""Machine-simulator internals: cycle model, frames, argument slots."""

import pytest

from repro.asm import parse_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.machine_sim import CYCLES, MachineSimulator
from repro.ir import verify_module
from repro.targets import make_target, translate_module
from repro.targets.machine import Semantics


def _simulate(source: str, target_name="x86", entry="main", args=()):
    module = parse_module(source)
    verify_module(module)
    native = translate_module(module, make_target(target_name))
    simulator = MachineSimulator(native, module)
    value, status = simulator.run(entry, args)
    return simulator, value


class TestCycleModel:
    def test_loads_cost_more_than_moves(self):
        assert CYCLES[Semantics.LOAD] > CYCLES[Semantics.MOV]
        assert CYCLES[Semantics.CALL] > CYCLES[Semantics.JMP]

    def test_cycles_scale_with_work(self):
        template = """
        int %main() {{
        entry:
                br label %loop
        loop:
                %i = phi int [ 0, %entry ], [ %i2, %loop ]
                %i2 = add int %i, 1
                %c = setlt int %i2, {0}
                br bool %c, label %loop, label %done
        done:
                ret int %i2
        }}
        """
        short_sim, _ = _simulate(template.format(10))
        long_sim, _ = _simulate(template.format(100))
        assert long_sim.cycles > short_sim.cycles * 5

    def test_division_is_expensive(self):
        div_sim, _ = _simulate("""
        int %main() {
        entry:
                %a = div int 1000, 7
                ret int %a
        }
        """)
        add_sim, _ = _simulate("""
        int %main() {
        entry:
                %a = add int 1000, 7
                ret int %a
        }
        """)
        assert div_sim.cycles > add_sim.cycles

    def test_deterministic_cycles(self):
        source = """
        int %main() {
        entry:
                %a = mul int 6, 7
                ret int %a
        }
        """
        first, _ = _simulate(source)
        second, _ = _simulate(source)
        assert first.cycles == second.cycles

    def test_cycle_budget(self):
        module = parse_module("""
        int %main() {
        entry:
                br label %spin
        spin:
                br label %spin
        }
        """)
        native = translate_module(module, make_target("x86"))
        simulator = MachineSimulator(native, module, max_cycles=5000)
        with pytest.raises(ExecutionTrap):
            simulator.run("main")

    def test_cycle_budget_exact_boundary(self):
        """A budget of N means N cycles may be *spent*: a run costing
        exactly N completes, a budget of N-1 traps, and the trapped
        simulator never charges past its budget."""
        source = """
        int %main() {
        entry:
                %a = mul int 6, 7
                %b = add int %a, 1
                ret int %b
        }
        """
        full, _ = _simulate(source)
        total = full.cycles

        module = parse_module(source)
        verify_module(module)
        native = translate_module(module, make_target("x86"))
        exact = MachineSimulator(native, module, max_cycles=total)
        value, _status = exact.run("main")
        assert value == 43
        assert exact.cycles == total

        short = MachineSimulator(native, module, max_cycles=total - 1)
        with pytest.raises(ExecutionTrap):
            short.run("main")
        assert short.cycles <= total - 1


class TestTrapDetailParity:
    """Simulator faults carry the same kind + detail strings as the
    interpreter engines, so trap reports are byte-identical whether a
    program faults in tier 1, tier 2, or under --target."""

    DIV = """
    int %main() {
    entry:
            %q = div int 9, 0
            ret int %q
    }
    """
    OVERFLOW = """
    int %main() {
    entry:
            %r = add int 2147483647, 1 !ee(true)
            ret int %r
    }
    """

    def _interpreter_trap(self, source):
        module = parse_module(source)
        verify_module(module)
        with pytest.raises(ExecutionTrap) as info:
            Interpreter(module).run("main", [])
        return info.value

    def _simulator_trap(self, source, target_name):
        module = parse_module(source)
        verify_module(module)
        native = translate_module(module, make_target(target_name))
        simulator = MachineSimulator(native, module)
        with pytest.raises(ExecutionTrap) as info:
            simulator.run("main")
        return info.value

    @pytest.mark.parametrize("target", ("x86", "sparc"))
    @pytest.mark.parametrize("source", (DIV, OVERFLOW),
                             ids=("div", "overflow"))
    def test_fault_reports_identical(self, source, target):
        expected = self._interpreter_trap(source)
        got = self._simulator_trap(source, target)
        assert got.trap_number == expected.trap_number
        assert got.detail == expected.detail
        assert str(got) == str(expected)


class TestFramesAndArguments:
    def test_frame_isolation_across_recursion(self):
        """Each frame's slots are private: recursion over locals."""
        source = """
        int %sum_to(int %n) {
        entry:
                %slot = alloca int
                store int %n, int* %slot
                %z = seteq int %n, 0
                br bool %z, label %stop, label %rec
        stop:
                ret int 0
        rec:
                %m = sub int %n, 1
                %rest = call int %sum_to(int %m)
                %mine = load int* %slot
                %r = add int %mine, %rest
                ret int %r
        }
        """
        for target_name in ("x86", "sparc"):
            simulator, value = _simulate(source, target_name, "sum_to",
                                         [10])
            assert value == 55, target_name

    def test_run_arguments_cross_both_conventions(self):
        source = """
        int %pick(int %a, int %b, int %c, int %d, int %e, int %f,
                  int %g, int %h, int %i) {
        entry:
                %x = sub int %i, %a
                ret int %x
        }
        """
        args = [10, 0, 0, 0, 0, 0, 0, 0, 99]
        for target_name in ("x86", "sparc"):
            _sim, value = _simulate(source, target_name, "pick", args)
            assert value == 89, target_name

    def test_negative_arguments_through_stack_slots(self):
        """Stack argument slots are signed-widened consistently — the
        big-endian SPARC path is the regression risk here."""
        source = """
        long %tail(long %a, long %b, long %c, long %d, long %e,
                   long %f, long %g, long %h) {
        entry:
                %x = add long %g, %h
                ret long %x
        }
        """
        args = [0, 0, 0, 0, 0, 0, -1000000, 7]
        for target_name in ("x86", "sparc"):
            _sim, value = _simulate(source, target_name, "tail", args)
            assert value == -999993, target_name

    def test_instruction_counter(self):
        simulator, _ = _simulate("""
        int %main() {
        entry:
                ret int 0
        }
        """)
        assert simulator.instructions_executed >= 2  # mov + ret


class TestInstrCostMemo:
    def test_cost_memoized_on_instruction(self):
        """instr_cost fills the per-instruction memo on first use and
        serves it afterwards — no opcode re-dispatch per cycle."""
        from repro.execution.machine_sim import instr_cost
        from repro.targets.machine import MachineInstr

        instr = MachineInstr("addl", Semantics.ALU, [])
        first = instr_cost(instr)
        assert first > 0
        assert instr.cost == first
        # The memo is authoritative: a pre-set cost is returned as-is.
        instr.cost = 999
        assert instr_cost(instr) == 999

    def test_fresh_instruction_has_no_cost(self):
        from repro.targets.machine import MachineInstr

        assert MachineInstr("nop", Semantics.NOP).cost is None


class TestFrameEntryHoisting:
    """_MachineFrame hoists the machine-function attributes it needs
    at frame entry; the step loop must never chase
    ``frame.machine.<attr>`` per executed instruction."""

    LOOP = """
    int %spin(int %n) {
    entry:
            br label %loop
    loop:
            %i = phi int [0, %entry], [%next, %loop]
            %next = add int %i, 1
            %done = setge int %next, %n
            br bool %done, label %exit, label %loop
    exit:
            ret int %next
    }
    int %main() {
    entry:
            %a = call int %spin(int 200)
            %b = call int %spin(int 200)
            %r = add int %a, %b
            ret int %r
    }
    """

    class _CountingMachine:
        """Attribute-access-counting proxy around a MachineFunction."""

        def __init__(self, machine):
            object.__setattr__(self, "_machine", machine)
            object.__setattr__(self, "reads", {})

        def __getattr__(self, name):
            reads = object.__getattribute__(self, "reads")
            reads[name] = reads.get(name, 0) + 1
            return getattr(object.__getattribute__(self, "_machine"),
                           name)

    def test_no_per_step_machine_attribute_chasing(self):
        module = parse_module(self.LOOP)
        verify_module(module)
        native = translate_module(module, make_target("x86"))
        counting = self._CountingMachine(native.functions["spin"])
        native.functions["spin"] = counting
        simulator = MachineSimulator(native, module)
        value, _status = simulator.run("main")
        assert value == 400
        # %spin executes ~1200 instructions across two activations;
        # machine-function attribute reads must scale with the two
        # frame entries (plus the per-call SMC staleness check), not
        # with the step count.
        assert simulator.instructions_executed > 1000
        reads = counting.reads
        assert reads.get("blocks", 0) <= 6, reads
        assert reads.get("frame_size", 0) <= 6, reads


class TestStaleTranslationDetection:
    def test_smc_version_mismatch_forces_retranslation(self):
        module = parse_module("""
        int %f() {
        entry:
                ret int 1
        }
        int %g() {
        entry:
                ret int 2
        }
        int %main() {
        entry:
                %r = call int %f()
                ret int %r
        }
        """)
        from repro.llee.jit import FunctionJIT
        from repro.targets import NativeModule

        target = make_target("x86")
        jit = FunctionJIT(module, target)
        native = jit.translate_all()
        # Host-side SMC between runs.
        module.get_function("f").replace_body_from(
            module.get_function("g"))
        simulator = MachineSimulator(native, module,
                                     resolver=jit.translate)
        value, _ = simulator.run("main")
        assert value == 2  # stale translation detected, retranslated
