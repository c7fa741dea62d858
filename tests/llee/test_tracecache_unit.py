"""Trace-cache unit behaviour beyond the PGO integration tests."""

import pytest

from repro.asm import parse_module
from repro.ir import verify_module
from repro.llee import Profile, SoftwareTraceCache
from repro.llee.tracecache import form_function_traces

SOURCE = """
int %hot_loop(int %n) {
entry:
        br label %header
header:
        %i = phi int [ 0, %entry ], [ %i2, %latch ]
        %c = setlt int %i, %n
        br bool %c, label %body, label %exit
body:
        %odd = and int %i, 1
        %is_odd = seteq int %odd, 1
        br bool %is_odd, label %rare, label %common
common:
        br label %latch
rare:
        br label %latch
latch:
        %i2 = add int %i, 1
        br label %header
exit:
        ret int %i
}
"""


def _profile(counts):
    profile = Profile()
    for block, count in counts.items():
        profile.counts[("hot_loop", block)] = count
    return profile


@pytest.fixture()
def module():
    parsed = parse_module(SOURCE)
    verify_module(parsed)
    return parsed


class TestTraceFormation:
    def test_follows_the_hot_side(self, module):
        profile = _profile({
            "entry": 1, "header": 1000, "body": 999, "common": 900,
            "rare": 99, "latch": 999, "exit": 1,
        })
        cache = SoftwareTraceCache(module, hot_threshold=50)
        traces = cache.form_traces(profile)
        assert traces
        main_trace = traces[0]
        names = [b.name for b in main_trace.blocks]
        assert names[0] == "header"
        assert "common" in names
        assert "rare" not in names  # the cold side stays off-trace

    def test_tie_follows_terminator_order(self):
        """Equally hot successors break the tie by terminator order in
        every fresh module, so a persisted layout stays valid across
        launches."""
        profile = _profile({
            "entry": 1, "header": 1000, "body": 999, "common": 500,
            "rare": 500, "latch": 999, "exit": 1,
        })
        for _ in range(16):
            fresh = parse_module(SOURCE)
            traces = form_function_traces(
                fresh.functions["hot_loop"], profile, hot_threshold=50)
            names = [b.name for b in traces[0].blocks]
            assert names[:3] == ["header", "body", "rare"]

    def test_cold_code_forms_no_traces(self, module):
        profile = _profile({name: 2 for name in
                            ("entry", "header", "body", "common",
                             "rare", "latch", "exit")})
        cache = SoftwareTraceCache(module, hot_threshold=50)
        assert cache.form_traces(profile) == []

    def test_layout_keeps_entry_first_and_all_blocks(self, module):
        profile = _profile({
            "entry": 1, "header": 1000, "body": 999, "common": 900,
            "rare": 99, "latch": 999, "exit": 1,
        })
        cache = SoftwareTraceCache(module, hot_threshold=50)
        cache.form_traces(profile)
        function = module.get_function("hot_loop")
        before = {b.name for b in function.blocks}
        cache.apply_layout()
        verify_module(module)
        after_names = [b.name for b in function.blocks]
        assert after_names[0] == "entry"
        assert set(after_names) == before
        # The trace blocks are contiguous in the new layout.
        trace_names = [b.name for b in cache.traces[0].blocks]
        start = after_names.index(trace_names[0])
        assert after_names[start:start + len(trace_names)] == trace_names

    def test_coverage_metric(self, module):
        profile = _profile({
            "entry": 1, "header": 1000, "body": 999, "common": 900,
            "rare": 99, "latch": 999, "exit": 1,
        })
        cache = SoftwareTraceCache(module, hot_threshold=50)
        cache.form_traces(profile)
        coverage = cache.coverage(profile)
        assert 0.5 < coverage <= 1.0

    def test_semantics_survive_relayout(self, module):
        from repro.execution import Interpreter

        baseline = Interpreter(module).run("hot_loop", [25])
        profile = _profile({
            "entry": 1, "header": 26, "body": 25, "common": 13,
            "rare": 12, "latch": 25, "exit": 1,
        })
        cache = SoftwareTraceCache(module, hot_threshold=5)
        cache.form_traces(profile)
        cache.apply_layout()
        verify_module(module)
        relaid = Interpreter(module).run("hot_loop", [25])
        assert relaid.return_value == baseline.return_value

        # And the relaid function still translates and runs natively.
        from repro.execution.machine_sim import MachineSimulator
        from repro.targets import make_target, translate_module

        native = translate_module(module, make_target("sparc"))
        value, _ = MachineSimulator(native, module).run("hot_loop", [25])
        assert value == baseline.return_value
