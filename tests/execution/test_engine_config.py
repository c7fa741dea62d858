"""EngineConfig: every interpreter option decided once.

The option space is small enough to check exhaustively: 2 engines x
5 flags x 3 thresholds = 192 configurations."""

import importlib.util
import itertools
from pathlib import Path

import pytest

from repro.execution import EngineConfig
from repro.tools import build_parser

from tests.integration import test_cli

IMPLYING_FLAGS = test_cli.TestTierFlagNormalization.IMPLYING_FLAGS

CONFIGS = [
    EngineConfig(engine=engine, sanitize=sanitize, tier2=tier2,
                 superblocks=superblocks, osr=osr,
                 async_compile=async_compile, tier2_threshold=threshold)
    for engine, sanitize, tier2, superblocks, osr, async_compile, threshold
    in itertools.product(("fast", "reference"), (False, True),
                         (False, True), (False, True), (False, True),
                         (False, True), (None, 0, 16))
]

#: The tier-2 option each implying flag sets.
FLAG_FIELDS = {"--tier2": "tier2", "--superblocks": "superblocks",
               "--osr": "osr", "--async-compile": "async_compile"}


def _bench_module():
    path = Path(__file__).resolve().parents[2] / "benchmarks" \
        / "fastpath_bench.py"
    spec = importlib.util.spec_from_file_location("fastpath_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_space_is_exhaustive():
    assert len(CONFIGS) == len(set(CONFIGS)) == 192


def test_resolve_is_idempotent():
    for config in CONFIGS:
        resolved = config.resolve()
        assert resolved.resolve() == resolved


def test_resolve_applies_each_implication():
    for config in CONFIGS:
        resolved = config.resolve()
        tiered = config.tier2 or config.superblocks or config.osr \
            or config.async_compile
        # llva-san pins execution to tier 1; otherwise every tier-2
        # option implies tier 2, and tier 2 implies the fast engine.
        assert resolved.tier2 == (tiered and not config.sanitize)
        assert resolved.engine == ("fast" if resolved.tier2
                                   else config.engine)
        assert resolved.sanitize == config.sanitize
        for name in ("superblocks", "osr", "async_compile"):
            assert getattr(resolved, name) == (
                getattr(config, name) and resolved.tier2)
        assert resolved.tier2_threshold == (
            config.tier2_threshold if resolved.tier2 else None)


def test_cache_key_equal_exactly_when_resolved_equal():
    keys = [config.cache_key() for config in CONFIGS]
    resolved = [config.resolve() for config in CONFIGS]
    for i, j in itertools.combinations(range(len(CONFIGS)), 2):
        assert (keys[i] == keys[j]) == (resolved[i] == resolved[j]), \
            (CONFIGS[i], CONFIGS[j])


@pytest.mark.parametrize("flag", IMPLYING_FLAGS)
def test_run_stats_and_bench_parse_flags_alike(flag):
    # One rule everywhere: each flag implies --tier2 and nothing else,
    # so the bench's --superblocks does not turn on --osr either.
    expected = EngineConfig(tier2_threshold=0,
                            **{FLAG_FIELDS[flag]: True}).resolve()
    tail = [flag, "--tier2-threshold", "0"]
    cli = build_parser()
    for command in ("run", "stats"):
        args = cli.parse_args([command, "prog.bc"] + tail)
        assert EngineConfig.from_args(args, command) == expected
    bench = _bench_module().build_parser().parse_args(tail)
    assert EngineConfig.from_args(bench, "bench") == expected

