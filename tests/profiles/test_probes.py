"""Minimum-coverage profiling: placement, reconstruction, fallbacks.

The subsystem's contract (docs/PROFILING.md): probe placement never
exceeds the spanning-tree bound ``|E| - |V| + 1``, reconstruction via
flow conservation is *bit-identical* to full counting on both engines,
refusals (multi-exit, no-exit, oversized CFGs) are machine-readable and
fall back to full counting, and broken inputs fail loudly instead of
producing a plausible-but-wrong profile.
"""

from __future__ import annotations

import pickle
import re

import pytest

from repro.ir.builder import FunctionBuilder
from repro.pipeline import prepare
from repro.profiles.compiled import compile_function
from repro.profiles.interp import run_function
from repro.profiles.probes import (
    MAX_BLOCKS,
    PlacementError,
    ProbePlacement,
    ReconstructionError,
    cfg_shape,
    place_probes,
    reconstruct_profile,
    run_probed,
    try_place_probes,
)

from tests.conftest import build_diamond, build_straightline, build_while_loop


def build_multi_exit():
    """Two return blocks: outside the certified placement envelope."""
    b = FunctionBuilder("twoexit", params=["c"])
    b.block("entry")
    b.branch("c", "yes", "no")
    b.block("yes")
    b.ret(1)
    b.block("no")
    b.ret(0)
    return b.build()


def build_no_exit():
    """An infinite loop: no return block at all."""
    b = FunctionBuilder("spin", params=["n"])
    b.block("entry")
    b.jump("loop")
    b.block("loop")
    b.jump("loop")
    return b.build()


def build_branchy_loop():
    """A loop with a two-arm branch in its body: ``(n, flag)`` params."""
    b = FunctionBuilder("branchy", params=["n", "flag"])
    b.block("entry")
    b.copy("i", 0)
    b.copy("s", 0)
    b.jump("head")
    b.block("head")
    b.assign("c", "lt", "i", "n")
    b.branch("c", "body", "done")
    b.block("body")
    b.branch("flag", "hot", "skip")
    b.block("hot")
    b.assign("s", "add", "s", 2)
    b.jump("latch")
    b.block("skip")
    b.assign("s", "add", "s", 1)
    b.jump("latch")
    b.block("latch")
    b.assign("i", "add", "i", 1)
    b.jump("head")
    b.block("done")
    b.ret("s")
    return b.build()


def build_unreachable():
    """A block no path reaches: placement must ignore it entirely."""
    b = FunctionBuilder("unreach", params=["a"])
    b.block("entry")
    b.assign("x", "add", "a", 1)
    b.jump("exit")
    b.block("island")
    b.assign("y", "add", "a", 2)
    b.jump("exit")
    b.block("exit")
    b.ret("x")
    return b.build()


class TestPlacement:
    def test_diamond_within_bound_and_deterministic(self):
        func = build_diamond()
        placement = place_probes(func)
        assert len(placement.probes) <= placement.bound
        assert placement.bound == placement.n_edges - len(placement.blocks) + 1
        assert placement == place_probes(func)

    def test_single_block_needs_no_probes(self):
        placement = place_probes(build_straightline())
        assert placement.bound == 0
        assert placement.probes == ()

    def test_cheapest_determining_block_wins(self):
        func = build_while_loop()
        profile = run_function(func, [2, 3, 50]).profile
        placement = place_probes(func, profile=profile)
        # entry and done carry no information (every run executes each
        # exactly once, so their counts equal the known run count): the
        # one probe must sit inside the loop, and of the two candidates
        # the greedy picks the cheaper body (50) over the head (51).
        assert placement.probes == ("body",)
        assert profile.node_freq["head"] > profile.node_freq["body"]

    def test_hot_branch_arm_stays_uninstrumented(self):
        func = build_branchy_loop()
        # flag=1: the "hot" arm runs every iteration, "skip" never.
        profile = run_function(func, [40, 1]).profile
        placement = place_probes(func, profile=profile)
        assert len(placement.probes) <= placement.bound
        # The cold arm is in the probe set; the hot arm and the hottest
        # block (the loop head) run uninstrumented.
        assert "skip" in placement.probes
        assert "hot" not in placement.probes
        assert "head" not in placement.probes

    def test_multi_exit_refused(self):
        with pytest.raises(PlacementError) as excinfo:
            place_probes(build_multi_exit())
        assert excinfo.value.reason == "multi-exit"
        placement, reason = try_place_probes(build_multi_exit())
        assert placement is None
        assert reason == "multi-exit"

    def test_no_exit_refused(self):
        with pytest.raises(PlacementError) as excinfo:
            place_probes(build_no_exit())
        assert excinfo.value.reason == "no-exit"

    def test_oversized_cfg_refused(self):
        with pytest.raises(PlacementError) as excinfo:
            place_probes(build_diamond(), max_blocks=2)
        assert excinfo.value.reason == "too-large"
        assert MAX_BLOCKS >= 2

    def test_unreachable_blocks_are_ignored(self):
        func = build_unreachable()
        entry, blocks, edges, exits = cfg_shape(func)
        assert "island" not in blocks
        assert all("island" not in edge for edge in edges)
        placement = place_probes(func)
        assert "island" not in placement.blocks


class TestReconstruction:
    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    @pytest.mark.parametrize("build,args", [
        (build_diamond, [3, 4, 1]),
        (build_diamond, [3, 4, 0]),
        (build_while_loop, [2, 3, 9]),
        (build_straightline, [5, 6]),
        (build_unreachable, [7]),
    ])
    def test_bit_identical_to_full_counting(self, engine, build, args):
        func = build()
        full = run_function(func, list(args))
        probed = run_probed(func, list(args), engine=engine)
        assert probed.placement is not None
        assert probed.fallback_reason is None
        sparse = probed.result
        assert dict(sparse.profile.node_freq) == dict(full.profile.node_freq)
        assert sparse.observable() == full.observable()
        assert sparse.dynamic_cost == full.dynamic_cost
        assert dict(sparse.expr_counts) == dict(full.expr_counts)
        assert sparse.steps == full.steps
        if sparse.profile.edge_freq:
            assert dict(sparse.profile.edge_freq) == dict(
                full.profile.edge_freq
            )

    def test_zero_trip_loop_drops_the_body(self):
        func = build_while_loop()
        full = run_function(func, [1, 2, 0])
        sparse = run_probed(func, [1, 2, 0]).result
        assert "body" not in sparse.profile.node_freq
        assert dict(sparse.profile.node_freq) == dict(full.profile.node_freq)

    def test_reconstructed_edges_satisfy_flow_conservation(self):
        func = build_while_loop()
        probed = run_probed(func, [2, 3, 6])
        profile = probed.result.profile
        if profile.edge_freq:
            assert profile.check_flow_conservation(
                probed.placement.entry
            ) == []

    def test_multiple_runs_aggregate_exactly(self):
        func = build_diamond()
        placement = place_probes(func)
        single = run_probed(func, [3, 4, 1])
        counts = {
            label: 3 * single.result.profile.node_freq[label]
            for label in placement.probes
        }
        profile = reconstruct_profile(placement, counts, runs=3)
        full = run_function(func, [3, 4, 1]).profile
        assert dict(profile.node_freq) == {
            label: 3 * n for label, n in full.node_freq.items()
        }

    def test_merge_round_trip(self):
        func = build_while_loop()
        full_a = run_function(func, [1, 1, 4]).profile
        full_b = run_function(func, [2, 2, 7]).profile
        sparse_a = run_probed(func, [1, 1, 4]).result.profile
        sparse_b = run_probed(func, [2, 2, 7]).result.profile
        full_a.merge(full_b)
        sparse_a.merge(sparse_b)
        assert dict(sparse_a.node_freq) == dict(full_a.node_freq)

    def test_scaled_round_trip(self):
        func = build_while_loop()
        full = run_function(func, [2, 3, 5]).profile.scaled(2.0)
        sparse = run_probed(func, [2, 3, 5]).result.profile.scaled(2.0)
        assert dict(sparse.node_freq) == dict(full.node_freq)


class TestLoudFailures:
    def test_under_determined_system_raises(self):
        # Strip the probe set: the diamond's branch arm split is then
        # unobservable and the solver must refuse, not guess.
        placement = place_probes(build_diamond())
        assert placement.probes  # the diamond genuinely needs a probe
        blind = ProbePlacement(
            entry=placement.entry, blocks=placement.blocks,
            edges=placement.edges, exits=placement.exits, probes=(),
        )
        with pytest.raises(ReconstructionError):
            reconstruct_profile(blind, {}, runs=1)

    def test_inconsistent_counts_raise(self):
        # Redundant probes on both diamond arms: their counts must sum
        # to the run count, so (1, 1) against runs=1 is a contradiction.
        placement = place_probes(build_diamond())
        redundant = ProbePlacement(
            entry=placement.entry, blocks=placement.blocks,
            edges=placement.edges, exits=placement.exits,
            probes=("left", "right"),
        )
        with pytest.raises(ReconstructionError):
            reconstruct_profile(redundant, {"left": 1, "right": 1}, runs=1)

    def test_negative_reconstruction_raises(self):
        # One run cannot take the diamond's probed arm twice: the other
        # arm would have run -1 times.
        placement = place_probes(build_diamond())
        (probe,) = placement.probes
        with pytest.raises(ReconstructionError, match="non-negative"):
            reconstruct_profile(placement, {probe: 2}, runs=1)

    def test_counts_for_unprobed_blocks_rejected(self):
        placement = place_probes(build_diamond())
        with pytest.raises(ValueError):
            reconstruct_profile(placement, {"not-a-probe": 1}, runs=1)

    def test_negative_runs_rejected(self):
        placement = place_probes(build_diamond())
        with pytest.raises(ValueError):
            reconstruct_profile(placement, {}, runs=-1)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_probed(build_diamond(), [1, 2, 3], engine="jit")


class TestFallback:
    def test_multi_exit_falls_back_to_full_counting(self):
        func = build_multi_exit()
        probed = run_probed(func, [1])
        assert probed.placement is None
        assert probed.fallback_reason == "multi-exit"
        full = run_function(func, [1])
        assert dict(probed.result.profile.node_freq) == dict(
            full.profile.node_freq
        )
        # The fallback *is* full counting, edges included.
        assert dict(probed.result.profile.edge_freq) == dict(
            full.profile.edge_freq
        )


class TestSparseCompiledProgram:
    def test_pickle_round_trip_keeps_probes(self):
        prepared = prepare(build_while_loop())
        placement = place_probes(prepared)
        program = compile_function(prepared, probes=placement)
        clone = pickle.loads(pickle.dumps(program))
        assert clone.probes == placement
        a = program.run([2, 3, 8])
        b = clone.run([2, 3, 8])
        assert dict(a.profile.node_freq) == dict(b.profile.node_freq)
        assert a.observable() == b.observable()

    def test_sparse_program_counts_only_probed_blocks(self):
        prepared = prepare(build_while_loop())
        placement = place_probes(prepared)
        program = compile_function(prepared, probes=placement)
        # The generated source bumps exactly one counter per probe and
        # carries none of full counting's chord counters.
        bumped = re.findall(r"\b(_[a-z]\d+) \+= 1\n", program.source)
        assert sorted(bumped) == sorted(
            f"_p{program.labels.index(label)}" for label in placement.probes
        )


class TestSolveOnce:
    def test_repeated_solves_eliminate_once(self, monkeypatch):
        from repro.profiles.probes import flowsys

        calls = []
        eliminate = flowsys.eliminate

        def counting(*args):
            calls.append(args)
            return eliminate(*args)

        monkeypatch.setattr(flowsys, "eliminate", counting)
        func = build_while_loop()
        placement = place_probes(func)
        system = flowsys.FlowSystem(*cfg_shape(func))
        for args in ([2, 3, 0], [2, 3, 5], [1, 1, 9]):
            want = run_function(func, args).profile
            counts = {v: want.node_freq[v] for v in placement.probes}
            nodes, edges = system.solve(placement.probes, counts, 1)
            assert {v: n for v, n in nodes.items() if n} == dict(
                want.node_freq
            )
            assert edges == dict(want.edge_freq)
        assert len(calls) == 1
        system.solve(placement.blocks, {}, 0)
        assert len(calls) == 2
