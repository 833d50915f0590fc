"""Reducer: shrink a known-buggy variant's failure to a tiny reproducer."""

from pathlib import Path

from repro.check.corpus import (
    failure_slug,
    replay_artifact,
    write_failure_artifact,
)
from repro.check.driver import build_case, check_case, failure_predicate
from repro.check.reducer import STRATEGIES, reduce_function
from repro.ir.builder import FunctionBuilder
from repro.ir.structural import structural_diff
from repro.lang.parser import parse_function

from tests.check.conftest import premature_insertion

import json
import pytest


def _failing_case(shape="cint", seeds=40):
    for seed in range(seeds):
        result = check_case(
            build_case(
                seed, shape, extra_variants={"buggy": premature_insertion}
            ),
            ("equiv",),
        )
        failures = [
            f for f in result.failures
            if f.variant == "buggy" and f.kind == "divergence"
        ]
        if failures:
            return seed, result, failures[0]
    raise AssertionError("premature_insertion never diverged")


class TestEndToEnd:
    """The acceptance scenario: a deliberately mis-placed insertion must
    shrink to <= 6 blocks and replay deterministically from its seed."""

    @pytest.fixture(scope="class")
    def shrunk(self, tmp_path_factory):
        seed, result, failure = _failing_case()
        predicate = failure_predicate(
            seed, "cint", failure,
            extra_variants={"buggy": premature_insertion},
        )
        reduction = reduce_function(result.case.source, predicate)
        out_dir = tmp_path_factory.mktemp("corpus")
        artifact = write_failure_artifact(out_dir, result, failure, reduction)
        return seed, result, failure, reduction, artifact

    def test_shrinks_to_at_most_six_blocks(self, shrunk):
        _, result, _, reduction, _ = shrunk
        assert reduction.blocks <= 6
        assert reduction.blocks <= len(result.case.source)
        assert reduction.statements < result.case.source.statement_count()
        assert reduction.accepted == len(reduction.trail)

    def test_reduced_ir_round_trips(self, shrunk):
        _, _, _, reduction, _ = shrunk
        reparsed = parse_function(reduction.ir_text)
        assert structural_diff(reduction.func, reparsed) == []

    def test_reduced_function_still_fails(self, shrunk):
        seed, _, failure, reduction, _ = shrunk
        predicate = failure_predicate(
            seed, "cint", failure,
            extra_variants={"buggy": premature_insertion},
        )
        assert predicate(reduction.func)

    def test_artifact_replays_from_stored_seed(self, shrunk):
        seed, result, failure, reduction, artifact = shrunk
        record = json.loads(Path(artifact).read_text())
        assert record["seed"] == seed
        assert record["shape"] == "cint"
        assert record["reduced_ir"] == reduction.ir_text
        assert record["transcript"]  # the oracle transcript is stored
        reproduced, replay = replay_artifact(
            artifact, extra_variants={"buggy": premature_insertion}
        )
        assert reproduced
        # Determinism: the replayed failure is byte-identical.
        replayed = [
            f for f in replay.failures
            if f.variant == "buggy" and f.kind == "divergence"
        ]
        assert replayed and replayed[0].detail == failure.detail

    def test_ir_file_written_next_to_json(self, shrunk):
        _, result, failure, reduction, artifact = shrunk
        ir_path = Path(artifact).with_suffix(".ir")
        assert ir_path.exists()
        assert ir_path.read_text().strip() == reduction.ir_text.strip()
        assert failure_slug(result, failure) in ir_path.name


def test_predicate_runs_the_case_settings(monkeypatch):
    # Reduction re-runs the case as it failed: under the run's solver,
    # input count and step budget, with the failing oracle only.
    import repro.check.driver as driver
    from repro.check.oracles import OracleFailure

    seen = []

    def run_case(seed, shape, **kwargs):
        seen.append(kwargs)
        return driver.CaseResult(seed=seed, shape=shape, case=None)

    monkeypatch.setattr(driver, "run_case", run_case)
    failure = OracleFailure("optimal", "mc-ssapre", "suboptimal", "")
    predicate = failure_predicate(
        0, "cint", failure, n_inputs=5, max_steps=900, solver="lospre"
    )
    assert not predicate(None)
    (kwargs,) = seen
    assert kwargs["oracles"] == ("optimal",)
    assert kwargs["solver"] == "lospre"
    assert kwargs["n_inputs"] == 5 and kwargs["max_steps"] == 900


class TestReducerProperties:
    def _diamond(self):
        b = FunctionBuilder("d", params=["a", "b"])
        b.block("entry")
        b.assign("c", "lt", "a", "b")
        b.assign("x", "add", "a", "b")
        b.branch("c", "then", "else_")
        b.block("then")
        b.assign("x", "mul", "x", 2)
        b.jump("join")
        b.block("else_")
        b.assign("x", "sub", "x", 3)
        b.jump("join")
        b.block("join")
        b.output("x")
        b.ret("x")
        return b.build()

    def test_always_true_predicate_shrinks_to_one_block(self):
        reduction = reduce_function(self._diamond(), lambda f: True)
        assert reduction.blocks == 1
        assert reduction.statements <= 2

    def test_rejects_non_failing_input(self):
        with pytest.raises(ValueError, match="nothing to shrink"):
            reduce_function(self._diamond(), lambda f: False)

    def test_input_never_mutated(self):
        func = self._diamond()
        before = str(func)
        reduce_function(func, lambda f: True)
        assert str(func) == before

    def test_every_accepted_candidate_satisfies_predicate(self):
        # The predicate only accepts functions that still contain a `mul`:
        # the reducer must keep it while deleting everything else.
        def has_mul(f):
            return "mul" in str(f)

        reduction = reduce_function(self._diamond(), has_mul)
        assert "mul" in reduction.ir_text
        assert reduction.blocks <= 2

    def test_strategy_order_is_coarse_to_fine(self):
        assert [name for name, _ in STRATEGIES] == [
            "straighten", "drop-block", "inline-jump", "drop-store",
            "drop-stmt", "constify", "constify-index",
        ]


class TestMemoryStrategies:
    """drop-store and constify-index: the two memory-aware passes."""

    def _build(self):
        b = FunctionBuilder("m", params=["a", "i"])
        b.array("A", 8)
        b.array("B", 4)
        b.block("entry")
        b.assign("m", "and", "i", 7)
        b.store("A", "m", "a")
        b.store("B", 0, "a")
        b.load("x", "A", "m")
        b.assign("y", "add", "x", "a")
        b.ret("y")
        return b.build()

    def test_stores_dropped_when_irrelevant(self):
        # The predicate only needs the load: both stores must go.
        from repro.ir.instructions import Store

        def has_load(f):
            return "load A" in str(f)

        reduction = reduce_function(self._build(), has_load)
        assert "load A" in reduction.ir_text
        stores = [
            s for block in reduction.func for s in block.body
            if isinstance(s, Store)
        ]
        assert stores == []

    def test_variable_index_constified(self):
        # Predicate keeps the load but not its masked index: the
        # constify-index pass must rewrite `load A, m` to `load A, 0`.
        def has_load(f):
            return "load A" in str(f)

        reduction = reduce_function(self._build(), has_load)
        assert "load A, 0" in reduction.ir_text

    def test_store_kept_when_failure_needs_it(self):
        from repro.ir.instructions import Store

        def has_store(f):
            return any(
                isinstance(s, Store) and s.array == "A"
                for block in f for s in block.body
            )

        reduction = reduce_function(self._build(), has_store)
        assert any(
            isinstance(s, Store) and s.array == "A"
            for block in reduction.func for s in block.body
        )
