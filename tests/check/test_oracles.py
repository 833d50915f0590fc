"""Each oracle must reject its bug class and accept the real compiler."""

from repro.check.driver import build_case, check_case
from repro.check.oracles import (
    ORACLE_NAMES,
    ORACLES,
    temp_live_range_size,
)
from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import Output
from repro.profiles.compiled import chord_bound, compile_function
from repro.ir.values import Const

from tests.check.conftest import (
    identity_mc_ssapre,
    premature_insertion,
    speculate_trapping,
)


def _first_failing_seed(shape, oracle, variant_name, variant_fn, seeds=40):
    """Scan seeds until the injected bug trips the given oracle."""
    for seed in range(seeds):
        result = check_case(
            build_case(
                seed, shape, extra_variants={variant_name: variant_fn}
            ),
            (oracle,),
        )
        failures = [
            f for f in result.failures
            if f.variant == variant_name and f.oracle == oracle
        ]
        if failures:
            return seed, result, failures
    raise AssertionError(
        f"{variant_name} never tripped the {oracle} oracle in {seeds} seeds"
    )


class TestRegistry:
    def test_registry_matches_names(self):
        assert tuple(ORACLES) == ORACLE_NAMES


class TestEquivalence:
    def test_catches_misplaced_insertion(self):
        _, _, failures = _first_failing_seed(
            "cint", "equiv", "buggy", premature_insertion
        )
        assert failures[0].kind == "divergence"
        assert "observable" in failures[0].detail

    def test_catches_extra_output(self):
        def noisy(func, profile):
            func.entry_block.body.append(Output(Const(424242)))
            func.mark_code_mutated()
            return func

        _, _, failures = _first_failing_seed("cint", "equiv", "noisy", noisy, seeds=3)
        assert failures[0].kind == "divergence"


class TestSafety:
    def test_catches_speculated_trapping_op(self):
        _, result, failures = _first_failing_seed(
            "cint", "safety", "spec", speculate_trapping
        )
        assert failures[0].kind == "unsafe"
        # The speculated program is still semantically equivalent (div is
        # total here): the bug is invisible to the equiv oracle, which is
        # exactly why the safety oracle exists.
        equiv = ORACLES["equiv"](result.case)
        assert not [
            f for f in equiv.failures if f.variant == "spec"
        ]


class TestOptimality:
    def test_catches_unoptimised_impostor(self):
        _, _, failures = _first_failing_seed(
            "cint", "optimal", "mc-ssapre", identity_mc_ssapre, seeds=10
        )
        assert failures[0].kind == "suboptimal"

    def test_real_compiler_is_optimal(self):
        for seed in range(3):
            result = check_case(build_case(seed, "cfp"), ("optimal",))
            (report,) = result.reports
            assert report.checks > 0
            assert report.passed


class TestLifetime:
    def test_real_compiler_passes(self):
        result = check_case(build_case(1, "cint"), ("lifetime",))
        (report,) = result.reports
        assert report.checks >= 3
        assert report.passed

    def test_temp_live_range_counts_only_pre_temps(self):
        b = FunctionBuilder("f", params=["a"])
        b.block("entry")
        b.assign("%pre1", "add", "a", 1)
        b.jump("next")
        b.block("next")
        b.assign("x", "add", "%pre1", "a")
        b.ret("x")
        func = b.build()
        # %pre1 is live into "next"; the ordinary variables are not counted.
        assert temp_live_range_size(func) == 1


class TestProbes:
    def test_real_compiler_reconstruction_matches(self):
        # The control program's counted edges stay within the bound;
        # the derived counts are the driver's engine parity check.
        for seed in range(2):
            result = check_case(build_case(seed, "mem"), ("probes",))
            (report,) = result.reports
            assert report.checks == 1
            assert report.passed
            assert not result.compile_failures

    def test_multi_exit_meets_the_bound(self):
        # Same arity as the seed-0 cint spec, so the control runs work.
        b = FunctionBuilder("twoexit", params=["p0", "p1", "p2"])
        b.block("entry")
        b.assign("c", "lt", "p0", "p1")
        b.branch("c", "yes", "no")
        b.block("yes")
        b.ret(1)
        b.block("no")
        b.ret(0)
        func = b.build()
        # |E| - |V| + R = 2 - 3 + 2: one of the two exits is counted.
        assert chord_bound(func) == 1
        assert len(compile_function(func).chords) == 1
        result = check_case(build_case(0, "cint", source=func), ("probes",))
        (report,) = result.reports
        assert report.passed

    def test_catches_an_over_counting_lowering(self, monkeypatch):
        from repro.profiles import compiled

        monkeypatch.setattr(compiled, "chord_bound", lambda func: 0)
        result = check_case(build_case(0, "cint"), ("probes",))
        (failure,) = result.reports[0].failures
        assert failure.kind == "chord-bound"
