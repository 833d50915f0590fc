"""Content-addressed keys: renumbering-stable, semantics-sensitive."""

import pytest

from repro.bench.workloads import CFP2006, CINT2006, COMPOSITE, MEMORY, load_workload
from repro.ir.printer import format_function, normalize_versions
from repro.pipeline import PipelineConfig, prepare
from repro.profiles.interp import run_function
from repro.serve.keys import (
    _digest,
    artifact_key,
    function_fingerprint,
    profile_fingerprint,
)

from tests.conftest import as_ssa, build_diamond, build_straightline
from tests.ir.test_printer_normalize import _shuffle_versions


class TestFunctionFingerprint:
    def test_stable_across_ssa_version_renumbering(self):
        func = as_ssa(build_diamond())
        assert function_fingerprint(func) == function_fingerprint(
            _shuffle_versions(func)
        )

    @pytest.mark.parametrize("name", CINT2006 + CFP2006 + MEMORY + COMPOSITE)
    def test_equals_the_normalized_print(self, name):
        """The fingerprint prints a version-free function without cloning
        it; the bytes must be those of ``format_function(normalize=True)``."""
        prepared = prepare(load_workload(name).program.func)
        for func in (prepared, as_ssa(prepared)):
            normalized = normalize_versions(func)
            body = format_function(func, normalize=True).split("\n", 1)[1]
            params = ",".join(str(p) for p in normalized.params)
            arrays = ",".join(
                f"{array}:{length}" for array, length in sorted(func.arrays.items())
            )
            assert function_fingerprint(func) == _digest(
                (f"params:{params}", f"arrays:{arrays}", body)
            )

    def test_name_does_not_count(self):
        a = build_diamond()
        b = build_diamond()
        b.name = "renamed"
        assert function_fingerprint(a) == function_fingerprint(b)

    def test_different_bodies_differ(self):
        assert function_fingerprint(build_diamond()) != function_fingerprint(
            build_straightline()
        )

    def test_deterministic(self):
        assert function_fingerprint(build_diamond()) == function_fingerprint(
            build_diamond()
        )

    def test_array_declarations_are_key_material(self):
        # Array length decides what the optimiser may speculate (a
        # constant index is provably safe iff it is inside the declared
        # bounds) *and* the initial memory contents — two functions
        # differing only there must never share an artifact.
        a = build_diamond()
        b = build_diamond()
        c = build_diamond()
        b.declare_array("A", 8)
        c.declare_array("A", 4)
        assert function_fingerprint(a) != function_fingerprint(b)
        assert function_fingerprint(b) != function_fingerprint(c)

    def test_array_declaration_order_does_not_count(self):
        a = build_diamond()
        a.declare_array("A", 8)
        a.declare_array("B", 4)
        b = build_diamond()
        b.declare_array("B", 4)
        b.declare_array("A", 8)
        assert function_fingerprint(a) == function_fingerprint(b)


class TestProfileFingerprint:
    def _profile(self, args):
        return run_function(prepare(build_diamond()), args).profile

    def test_same_run_same_fingerprint(self):
        assert profile_fingerprint(self._profile([1, 2, 1])) == (
            profile_fingerprint(self._profile([1, 2, 1]))
        )

    def test_different_path_different_fingerprint(self):
        # c=0 vs c=1 takes the other diamond arm.
        assert profile_fingerprint(self._profile([1, 2, 1])) != (
            profile_fingerprint(self._profile([1, 2, 0]))
        )


class TestArtifactKey:
    def setup_method(self):
        self.prepared = prepare(build_diamond())

    def test_every_input_is_keyed(self):
        base = artifact_key(self.prepared, PipelineConfig(variant="ssapre"))
        assert base != artifact_key(
            self.prepared, PipelineConfig(variant="lcm")
        )
        assert base != artifact_key(
            self.prepared, PipelineConfig(variant="ssapre", rounds=3)
        )
        profiled = PipelineConfig(variant="mc-ssapre")
        assert artifact_key(
            self.prepared, profiled, train_args=(1, 2, 3)
        ) != artifact_key(self.prepared, profiled, train_args=(1, 2, 4))

    def test_profile_free_keys_ignore_the_profile(self):
        # ssapre never reads a profile: training inputs or counts that
        # ride along with it must not mint a second key.
        config = PipelineConfig(variant="ssapre")
        base = artifact_key(self.prepared, config)
        profile = run_function(self.prepared, [1, 2, 1]).profile
        assert artifact_key(self.prepared, config, train_args=(1, 2, 3)) == base
        assert artifact_key(self.prepared, config, profile=profile) == base

    def test_train_args_key_is_intensional(self):
        config = PipelineConfig(variant="mc-ssapre")
        a = artifact_key(self.prepared, config, train_args=(1, 2, 1))
        b = artifact_key(self.prepared, config, train_args=(1, 2, 1))
        c = artifact_key(self.prepared, config, train_args=(1, 2, 0))
        assert a == b != c

    def test_profile_guided_requires_profile_or_train_args(self):
        with pytest.raises(ValueError, match="profile-guided"):
            artifact_key(self.prepared, PipelineConfig(variant="mc-ssapre"))

    def test_rejects_both_profile_and_train_args(self):
        profile = run_function(self.prepared, [1, 2, 1]).profile
        with pytest.raises(ValueError, match="not both"):
            artifact_key(
                self.prepared, PipelineConfig(variant="mc-ssapre"),
                train_args=(1, 2, 1), profile=profile,
            )

    def test_extensional_profile_keying(self):
        config = PipelineConfig(variant="mc-ssapre")
        p1 = run_function(self.prepared, [1, 2, 1]).profile
        p2 = run_function(self.prepared, [1, 2, 1]).profile
        assert artifact_key(self.prepared, config, profile=p1) == (
            artifact_key(self.prepared, config, profile=p2)
        )


class TestSolverKeying:
    def setup_method(self):
        self.prepared = prepare(build_diamond())

    def _key(self, solver):
        return artifact_key(
            self.prepared,
            PipelineConfig(variant="mc-ssapre", solver=solver),
            train_args=(1, 2, 1),
        )

    def test_solvers_key_distinct_artifacts(self):
        assert self._key("mincut") != self._key("lospre")

    def test_key_schema_pins_the_layout(self):
        # v2 made keys solver-aware; v3 folded array declarations into
        # the function fingerprint; v4 dropped the engine section and
        # keys profile-free configs unprofiled.
        from repro.serve.keys import KEY_SCHEMA

        assert KEY_SCHEMA == 4
