"""PipelineConfig: validation and canonical-by-construction.

``canonical()`` is the serving layer's cache-key contract: every
dataclass field participates unless explicitly excluded, and a field
that is neither excluded nor a canonical-safe scalar must fail loudly —
a new knob can never silently alias cache entries.
"""

from dataclasses import dataclass

import pytest

from repro.pipeline import PipelineConfig


class TestValidation:
    def test_rejects_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            PipelineConfig(variant="mc-ssapre", solver="simplex")

    def test_solver_applies_only_to_mc_ssapre(self):
        with pytest.raises(ValueError, match="mc-ssapre"):
            PipelineConfig(variant="ssapre", solver="lospre")
        # The default solver is fine on any variant.
        assert PipelineConfig(variant="ssapre").solver == "mincut"

    def test_cfg_baselines_reject_rounds(self):
        for variant in ("mc-pre", "ispre", "lcm"):
            with pytest.raises(ValueError, match="one-shot CFG baseline"):
                PipelineConfig(variant=variant, rounds=2)
        assert PipelineConfig(variant="lcm").stages()[0].name == "lcm"

    def test_cfg_baselines_reject_fold_and_cleanup(self):
        # The baselines' one stage ignores both knobs, so accepting them
        # would file the same code under a second canonical key.
        for variant in ("mc-pre", "ispre", "lcm"):
            for knob in ("fold_constants", "cleanup"):
                with pytest.raises(ValueError, match="one-shot CFG baseline"):
                    PipelineConfig(variant=variant, **{knob: True})
        config = PipelineConfig(variant="ssapre", fold_constants=True, cleanup=True)
        assert [s.name for s in config.stages()] == [
            "construct-ssa", "sccp", "ssapre", "copyprop", "dce", "destruct-ssa",
        ]

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            PipelineConfig(variant="ssapre", rounds=0)

    def test_stages_carry_the_solver(self):
        config = PipelineConfig(variant="mc-ssapre", solver="lospre")
        pre = [s for s in config.stages() if s.name == "mc-ssapre"][0]
        assert pre.solver == "lospre"


class TestCanonical:
    def test_pinned_rendering(self):
        # The exact string is the cache-key contract: reordering or
        # renaming fields re-keys every artifact (KEY_SCHEMA bump).
        assert PipelineConfig().canonical() == (
            "variant=mc-ssapre;fold_constants=0;cleanup=0;rounds=1;"
            "solver=mincut"
        )

    def test_every_field_participates(self):
        base = PipelineConfig().canonical()
        assert "solver=mincut" in base
        lospre = PipelineConfig(solver="lospre").canonical()
        assert base != lospre and "solver=lospre" in lospre

    def test_unclassified_field_fails_loudly(self):
        @dataclass(frozen=True)
        class Extended(PipelineConfig):
            knob: tuple = (1, 2)

        with pytest.raises(TypeError, match="knob"):
            Extended().canonical()

    def test_exclude_list_is_honored(self):
        @dataclass(frozen=True)
        class Excluded(PipelineConfig):
            knob: tuple = (1, 2)
            _CANONICAL_EXCLUDE = frozenset({"knob"})

        rendered = Excluded().canonical()
        assert rendered == PipelineConfig().canonical()
        assert "knob" not in rendered

    def test_new_scalar_field_is_keyed_by_construction(self):
        @dataclass(frozen=True)
        class WithKnob(PipelineConfig):
            level: int = 2

        assert WithKnob().canonical().endswith(";level=2")
