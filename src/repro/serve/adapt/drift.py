"""Profile-drift detection: live traffic vs the compile-time profile.

An artifact is optimal only *with respect to the profile it was compiled
under* (the paper's whole premise), so the serving tier must notice when
real traffic stops looking like that profile.  :class:`DriftDetector`
scores the live node-frequency distribution against the baseline one
with a bounded divergence — normalized L1 (total variation) — and
fires once the score crosses ``threshold`` *and*
enough runs have been folded to make the estimate trustworthy
(``min_samples``; a two-run profile diverging from the baseline is
noise, not drift).

The score lives in ``[0, 1]``, compares *shapes* rather than masses
(each side is normalized first, so a uniformly-hotter workload with the
same distribution scores 0.0 — identical placement decisions, nothing to
recompile), and treats a missing side as score 0.0: no evidence is never
evidence of drift.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.serve.adapt.live import normalized

#: Default score threshold: a quarter of the probability mass has moved
#: (L1) before a recompile is worth its cost.
DEFAULT_THRESHOLD = 0.25

#: Default minimum live samples before the detector may fire.
DEFAULT_MIN_SAMPLES = 16

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_MIN_SAMPLES",
    "DriftVerdict",
    "DriftDetector",
    "l1_distance",
]


def l1_distance(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Total-variation distance between two distributions, in [0, 1].

    Half the L1 norm of the difference over the union of labels — the
    fraction of probability mass that moved.
    """
    labels = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in labels)


@dataclass(frozen=True)
class DriftVerdict:
    """One detector decision: the score and whether it fired."""

    drifted: bool
    score: float
    samples: int
    #: Why the verdict is what it is ("drift", "below-threshold",
    #: "insufficient-samples", "no-baseline", "no-live-profile").
    reason: str


class DriftDetector:
    """Scores live node frequencies against a compile-time baseline."""

    def __init__(
        self,
        threshold: float = DEFAULT_THRESHOLD,
        min_samples: int = DEFAULT_MIN_SAMPLES,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.threshold = threshold
        self.min_samples = min_samples

    def score(
        self, baseline: Mapping[str, float], live: Mapping[str, float]
    ) -> float:
        """The divergence between the two frequency maps, in [0, 1].

        Raw counts are accepted on either side; both are normalized
        before comparison.  Either side empty scores 0.0.
        """
        p = normalized(baseline)
        q = normalized(live)
        if not p or not q:
            return 0.0
        return l1_distance(p, q)

    def check(
        self,
        baseline: Mapping[str, float],
        live: Mapping[str, float],
        samples: int,
    ) -> DriftVerdict:
        """Full gated decision for one structural key."""
        if not any(baseline.values()):
            return DriftVerdict(False, 0.0, samples, "no-baseline")
        if not any(live.values()):
            return DriftVerdict(False, 0.0, samples, "no-live-profile")
        score = self.score(baseline, live)
        if samples < self.min_samples:
            return DriftVerdict(False, score, samples, "insufficient-samples")
        if score < self.threshold:
            return DriftVerdict(False, score, samples, "below-threshold")
        return DriftVerdict(True, score, samples, "drift")
