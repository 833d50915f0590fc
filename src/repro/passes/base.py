"""Core contracts of the pass subsystem.

Two kinds of unit exist:

* an :class:`AnalysisPass` *derives* information from a function without
  mutating it.  Results are memoised in an
  :class:`~repro.passes.cache.AnalysisCache` and invalidated by the
  generation counters on :class:`~repro.ir.function.Function`;
* a :class:`Pass` *transforms* a function in place and declares, via
  :meth:`Pass.preserves`, which cached analyses survive it.

Invalidation vocabulary (the strings returned by ``preserves()``):

* ``"cfg"`` — the CFG shape (blocks and edges) is untouched, so every
  CFG-derived analysis (``cfg``, ``domtree``, ``domfrontier``, ``loops``)
  stays valid;
* an analysis name (``"liveness"``, …) — that specific analysis is still
  valid even though instructions changed;
* :data:`PRESERVE_ALL` — the pass mutated nothing at all.

The default is the conservative empty set: everything is invalidated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.function import Function

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.passes.cache import AnalysisCache
    from repro.passes.manager import PassContext


class PassError(Exception):
    """A pass could not run (bad input, missing profile, …)."""


class PassVerificationError(PassError):
    """The verify-between-passes mode caught a broken invariant.

    The message always names the offending pass.
    """


class StaleAnalysisError(PassError):
    """A cached analysis was used after its function mutated past it."""


#: Sentinel for :meth:`Pass.preserves`: "I mutated nothing".
PRESERVE_ALL = frozenset({"__all__"})

#: The preservation token meaning "CFG shape untouched".
PRESERVE_CFG = "cfg"


class AnalysisPass:
    """A derived, cacheable view of a function.

    Subclasses set :attr:`name` (the cache key) and :attr:`depends`
    (``"cfg"`` when only the CFG shape matters, ``"code"`` when any
    instruction change invalidates the result) and implement
    :meth:`compute`.  Instances are stateless descriptors — the module
    :mod:`repro.passes.analyses` exposes one shared instance per
    analysis.
    """

    name: str = "?"
    #: Which generation counter gates this result: "cfg" or "code".
    depends: str = "cfg"

    def compute(self, func: Function, cache: "AnalysisCache") -> object:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AnalysisPass {self.name}>"


class Pass:
    """A function transformation with a declared preservation contract."""

    name: str = "?"
    #: True for the PRE stage: its payload is the compile's
    #: :attr:`~repro.passes.compiler.CompiledFunction.pre_result`.
    is_pre: bool = False

    def preserves(self) -> frozenset[str]:
        """Analyses (or the ``"cfg"`` token) still valid after this pass."""
        return frozenset()

    def mutated(self, payload: object | None) -> bool:
        """Did this run actually change the function?

        Called by the manager after :meth:`run` with the pass's payload.
        When False, no generation counter is bumped at all — even
        code-keyed cached analyses (liveness, the compiled-interpreter
        lowering) stay warm.  The conservative default is True;
        override it in passes whose payload says whether anything
        changed (a PRE pass that moved nothing, a copy-propagation pass
        that found no copies).
        """
        return True

    def run(self, func: Function, ctx: "PassContext") -> object | None:
        """Transform *func* in place; the return value becomes the
        pass's payload in the :class:`~repro.passes.manager.PassReport`."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pass {self.name}>"
