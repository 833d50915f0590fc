"""repro.passes — pass manager, cached analyses, observability.

See ``docs/PASSES.md`` for the Pass/AnalysisPass contract, the
invalidation rules, and the PassReport schema.
"""

from repro.passes.analyses import (
    CFG_ANALYSIS,
    COMPILED_ANALYSIS,
    DOMFRONTIER_ANALYSIS,
    DOMTREE_ANALYSIS,
    LIVENESS_ANALYSIS,
    LIVENESS_SSA_ANALYSIS,
    LOOPS_ANALYSIS,
)
from repro.passes.base import (
    PRESERVE_ALL,
    PRESERVE_CFG,
    AnalysisPass,
    Pass,
    PassError,
    PassVerificationError,
    StaleAnalysisError,
)
from repro.passes.cache import AnalysisCache, AnalysisHandle
from repro.passes.compiler import (
    VARIANTS,
    CompiledFunction,
    PipelineConfig,
    compile,
)
from repro.passes.manager import (
    PassContext,
    PassExecution,
    PassManager,
    PassReport,
)

__all__ = [
    "AnalysisCache",
    "AnalysisHandle",
    "AnalysisPass",
    "CFG_ANALYSIS",
    "COMPILED_ANALYSIS",
    "CompiledFunction",
    "DOMFRONTIER_ANALYSIS",
    "DOMTREE_ANALYSIS",
    "LIVENESS_ANALYSIS",
    "LIVENESS_SSA_ANALYSIS",
    "LOOPS_ANALYSIS",
    "PRESERVE_ALL",
    "PRESERVE_CFG",
    "Pass",
    "PassContext",
    "PassError",
    "PassExecution",
    "PassManager",
    "PassReport",
    "PassVerificationError",
    "PipelineConfig",
    "StaleAnalysisError",
    "VARIANTS",
    "compile",
]
