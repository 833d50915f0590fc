"""repro — a reproduction of *"An SSA-based Algorithm for Optimal
Speculative Code Motion under an Execution Profile"* (Zhou, Chen & Chow,
PLDI 2011).

The package is a self-contained SSA compiler middle-end for a small
three-address IR, plus the paper's MC-SSAPRE algorithm, the SSAPRE /
SSAPREsp / MC-PRE / ISPRE comparison points, a profiling interpreter, and
a benchmark harness that regenerates every table and figure of the
paper's evaluation.

Quick start::

    from repro import FunctionBuilder, run_experiment

    b = FunctionBuilder("f", params=["a", "b", "n"])
    ...  # build a program (see examples/quickstart.py)
    exp = run_experiment(b.build(), train_args=[1, 2, 10], ref_args=[1, 2, 12])
    print(exp.cost("ssapre"), exp.cost("mc-ssapre"))

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.ir.builder import FunctionBuilder
from repro.ir.function import BasicBlock, Function
from repro.ir.printer import format_function
from repro.ir.values import Const, Var
from repro.lang.parser import parse_function, parse_program
from repro.passes import (
    AnalysisCache,
    PassManager,
    PassReport,
    build_pipeline,
    compile,  # noqa: A004 - the package's compile *is* the entry point
)
from repro.pipeline import (
    PAPER_VARIANTS,
    VARIANTS,
    compile_variant,
    prepare,
    run_experiment,
)
from repro.profiles.interp import run_function
from repro.profiles.profile import ExecutionProfile

__version__ = "1.1.0"

__all__ = [
    "AnalysisCache",
    "BasicBlock",
    "Const",
    "ExecutionProfile",
    "Function",
    "FunctionBuilder",
    "PAPER_VARIANTS",
    "PassManager",
    "PassReport",
    "VARIANTS",
    "Var",
    "build_pipeline",
    "compile",
    "compile_variant",
    "format_function",
    "parse_function",
    "parse_program",
    "prepare",
    "run_experiment",
    "run_function",
    "__version__",
]
