"""Failure corpus: durable, replayable artifacts under ``results/check/``.

Every failing case produces two files named by its identity
``seed<seed>_<shape>_<oracle>_<kind>_<variant>``:

* ``<slug>.json`` — the machine-readable record: the generator seed and
  shape (enough to regenerate the program bit-for-bit), the oracle
  transcript (every failure the case produced), and the reduction audit
  trail;
* ``<slug>.ir``   — the shrunk function in textual IR, parseable by
  :mod:`repro.lang.parser` and guaranteed structurally identical to the
  in-memory function that failed.

A whole run additionally writes ``summary.json`` (schema documented in
``docs/CHECKING.md`` and pinned by ``tests/check/test_cli.py``).

:func:`replay_artifact` closes the loop: given a ``.json`` artifact it
re-runs the stored seed through the driver and reports whether the same
``(oracle, kind, variant)`` failure reappears — the determinism contract
the whole corpus rests on.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.check.driver import (
    DEFAULT_INPUTS,
    CaseResult,
    failure_oracles,
    run_case,
)
from repro.check.oracles import DEFAULT_MAX_STEPS, OracleFailure, VariantFn
from repro.check.reducer import ReductionResult
from repro.ir.printer import format_function

#: Version of the artifact / summary JSON layout.  v2 added the
#: ``engine`` and ``jobs`` fields to the run summary; v3 added
#: ``interrupted`` (partial statistics after Ctrl-C / worker death) and
#: the ``cache`` consistency oracle to the default oracle set; v4 added
#: the ``solver`` field and the always-on ``mc-ssapre-lospre``
#: differential twin (exact-compared by the optimality oracle).  v5
#: added the ``probes`` differential oracle (minimum-coverage profiling
#: reconstruction vs full counting) and the automatic flow-conservation
#: validation of every fuzzed profile ("profile" failure bucket).  v6
#: dropped ``engine`` from the run summary and added ``solver``,
#: ``inputs`` and ``max_steps`` to every failure artifact, so replay and
#: reduction run the case that failed.
SCHEMA_VERSION = 6

#: Default artifact directory, relative to the repository root.
DEFAULT_OUT_DIR = Path("results") / "check"


def _atomic_write_text(path: Path, text: str) -> None:
    """Write *text* to *path* atomically (safe under ``--jobs N``).

    A concurrent writer can never leave a torn file behind: the content
    lands in a same-directory temp file first and is renamed into place
    (``os.replace`` is atomic on POSIX and Windows).
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def failure_slug(result: CaseResult, failure: OracleFailure) -> str:
    """Filesystem-safe identity of one failure."""
    variant = failure.variant.replace("/", "-")
    return (
        f"seed{result.seed}_{result.shape}_{failure.oracle}"
        f"_{failure.kind}_{variant}"
    )


def write_failure_artifact(
    out_dir: Path | str,
    result: CaseResult,
    failure: OracleFailure,
    reduction: ReductionResult | None = None,
    *,
    solver: str = "mincut",
    n_inputs: int = DEFAULT_INPUTS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Path:
    """Persist one failure (and its reduction, if any); returns the .json.

    ``solver``, ``n_inputs`` and ``max_steps`` are the settings the case
    ran under; the artifact records them so replay runs the same case.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    slug = failure_slug(result, failure)

    original_ir = (
        format_function(result.case.source) if result.case is not None else None
    )
    record = {
        "schema": SCHEMA_VERSION,
        "seed": result.seed,
        "shape": result.shape,
        "solver": solver,
        "inputs": n_inputs,
        "max_steps": max_steps,
        "oracle": failure.oracle,
        "variant": failure.variant,
        "kind": failure.kind,
        "detail": failure.detail,
        "transcript": [f.to_dict() for f in result.failures],
        "original_ir": original_ir,
        "reduced_ir": reduction.ir_text if reduction else None,
        "reduction": (
            {
                "blocks": reduction.blocks,
                "statements": reduction.statements,
                "rounds": reduction.rounds,
                "attempts": reduction.attempts,
                "accepted": reduction.accepted,
                "trail": [list(step) for step in reduction.trail],
            }
            if reduction
            else None
        ),
        "replay": (
            f"python -m repro.check --replay {out_dir / (slug + '.json')}"
        ),
    }
    json_path = out_dir / f"{slug}.json"
    _atomic_write_text(json_path, json.dumps(record, indent=2) + "\n")
    ir_text = record["reduced_ir"] or original_ir
    if ir_text is not None:
        _atomic_write_text(out_dir / f"{slug}.ir", ir_text + "\n")
    return json_path


def write_summary(
    out_dir: Path | str, summary: dict
) -> Path:
    """Write the run summary (the same dict ``--json`` prints)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "summary.json"
    _atomic_write_text(path, json.dumps(summary, indent=2) + "\n")
    return path


def replay_artifact(
    path: Path | str,
    *,
    extra_variants: dict[str, VariantFn] | None = None,
) -> tuple[bool, CaseResult]:
    """Re-run a stored failure from its seed; True = it reproduced.

    The case runs under the artifact's recorded solver, input count and
    step budget.  Failures of injected (out-of-tree) variants need the
    same ``extra_variants`` mapping that produced them — the artifact
    stores the variant *name*, not the code.
    """
    record = json.loads(Path(path).read_text())
    oracle = record["oracle"]
    result = run_case(
        record["seed"],
        record["shape"],
        oracles=failure_oracles(oracle),
        n_inputs=record["inputs"],
        max_steps=record["max_steps"],
        solver=record["solver"],
        extra_variants=extra_variants,
    )
    reproduced = any(
        f.oracle == oracle
        and f.kind == record["kind"]
        and f.variant == record["variant"]
        for f in result.failures
    )
    return reproduced, result
