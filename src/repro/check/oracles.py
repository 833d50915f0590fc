"""Executable oracles over compiled PRE variants.

Each oracle turns one of the paper's claims into a mechanically checkable
predicate on a :class:`CheckCase` (one generated program, its training
profile, and every compiled variant):

* **equiv** — *semantic equivalence*: every variant must produce the
  control's observable behaviour (return value + output trace) on every
  shared input.  The precondition of every other claim.
* **optimal** — *computational optimality* (Theorem 7): on the training
  input (where the profile matches the measured run), MC-SSAPRE's dynamic
  per-expression evaluation counts must equal MC-PRE's (two independent
  optimal algorithms), be no worse than every non-optimal variant's
  (SSAPRE, SSAPREsp, ISPRE, LCM), and — where exhaustive enumeration is
  tractable — equal the brute-force optimum over all insertion sets.
* **lifetime** — *lifetime optimality* (Theorem 9): the reverse-labelled
  (sink-side) cut yields temporary live ranges no longer than the
  source-side cut at identical dynamic cost, and never stores to a
  temporary it won't use.
* **safety** — *no unsafe speculation* (Section 2): no variant may
  evaluate a trapping expression (``div``/``mod``/``fdiv``) on an
  execution where the control never evaluates it.
* **cache** — *cache consistency*: an artifact served warm from the
  :mod:`repro.serve` store (memory hit, disk round-trip, or an
  independent recompile under the same content address) must run
  bit-identically to the cold compile — same observables, dynamic cost,
  step count and per-expression counts on every input.  The claim that
  makes content-addressed serving sound.
* **probes** — *minimum coverage*: the compiled engine counts only the
  chords of a spanning tree (:mod:`repro.profiles.compiled`), at most
  ``|E| − |V| + max(R, 1)`` edges over the reachable CFG with R return
  blocks, and derives every other block and edge count by flow
  conservation.  The derived counts themselves are compared with the
  reference interpreter's by the driver's engine parity check.

Oracles only *observe*; the fuzz driver (:mod:`repro.check.driver`) builds
the case, and the reducer (:mod:`repro.check.reducer`) shrinks whatever
they reject.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.analysis.liveness import compute_liveness
from repro.baselines.bruteforce import brute_force_optimum
from repro.bench.generator import ProgramSpec
from repro.ir.function import Function
from repro.ir.instructions import Assign
from repro.ir.memory import key_may_trap
from repro.ir.printer import format_function
from repro.profiles.counts import normalize_expr_counts
from repro.profiles.interp import RunResult, run_function
from repro.profiles.profile import ExecutionProfile

#: Canonical oracle names, in the order the driver runs them.
ORACLE_NAMES = ("equiv", "optimal", "lifetime", "safety", "cache", "probes")

#: Variable-name prefixes of PRE-introduced temporaries.
TEMP_PREFIXES = ("%pre", "%mcpre", "%t")

#: Default interpreter step budget per run.
DEFAULT_MAX_STEPS = 250_000


@dataclass
class OracleFailure:
    """One rejected claim, with enough context to classify and replay."""

    oracle: str  # which oracle (or "compile" for pre-oracle failures)
    variant: str
    kind: str  # crash | verifier-reject | divergence | suboptimal | lifetime | unsafe
    detail: str

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "variant": self.variant,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class OracleReport:
    """Pass/fail statistics of one oracle over one case."""

    name: str
    checks: int = 0
    failures: list[OracleFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, variant: str, kind: str, detail: str) -> None:
        self.failures.append(OracleFailure(self.name, variant, kind, detail))


#: A pluggable compile step: (prepared function, training profile) -> the
#: optimised function.  Used to inject deliberately buggy variants in
#: tests and to check out-of-tree transformations.
VariantFn = Callable[[Function, ExecutionProfile], Function]


@dataclass
class CheckCase:
    """Everything the oracles need about one generated program."""

    seed: int
    shape: str
    spec: ProgramSpec | None
    source: Function
    prepared: Function
    inputs: list[list[int]]  # inputs[0] is the training vector
    profile: ExecutionProfile
    control_runs: list[RunResult]
    compiled: dict[str, Function]
    #: variant -> one RunResult per input (None when that run crashed;
    #: the crash is recorded separately by the driver).
    variant_runs: dict[str, list[RunResult | None]]
    max_steps: int = DEFAULT_MAX_STEPS


# ----------------------------------------------------------------------
# equiv
# ----------------------------------------------------------------------
def equivalence_oracle(case: CheckCase) -> OracleReport:
    """Every variant behaves like the control on every input."""
    report = OracleReport("equiv")
    for variant, runs in case.variant_runs.items():
        for i, run in enumerate(runs):
            if run is None:
                continue  # the crash was already recorded
            report.checks += 1
            expected = case.control_runs[i].observable()
            if run.observable() != expected:
                report.fail(
                    variant,
                    "divergence",
                    f"input #{i} {case.inputs[i]}: observable "
                    f"{run.observable()!r} != control {expected!r}",
                )
    return report


# ----------------------------------------------------------------------
# optimal
# ----------------------------------------------------------------------
#: Variants whose per-expression counts MC-SSAPRE must exactly match:
#: MC-PRE (an independent optimal algorithm over the same profile) and
#: the lospre solver twin (the same placement problem solved by tree
#: decomposition instead of max-flow — the solver exactness contract).
_OPTIMAL_PEERS = ("mc-pre", "mc-ssapre-lospre")
#: Variants MC-SSAPRE must never lose to, per expression and in total.
_DOMINATED = ("ssapre", "ssapre-sp", "ispre", "lcm", "none")


def _train_counts(case: CheckCase, variant: str) -> dict | None:
    runs = case.variant_runs.get(variant)
    if not runs or runs[0] is None:
        return None
    return normalize_expr_counts(runs[0].expr_counts)


def optimality_oracle(
    case: CheckCase,
    *,
    brute_force: bool = True,
    brute_max_edges: int = 7,
    brute_max_keys: int = 2,
    brute_max_blocks: int = 26,
) -> OracleReport:
    """MC-SSAPRE is computationally optimal on the training profile.

    All comparisons run on ``inputs[0]`` — the input that produced the
    profile — because optimality is only promised when the profile
    predicts the run (paper Section 3.4).
    """
    report = OracleReport("optimal")
    mc = _train_counts(case, "mc-ssapre")
    if mc is None:
        return report  # nothing to check; compile/run failure recorded
    mc_run = case.variant_runs["mc-ssapre"][0]

    # 1. Two independent optimal algorithms must agree per expression.
    for peer in _OPTIMAL_PEERS:
        peer_counts = _train_counts(case, peer)
        if peer_counts is None:
            continue
        for key in sorted(set(mc) | set(peer_counts)):
            report.checks += 1
            if mc.get(key, 0) != peer_counts.get(key, 0):
                report.fail(
                    "mc-ssapre",
                    "suboptimal",
                    f"{key}: mc-ssapre={mc.get(key, 0)} != "
                    f"{peer}={peer_counts.get(key, 0)}",
                )

    # 2. Optimal never loses to the non-optimal variants.
    for other in _DOMINATED:
        if other == "none":
            other_counts = normalize_expr_counts(
                case.control_runs[0].expr_counts
            )
            other_cost = case.control_runs[0].dynamic_cost
        else:
            other_counts = _train_counts(case, other)
            runs = case.variant_runs.get(other)
            other_cost = runs[0].dynamic_cost if runs and runs[0] else None
        if other_counts is None:
            continue
        for key in sorted(set(mc) | set(other_counts)):
            report.checks += 1
            if mc.get(key, 0) > other_counts.get(key, 0):
                report.fail(
                    "mc-ssapre",
                    "suboptimal",
                    f"{key}: mc-ssapre={mc.get(key, 0)} > "
                    f"{other}={other_counts.get(key, 0)}",
                )
        if other_cost is not None:
            report.checks += 1
            if mc_run.dynamic_cost > other_cost:
                report.fail(
                    "mc-ssapre",
                    "suboptimal",
                    f"dynamic cost {mc_run.dynamic_cost} > "
                    f"{other} cost {other_cost}",
                )

    # 3. Exhaustive ground truth where the search space is small enough.
    if brute_force and len(case.prepared) <= brute_max_blocks:
        control_counts = normalize_expr_counts(
            case.control_runs[0].expr_counts
        )
        hot_first = sorted(
            (
                k
                for k in control_counts
                if not key_may_trap(k, case.prepared.arrays)
            ),
            key=lambda k: -control_counts[k],
        )
        checked = 0
        for key in hot_first:
            if checked >= brute_max_keys:
                break
            try:
                outcome = brute_force_optimum(
                    case.prepared,
                    key,
                    case.inputs[0],
                    max_edges=brute_max_edges,
                    max_steps=case.max_steps,
                )
            except ValueError:
                continue  # too many candidate edges; not tractable
            checked += 1
            report.checks += 1
            if mc.get(key, 0) != outcome.best_count:
                report.fail(
                    "mc-ssapre",
                    "suboptimal",
                    f"{key}: mc-ssapre={mc.get(key, 0)} != brute-force "
                    f"optimum {outcome.best_count} "
                    f"(no-insertion baseline {outcome.baseline_count})",
                )
    return report


# ----------------------------------------------------------------------
# lifetime
# ----------------------------------------------------------------------
def temp_live_range_size(func: Function) -> int:
    """Total static live range of PRE temporaries: the number of
    (block, temp-version) pairs at which an introduced temp is live-in."""
    liveness = compute_liveness(func, by_version=True)
    total = 0
    for label in func.blocks:
        for name, _version in liveness.live_in[label]:
            if name.startswith(TEMP_PREFIXES):
                total += 1
    return total


def _dead_temp_defs(func: Function) -> list:
    """Definitions of PRE temps that are never used (Theorem 9's second
    half: the optimal placement never stores to ``t`` unnecessarily)."""
    from repro.ir.values import Var

    used: set = set()
    defined: set = set()
    for block in func:
        for phi in block.phis:
            if phi.target.name.startswith(TEMP_PREFIXES):
                defined.add(phi.target)
            for op in phi.args.values():
                if isinstance(op, Var):
                    used.add(op)
        for stmt in block.body:
            if isinstance(stmt, Assign) and stmt.target.name.startswith(
                TEMP_PREFIXES
            ):
                defined.add(stmt.target)
            for op in stmt.used_operands():
                if isinstance(op, Var):
                    used.add(op)
        for op in block.terminator.used_operands():
            if isinstance(op, Var):
                used.add(op)
    return sorted(
        (v for v in defined if v not in used), key=lambda v: str(v)
    )


def lifetime_oracle(case: CheckCase) -> OracleReport:
    """Sink-side cut: same cost, never-longer temp live ranges, no
    useless saves.  Compiles its own two MC-SSAPRE instances (late vs
    early cut) because the comparison is internal to the algorithm."""
    from repro.core.mcssapre.driver import run_mc_ssapre
    from repro.ssa.construct import construct_ssa

    report = OracleReport("lifetime")
    late = case.prepared.clone()
    early = case.prepared.clone()
    try:
        construct_ssa(late)
        run_mc_ssapre(late, case.profile, sink_closest=True)
        construct_ssa(early)
        run_mc_ssapre(early, case.profile, sink_closest=False)
        late_run = run_function(late, case.inputs[0], max_steps=case.max_steps)
        early_run = run_function(early, case.inputs[0], max_steps=case.max_steps)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        report.checks += 1
        report.fail("mc-ssapre", "crash", f"lifetime compile/run: {exc!r}")
        return report

    report.checks += 1
    if late_run.dynamic_cost != early_run.dynamic_cost:
        report.fail(
            "mc-ssapre",
            "lifetime",
            f"sink-side cut cost {late_run.dynamic_cost} != source-side "
            f"cut cost {early_run.dynamic_cost} (both must be min cuts)",
        )
    report.checks += 1
    late_range, early_range = temp_live_range_size(late), temp_live_range_size(early)
    if late_range > early_range:
        report.fail(
            "mc-ssapre",
            "lifetime",
            f"sink-side temp live range {late_range} > source-side "
            f"{early_range}",
        )
    report.checks += 1
    dead = _dead_temp_defs(late)
    if dead:
        report.fail(
            "mc-ssapre",
            "lifetime",
            f"useless saves: temp definitions never used: {dead}",
        )
    return report


# ----------------------------------------------------------------------
# safety
# ----------------------------------------------------------------------
def safety_oracle(case: CheckCase) -> OracleReport:
    """No variant evaluates a trapping expression the control never
    evaluates on the same input — the dynamic face of "never speculate
    a computation that can cause an exception" (paper Section 2).

    Loads count as trapping (out-of-bounds indices genuinely raise), with
    the same refinement the optimizers use: a constant in-bounds load
    cannot fault, so speculating it is not a violation.  Everything else
    flagged trapping in the ops table — and every variable-index load —
    must never be evaluated where the control would not."""
    report = OracleReport("safety")
    arrays = case.prepared.arrays
    control_counts = [
        normalize_expr_counts(run.expr_counts) for run in case.control_runs
    ]
    for variant, runs in case.variant_runs.items():
        for i, run in enumerate(runs):
            if run is None:
                continue
            counts = normalize_expr_counts(run.expr_counts)
            trapping_keys = [k for k in counts if key_may_trap(k, arrays)]
            report.checks += 1
            for key in trapping_keys:
                if counts[key] > 0 and control_counts[i].get(key, 0) == 0:
                    report.fail(
                        variant,
                        "unsafe",
                        f"input #{i} {case.inputs[i]}: trapping {key} "
                        f"evaluated {counts[key]}x but control never "
                        f"evaluates it",
                    )
    return report


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
#: Variant the cache-consistency oracle round-trips (profile-guided, so
#: the intensional train_args keying and the training rerun are on trial).
_CACHE_VARIANT = "mc-ssapre"


def _run_fingerprint(artifact, args: list[int], max_steps: int) -> tuple:
    """Everything one served run observably is, as a comparable value."""
    from repro.profiles.interp import InterpreterError
    from repro.serve.server import execute_artifact

    try:
        run = execute_artifact(artifact, tuple(args), max_steps)
    except InterpreterError as exc:
        return ("error", str(exc))
    return (
        run.observable(),
        run.dynamic_cost,
        run.steps,
        tuple(sorted(normalize_expr_counts(run.expr_counts).items())),
    )


def stale_bytecode_copy(obj):
    """*obj* re-pickled with a stale bytecode tag on its compiled programs.

    Every :class:`~repro.profiles.compiled.CompiledProgram` in *obj* is
    pickled as if by an interpreter with another bytecode magic number,
    so unpickling regenerates its functions from the stored source: the
    load path a cache written by another Python version takes.
    """
    import copyreg
    import io
    import pickle

    from repro.profiles.compiled import CompiledProgram

    class StalePickler(pickle.Pickler):
        def reducer_override(self, value):
            if type(value) is not CompiledProgram:
                return NotImplemented
            state = value.__getstate__()
            state["bytecode"] = (b"stale", state["bytecode"][1])
            return copyreg.__newobj__, (CompiledProgram,), state

    buf = io.BytesIO()
    StalePickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return pickle.loads(buf.getvalue())


def cache_consistency_oracle(case: CheckCase) -> OracleReport:
    """Warm-cache answers are bit-identical to cold compiles.

    Builds the serving artifact cold, round-trips it through a real
    two-tier :class:`~repro.serve.store.ArtifactStore` (memory hit, then
    a fresh store over the same directory forcing the disk/pickle path,
    which loads the marshalled bytecode), re-pickles the disk hit with a
    stale bytecode tag (forcing regeneration from the stored source),
    rebuilds it cold a second time under the same content address, and
    requires all five to hold the same optimised IR and to run
    identically on every case input.
    """
    import shutil
    import tempfile

    # Local import: the serve package layers *on top of* the checker;
    # the core oracles must stay importable without it.
    from repro.pipeline import PipelineConfig
    from repro.serve.keys import artifact_key
    from repro.serve.server import build_artifact
    from repro.serve.store import ArtifactStore

    report = OracleReport("cache")
    config = PipelineConfig(variant=_CACHE_VARIANT)
    train_args = tuple(case.inputs[0])
    key = artifact_key(case.prepared, config, train_args=train_args)
    cold = build_artifact(
        case.prepared, config, key=key, train_args=train_args,
        max_steps=case.max_steps,
    )
    if cold.degraded:
        report.checks += 1
        report.fail(
            _CACHE_VARIANT, "crash",
            f"cold build degraded: {cold.degraded_reason}",
        )
        return report

    tmp = tempfile.mkdtemp(prefix="repro-cache-oracle-")
    try:
        store = ArtifactStore.with_disk(tmp)
        store.put(key, cold)
        warm_memory, tier = store.get(key)
        report.checks += 1
        if tier != "memory":
            report.fail(
                _CACHE_VARIANT, "cache-miss",
                f"just-stored artifact missed the memory tier (tier={tier!r})",
            )
            return report
        # A fresh store over the same directory models a warm *restart*:
        # the artifact must survive pickling and the disk round-trip.
        warm_disk, disk_tier = ArtifactStore.with_disk(tmp).get(key)
        report.checks += 1
        if disk_tier != "disk":
            report.fail(
                _CACHE_VARIANT, "cache-miss",
                f"stored artifact missed the disk tier (tier={disk_tier!r})",
            )
            return report
        # Copied before anything reads the disk hit's IR: the copy
        # re-pickles an artifact whose function is still undecoded bytes.
        from_source = stale_bytecode_copy(warm_disk)
        recompiled = build_artifact(
            case.prepared, config, key=key, train_args=train_args,
            max_steps=case.max_steps,
        )
        tiers = (
            ("memory-hit", warm_memory),
            ("disk-hit", warm_disk),
            ("disk-hit-source", from_source),
            ("recompile", recompiled),
        )
        expected_ir = format_function(cold.func)
        for source, artifact in tiers:
            report.checks += 1
            if format_function(artifact.func) != expected_ir:
                report.fail(
                    _CACHE_VARIANT, "cache-divergence",
                    f"{source} IR differs from the cold build's",
                )
        for i, args in enumerate(case.inputs):
            expected = _run_fingerprint(cold, args, case.max_steps)
            for source, artifact in tiers:
                report.checks += 1
                got = _run_fingerprint(artifact, args, case.max_steps)
                if got != expected:
                    report.fail(
                        _CACHE_VARIANT, "cache-divergence",
                        f"input #{i} {args}: {source} run {got!r} != "
                        f"cold run {expected!r}",
                    )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report


def probes_oracle(case: CheckCase) -> OracleReport:
    """The compiled engine counts no more edges than a spanning tree
    leaves out.

    Lowers the control program and requires its counted edges (the
    chords, :attr:`~repro.profiles.compiled.CompiledProgram.chords`) to
    stay within :func:`~repro.profiles.compiled.chord_bound`, the fewest
    counters that determine every block and edge count.  That the
    derived counts equal the reference interpreter's is the driver's
    engine parity check, run on every case.
    """
    # Local import like the cache oracle: the compiled engine layers on
    # top of the profiles core the oracles already use.
    from repro.profiles.compiled import chord_bound, compile_function

    report = OracleReport("probes")
    report.checks += 1
    counted = len(compile_function(case.prepared).chords)
    bound = chord_bound(case.prepared)
    if counted > bound:
        report.fail(
            "control", "chord-bound",
            f"{counted} counted edges exceed the spanning-tree bound "
            f"|E| - |V| + max(R, 1) = {bound}",
        )
    return report


#: Oracle registry, in driver execution order.
ORACLES: Mapping[str, Callable[[CheckCase], OracleReport]] = {
    "equiv": equivalence_oracle,
    "optimal": optimality_oracle,
    "lifetime": lifetime_oracle,
    "safety": safety_oracle,
    "cache": cache_consistency_oracle,
    "probes": probes_oracle,
}
