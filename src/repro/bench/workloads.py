"""The synthetic SPEC CPU2006-like benchmark suite.

The paper evaluates on the 12 CINT2006 and 17 CFP2006 benchmarks with
FDO: a *train* input produces the profile, a *ref* input is measured.  We
cannot ship SPEC, so each benchmark name maps to a deterministic synthetic
IR program from :mod:`repro.bench.generator` whose *shape* matches the
family:

* **CINT-like** — branch-heavy control flow, shallow loops, integer
  operators, moderate expression redundancy;
* **CFP-like** — deep counting-loop nests with longer trip counts,
  FP-flavoured operators, and a high density of loop-invariant hot
  expressions — the structural reason loop-based speculation (SSAPREsp)
  recovers more of MC-SSAPRE's win on CFP than on CINT, which is exactly
  the asymmetry Tables 1 and 2 report.

Each benchmark also carries deterministic train and ref argument vectors
(distinct seeds): profiles correlate but do not coincide, like SPEC's
train/ref inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.generator import (
    GeneratedProgram,
    ProgramSpec,
    generate_program,
    perturbed_args,
    random_args,
)

#: CINT2006 benchmark names in the paper's Table 1 order.
CINT2006 = (
    "perlbench",
    "bzip2",
    "gcc",
    "mcf",
    "gobmk",
    "hmmer",
    "sjeng",
    "libquantum",
    "h264ref",
    "omnetpp",
    "astar",
    "xalancbmk",
)

#: CFP2006 benchmark names in the paper's Table 2 order.
CFP2006 = (
    "bwaves",
    "gamess",
    "milc",
    "zeusmp",
    "gromacs",
    "cactusADM",
    "leslie3d",
    "namd",
    "dealII",
    "soplex",
    "povray",
    "calculix",
    "GemsFDTD",
    "tonto",
    "lbm",
    "wrf",
    "sphinx3",
)

#: The composite-chain suite: nested expression chains with per-site
#: intermediates — the second-order-redundancy workloads the iterative
#: worklist engine is measured on (``repro.perf``'s "iterative" table).
#: Deliberately *not* part of :data:`ALL_BENCHMARKS`: the canonical
#: CINT/CFP suite stats are pinned by tests and mirror the paper.
COMPOSITE = ("chain-int", "chain-fp", "chain-deep")

#: The memory suite: array loads/stores under the conservative alias
#: model.  ``mem-stream`` is load-heavy with few aliasing stores (most
#: hot load classes survive and hoist), ``mem-alias`` is store-heavy
#: with a high alias density (kills dominate, motion is mostly blocked),
#: ``mem-hot`` mixes speculatable constant-index hot loads with
#: may-trap variable-index ones.  Like :data:`COMPOSITE`, deliberately
#: not part of :data:`ALL_BENCHMARKS`.
MEMORY = ("mem-stream", "mem-alias", "mem-hot")

ALL_BENCHMARKS = CINT2006 + CFP2006


@dataclass
class Workload:
    """One synthetic benchmark: program + train/ref argument vectors."""

    name: str
    family: str  # "CINT" or "CFP"
    program: GeneratedProgram
    train_args: list[int]
    ref_args: list[int]


#: Per-benchmark seed overrides: the default formula occasionally lands on
#: a degenerate program (e.g. all loops behind never-taken branches).
_SEED_OVERRIDES = {"bzip2": 1025}


def _cint_spec(name: str, index: int) -> ProgramSpec:
    return ProgramSpec(
        name=name,
        seed=_SEED_OVERRIDES.get(name, 1000 + index * 17),
        params=4,
        locals_count=10,
        region_length=7,
        max_depth=3,
        branch_weight=0.38,
        loop_weight=0.18,
        loop_mask_bits=5,
        loop_base=4,
        hot_exprs=6,
        hot_prob=0.26,
        trapping_prob=0.04,
        fp_flavor=False,
        stable_fraction=0.5,
    )


def _cfp_spec(name: str, index: int) -> ProgramSpec:
    return ProgramSpec(
        name=name,
        seed=2000 + index * 23,
        params=4,
        locals_count=10,
        region_length=6,
        max_depth=3,
        branch_weight=0.16,
        loop_weight=0.34,
        loop_mask_bits=6,
        loop_base=8,
        hot_exprs=7,
        hot_prob=0.32,
        trapping_prob=0.02,
        fp_flavor=True,
        stable_fraction=0.65,
    )


def _composite_spec(name: str, index: int) -> ProgramSpec:
    # "chain-deep" stretches the chains to depth 4 (rank-4 classes need
    # every round the default iterative budget allows); the other two
    # mirror the CINT/CFP flavours at depth 2-3.
    deep = name == "chain-deep"
    return ProgramSpec(
        name=name,
        seed=3000 + index * 31,
        params=4,
        locals_count=10,
        region_length=6,
        max_depth=3,
        branch_weight=0.24,
        loop_weight=0.28,
        loop_mask_bits=5,
        loop_base=6,
        hot_exprs=5,
        hot_prob=0.30,
        trapping_prob=0.02,
        composite_exprs=4 if deep else 3,
        composite_depth=4 if deep else (2 + index),
        composite_prob=0.40,
        fp_flavor=name == "chain-fp",
        stable_fraction=0.6,
    )


def _memory_spec(name: str, index: int) -> ProgramSpec:
    alias = name == "mem-alias"
    hot = name == "mem-hot"
    return ProgramSpec(
        name=name,
        seed=4000 + index * 37,
        params=4,
        locals_count=10,
        region_length=6,
        max_depth=3,
        branch_weight=0.24,
        loop_weight=0.30,
        loop_mask_bits=5,
        loop_base=6,
        hot_exprs=4,
        hot_prob=0.28,
        trapping_prob=0.02,
        fp_flavor=False,
        stable_fraction=0.6,
        arrays=3 if name == "mem-stream" else 2,
        mem_prob=0.40,
        store_density=0.45 if alias else 0.25,
        alias_density=0.8 if alias else 0.3,
        hot_loads=5 if hot else 3,
        trapping_hot_prob=0.3 if hot else 0.0,
    )


def spec_for(name: str) -> ProgramSpec:
    """The generator spec of one named benchmark."""
    if name in CINT2006:
        return _cint_spec(name, CINT2006.index(name))
    if name in CFP2006:
        return _cfp_spec(name, CFP2006.index(name))
    if name in COMPOSITE:
        return _composite_spec(name, COMPOSITE.index(name))
    if name in MEMORY:
        return _memory_spec(name, MEMORY.index(name))
    raise KeyError(f"unknown benchmark {name!r}")


def load_workload(name: str) -> Workload:
    """Build one named benchmark deterministically."""
    spec = spec_for(name)
    program = generate_program(spec)
    train = random_args(spec, seed=101)
    if name in CINT2006:
        family = "CINT"
    elif name in CFP2006:
        family = "CFP"
    elif name in MEMORY:
        family = "MEMORY"
    else:
        family = "COMPOSITE"
    return Workload(
        name=name,
        family=family,
        program=program,
        train_args=train,
        ref_args=perturbed_args(spec, train, seed=202, strength=3),
    )


def load_suite(names: tuple[str, ...] = ALL_BENCHMARKS) -> list[Workload]:
    """Build a list of benchmarks (the whole suite by default)."""
    return [load_workload(name) for name in names]
