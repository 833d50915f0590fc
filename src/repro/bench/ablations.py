"""Ablations A1 (lifetime), A2 (node frequencies) and A3 (code size),
one benchmark per call; the ``ablations`` section of ``repro.perf``
runs and gates them."""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.analysis.liveness import compute_liveness
from repro.baselines.mcpre import run_mc_pre
from repro.bench.workloads import load_workload
from repro.check.oracles import TEMP_PREFIXES, temp_live_range_size
from repro.core.mcssapre.driver import run_mc_ssapre
from repro.ir.function import Function
from repro.ir.instructions import Assign, BinOp, UnaryOp
from repro.ir.printer import format_function
from repro.pipeline import prepare
from repro.profiles.counts import normalize_expr_counts
from repro.profiles.interp import run_function
from repro.profiles.profile import ExecutionProfile
from repro.ssa.construct import construct_ssa
from repro.ssa.destruct import destruct_ssa


def temp_weighted_pressure(func: Function, node_freq: dict[str, int]) -> int:
    """Profile-weighted count of live PRE temporaries per block."""
    liveness = compute_liveness(func, by_version=True)
    return sum(
        node_freq.get(label, 0)
        for label in func.blocks
        for name, _version in liveness.live_in.get(label, ())
        if name.startswith(TEMP_PREFIXES)
    )


@dataclass
class LifetimeSide:
    """One cut side's measurements on one workload."""

    live_range: int
    pressure: int
    cost: int


@dataclass
class LifetimeAblation:
    name: str
    late: LifetimeSide
    early: LifetimeSide


def lifetime_ablation(name: str) -> LifetimeAblation:
    """Compile one benchmark with both cut sides and compare lifetimes."""
    workload = load_workload(name)
    prepared = prepare(workload.program.func)
    train = run_function(prepared, workload.train_args)

    def side(sink_closest: bool) -> LifetimeSide:
        ssa = copy.deepcopy(prepared)
        construct_ssa(ssa)
        run_mc_ssapre(
            ssa, train.profile.nodes_only(), sink_closest=sink_closest
        )
        ranges = temp_live_range_size(ssa)
        pressure = temp_weighted_pressure(ssa, train.profile.node_freq)
        destruct_ssa(ssa)
        cost = run_function(ssa, workload.train_args).dynamic_cost
        return LifetimeSide(live_range=ranges, pressure=pressure, cost=cost)

    return LifetimeAblation(name=name, late=side(True), early=side(False))


@dataclass
class ProfileAblation:
    name: str
    identical_output: bool
    counts_match_mcpre: bool


def profile_ablation(name: str) -> ProfileAblation:
    """Check node-frequency sufficiency on one benchmark (paper contrib 3)."""
    workload = load_workload(name)
    prepared = prepare(workload.program.func)
    train = run_function(prepared, workload.train_args)

    def compile_with(profile):
        ssa = copy.deepcopy(prepared)
        construct_ssa(ssa)
        run_mc_ssapre(ssa, profile)
        return ssa

    nodes_only = compile_with(train.profile.nodes_only())
    full = compile_with(train.profile)
    identical = format_function(nodes_only) == format_function(full)

    destruct_ssa(nodes_only)
    mc_ssa = normalize_expr_counts(
        run_function(nodes_only, workload.train_args).expr_counts
    )
    cfg_version = copy.deepcopy(prepared)
    run_mc_pre(cfg_version, train.profile)
    mc_pre = normalize_expr_counts(
        run_function(cfg_version, workload.train_args).expr_counts
    )
    match = all(
        mc_ssa.get(key, 0) == mc_pre.get(key, 0)
        for key in set(mc_ssa) | set(mc_pre)
    )
    return ProfileAblation(
        name=name, identical_output=identical, counts_match_mcpre=match
    )


def static_occurrence_total(func: Function) -> int:
    """Static count of computations (binary and unary operations)."""
    return sum(
        1
        for block in func
        for stmt in block.body
        if isinstance(stmt, Assign) and isinstance(stmt.rhs, (BinOp, UnaryOp))
    )


def compile_for_size(name: str) -> tuple[int, int]:
    """Static computations of one benchmark before and after MC-SSAPRE
    under a unit profile, which weighs every occurrence once."""
    prepared = prepare(load_workload(name).program.func)
    before = static_occurrence_total(prepared)
    ssa = copy.deepcopy(prepared)
    construct_ssa(ssa)
    run_mc_ssapre(ssa, ExecutionProfile.unit(ssa))
    return before, static_occurrence_total(ssa)
