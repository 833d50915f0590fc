"""Differential oracle for :func:`restructure_while_loops`.

The transform builds CFG, dominators and loops once and keeps predecessor
sets and the header → loop-blocks map exact across rotations.
``_reference_restructure`` is the original fixpoint, which rebuilds all
three analyses after every rotation; it is kept here, verbatim, as the
oracle.  Both must agree byte for byte on the printed function, the entry
label and the returned clone labels — on the benchmark suites, on the
fuzz shapes, and on seeded random CFGs (irreducible graphs, self-loops,
entry-header loops, shared exits and unreachable blocks included).
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.analysis.dominators import DominatorTree
from repro.analysis.loops import LoopForest
from repro.bench.generator import generate_program
from repro.bench.workloads import (
    CFP2006,
    CINT2006,
    COMPOSITE,
    MEMORY,
    load_workload,
)
from repro.check.driver import SHAPES, spec_for_shape
from repro.ir.builder import FunctionBuilder
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import CondJump, retarget
from repro.ir.printer import format_function
from repro.ir.transforms import restructure_while_loops


def _reference_restructure(func: Function) -> list[str]:
    for block in func:
        if block.phis:
            raise ValueError("restructure_while_loops requires non-SSA input")

    clones: list[str] = []
    done: set[str] = set()  # headers already rotated once
    while True:
        cfg = CFG(func)
        domtree = DominatorTree(cfg)
        forest = LoopForest(cfg, domtree)
        rotated = False
        for loop in sorted(forest, key=lambda l: l.header):
            if loop.header in done:
                continue
            header = func.blocks[loop.header]
            if not isinstance(header.terminator, CondJump):
                continue
            succs = set(header.successors())
            exits = succs - loop.blocks
            insides = succs & loop.blocks
            if len(exits) != 1 or len(insides) != 1:
                continue
            outside_preds = loop.entry_preds(cfg)
            if not outside_preds and loop.header != func.entry:
                continue
            clone = func.add_block(func.fresh_label(f"{loop.header}_test"))
            clone.body = copy.deepcopy(header.body)
            clone.terminator = copy.deepcopy(header.terminator)
            for pred in outside_preds:
                retarget(func.blocks[pred].terminator, loop.header, clone.label)
            if loop.header == func.entry:
                func.entry = clone.label
            done.add(loop.header)
            clones.append(clone.label)
            rotated = True
            break  # recompute loop structure after each rotation
        if not rotated:
            return clones


def _assert_matches_reference(func: Function) -> list[str]:
    expected, actual = func.clone(), func.clone()
    expected_clones = _reference_restructure(expected)
    actual_clones = restructure_while_loops(actual)
    assert format_function(actual) == format_function(expected)
    assert actual.entry == expected.entry
    assert actual_clones == expected_clones
    return actual_clones


@pytest.mark.parametrize("name", CINT2006 + CFP2006 + MEMORY + COMPOSITE)
def test_suite_programs_match_reference(name):
    _assert_matches_reference(load_workload(name).program.func)


@pytest.mark.parametrize("shape", SHAPES)
def test_fuzz_shapes_match_reference(shape):
    rotated = 0
    for seed in range(100):
        func = generate_program(spec_for_shape(shape, seed)).func
        rotated += len(_assert_matches_reference(func))
    assert rotated > 0


def random_cfg(seed: int) -> Function:
    """A seeded random CFG of 2–30 blocks with random jump/br/ret exits.

    Labels are drawn out of order (``b7`` may precede ``b12``), so the
    transform's header-label rotation order is exercised too.  Targets
    are uniform over all blocks, which yields irreducible cycles,
    self-loops, loops headed at the entry, shared exits, both arms of a
    branch on one target, and unreachable blocks.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    labels = [f"b{k}" for k in rng.sample(range(100), n)]
    b = FunctionBuilder(f"r{seed}", params=["p"])
    for i, label in enumerate(labels):
        b.block(label)
        b.assign(f"v{i}", "add", "p", i)
        kind = rng.random()
        if kind < 0.55:
            b.branch(f"v{i}", rng.choice(labels), rng.choice(labels))
        elif kind < 0.85:
            b.jump(rng.choice(labels))
        else:
            b.ret(f"v{i}")
    return b.build()


def _is_irreducible(func: Function) -> bool:
    cfg = CFG(func)
    domtree = DominatorTree(cfg)
    index = {label: i for i, label in enumerate(domtree.rpo)}
    return any(
        src in index and index[dst] <= index[src] and not domtree.dominates(dst, src)
        for src, dst in cfg.edges()
    )


@pytest.mark.parametrize("chunk", range(4))
def test_random_cfgs_match_reference(chunk):
    seen = {"irreducible": 0, "self_loop": 0, "entry_header": 0, "unreachable": 0}
    for seed in range(chunk * 500, (chunk + 1) * 500):
        func = random_cfg(seed)
        cfg = CFG(func)
        headers = {loop.header for loop in LoopForest(cfg, DominatorTree(cfg))}
        seen["irreducible"] += _is_irreducible(func)
        seen["self_loop"] += any(label in cfg.succs[label] for label in func.blocks)
        seen["entry_header"] += func.entry in headers
        seen["unreachable"] += len(cfg.reverse_postorder()) < len(func.blocks)
        _assert_matches_reference(func)
    # The generator must keep covering the hard cases it is here for.
    assert all(count >= 10 for count in seen.values()), seen
