"""Differential parity: compiled back end vs the reference interpreter.

The contract is *bit-identical* :class:`RunResult` data — same return
value, output trace, profile, dynamic cost, per-expression counts and
step count — plus :class:`InterpreterError` parity (same error, same
message, at the same step budget).  The property is checked over a
derandomized seeded generator corpus in both fuzz shapes, with trapping
operators enabled, so this is the tier-1 pin of the differential test
the check driver runs at scale.
"""

import pickle

import pytest

from repro.bench.generator import generate_program
from repro.check.driver import case_inputs, spec_for_shape
from repro.check.oracles import stale_bytecode_copy
from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import CondJump
from repro.passes.cache import AnalysisCache
from repro.passes.compiler import compile as compile_func
from repro.pipeline import prepare
from repro.profiles.compiled import (
    CompiledProgram,
    chord_bound,
    compile_function,
    run_compiled,
)
from repro.profiles.interp import InterpreterError, run_function

MAX_STEPS = 250_000
SEEDS = range(12)
SHAPES = ("cint", "cfp", "mem")


def assert_bit_identical(ref, got):
    assert got.return_value == ref.return_value
    assert got.output == ref.output
    assert dict(got.profile.node_freq) == dict(ref.profile.node_freq)
    assert dict(got.profile.edge_freq) == dict(ref.profile.edge_freq)
    assert got.dynamic_cost == ref.dynamic_cost
    assert dict(got.expr_counts) == dict(ref.expr_counts)
    assert got.steps == ref.steps


class TestGeneratorCorpus:
    """Derandomized property over the seeded fuzz corpus (all shapes,
    trapping operators on)."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_prepared_parity(self, shape, seed):
        spec = spec_for_shape(shape, seed)
        prepared = prepare(generate_program(spec).func)
        program = compile_function(prepared)
        for args in case_inputs(spec):
            ref = run_function(prepared, args, max_steps=MAX_STEPS)
            got = program.run(args, max_steps=MAX_STEPS)
            assert_bit_identical(ref, got)

    @pytest.mark.parametrize("variant", ["mc-ssapre", "ssapre", "lcm"])
    def test_optimized_variant_parity(self, variant):
        spec = spec_for_shape("cint", 3)
        prepared = prepare(generate_program(spec).func)
        inputs = case_inputs(spec)
        profile = run_function(
            prepared, inputs[0], max_steps=MAX_STEPS
        ).profile
        out = compile_func(prepared, variant, profile, validate=True)
        for args in inputs:
            ref = run_function(out.func, args, max_steps=MAX_STEPS)
            got = run_compiled(
                out.func, args, max_steps=MAX_STEPS, cache=out.cache
            )
            assert_bit_identical(ref, got)


class TestPickleLoadPaths:
    """A pickle carries bytecode for the interpreter that wrote it and the
    source for every other: both load paths give the same program."""

    @staticmethod
    def _counting_compile(monkeypatch):
        import repro.profiles.compiled as compiled

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return compile(*args, **kwargs)

        monkeypatch.setattr(compiled, "compile", counting, raising=False)
        return calls

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stale_magic_regenerates_bit_identically(
        self, shape, seed, monkeypatch
    ):
        spec = spec_for_shape(shape, seed)
        prepared = prepare(generate_program(spec).func)
        fresh = compile_function(prepared)
        calls = self._counting_compile(monkeypatch)
        stale = stale_bytecode_copy(fresh)
        assert len(calls) == 1  # regenerated from source
        monkeypatch.undo()
        seen = {"fresh": [], "stale": []}
        fresh.profile_hook = seen["fresh"].append
        stale.profile_hook = seen["stale"].append
        for args in case_inputs(spec):
            assert_bit_identical(
                fresh.run(args, max_steps=MAX_STEPS),
                stale.run(args, max_steps=MAX_STEPS),
            )
        assert seen["fresh"] == seen["stale"]
        assert len(seen["stale"]) == len(case_inputs(spec))

    def test_matching_magic_never_compiles(self, monkeypatch):
        import repro.profiles.compiled as compiled

        spec = spec_for_shape("cint", 1)
        prepared = prepare(generate_program(spec).func)
        fresh = compile_function(prepared)
        blob = pickle.dumps(fresh)

        def refuse(*_args, **_kwargs):
            raise AssertionError("unpickling compiled the source")

        monkeypatch.setattr(compiled, "compile", refuse, raising=False)
        loaded = pickle.loads(blob)
        for args in case_inputs(spec):
            assert_bit_identical(
                fresh.run(args, max_steps=MAX_STEPS),
                loaded.run(args, max_steps=MAX_STEPS),
            )

    def test_unreadable_bytecode_falls_back_to_source(self, monkeypatch):
        spec = spec_for_shape("cfp", 2)
        prepared = prepare(generate_program(spec).func)
        fresh = compile_function(prepared)
        state = fresh.__getstate__()
        magic, blob = state["bytecode"]
        state["bytecode"] = (magic, blob[: len(blob) // 2])
        calls = self._counting_compile(monkeypatch)
        loaded = CompiledProgram.__new__(CompiledProgram)
        loaded.__setstate__(state)
        assert len(calls) == 1
        for args in case_inputs(spec):
            assert_bit_identical(
                fresh.run(args, max_steps=MAX_STEPS),
                loaded.run(args, max_steps=MAX_STEPS),
            )

    def test_live_program_keeps_no_bytecode(self):
        program = pickle.loads(pickle.dumps(compile_function(_two_entry_loop())))
        assert "bytecode" not in vars(program)
        assert program.function.__code__.co_name == "_run"
        assert program.derive.__code__.co_name == "_derive"


class TestErrorParity:
    def _diamond_with_partial_def(self):
        # "maybe" is assigned on only one arm of the diamond, so reading
        # it afterwards is defined iff the branch went left.
        b = FunctionBuilder("partial", params=["p"])
        b.block("entry")
        b.branch("p", "left", "right")
        b.block("left")
        b.assign("maybe", "add", "p", 1)
        b.jump("join")
        b.block("right")
        b.jump("join")
        b.block("join")
        b.copy("x", "maybe")
        b.ret("x")
        return prepare(b.build(), restructure=False)

    def test_arity_error_matches(self):
        func = self._diamond_with_partial_def()
        with pytest.raises(InterpreterError) as ref_exc:
            run_function(func, [])
        with pytest.raises(InterpreterError) as got_exc:
            run_compiled(func, [])
        assert str(got_exc.value) == str(ref_exc.value)

    def test_undefined_read_matches(self):
        func = self._diamond_with_partial_def()
        # Taken branch: defined on both engines, identical results.
        assert_bit_identical(
            run_function(func, [1]), run_compiled(func, [1])
        )
        # Fallthrough: both engines raise the same message.
        with pytest.raises(InterpreterError) as ref_exc:
            run_function(func, [0])
        with pytest.raises(InterpreterError) as got_exc:
            run_compiled(func, [0])
        assert "read of undefined variable" in str(ref_exc.value)
        assert str(got_exc.value) == str(ref_exc.value)

    @pytest.mark.parametrize("budget", [1, 7, 50, 173, MAX_STEPS])
    def test_step_budget_parity(self, budget):
        spec = spec_for_shape("cfp", 1)
        prepared = prepare(generate_program(spec).func)
        args = case_inputs(spec)[0]
        try:
            ref = run_function(prepared, args, max_steps=budget)
            ref_outcome = ("ok", ref)
        except InterpreterError as exc:
            ref_outcome = ("raise", str(exc))
        try:
            got = run_compiled(prepared, args, max_steps=budget)
            got_outcome = ("ok", got)
        except InterpreterError as exc:
            got_outcome = ("raise", str(exc))
        assert got_outcome[0] == ref_outcome[0]
        if ref_outcome[0] == "raise":
            assert got_outcome[1] == ref_outcome[1]
            assert f"exceeded {budget} interpreted steps" in ref_outcome[1]
        else:
            assert_bit_identical(ref_outcome[1], got_outcome[1])


class TestMemoryParity:
    """Array semantics must agree bit-for-bit: initial contents, in-place
    stores, and the out-of-bounds trap — message included."""

    def _indexed(self):
        # `load A, i` / `store A, i, v` with the index coming straight
        # from a parameter: any OOB input traps at runtime.
        b = FunctionBuilder("idx", params=["i"])
        b.array("A", 8)
        b.block("entry")
        b.load("x", "A", "i")
        b.assign("y", "add", "x", 1)
        b.store("A", "i", "y")
        b.load("z", "A", "i")
        b.ret("z")
        return prepare(b.build())

    def test_in_bounds_parity_and_store_visibility(self):
        from repro.ir.memory import initial_array

        func = self._indexed()
        for i in range(8):
            ref = run_function(func, [i])
            got = run_compiled(func, [i])
            assert_bit_identical(ref, got)
            assert ref.return_value == initial_array("A", 8)[i] + 1

    def test_runs_do_not_leak_array_state(self):
        # Stores mutate in place *within* a run; every run starts from
        # the deterministic initial contents, on both engines.
        func = self._indexed()
        first = run_function(func, [3])
        assert_bit_identical(first, run_function(func, [3]))
        assert_bit_identical(first, run_compiled(func, [3]))
        assert_bit_identical(first, run_compiled(func, [3]))

    @pytest.mark.parametrize("index", [-1, 8, 1 << 40])
    def test_out_of_bounds_trap_parity(self, index):
        func = self._indexed()
        with pytest.raises(InterpreterError) as ref_exc:
            run_function(func, [index])
        with pytest.raises(InterpreterError) as got_exc:
            run_compiled(func, [index])
        assert str(got_exc.value) == str(ref_exc.value)
        assert "A" in str(ref_exc.value)

    def test_store_trap_parity(self):
        b = FunctionBuilder("st", params=["i"])
        b.array("A", 4)
        b.block("entry")
        b.store("A", "i", 7)
        b.ret(0)
        func = prepare(b.build())
        with pytest.raises(InterpreterError) as ref_exc:
            run_function(func, [9])
        with pytest.raises(InterpreterError) as got_exc:
            run_compiled(func, [9])
        assert str(got_exc.value) == str(ref_exc.value)

    def test_optimized_memory_variant_parity(self):
        spec = spec_for_shape("mem", 5)
        prepared = prepare(generate_program(spec).func)
        inputs = case_inputs(spec)
        profile = run_function(
            prepared, inputs[0], max_steps=MAX_STEPS
        ).profile
        for variant in ("mc-ssapre", "ssapre", "lcm"):
            out = compile_func(prepared, variant, profile, validate=True)
            for args in inputs:
                ref = run_function(out.func, args, max_steps=MAX_STEPS)
                got = run_compiled(
                    out.func, args, max_steps=MAX_STEPS, cache=out.cache
                )
                assert_bit_identical(ref, got)


class TestCaching:
    def test_cache_memoises_lowering(self, straightline):
        cache = AnalysisCache(straightline)
        from repro.passes.analyses import COMPILED_ANALYSIS

        run_compiled(straightline, [2, 3], cache=cache)
        first = cache.peek(COMPILED_ANALYSIS)
        assert first is not None
        run_compiled(straightline, [4, 5], cache=cache)
        assert cache.peek(COMPILED_ANALYSIS) is first

    def test_code_mutation_invalidates(self, straightline):
        cache = AnalysisCache(straightline)
        from repro.passes.analyses import COMPILED_ANALYSIS

        before = run_compiled(straightline, [2, 3], cache=cache)
        first = cache.peek(COMPILED_ANALYSIS)
        straightline.mark_code_mutated()
        after = run_compiled(straightline, [2, 3], cache=cache)
        assert cache.peek(COMPILED_ANALYSIS) is not first
        assert_bit_identical(before, after)


# -- hard CFG shapes ----------------------------------------------------------
# Each shape runs through every form a lowered program takes in
# production: freshly lowered and after a pickle round-trip (loading the pickled bytecode, or
# regenerating from source under a stale bytecode tag), with and without
# a live-profiling hook.


def _two_entry_loop():
    # The entry branches into both blocks of the cycle a <-> b, so neither
    # dominates the other: the CFG is irreducible.
    b = FunctionBuilder("twoentry", params=["p", "n"])
    b.block("entry")
    b.copy("x", 0)
    b.assign("c", "and", "p", 1)
    b.branch("c", "a", "b")
    b.block("a")
    b.assign("x", "add", "x", 3)
    b.output("x")
    b.assign("t", "lt", "x", "n")
    b.branch("t", "b", "done")
    b.block("b")
    b.assign("x", "mul", "x", 2)
    b.assign("x", "add", "x", 1)
    b.assign("t", "lt", "x", "n")
    b.branch("t", "a", "done")
    b.block("done")
    b.ret("x")
    return b.build()


DEEP = 24


def _deep_nest():
    # DEEP nested counted loops; the outermost and innermost run p times,
    # the rest once — past CPython's 20 statically nested blocks.
    b = FunctionBuilder("deep", params=["p"])
    b.block("entry")
    b.copy("acc", 0)
    for d in range(DEEP):
        b.copy(f"i{d}", 0)
        b.jump(f"h{d}")
        b.block(f"h{d}")
        bound = "p" if d in (0, DEEP - 1) else 1
        b.assign(f"c{d}", "lt", f"i{d}", bound)
        b.branch(f"c{d}", f"b{d}", f"x{d}")
        b.block(f"b{d}")
    b.assign("acc", "add", "acc", "p")
    b.output("acc")
    for d in reversed(range(DEEP)):
        b.assign(f"i{d}", "add", f"i{d}", 1)
        b.jump(f"h{d}")
        b.block(f"x{d}")
    b.ret("acc")
    return b.build()


BRANCHY = 130


def _deep_branches():
    # BRANCHY branches nested in each other's taken arm: more indentation
    # levels than Python's tokenizer accepts (100).
    b = FunctionBuilder("branchy", params=["p"])
    b.block("entry")
    b.copy("x", 0)
    for d in range(BRANCHY):
        b.assign(f"c{d}", "gt", "p", d)
        b.branch(f"c{d}", f"t{d}", f"j{d}")
        b.block(f"t{d}")
        b.assign("x", "add", "x", d)
    for d in reversed(range(BRANCHY)):
        b.jump(f"j{d}")
        b.block(f"j{d}")
        b.output("x")
    b.ret("x")
    return b.build()


CHAIN = 400


def _jump_chain():
    # CHAIN blocks each jumping to the next: every one goes inline in its
    # predecessor's code, deeper than the lowering may recurse.
    b = FunctionBuilder("chain", params=["p"])
    b.block("entry")
    b.copy("x", "p")
    for k in range(CHAIN):
        b.jump(f"k{k}")
        b.block(f"k{k}")
        b.assign("x", "add", "x", k)
    b.output("x")
    b.ret("x")
    return b.build()


WIDE = 320


def _many_registers():
    b = FunctionBuilder("wide", params=["p"])
    b.block("entry")
    b.copy("v0", "p")
    for k in range(1, WIDE):
        b.assign(f"v{k}", "add", f"v{k - 1}", k)
    b.copy("i", 0)
    b.copy("acc", 0)
    b.jump("head")
    b.block("head")
    b.assign("c", "lt", "i", 3)
    b.branch("c", "body", "done")
    b.block("body")
    for k in range(0, WIDE, 7):
        b.assign("acc", "xor", "acc", f"v{k}")
    b.assign("i", "add", "i", 1)
    b.jump("head")
    b.block("done")
    b.output("acc")
    b.ret(f"v{WIDE - 1}")
    return b.build()


def _budget_before_trap():
    # n trips round a loop, then a load whose index (a parameter) may be
    # out of bounds: the budget can run out on entering the load's block.
    b = FunctionBuilder("budgettrap", params=["i", "n"])
    b.array("A", 4)
    b.block("entry")
    b.copy("k", 0)
    b.jump("head")
    b.block("head")
    b.assign("k", "add", "k", 1)
    b.assign("c", "lt", "k", "n")
    b.branch("c", "head", "probe")
    b.block("probe")
    b.load("x", "A", "i")
    b.ret("x")
    return b.build()


def _false_arm_loop():
    # The loop body sits on the header's false arm: the header's count is
    # reached only through a jump and a false-arm edge.
    b = FunctionBuilder("falsearm", params=["n"])
    b.block("entry")
    b.copy("i", 0)
    b.jump("head")
    b.block("head")
    b.assign("c", "ge", "i", "n")
    b.branch("c", "exit", "body")
    b.block("body")
    b.assign("i", "add", "i", 1)
    b.output("i")
    b.jump("head")
    b.block("exit")
    b.ret("i")
    return b.build()


def _inverted_do_while():
    # A do-while whose latch leaves on its true arm and loops back on its
    # false arm.
    b = FunctionBuilder("dowhile", params=["n"])
    b.block("entry")
    b.copy("i", 0)
    b.jump("head")
    b.block("head")
    b.assign("i", "add", "i", 1)
    b.assign("c", "ge", "i", "n")
    b.branch("c", "exit", "head")
    b.block("exit")
    b.output("i")
    b.ret("i")
    return b.build()


def _loop_on_false_arm():
    # A whole loop on the entry's false arm: its header is entered
    # inline from that arm and left on its own false arm.
    b = FunctionBuilder("armloop", params=["p", "n"])
    b.block("entry")
    b.copy("i", 0)
    b.assign("c", "lt", "p", 0)
    b.branch("c", "done", "head")
    b.block("head")
    b.assign("i", "add", "i", 1)
    b.output("i")
    b.assign("t", "lt", "i", "n")
    b.branch("t", "head", "done")
    b.block("done")
    b.ret("i")
    return b.build()


def _multi_exit():
    # A loop left through two different returns.
    b = FunctionBuilder("twoexit", params=["n", "k"])
    b.block("entry")
    b.copy("i", 0)
    b.jump("head")
    b.block("head")
    b.assign("c", "lt", "i", "n")
    b.branch("c", "body", "out")
    b.block("body")
    b.assign("i", "add", "i", 1)
    b.assign("hit", "eq", "i", "k")
    b.branch("hit", "early", "head")
    b.block("early")
    b.output("i")
    b.ret("i")
    b.block("out")
    b.ret(0)
    return b.build()


def _no_exit():
    # No return block at all: every run ends in the step budget.
    b = FunctionBuilder("forever", params=["p"])
    b.block("entry")
    b.copy("i", "p")
    b.jump("head")
    b.block("head")
    b.assign("i", "add", "i", 1)
    b.assign("c", "and", "i", 1)
    b.branch("c", "odd", "head")
    b.block("odd")
    b.output("i")
    b.jump("head")
    return b.build()


def _same_target_branch():
    # A conditional jump whose arms reach the same block: two static
    # edges with one (src, dst) pair.
    b = FunctionBuilder("sametarget", params=["p", "n"])
    b.block("entry")
    b.copy("i", 0)
    b.jump("head")
    b.block("head")
    b.assign("c", "and", "i", "p")
    b.branch("c", "next", "next")
    b.block("next")
    b.assign("i", "add", "i", 1)
    b.assign("t", "lt", "i", "n")
    b.branch("t", "head", "done")
    b.block("done")
    b.ret("i")
    return b.build()


def _self_loop():
    b = FunctionBuilder("selfloop", params=["n"])
    b.block("entry")
    b.copy("i", 0)
    b.jump("spin")
    b.block("spin")
    b.assign("i", "add", "i", 1)
    b.assign("t", "lt", "i", "n")
    b.branch("t", "spin", "done")
    b.block("done")
    b.output("i")
    b.ret("i")
    return b.build()


def _irreducible_with_exits():
    # Two-entry cycle whose blocks each also return: region dispatch
    # with the exits inside the regions.
    b = FunctionBuilder("irrexit", params=["p", "n"])
    b.block("entry")
    b.copy("x", 0)
    b.assign("c", "and", "p", 1)
    b.branch("c", "a", "b")
    b.block("a")
    b.assign("x", "add", "x", 3)
    b.assign("t", "lt", "x", "n")
    b.branch("t", "b", "ra")
    b.block("b")
    b.assign("x", "add", "x", 5)
    b.assign("t", "lt", "x", "n")
    b.branch("t", "a", "rb")
    b.block("ra")
    b.ret("x")
    b.block("rb")
    b.output("x")
    b.ret(0)
    return b.build()


def _with_unreachable():
    # Blocks no path reaches, one of them jumping into a live block.
    b = FunctionBuilder("deadcode", params=["n"])
    b.block("entry")
    b.copy("i", 0)
    b.jump("head")
    b.block("dead")
    b.copy("i", 99)
    b.jump("head")
    b.block("head")
    b.assign("i", "add", "i", 1)
    b.assign("t", "lt", "i", "n")
    b.branch("t", "head", "done")
    b.block("deader")
    b.ret(7)
    b.block("done")
    b.ret("i")
    return b.build()


def _outcome(run, args, budget):
    try:
        return "ok", run(args, budget)
    except InterpreterError as exc:
        return "raise", str(exc)


def _assert_engines_match(func, cases):
    """Every production form of *func*'s lowering against the reference."""
    fresh = compile_function(func)
    programs = {
        "fresh": fresh,
        "pickled": pickle.loads(pickle.dumps(fresh)),
        "stale": stale_bytecode_copy(fresh),
    }
    for mode, program in programs.items():
        for hooked in (False, True):
            seen = []
            program.profile_hook = seen.append if hooked else None
            for args, budget in cases:
                ref = _outcome(
                    lambda a, m: run_function(func, a, max_steps=m), args, budget
                )
                got = _outcome(
                    lambda a, m: program.run(a, max_steps=m), args, budget
                )
                assert got[0] == ref[0], (mode, args, budget, got, ref)
                if ref[0] == "raise":
                    assert got[1] == ref[1], (mode, args, budget)
                    continue
                ref, got = ref[1], got[1]
                assert_bit_identical(ref, got)
                if hooked:
                    assert dict(seen.pop()) == dict(ref.profile.node_freq)
            assert not seen
            program.profile_hook = None


class TestHardShapes:
    def test_irreducible_two_entry_loop(self):
        func = _two_entry_loop()
        cases = [([p, n], MAX_STEPS) for p in (0, 1) for n in (0, 5, 40)]
        cases += [([1, 40], budget) for budget in range(1, 40)]
        _assert_engines_match(func, cases)
        # The cycle has no dominating header, so it runs on the in-frame
        # block-state loop.
        assert "b = " in compile_function(func).source

    @pytest.mark.parametrize("prepared", [False, True])
    def test_loop_nest_deeper_than_python_allows(self, prepared):
        func = _deep_nest()
        if prepared:
            func = prepare(func)
        cases = [([p], MAX_STEPS) for p in (0, 1, 3)]
        cases += [([2], budget) for budget in (1, 30, 100, 150, 200)]
        _assert_engines_match(func, cases)
        program = compile_function(func)
        assert program.source.count("while True:") > 20

    @pytest.mark.parametrize("prepared", [False, True])
    def test_branch_nest_deeper_than_python_allows(self, prepared):
        func = _deep_branches()
        if prepared:
            func = prepare(func)
        cases = [([p], MAX_STEPS) for p in (0, 7, BRANCHY + 1)]
        cases += [([BRANCHY], budget) for budget in (50, 200, 400)]
        _assert_engines_match(func, cases)

    def test_jump_chain_longer_than_the_lowering_recursion(self):
        cases = [([3], MAX_STEPS)] + [([3], budget) for budget in (50, 400)]
        _assert_engines_match(_jump_chain(), cases)

    def test_more_than_300_registers(self):
        func = _many_registers()
        cases = [([p], MAX_STEPS) for p in (0, 7, -3)]
        cases += [([7], budget) for budget in (WIDE - 1, WIDE + 5, WIDE + 60)]
        _assert_engines_match(func, cases)

    def test_loop_body_on_the_false_arm(self):
        cases = [([n], MAX_STEPS) for n in (-1, 0, 1, 6)]
        cases += [([6], budget) for budget in range(1, 30)]
        _assert_engines_match(_false_arm_loop(), cases)

    def test_do_while_looping_on_the_false_arm(self):
        cases = [([n], MAX_STEPS) for n in (-1, 0, 1, 6)]
        cases += [([6], budget) for budget in range(1, 25)]
        _assert_engines_match(_inverted_do_while(), cases)

    def test_budget_runs_out_just_before_out_of_bounds_load(self):
        func = _budget_before_trap()
        n = 5
        # entry (2 steps) + n trips round head (3 steps each): the next
        # block entry — the trapping load's — is where a budget of
        # exactly that many steps runs out.
        before_load = 2 + 3 * n
        with pytest.raises(InterpreterError) as ref_exc:
            run_function(func, [9, n], max_steps=before_load)
        assert str(ref_exc.value) == (
            f"budgettrap: exceeded {before_load} interpreted steps"
        )
        cases = [([9, n], budget) for budget in range(1, before_load + 4)]
        cases += [([i, n], MAX_STEPS) for i in (-1, 0, 3, 4)]
        _assert_engines_match(func, cases)


    def test_budget_on_a_loop_entered_from_a_false_arm(self):
        cases = [([p, n], MAX_STEPS) for p in (-1, 0) for n in (0, 1, 6)]
        cases += [([0, 6], budget) for budget in range(1, 40)]
        _assert_engines_match(_loop_on_false_arm(), cases)


# -- chord counting -----------------------------------------------------------
SHAPES_WITH_EXITS = {
    "multi-exit": (
        _multi_exit, [[n, k] for n in (0, 3, 8) for k in (-1, 2, 5)]
    ),
    "same-target": (_same_target_branch, [[p, n] for p in (0, 1) for n in (0, 1, 7)]),
    "self-loop": (_self_loop, [[n] for n in (-2, 0, 1, 9)]),
    "irreducible": (
        _irreducible_with_exits, [[p, n] for p in (0, 1) for n in (0, 9, 40)]
    ),
    "unreachable": (_with_unreachable, [[n] for n in (0, 1, 6)]),
}


#: A step budget the serve-warm programs' ref runs fit in.
SERVE_STEPS = 2_000_000


def _counters(program, args, max_steps=MAX_STEPS):
    """The counter tuple one run hands to ``_derive``."""
    from repro.ir.memory import initial_array

    arrays = [initial_array(name, length) for name, length in program.arrays]
    return program.function(max_steps, [].append, *args, *arrays)[2]


class TestChordCounting:
    """Only the edges off a spanning tree count; everything else is
    derived, and must still match the reference bit for bit."""

    def test_while_loop_bumps_one_counter_per_iteration(self):
        from tests.conftest import build_while_loop

        # Prepared, the loop is rotated behind a guard, so the first trip
        # is the base; every further trip is one counted event.
        for func in (build_while_loop(), prepare(build_while_loop())):
            program = compile_function(func)
            base = sum(_counters(program, [2, 3, 1]))
            for n in (2, 3, 10):
                assert sum(_counters(program, [2, 3, n])) == base + n - 1

    @pytest.mark.parametrize("name", sorted(SHAPES_WITH_EXITS) + ["no-exit"])
    def test_counter_count_equals_chord_count(self, name):
        build = _no_exit if name == "no-exit" else SHAPES_WITH_EXITS[name][0]
        func = build()
        program = compile_function(func)
        chords = chord_bound(func)
        assert len(program.chords) == chords
        n_real = len(program.edge_pairs)
        for k in program.chords:
            # A real chord bumps its counter; an exit chord's ``return``
            # hands its count back instead.
            assert (f"_e{k} += 1" in program.source) == (k < n_real)
        if name != "no-exit":
            assert len(_counters(program, SHAPES_WITH_EXITS[name][1][0])) == chords

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", range(4))
    def test_corpus_counter_count_equals_chord_count(self, shape, seed):
        spec = spec_for_shape(shape, seed)
        prepared = prepare(generate_program(spec).func)
        program = compile_function(prepared)
        counters = _counters(program, case_inputs(spec)[0])
        assert len(counters) == chord_bound(prepared)

    @pytest.mark.parametrize("name", ["gromacs", "lbm", "milc", "namd", "wrf"])
    def test_serve_warm_programs_count_under_30_percent(self, name):
        # The five CFP2006 programs the serve-warm benchmark serves.
        # Full counting paid one event per block entry plus one per
        # taken conditional arm.
        from repro.bench.workloads import load_workload

        workload = load_workload(name)
        prepared = prepare(workload.program.func)
        program = compile_function(prepared)
        events = sum(_counters(program, workload.ref_args, SERVE_STEPS))
        got = program.run(workload.ref_args, max_steps=SERVE_STEPS)
        taken = sum(
            got.profile.edge_freq[(label, term.true_target)]
            for label, block in prepared.blocks.items()
            if isinstance(term := block.terminator, CondJump)
            and term.true_target != term.false_target
        )
        full = sum(got.profile.node_freq.values()) + taken
        assert events <= 0.30 * full, (events, full)

    @pytest.mark.parametrize("name", sorted(SHAPES_WITH_EXITS))
    def test_shape_parity(self, name):
        build, arg_sets = SHAPES_WITH_EXITS[name]
        cases = [(args, MAX_STEPS) for args in arg_sets]
        cases += [(arg_sets[-1], budget) for budget in (1, 5, 12, 30, 80)]
        _assert_engines_match(build(), cases)

    def test_no_exit_parity(self):
        cases = [([p], budget) for p in (0, 1) for budget in (1, 9, 50, 400)]
        _assert_engines_match(_no_exit(), cases)


class TestInlineOperators:
    def test_inline_expressions_match_their_handlers(self):
        from repro.ir import ops
        from repro.profiles.compiled import _INLINE_BINARY, _INLINE_UNARY

        values = [0, 1, -1, 7, -13, 1 << 40, -(1 << 63)]
        for name, template in _INLINE_BINARY.items():
            inline = eval(f"lambda a, b: {template.format('a', 'b')}")
            handler = ops.BINARY_OPS[name].func
            for a in values:
                for b in values:
                    got, want = inline(a, b), handler(a, b)
                    assert (type(got), got) == (type(want), want), name
        for name, template in _INLINE_UNARY.items():
            inline = eval(f"lambda a: {template.format('a')}")
            handler = ops.UNARY_OPS[name].func
            for a in values:
                got, want = inline(a), handler(a)
                assert (type(got), got) == (type(want), want), name
