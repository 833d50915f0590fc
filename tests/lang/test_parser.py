"""Tests for the textual IR lexer and parser, including round-trips."""

import pytest
from hypothesis import given, settings

from repro.bench.generator import ProgramSpec, generate_program
from repro.ir.printer import format_function
from repro.ir.verifier import verify_function
from repro.lang.lexer import LexError, tokenize
from repro.lang.parser import ParseError, parse_function, parse_program
from hypothesis import strategies as st


SAMPLE = """
func main(n) {
entry:
  i = 0
  jump head
head:
  c = lt i, n
  br c, body, done
body:
  i = add i, 1
  output i
  jump head
done:
  ret i
}
"""


class TestLexer:
    def test_tokens_of_simple_line(self):
        kinds = [t.kind for t in tokenize("x = add a, 1")]
        assert kinds == ["NAME", "=", "NAME", "NAME", ",", "INT", "EOF"]

    def test_versioned_name_is_one_token(self):
        tokens = list(tokenize("x.12"))
        assert tokens[0].text == "x.12"

    def test_comments_are_skipped(self):
        kinds = [t.kind for t in tokenize("x # comment\ny")]
        assert kinds == ["NAME", "NAME", "EOF"]

    def test_line_numbers(self):
        tokens = list(tokenize("a\nb\n  c"))
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].column == 3

    def test_bad_character_raises(self):
        with pytest.raises(LexError):
            list(tokenize("x @ y"))


class TestParser:
    def test_parse_sample(self):
        func = parse_function(SAMPLE)
        verify_function(func)
        assert func.name == "main"
        assert set(func.blocks) == {"entry", "head", "body", "done"}
        assert func.entry == "entry"

    def test_parse_phi(self):
        func = parse_function(
            """
            func f(a) {
            entry:
              x.1 = a.1
              jump join
            mid:
              jump join
            join:
              y.2 = phi(entry: x.1, mid: 3)
              ret y.2
            }
            """
        )
        phi = func.blocks["join"].phis[0]
        assert phi.args["mid"].value == 3

    def test_parse_negative_constants(self):
        func = parse_function("func f() {\nentry:\n  x = add -3, -4\n  ret x\n}")
        rhs = func.blocks["entry"].body[0].rhs
        assert rhs.left.value == -3 and rhs.right.value == -4

    def test_ret_without_value(self):
        func = parse_function("func f() {\nentry:\n  ret\n}")
        assert func.blocks["entry"].terminator.value is None

    def test_ret_without_value_before_next_block(self):
        func = parse_function(
            "func f(c) {\nentry:\n  br c, a, b\na:\n  ret\nb:\n  ret\n}"
        )
        assert func.blocks["a"].terminator.value is None

    def test_multiple_functions(self):
        funcs = parse_program(
            "func f() {\nentry:\n  ret\n}\nfunc g() {\nentry:\n  ret\n}"
        )
        assert [f.name for f in funcs] == ["f", "g"]

    def test_missing_terminator_rejected(self):
        with pytest.raises(ParseError):
            parse_function("func f() {\nentry:\n  x = 1\nnext:\n  ret\n}")

    def test_reserved_word_as_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_function("func f() {\nentry:\n  add = 1\n  ret\n}")

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError):
            parse_program("")

    def test_parse_function_rejects_two(self):
        with pytest.raises(ParseError):
            parse_function(
                "func f() {\nentry:\n  ret\n}\nfunc g() {\nentry:\n  ret\n}"
            )


MEM_SAMPLE = """
func mem(n) arrays(A: 8, B: 4) {
entry:
  m = and n, 7
  t = load A, m
  store B, 0, t
  u = load B, 0
  ret u
}
"""


class TestMemorySyntax:
    def test_arrays_clause_and_instructions(self):
        from repro.ir.instructions import Assign, Load, Store

        func = parse_function(MEM_SAMPLE)
        verify_function(func)
        assert func.arrays == {"A": 8, "B": 4}
        body = func.blocks["entry"].body
        assert isinstance(body[1], Assign) and isinstance(body[1].rhs, Load)
        assert body[1].rhs.array == "A"
        assert isinstance(body[2], Store)
        assert body[2].array == "B" and body[2].index.value == 0

    def test_arrays_clause_prints_sorted(self):
        func = parse_function(
            "func f() arrays(Z: 2, A: 4) {\nentry:\n  ret\n}"
        )
        assert "arrays(A: 4, Z: 2)" in format_function(func)

    def test_duplicate_array_rejected_with_position(self):
        with pytest.raises(ParseError, match="duplicate array"):
            parse_function(
                "func f() arrays(A: 2, A: 4) {\nentry:\n  ret\n}"
            )

    def test_bad_array_length_rejected(self):
        with pytest.raises(ParseError, match="length"):
            parse_function("func f() arrays(A: 0) {\nentry:\n  ret\n}")

    def test_memory_sample_round_trips(self):
        from repro.ir.structural import structural_diff

        func = parse_function(MEM_SAMPLE)
        reparsed = parse_function(format_function(func))
        assert structural_diff(func, reparsed) == []
        assert reparsed.arrays == func.arrays


class TestRobustness:
    """Satellite: parse errors carry line:column; duplicate labels and
    SSA redefinitions are rejected at parse time."""

    def test_parse_error_carries_position(self):
        # Line 3 (1-based), the `=` at column 7 arrives where an operand
        # of `add` is expected.
        with pytest.raises(ParseError) as excinfo:
            parse_function("func f() {\nentry:\n  x = add = 1\n  ret\n}")
        err = excinfo.value
        assert err.line == 3
        assert err.column is not None and err.column > 1
        assert str(err).startswith(f"{err.line}:{err.column}:")

    def test_lex_error_carries_position(self):
        with pytest.raises(LexError) as excinfo:
            list(tokenize("ok\n  x @ y"))
        assert "2:" in str(excinfo.value)

    def test_duplicate_block_label_rejected(self):
        source = (
            "func f() {\nentry:\n  jump entry\nentry:\n  ret\n}"
        )
        with pytest.raises(ParseError, match="duplicate block label") as excinfo:
            parse_function(source)
        assert excinfo.value.line == 4

    def test_redefined_ssa_name_rejected(self):
        source = (
            "func f(a) {\nentry:\n  x.1 = add a, 1\n  x.1 = add a, 2\n"
            "  ret x.1\n}"
        )
        with pytest.raises(ParseError, match="defined more than once") as excinfo:
            parse_function(source)
        assert excinfo.value.line == 4

    def test_versioned_param_cannot_be_redefined(self):
        with pytest.raises(ParseError, match="defined more than once"):
            parse_function(
                "func f(a.1) {\nentry:\n  a.1 = add a.1, 1\n  ret a.1\n}"
            )

    def test_distinct_versions_of_same_name_are_fine(self):
        func = parse_function(
            "func f(a.1) {\nentry:\n  a.2 = add a.1, 1\n  ret a.2\n}"
        )
        verify_function(func)


class TestRoundTrip:
    def test_sample_round_trips(self):
        func = parse_function(SAMPLE)
        text = format_function(func)
        again = parse_function(text)
        assert format_function(again) == text

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_programs_round_trip(self, seed):
        prog = generate_program(ProgramSpec(name="rt", seed=seed, max_depth=2))
        text = format_function(prog.func)
        reparsed = parse_function(text)
        verify_function(reparsed)
        assert format_function(reparsed) == text

    def test_ssa_round_trips(self, diamond):
        from tests.conftest import as_ssa

        ssa = as_ssa(diamond)
        text = format_function(ssa)
        assert format_function(parse_function(text)) == text

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_memory_programs_round_trip(self, seed):
        """Satellite: printer↔parser round-trip over load/store/arrays."""
        from repro.ir.structural import structural_diff

        prog = generate_program(
            ProgramSpec(
                name="mrt", seed=seed, max_depth=2, arrays=2,
                mem_prob=0.5, store_density=0.4, trapping_hot_prob=0.3,
            )
        )
        text = format_function(prog.func)
        reparsed = parse_function(text)
        verify_function(reparsed)
        assert format_function(reparsed) == text
        assert structural_diff(prog.func, reparsed) == []
        assert reparsed.arrays == prog.func.arrays

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=5_000))
    def test_memory_ssa_normalized_round_trip(self, seed):
        """normalize=True renumbers SSA versions; the printed form must
        still reparse to the same structure — arrays included."""
        from repro.ir.structural import structural_diff
        from repro.ssa.construct import construct_ssa
        from repro.pipeline import prepare

        prog = generate_program(
            ProgramSpec(
                name="mnrt", seed=seed, max_depth=2, arrays=2,
                mem_prob=0.5, store_density=0.4,
            )
        )
        ssa = prepare(prog.func)
        construct_ssa(ssa)
        text = format_function(ssa, normalize=True)
        reparsed = parse_function(text)
        assert format_function(reparsed) == text
        normalized = parse_function(format_function(ssa, normalize=True))
        assert structural_diff(normalized, reparsed) == []
        assert reparsed.arrays == ssa.arrays


class TestStructuralRoundTrip:
    """parse(print(f)) must be *structurally* identical to f — textual
    equality alone is too weak (it cannot tell a versioned parameter
    ``a.1`` from a parameter literally named ``"a.1"``)."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_generated_programs_structural(self, seed, fp):
        from repro.ir.structural import structural_diff

        prog = generate_program(
            ProgramSpec(
                name="srt", seed=seed, max_depth=3, fp_flavor=fp,
                trapping_density=0.1, trapping_hot_prob=0.3,
            )
        )
        reparsed = parse_function(format_function(prog.func))
        assert structural_diff(prog.func, reparsed) == []

    def test_versioned_params_round_trip(self, diamond):
        """SSA functions carry versioned parameters (``func f(a.1)``)."""
        from repro.ir.structural import structural_diff
        from tests.conftest import as_ssa

        ssa = as_ssa(diamond)
        reparsed = parse_function(format_function(ssa))
        assert structural_diff(ssa, reparsed) == []
        assert [(p.name, p.version) for p in reparsed.params] == [
            ("a", 1), ("b", 1), ("c", 1)
        ]

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=5_000))
    def test_compiled_ssa_functions_structural(self, seed):
        """Functions straight out of the PRE pipeline — phis, ``%pre``
        temporaries, versioned params — survive the round-trip."""
        from repro.ir.structural import structural_diff
        from repro.passes.compiler import compile as compile_func
        from repro.pipeline import prepare
        from repro.profiles.interp import run_function
        from repro.bench.generator import random_args
        from repro.ssa.construct import construct_ssa
        from repro.core.mcssapre.driver import run_mc_ssapre

        spec = ProgramSpec(name="crt", seed=seed, max_depth=2)
        prog = generate_program(spec)
        args = random_args(spec, 1)
        prepared = prepare(prog.func)
        train = run_function(prepared, args)

        # Destructed (non-SSA) compile output.
        compiled = compile_func(prepared, "mc-ssapre", train.profile)
        reparsed = parse_function(format_function(compiled.func))
        assert structural_diff(compiled.func, reparsed) == []

        # Still-in-SSA function with phis and %pre temps.
        ssa = prepared.clone()
        construct_ssa(ssa)
        run_mc_ssapre(ssa, train.profile.nodes_only())
        reparsed = parse_function(format_function(ssa))
        assert structural_diff(ssa, reparsed) == []


class TestSuiteRoundTrip:
    """Every named suite program — hyphenated names included — prints
    to text that parses back to the same function, and serves from that
    text with the reference interpreter's answer."""

    def test_every_suite_program_round_trips_and_serves(self):
        from repro.bench.workloads import (
            ALL_BENCHMARKS,
            COMPOSITE,
            MEMORY,
            load_suite,
        )
        from repro.ir.structural import structural_diff
        from repro.pipeline import prepare
        from repro.profiles.interp import run_function
        from repro.serve.server import CompileRequest, CompileService

        names = ALL_BENCHMARKS + MEMORY + COMPOSITE
        assert any("-" in name for name in names)
        with CompileService(max_workers=1) as service:
            for workload in load_suite(names):
                func = workload.program.func
                text = format_function(func)
                assert structural_diff(func, parse_function(text)) == []
                response = service.handle(CompileRequest(
                    source=text, args=tuple(workload.train_args),
                    variant="none",
                ))
                expected = run_function(prepare(func), workload.train_args)
                assert response.status == "ok", (workload.name, response.error)
                assert response.observable() == expected.observable()
