"""Tests for DownSafety and the safe WillBeAvail step."""

from repro.core.ssapre.downsafety import compute_down_safety
from repro.core.ssapre.frg import ExprClass, build_frg
from repro.core.ssapre.speculation import apply_loop_speculation
from repro.core.ssapre.willbeavail import compute_will_be_avail
from repro.ir.builder import FunctionBuilder
from tests.conftest import as_ssa

AB = ExprClass(("add", ("var", "a"), ("var", "b")))


class TestDownSafety:
    def test_diamond_join_phi_is_down_safe(self, diamond):
        frg = build_frg(as_ssa(diamond), AB)
        compute_down_safety(frg)
        assert frg.phis[0].down_safe

    def test_while_header_phi_not_down_safe(self, while_loop):
        frg = build_frg(as_ssa(while_loop), AB)
        compute_down_safety(frg)
        head_phi = frg.phi_at("head")
        assert not head_phi.down_safe  # loop may run zero times

    def test_phi_before_conditional_use_not_down_safe(self):
        b = FunctionBuilder("f", params=["a", "b", "c", "d"])
        b.block("entry")
        b.branch("c", "l", "r")
        b.block("l")
        b.assign("x", "add", "a", "b")
        b.jump("j")
        b.block("r")
        b.jump("j")
        b.block("j")
        b.branch("d", "use", "skip")
        b.block("use")
        b.assign("y", "add", "a", "b")
        b.ret("y")
        b.block("skip")
        b.ret(0)
        func = b.build()
        frg = build_frg(as_ssa(func), AB)
        compute_down_safety(frg)
        # j's phi: a path j -> skip never computes a+b.
        j_phi = frg.phi_at("j")
        assert j_phi is not None and not j_phi.down_safe

    def test_kill_after_phi_blocks_down_safety(self):
        b = FunctionBuilder("f", params=["a", "b", "c"])
        b.block("entry")
        b.branch("c", "l", "r")
        b.block("l")
        b.assign("x", "add", "a", "b")
        b.jump("j")
        b.block("r")
        b.jump("j")
        b.block("j")
        b.assign("a", "add", "a", 1)   # kill before the use
        b.assign("y", "add", "a", "b")
        b.ret("y")
        frg = build_frg(as_ssa(b.build()), AB)
        compute_down_safety(frg)
        j_phi = frg.phi_at("j")
        assert j_phi is not None and not j_phi.down_safe

    def test_sibling_uses_keep_phi_down_safe(self):
        """Uses in both sibling branches below a merge: the expression is
        anticipated on every path out of the merge's Φ, so it is
        down-safe although no single dominator-tree path holds both uses."""
        b = FunctionBuilder("f", params=["a", "b", "p", "q"])
        b.block("entry")
        b.branch("p", "l", "r")
        b.block("l")
        b.assign("x", "add", "a", "b")
        b.jump("mid")
        b.block("r")
        b.jump("mid")
        b.block("mid")      # Φ here: one real operand, one bottom
        b.branch("q", "u1", "u2")
        b.block("u1")
        b.assign("y", "add", "a", "b")   # uses the Φ version
        b.ret("y")
        b.block("u2")
        b.assign("z", "add", "a", "b")   # uses the Φ version
        b.ret("z")
        frg = build_frg(as_ssa(b.build()), AB)
        compute_down_safety(frg)
        assert frg.phi_at("mid").down_safe


class TestSafeWillBeAvail:
    def test_diamond_insert_on_bottom_operand(self, diamond):
        frg = build_frg(as_ssa(diamond), AB)
        compute_down_safety(frg)
        compute_will_be_avail(frg)
        phi = frg.phis[0]
        assert phi.can_be_avail and not phi.later and phi.will_be_avail
        by_pred = {op.pred: op for op in phi.operands}
        assert by_pred["right"].insert
        assert not by_pred["left"].insert

    def test_loop_header_no_insert_without_speculation(self, while_loop):
        frg = build_frg(as_ssa(while_loop), AB)
        compute_down_safety(frg)
        compute_will_be_avail(frg)
        head_phi = frg.phi_at("head")
        assert not head_phi.will_be_avail
        assert all(not op.insert for op in head_phi.operands)

    def test_later_blocks_useless_hoisting(self):
        """No operand has a real use: availability would arrive 'later'
        than needed, so no phi materialises and nothing is inserted."""
        b = FunctionBuilder("f", params=["a", "b", "c"])
        b.block("entry")
        b.branch("c", "l", "r")
        b.block("l")
        b.jump("j")
        b.block("r")
        b.jump("j")
        b.block("j")
        b.assign("x", "add", "a", "b")  # first and only computation
        b.ret("x")
        func = b.build()
        frg = build_frg(as_ssa(func), AB)
        compute_down_safety(frg)
        compute_will_be_avail(frg)
        for phi in frg.phis:
            assert phi.later, "no path computes a+b before the phi"
            assert not phi.will_be_avail


class TestLoopSpeculation:
    def test_header_phi_upgraded(self, while_loop):
        frg = build_frg(as_ssa(while_loop), AB)
        compute_down_safety(frg)
        upgraded = apply_loop_speculation(frg)
        assert upgraded == 1
        assert frg.phi_at("head").down_safe

    def test_insert_happens_after_speculation(self, while_loop):
        frg = build_frg(as_ssa(while_loop), AB)
        compute_down_safety(frg)
        apply_loop_speculation(frg)
        compute_will_be_avail(frg)
        head_phi = frg.phi_at("head")
        assert head_phi.will_be_avail
        by_pred = {op.pred: op for op in head_phi.operands}
        assert by_pred["entry"].insert

    def test_trapping_never_speculated(self):
        b = FunctionBuilder("f", params=["a", "b", "n"])
        b.block("entry")
        b.copy("i", 0)
        b.copy("acc", 0)
        b.jump("head")
        b.block("head")
        b.assign("c", "lt", "i", "n")
        b.branch("c", "body", "done")
        b.block("body")
        b.assign("v", "div", "a", "b")   # trapping
        b.assign("acc", "add", "acc", "v")
        b.assign("i", "add", "i", 1)
        b.jump("head")
        b.block("done")
        b.ret("acc")
        func = as_ssa(b.build())
        expr = ExprClass(("div", ("var", "a"), ("var", "b")))
        frg = build_frg(func, expr)
        compute_down_safety(frg)
        assert apply_loop_speculation(frg) == 0

    def test_non_loop_phi_not_upgraded(self, diamond):
        b = FunctionBuilder("f", params=["a", "b", "c"])
        b.block("entry")
        b.branch("c", "l", "r")
        b.block("l")
        b.jump("j")
        b.block("r")
        b.jump("j")
        b.block("j")
        b.assign("x", "add", "a", "b")
        b.ret("x")
        frg = build_frg(as_ssa(b.build()), AB)
        compute_down_safety(frg)
        before = [phi.down_safe for phi in frg.phis]
        apply_loop_speculation(frg)
        assert [phi.down_safe for phi in frg.phis] == before
