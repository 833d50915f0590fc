"""Tests for IR operand values."""

import pytest

from repro.ir.values import Const, Var, is_var, operand_base_key


class TestConst:
    def test_str(self):
        assert str(Const(42)) == "42"
        assert str(Const(-3)) == "-3"

    def test_equality_and_hash(self):
        assert Const(1) == Const(1)
        assert Const(1) != Const(2)
        assert hash(Const(1)) == hash(Const(1))

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Const(1).value = 2  # type: ignore[misc]


class TestVar:
    def test_unversioned_str(self):
        assert str(Var("a")) == "a"

    def test_versioned_str_uses_dot(self):
        assert str(Var("a", 3)) == "a.3"

    def test_with_version(self):
        assert Var("a").with_version(2) == Var("a", 2)

    def test_base_strips_version(self):
        assert Var("a", 5).base == Var("a")
        assert Var("a").base == Var("a")

    def test_distinct_versions_are_distinct_keys(self):
        table = {Var("a", 1): "x", Var("a", 2): "y"}
        assert table[Var("a", 1)] == "x"
        assert table[Var("a", 2)] == "y"


class TestOperandBaseKey:
    def test_var_key_ignores_version(self):
        assert operand_base_key(Var("a", 1)) == operand_base_key(Var("a", 9))
        assert operand_base_key(Var("a")) == ("var", "a")

    def test_const_key(self):
        assert operand_base_key(Const(7)) == ("const", 7)

    def test_var_and_const_keys_disjoint(self):
        assert operand_base_key(Var("x")) != operand_base_key(Const(0))


def test_is_var():
    assert is_var(Var("a"))
    assert is_var(Var("a", 1))
    assert not is_var(Const(1))


@pytest.mark.parametrize("value", [Const(-7), Var("a"), Var("a", 3)])
def test_pickle_and_copy_round_trip(value):
    import copy
    import pickle

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol=protocol)) == value
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
