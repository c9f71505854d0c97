"""The chain-arithmetic oracle `Chain`: frozen examples, exhaustive
identities, random properties against `Fraction` arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mvkit.errors import MismatchedChainError

from conftest import Chain


def el(order, k):
    return Chain(order).element(k)


def test_oplus_truncates_at_one():
    assert el(3, 1).oplus(el(3, 1)) == el(3, 2)          # 1/2 (+) 1/2 = 1
    assert el(4, 1).oplus(el(4, 1)) == el(4, 2)          # 1/3 (+) 1/3 = 2/3


def test_oplus_identity():
    for n in range(2, 7):
        for k in range(n):
            assert Chain(n).zero.oplus(el(n, k)) == el(n, k)


def test_neg_examples():
    assert el(3, 1).neg() == el(3, 1)                    # midpoint fixed
    assert el(2, 0).neg() == el(2, 1)                    # neg 0 = 1


def test_neg_is_involution():
    for n in range(2, 9):
        for k in range(n):
            assert el(n, k).neg().neg() == el(n, k)


def test_derived_ops_examples():
    assert el(4, 1).join(el(4, 2)) == el(4, 2)
    assert el(4, 2).odot(el(4, 2)) == el(4, 1)           # max(2/3+2/3-1, 0) = 1/3
    assert el(3, 1).leq(el(3, 2))


def test_distance_examples():
    assert el(5, 1).distance(el(5, 3)) == el(5, 2)       # |1/4 - 3/4| = 1/2
    for n in range(2, 7):
        for k in range(n):
            assert el(n, k).distance(el(n, k)) == Chain(n).zero
            assert Chain(n).zero.distance(el(n, k)) == el(n, k)


@pytest.mark.parametrize("n", range(2, 9))
def test_mv_axioms_exhaustive_small_orders(n):
    chain = Chain(n)
    one = chain.one
    for x in chain:
        assert one.oplus(x) == one
        for y in chain:
            left = x.neg().oplus(y).neg().oplus(y)
            right = y.neg().oplus(x).neg().oplus(x)
            assert left == right


def test_distance_symmetric_and_separating():
    for n in range(2, 9):
        chain = Chain(n)
        for x in chain:
            for y in chain:
                d = x.distance(y)
                assert d == y.distance(x)
                assert (d == chain.zero) == (x == y)
                assert d.value == abs(x.value - y.value)


def test_lattice_formulas_match_numeric_order():
    for n in range(2, 9):
        chain = Chain(n)
        for x in chain:
            for y in chain:
                assert x.join(y).value == max(x.value, y.value)
                assert x.meet(y).value == min(x.value, y.value)
                assert x.leq(y) == (x.value <= y.value)


def test_mismatched_chains_rejected():
    with pytest.raises(MismatchedChainError):
        el(3, 1).oplus(el(4, 1))
    with pytest.raises(MismatchedChainError):
        el(3, 1).distance(el(5, 1))


def test_order_and_numerator_validation():
    with pytest.raises(ValueError):
        Chain(1)
    with pytest.raises(ValueError):
        Chain(4).element(4)
    with pytest.raises(ValueError):
        Chain(4).element(-1)


@given(st.integers(2, 50), st.data())
def test_oplus_matches_truncated_rational_addition(order, data):
    a = data.draw(st.integers(0, order - 1))
    b = data.draw(st.integers(0, order - 1))
    x, y = el(order, a), el(order, b)
    assert x.oplus(y).value == min(x.value + y.value, Fraction(1))


@given(st.integers(2, 50), st.data())
def test_odot_matches_clipped_rational(order, data):
    a = data.draw(st.integers(0, order - 1))
    b = data.draw(st.integers(0, order - 1))
    x, y = el(order, a), el(order, b)
    assert x.odot(y).value == max(x.value + y.value - 1, Fraction(0))
