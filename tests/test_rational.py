"""Canonical form and field behavior of the rational foundation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distribq.rational import DomainError, gcd, make


def test_make_moves_sign_to_numerator():
    q = make(2, -4)
    assert (q.numerator, q.denominator) == (-1, 2)


def test_make_normalizes_zero():
    q = make(0, 7)
    assert (q.numerator, q.denominator) == (0, 1)


def test_make_reduces_by_gcd():
    q = make(6, 4)
    assert (q.numerator, q.denominator) == (3, 2)


def test_make_rejects_zero_denominator():
    with pytest.raises(DomainError):
        make(1, 0)


def test_gcd_examples():
    assert gcd(12, 18) == 6
    assert gcd(3, 2) == 1
    assert gcd(0, 5) == 5
    assert gcd(0, 0) == 0


@given(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=-20, max_value=20).filter(lambda k: k != 0),
)
def test_make_is_scale_invariant(a, b, k):
    assert make(a * k, b * k) == make(a, b)
