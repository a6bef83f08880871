"""Scalar-multiplication and cache-keying tests: wNAF, point keys.

The windowed-NAF path must agree bit-for-bit with the plain affine
double-and-add ladder on every curve - a wrong multiple would make
signatures verify against the wrong keys, silently.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pairing.bn import bn254, toy_curve
from repro.pairing.curve import _wnaf_digits, _wnaf_scalar_mult, point_key
from repro.pairing.groups import PairingContext

CURVE = toy_curve(32)
BN254 = bn254()


def affine_mult(point, k):
    result = point.curve.infinity()
    addend = point
    while k:
        if k & 1:
            result = result + addend
        addend = addend.double()
        k >>= 1
    return result


class TestWnafDigits:
    @given(st.integers(min_value=1, max_value=2**96), st.integers(2, 8))
    @settings(max_examples=60)
    def test_digits_reconstruct_scalar(self, scalar, width):
        digits = _wnaf_digits(scalar, width)
        assert sum(d << i for i, d in enumerate(digits)) == scalar

    @given(st.integers(min_value=1, max_value=2**96), st.integers(2, 8))
    @settings(max_examples=60)
    def test_digits_are_zero_or_odd_and_bounded(self, scalar, width):
        half = 1 << (width - 1)
        for digit in _wnaf_digits(scalar, width):
            assert digit == 0 or (digit % 2 == 1 and abs(digit) < half)


class TestWnafMult:
    @given(st.integers(min_value=2**64, max_value=2**96))
    @settings(max_examples=30)
    def test_matches_affine_g1(self, k):
        assert CURVE.g1 * k == affine_mult(CURVE.g1, k)

    @given(st.integers(min_value=2**64, max_value=2**96))
    @settings(max_examples=10)
    def test_matches_affine_g2(self, k):
        assert CURVE.g2 * k == affine_mult(CURVE.g2, k)

    def test_explicit_call_small_scalars(self):
        # _wnaf_scalar_mult itself must be correct below the __mul__
        # dispatch threshold too.
        for k in (1, 2, 3, 7, 8, 255, CURVE.n - 1, CURVE.n + 5):
            assert _wnaf_scalar_mult(CURVE.g1, k) == affine_mult(CURVE.g1, k)

    def test_order_multiple_is_infinity(self):
        big = CURVE.n << 70  # forces the wNAF path, cancels to infinity
        assert (CURVE.g1 * big).is_infinity()

    @pytest.mark.slow
    def test_bn254_matches_ladder(self):
        rng = random.Random(7)
        for k in (rng.randrange(1, BN254.n) for _ in range(3)):
            assert BN254.g1 * k == affine_mult(BN254.g1, k)


class TestPointKey:
    def test_equal_points_from_different_routes_share_a_key(self):
        a = CURVE.g1 * 6
        b = (CURVE.g1 * 2) + (CURVE.g1 * 4)
        assert a == b
        assert point_key(a) == point_key(b)

    def test_distinct_points_differ(self):
        assert point_key(CURVE.g1 * 2) != point_key(CURVE.g1 * 3)

    def test_infinity_key(self):
        assert point_key(CURVE.g1_curve.infinity()) == ("inf",)

    def test_g2_key_is_hashable(self):
        assert {point_key(CURVE.g2 * 5): 1}


class TestPairCacheKeying:
    def test_equal_points_hit_one_cache_entry(self):
        ctx = PairingContext(CURVE, random.Random(4))
        p_a = CURVE.g1 * 6
        p_b = (CURVE.g1 * 2) + (CURVE.g1 * 4)  # same element, new object
        q = CURVE.g2 * 3
        first = ctx.pair_cached(p_a, q)
        second = ctx.pair_cached(p_b, q)
        assert first == second
        assert ctx.ops.pairings == 1
        assert ctx.ops.cached_pairing_hits == 1
        assert len(ctx._pairing_cache) == 1

    def test_distinct_points_miss(self):
        ctx = PairingContext(CURVE, random.Random(4))
        ctx.pair_cached(CURVE.g1 * 2, CURVE.g2)
        ctx.pair_cached(CURVE.g1 * 3, CURVE.g2)
        assert ctx.ops.pairings == 2
        assert ctx.ops.cached_pairing_hits == 0
