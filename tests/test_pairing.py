"""Pairing tests: bilinearity, non-degeneracy, Frobenius, multi-pairing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CurveError
from repro.pairing.bn import bn254, toy_curve
from repro.pairing.naive import (
    final_exponentiation_naive,
    miller_loop_naive,
    pairing_naive,
)
from repro.pairing.pairing import (
    final_exponentiation,
    is_valid_codh_tuple,
    miller_loop,
    multi_pairing,
    pairing,
    twist_frobenius,
)

CURVE = toy_curve(32)
E = pairing(CURVE, CURVE.g1, CURVE.g2)

scalars = st.integers(min_value=1, max_value=CURVE.n - 1)


class TestBilinearity:
    def test_non_degenerate(self):
        assert not E.is_one()

    def test_order_n(self):
        assert (E ** CURVE.n).is_one()

    @given(scalars, scalars)
    @settings(max_examples=15, deadline=None)
    def test_bilinear(self, a, b):
        lhs = pairing(CURVE, CURVE.g1 * a, CURVE.g2 * b)
        assert lhs == E ** ((a * b) % CURVE.n)

    def test_left_right_symmetry(self):
        a = 987654321 % CURVE.n
        assert pairing(CURVE, CURVE.g1 * a, CURVE.g2) == pairing(
            CURVE, CURVE.g1, CURVE.g2 * a
        )

    def test_additivity_left(self):
        p1, p2 = CURVE.g1 * 11, CURVE.g1 * 222
        lhs = pairing(CURVE, p1 + p2, CURVE.g2)
        assert lhs == pairing(CURVE, p1, CURVE.g2) * pairing(CURVE, p2, CURVE.g2)

    def test_additivity_right(self):
        q1, q2 = CURVE.g2 * 13, CURVE.g2 * 444
        lhs = pairing(CURVE, CURVE.g1, q1 + q2)
        assert lhs == pairing(CURVE, CURVE.g1, q1) * pairing(CURVE, CURVE.g1, q2)

    def test_negation(self):
        assert pairing(CURVE, -CURVE.g1, CURVE.g2) == E.inverse()

    def test_infinity_arguments(self):
        inf1 = CURVE.g1_curve.infinity()
        inf2 = CURVE.g2_curve.infinity()
        assert pairing(CURVE, inf1, CURVE.g2).is_one()
        assert pairing(CURVE, CURVE.g1, inf2).is_one()

    def test_membership_check(self):
        with pytest.raises(CurveError):
            pairing(CURVE, CURVE.g2, CURVE.g2, check_membership=True)

    def test_miller_loop_needs_final_exponentiation(self):
        raw = miller_loop(CURVE, CURVE.g1, CURVE.g2)
        assert final_exponentiation(CURVE, raw) == E


class TestFrobenius:
    def test_eigenvalue_is_p(self):
        pi = twist_frobenius(CURVE, CURVE.g2)
        assert pi == CURVE.g2 * (CURVE.p % CURVE.n)

    def test_twelfth_power_is_identity(self):
        point = CURVE.g2 * 7
        current = point
        for _ in range(12):
            current = twist_frobenius(CURVE, current)
        assert current == point

    def test_infinity(self):
        inf = CURVE.g2_curve.infinity()
        assert twist_frobenius(CURVE, inf).is_infinity()


class TestCoDHTuple:
    def test_valid_tuple(self):
        s = 31337 % CURVE.n
        base = CURVE.g1
        target = CURVE.g2 * 99
        # e(s*base, target/s') with matching exponents
        c = 4242
        left = base * (s * c % CURVE.n)
        right = CURVE.g2 * (99 * pow(c, -1, CURVE.n) % CURVE.n)
        assert is_valid_codh_tuple(CURVE, base * s, left, right, target)

    def test_invalid_tuple(self):
        assert not is_valid_codh_tuple(
            CURVE, CURVE.g1, CURVE.g1 * 2, CURVE.g2 * 3, CURVE.g2 * 7
        )


class TestNaiveAgreement:
    """The optimised pipeline is value-identical to the affine reference."""

    def test_pairing_matches_naive_on_generators(self):
        assert pairing(CURVE, CURVE.g1, CURVE.g2) == pairing_naive(
            CURVE, CURVE.g1, CURVE.g2
        )

    @given(scalars, scalars)
    @settings(max_examples=10, deadline=None)
    def test_pairing_matches_naive_randomized(self, a, b):
        p_point, q_point = CURVE.g1 * a, CURVE.g2 * b
        assert pairing(CURVE, p_point, q_point) == pairing_naive(
            CURVE, p_point, q_point
        )

    @given(scalars)
    @settings(max_examples=10, deadline=None)
    def test_final_exponentiation_matches_naive(self, a):
        raw = miller_loop(CURVE, CURVE.g1 * a, CURVE.g2)
        assert final_exponentiation(CURVE, raw) == final_exponentiation_naive(
            CURVE, raw
        )

    def test_projective_and_affine_miller_agree_after_final_exp(self):
        # Raw Miller values differ by the projective line scalings, which
        # live in subfields and are erased by the easy part of the final
        # exponentiation — so only the exponentiated values are comparable.
        p_point, q_point = CURVE.g1 * 17, CURVE.g2 * 29
        fast = final_exponentiation(CURVE, miller_loop(CURVE, p_point, q_point))
        slow = final_exponentiation(
            CURVE, miller_loop_naive(CURVE, p_point, q_point)
        )
        assert fast == slow

    def test_second_toy_curve(self):
        curve = toy_curve(48)
        assert pairing(curve, curve.g1, curve.g2) == pairing_naive(
            curve, curve.g1, curve.g2
        )


class TestMultiPairing:
    """prod e(P_i, Q_i) under one shared final exponentiation."""

    def test_empty_product_is_one(self):
        assert multi_pairing(CURVE, []).is_one()

    def test_single_pair_matches_pairing(self):
        assert multi_pairing(CURVE, [(CURVE.g1, CURVE.g2)]) == E

    @given(scalars, scalars, scalars)
    @settings(max_examples=10, deadline=None)
    def test_matches_product_of_pairings(self, a, b, c):
        pairs = [
            (CURVE.g1 * a, CURVE.g2),
            (CURVE.g1 * b, CURVE.g2 * c),
            (-CURVE.g1, CURVE.g2 * a),
        ]
        product = CURVE.spec.fp12_one()
        for p_point, q_point in pairs:
            product = product * pairing(CURVE, p_point, q_point)
        assert multi_pairing(CURVE, pairs) == product

    def test_inverse_pair_cancels(self):
        pairs = [(CURVE.g1 * 5, CURVE.g2 * 7), (-(CURVE.g1 * 5), CURVE.g2 * 7)]
        assert multi_pairing(CURVE, pairs).is_one()

    def test_infinity_pairs_are_neutral(self):
        pairs = [
            (CURVE.g1_curve.infinity(), CURVE.g2),
            (CURVE.g1, CURVE.g2),
        ]
        assert multi_pairing(CURVE, pairs) == E

    def test_membership_check(self):
        with pytest.raises(CurveError):
            multi_pairing(
                CURVE, [(CURVE.g2, CURVE.g2)], check_membership=True
            )


@pytest.mark.slow
class TestBN254Pairing:
    def test_bilinearity_once(self):
        curve = bn254()
        e = pairing(curve, curve.g1, curve.g2)
        assert not e.is_one()
        a = 1234567
        assert pairing(curve, curve.g1 * a, curve.g2) == e ** a
