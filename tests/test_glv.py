"""GLV/GLS endomorphism scalar-multiplication tests.

Covers the lattice data itself (eigenvalue identities, decomposition
bounds and recombination), value-identity of every accelerated path
against the generic ladder (including negatives, zeros and infinity),
the context routing guards (unreduced scalars and untrusted G2 points
must stay on the generic path), and comb-table pinning.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.obs.registry import get_registry
from repro.pairing import backends, glv
from repro.pairing.bn import bn254, toy_curve
from repro.pairing.curve import point_key
from repro.pairing.groups import PairingContext
from repro.pairing.pairing import twist_frobenius

CURVE = toy_curve(32)
PARAMS = glv.glv_params(CURVE)


def _native_params():
    ok, reason = backends.get_backend("native").availability()
    marks = [] if ok else [pytest.mark.skip(reason=f"native: {reason}")]
    return [pytest.param("native", marks=marks)]


class TestParams:
    def test_params_exist_for_all_bn_curves(self):
        for curve in (toy_curve(32), toy_curve(48), toy_curve(64), bn254()):
            params = glv.glv_params(curve)
            assert params is not None
            assert params.mu is not None  # BN twists always carry psi

    def test_lambda_is_cube_root_of_unity_mod_n(self):
        lam, n = PARAMS.lam, CURVE.n
        assert lam not in (0, 1)
        assert pow(lam, 3, n) == 1
        assert (lam * lam + lam + 1) % n == 0

    def test_beta_is_cube_root_of_unity_mod_p(self):
        beta, p = PARAMS.beta, CURVE.p
        assert beta not in (0, 1)
        assert pow(beta, 3, p) == 1

    def test_phi_acts_as_lambda_on_g1(self):
        g1 = CURVE.g1
        phi = CURVE.g1_curve.unsafe_point(
            CURVE.spec.fp((int(g1.x.value) * PARAMS.beta) % CURVE.p), g1.y
        )
        assert g1 * PARAMS.lam == phi

    def test_psi_acts_as_mu_on_g2(self):
        assert twist_frobenius(CURVE, CURVE.g2) == CURVE.g2 * PARAMS.mu

    def test_mu_satisfies_cyclotomic_relation(self):
        mu, n = PARAMS.mu, CURVE.n
        assert (pow(mu, 4, n) - pow(mu, 2, n) + 1) % n == 0

    def test_basis_vectors_lie_in_the_lattice(self):
        lam, n = PARAMS.lam, CURVE.n
        for a, b in (PARAMS.v1, PARAMS.v2):
            assert (a + b * lam) % n == 0

    def test_params_cache_is_per_curve(self):
        assert glv.glv_params(toy_curve(32)) is PARAMS
        assert glv.glv_params(toy_curve(48)) is not PARAMS


class TestDecompose:
    def test_recombination_and_bounds_2way(self):
        n = CURVE.n
        bound = 1 << (n.bit_length() // 2 + 3)
        rng = random.Random(0x61F1)
        for _ in range(40):
            k = rng.randrange(1, n)
            k1, k2 = glv.decompose2(PARAMS, k)
            assert (k1 + k2 * PARAMS.lam) % n == k % n
            assert abs(k1) < bound and abs(k2) < bound

    def test_recombination_2way_g2(self):
        n = CURVE.n
        rng = random.Random(0x61F2)
        for _ in range(20):
            k = rng.randrange(1, n)
            k1, k2 = glv.decompose2_g2(PARAMS, k)
            assert (k1 + k2 * PARAMS.mu) % n == k % n

    def test_recombination_and_bounds_4way(self):
        params = glv.glv_params(bn254())
        if params.basis4 is None:
            pytest.skip("4-way basis rejected for this curve")
        n, mu = params.n, params.mu
        bound = 1 << ((n.bit_length() + 3) // 4 + 9)
        rng = random.Random(0x61F4)
        for _ in range(20):
            k = rng.randrange(1, n)
            split = glv.decompose4(params, k)
            assert split is not None
            acc, power = 0, 1
            for ki in split:
                assert abs(ki) < bound
                acc = (acc + ki * power) % n
                power = (power * mu) % n
            assert acc == k % n

    def test_edge_scalars(self):
        for k in (1, 2, CURVE.n - 1, CURVE.n // 2):
            k1, k2 = glv.decompose2(PARAMS, k)
            assert (k1 + k2 * PARAMS.lam) % CURVE.n == k % CURVE.n


class TestValueIdentity:
    def test_glv_mul_matches_ladder(self):
        rng = random.Random(0x91E1)
        point = CURVE.g1 * 7
        for _ in range(25):
            k = rng.randrange(1, CURVE.n)
            assert glv.glv_mul(CURVE, point, k) == point * k

    def test_glv_mul_reduces_mod_n(self):
        point = CURVE.g1 * 5
        k = CURVE.n + 12345
        assert glv.glv_mul(CURVE, point, k) == point * (k % CURVE.n)

    def test_glv_mul_zero_and_infinity(self):
        point = CURVE.g1 * 3
        assert glv.glv_mul(CURVE, point, 0).is_infinity()
        inf = CURVE.g1_curve.infinity()
        assert glv.glv_mul(CURVE, inf, 17).is_infinity()

    def test_glv_mul_g2_matches_ladder(self):
        rng = random.Random(0x91E2)
        point = CURVE.g2 * 11  # generator multiple: in the order-n subgroup
        for _ in range(15):
            k = rng.randrange(1, CURVE.n)
            assert glv.glv_mul_g2(CURVE, point, k) == point * k

    def test_msm_matches_folded_sums(self):
        rng = random.Random(0x91E3)
        points = [CURVE.g1 * rng.randrange(1, CURVE.n) for _ in range(5)]
        scalars = [rng.randrange(-CURVE.n, CURVE.n) for _ in range(5)]
        scalars[2] = 0
        points[3] = CURVE.g1_curve.infinity()
        expected = CURVE.g1_curve.infinity()
        for pt, k in zip(points, scalars):
            expected = expected + pt * (k % CURVE.n)
        got = glv.msm(CURVE, CURVE.g1_curve, list(zip(points, scalars)))
        assert got == expected

    def test_msm_empty_and_all_zero(self):
        assert glv.msm(CURVE, CURVE.g1_curve, []).is_infinity()
        assert glv.msm(
            CURVE, CURVE.g1_curve, [(CURVE.g1, 0)]
        ).is_infinity()

    def test_msm_rejects_non_int_scalars(self):
        with pytest.raises(TypeError):
            glv.msm(CURVE, CURVE.g1_curve, [(CURVE.g1, 1.5)])


class TestRoutingGuards:
    def test_try_mul_declines_short_and_out_of_range_scalars(self):
        point = CURVE.g1 * 9
        assert glv.try_mul(CURVE, point, 3) is None  # below GLV_MIN_BITS
        assert glv.try_mul(CURVE, point, 0) is None
        assert glv.try_mul(CURVE, point, -5) is None
        assert glv.try_mul(CURVE, point, CURVE.n) is None  # unreduced
        assert glv.try_mul(CURVE, point, "7") is None

    def test_try_mul_declines_infinity_and_wrong_field(self):
        assert glv.try_mul(CURVE, CURVE.g1_curve.infinity(), 1 << 40) is None
        # a G2 point through the G1 path (and vice versa) must decline
        assert glv.try_mul(CURVE, CURVE.g2, 1 << 40) is None
        assert glv.try_mul(CURVE, CURVE.g1, 1 << 40, g2=True) is None

    def test_try_mul_counts_fast_mults(self):
        curve = toy_curve(64)  # toy32 scalars are too short for GLV routing
        with obs.collecting() as registry:
            out = glv.try_mul(curve, curve.g1 * 3, (1 << 40) + 7)
        assert out is not None
        assert registry.counter("glv.fast_mults").value >= 1

    def test_context_g2_requires_subgroup_opt_in(self):
        """Untrusted G2 points keep generic semantics: no GLV routing."""
        curve = toy_curve(64)
        ctx = PairingContext(curve, random.Random(1))
        point = curve.g2 * 9  # NOT the pinned generator: no comb shortcut
        k = (1 << 40) + 9
        with obs.collecting() as registry:
            ctx.g2_mul(point, k)
            off_path = registry.counter("glv.fast_mults").value
            ctx.g2_mul(point, k, in_subgroup=True)
            on_path = registry.counter("glv.fast_mults").value
        assert off_path == 0
        assert on_path == 1

    def test_membership_checks_unaffected(self):
        """order-n multiplication of a subgroup point is still infinity via
        the generic path (scalar == n is out of GLV range by design)."""
        assert (CURVE.g1 * CURVE.n).is_infinity()
        assert glv.try_mul(CURVE, CURVE.g1, CURVE.n) is None


@pytest.mark.parametrize("backend_name", _native_params())
class TestKernelIdentity:
    def test_kernel_msm_bit_identical_and_count_identical(self, backend_name):
        rng = random.Random(0xC0DE)
        ref = toy_curve(48)
        nat = toy_curve(48, backend=backend_name)
        assert nat.spec.backend.pairing_kernel(nat) is not None
        k = rng.randrange(1 << 40, ref.n)
        for ref_pt, nat_pt, fn in (
            (ref.g1 * 7, nat.g1 * 7, glv.glv_mul),
            (ref.g2 * 7, nat.g2 * 7, glv.glv_mul_g2),
        ):
            with obs.collecting() as reg_ref:
                expected = fn(ref, ref_pt, k)
            with obs.collecting() as reg_nat:
                got = fn(nat, nat_pt, k)
            assert point_key(got) == point_key(expected)
            assert reg_ref.field_ops.fp_mul == reg_nat.field_ops.fp_mul

    def test_kernel_msm_negative_scalars(self, backend_name):
        nat = toy_curve(48, backend=backend_name)
        rng = random.Random(0xC0DF)
        pts = [nat.g1 * rng.randrange(1, nat.n) for _ in range(4)]
        ks = [rng.randrange(1, nat.n) * s for s in (1, -1, 1, -1)]
        expected = nat.g1_curve.infinity()
        for pt, k in zip(pts, ks):
            expected = expected + pt * (k % nat.n)
        assert glv.msm(nat, nat.g1_curve, list(zip(pts, ks))) == expected


class TestPinning:
    def test_generator_and_p_pub_tables_are_pinned(self):
        from repro.core.mccls import McCLS

        scheme = McCLS(PairingContext(CURVE, random.Random(4)))
        ctx = scheme.ctx
        for base in (ctx.g1, ctx.g2, scheme.p_pub_g1, scheme.p_pub_g2):
            assert point_key(base) in ctx._pinned_bases

    def test_cache_stats_reports_pinned_and_evictable(self):
        from repro.core.mccls import McCLS

        scheme = McCLS(PairingContext(CURVE, random.Random(4)))
        stats = scheme.ctx.cache_stats()["fixed_bases"]
        assert stats["pinned"] >= 4
        assert stats["evictable"] == stats["size"]

    def test_pinned_tables_survive_identity_churn(self):
        from repro.core.mccls import McCLS

        scheme = McCLS(PairingContext(CURVE, random.Random(4)))
        ctx = scheme.ctx
        maxsize = ctx._fixed_bases.stats()["maxsize"]
        for i in range(maxsize + 8):
            keys = scheme.generate_user_keys(f"churn-{i}@test")
            scheme.verify(b"m", scheme.sign(b"m", keys), keys.identity,
                          keys.public_key)
        assert point_key(scheme.p_pub_g1) in ctx._pinned_bases
        assert point_key(ctx.g1) in ctx._pinned_bases

    def test_drop_fixed_base_unpins(self):
        ctx = PairingContext(CURVE, random.Random(4))
        point = CURVE.g1 * 123
        ctx.fixed_base(point, pin=True)
        assert point_key(point) in ctx._pinned_bases
        ctx.drop_fixed_base(point)
        assert point_key(point) not in ctx._pinned_bases
