"""Scheme-level accounting for the shared-final-exponentiation paths.

The optimised pairing core routes every product-of-pairings check through
:func:`repro.pairing.pairing.multi_pairing` or the Miller-cached co-DH
check.  These tests pin the *executed* work — Miller loops and final
exponentiations measured by the field-op tally — for the cold and warm
verify paths of each scheme, which is what the paper's Table 1 claims are
actually about.
"""

import random

import pytest

from repro import obs
from repro.core.batch import McCLSBatchVerifier
from repro.core.mccls import McCLS
from repro.pairing.bn import toy_curve
from repro.pairing.groups import PairingContext
from repro.pairing.pairing import final_exponentiation
from repro.schemes.ibs import ChaCheonIBS
from repro.schemes.zwxf import ZWXFScheme


@pytest.fixture()
def fresh_ctx(curve48):
    return PairingContext(curve48, random.Random(0xA11CE))


class TestMcCLSColdWarm:
    def test_cold_verify_runs_two_millers_one_final_exp(self, fresh_ctx):
        scheme = McCLS(fresh_ctx)
        keys = scheme.generate_user_keys("node-1")
        sig = scheme.sign(b"m", keys)
        with obs.collecting() as registry:
            assert scheme.verify(b"m", sig, keys.identity, keys.public_key)
        # Cold: both Miller loops share exactly ONE final exponentiation.
        assert registry.field_ops.pairings == 2
        assert registry.field_ops.miller_loops == 2
        assert registry.field_ops.final_exps == 1

    def test_warm_verify_runs_one_miller_one_final_exp(self, fresh_ctx):
        scheme = McCLS(fresh_ctx)
        keys = scheme.generate_user_keys("node-1")
        sig = scheme.sign(b"m", keys)
        assert scheme.verify(b"m", sig, keys.identity, keys.public_key)
        with obs.collecting() as registry:
            assert scheme.verify(b"m", sig, keys.identity, keys.public_key)
        assert registry.field_ops.pairings == 1
        assert registry.field_ops.miller_loops == 1
        assert registry.field_ops.final_exps == 1

    def test_cold_verify_fills_the_miller_cache(self, fresh_ctx):
        scheme = McCLS(fresh_ctx)
        keys = scheme.generate_user_keys("node-1")
        sig = scheme.sign(b"m", keys)
        assert not fresh_ctx._miller_cache
        assert scheme.verify(b"m", sig, keys.identity, keys.public_key)
        assert len(fresh_ctx._miller_cache) == 1

    def test_pair_cached_warms_the_codh_path(self, fresh_ctx):
        scheme = McCLS(fresh_ctx)
        keys = scheme.generate_user_keys("node-1")
        sig = scheme.sign(b"m", keys)
        fresh_ctx.pair_cached(scheme.p_pub_g1, scheme.q_of(keys.identity))
        with obs.collecting() as registry:
            assert scheme.verify(b"m", sig, keys.identity, keys.public_key)
        assert registry.field_ops.pairings == 1
        assert registry.field_ops.miller_loops == 1


class TestConjugatedConstant:
    """The Miller cache holds conj(f) for e(P, Q): exact as f^-1 under the
    final exponentiation, so cached and cold verdicts cannot differ."""

    def test_cached_conjugate_cancels_the_gt_value(self, fresh_ctx):
        ctx = fresh_ctx
        p_point, q_point = ctx.g1 * 5, ctx.g2 * 3
        value = ctx.pair_cached(p_point, q_point)
        (key,) = list(ctx._miller_cache)
        cached = ctx._miller_cache.get(key)
        assert not value.is_one()
        assert (final_exponentiation(ctx.curve, cached) * value).is_one()

    def test_warm_and_cold_codh_verdicts_agree(self, fresh_ctx, curve48):
        warm = fresh_ctx
        base, target, right = warm.g1 * 5, warm.g2 * 3, warm.g2
        warm.pair_cached(base, target)
        # e(15*g1, g2) == e(5*g1, 3*g2); e(16*g1, g2) is not.
        for scalar, expected in ((15, True), (16, False)):
            left = warm.g1 * scalar
            cold = PairingContext(curve48, random.Random(1))
            with obs.collecting() as registry:
                verdict = warm.codh_check_cached(left, right, base, target)
            assert verdict is expected
            assert registry.field_ops.miller_loops == 1
            with obs.collecting() as registry:
                verdict = cold.codh_check_cached(left, right, base, target)
            assert verdict is expected
            assert registry.field_ops.miller_loops == 2
            assert registry.field_ops.final_exps == 1


class TestZWXFWarm:
    def test_warm_verify_runs_three_millers_one_final_exp(self, fresh_ctx):
        scheme = ZWXFScheme(fresh_ctx)
        keys = scheme.generate_user_keys("node-2")
        sig = scheme.sign(b"m", keys)
        assert scheme.verify(b"m", sig, keys.identity, keys.public_key)
        with obs.collecting() as registry:
            assert scheme.verify(b"m", sig, keys.identity, keys.public_key)
        # The three non-constant pairings share one final exponentiation;
        # the constant e(P_pub, Q_ID) is a GT-cache hit (zero executed).
        assert registry.field_ops.miller_loops == 3
        assert registry.field_ops.final_exps == 1


class TestIBSMultiPairing:
    def test_verify_shares_one_final_exp(self, fresh_ctx):
        scheme = ChaCheonIBS(fresh_ctx)
        keys = scheme.generate_user_keys("node-3")
        sig = scheme.sign(b"m", keys)
        with obs.collecting() as registry:
            assert scheme.verify(b"m", sig, keys.identity)
        assert registry.field_ops.miller_loops == 2
        assert registry.field_ops.final_exps == 1

    def test_batch_verify_shares_one_final_exp(self, fresh_ctx):
        scheme = ChaCheonIBS(fresh_ctx)
        keys = scheme.generate_user_keys("node-3")
        items = [
            (msg, scheme.sign(msg, keys), keys.identity)
            for msg in (b"a", b"b", b"c")
        ]
        with obs.collecting() as registry:
            assert scheme.batch_verify(items)
        assert registry.field_ops.miller_loops == 2
        assert registry.field_ops.final_exps == 1


class TestBatchVerifier:
    def test_warm_batch_is_one_miller_one_final_exp(self, fresh_ctx):
        scheme = McCLS(fresh_ctx, precompute_s=True)
        keys = scheme.generate_user_keys("node-4")
        verifier = McCLSBatchVerifier(scheme)
        items = verifier.sign_batch([b"x", b"y", b"z"], keys)
        # Any prior single verify warms the shared Miller-value cache.
        assert scheme.verify(b"x", items[0][1], keys.identity, keys.public_key)
        with obs.collecting() as registry:
            assert verifier.verify_same_signer(
                items, keys.identity, keys.public_key
            )
        assert registry.field_ops.pairings == 1
        assert registry.field_ops.miller_loops == 1
        assert registry.field_ops.final_exps == 1

    def test_cold_batch_is_two_millers_one_final_exp(self, fresh_ctx):
        scheme = McCLS(fresh_ctx, precompute_s=True)
        keys = scheme.generate_user_keys("node-4")
        verifier = McCLSBatchVerifier(scheme)
        items = verifier.sign_batch([b"x", b"y"], keys)
        with obs.collecting() as registry:
            assert verifier.verify_same_signer(
                items, keys.identity, keys.public_key
            )
        assert registry.field_ops.miller_loops == 2
        assert registry.field_ops.final_exps == 1


class TestCounters:
    def test_multi_pairing_counter_increments(self, fresh_ctx):
        with obs.collecting() as registry:
            fresh_ctx.multi_pair(
                [(fresh_ctx.g1, fresh_ctx.g2), (-fresh_ctx.g1, fresh_ctx.g2)]
            )
        assert registry.counter_value("pairing.multi_pairings") == 1

    def test_sparse_and_cyclo_counters_increment(self):
        curve = toy_curve(32)
        from repro.pairing.pairing import pairing

        with obs.collecting() as registry:
            pairing(curve, curve.g1, curve.g2)
        assert registry.counter_value("pairing.sparse_mults") > 0
        assert registry.counter_value("pairing.cyclo_squares") > 0
