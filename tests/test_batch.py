"""McCLS same-signer and cross-signer batch-verification tests."""

import dataclasses
import random

import pytest

from repro.core.batch import McCLSBatchVerifier
from repro.core.mccls import McCLS
from repro.pairing.bn import toy_curve
from repro.pairing.groups import PairingContext

CURVE = toy_curve(32)


@pytest.fixture()
def setup():
    scheme = McCLS(PairingContext(CURVE, random.Random(8)), precompute_s=True)
    keys = scheme.generate_user_keys("batch@manet")
    return scheme, keys, McCLSBatchVerifier(scheme)


class TestBatch:
    def test_valid_batch(self, setup):
        scheme, keys, verifier = setup
        items = verifier.sign_batch([f"m{i}".encode() for i in range(7)], keys)
        assert verifier.verify_same_signer(items, keys.identity, keys.public_key)

    def test_empty_batch(self, setup):
        _, keys, verifier = setup
        assert verifier.verify_same_signer([], keys.identity, keys.public_key)

    def test_single_item(self, setup):
        scheme, keys, verifier = setup
        items = verifier.sign_batch([b"solo"], keys)
        assert verifier.verify_same_signer(items, keys.identity, keys.public_key)

    def test_forged_message_rejected(self, setup):
        scheme, keys, verifier = setup
        items = list(verifier.sign_batch([b"a", b"b", b"c"], keys))
        items[1] = (b"FORGED", items[1][1])
        assert not verifier.verify_same_signer(
            items, keys.identity, keys.public_key
        )

    def test_tampered_v_rejected(self, setup):
        scheme, keys, verifier = setup
        items = list(verifier.sign_batch([b"a", b"b"], keys))
        message, sig = items[0]
        items[0] = (message, dataclasses.replace(sig, v=(sig.v + 1) % CURVE.n))
        assert not verifier.verify_same_signer(
            items, keys.identity, keys.public_key
        )

    def test_swap_attack_rejected(self, setup):
        """Swapping (V, R) pairs between two signatures must not cancel out."""
        scheme, keys, verifier = setup
        (ma, sa), (mb, sb) = verifier.sign_batch([b"ma", b"mb"], keys)
        swapped = [
            (ma, dataclasses.replace(sa, v=sb.v, r=sb.r)),
            (mb, dataclasses.replace(sb, v=sa.v, r=sa.r)),
        ]
        assert not verifier.verify_same_signer(
            swapped, keys.identity, keys.public_key
        )

    def test_one_pairing_per_batch(self, setup):
        scheme, keys, verifier = setup
        items = verifier.sign_batch([f"m{i}".encode() for i in range(9)], keys)
        scheme.ctx.pair_cached(scheme.p_pub_g1, scheme.q_of(keys.identity))
        with scheme.ctx.measure() as meter:
            assert verifier.verify_same_signer(
                items, keys.identity, keys.public_key
            )
        assert meter.delta.pairings == 1

    def test_mixed_s_falls_back_to_per_item(self, setup):
        """Two different signers' signatures (different S) are still judged
        correctly by the per-item fallback path."""
        scheme, keys, verifier = setup
        other = scheme.generate_user_keys("other@manet")
        items = [
            (b"mine", scheme.sign(b"mine", keys)),
            (b"theirs", scheme.sign(b"theirs", other)),
        ]
        # Claimed signer is `keys`: the second item cannot verify under it.
        assert not verifier.verify_same_signer(
            items, keys.identity, keys.public_key
        )

    def test_mixed_s_all_valid_single_signer(self, setup):
        """precompute_s=False produces the same S anyway (it is derived),
        so craft a synthetic mixed-S batch where both verify individually."""
        scheme, keys, verifier = setup
        sig1 = scheme.sign(b"x", keys)
        sig2 = scheme.sign(b"y", keys)
        assert sig1.s == sig2.s  # derived deterministically from (x, D_ID)

    def test_weights_summing_to_zero_mod_n_answer_exactly(self, setup):
        """On a curve with n < 2^64 the weight sum can vanish mod n; there
        is no w^-1 to move into G1, so the batch is verified per item."""
        scheme, keys, verifier = setup
        valid = verifier.sign_batch([b"a", b"b"], keys)
        forged = [valid[0], (b"FORGED", valid[1][1])]
        for items, expected in ((valid, True), (forged, False)):
            weights = iter([CURVE.n - 1, 1])
            scheme.ctx.batch_randrange = lambda start, stop: next(weights)
            assert verifier.verify_same_signer(
                items, keys.identity, keys.public_key
            ) is expected

    def test_s_infinity_rejected(self, setup):
        scheme, keys, verifier = setup
        items = list(verifier.sign_batch([b"a"], keys))
        message, sig = items[0]
        items[0] = (
            message,
            dataclasses.replace(sig, s=CURVE.g2_curve.infinity()),
        )
        assert not verifier.verify_same_signer(
            items, keys.identity, keys.public_key
        )


def _valid(scheme, keys, verifier):
    return verifier.sign_batch([f"m{i}".encode() for i in range(5)], keys)


def _flip_bit(scheme, keys, verifier):
    items = list(verifier.sign_batch([b"a", b"b", b"c"], keys))
    message, sig = items[1]
    items[1] = (message, dataclasses.replace(sig, v=sig.v ^ 1))
    return items


def _cancelling(scheme, keys, verifier):
    from repro.core.games import forge_cancelling_pair

    honest = verifier.sign_batch([b"honest"], keys)
    return honest + forge_cancelling_pair(scheme, keys, random.Random(0xDEAD))


def _mixed_s(scheme, keys, verifier):
    other = scheme.generate_user_keys("other@manet")
    return [(b"mine", scheme.sign(b"mine", keys)), (b"x", scheme.sign(b"x", other))]


@pytest.mark.parametrize(
    "build, valid",
    [(_valid, True), (_flip_bit, False), (_cancelling, False), (_mixed_s, False)],
    ids=["valid", "bit-flipped", "cancelling-pair", "mixed-s"],
)
def test_same_signer_verdict_matches_per_item_verify(setup, build, valid):
    """The G1-weighted fold answers exactly what per-item verify answers."""
    scheme, keys, verifier = setup
    items = build(scheme, keys, verifier)
    scheme.ctx.clear_pairing_cache()
    cold = verifier.verify_same_signer(items, keys.identity, keys.public_key)
    expected = all(
        scheme.verify(msg, sig, keys.identity, keys.public_key)
        for msg, sig in items
    )
    warm = verifier.verify_same_signer(items, keys.identity, keys.public_key)
    assert cold is warm is expected is valid


def _cross_items(scheme, signers, count, tag="m"):
    items = []
    for j in range(count):
        keys = signers[j % len(signers)]
        msg = f"{tag}-{j}".encode()
        items.append(
            (msg, scheme.sign(msg, keys), keys.identity, keys.public_key)
        )
    return items


class TestCrossSigner:
    def test_all_valid_mixed_window(self, setup):
        scheme, _, verifier = setup
        signers = [scheme.generate_user_keys(f"s{i}@x") for i in range(5)]
        verdicts, stats = verifier.verify_cross_signer(
            _cross_items(scheme, signers, 20)
        )
        assert verdicts == [True] * 20
        assert stats["admitted_signers"] == 5
        assert stats["admission_pairings"] >= 1

    def test_subgroup_check_runs_once_per_new_signer(self, setup, monkeypatch):
        scheme, _, verifier = setup
        signers = [scheme.generate_user_keys(f"g{i}@x") for i in range(3)]
        calls = []
        curve_type = type(scheme.ctx.curve)
        in_g2 = curve_type.in_g2
        monkeypatch.setattr(
            curve_type, "in_g2",
            lambda curve, point: calls.append(point) or in_g2(curve, point),
        )
        verdicts, stats = verifier.verify_cross_signer(
            _cross_items(scheme, signers, 24)
        )
        assert verdicts == [True] * 24
        assert stats["admitted_signers"] == 3
        assert len(calls) == 3  # one order-n check per signer, not per item

    def test_empty_window(self, setup):
        _, _, verifier = setup
        verdicts, stats = verifier.verify_cross_signer([])
        assert verdicts == [] and stats["folds"] == 0

    def test_steady_state_is_pairing_free(self, setup):
        scheme, _, verifier = setup
        signers = [scheme.generate_user_keys(f"w{i}@x") for i in range(4)]
        verifier.verify_cross_signer(_cross_items(scheme, signers, 4, "warm"))
        with scheme.ctx.measure() as meter:
            verdicts, stats = verifier.verify_cross_signer(
                _cross_items(scheme, signers, 16, "steady")
            )
        assert verdicts == [True] * 16
        assert meter.delta.pairings == 0
        assert stats["folds"] == 1 and stats["fold_sizes"] == [16]

    def test_verdicts_match_per_item_verify(self, setup):
        scheme, _, verifier = setup
        signers = [scheme.generate_user_keys(f"v{i}@x") for i in range(3)]
        items = _cross_items(scheme, signers, 9)
        # corrupt two items in different ways
        m, sig, ident, pk = items[2]
        items[2] = (m, dataclasses.replace(sig, v=(sig.v + 1) % CURVE.n), ident, pk)
        m, sig, ident, pk = items[5]
        items[5] = (b"swapped", sig, ident, pk)
        expected = [
            scheme.verify(m, s, i, p) for m, s, i, p in items
        ]
        verdicts, stats = verifier.verify_cross_signer(items)
        assert verdicts == expected
        assert stats["bisections"] >= 1

    def test_structural_rejects_stay_false(self, setup):
        scheme, keys, verifier = setup
        good = scheme.sign(b"ok", keys)
        items = [
            (b"ok", good, keys.identity, keys.public_key),
            (b"bad-v", dataclasses.replace(good, v=0), keys.identity,
             keys.public_key),
            (b"bad-type", "not-a-signature", keys.identity, keys.public_key),
            (b"bad-s", dataclasses.replace(
                good, s=CURVE.g2_curve.infinity()), keys.identity,
             keys.public_key),
        ]
        verdicts, _ = verifier.verify_cross_signer(items)
        assert verdicts == [True, False, False, False]

    def test_anchor_cache_is_key_bound(self, setup):
        """A replaced public key must not match the stale anchor."""
        scheme, _, verifier = setup
        keys = scheme.generate_user_keys("rotate@x")
        msg = b"before rotation"
        verdicts, _ = verifier.verify_cross_signer(
            [(msg, scheme.sign(msg, keys), keys.identity, keys.public_key)]
        )
        assert verdicts == [True]
        # same identity, different public key: the old signature no longer
        # verifies and the fresh admission path must say so
        other = scheme.generate_user_keys("rotate2@x")
        verdicts, stats = verifier.verify_cross_signer(
            [(msg, scheme.sign(msg, keys), keys.identity, other.public_key)]
        )
        assert verdicts == [False]
        assert stats["admitted_signers"] == 0

    def test_single_corruption_located_by_bisection(self, setup):
        _, _, verifier = setup
        from repro.core.games import run_batch_corruption_game

        outcome = run_batch_corruption_game(
            verifier, signer_count=6, batch_size=24,
            rng=random.Random(0xBEEF),
        )
        assert outcome["correct"]
        assert outcome["located"] and outcome["honest_accepted"]
        assert outcome["bisections"] >= 1
        # bisection narrows to few exact checks, not the whole window
        assert outcome["exact_checks"] < 24

    def test_cancelling_pair_attack_rejected(self, setup):
        _, _, verifier = setup
        from repro.core.games import run_cancelling_pair_game

        outcome = run_cancelling_pair_game(
            verifier, trials=3, rng=random.Random(0xDEAD)
        )
        assert outcome["all_rejected"]
        assert outcome["accepted_forgeries"] == 0


class _PoisonedRng(random.Random):
    """Records every randrange draw so tests can prove a stream was unused."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.randrange_calls = 0

    def randrange(self, *args, **kwargs):
        self.randrange_calls += 1
        return super().randrange(*args, **kwargs)


class TestBatchRandomnessSource:
    """Fold weights/deltas must never come from the seeded campaign rng.

    An adversary who knows the campaign seed can replay ``ctx.rng`` and
    predict the 80-bit deltas, then craft a cancelling batch that passes
    the small-exponent test.  The default gateway path therefore draws
    batch randomness from the OS CSPRNG; the seeded stream is only used
    under the explicit ``insecure_deterministic_batch`` opt-in.
    """

    def _signed_window(self, ctx):
        scheme = McCLS(ctx, precompute_s=True)
        verifier = McCLSBatchVerifier(scheme)
        signers = [scheme.generate_user_keys(f"rng{i}@x") for i in range(3)]
        same = verifier.sign_batch([b"a", b"b", b"c"], signers[0])
        cross = _cross_items(scheme, signers, 6)
        return scheme, verifier, signers, same, cross

    def test_default_path_never_touches_seeded_stream(self):
        ctx = PairingContext(CURVE, _PoisonedRng(8))
        scheme, verifier, signers, same, cross = self._signed_window(ctx)
        assert not ctx.insecure_deterministic_batch
        ctx.rng.randrange_calls = 0
        assert verifier.verify_same_signer(
            same, signers[0].identity, signers[0].public_key
        )
        verdicts, _ = verifier.verify_cross_signer(cross)
        assert verdicts == [True] * 6
        # steady-state fold again, still without a seeded draw
        verdicts, _ = verifier.verify_cross_signer(cross)
        assert verdicts == [True] * 6
        assert ctx.rng.randrange_calls == 0

    def test_opt_in_restores_deterministic_draws(self):
        ctx = PairingContext(
            CURVE, _PoisonedRng(8), insecure_deterministic_batch=True
        )
        scheme, verifier, signers, same, cross = self._signed_window(ctx)
        ctx.rng.randrange_calls = 0
        assert verifier.verify_same_signer(
            same, signers[0].identity, signers[0].public_key
        )
        assert ctx.rng.randrange_calls == len(same)
        verdicts, _ = verifier.verify_cross_signer(cross)
        assert verdicts == [True] * 6
        assert ctx.rng.randrange_calls == len(same) + len(cross)

    def test_opt_in_draws_are_replayable(self):
        draws = [
            PairingContext(
                CURVE, random.Random(99), insecure_deterministic_batch=True
            ).batch_randrange(1, 1 << 64)
            for _ in range(2)
        ]
        assert draws[0] == draws[1]
        defaults = {
            PairingContext(CURVE, random.Random(99)).batch_randrange(1, 1 << 64)
            for _ in range(8)
        }
        assert len(defaults) > 1  # vanishingly unlikely to collide
