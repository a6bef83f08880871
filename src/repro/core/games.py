"""Security-game harness for certificateless signatures.

The paper claims (Theorems 1 and 2) existential unforgeability against

* **Type I** adversaries: outsiders who may replace any user's public key
  but never learn partial private keys of the target identity, and
* **Type II** adversaries: a malicious/curious KGC that knows the master
  key s but never learns users' secret values x,

in the random-oracle model under CDH.  This module implements the games as
experiments: a challenger exposing the standard oracles, pluggable
adversaries, and a driver that reports the forgery rate.

Reproduction finding (recorded in EXPERIMENTS.md): the scheme **as
published does not satisfy either theorem**.  The verification equation

    e(V*P - h*R, h^{-1}*S) == e(P_pub, Q_ID)

never ties the signature to any secret: choosing

    R = alpha*P + beta*P_pub,   h = H2(M, R, P_ID),
    V = h*alpha mod n,          S = (-beta^{-1} mod n) * Q_ID

makes the left side e(-h*beta*P_pub, -(h*beta)^{-1}*Q_ID) =
e(P_pub, Q_ID) for ANY message and identity, using public values only.
:class:`UniversalForgeryAttack` implements this and the test suite asserts
that it succeeds - reproducing the scheme faithfully includes reproducing
its flaws.  The same adversary shaped against ZWXF (which carries a real
proof) fails, which the games below also demonstrate.

The generic adversaries (:class:`RandomForgeryAdversary`,
:class:`TamperAdversary`, :class:`TransplantAdversary`,
:class:`KeyReplacementAdversary`) model the attacks the *simulation* part
of the paper relies on - packet tampering and impersonation by nodes that
hold no key material - and those do fail against McCLS, which is what
makes the Figure 4/5 attack-resistance results work.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.mccls import McCLS, McCLSSignature
from repro.pairing.curve import CurvePoint
from repro.pairing.groups import PairingContext
from repro.schemes.base import CertificatelessScheme, UserKeyPair
from repro.schemes.ecls import ECLSScheme, ECLSSignature


@dataclass
class ForgeryAttempt:
    """What an adversary submits at the end of the game."""

    message: bytes
    signature: object
    identity: str
    public_key: CurvePoint
    public_key_extra: Optional[CurvePoint] = None


@dataclass
class GameResult:
    trials: int
    forgeries: int
    attempts: List[bool] = field(default_factory=list)

    @property
    def forgery_rate(self) -> float:
        return self.forgeries / self.trials if self.trials else 0.0


class Challenger:
    """Oracle provider for the EUF-CMA certificateless game.

    Tracks which (identity, message) pairs went through the signing oracle
    so a "forgery" that merely replays an oracle answer is rejected, and
    which partial keys were extracted so Type I restrictions are enforced.
    """

    def __init__(self, scheme: CertificatelessScheme, target_identity: str):
        self.scheme = scheme
        self.target_identity = target_identity
        self.keys: Dict[str, UserKeyPair] = {}
        self.replaced_keys: Dict[str, CurvePoint] = {}
        self.extracted_partials: set = set()
        self.signed_pairs: set = set()
        self._enroll(target_identity)

    def _enroll(self, identity: str) -> UserKeyPair:
        if identity not in self.keys:
            self.keys[identity] = self.scheme.generate_user_keys(identity)
        return self.keys[identity]

    # -- oracles ---------------------------------------------------------------
    def public_key_oracle(self, identity: str) -> CurvePoint:
        """Current public key of an identity (honours replacements)."""
        if identity in self.replaced_keys:
            return self.replaced_keys[identity]
        return self._enroll(identity).public_key

    def public_key_points_oracle(self, identity: str):
        """``(P_ID, extra)`` for two-point schemes (honours replacements).

        ECLS public keys are the pair ``(P_ID, R_ID)``; the second point
        is the KGC's commitment and is not subject to replacement - a
        Type I adversary swaps the user-chosen half only.
        """
        keys = self._enroll(identity)
        return (
            self.replaced_keys.get(identity, keys.public_key),
            getattr(keys, "public_key_extra", None),
        )

    def replace_public_key(self, identity: str, new_key: CurvePoint) -> None:
        """Type I capability: substitute an identity's public key."""
        self._enroll(identity)
        self.replaced_keys[identity] = new_key

    def extract_partial_key(self, identity: str):
        """Type I adversaries may not call this on the target identity."""
        if identity == self.target_identity:
            raise PermissionError("partial key of the target is off limits")
        self.extracted_partials.add(identity)
        return self._enroll(identity).partial

    def extract_secret_value(self, identity: str) -> int:
        """Reveal a user's secret value x (strong corruption query)."""
        return self._enroll(identity).secret_value

    def sign_oracle(self, identity: str, message: bytes):
        """Produce a legitimate signature; the pair is logged as non-fresh."""
        keys = self._enroll(identity)
        self.signed_pairs.add((identity, bytes(message)))
        return self.scheme.sign(message, keys)

    # -- final judgement --------------------------------------------------------
    def judge(self, attempt: ForgeryAttempt) -> bool:
        """True iff the attempt is a *fresh*, *valid* forgery on the target."""
        if attempt.identity != self.target_identity:
            return False
        if (attempt.identity, bytes(attempt.message)) in self.signed_pairs:
            return False  # replay of an oracle answer, not a forgery
        try:
            return self.scheme.verify(
                attempt.message,
                attempt.signature,
                attempt.identity,
                attempt.public_key,
                attempt.public_key_extra,
            )
        except Exception:
            return False


class Adversary(abc.ABC):
    """One forgery strategy; stateless across trials except for its RNG."""

    name = "adversary"

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng if rng is not None else random.Random(0xADE5)

    @abc.abstractmethod
    def attempt(self, challenger: Challenger) -> Optional[ForgeryAttempt]:
        """Produce one forgery attempt (None = concede)."""


def run_game(
    scheme: CertificatelessScheme,
    adversary: Adversary,
    trials: int = 10,
    target_identity: str = "target@manet",
) -> GameResult:
    """Run independent game instances and count successful forgeries."""
    result = GameResult(trials=trials, forgeries=0)
    for trial in range(trials):
        challenger = Challenger(scheme, target_identity)
        attempt = adversary.attempt(challenger)
        success = attempt is not None and challenger.judge(attempt)
        result.attempts.append(success)
        if success:
            result.forgeries += 1
    return result


# ---------------------------------------------------------------------------
# Generic adversaries (these model what MANET attacker nodes can do).
# ---------------------------------------------------------------------------


class RandomForgeryAdversary(Adversary):
    """Submits uniformly random signature components."""

    name = "random"

    def attempt(self, challenger: Challenger) -> Optional[ForgeryAttempt]:
        """Produce one forgery attempt against the challenger."""
        scheme = challenger.scheme
        if not isinstance(scheme, McCLS):
            return None
        ctx: PairingContext = scheme.ctx
        curve = ctx.curve
        sig = McCLSSignature(
            v=self.rng.randrange(1, curve.n),
            s=curve.g2 * self.rng.randrange(1, curve.n),
            r=curve.g1 * self.rng.randrange(1, curve.n),
        )
        return ForgeryAttempt(
            message=b"forged-payload",
            signature=sig,
            identity=challenger.target_identity,
            public_key=challenger.public_key_oracle(challenger.target_identity),
        )


class TamperAdversary(Adversary):
    """Queries the signing oracle, then claims the signature covers a
    different message (what a black-hole node mutating a signed RREP does)."""

    name = "tamper"

    def attempt(self, challenger: Challenger) -> Optional[ForgeryAttempt]:
        """Produce one forgery attempt against the challenger."""
        original = b"route-reply seq=41"
        sig = challenger.sign_oracle(challenger.target_identity, original)
        return ForgeryAttempt(
            message=b"route-reply seq=99",  # inflated freshness
            signature=sig,
            identity=challenger.target_identity,
            public_key=challenger.public_key_oracle(challenger.target_identity),
        )


class TransplantAdversary(Adversary):
    """Takes a valid signature by another identity and transplants it onto
    the target identity (impersonation with someone else's signature)."""

    name = "transplant"

    def attempt(self, challenger: Challenger) -> Optional[ForgeryAttempt]:
        """Produce one forgery attempt against the challenger."""
        message = b"route-request hop=1"
        sig = challenger.sign_oracle("mallory@manet", message)
        return ForgeryAttempt(
            message=message,
            signature=sig,
            identity=challenger.target_identity,
            public_key=challenger.public_key_oracle(challenger.target_identity),
        )


class KeyReplacementAdversary(Adversary):
    """Type I strategy: replace the target's public key with one whose
    secret value the adversary knows, then sign with that x alone (no
    partial key D_ID - which the game forbids extracting)."""

    name = "key-replacement"

    def attempt(self, challenger: Challenger) -> Optional[ForgeryAttempt]:
        """Produce one forgery attempt against the challenger."""
        scheme = challenger.scheme
        if not isinstance(scheme, McCLS):
            return None
        ctx: PairingContext = scheme.ctx
        curve = ctx.curve
        n = curve.n
        x_evil = self.rng.randrange(1, n)
        new_pk = scheme.p_pub_g1 * x_evil
        challenger.replace_public_key(challenger.target_identity, new_pk)
        # Without D_ID the adversary has no G2 element tied to s; the best
        # it can do for S is scale the public Q_ID by something known.
        message = b"blackhole RREP: fresh route!"
        r = self.rng.randrange(1, n)
        big_r = curve.g1 * ((r - x_evil) % n)
        h = ctx.hash_scalar(b"H2/mccls", message, big_r, new_pk)
        v = (h * r) % n
        q_id = scheme.q_of(challenger.target_identity)
        s_guess = q_id * pow(x_evil, -1, n)  # D_ID replaced by Q_ID: wrong
        sig = McCLSSignature(v=v, s=s_guess, r=big_r)
        return ForgeryAttempt(
            message=message,
            signature=sig,
            identity=challenger.target_identity,
            public_key=new_pk,
        )


# ---------------------------------------------------------------------------
# The attacks that actually break the published scheme.
# ---------------------------------------------------------------------------


class UniversalForgeryAttack(Adversary):
    """Public-values-only forgery against McCLS (see module docstring).

    Succeeds with probability 1 against the scheme as published.  Does not
    query a single oracle and does not replace the public key.
    """

    name = "universal"

    def attempt(self, challenger: Challenger) -> Optional[ForgeryAttempt]:
        """Produce one forgery attempt against the challenger."""
        scheme = challenger.scheme
        if not isinstance(scheme, McCLS):
            return None
        ctx: PairingContext = scheme.ctx
        curve = ctx.curve
        n = curve.n
        message = b"total break: no secret needed"
        alpha = self.rng.randrange(1, n)
        beta = self.rng.randrange(1, n)
        public_key = challenger.public_key_oracle(challenger.target_identity)
        big_r = curve.g1 * alpha + scheme.p_pub_g1 * beta
        h = ctx.hash_scalar(b"H2/mccls", message, big_r, public_key)
        v = (h * alpha) % n
        q_id = scheme.q_of(challenger.target_identity)
        s_point = q_id * ((-pow(beta, -1, n)) % n)
        sig = McCLSSignature(v=v, s=s_point, r=big_r)
        return ForgeryAttempt(
            message=message,
            signature=sig,
            identity=challenger.target_identity,
            public_key=public_key,
        )


class MaliciousKGCForger(Adversary):
    """Type II strategy: the KGC (knows s) forges without the user's x.

    With the master key the attack is even simpler than the universal one:
    pick rho, k; R = rho*P; h = H2(M, R, P_ID); V = (k + h*rho) mod n;
    S = h * k^{-1} * D_ID.  Then V*P - h*R = k*P and
    e(k*P, k^{-1}*D_ID) = e(P_pub, Q_ID).
    """

    name = "malicious-kgc"

    def attempt(self, challenger: Challenger) -> Optional[ForgeryAttempt]:
        """Produce one forgery attempt against the challenger."""
        scheme = challenger.scheme
        if not isinstance(scheme, McCLS):
            return None
        ctx: PairingContext = scheme.ctx
        curve = ctx.curve
        n = curve.n
        s_master = scheme.master_secret  # Type II: the adversary IS the KGC
        message = b"escrow-style forgery by the KGC"
        public_key = challenger.public_key_oracle(challenger.target_identity)
        rho = self.rng.randrange(1, n)
        k = self.rng.randrange(1, n)
        big_r = curve.g1 * rho
        h = ctx.hash_scalar(b"H2/mccls", message, big_r, public_key)
        v = (k + h * rho) % n
        q_id = scheme.q_of(challenger.target_identity)
        d_id = q_id * s_master
        s_point = d_id * ((h * pow(k, -1, n)) % n)
        sig = McCLSSignature(v=v, s=s_point, r=big_r)
        return ForgeryAttempt(
            message=message,
            signature=sig,
            identity=challenger.target_identity,
            public_key=public_key,
        )


# ---------------------------------------------------------------------------
# Pakniat's attacks on pairing-free CLS (arXiv:1909.10816).  Both exploit
# a missing binding, so they succeed against the deliberately weakened
# ECLS variants and fail against the hardened :class:`ECLSScheme`.
# ---------------------------------------------------------------------------


class PublicKeyReplacementForger(Adversary):
    """Pakniat Type I: pick the signature first, solve for the key.

    When H2 fails to bind the public key, ``h`` is fixed before the
    adversary commits to ``P_ID`` - so it picks random ``t, z``, computes
    ``h = H2(M, ID, T)`` and *solves the verification equation* for a
    replacement key::

        P_ID' = h^{-1} (z*P - T) - R_ID - H1(ID, R_ID, P_pub) * P_pub

    Succeeds with probability 1 against
    :class:`~repro.schemes.ecls.WeakECLSUnboundKey` using public values
    only.  Against :class:`~repro.schemes.ecls.ECLSScheme` the same move
    fails: hashing binds ``P_ID'``, making the equation circular.
    """

    name = "pakniat-type-i"

    def attempt(self, challenger: Challenger) -> Optional[ForgeryAttempt]:
        """Produce one forgery attempt against the challenger."""
        scheme = challenger.scheme
        if not isinstance(scheme, ECLSScheme):
            return None  # the attack shape needs the Schnorr-style equation
        ctx: PairingContext = scheme.ctx
        n = ctx.order
        target = challenger.target_identity
        honest_pk, r_pub = challenger.public_key_points_oracle(target)
        message = b"pakniat type-i: solved-for public key"
        t = self.rng.randrange(1, n)
        z = self.rng.randrange(1, n)
        t_pub = ctx.g1_mul(ctx.g1, t)
        # against the weak scheme this hash ignores the key material, so
        # the value survives the replacement below; against hardened ECLS
        # the verifier rehashes with P_ID' and the forgery collapses
        h = scheme._h2(message, target, t_pub, honest_pk, r_pub)
        h1 = scheme._h1(target, r_pub)
        h_inv = pow(h, -1, n)
        replaced_pk = ctx.g1_msm(
            [
                (ctx.g1, (h_inv * z) % n),
                (t_pub, (-h_inv) % n),
                (r_pub, n - 1),
                (scheme.p_pub, (-h1) % n),
            ]
        )
        challenger.replace_public_key(target, replaced_pk)
        return ForgeryAttempt(
            message=message,
            signature=ECLSSignature(t_pub=t_pub, z=z),
            identity=target,
            public_key=replaced_pk,
            public_key_extra=r_pub,
        )


class MaliciousKGCPartialKeyForger(Adversary):
    """Pakniat Type II: the KGC forges with self-issued partial keys.

    The KGC knows ``s``, so it mints a fresh partial key
    ``(R', d' = r' + s*H1(ID, R', P_pub))`` for the target and signs with
    ``d'`` alone.  A scheme whose signatures do not involve the user's
    secret value ``x`` (:class:`~repro.schemes.ecls.WeakECLSNoUserSecret`)
    accepts this at will; hardened :class:`~repro.schemes.ecls.ECLSScheme`
    verification aggregates ``P_ID`` into the equation, and without ``x``
    the KGC cannot balance that term.
    """

    name = "pakniat-type-ii"

    def attempt(self, challenger: Challenger) -> Optional[ForgeryAttempt]:
        """Produce one forgery attempt against the challenger."""
        scheme = challenger.scheme
        if not isinstance(scheme, ECLSScheme):
            return None
        ctx: PairingContext = scheme.ctx
        n = ctx.order
        s_master = scheme.master_secret  # Type II: the adversary IS the KGC
        target = challenger.target_identity
        honest_pk, _honest_r_pub = challenger.public_key_points_oracle(target)
        message = b"pakniat type-ii: kgc-minted partial key"
        r_prime = self.rng.randrange(1, n)
        r_pub_prime = ctx.g1_mul(ctx.g1, r_prime)
        h1 = scheme._h1(target, r_pub_prime)
        d_prime = (r_prime + s_master * h1) % n
        t = self.rng.randrange(1, n)
        t_pub = ctx.g1_mul(ctx.g1, t)
        h = scheme._h2(message, target, t_pub, honest_pk, r_pub_prime)
        z = (t + h * d_prime) % n
        return ForgeryAttempt(
            message=message,
            signature=ECLSSignature(t_pub=t_pub, z=z),
            identity=target,
            public_key=honest_pk,
            public_key_extra=r_pub_prime,
        )


#: Pakniat's pairing-free CLS attacks: succeed against the weakened ECLS
#: variants, fail against hardened ECLS, concede against pairing schemes
PAKNIAT_ADVERSARIES = (
    PublicKeyReplacementForger,
    MaliciousKGCPartialKeyForger,
)


# ---------------------------------------------------------------------------
# Batch-verification soundness games (cross-signer folding).
# ---------------------------------------------------------------------------


def run_batch_corruption_game(
    verifier,
    signer_count: int = 10,
    batch_size: int = 100,
    rng: Optional[random.Random] = None,
) -> Dict[str, object]:
    """Corrupt one signature inside a large mixed-signer window.

    The batch verifier must (a) reject exactly the corrupted item, (b)
    accept every honest one, and (c) find the culprit through fold
    bisection rather than exact-verifying the whole window.  Returns the
    evidence dict the tests assert on.
    """
    rng = rng if rng is not None else random.Random(0xBA7C4)
    scheme = verifier.scheme
    signers = [
        scheme.generate_user_keys(f"node-{i}@corruption-game")
        for i in range(signer_count)
    ]
    # admit every signer first so the corrupted window runs the pure-G1
    # anchored fold - the path whose soundness is under test
    warm = []
    for i, keys in enumerate(signers):
        msg = f"warmup-{i}".encode()
        warm.append((msg, scheme.sign(msg, keys), keys.identity, keys.public_key))
    verifier.verify_cross_signer(warm)

    items = []
    for j in range(batch_size):
        keys = signers[j % signer_count]
        msg = f"payload-{j}".encode()
        items.append((msg, scheme.sign(msg, keys), keys.identity, keys.public_key))
    corrupt_at = rng.randrange(batch_size)
    msg, sig, identity, pk = items[corrupt_at]
    n = scheme.ctx.order
    items[corrupt_at] = (
        msg,
        McCLSSignature(v=(sig.v + rng.randrange(1, n)) % n or 1, s=sig.s, r=sig.r),
        identity,
        pk,
    )
    verdicts, stats = verifier.verify_cross_signer(items)
    expected = [j != corrupt_at for j in range(batch_size)]
    return {
        "correct": verdicts == expected,
        "located": not verdicts[corrupt_at],
        "honest_accepted": all(v for j, v in enumerate(verdicts) if j != corrupt_at),
        "bisections": stats["bisections"],
        "exact_checks": stats["exact_checks"],
        "corrupt_at": corrupt_at,
    }


def forge_cancelling_pair(
    scheme, keys, rng: random.Random, tag: str = ""
) -> List[Tuple[bytes, McCLSSignature]]:
    """Two invalid signatures by ``keys`` whose fold defects cancel.

    Knowing its own x (hence the anchor W = x*P), the signer picks
    R = rho*P and  v = h*(rho + x +/- gamma)  so each item's defect is
    +/- gamma*P and the two defects sum to zero under unit weights.
    """
    ctx = scheme.ctx
    n = ctx.order
    x = keys.secret_value
    s_point = scheme._s_component(keys)
    gamma = rng.randrange(1, n)
    pair = []
    for sign_of_gamma in (1, -1):
        rho = rng.randrange(1, n)
        big_r = ctx.g1 * rho
        msg = f"cancelling-{tag}-{sign_of_gamma}".encode()
        h = ctx.hash_scalar(b"H2/mccls", msg, big_r, keys.public_key)
        v = (h * (rho + x + sign_of_gamma * gamma)) % n
        sig = McCLSSignature(v=v, s=s_point, r=big_r)
        # each item alone must be invalid by construction
        assert not scheme.verify(msg, sig, keys.identity, keys.public_key)
        pair.append((msg, sig))
    return pair


def run_cancelling_pair_game(
    verifier,
    trials: int = 4,
    rng: Optional[random.Random] = None,
) -> Dict[str, object]:
    """A malicious signer submits two INVALID signatures whose fold defects
    cancel under unit weights (the classic attack on linear batch tests).

    Each trial is one :func:`forge_cancelling_pair`: a batch verifier
    folding with FIXED weights would accept both forgeries, since the
    defects sum to zero.  Random per-item
    80-bit weights make the folded defect (d1 - d2)*gamma*P != 0 with
    overwhelming probability, so the verifier must reject BOTH items
    every trial (located via bisection down to exact checks).
    """
    rng = rng if rng is not None else random.Random(0xCA9CE1)
    scheme = verifier.scheme
    keys = scheme.generate_user_keys("malicious-signer@pair-game")
    # anchor the signer with one honest signature
    honest = b"honest hello"
    verifier.verify_cross_signer(
        [(honest, scheme.sign(honest, keys), keys.identity, keys.public_key)]
    )
    accepted_forgeries = 0
    rejected_pairs = 0
    for trial in range(trials):
        pair = [
            (msg, sig, keys.identity, keys.public_key)
            for msg, sig in forge_cancelling_pair(scheme, keys, rng, f"{trial}")
        ]
        verdicts, _stats = verifier.verify_cross_signer(pair)
        accepted_forgeries += sum(verdicts)
        if verdicts == [False, False]:
            rejected_pairs += 1
    return {
        "trials": trials,
        "accepted_forgeries": accepted_forgeries,
        "rejected_pairs": rejected_pairs,
        "all_rejected": rejected_pairs == trials and accepted_forgeries == 0,
    }


#: adversaries modelling protocol-level attackers (should all fail)
PROTOCOL_ADVERSARIES = (
    RandomForgeryAdversary,
    TamperAdversary,
    TransplantAdversary,
    KeyReplacementAdversary,
)

#: adversaries exploiting the algebraic flaw (succeed against McCLS)
ALGEBRAIC_ADVERSARIES = (
    UniversalForgeryAttack,
    MaliciousKGCForger,
)
