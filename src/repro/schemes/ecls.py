"""ECLS: a pairing-free certificateless signature scheme on G1.

He & Chen (arXiv:1106.3898) and the schemes Pakniat analyses
(arXiv:1909.10816) build certificateless crypto on *plain* elliptic-curve
arithmetic: the KGC's contribution to a user key is a Schnorr-style
scalar instead of a pairing-group point, so signing and verification
never touch the Miller loop or the final exponentiation.  This module
carries that construction onto the repository's existing curve stack —
the prime-order group G1 of whichever BN curve the deployment runs — so
ECLS shares generators, caches and operation counters with McCLS
while costing zero pairings.

Construction (the standard pairing-free CLS shape):

* **Setup.**  Master secret ``s``; ``P_pub = s*P``.
* **Partial key.**  For identity ``ID`` the KGC picks ``r``, publishes
  ``R_ID = r*P`` and hands over ``d = r + s*H1(ID, R_ID, P_pub) mod n``.
  Anyone can check ``d*P == R_ID + H1(ID, R_ID, P_pub)*P_pub``.
* **User key.**  Secret value ``x``; public key ``P_ID = x*P`` (with
  ``R_ID`` travelling alongside as the second public-key point).
* **Sign.**  ``T = t*P``; ``h = H2(M, ID, T, P_ID, R_ID, P_pub)``;
  ``z = t + h*(x + d) mod n``.  The signature is ``(T, z)``.
* **Verify.**  ``z*P == T + h*(P_ID + R_ID + H1(ID, R_ID, P_pub)*P_pub)``.

``H2`` binds the *whole* public key (``P_ID``, ``R_ID`` **and**
``P_pub``): Pakniat's public-key-replacement forgeries work exactly when
a scheme omits one of these bindings, which is why
:class:`WeakECLSUnboundKey` / :class:`WeakECLSNoUserSecret` exist below
as deliberately-broken variants for the security games — never register
or deploy them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import KeyError_, SignatureError
from repro.obs.registry import get_registry
from repro.pairing.curve import CurvePoint
from repro.pairing.groups import OpCount, PairingContext
from repro.schemes.base import (
    Identity,
    Message,
    normalize_identity,
    normalize_message,
)


@dataclass(frozen=True)
class ECLSPartialKey:
    """KGC-issued Schnorr-style partial key for one identity.

    ``r_pub`` (= r*P) is public and travels with the user's public key;
    ``d`` (= r + s*H1(ID, R_ID, P_pub) mod n) is the secret scalar only
    the KGC can produce.
    """

    identity: str
    r_pub: CurvePoint
    d: int


@dataclass(frozen=True)
class ECLSKeyPair:
    """Full ECLS key material held by one user."""

    identity: str
    secret_value: int  # x, chosen by the user, unknown to the KGC
    public_key: CurvePoint  # P_ID = x*P
    partial: ECLSPartialKey
    # R_ID rides in the protocol's public_key_extra slot so the unified
    # verify(message, sig, identity, public_key, public_key_extra) call
    # shape carries everything a verifier needs.
    public_key_extra: Optional[CurvePoint] = None
    full_private_key: Optional[int] = None  # x + d mod n, cached

    def public_key_points(self) -> Tuple[CurvePoint, ...]:
        """The full two-point public key ``(P_ID, R_ID)``."""
        return (self.public_key, self.public_key_extra)


@dataclass(frozen=True)
class ECLSSignature:
    """(T, z) Schnorr-style signature: T = t*P, z = t + h*(x + d)."""

    t_pub: CurvePoint
    z: int


class ECLSScheme:
    """Pairing-free certificateless signatures on G1.

    Conforms to :class:`repro.schemes.base.SchemeProtocol` and mirrors
    the KGC surface of :class:`~repro.schemes.base.CertificatelessScheme`
    (``master_secret``, ``extract_partial_key``, ``rotate_master_secret``)
    so :class:`~repro.core.params.KeyGenerationCenter` and the service
    rekey chain drive it unchanged — but every group operation stays in
    G1 and no code path reaches a pairing.
    """

    name = "ecls"
    public_key_length_points = 2

    def __init__(self, ctx: PairingContext, master_secret: Optional[int] = None):
        self.ctx = ctx
        curve = ctx.curve
        self.master_secret = (
            master_secret % curve.n if master_secret else ctx.random_scalar()
        )
        if self.master_secret == 0:
            raise KeyError_("master secret must be non-zero")
        self.p_pub = ctx.g1_mul(curve.g1, self.master_secret)

    # compatibility alias: service/batch code addresses the G1 master
    # public key as p_pub_g1 on every scheme
    @property
    def p_pub_g1(self) -> CurvePoint:
        return self.p_pub

    # -- rekey -----------------------------------------------------------------
    def rotate_master_secret(self, new_secret: Optional[int] = None) -> int:
        """Replace the master secret and P_pub; old partial keys die.

        Every ``d`` issued under the old ``s`` stops verifying (H1 binds
        P_pub), so the caller must re-issue user key material — and any
        session keys agreed under old partial keys must be invalidated,
        which :class:`repro.service.server.VerificationGateway` does by
        flushing its session table on REKEY.
        """
        curve = self.ctx.curve
        secret = (
            new_secret % curve.n if new_secret else self.ctx.random_scalar()
        )
        if secret == 0:
            raise KeyError_("master secret must be non-zero")
        self.master_secret = secret
        self.p_pub = self.ctx.g1_mul(curve.g1, secret)
        get_registry().counter("kgc.rekeys").inc()
        return self.master_secret

    # -- hashing ---------------------------------------------------------------
    def _h1(self, identity: str, r_pub: CurvePoint) -> int:
        """Partial-key binding hash H1(ID, R_ID, P_pub) -> Z_n."""
        return self.ctx.hash_scalar(b"H1/ecls", identity, r_pub, self.p_pub)

    def _h2(
        self,
        message: bytes,
        identity: str,
        t_pub: CurvePoint,
        public_key: CurvePoint,
        r_pub: CurvePoint,
    ) -> int:
        """Message hash; binds the full public key against replacement."""
        return self.ctx.hash_scalar(
            b"H2/ecls", message, identity, t_pub, public_key, r_pub, self.p_pub
        )

    # -- stage 2: KGC ----------------------------------------------------------
    def extract_partial_key(self, identity: Identity) -> ECLSPartialKey:
        """(R_ID, d) with d = r + s*H1(ID, R_ID, P_pub) mod n."""
        ident = normalize_identity(identity)
        n = self.ctx.order
        r = self.ctx.random_scalar()
        r_pub = self.ctx.g1_mul(self.ctx.g1, r)
        d = (r + self.master_secret * self._h1(ident, r_pub)) % n
        return ECLSPartialKey(identity=ident, r_pub=r_pub, d=d)

    def partial_key_is_valid(self, partial: ECLSPartialKey) -> bool:
        """Public check: d*P == R_ID + H1(ID, R_ID, P_pub)*P_pub."""
        expected = self.ctx.g1_msm(
            [
                (partial.r_pub, 1),
                (self.p_pub, self._h1(partial.identity, partial.r_pub)),
            ]
        )
        return self.ctx.g1_mul(self.ctx.g1, partial.d % self.ctx.order) == expected

    # -- stage 3: user ---------------------------------------------------------
    def generate_user_keys(self, identity: Identity) -> ECLSKeyPair:
        """Full key material: partial key plus user-chosen ``x``."""
        ident = normalize_identity(identity)
        n = self.ctx.order
        partial = self.extract_partial_key(ident)
        x = self.ctx.random_scalar()
        return ECLSKeyPair(
            identity=ident,
            secret_value=x,
            public_key=self.ctx.g1_mul(self.ctx.g1, x),
            partial=partial,
            public_key_extra=partial.r_pub,
            full_private_key=(x + partial.d) % n,
        )

    # -- stage 4: sign ---------------------------------------------------------
    def sign(self, message: Message, keys: ECLSKeyPair) -> ECLSSignature:
        """Schnorr-style ``(T, z)`` under the combined key ``x + d``."""
        msg = normalize_message(message)
        n = self.ctx.order
        secret = keys.full_private_key
        if secret is None:
            secret = (keys.secret_value + keys.partial.d) % n
        if secret % n == 0:
            raise SignatureError("degenerate ECLS signing key")
        while True:
            t = self.ctx.random_scalar()
            t_pub = self.ctx.g1_mul(self.ctx.g1, t)
            h = self._h2(
                msg, keys.identity, t_pub, keys.public_key, keys.partial.r_pub
            )
            z = (t + h * secret) % n
            if z:
                return ECLSSignature(t_pub=t_pub, z=z)

    # -- stage 5: verify -------------------------------------------------------
    def verify(
        self,
        message: Message,
        signature: ECLSSignature,
        identity: Identity,
        public_key: Optional[CurvePoint] = None,
        public_key_extra: Optional[CurvePoint] = None,
    ) -> bool:
        """z*P == T + h*(P_ID + R_ID + H1*P_pub), total over hostile input."""
        try:
            msg = normalize_message(message)
            ident = normalize_identity(identity)
            n = self.ctx.order
            curve = self.ctx.curve
            if not isinstance(signature, ECLSSignature):
                return False
            if not isinstance(public_key, CurvePoint) or not isinstance(
                public_key_extra, CurvePoint
            ):
                return False
            if public_key.is_infinity() or public_key_extra.is_infinity():
                return False
            for point in (signature.t_pub, public_key, public_key_extra):
                if not curve.g1_curve.contains(point):
                    return False
            if not (0 < signature.z < n):
                return False
            h1 = self._h1(ident, public_key_extra)
            h = self._h2(msg, ident, signature.t_pub, public_key, public_key_extra)
            # z*P - h*(P_ID + R_ID) - h*h1*P_pub == T, one 4-term MSM
            lhs = self.ctx.g1_msm(
                [
                    (self.ctx.g1, signature.z),
                    (public_key, (-h) % n),
                    (public_key_extra, (-h) % n),
                    (self.p_pub, (-h * h1) % n),
                ]
            )
            return lhs == signature.t_pub
        except (ArithmeticError, ValueError, TypeError, KeyError_):
            return False

    # -- measurement (README comparison rows) ----------------------------------
    def measure_sign(self, message: Message, keys: ECLSKeyPair):
        """(signature, OpCount) for one signing, under an obs phase."""
        with get_registry().phase(f"{self.name}.sign"):
            with self.ctx.measure() as meter:
                sig = self.sign(message, keys)
        return sig, meter.delta

    def measure_verify(
        self, message: Message, signature, keys: ECLSKeyPair
    ) -> Tuple[bool, OpCount]:
        """(ok, OpCount) for one verification, under an obs phase."""
        with get_registry().phase(f"{self.name}.verify"):
            with self.ctx.measure() as meter:
                ok = self.verify(
                    message,
                    signature,
                    keys.identity,
                    keys.public_key,
                    keys.public_key_extra,
                )
        return ok, meter.delta

    #: Table-1-style profile (pairings, scalar_mults, exponentiations)
    paper_sign_profile: Tuple[int, int, int] = (0, 1, 0)
    paper_verify_profile: Tuple[int, int, int] = (0, 4, 0)


# ---------------------------------------------------------------------------
# Deliberately weakened variants for the Pakniat security games.  These
# reproduce the design mistakes his analyses exploit; they exist so the
# game tests can prove the attacks have teeth.  NEVER register or deploy.
# ---------------------------------------------------------------------------


class WeakECLSUnboundKey(ECLSScheme):
    """ECLS with H2 *not* binding the public key (Pakniat's Type I bug).

    With ``h = H2(M, ID, T)`` an adversary may pick the signature first
    and *solve for* a replacement public key: choose t, z; compute h;
    set ``P_ID' = h^{-1}(z*P - T) - R_ID - H1(ID, R_ID, P_pub)*P_pub``.
    :class:`~repro.core.games.PublicKeyReplacementForger` does exactly
    this and must succeed here while failing against :class:`ECLSScheme`.
    """

    name = "ecls-weak-unbound"

    def _h2(self, message, identity, t_pub, public_key, r_pub):
        # the bug under test: message and commitment only — the public
        # key is free for the adversary to choose after hashing
        return self.ctx.hash_scalar(b"H2/ecls-weak", message, identity, t_pub)


class WeakECLSNoUserSecret(ECLSScheme):
    """ECLS whose signatures ignore the user secret (Type II bug).

    Signing uses only the KGC-issued ``d`` and verification aggregates
    only ``R_ID + H1*P_pub`` — so a malicious KGC (who knows ``s`` and
    every ``d``) forges at will without ever learning ``x``.
    """

    name = "ecls-weak-nouser"

    def sign(self, message: Message, keys: ECLSKeyPair) -> ECLSSignature:
        """The bug under test: ``z`` involves only the KGC's ``d``."""
        msg = normalize_message(message)
        n = self.ctx.order
        while True:
            t = self.ctx.random_scalar()
            t_pub = self.ctx.g1_mul(self.ctx.g1, t)
            h = self._h2(
                msg, keys.identity, t_pub, keys.public_key, keys.partial.r_pub
            )
            z = (t + h * keys.partial.d) % n
            if z:
                return ECLSSignature(t_pub=t_pub, z=z)

    def verify(
        self,
        message: Message,
        signature: ECLSSignature,
        identity: Identity,
        public_key: Optional[CurvePoint] = None,
        public_key_extra: Optional[CurvePoint] = None,
    ) -> bool:
        """Aggregates only ``R_ID + H1*P_pub`` — ``P_ID`` never binds."""
        try:
            msg = normalize_message(message)
            ident = normalize_identity(identity)
            n = self.ctx.order
            curve = self.ctx.curve
            if not isinstance(signature, ECLSSignature):
                return False
            if not isinstance(public_key_extra, CurvePoint):
                return False
            if not curve.g1_curve.contains(signature.t_pub):
                return False
            if not (0 < signature.z < n):
                return False
            h1 = self._h1(ident, public_key_extra)
            h = self._h2(msg, ident, signature.t_pub, public_key, public_key_extra)
            lhs = self.ctx.g1_msm(
                [
                    (self.ctx.g1, signature.z),
                    (public_key_extra, (-h) % n),
                    (self.p_pub, (-h * h1) % n),
                ]
            )
            return lhs == signature.t_pub
        except (ArithmeticError, ValueError, TypeError, KeyError_):
            return False


def signature_size_bytes(curve) -> int:
    """Encoded (T, z) size: one G1 point + one order-width scalar."""
    fp_width = (curve.p.bit_length() + 7) // 8
    n_width = (curve.n.bit_length() + 7) // 8
    return 1 + 2 * fp_width + n_width
