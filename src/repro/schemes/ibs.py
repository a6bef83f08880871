"""Identity-based signatures (Cha-Cheon shape) and the PKG role.

McCLS is "an adaptation of the identity-based signature from [15] to the
certificateless setting" (paper Section 4, citing Yoon-Cheon-Kim's batch
verification work).  This module provides:

* :class:`PrivateKeyGenerator` - the ID-PKC trusted third party.  It KNOWS
  every user's full private key, which is exactly the **key escrow problem**
  the paper's introduction motivates CLS with; :meth:`PrivateKeyGenerator
  .escrow_forge` demonstrates it by forging a valid signature for any
  enrolled identity without the user's participation.
* :class:`ChaCheonIBS` - the underlying IBS with the aggregatable shape
  used by [15]'s batch verification (see :mod:`repro.core.batch`).

Scheme (type-3):

* PKG: master s, P_pub = s*P;  user key D_ID = s*Q_ID, Q_ID = H1(ID) in G2.
* Sign(M):  r <- Zp*;  U = r*Q_ID (G2);  h = H(M, U);
  V = (r + h)*D_ID (G2);  sigma = (U, V).
* Verify:  e(P, V) == e(P_pub, U + h*Q_ID).

Batch verification of k signatures (same PKG):
  e(P, sum V_i) == e(P_pub, sum (U_i + h_i*Q_IDi))  -  2 pairings total.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import SignatureError
from repro.pairing.bn import BNCurve, default_test_curve
from repro.pairing.curve import CurvePoint
from repro.pairing.groups import PairingContext
from repro.schemes.base import (
    Identity,
    Message,
    normalize_identity,
    normalize_message,
)


@dataclass(frozen=True)
class IBSPrivateKey:
    identity: str
    q_id: CurvePoint  # H1(ID) in G2
    d_id: CurvePoint  # s * Q_ID in G2
    # Identity-based schemes have no standalone user public key (the
    # identity IS the key); kept None for SchemeProtocol uniformity.
    public_key: Optional[CurvePoint] = None


@dataclass(frozen=True)
class IBSSignature:
    """sigma = (U, V), both in G2."""

    u: CurvePoint
    v: CurvePoint


class ChaCheonIBS:
    """The identity-based signature McCLS descends from.

    Conforms to :class:`repro.schemes.base.SchemeProtocol`;
    ``generate_user_keys`` is the PKG's ``extract`` (there is no user
    secret beyond the escrowed D_ID), and ``verify`` needs no public key.
    """

    name = "ibs"

    def __init__(self, ctx: PairingContext, master_secret: Optional[int] = None):
        self.ctx = ctx
        self.master_secret = (
            master_secret % ctx.order if master_secret else ctx.random_scalar()
        )
        self.p_pub_g1 = ctx.g1 * self.master_secret

    def q_of(self, identity: Identity) -> CurvePoint:
        """Q_ID = H1(ID) in G2."""
        return self.ctx.hash_g2(b"H1/ibs", normalize_identity(identity))

    def extract(self, identity: Identity) -> IBSPrivateKey:
        """Issue the identity's private key D_ID = s * Q_ID (escrowed!)."""
        ident = normalize_identity(identity)
        q_id = self.q_of(ident)
        return IBSPrivateKey(
            identity=ident,
            q_id=q_id,
            d_id=self.ctx.g2_mul(q_id, self.master_secret),
        )

    def generate_user_keys(self, identity: Identity) -> IBSPrivateKey:
        """Protocol-shaped key generation (delegates to :meth:`extract`)."""
        return self.extract(identity)

    def sign(self, message: Message, key: IBSPrivateKey) -> IBSSignature:
        """Cha-Cheon signing: (U, V) = (r*Q_ID, (r+h)*D_ID)."""
        msg = normalize_message(message)
        r = self.ctx.random_scalar()
        u = self.ctx.g2_mul(key.q_id, r)
        h = self.ctx.hash_scalar(b"H/ibs", msg, u)
        v = self.ctx.g2_mul(key.d_id, (r + h) % self.ctx.order)
        return IBSSignature(u=u, v=v)

    def verify(
        self,
        message: Message,
        signature: IBSSignature,
        identity: Identity,
        public_key: Optional[CurvePoint] = None,
        public_key_extra: Optional[CurvePoint] = None,
    ) -> bool:
        """Check e(P, V) == e(P_pub, U + h*Q_ID).

        Identity-based: the ``public_key`` slots exist only for
        SchemeProtocol uniformity and are ignored.
        """
        msg = normalize_message(message)
        if not isinstance(signature, IBSSignature):
            raise SignatureError("expected an IBSSignature")
        curve = self.ctx.curve
        if not curve.g2_curve.contains(signature.u):
            return False
        if not curve.g2_curve.contains(signature.v):
            return False
        q_id = self.q_of(identity)
        h = self.ctx.hash_scalar(b"H/ibs", msg, signature.u)
        rhs_g2 = signature.u + self.ctx.g2_mul(q_id, h)
        # e(P, V) == e(P_pub, U + h*Q_ID) as a 2-term multi-pairing sharing
        # one final exponentiation; the honest generator-side G1 point is
        # the one that gets negated.
        return self.ctx.multi_pair_check(
            [(self.ctx.g1, signature.v), (-self.p_pub_g1, rhs_g2)]
        )

    def batch_verify(
        self, items: Sequence[Tuple[Message, IBSSignature, Identity]]
    ) -> bool:
        """Verify k signatures with 2 pairings (reference [15]'s trick).

        Soundness caveat inherited from the original: a batch forger could
        craft signatures whose errors cancel; the standard fix (applied
        here) weights each signature by a small random scalar.
        """
        if not items:
            return True
        curve = self.ctx.curve
        rng = self.ctx.rng
        sum_v = curve.g2_curve.infinity()
        sum_rhs = curve.g2_curve.infinity()
        for message, signature, identity in items:
            msg = normalize_message(message)
            if not curve.g2_curve.contains(signature.u):
                return False
            if not curve.g2_curve.contains(signature.v):
                return False
            weight = rng.randrange(1, 1 << 64)
            q_id = self.q_of(identity)
            h = self.ctx.hash_scalar(b"H/ibs", msg, signature.u)
            sum_v = sum_v + self.ctx.g2_mul(signature.v, weight)
            rhs = signature.u + self.ctx.g2_mul(q_id, h)
            sum_rhs = sum_rhs + self.ctx.g2_mul(rhs, weight)
        return self.ctx.multi_pair_check(
            [(self.ctx.g1, sum_v), (-self.p_pub_g1, sum_rhs)]
        )


class PrivateKeyGenerator:
    """The ID-PKC trusted third party, including its escrow power."""

    def __init__(self, curve: Optional[BNCurve] = None, seed: Optional[int] = None):
        curve = curve if curve is not None else default_test_curve()
        self.ctx = PairingContext(curve, random.Random(seed))
        self.scheme = ChaCheonIBS(self.ctx)
        self._keys: Dict[str, IBSPrivateKey] = {}

    def enroll(self, identity: Identity) -> IBSPrivateKey:
        """Extract and remember a user's (escrowed) private key."""
        key = self.scheme.extract(identity)
        self._keys[key.identity] = key
        return key

    def escrow_forge(self, message: Message, identity: Identity) -> IBSSignature:
        """Forge a signature for any identity - the key escrow problem.

        The PKG does not need the user to have ever enrolled: it can derive
        D_ID itself.  This is the attack surface certificateless schemes
        remove, and the demonstration used by tests and the key-escrow
        example.
        """
        return self.scheme.sign(message, self.scheme.extract(identity))
