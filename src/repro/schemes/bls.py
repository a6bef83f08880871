"""BLS short signatures (Boneh-Lynn-Shacham) as a primitive baseline.

Not compared in the paper's Table 1, but it is the simplest pairing
signature and a useful calibration point for the benchmark harness (one
hash-to-group + one scalar mult to sign; two pairings to verify), and the
building block the GDH-group assumption in Section 3 is usually introduced
with.

Layout: secret z; public key PK = z*P2 (G2); sigma = z*H(M) with H into G1;
verify e(sigma, P2) == e(H(M), PK).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SignatureError
from repro.pairing.curve import CurvePoint
from repro.pairing.groups import PairingContext
from repro.schemes.base import (
    Identity,
    Message,
    normalize_identity,
    normalize_message,
)


@dataclass(frozen=True)
class BLSKeyPair:
    secret: int
    public_key: CurvePoint  # in G2
    identity: str = ""


@dataclass(frozen=True)
class BLSSignature:
    sigma: CurvePoint  # in G1


class BLSScheme:
    """Plain BLS over the shared pairing context.

    Conforms to :class:`repro.schemes.base.SchemeProtocol`; BLS has no
    identity binding, so ``verify`` accepts and ignores the identity slot.
    """

    name = "bls"

    def __init__(self, ctx: PairingContext):
        self.ctx = ctx

    def generate_keys(self, secret: Optional[int] = None) -> BLSKeyPair:
        """Fresh (or deterministic, given ``secret``) BLS key pair."""
        z = secret % self.ctx.order if secret else self.ctx.random_scalar()
        if z == 0:
            raise SignatureError("BLS secret must be non-zero")
        return BLSKeyPair(secret=z, public_key=self.ctx.g2_mul(self.ctx.g2, z))

    def generate_user_keys(self, identity: Identity) -> BLSKeyPair:
        """Protocol-shaped key generation: a fresh pair tagged with ``identity``."""
        ident = normalize_identity(identity)
        pair = self.generate_keys()
        return BLSKeyPair(
            secret=pair.secret, public_key=pair.public_key, identity=ident
        )

    def sign(self, message: Message, keys: BLSKeyPair) -> BLSSignature:
        """sigma = z * H(M): one hash-to-G1 and one multiplication."""
        msg = normalize_message(message)
        h = self.ctx.hash_g1(b"H/bls", msg)
        return BLSSignature(sigma=self.ctx.g1_mul(h, keys.secret))

    def verify(
        self,
        message: Message,
        signature: BLSSignature,
        identity: Optional[Identity] = None,
        public_key: Optional[CurvePoint] = None,
        public_key_extra: Optional[CurvePoint] = None,
    ) -> bool:
        """Check e(sigma, P2) == e(H(M), PK).

        Unified protocol shape; the identity is accepted for uniformity and
        ignored.
        """
        if public_key is None:
            raise SignatureError("BLS.verify requires a public key")
        msg = normalize_message(message)
        if not isinstance(signature, BLSSignature):
            raise SignatureError("expected a BLSSignature")
        if not self.ctx.curve.g1_curve.contains(signature.sigma):
            return False
        h = self.ctx.hash_g1(b"H/bls", msg)
        # e(sigma, P2) == e(H(M), PK) evaluated as a 2-term multi-pairing
        # sharing one final exponentiation; the honest hash point is the
        # side that gets negated.
        return self.ctx.multi_pair_check(
            [(signature.sigma, self.ctx.g2), (-h, public_key)]
        )
