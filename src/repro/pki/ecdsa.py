"""ECDSA over the BN curve's G1, from scratch.

The paper's introduction contrasts certificateless crypto with traditional
PKI signatures [18, 14]; this module supplies that baseline.  It is plain
ECDSA on the prime-order group G1 = E(Fp) of whichever BN curve the
deployment uses, so the comparison benchmarks share one curve.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import SignatureError
from repro.pairing.bn import BNCurve, default_test_curve
from repro.pairing.curve import CurvePoint
from repro.pairing.groups import PairingContext
from repro.pairing.numbers import inverse_mod
from repro.schemes.base import (
    Identity,
    Message,
    normalize_identity,
    normalize_message,
)


@dataclass(frozen=True)
class ECDSAKeyPair:
    secret: int
    public_key: CurvePoint
    identity: str = ""


@dataclass(frozen=True)
class ECDSASignature:
    r: int
    s: int


class ECDSA:
    """Textbook ECDSA with deterministic-width SHA-256 message digests.

    Conforms to :class:`repro.schemes.base.SchemeProtocol`: construct it
    from a shared :class:`~repro.pairing.groups.PairingContext` (preferred —
    base-point multiplications then share the context's operation
    counters) or from a bare :class:`BNCurve` as before.  ECDSA has no
    identity binding; ``verify`` accepts and ignores the identity
    argument.
    """

    name = "ecdsa"

    def __init__(
        self,
        curve: Union[BNCurve, PairingContext, None] = None,
        rng: Optional[random.Random] = None,
    ):
        if isinstance(curve, PairingContext):
            self.ctx = curve
            self.curve = curve.curve
            self.rng = rng if rng is not None else curve.rng
        else:
            self.curve = curve if curve is not None else default_test_curve()
            self.rng = rng if rng is not None else random.Random()
            self.ctx = PairingContext(self.curve, self.rng)

    def _digest_scalar(self, message: bytes) -> int:
        digest = hashlib.sha256(b"ecdsa:" + message).digest()
        # Standard leftmost-bits truncation to the order's size.
        value = int.from_bytes(digest, "big")
        excess = 256 - self.curve.n.bit_length()
        if excess > 0:
            value >>= excess
        return value % self.curve.n

    def generate_keys(self, secret: Optional[int] = None) -> ECDSAKeyPair:
        """Fresh (or deterministic, given ``secret``) ECDSA key pair."""
        n = self.curve.n
        d = secret % n if secret else self.rng.randrange(1, n)
        if d == 0:
            raise SignatureError("ECDSA secret must be non-zero")
        return ECDSAKeyPair(secret=d, public_key=self.ctx.g1_mul(self.curve.g1, d))

    def generate_user_keys(self, identity: Identity) -> ECDSAKeyPair:
        """Protocol-shaped key generation: a fresh pair tagged with ``identity``."""
        ident = normalize_identity(identity)
        pair = self.generate_keys()
        return ECDSAKeyPair(
            secret=pair.secret, public_key=pair.public_key, identity=ident
        )

    def sign(self, message: Message, keys: ECDSAKeyPair) -> ECDSASignature:
        """Textbook ECDSA signature over SHA-256 of the message."""
        msg = normalize_message(message)
        n = self.curve.n
        z = self._digest_scalar(msg)
        while True:
            k = self.rng.randrange(1, n)
            point = self.ctx.g1_mul(self.curve.g1, k)
            r = point.x.value % n
            if r == 0:
                continue
            s = (inverse_mod(k, n) * (z + r * keys.secret)) % n
            if s == 0:
                continue
            return ECDSASignature(r=r, s=s)

    def verify(
        self,
        message: Message,
        signature: ECDSASignature,
        identity: Optional[Identity] = None,
        public_key: Optional[CurvePoint] = None,
        public_key_extra: Optional[CurvePoint] = None,
    ) -> bool:
        """Textbook ECDSA verification with full range checks.

        Unified protocol shape; the identity is accepted for uniformity and
        ignored.
        """
        if public_key is None:
            raise SignatureError("ECDSA.verify requires a public key")
        msg = normalize_message(message)
        n = self.curve.n
        if not isinstance(signature, ECDSASignature):
            raise SignatureError("expected an ECDSASignature")
        if not (0 < signature.r < n and 0 < signature.s < n):
            return False
        if public_key.is_infinity() or not self.curve.g1_curve.contains(public_key):
            return False
        z = self._digest_scalar(msg)
        w = inverse_mod(signature.s, n)
        u1 = (z * w) % n
        u2 = (signature.r * w) % n
        point = self.ctx.g1_mul(self.curve.g1, u1) + public_key * u2
        if point.is_infinity():
            return False
        return point.x.value % n == signature.r


def signature_size_bytes(curve: BNCurve) -> int:
    """Encoded (r, s) size - two order-width integers."""
    width = (curve.n.bit_length() + 7) // 8
    return 2 * width


def encode_signature(curve: BNCurve, sig: ECDSASignature) -> bytes:
    """Fixed-width big-endian (r, s) encoding."""
    width = (curve.n.bit_length() + 7) // 8
    return sig.r.to_bytes(width, "big") + sig.s.to_bytes(width, "big")


def decode_signature(curve: BNCurve, data: bytes) -> Tuple[ECDSASignature, bytes]:
    """Decode (r, s), returning the remaining bytes."""
    width = (curve.n.bit_length() + 7) // 8
    if len(data) < 2 * width:
        raise SignatureError("truncated ECDSA signature")
    r = int.from_bytes(data[:width], "big")
    s = int.from_bytes(data[width : 2 * width], "big")
    return ECDSASignature(r=r, s=s), data[2 * width :]
