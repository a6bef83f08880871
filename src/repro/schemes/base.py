"""Common interfaces and key material types for all signature schemes.

Every certificateless scheme in this package follows the five-stage shape
from Al-Riyami & Paterson that the paper adopts:

1. ``Setup``                    (KGC: master key s, public params)
2. ``Extract-Partial-Private-Key(ID)``  (KGC: D_ID from s and the identity)
3. ``Generate-Key-Pair``        (user: secret value x, public key P_ID)
4. ``Sign``                     (user: needs both D_ID and x)
5. ``Verify``                   (anyone: needs params, ID, P_ID)

All schemes are instantiated on a type-3 pairing (G1 x G2 -> GT); identity
hashes land in G2 and the "P side" in G1 (DESIGN.md 4.1).  Every group
operation goes through the scheme's :class:`~repro.pairing.groups
.PairingContext`, which is how the Table 1 operation counts are measured.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Protocol, Tuple, Union, runtime_checkable

from repro.errors import KeyError_
from repro.obs.registry import get_registry
from repro.pairing.curve import CurvePoint
from repro.pairing.groups import OpCount, PairingContext

Message = Union[bytes, str]
Identity = Union[bytes, str]


@runtime_checkable
class SchemeProtocol(Protocol):
    """The unified signature-scheme surface.

    Everything the simulator, the benchmarks, and the registry touch speaks
    this protocol — the certificateless schemes, the hardened variant, the
    batch-verifier wrapper, and the IBS/BLS/ECDSA baselines alike:

    * ``name`` — short registry name (drives the crypto timing model).
    * ``generate_user_keys(identity)`` — all per-user key material, as an
      object with at least ``identity`` and ``public_key`` attributes.
    * ``sign(message, keys)`` — signature over the message.
    * ``verify(message, signature, identity, public_key, ...)`` — boolean
      check from public information only.  Schemes that do not bind
      identities (BLS, ECDSA) accept and ignore the identity argument;
      schemes without standalone public keys (IBS) accept ``public_key=None``.
    """

    name: str

    def generate_user_keys(self, identity: Identity):
        """All per-user key material (has identity + public_key attrs)."""

    def sign(self, message: Message, keys):
        """A signature over ``message`` under ``keys``."""

    def verify(
        self,
        message: Message,
        signature,
        identity: Identity,
        public_key=None,
        public_key_extra=None,
    ) -> bool:
        """Check a signature from public information only."""
        ...


@dataclass(frozen=True)
class PartialPrivateKey:
    """KGC-issued partial key: D_ID = s * H1(ID) plus the hashed identity."""

    identity: str
    q_id: CurvePoint  # H1(ID), in G2
    d_id: CurvePoint  # s * Q_ID, in G2


@dataclass(frozen=True)
class UserKeyPair:
    """Full certificateless key material held by one user."""

    identity: str
    secret_value: int  # x, chosen by the user, unknown to the KGC
    public_key: CurvePoint  # scheme-specific; single point for most schemes
    partial: PartialPrivateKey
    # AP is the only scheme with a 2-point public key ("PubKey Len 2 points"
    # in Table 1); other schemes leave this None.
    public_key_extra: Optional[CurvePoint] = None
    # Schemes that derive a long-term full private key at key-generation
    # time (AP: S_A = x * D_ID) store it here so signing does not pay the
    # derivation again on every message.
    full_private_key: Optional[CurvePoint] = None

    def public_key_points(self) -> Tuple[CurvePoint, ...]:
        """The public key as a tuple of points (1 or 2)."""
        if self.public_key_extra is not None:
            return (self.public_key, self.public_key_extra)
        return (self.public_key,)


def normalize_identity(identity: Identity) -> str:
    """Canonicalise an identity to str (UTF-8 decodes bytes)."""
    if isinstance(identity, bytes):
        return identity.decode("utf-8")
    if isinstance(identity, str):
        return identity
    raise KeyError_(f"identity must be str or bytes, got {type(identity).__name__}")


def normalize_message(message: Message) -> bytes:
    """Canonicalise a message to bytes (UTF-8 encodes str)."""
    if isinstance(message, str):
        return message.encode("utf-8")
    if isinstance(message, bytes):
        return message
    raise TypeError(f"message must be str or bytes, got {type(message).__name__}")


class CertificatelessScheme(abc.ABC):
    """Abstract base of the four CLS schemes compared in the paper.

    A scheme instance *is* a KGC: it owns the master secret generated at
    construction (or accepts one for reproducibility) and exposes the user
    and verifier operations.  Verifiers in a real deployment hold only
    ``public_params()``; the split is preserved by the network simulator,
    which never reads ``master_secret`` from non-KGC nodes.
    """

    #: short registry name, e.g. "mccls", "ap"
    name: str = ""
    #: H1 domain override: a variant scheme (e.g. McCLS+) sets this to its
    #: parent's name so identity hashes - and thus keys and signatures -
    #: stay interchangeable with the parent scheme
    h1_compat_name: str = ""
    #: number of G1/G2 points in a user public key (paper Table 1 row 3)
    public_key_length_points: int = 1

    def __init__(self, ctx: PairingContext, master_secret: Optional[int] = None):
        self.ctx = ctx
        curve = ctx.curve
        self.master_secret = (
            master_secret % curve.n if master_secret else ctx.random_scalar()
        )
        if self.master_secret == 0:
            raise KeyError_("master secret must be non-zero")
        # P_pub on both sides of the pairing: schemes pick what they need.
        self.p_pub_g1 = curve.g1 * self.master_secret
        self.p_pub_g2 = curve.g2 * self.master_secret

    # -- rekey ----------------------------------------------------------------
    def rotate_master_secret(self, new_secret: Optional[int] = None) -> int:
        """Replace the master secret (and P_pub) with a fresh one.

        The operational response to a suspected KGC compromise: every
        previously issued partial key and every signature made under it
        stops verifying, so the caller must re-issue user key material
        afterwards (see ``KeyGenerationCenter.rekey``).

        Crucially this also invalidates every derived artifact of the old
        P_pub, which would otherwise stay alive (or worse, keep being
        *used*): the memoised e(P_pub, Q_ID) GT/Miller cache entries and
        any scheme-private caches (via the :meth:`_on_rekey` hook).
        Returns the new master secret.
        """
        curve = self.ctx.curve
        secret = (
            new_secret % curve.n if new_secret else self.ctx.random_scalar()
        )
        if secret == 0:
            raise KeyError_("master secret must be non-zero")
        self.master_secret = secret
        self.p_pub_g1 = curve.g1 * secret
        self.p_pub_g2 = curve.g2 * secret
        # Old e(P_pub, Q_ID) entries are dead weight at best (the cache key
        # includes P_pub, so they can never match again) - drop them all.
        self.ctx.clear_pairing_cache()
        self._on_rekey()
        get_registry().counter("kgc.rekeys").inc()
        return self.master_secret

    def _on_rekey(self) -> None:
        """Hook for scheme-private cache invalidation on master rekey."""

    # -- stage 2: KGC ---------------------------------------------------------
    def _h1_domain(self) -> bytes:
        return b"H1/" + (self.h1_compat_name or self.name).encode()

    def extract_partial_key(self, identity: Identity) -> PartialPrivateKey:
        """D_ID = s * H1(ID).  Run by the KGC over a secure channel."""
        ident = normalize_identity(identity)
        q_id = self.ctx.hash_g2(self._h1_domain(), ident)
        # Q_ID is a cofactor-cleared hash output, so the GLS fast path is
        # sound here.
        d_id = self.ctx.g2_mul(q_id, self.master_secret, in_subgroup=True)
        return PartialPrivateKey(identity=ident, q_id=q_id, d_id=d_id)

    # -- stage 3: user --------------------------------------------------------
    @abc.abstractmethod
    def generate_user_keys(self, identity: Identity) -> UserKeyPair:
        """Pick the secret value x and derive the user public key."""

    # -- stages 4/5 -----------------------------------------------------------
    @abc.abstractmethod
    def sign(self, message: Message, keys: UserKeyPair):
        """Produce a signature; requires both D_ID and the secret value."""

    @abc.abstractmethod
    def verify(
        self,
        message: Message,
        signature,
        identity: Identity,
        public_key: CurvePoint,
        public_key_extra: Optional[CurvePoint] = None,
    ) -> bool:
        """Check a signature given only public information."""

    # -- shared helpers --------------------------------------------------------
    def q_of(self, identity: Identity) -> CurvePoint:
        """Public recomputation of Q_ID = H1(ID) (not counted as secret)."""
        return self.ctx.hash_g2(self._h1_domain(), normalize_identity(identity))

    def measure_sign(self, message: Message, keys: UserKeyPair):
        """Return (signature, OpCount) for one signing operation.

        The call also runs inside an obs phase ``<scheme>.sign``, so an
        active :mod:`repro.obs` registry additionally receives the
        field-level operation counts under that label.
        """
        with get_registry().phase(f"{self.name}.sign"):
            with self.ctx.measure() as meter:
                sig = self.sign(message, keys)
        return sig, meter.delta

    def measure_verify(
        self,
        message: Message,
        signature,
        keys: UserKeyPair,
    ) -> Tuple[bool, OpCount]:
        """Return (ok, OpCount) for one verification (cold caches unless
        the caller pre-warmed them).

        Runs inside an obs phase ``<scheme>.verify`` (see
        :meth:`measure_sign`).
        """
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

    # Expected Table 1 profiles, as (pairings, scalar_mults, exponentiations).
    #: operation profile the paper's Table 1 claims for Sign
    paper_sign_profile: Tuple[int, int, int] = (0, 0, 0)
    #: operation profile the paper's Table 1 claims for Verify
    paper_verify_profile: Tuple[int, int, int] = (0, 0, 0)
