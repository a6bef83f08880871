"""System-parameter view of a certificateless deployment.

Separates the three trust roles the paper's architecture implies:

* the **KGC** (owns the master secret, issues partial private keys),
* **users** (combine the partial key with a self-chosen secret value),
* **verifiers** (hold only the public parameters).

The network simulator hands every node a :class:`PublicParams`, gives each
legitimate node its :class:`UserKeyPair` via the KGC, and gives attacker
nodes *nothing* - which is exactly why their forged routing messages fail
verification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Type

from repro.pairing.bn import BNCurve
from repro.pairing.curve import CurvePoint
from repro.pairing.groups import PairingContext
from repro.schemes.base import CertificatelessScheme, Identity, UserKeyPair


@dataclass(frozen=True)
class PublicParams:
    """What the paper calls (P, P_pub, H1, H2): the verifier's world view."""

    scheme_name: str
    curve_name: str
    g1: CurvePoint
    g2: CurvePoint
    p_pub_g1: CurvePoint
    p_pub_g2: CurvePoint
    order: int


class KeyGenerationCenter:
    """The KGC role: Setup plus partial-key issuance for a chosen scheme.

    Wraps a scheme instance, hands out user key material, and never leaks
    the master secret through the public surface.
    """

    def __init__(
        self,
        scheme_cls: Type[CertificatelessScheme],
        curve: Optional[BNCurve] = None,
        seed: Optional[int] = None,
        master_secret: Optional[int] = None,
        cache_size: Optional[int] = None,
        backend=None,
    ):
        rng = random.Random(seed)
        kwargs = {"backend": backend}
        if cache_size is not None:
            kwargs["cache_size"] = cache_size
        # PairingContext supplies the default curve (on the resolved
        # backend) and rebinds an explicit one.
        self.ctx = PairingContext(curve, rng, **kwargs)
        self.scheme = scheme_cls(self.ctx, master_secret=master_secret)
        self._issued: Dict[str, UserKeyPair] = {}

    def public_params(self) -> PublicParams:
        """The verifier's world view (P, P_pub, order, curve)."""
        return PublicParams(
            scheme_name=self.scheme.name,
            curve_name=self.ctx.curve.name,
            g1=self.ctx.g1,
            g2=self.ctx.g2,
            p_pub_g1=self.scheme.p_pub_g1,
            p_pub_g2=self.scheme.p_pub_g2,
            order=self.ctx.order,
        )

    def rekey(self, new_secret: Optional[int] = None) -> PublicParams:
        """Rotate the master secret and re-issue every enrolled identity.

        Models the operational KGC rekey (e.g. after a suspected
        compromise or an outage): a fresh master secret invalidates every
        outstanding partial key, so all issued users are re-enrolled under
        the new one.  The scheme-level rotation also purges every cache
        derived from the old P_pub - memoised constant pairings and
        scheme-private signer caches - so the
        first verify after a rekey runs cold *exactly once* per identity
        instead of reading stale material.  Returns the new public params
        (verifiers must refresh theirs).
        """
        self.scheme.rotate_master_secret(new_secret)
        for identity in self.issued_identities():
            self._issued[identity] = self.scheme.generate_user_keys(identity)
        return self.public_params()

    def enroll(self, identity: Identity) -> UserKeyPair:
        """Full enrollment: partial key extraction + user key generation.

        In a real deployment stages 2 and 3 run on different machines; the
        simulator treats the returned object as having been provisioned
        out-of-band before the network starts (as the paper assumes).
        """
        keys = self.scheme.generate_user_keys(identity)
        self._issued[keys.identity] = keys
        return keys

    def issued_identities(self):
        """Sorted identities enrolled so far."""
        return sorted(self._issued)

    def keys_for(self, identity: str) -> UserKeyPair:
        """Key material previously issued to ``identity``."""
        return self._issued[identity]
