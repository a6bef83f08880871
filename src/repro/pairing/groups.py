"""A charm-crypto-style pairing-group facade with operation accounting.

Signature schemes route every expensive group operation through a
:class:`PairingContext` so the benchmark harness can reproduce the paper's
Table 1 (pairings / scalar multiplications / exponentiations per sign and
verify) by simply reading counters, and so the network simulator's crypto
timing model can charge the exact operation mix.

Every scalar multiplication takes one route (:meth:`PairingContext._mul`):
the GLV/GLS endomorphism split for in-range subgroup scalars, else a
one-term wNAF MSM, else ``point * scalar``.  No per-base tables are kept.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.obs import runtime as _rt

from repro.pairing import glv as _glv
from repro.pairing.bn import BNCurve, default_test_curve
from repro.pairing.curve import CurvePoint, point_key
from repro.pairing.fields import Fp12
from repro.pairing.lru import LRUCache
from repro.pairing.hashing import (
    Encodable,
    hash_to_g1,
    hash_to_g2,
    hash_to_scalar,
)
from repro.pairing.numbers import inverse_mod
from repro.pairing.pairing import (
    cyclotomic_exp,
    final_exponentiation,
    miller_loop,
    multi_pairing,
    pairing,
)

from repro.obs.registry import get_registry

#: default bound of the per-context pairing caches (GT values and conjugated
#: Miller values each).  Generous for a single node - a MANET node meets
#: tens of neighbours, a gateway thousands of identities per window - but
#: a bound, so an unbounded identity population can no longer grow the
#: process without limit (the serving-layer leak this replaces).
DEFAULT_CACHE_SIZE = 4096


def _count_pairing_eviction() -> None:
    get_registry().counter("pairing.cache_evictions").inc()


@dataclass
class OpCount:
    """Tally of expensive group operations (the units of paper Table 1)."""

    pairings: int = 0
    scalar_mults: int = 0  # G1 + G2 scalar multiplications combined
    g1_mults: int = 0
    g2_mults: int = 0
    gt_exps: int = 0
    group_hashes: int = 0
    cached_pairing_hits: int = 0

    def snapshot(self) -> "OpCount":
        """An independent copy of the current counters."""
        return OpCount(**vars(self))

    def diff(self, earlier: "OpCount") -> "OpCount":
        """Counter-wise difference against an earlier snapshot."""
        return OpCount(
            **{k: getattr(self, k) - getattr(earlier, k) for k in vars(self)}
        )

    def summary(self) -> str:
        """Compact Table 1-style rendering, e.g. '1p+2s'."""
        parts = []
        if self.pairings:
            parts.append(f"{self.pairings}p")
        if self.scalar_mults:
            parts.append(f"{self.scalar_mults}s")
        if self.gt_exps:
            parts.append(f"{self.gt_exps}e")
        return "+".join(parts) if parts else "0"


class PairingContext:
    """Bundle of curve + RNG + counters used by all signature schemes."""

    def __init__(
        self,
        curve: Optional[BNCurve] = None,
        rng: Optional[random.Random] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        *,
        backend=None,
        insecure_deterministic_batch: bool = False,
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        from repro.pairing import backends as _backends

        # Precedence: explicit kwarg > REPRO_FIELD_BACKEND env > default.
        # An explicit curve is rebound to the resolved backend (a cheap
        # element rewrap, no re-derivation) so curve and backend choices
        # compose instead of conflicting.
        self.backend = _backends.resolve_backend(backend)
        if curve is None:
            curve = default_test_curve(backend=self.backend)
        else:
            curve = curve.with_backend(self.backend)
        self.curve = curve
        self.rng = rng if rng is not None else random.Random()
        # Batch-verification weights/deltas must be unpredictable to an
        # adversary submitting signatures: the small-exponent test is only
        # sound against attackers who cannot predict the weights, and the
        # campaign seed (hence self.rng's stream) is public.  Gateway-side
        # batch randomness therefore comes from the OS CSPRNG unless the
        # caller explicitly opts into the seeded stream for reproducible
        # tests/campaigns.
        self.insecure_deterministic_batch = insecure_deterministic_batch
        self.ops = OpCount()
        self.cache_size = cache_size
        # Both memo caches are LRU-bounded: with more distinct identities
        # than cache_size the oldest constant pairings are evicted (counted
        # as pairing.cache_evictions) and simply re-verify cold - memory
        # stays bounded, correctness does not depend on residency.
        self._pairing_cache: LRUCache = LRUCache(
            cache_size, on_evict=_count_pairing_eviction
        )
        # Conjugated raw Miller values of constant pairs, for the co-DH
        # equality check (see codh_check_cached): warm checks then cost one
        # Miller loop + one shared final exponentiation, with no GT value
        # ever materialised for the constant side.  The conjugate stands in
        # for the inverse because the final exponentiation maps both to
        # the same GT element.
        self._miller_cache: LRUCache = LRUCache(
            cache_size, on_evict=_count_pairing_eviction
        )
        # Hash-to-G2 outputs (Q_ID and friends) keyed by (domain, items):
        # try-and-increment plus cofactor clearing is pure recomputation
        # for a repeat identity, and unlike the pairing caches the value
        # depends only on the curve — a KGC rekey does not invalidate it.
        # One entry is a single affine point (~a hundred bytes), orders of
        # magnitude lighter than an Fp12 Miller value, so it gets 8x the
        # population bound of the pairing caches.
        self._hash_g2_cache: LRUCache = LRUCache(8 * cache_size)

    # -- basic accessors -------------------------------------------------------
    @property
    def order(self) -> int:
        return self.curve.n

    @property
    def g1(self) -> CurvePoint:
        return self.curve.g1

    @property
    def g2(self) -> CurvePoint:
        return self.curve.g2

    def random_scalar(self) -> int:
        """A uniform non-zero scalar modulo the group order."""
        return self.rng.randrange(1, self.curve.n)

    def batch_randrange(self, start: int, stop: int) -> int:
        """Adversary-facing batch randomness (fold weights / deltas).

        Defaults to the OS CSPRNG: the seeded ``self.rng`` stream is
        predictable to anyone who knows the campaign seed, which would let
        a forger craft cancelling batches that pass the small-exponent
        test.  Construction with ``insecure_deterministic_batch=True``
        opts back into the seeded stream for byte-reproducible runs.
        """
        if self.insecure_deterministic_batch:
            return self.rng.randrange(start, stop)
        return start + secrets.randbelow(stop - start)

    def scalar_inverse(self, k: int) -> int:
        """k^-1 modulo the group order."""
        return inverse_mod(k, self.curve.n)

    def _mul(
        self,
        point: CurvePoint,
        scalar: int,
        *,
        g2: bool = False,
        in_subgroup: bool = False,
    ) -> CurvePoint:
        """Scalar multiplication: GLV/GLS first, then the generic tail.

        The GLV/GLS route only fires for int scalars already in (0, n) —
        so unreduced-scalar semantics (order and membership checks going
        through ``point * scalar`` directly) are never affected — and on
        G2 only when the caller vouched for subgroup membership
        (``in_subgroup=True``): the psi eigenvalue relation simply does
        not hold for cofactor components, and hostile signature points are
        exactly the values that must keep bit-exact generic semantics.
        """
        if not g2 or in_subgroup:
            result = _glv.try_mul(self.curve, point, scalar, g2=g2)
            if result is not None:
                return result
        if isinstance(scalar, int) and scalar != 0 and not point.is_infinity():
            # Generic tail: one-term wNAF MSM.  Same signed-window chain
            # (and op counts) on every backend, executed inside the
            # compiled point kernel when the backend provides one; no
            # endomorphism is involved, so hostile G2 points are safe.
            group_curve = self.curve.g2_curve if g2 else self.curve.g1_curve
            return _glv.msm(self.curve, group_curve, [(point, scalar)])
        return point * scalar

    # -- counted operations ----------------------------------------------------
    def g1_mul(self, point: CurvePoint, scalar: int) -> CurvePoint:
        """Counted G1 scalar multiplication."""
        self.ops.scalar_mults += 1
        self.ops.g1_mults += 1
        return self._mul(point, scalar)

    def g2_mul(
        self, point: CurvePoint, scalar: int, *, in_subgroup: bool = False
    ) -> CurvePoint:
        """Counted G2 scalar multiplication.

        ``in_subgroup=True`` asserts the point lies in the order-n subgroup
        (trusted values: Q_ID hashes, D_ID partial keys), unlocking the
        GLS endomorphism split.  Leave it False for attacker-controlled
        points such as signature components.
        """
        self.ops.scalar_mults += 1
        self.ops.g2_mults += 1
        return self._mul(point, scalar, g2=True, in_subgroup=in_subgroup)

    def g1_msm(
        self, pairs: Sequence[Tuple[CurvePoint, int]]
    ) -> CurvePoint:
        """Counted multi-scalar multiplication sum_i k_i * P_i on G1.

        One shared doubling chain across all terms (kernel-accelerated
        under the native backend) — the batch verifier's folding primitive.
        Counts as a single G1 multiplication in Table 1 units.
        """
        self.ops.scalar_mults += 1
        self.ops.g1_mults += 1
        tally = _rt.tally
        if tally is not None:
            tally.point_mul += 1
        return _glv.msm(self.curve, self.curve.g1_curve, pairs)

    def pair(self, p_point: CurvePoint, q_point: CurvePoint) -> Fp12:
        """Counted pairing e(P, Q)."""
        self.ops.pairings += 1
        return pairing(self.curve, p_point, q_point)

    def pair_cached(self, p_point: CurvePoint, q_point: CurvePoint) -> Fp12:
        """Pairing with memoisation for *constant* argument pairs.

        The paper's key efficiency claim is that McCLS verification only
        needs the constant pairing e(P_pub, Q_ID), which a verifier computes
        once per identity.  Cache hits are counted separately so benchmarks
        can report both cold and warm verification costs.

        Keys are the *normalized* affine coordinates (via
        :func:`~repro.pairing.curve.point_key`), so two point objects
        describing the same group element — e.g. one straight from a hash
        and one normalised out of Jacobian coordinates — share one cache
        entry instead of silently re-running the Miller loop.

        A cache fill also stores the pair's conjugated raw Miller value,
        so a verifier warmed through :meth:`pair_cached` is equally warm
        for :meth:`codh_check_cached` without a second Miller loop.
        """
        key = (point_key(p_point), point_key(q_point))
        registry = get_registry()
        cached = self._pairing_cache.get(key)
        if cached is not None:
            self.ops.cached_pairing_hits += 1
            registry.counter("pairing.cache_hits").inc()
            return cached
        registry.counter("pairing.cache_misses").inc()
        curve = self.curve
        tally = _rt.tally
        self.ops.pairings += 1
        if tally is not None:
            tally.pairings += 1
        with registry.phase("pairing.miller_loop"):
            raw = miller_loop(curve, p_point, q_point)
        with registry.phase("pairing.final_exp"):
            value = final_exponentiation(curve, raw)
        self._miller_cache[key] = raw.conjugate()
        self._pairing_cache[key] = value
        return value

    def multi_pair(self, pairs: Sequence[Tuple[CurvePoint, CurvePoint]]) -> Fp12:
        """Counted multi-pairing: prod e(P_i, Q_i), ONE final exponentiation.

        Each pair counts as one requested pairing (the Table 1 unit); the
        shared final exponentiation is what makes a k-pairing verify
        cheaper than k independent :meth:`pair` calls.
        """
        self.ops.pairings += len(pairs)
        return multi_pairing(self.curve, pairs)

    def multi_pair_check(
        self, pairs: Sequence[Tuple[CurvePoint, CurvePoint]]
    ) -> bool:
        """True iff prod e(P_i, Q_i) == 1 (one shared final exponentiation).

        The natural form for product-of-pairings verification equations:
        move every factor to one side, negate the G1 argument of the moved
        factors, and test against the identity.
        """
        return self.multi_pair(pairs).is_one()

    def codh_check_cached(
        self,
        left_g1: CurvePoint,
        right_g2: CurvePoint,
        base_g1: CurvePoint,
        target_g2: CurvePoint,
    ) -> bool:
        """e(left, right) == e(base, target), caching the constant side.

        The constant pair (base, target) — e(P_pub, Q_ID) in the paper —
        is cached as a *conjugated raw Miller value*, not a GT value.  A
        cold check therefore runs two Miller loops and exactly ONE final
        exponentiation (of the product); a warm check runs one Miller loop
        plus the shared final exponentiation and counts a cached-pairing
        hit, preserving the paper's "one pairing to verify" accounting.

        Conjugation is the p^6 Frobenius, and GT's order divides p^6 + 1,
        so FE(conj f) = FE(f)^(p^6) = FE(f)^-1: the conjugate is exact as
        the inverse under the final exponentiation, and free.
        """
        curve = self.curve
        key = (point_key(base_g1), point_key(target_g2))
        registry = get_registry()
        tally = _rt.tally
        m2_conj = self._miller_cache.get(key)
        if m2_conj is not None:
            self.ops.pairings += 1
            self.ops.cached_pairing_hits += 1
            registry.counter("pairing.cache_hits").inc()
            if tally is not None:
                tally.pairings += 1
            with registry.phase("pairing.miller_loop"):
                m1 = miller_loop(curve, left_g1, right_g2)
        else:
            registry.counter("pairing.cache_misses").inc()
            self.ops.pairings += 2
            if tally is not None:
                tally.pairings += 2
            with registry.phase("pairing.miller_loop"):
                m1 = miller_loop(curve, left_g1, right_g2)
                m2_conj = miller_loop(curve, base_g1, target_g2).conjugate()
            self._miller_cache[key] = m2_conj
        with registry.phase("pairing.final_exp"):
            return final_exponentiation(curve, m1 * m2_conj).is_one()

    def cached_gt(
        self, p_point: CurvePoint, q_point: CurvePoint
    ) -> Optional[Fp12]:
        """The memoised GT value for (P, Q), if :meth:`pair_cached` built one."""
        return self._pairing_cache.get((point_key(p_point), point_key(q_point)))

    def gt_exp(self, value: Fp12, scalar: int) -> Fp12:
        """Counted GT exponentiation (cyclotomic ladder).

        GT lies inside the cyclotomic subgroup of Fp12, so squarings use
        the Granger-Scott formulas and negative exponents cost only a
        conjugation.  ``value`` must be a pairing output (or other
        cyclotomic-subgroup element); anything else produces garbage.
        """
        self.ops.gt_exps += 1
        return cyclotomic_exp(value, scalar)

    def hash_g1(self, domain: bytes, *items: Encodable) -> CurvePoint:
        """Counted hash onto G1."""
        self.ops.group_hashes += 1
        return hash_to_g1(self.curve, domain, *items)

    def hash_g2(self, domain: bytes, *items: Encodable) -> CurvePoint:
        """Counted hash onto G2 (memoised: the output is rekey-invariant).

        Counts one group hash either way — Table 1 units describe the
        protocol, not the memo — but a repeat identity skips the
        try-and-increment search and the cofactor multiplication.
        """
        self.ops.group_hashes += 1
        try:
            key = (domain,) + tuple(
                point_key(item) if isinstance(item, CurvePoint) else item
                for item in items
            )
            hash(key)
        except TypeError:  # pragma: no cover - exotic unhashable encodable
            return hash_to_g2(self.curve, domain, *items)
        cached = self._hash_g2_cache.get(key)
        if cached is not None:
            return cached
        value = hash_to_g2(self.curve, domain, *items)
        self._hash_g2_cache[key] = value
        return value

    def hash_scalar(self, domain: bytes, *items: Encodable) -> int:
        """Hash onto Z_n (not counted; scalar work is cheap)."""
        return hash_to_scalar(self.curve, domain, *items)

    # -- accounting helpers ------------------------------------------------------
    def reset_ops(self) -> None:
        """Zero all operation counters."""
        self.ops = OpCount()

    def measure(self) -> "_OpMeter":
        """Context manager yielding the OpCount delta of the with-block."""
        return _OpMeter(self)

    def clear_pairing_cache(self) -> None:
        """Forget memoised constant pairings (GT and Miller-value caches)."""
        self._pairing_cache.clear()
        self._miller_cache.clear()

    def drop_fixed_base(self, point: CurvePoint) -> None:
        """No-op, kept for callers written against the old comb registry.

        Scalar multiplication no longer keeps per-base tables, so there is
        nothing to forget.  New code should not call this.
        """

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Size/peak/hit/miss/eviction accounting of every bounded cache."""
        return {
            "pairing": self._pairing_cache.stats(),
            "miller": self._miller_cache.stats(),
            "hash_g2": self._hash_g2_cache.stats(),
        }


class _OpMeter:
    """Context manager capturing the operation delta inside a with-block."""

    def __init__(self, ctx: PairingContext):
        self._ctx = ctx
        self.delta: Optional[OpCount] = None

    def __enter__(self) -> "_OpMeter":
        self._before = self._ctx.ops.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.delta = self._ctx.ops.diff(self._before)
