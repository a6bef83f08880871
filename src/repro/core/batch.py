"""Batch verification for McCLS signatures.

The IBS McCLS descends from (paper reference [15], Yoon-Cheon-Kim) was
built for *batch verification*; this module carries the idea over to the
certificateless setting as the natural extension the paper leaves implicit.

A single McCLS signature verifies through

    e(V_i*P - h_i*R_i, S_i/h_i) == e(P_pub, Q_IDi).

k independent left pairings cannot be merged (the G2 arguments differ per
signature), but the **same-signer** case - the dominant one on a MANET
node that just received a burst of routing messages from one neighbour -
collapses, because S_i = x^{-1}*D_ID is constant per signer:

    prod_i e(V_i*P - h_i*R_i, S/h_i)
      = e( sum_i  c_i*(V_i*P - h_i*R_i) * (h_i^{-1} mod n), S )   [weights c_i]
      = e(P_pub, Q_ID)^(sum c_i)

so k signatures from one signer cost **one** pairing plus one cached
constant, independent of k.  Random small weights c_i guard against forged
batches whose errors cancel (standard small-exponent test).  The weight sum
w = sum c_i moves to G1 (the aggregate is scaled by w^{-1} mod n), so the
check is e(w^{-1}*A, S) == e(P_pub, Q_ID) and no GT exponentiation is needed.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.mccls import McCLS, McCLSSignature
from repro.errors import ReproError
from repro.obs.registry import get_registry
from repro.pairing.curve import CurvePoint, point_key
from repro.pairing.groups import PairingContext
from repro.pairing.lru import LRUCache
from repro.schemes.base import Message, UserKeyPair, normalize_message

#: (message, signature) pairs from a single signer
BatchItem = Tuple[Message, McCLSSignature]

#: (message, signature, identity, public_key) from arbitrary signers
CrossSignerItem = Tuple[Message, McCLSSignature, str, CurvePoint]

#: bit width of the random fold weights (the small-exponent test): a batch
#: of forged items survives a fold with probability ~ 2^-80
DELTA_BITS = 80

#: anchor-cache marker for signers whose S is on the twist but outside the
#: order-n subgroup: the kernel-of-the-pairing argument behind the G1
#: anchor test needs prime order, so these verify per-item forever
_UNANCHORABLE = object()


class _CrossStats:
    """Mutable counters for one verify_cross_signer call."""

    __slots__ = (
        "folds",
        "fold_sizes",
        "bisections",
        "exact_checks",
        "admission_pairings",
        "admitted_signers",
    )

    def __init__(self) -> None:
        self.folds = 0
        self.fold_sizes: List[int] = []
        self.bisections = 0
        self.exact_checks = 0
        self.admission_pairings = 0
        self.admitted_signers = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "folds": self.folds,
            "fold_sizes": list(self.fold_sizes),
            "bisections": self.bisections,
            "exact_checks": self.exact_checks,
            "admission_pairings": self.admission_pairings,
            "admitted_signers": self.admitted_signers,
        }


class _CrossItem:
    """One structurally-valid batch item with its fold data."""

    __slots__ = ("index", "key", "identity", "public_key", "sig", "h_inv", "delta")

    def __init__(self, index, key, identity, public_key, sig, h_inv, delta):
        self.index = index
        self.key = key
        self.identity = identity
        self.public_key = public_key
        self.sig = sig
        self.h_inv = h_inv
        self.delta = delta


class McCLSBatchVerifier:
    """Same-signer batch verification (one pairing per batch).

    Also conforms to :class:`repro.schemes.base.SchemeProtocol` by
    delegating the single-signature surface to the wrapped scheme, so the
    wrapper can stand anywhere a scheme is expected (the batching is an
    extra capability, not a different API).
    """

    name = "mccls-batch"

    #: bound on remembered signer anchors (see verify_cross_signer)
    ANCHOR_CACHE_SIZE = 4096

    def __init__(self, scheme: McCLS):
        self.scheme = scheme
        self.ctx: PairingContext = scheme.ctx
        # identity-bound anchors W = x*P for signers whose first signature
        # passed a pairing check; keyed by (identity, P_ID, S, P_pub) so a
        # key rotation or a replaced public key can never match a stale
        # anchor.  LRU-bounded: eviction only costs re-admission.
        self._signer_anchors: LRUCache = LRUCache(self.ANCHOR_CACHE_SIZE)

    # -- SchemeProtocol surface (delegated) -----------------------------------
    def generate_user_keys(self, identity) -> UserKeyPair:
        """Delegates to the wrapped scheme."""
        return self.scheme.generate_user_keys(identity)

    def sign(self, message: Message, keys: UserKeyPair) -> McCLSSignature:
        """Delegates to the wrapped scheme."""
        return self.scheme.sign(message, keys)

    def verify(
        self,
        message: Message,
        signature: McCLSSignature,
        identity,
        public_key=None,
        public_key_extra=None,
    ) -> bool:
        """Delegates single-signature verification to the wrapped scheme."""
        return self.scheme.verify(
            message, signature, identity, public_key, public_key_extra
        )

    def verify_same_signer(
        self,
        items: Sequence[BatchItem],
        identity: str,
        public_key,
    ) -> bool:
        """Verify a batch of signatures all made by ``identity``.

        Falls back to ``True`` for an empty batch.  All signatures in a
        valid batch share the same S component (it is message-independent
        for a fixed signer); mixed-S batches are verified per-item since
        the aggregation precondition fails.
        """
        if not items:
            return True
        first_s = items[0][1].s
        if any(sig.s != first_s for _, sig in items):
            return all(
                self.scheme.verify(msg, sig, identity, public_key)
                for msg, sig in items
            )

        curve = self.ctx.curve
        n = self.ctx.order
        if first_s.is_infinity() or not curve.g2_curve.contains(first_s):
            return False

        # sum_i w_i h_i^{-1} (v_i*P - h_i*R_i)
        #   = (sum_i w_i h_i^{-1} v_i) * P  -  sum_i w_i * R_i
        # — one shared-doubling MSM over k+1 terms instead of three
        # scalar multiplications per item (weights reduced mod n: G1 has
        # cofactor 1, so every on-curve R_i has order n).
        total = 0
        terms: List[Tuple[CurvePoint, int]] = []
        weight_sum = 0
        for message, sig in items:
            msg = normalize_message(message)
            if not (0 < sig.v < n) or not curve.g1_curve.contains(sig.r):
                return False
            h = self.ctx.hash_scalar(b"H2/mccls", msg, sig.r, public_key)
            weight = self.ctx.batch_randrange(1, 1 << 64)
            h_inv = self.ctx.scalar_inverse(h)
            total = (total + weight * h_inv * sig.v) % n
            terms.append((sig.r, -(weight % n)))
            weight_sum = (weight_sum + weight) % n
        if weight_sum == 0:
            # Only reachable when n < 2^64 (toy curves): no w^-1 exists,
            # so answer exactly instead.
            return all(
                self.scheme.verify(msg, sig, identity, public_key)
                for msg, sig in items
            )
        aggregate = self.ctx.g1_msm([(self.ctx.g1, total)] + terms)
        aggregate = self.ctx.g1_mul(
            aggregate, self.ctx.scalar_inverse(weight_sum)
        )

        q_id = self.scheme.q_of(identity)
        # e(w^-1 * aggregate, S) == e(P_pub, Q_ID) is equivalent to
        # e(aggregate, S) == e(P_pub, Q_ID)^w, and shares the Miller-value
        # cache with single verifies: warm batches cost exactly one pairing
        # regardless of k, cold batches two Miller loops and one final
        # exponentiation.
        return self.ctx.codh_check_cached(
            aggregate, first_s, self.scheme.p_pub_g1, q_id
        )

    # -- cross-signer batching (gateway windows) ------------------------------
    #
    # A valid McCLS signature satisfies
    #
    #     e(v*P - h*R, h^{-1}*S) == e(P_pub, Q_ID)
    #  =  e(h^{-1}v*P - R, S)    == e(P_pub, Q_ID).
    #
    # For a fixed signer the point  W := h^{-1}v*P - R  is therefore the
    # *same* for every valid signature (it equals x*P), and once ONE
    # pairing check has established  e(W, S) == e(P_pub, Q_ID)  for an S of
    # prime order n, non-degeneracy of the pairing on the prime-order G1
    # makes the per-item check *equivalent* to the pure-G1 equation
    #
    #     h_i^{-1} v_i * P - R_i == W.
    #
    # A mixed-signer window then folds into ONE fixed-base multiplication
    # and ONE multi-scalar multiplication over random 80-bit weights d_i:
    #
    #     (sum_i d_i h_i^{-1} v_i) * P == sum_i d_i R_i + sum_s (sum d) W_s
    #
    # with zero pairings in the steady state.  Unknown signers are admitted
    # through one shared-final-exponentiation multi-pairing; failed folds
    # bisect (reusing each item's weight) down to exact per-item verifies.

    def verify_cross_signer(
        self, items: Sequence[CrossSignerItem]
    ) -> Tuple[List[bool], Dict[str, object]]:
        """Verify a mixed-signer window; returns (verdicts, fold stats).

        Each item is ``(message, signature, identity, public_key)``.
        Verdicts match per-item :meth:`McCLS.verify` (up to the standard
        small-exponent batch soundness bound of ~2^-80): structural
        rejects, failed folds located by bisection, and non-subgroup-S
        signers all land on exactly what the single verifier would say.
        """
        registry = get_registry()
        registry.counter("batch.cross_signer").inc()
        stats = _CrossStats()
        verdicts: List[bool] = [False] * len(items)
        if not items:
            return verdicts, stats.as_dict()
        ctx = self.ctx
        curve = ctx.curve
        n = ctx.order
        p_pub_key = point_key(self.scheme.p_pub_g1)

        known: List[_CrossItem] = []
        unknown: List[_CrossItem] = []
        for index, (message, sig, identity, public_key) in enumerate(items):
            try:
                msg = normalize_message(message)
                if not isinstance(sig, McCLSSignature):
                    continue
                if not (0 < sig.v < n):
                    continue
                if not curve.g1_curve.contains(sig.r):
                    continue
                if sig.s.is_infinity() or not curve.g2_curve.contains(sig.s):
                    continue
                h = ctx.hash_scalar(b"H2/mccls", msg, sig.r, public_key)
                h_inv = ctx.scalar_inverse(h)
            except (ReproError, ValueError, ZeroDivisionError, ArithmeticError):
                continue  # verdict stays False, like McCLS.verify
            item = _CrossItem(
                index=index,
                key=(identity, point_key(public_key), point_key(sig.s), p_pub_key),
                identity=identity,
                public_key=public_key,
                sig=sig,
                h_inv=h_inv,
                delta=ctx.batch_randrange(1, 1 << DELTA_BITS),
            )
            anchor = self._signer_anchors.get(item.key)
            if anchor is _UNANCHORABLE:
                # S outside the order-n subgroup: the anchor equivalence
                # does not apply, delegate to the exact verifier forever.
                stats.exact_checks += 1
                verdicts[index] = self.scheme.verify(
                    message, sig, identity, public_key
                )
            elif anchor is not None:
                known.append(item)
            else:
                unknown.append(item)

        if unknown:
            self._admit_signers(items, unknown, verdicts, stats)
        if known:
            self._fold_anchored(items, known, verdicts, stats)
        registry.counter("batch.bisections").inc(stats.bisections)
        return verdicts, stats.as_dict()

    # -- admission: signers without an anchor yet -----------------------------
    def _anchor_of(self, item: _CrossItem) -> CurvePoint:
        """W = h^{-1}v*P - R for one item (equals x*P when the item is valid)."""
        ctx = self.ctx
        return ctx.g1_msm(
            [(ctx.g1, (item.h_inv * item.sig.v) % ctx.order), (item.sig.r, -1)]
        )

    def _admit_signers(self, items, group: List[_CrossItem], verdicts, stats) -> None:
        """One multi-pairing over every new-signer item, then anchor them."""
        pairwise: List[_CrossItem] = []
        checked = set()
        for item in group:
            if item.key not in checked and self._signer_anchors.get(item.key) is None:
                # Anchoring demands full subgroup membership of S (checked
                # once per signer per call - the order-n multiplication
                # is the dearest step of a cold admission); on-curve-but-
                # wrong-order points fall back to exact per-item
                # verification permanently.
                checked.add(item.key)
                if not self.ctx.curve.in_g2(item.sig.s):
                    self._signer_anchors[item.key] = _UNANCHORABLE
            anchor = self._signer_anchors.get(item.key)
            if anchor is _UNANCHORABLE:
                stats.exact_checks += 1
                verdicts[item.index] = self.scheme.verify(
                    items[item.index][0], item.sig, item.identity, item.public_key
                )
            elif anchor is not None:
                # an earlier bisection branch of this window admitted it
                self._fold_anchored(items, [item], verdicts, stats)
            else:
                pairwise.append(item)
        if pairwise:
            self._admission_round(items, pairwise, verdicts, stats)

    def _admission_round(self, items, group: List[_CrossItem], verdicts, stats) -> None:
        """multi_pair_check of a new-signer slice; bisect on failure."""
        ctx = self.ctx
        n = ctx.order
        try:
            q_sum = ctx.curve.g2_curve.infinity()
            q_weights: Dict[str, int] = {}
            # Items sharing one signer key also share S, so their G1 sides
            # add up into a single pairing slot (e(a,S)e(b,S) = e(a+b,S)):
            # the multi-pairing costs one Miller loop per *signer*, not
            # per item.
            p_coeff: Dict[tuple, int] = {}
            r_terms: Dict[tuple, List[Tuple[CurvePoint, int]]] = {}
            s_of: Dict[tuple, CurvePoint] = {}
            for item in group:
                coeff = (item.delta * item.h_inv) % n
                # delta*h^{-1}*(v*P - h*R) = (delta*h^{-1}*v)*P - delta*R
                # (delta reduced mod n first: G1 has cofactor 1, so every
                # on-curve R has order n and the reduction is exact)
                p_coeff[item.key] = (
                    p_coeff.get(item.key, 0) + coeff * item.sig.v
                ) % n
                r_terms.setdefault(item.key, []).append(
                    (item.sig.r, -(item.delta % n))
                )
                s_of[item.key] = item.sig.s
                q_weights[item.identity] = (
                    q_weights.get(item.identity, 0) + item.delta
                ) % n
            pairs = [
                (
                    ctx.g1_msm([(ctx.g1, p_coeff[key])] + terms),
                    s_of[key],
                )
                for key, terms in r_terms.items()
            ]
            for identity, weight in q_weights.items():
                q_id = self.scheme.q_of(identity)
                if weight:
                    q_sum = q_sum + ctx.g2_mul(q_id, weight, in_subgroup=True)
            pairs.append((-self.scheme.p_pub_g1, q_sum))
            stats.admission_pairings += 1
            ok = ctx.multi_pair_check(pairs)
        except (ReproError, ValueError, ZeroDivisionError, ArithmeticError):
            ok = False
        if ok:
            for item in group:
                verdicts[item.index] = True
                if self._signer_anchors.get(item.key) is None:
                    self._signer_anchors[item.key] = self._anchor_of(item)
                    stats.admitted_signers += 1
            return
        if len(group) == 1:
            item = group[0]
            stats.exact_checks += 1
            verdicts[item.index] = self.scheme.verify(
                items[item.index][0], item.sig, item.identity, item.public_key
            )
            if verdicts[item.index] and self._signer_anchors.get(item.key) is None:
                self._signer_anchors[item.key] = self._anchor_of(item)
                stats.admitted_signers += 1
            return
        stats.bisections += 1
        half = len(group) // 2
        self._admission_round(items, group[:half], verdicts, stats)
        self._admission_round(items, group[half:], verdicts, stats)

    # -- steady state: anchored signers, zero pairings ------------------------
    def _fold_anchored(self, items, group: List[_CrossItem], verdicts, stats) -> None:
        """Random-weight G1 fold of anchored items; bisect on mismatch."""
        ctx = self.ctx
        n = ctx.order
        total = 0
        terms: List[Tuple[CurvePoint, int]] = []
        anchor_weights: Dict[tuple, int] = {}
        anchors: Dict[tuple, CurvePoint] = {}
        stale: List[_CrossItem] = []
        live: List[_CrossItem] = []
        for item in group:
            if item.key not in anchors:
                anchors[item.key] = self._signer_anchors.get(item.key)
            anchor = anchors[item.key]
            if anchor is None or anchor is _UNANCHORABLE:
                # evicted (or demoted) between grouping and folding — a
                # giant window of distinct signers can do this; verify
                # exactly rather than fold against a missing anchor
                stale.append(item)
                continue
            live.append(item)
            total = (total + item.delta * item.h_inv * item.sig.v) % n
            # 80-bit fold weight reduced mod n before walking the wNAF
            # chain (exact: G1 cofactor is 1, so R has order n)
            terms.append((item.sig.r, item.delta % n))
            anchor_weights[item.key] = (
                anchor_weights.get(item.key, 0) + item.delta
            ) % n
        for item in stale:
            stats.exact_checks += 1
            verdicts[item.index] = self.scheme.verify(
                items[item.index][0], item.sig, item.identity, item.public_key
            )
        group = live
        if not group:
            return
        for key, weight in anchor_weights.items():
            terms.append((anchors[key], weight))
        stats.folds += 1
        stats.fold_sizes.append(len(group))
        # (sum d_i h_i^{-1} v_i)*P on the GLV route vs one MSM.
        if ctx.g1_mul(ctx.g1, total) == ctx.g1_msm(terms):
            for item in group:
                verdicts[item.index] = True
            return
        if len(group) == 1:
            item = group[0]
            stats.exact_checks += 1
            ok = self.scheme.verify(
                items[item.index][0], item.sig, item.identity, item.public_key
            )
            verdicts[item.index] = ok
            if ok:
                # exact pass but anchor fold miss: the cached anchor was
                # stale/corrupt — re-derive it from this verified item
                self._signer_anchors[item.key] = self._anchor_of(item)
            return
        stats.bisections += 1
        half = len(group) // 2
        self._fold_anchored(items, group[:half], verdicts, stats)
        self._fold_anchored(items, group[half:], verdicts, stats)

    def sign_batch(
        self, messages: Sequence[Message], keys: UserKeyPair
    ) -> Sequence[BatchItem]:
        """Convenience: sign many messages with one key."""
        return [(msg, self.scheme.sign(msg, keys)) for msg in messages]


#: Unified-API name (the class predates the SchemeProtocol naming).
BatchVerifier = McCLSBatchVerifier
