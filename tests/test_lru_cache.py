"""The bounded pairing caches: LRU semantics, the 10k-identity memory
bound, and warm-verify correctness across evictions.

Regression tests for the serving-layer leak: ``PairingContext`` used to
memoise constant pairings in plain dicts that never evicted, so a verifier
facing an unbounded identity population grew without limit.  The caches
are now :class:`~repro.pairing.lru.LRUCache` instances - these tests pin
the bound, the eviction accounting, and the property that correctness
never depends on cache residency.
"""

import random

import pytest

from repro import obs
from repro.core.mccls import McCLS
from repro.pairing import groups as groups_module
from repro.pairing.bn import toy_curve
from repro.pairing.groups import PairingContext
from repro.pairing.lru import LRUCache

CURVE = toy_curve(32)


class TestLRUCache:
    def test_bound_and_eviction_order(self):
        cache = LRUCache(3)
        for i in range(5):
            cache[i] = i * 10
        assert len(cache) == 3
        assert cache.evictions == 2
        assert list(cache) == [2, 3, 4]  # 0 and 1 evicted first

    def test_get_freshens(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # "a" becomes most-recent
        cache["c"] = 3  # evicts "b", not "a"
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_hit_miss_and_peak_accounting(self):
        cache = LRUCache(4)
        cache["k"] = 1
        assert cache.get("k") == 1
        assert cache.get("absent") is None
        assert cache.get("absent", "fallback") == "fallback"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["peak_size"] == 1

    def test_on_evict_called_per_entry(self):
        calls = []
        cache = LRUCache(1, on_evict=lambda: calls.append(1))
        cache["a"] = 1
        cache["b"] = 2
        cache["c"] = 3
        assert len(calls) == 2

    def test_clear_is_not_an_eviction(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache.clear()
        assert len(cache) == 0
        assert cache.evictions == 0
        assert cache.peak_size == 1

    def test_overwrite_does_not_grow(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["a"] = 2
        assert len(cache) == 1
        assert cache.get("a") == 2
        assert cache.evictions == 0

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_ten_thousand_keys_stay_bounded(self):
        cache = LRUCache(64)
        for i in range(10_000):
            cache[i] = i
        assert len(cache) == 64
        assert cache.peak_size == 64
        assert cache.evictions == 10_000 - 64


class _FakeGT:
    """Stand-in Miller/GT value so cache-shape tests skip real pairings."""

    def conjugate(self):
        return self

    def __mul__(self, other):
        return self

    def is_one(self):
        return True


class TestPairingContextBound:
    def test_cache_size_validated(self):
        with pytest.raises(ValueError):
            PairingContext(CURVE, cache_size=0)

    def test_10k_distinct_identities_stay_bounded(self, monkeypatch):
        """The satellite regression: 10k identities, memory stays at the
        configured bound and every overflow is counted as an eviction.

        The Miller loop and final exponentiation are stubbed (their values
        are irrelevant to cache shape), so the test covers 10k *distinct
        cache keys* through the real codh_check_cached path in well under
        a second.
        """
        monkeypatch.setattr(
            groups_module, "miller_loop", lambda curve, p, q: _FakeGT()
        )
        monkeypatch.setattr(
            groups_module,
            "final_exponentiation",
            lambda curve, raw: _FakeGT(),
        )
        bound = 256
        spec = CURVE.spec
        with obs.collecting() as registry:
            ctx = PairingContext(CURVE, random.Random(7), cache_size=bound)
            left, right = CURVE.g1, CURVE.g2
            for i in range(10_000):
                # Distinct affine coordinates = distinct cache keys; the
                # points never reach real arithmetic (stubbed above).
                base = CURVE.g1_curve.unsafe_point(
                    spec.fp(i + 1), spec.fp(i + 2)
                )
                assert ctx.codh_check_cached(left, right, base, right)
        assert len(ctx._miller_cache) == bound
        assert ctx._miller_cache.peak_size == bound
        assert ctx._miller_cache.evictions == 10_000 - bound
        assert registry.counter_total("pairing.cache_evictions") == (
            10_000 - bound
        )
        assert registry.counter_total("pairing.cache_misses") == 10_000

    def test_warm_verify_correct_across_evictions(self):
        """With cache_size=2 and 3 identities, every verify keeps
        succeeding while entries churn - correctness never depends on
        residency, only cost does."""
        with obs.collecting() as registry:
            ctx = PairingContext(CURVE, random.Random(11), cache_size=2)
            scheme = McCLS(ctx, precompute_s=True)
            users = [
                scheme.generate_user_keys(f"node-{i}@cps") for i in range(3)
            ]
            signed = [
                (keys, scheme.sign(f"msg-{i}".encode(), keys))
                for i, keys in enumerate(users)
            ]
            for _round in range(3):
                for i, (keys, sig) in enumerate(signed):
                    assert scheme.verify(
                        f"msg-{i}".encode(),
                        sig,
                        keys.identity,
                        keys.public_key,
                    )
            assert len(ctx._miller_cache) <= 2
        # 3 identities rotating through a 2-slot cache must evict.
        assert ctx._miller_cache.evictions > 0
        assert registry.counter_total("pairing.cache_evictions") > 0
        # Every verify after an eviction re-fills cold: misses > identities.
        assert ctx._miller_cache.misses > 3

    def test_warm_hit_after_refill(self):
        ctx = PairingContext(CURVE, random.Random(13), cache_size=8)
        scheme = McCLS(ctx)
        keys = scheme.generate_user_keys("warm@cps")
        sig = scheme.sign(b"m", keys)
        assert scheme.verify(b"m", sig, keys.identity, keys.public_key)
        before = ctx.ops.cached_pairing_hits
        assert scheme.verify(b"m", sig, keys.identity, keys.public_key)
        assert ctx.ops.cached_pairing_hits == before + 1
