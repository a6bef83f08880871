"""Service-layer session fast path: SESSION / VERIFY_FAST end to end.

Covers the wire codecs, the gateway's bounded session table, the
handshake-then-MAC flow in-process and through real worker processes,
replay and tamper rejection, and the rekey invalidation chain (flush,
unknown-session rejection, transparent client re-handshake).
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.session import EstablishedSession
from repro.errors import SerializationError, ServiceError
from repro.pairing.bn import toy_curve
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.protocol import Opcode, Status
from repro.service.server import SessionTable, VerificationGateway

CURVE = toy_curve(32)
MSG = b"steady-state route update"


def gateway_test(coro_factory, **gateway_kwargs):
    """Run one async test body against a fresh started gateway."""

    async def main():
        gateway_kwargs.setdefault("curve", CURVE)
        gateway_kwargs.setdefault("seed", 5)
        gateway = VerificationGateway(**gateway_kwargs)
        await gateway.start()
        try:
            return await coro_factory(gateway)
        finally:
            await gateway.stop()

    return asyncio.run(main())


async def connected_client(gateway) -> ServiceClient:
    client = ServiceClient(gateway.host, gateway.port)
    await client.connect()
    return client


async def established_client(gateway, identity="fast-node"):
    """Enrol + handshake; returns (client, keys)."""
    client = await connected_client(gateway)
    await client.params()
    keys = await client.enroll(identity)
    await client.start_session(keys, rng=random.Random(0xFA57))
    return client, keys


def _session(sid: bytes, identity: str = "node") -> EstablishedSession:
    return EstablishedSession(
        session_id=sid, key=b"k" * 32, client_identity=identity,
        gateway_identity="gw",
    )


class TestSessionTable:
    def test_lru_eviction_at_capacity(self):
        table = SessionTable(capacity=2, ttl_s=60.0)
        table.put(_session(b"a" * 16), now=0.0)
        table.put(_session(b"b" * 16), now=1.0)
        # touch "a" so "b" becomes the LRU victim
        assert table.get(b"a" * 16, now=2.0) is not None
        table.put(_session(b"c" * 16), now=3.0)
        assert table.evictions == 1
        assert table.get(b"b" * 16, now=4.0) is None
        assert table.get(b"a" * 16, now=4.0) is not None
        assert table.get(b"c" * 16, now=4.0) is not None

    def test_ttl_runs_from_establishment_not_last_use(self):
        table = SessionTable(capacity=8, ttl_s=10.0)
        table.put(_session(b"a" * 16), now=0.0)
        assert table.get(b"a" * 16, now=9.9) is not None  # no TTL refresh
        assert table.get(b"a" * 16, now=10.0) is None
        assert table.expirations == 1

    def test_flush_reports_count(self):
        table = SessionTable(capacity=8, ttl_s=10.0)
        for i in range(3):
            table.put(_session(bytes([i]) * 16), now=0.0)
        assert table.flush() == 3
        assert len(table) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionTable(capacity=0)


class TestFastPathCodecs:
    def test_fast_payload_round_trip(self):
        payload = protocol.encode_verify_fast_payload(
            "node-1", b"s" * 16, 7, MSG, b"m" * 32
        )
        request = protocol.decode_verify_fast_payload(payload)
        assert request.identity == "node-1"
        assert request.session_id == b"s" * 16
        assert request.seq == 7
        assert request.message == MSG
        assert request.mac == b"m" * 32

    def test_split_matches_decode(self):
        payload = protocol.encode_verify_fast_payload(
            "node-1", b"s" * 16, 7, MSG, b"m" * 32
        )
        assert protocol.split_verify_fast_payload(payload) == "node-1"
        with pytest.raises(SerializationError):
            protocol.split_verify_fast_payload(payload[:10])

    def test_bad_mac_width_rejected(self):
        with pytest.raises(SerializationError):
            protocol.encode_verify_fast_payload(
                "node-1", b"s" * 16, 7, MSG, b"short"
            )

    def test_truncated_payload_rejected(self):
        payload = protocol.encode_verify_fast_payload(
            "node-1", b"s" * 16, 7, MSG, b"m" * 32
        )
        with pytest.raises(SerializationError):
            protocol.decode_verify_fast_payload(payload[:-1])

    def test_mac_chunks_are_canonical(self):
        chunks = protocol.fast_verify_mac_bytes(b"s" * 16, 7, "node-1", MSG)
        assert chunks[0] == b"s" * 16
        assert int.from_bytes(chunks[1], "big") == 7
        assert chunks[2] == b"node-1"
        assert chunks[3] == MSG


class TestInProcessFastPath:
    def test_handshake_then_fast_verifies(self):
        async def body(gateway):
            client, _ = await established_client(gateway)
            try:
                assert client.session is not None
                for _ in range(3):
                    assert await client.verify_fast(MSG) is True
                stats = await client.stats()
                assert stats["sessions"]["active"] == 1
                assert stats["sessions"]["established"] == 1
                assert stats["counters"]["fast_verify_valid"] == 3
            finally:
                await client.close()

        gateway_test(body)

    def test_fast_path_burns_zero_pairings(self):
        async def body(gateway):
            client, _ = await established_client(gateway)
            try:
                before = gateway.kgc.ctx.ops.pairings
                for _ in range(5):
                    assert await client.verify_fast(MSG) is True
                assert gateway.kgc.ctx.ops.pairings == before
            finally:
                await client.close()

        gateway_test(body)

    def test_tampered_mac_is_invalid_not_error(self):
        async def body(gateway):
            client, _ = await established_client(gateway)
            try:
                session = client.session
                payload = protocol.encode_verify_fast_payload(
                    session.client_identity, session.session_id, 99, MSG,
                    b"\x00" * 32,
                )
                reply = await client._call(Opcode.VERIFY_FAST, payload)
                assert protocol.decode_verify_verdict(reply) is False
            finally:
                await client.close()

        gateway_test(body)

    def test_replayed_seq_is_invalid(self):
        async def body(gateway):
            client, _ = await established_client(gateway)
            try:
                assert await client.verify_fast(MSG) is True
                session = client.session
                mac = session.mac(
                    *protocol.fast_verify_mac_bytes(
                        session.session_id, 1, session.client_identity, MSG
                    )
                )
                payload = protocol.encode_verify_fast_payload(
                    session.client_identity, session.session_id, 1, MSG, mac
                )
                reply = await client._call(Opcode.VERIFY_FAST, payload)
                assert protocol.decode_verify_verdict(reply) is False
                stats = await client.stats()
                assert stats["counters"]["fast_verify_replays"] == 1
            finally:
                await client.close()

        gateway_test(body)

    def test_unknown_session_is_the_documented_error(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                payload = protocol.encode_verify_fast_payload(
                    "ghost", b"\x00" * 16, 1, MSG, b"\x00" * 32
                )
                with pytest.raises(ServiceError) as err:
                    await client._call(Opcode.VERIFY_FAST, payload)
                assert str(err.value) == protocol.UNKNOWN_SESSION
            finally:
                await client.close()

        gateway_test(body)

    def test_unenrolled_identity_cannot_handshake(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                await client.params()
                other = VerificationGateway(curve=CURVE, seed=9)
                foreign = other.kgc.enroll("stranger")
                with pytest.raises(ServiceError):
                    await client.start_session(
                        foreign, rng=random.Random(1)
                    )
            finally:
                await client.close()

        gateway_test(body)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_session_capacity_evicts_oldest(self, workers):
        async def body(gateway):
            first, _ = await established_client(gateway, "node-a")
            second, _ = await established_client(gateway, "node-d")
            try:
                assert await second.verify_fast(MSG) is True
                if workers:
                    # different shards, each holding up to the capacity:
                    # both sessions stay live and STATS sums the shards
                    pool = gateway.pool
                    assert pool.shard_of("node-a") != pool.shard_of("node-d")
                    assert await first.verify_fast(MSG) is True
                    stats = await second.stats()
                    assert stats["sessions"]["evictions"] == 0
                    assert stats["sessions"]["active"] == 2
                    assert stats["sessions"]["established"] == 2
                    return
                # capacity 1: node-a's session was evicted by node-d's
                stats = await second.stats()
                assert stats["sessions"]["evictions"] == 1
                assert stats["sessions"]["active"] == 1
                # node-a transparently re-handshakes (evicting node-d)
                assert await first.verify_fast(MSG) is True
            finally:
                await first.close()
                await second.close()

        gateway_test(body, session_capacity=1, workers=workers)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_session_ttl_expiry_forces_rehandshake(self, workers):
        # with workers the TTL binds each worker's session shard too
        async def body(gateway):
            client, _ = await established_client(gateway)
            try:
                assert await client.verify_fast(MSG) is True
                await asyncio.sleep(0.25)
                # expired server-side; the client recovers transparently
                assert await client.verify_fast(MSG) is True
                stats = await client.stats()
                assert stats["sessions"]["expirations"] == 1
                assert stats["sessions"]["established"] == 2
            finally:
                await client.close()

        gateway_test(body, session_ttl_s=0.2, workers=workers)


class TestRekeyInvalidation:
    def test_rekey_flushes_sessions_and_client_recovers(self):
        async def body(gateway):
            client, _ = await established_client(gateway)
            control = await connected_client(gateway)
            try:
                assert await client.verify_fast(MSG) is True
                old_session_id = client.session.session_id
                await control.rekey()
                stats = await control.stats()
                assert stats["sessions"]["active"] == 0
                assert stats["sessions"]["killed_by_rekey"] == 1
                # stale session id is rejected, then the client re-enrols
                # and re-handshakes without surfacing an error
                assert await client.verify_fast(MSG) is True
                assert client.session.session_id != old_session_id
                stats = await control.stats()
                assert stats["counters"]["fast_verify_unknown_session"] >= 1
            finally:
                await client.close()
                await control.close()

        gateway_test(body)

    def test_stats_schema_names_sessions(self):
        async def body(gateway):
            client = await connected_client(gateway)
            try:
                stats = await client.stats()
                assert stats["schema_version"] == 4
                section = stats["sessions"]
                for key in (
                    "active", "capacity", "ttl_s", "established",
                    "evictions", "expirations", "killed_by_rekey",
                ):
                    assert key in section
            finally:
                await client.close()

        gateway_test(body)


class TestPoolFastPath:
    def test_fast_path_through_worker_processes(self):
        async def body(gateway):
            client, _ = await established_client(gateway)
            try:
                for _ in range(3):
                    assert await client.verify_fast(MSG) is True
                # tampered MAC through the pool: invalid, not an error
                session = client.session
                payload = protocol.encode_verify_fast_payload(
                    session.client_identity, session.session_id, 50, MSG,
                    b"\x00" * 32,
                )
                reply = await client._call(Opcode.VERIFY_FAST, payload)
                assert protocol.decode_verify_verdict(reply) is False
                stats = await client.stats()
                assert stats["counters"]["fast_verify_valid"] == 3
            finally:
                await client.close()

        gateway_test(body, workers=2)

    def test_rekey_through_pool_kills_and_recovers(self):
        async def body(gateway):
            client, _ = await established_client(gateway)
            control = await connected_client(gateway)
            try:
                assert await client.verify_fast(MSG) is True
                await control.rekey()
                assert await client.verify_fast(MSG) is True
                stats = await control.stats()
                assert stats["sessions"]["killed_by_rekey"] == 1
            finally:
                await client.close()
                await control.close()

        gateway_test(body, workers=2)
