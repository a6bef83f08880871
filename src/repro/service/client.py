"""Client library for the verification gateway.

:class:`ServiceClient` speaks the frame protocol over one TCP connection.
Replies arrive strictly in request order, so :meth:`verify_many`
pipelines a whole burst (write all frames, then read all replies) - the
path the server's same-signer micro-batcher is built for.

Signing stays **client-side**: after :meth:`params` the client holds a
*verifier view* of the scheme - the public parameters grafted onto a
local :class:`~repro.core.mccls.McCLS` instance whose own master secret
is never used.  ``CL-Sign`` touches only the client's key material and
the group generator, so signatures minted locally verify at the gateway
under the real master public key.

The client is built for a gateway that fails like a real server:

* **Per-call timeouts** - a stalled server surfaces as
  :class:`~repro.errors.ServiceTimeout` instead of blocking forever; the
  stream cannot be re-synchronised after an abandoned read, so the
  connection is dropped before any retry.
* **Jittered retry** (:class:`RetryPolicy`) - BUSY sheds, timeouts and
  lost connections back off exponentially with jitter instead of
  hammering a saturated gateway; non-idempotent requests (ENROLL, REKEY)
  are never replayed after a timeout or disconnect, because the server
  may have applied them.
* **Automatic reconnect with replay-or-fail pipelining** -
  :meth:`verify_many` re-sends only the requests whose replies were
  never read; once attempts are exhausted the remainder fails as ERR
  outcomes, never silently.
* **A consecutive-failure circuit breaker** (:class:`CircuitBreaker`) -
  after enough failures in a row the client fails fast for a cooldown
  instead of queueing doomed work behind a dead gateway.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mccls import McCLS, McCLSSignature
from repro.core.session import EstablishedSession, SessionInitiator
from repro.errors import (
    ServiceBusy,
    ServiceConnectionLost,
    ServiceError,
    ServiceTimeout,
)
from repro.obs import trace as obs_trace
from repro.pairing.bn import BNCurve
from repro.pairing.curve import CurvePoint
from repro.pairing.groups import PairingContext
from repro.schemes.base import UserKeyPair
from repro.service import protocol
from repro.service.protocol import Opcode, Status

#: one verify to pipeline: (identity, public_key, message, signature)
VerifyItem = Tuple[str, CurvePoint, bytes, McCLSSignature]

#: opcodes that are safe to replay after a timeout or lost connection
#: (a verify is a pure question; ENROLL and REKEY mutate KGC state).
#: SESSION is replay-safe - each attempt simply establishes a fresh
#: session in the gateway's bounded table and the client adopts the last
#: one.  VERIFY_FAST is NOT: its sequence number is consumed server-side,
#: so a blind replay would be rejected as a replay and *lie* about the
#: message's validity.
IDEMPOTENT_OPCODES = frozenset(
    {
        Opcode.PING,
        Opcode.PARAMS,
        Opcode.VERIFY,
        Opcode.STATS,
        Opcode.METRICS,
        Opcode.SESSION,
    }
)


def build_verifier_view(
    document: dict, *, cache_size: Optional[int] = None, backend=None
) -> Tuple[BNCurve, McCLS]:
    """Reconstruct a verifier-view scheme from a PARAMS document.

    The placeholder master secret below is never exercised - P_pub is
    overridden with the gateway's real one, and CL-Sign/CL-Verify only
    ever read P_pub, never the secret.  Shared by the client and the
    crypto worker processes (which verify on the KGC's behalf but never
    hold its master secret either).  The field backend follows
    ``backend`` when given, else the document's advertised backend, else
    the env/default precedence.
    """
    if backend is None:
        backend = document.get("backend") or None
    curve = protocol.curve_from_params(document, backend=backend)
    kwargs = {"backend": curve.spec.backend}
    if cache_size is not None:
        kwargs["cache_size"] = cache_size
    p_pub_g1, p_pub_g2 = protocol.p_pub_from_params(curve, document)
    ctx = PairingContext(curve, random.Random(0), **kwargs)
    view = McCLS(ctx, master_secret=1)
    view.p_pub_g1 = p_pub_g1
    view.p_pub_g2 = p_pub_g2
    return curve, view


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for retriable gateway failures.

    ``attempts`` counts total tries (1 = never retry).  The delay before
    retry k is ``base_delay_s * multiplier**(k-1)`` capped at
    ``max_delay_s``, then jittered by ±``jitter`` (a fraction) so a fleet
    of clients shedding together does not retry in lockstep.
    """

    attempts: int = 4
    base_delay_s: float = 0.02
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def delay_s(self, retry_number: int, rng: random.Random) -> float:
        """Backoff before retry ``retry_number`` (1-based)."""
        delay = min(
            self.max_delay_s,
            self.base_delay_s * self.multiplier ** max(0, retry_number - 1),
        )
        if self.jitter:
            span = delay * self.jitter
            delay = max(0.0, delay + rng.uniform(-span, span))
        return delay


#: a policy that never retries (the pre-resilience client behaviour)
NO_RETRY = RetryPolicy(attempts=1)


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed -> open -> half-open).

    After ``threshold`` consecutive failures the circuit opens and calls
    fail fast with ``circuit open`` for ``cooldown_s``; the first call
    after the cooldown goes through as a probe (half-open) and its
    outcome decides whether the circuit closes again or re-opens.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 1.0,
        clock=time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.rejections = 0
        self.opens = 0

    def allow(self) -> bool:
        """May a call proceed right now?"""
        if self.state == "closed":
            return True
        if self._clock() - self.opened_at >= self.cooldown_s:
            self.state = "half-open"
            return True
        self.rejections += 1
        return False

    def record_success(self) -> None:
        """A call completed (any server reply counts: the wire works)."""
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self) -> None:
        """A call failed without a server reply."""
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.threshold:
            if self.state != "open":
                self.opens += 1
            self.state = "open"
            self.opened_at = self._clock()


@dataclass(frozen=True)
class VerifyOutcome:
    """One pipelined verify's result: OK verdict, BUSY, or ERR detail."""

    status: Status
    valid: Optional[bool] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == Status.OK


class ServiceClient:
    """One connection to a :class:`~repro.service.server.VerificationGateway`.

    With the defaults (``timeout_s=None``, ``retry=NO_RETRY``, no
    breaker) the client behaves exactly like the pre-resilience one:
    blocking reads, no replays, every failure an exception.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        rng: Optional[random.Random] = None,
    ):
        self.host = host
        self.port = port
        self.curve = None
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else NO_RETRY
        self.breaker = breaker
        self.counters: Dict[str, int] = {
            "retries": 0,
            "reconnects": 0,
            "timeouts": 0,
            "busy_replies": 0,
            "connection_losses": 0,
            "breaker_rejections": 0,
        }
        self._rng = rng if rng is not None else random.Random(0x5EED)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._view: Optional[McCLS] = None
        self._ever_connected = False
        self._session: Optional[EstablishedSession] = None
        self._session_keys: Optional[UserKeyPair] = None
        self._session_seq = 0

    # -- lifecycle ----------------------------------------------------------
    async def connect(self) -> "ServiceClient":
        """Open the TCP connection to the gateway."""
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except OSError as exc:
            raise ServiceConnectionLost(f"connect failed: {exc}") from None
        self._ever_connected = True
        return self

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def _reconnect(self) -> None:
        """Drop whatever is left of the connection and dial again."""
        await self.close()
        if self._ever_connected:
            self.counters["reconnects"] += 1
        await self.connect()

    # -- plumbing -----------------------------------------------------------
    async def _send(
        self,
        opcode: Opcode,
        payload: bytes = b"",
        trace_id: Optional[int] = None,
        deadline_ms: Optional[int] = None,
    ) -> None:
        await self._write(
            protocol.encode_frame(
                protocol.encode_request(opcode, payload, trace_id, deadline_ms)
            )
        )

    async def _write(self, *frames: bytes) -> None:
        """Write and drain ``frames``; a broken stream closes the
        connection and raises :class:`~repro.errors.ServiceConnectionLost`."""
        if self._writer is None:
            raise ServiceError("client is not connected")
        try:
            for frame in frames:
                self._writer.write(frame)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self.counters["connection_losses"] += 1
            await self.close()
            raise ServiceConnectionLost(f"connection lost: {exc}") from None

    async def _read_reply(
        self, timeout_s: Optional[float] = None
    ) -> Tuple[Status, bytes]:
        """Read one reply frame; applies the per-call timeout.

        A timed-out read abandons the stream mid-frame, so the connection
        is dropped before :class:`~repro.errors.ServiceTimeout` is
        raised - the next call reconnects instead of reading a stale
        half-frame.
        """
        if self._reader is None:
            raise ServiceError("client is not connected")
        timeout_s = timeout_s if timeout_s is not None else self.timeout_s
        try:
            if timeout_s is None:
                header = await self._reader.readexactly(4)
                body = await self._reader.readexactly(
                    protocol.frame_length(header)
                )
            else:
                deadline = time.perf_counter() + timeout_s
                header = await asyncio.wait_for(
                    self._reader.readexactly(4), timeout_s
                )
                remaining = max(0.001, deadline - time.perf_counter())
                body = await asyncio.wait_for(
                    self._reader.readexactly(protocol.frame_length(header)),
                    remaining,
                )
        except asyncio.TimeoutError:
            self.counters["timeouts"] += 1
            await self.close()
            raise ServiceTimeout(
                f"timeout: no complete reply within {timeout_s}s"
            ) from None
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            self.counters["connection_losses"] += 1
            await self.close()
            raise ServiceConnectionLost(f"connection lost: {exc}") from None
        return protocol.decode_reply(body)

    def _breaker_gate(self) -> None:
        if self.breaker is not None and not self.breaker.allow():
            self.counters["breaker_rejections"] += 1
            raise ServiceError(
                "circuit open: too many consecutive gateway failures"
            )

    def _note_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    def _note_success(self) -> None:
        if self.breaker is not None:
            self.breaker.record_success()

    async def _backoff(self, retry_number: int) -> None:
        self.counters["retries"] += 1
        await asyncio.sleep(self.retry.delay_s(retry_number, self._rng))

    async def _call(
        self,
        opcode: Opcode,
        payload: bytes = b"",
        trace_id: Optional[int] = None,
        deadline_ms: Optional[int] = None,
    ) -> bytes:
        """One request/reply round trip; ERR and BUSY raise ServiceError.

        BUSY sheds, timeouts and lost connections are retried under the
        client's :class:`RetryPolicy`; timeout/disconnect retries are
        limited to idempotent opcodes (the server may have applied a
        non-idempotent request whose reply was lost).
        """
        attempt = 1
        while True:
            self._breaker_gate()
            try:
                if self._writer is None:
                    await self._reconnect()
                await self._send(opcode, payload, trace_id, deadline_ms)
                status, reply = await self._read_reply()
            except (ServiceTimeout, ServiceConnectionLost):
                self._note_failure()
                if (
                    opcode not in IDEMPOTENT_OPCODES
                    or attempt >= self.retry.attempts
                ):
                    raise
                await self._backoff(attempt)
                attempt += 1
                continue
            if status == Status.BUSY:
                self.counters["busy_replies"] += 1
                self._note_failure()
                if attempt >= self.retry.attempts:
                    raise ServiceBusy(
                        "gateway is busy: "
                        + (reply.decode("utf-8", "replace") or "queue full")
                    )
                await self._backoff(attempt)
                attempt += 1
                continue
            self._note_success()
            if status == Status.ERR:
                raise ServiceError(reply.decode("utf-8", "replace"))
            return reply

    # -- the protocol surface ----------------------------------------------
    async def ping(self) -> bool:
        """Liveness round trip; True unless the call raised."""
        await self._call(Opcode.PING)
        return True

    async def params(self) -> dict:
        """Fetch public params and (re)build the local verifier view."""
        document = protocol.decode_json_payload(
            await self._call(Opcode.PARAMS)
        )
        self._install_params(document)
        return document

    async def enroll(self, identity: str) -> UserKeyPair:
        """Have the KGC issue full key material for ``identity``."""
        await self._ensure_params()
        payload = await self._call(
            Opcode.ENROLL, protocol.encode_enroll_payload(identity)
        )
        return protocol.decode_user_keys(self.curve, payload)

    async def verify(
        self,
        identity: str,
        public_key: CurvePoint,
        message: bytes,
        signature: McCLSSignature,
        trace_id: Optional[int] = None,
        deadline_ms: Optional[int] = None,
    ) -> bool:
        """One verification round trip; raises ServiceError on ERR/BUSY.

        With a ``trace_id`` the request carries it over the wire (the
        gateway emits server-side stage spans under it) and the client
        records the matching ``client.rtt`` root span when a tracer is
        active.  With a ``deadline_ms`` the gateway sheds the request
        with ``ERR deadline`` once the budget has elapsed.
        """
        await self._ensure_params()
        payload = protocol.encode_verify_payload(
            self.curve, identity, public_key, message, signature
        )
        tracer = obs_trace.get_tracer()
        if trace_id is not None and tracer.enabled:
            started = time.perf_counter()
            reply = await self._call(
                Opcode.VERIFY, payload, trace_id, deadline_ms
            )
            tracer.record(
                "client.rtt",
                trace_id=trace_id,
                span_id=f"t{trace_id}",
                start_s=started,
                dur_s=time.perf_counter() - started,
            )
        else:
            reply = await self._call(
                Opcode.VERIFY, payload, trace_id, deadline_ms
            )
        return protocol.decode_verify_verdict(reply)

    async def verify_many(
        self,
        items: Sequence[VerifyItem],
        *,
        deadline_ms: Optional[int] = None,
    ) -> List[VerifyOutcome]:
        """Pipeline a burst of verifies; outcomes in request order.

        Unlike :meth:`verify`, BUSY and ERR become per-item outcomes
        instead of exceptions, so one shed request does not discard the
        rest of the burst.  When the connection stalls or drops mid-burst
        the client reconnects and **replays only the unanswered tail**
        (verifies are idempotent); once retry attempts are exhausted the
        remaining items fail as ERR outcomes carrying the transport
        error - the result list always matches ``items`` one for one.
        """
        await self._ensure_params()
        encoded = [
            protocol.encode_verify_payload(
                self.curve, identity, public_key, message, signature
            )
            for identity, public_key, message, signature in items
        ]
        outcomes: List[Optional[VerifyOutcome]] = [None] * len(items)
        pending: deque = deque(range(len(items)))
        attempt = 1
        while pending:
            self._breaker_gate()
            unanswered = deque(pending)
            try:
                if self._writer is None:
                    await self._reconnect()
                await self._write(
                    *(
                        protocol.encode_frame(
                            protocol.encode_request(
                                Opcode.VERIFY, encoded[index], None, deadline_ms
                            )
                        )
                        for index in pending
                    )
                )
                while unanswered:
                    status, payload = await self._read_reply()
                    index = unanswered.popleft()
                    if status == Status.OK:
                        outcomes[index] = VerifyOutcome(
                            status,
                            valid=protocol.decode_verify_verdict(payload),
                        )
                    else:
                        if status == Status.BUSY:
                            self.counters["busy_replies"] += 1
                        outcomes[index] = VerifyOutcome(
                            status,
                            detail=payload.decode("utf-8", "replace"),
                        )
                self._note_success()
                pending.clear()
            except (ServiceTimeout, ServiceConnectionLost) as exc:
                self._note_failure()
                pending = unanswered
                if attempt >= self.retry.attempts:
                    for index in pending:
                        outcomes[index] = VerifyOutcome(
                            Status.ERR, detail=str(exc)
                        )
                    break
                await self._backoff(attempt)
                attempt += 1
        return outcomes  # type: ignore[return-value]

    async def rekey(self) -> dict:
        """Ask the KGC to rotate its master secret; refreshes the view.

        Every previously issued key pair is invalid afterwards - re-enrol.
        """
        document = protocol.decode_json_payload(await self._call(Opcode.REKEY))
        self._install_params(document)
        return document

    # -- the pairing-free session fast path ---------------------------------
    @property
    def session(self) -> Optional[EstablishedSession]:
        """The currently established fast-path session, if any."""
        return self._session

    async def start_session(
        self,
        keys: UserKeyPair,
        *,
        rng: Optional[random.Random] = None,
    ) -> EstablishedSession:
        """Run the CL-AKA handshake; afterwards :meth:`verify_fast`
        authenticates requests with an HMAC instead of a pairing.

        The Hello is bootstrapped with a McCLS signature under ``keys``
        (the identity's *enrolled* key material), so only a party the KGC
        has issued keys to can open a session.  ``rng`` seeds the
        ephemeral scalars for deterministic tests; production callers
        leave it None (``SystemRandom``).
        """
        await self._ensure_params()
        initiator = SessionInitiator(
            self._view.ctx, self._view.p_pub_g1, keys.identity, rng=rng
        )
        hello = initiator.hello()
        signature = self._view.sign(
            protocol.session_hello_auth_bytes(self.curve, hello), keys
        )
        reply = await self._call(
            Opcode.SESSION,
            protocol.encode_session_payload(self.curve, hello, signature),
        )
        accept = protocol.decode_session_accept(self.curve, reply)
        session = initiator.finish(accept)
        self._session = session
        self._session_keys = keys
        self._session_seq = 0
        return session

    async def verify_fast(
        self, message: bytes, *, _rehandshake: bool = True
    ) -> bool:
        """One MAC-authenticated fast-path round trip (no pairings).

        When the gateway no longer knows the session (TTL expiry, LRU
        eviction, worker restart, or a REKEY that killed every session
        key) the client transparently refreshes params, re-enrolls its
        identity and re-handshakes once before giving up - the REKEY
        case re-issues the enrolled McCLS keys, so a plain re-handshake
        under the stale keys could never succeed.
        """
        if self._session is None:
            raise ServiceError("no session: call start_session first")
        self._session_seq += 1
        session = self._session
        mac = session.mac(
            *protocol.fast_verify_mac_bytes(
                session.session_id,
                self._session_seq,
                session.client_identity,
                message,
            )
        )
        payload = protocol.encode_verify_fast_payload(
            session.client_identity,
            session.session_id,
            self._session_seq,
            message,
            mac,
        )
        try:
            reply = await self._call(Opcode.VERIFY_FAST, payload)
        except ServiceError as exc:
            if (
                _rehandshake
                and str(exc) == protocol.UNKNOWN_SESSION
                and self._session_keys is not None
            ):
                await self.params()
                keys = await self.enroll(self._session_keys.identity)
                await self.start_session(keys)
                return await self.verify_fast(message, _rehandshake=False)
            raise
        return protocol.decode_verify_verdict(reply)

    async def stats(self) -> dict:
        """Fetch the gateway's counters, cache accounting and stage
        latency summaries."""
        return protocol.decode_json_payload(await self._call(Opcode.STATS))

    async def metrics(self) -> str:
        """Fetch the gateway's Prometheus text exposition (METRICS)."""
        return protocol.decode_metrics_payload(
            await self._call(Opcode.METRICS)
        )

    # -- local signing ------------------------------------------------------
    def sign(self, message: bytes, keys: UserKeyPair) -> McCLSSignature:
        """CL-Sign locally under the gateway's public parameters."""
        if self._view is None:
            raise ServiceError("fetch params before signing")
        return self._view.sign(message, keys)

    def scheme_view(self) -> McCLS:
        """The local verifier-view scheme (for client-side verification)."""
        if self._view is None:
            raise ServiceError("fetch params before using the scheme view")
        return self._view

    # -- internals ----------------------------------------------------------
    async def _ensure_params(self) -> None:
        if self._view is None:
            await self.params()

    def _install_params(self, document: dict) -> None:
        self.curve, self._view = build_verifier_view(document)
