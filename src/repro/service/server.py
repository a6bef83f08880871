"""The verification gateway server.

One asyncio process plays the KGC and verification front-end for a fleet
of constrained clients:

* **Per-connection framing with FIFO replies.**  Each connection gets a
  reader loop and a writer task; every parsed frame claims a reply slot
  *in arrival order* before it enters the shared queue, so clients can
  pipeline requests without tagging and still match replies by position.
  ``writer.drain()`` propagates TCP backpressure to slow readers.

* **Bounded request queue with explicit load-shed.**  Requests are
  admitted with ``put_nowait`` against a bounded queue; when it is full
  the gateway answers ``BUSY`` immediately instead of buffering without
  limit - the client owns the retry policy, the server owns its memory.

* **One verification pipeline, micro-batched.**  The consumer drains
  whatever is queued (up to ``max_batch``).  Admission only splits each
  VERIFY / VERIFY_FAST payload's routing prefix (the signer identity);
  one partition step then cuts the drained window along identity shards
  - the pool's shards, or a single shard inline - and every shard window
  runs through the same function,
  :func:`~repro.service.pool.verify_window` or
  :func:`~repro.service.pool.fast_window`.  A one-signer burst of k
  signatures folds into
  :meth:`~repro.core.batch.McCLSBatchVerifier.verify_same_signer` (one
  pairing when warm) with exact per-item verdicts if that fails; a
  window spanning several signers folds once through
  :meth:`~repro.core.batch.McCLSBatchVerifier.verify_cross_signer`,
  which bisects a failure down to exact verdicts.  One accounting step
  turns the results into replies, counters, stage histograms and spans
  in both modes, so every verdict, counter and reply byte is the same
  with or without workers.

* **Supervised worker pool** (``workers > 0``).  The shard windows run
  in :class:`~repro.service.pool.VerifyWorkerPool` worker processes
  instead of inline; the event loop only frames, routes (by identity
  affinity) and replies.  A worker crash or hang mid-window becomes a
  clean ``ERR worker-lost`` reply for the jobs it owed - **never a hung
  future** - while the supervisor restarts the worker under jittered
  backoff.  REKEY broadcasts the new params to every worker before its
  reply is sent, so any verify pipelined after the rekey reply sees the
  new master key.  Each worker holds the fast-path sessions of its
  shard with the gateway's capacity and TTL, and STATS ``sessions``
  sums the shards' own counters.

* **Deadline enforcement.**  A request whose opcode byte carries
  :data:`~repro.service.protocol.DEADLINE_FLAG` names its time budget;
  the gateway checks it at dequeue (expired work is answered ``ERR
  deadline`` without paying for a pairing) and again before replying (a
  verdict that arrives too late to matter is reported as the deadline
  miss it is).  Expirations count in ``deadline_expirations`` and the
  remaining margin feeds the ``deadline_slack`` stage histogram.

* **Graceful drain.**  ``stop(drain=True)`` refuses new work (``BUSY``)
  but answers everything already admitted before closing connections;
  ``stop()`` without drain still never strands a reply future - leftover
  queued work is failed with ``ERR`` so writer tasks always terminate.

* **Total error handling.**  Malformed payloads, unknown opcodes and
  verification-time arithmetic failures become clean ``ERR`` replies on a
  live connection.  The single unrecoverable case is an oversized length
  prefix: after refusing to read the declared body the stream cannot be
  re-synchronised, so the gateway sends ``ERR`` and closes that
  connection (others are unaffected).

* **Server-side stage accounting.**  Every request is timed through its
  stages - queue wait, batch fold, the pairing itself, reply serialize -
  into latency histograms on the gateway's own registry, reported by
  STATS (JSON summaries) and METRICS (Prometheus text exposition).  A
  request whose opcode byte carries :data:`~repro.service.protocol.TRACE_FLAG`
  additionally emits one span event per stage (all under the request's
  trace id) to the gateway's event sink, so a single slow verify can be
  attributed to queueing vs folding vs the Miller loop.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.batch import McCLSBatchVerifier
from repro.core.mccls import McCLS
from repro.core.params import KeyGenerationCenter
from repro.core.session import SessionAuthority
from repro.errors import ReproError, SerializationError, WorkerLostError
from repro.obs.events import EventSink, NULL_EVENT_SINK
from repro.obs.exposition import PrometheusRenderer
from repro.obs.registry import Registry, get_registry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.pairing.bn import BNCurve, toy_curve
from repro.schemes.base import normalize_identity
from repro.service import protocol
from repro.service.pool import (
    SessionTable,
    VerifyWorkerPool,
    fast_window,
    merge_cache_stats,
    verify_window,
)
from repro.service.protocol import Opcode, Status
from repro.service.supervisor import RestartBackoff

#: STATS reply document version (benchdiff and dashboards key on it);
#: v4 added the ``sessions`` section (fast-path session table accounting)
STATS_SCHEMA_VERSION = 4

#: (request body, reply future, perf_counter at enqueue) on the queue
_Work = Tuple[bytes, "asyncio.Future[bytes]", float]


@dataclass
class _PendingVerify:
    """One VERIFY or VERIFY_FAST awaiting its (windowed) verdict."""

    future: "asyncio.Future[bytes]"
    trace_id: Optional[int]
    enqueued: float
    #: absolute perf_counter second the client's budget runs out, or None
    deadline: Optional[float]
    #: VERIFY_FAST (a session MAC check) rather than VERIFY
    fast: bool
    #: the signer identity (routing prefix); the window function decodes
    #: and curve-validates the full payload
    key: str
    payload: bytes


class VerificationGateway:
    """KGC + verification front-end over the binary frame protocol."""

    def __init__(
        self,
        kgc: Optional[KeyGenerationCenter] = None,
        *,
        curve: Optional[BNCurve] = None,
        seed: Optional[int] = None,
        cache_size: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_size: int = 256,
        max_batch: int = 64,
        sink: Optional[EventSink] = None,
        workers: int = 0,
        worker_job_timeout_s: float = 30.0,
        worker_heartbeat_timeout_s: float = 2.0,
        worker_backoff: Optional[RestartBackoff] = None,
        backend=None,
        session_capacity: int = 1024,
        session_ttl_s: float = 600.0,
    ):
        if kgc is None:
            kgc = KeyGenerationCenter(
                McCLS,
                curve=curve if curve is not None else toy_curve(64, backend=backend),
                seed=seed,
                cache_size=cache_size,
                backend=backend,
            )
        self.kgc = kgc
        self.seed = seed if seed is not None else 0
        self.batcher = McCLSBatchVerifier(kgc.scheme)
        self.host = host
        self.port = port
        self.queue_size = queue_size
        self.max_batch = max(1, max_batch)
        self.workers = max(0, workers)
        self.worker_cache_size = cache_size
        self.worker_job_timeout_s = worker_job_timeout_s
        self.worker_heartbeat_timeout_s = worker_heartbeat_timeout_s
        self.worker_backoff = worker_backoff
        self.counters: Dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "verify_requests": 0,
            "verify_valid": 0,
            "verify_invalid": 0,
            "batches": 0,
            "batched_requests": 0,
            "batch_fallbacks": 0,
            "cross_signer_folds": 0,
            "cross_signer_requests": 0,
            "cross_bisections": 0,
            "enrollments": 0,
            "rekeys": 0,
            "busy_rejections": 0,
            "drain_rejections": 0,
            "protocol_errors": 0,
            "traced_requests": 0,
            "deadline_requests": 0,
            "deadline_expirations": 0,
            "worker_lost_replies": 0,
            "session_requests": 0,
            "sessions_established": 0,
            "sessions_rejected": 0,
            "sessions_killed_by_rekey": 0,
            "fast_verify_requests": 0,
            "fast_verify_valid": 0,
            "fast_verify_invalid": 0,
            "fast_verify_replays": 0,
            "fast_verify_unknown_session": 0,
        }
        #: established fast-path sessions: the one shard fast_window
        #: checks inline; with a worker pool each session is also
        #: installed in its identity shard's worker, which checks it
        #: there and whose shard counters STATS reports
        self.sessions = SessionTable(
            capacity=session_capacity, ttl_s=session_ttl_s
        )
        #: the gateway's CL-AKA side; shares the KGC master secret so one
        #: REKEY invalidates both the pairing world and every session key
        self.authority = SessionAuthority(
            self.kgc.ctx, self.kgc.scheme.master_secret
        )
        #: the gateway's own instrument store for request-granularity
        #: stage histograms (always on; never the process-wide registry,
        #: so the pairing hot path stays untouched)
        self.registry = Registry()
        self.sink = sink if sink is not None else NULL_EVENT_SINK
        self.tracer = Tracer(self.sink) if self.sink.enabled else NULL_TRACER
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._consumer: Optional[asyncio.Task] = None
        self._connections: set = set()
        self._pool: Optional[VerifyWorkerPool] = None
        self._group_tasks: set = set()
        self._draining = False
        self._stopped = False

    @property
    def pool(self) -> Optional[VerifyWorkerPool]:
        """The live worker pool, or None when verifying in-process."""
        return self._pool

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "VerificationGateway":
        """Bind, start accepting connections and the batch consumer."""
        self._draining = False
        self._stopped = False
        if self.workers > 0 and self._pool is None:
            self._pool = VerifyWorkerPool(
                self._worker_params(),
                self.workers,
                cache_size=self.worker_cache_size,
                job_timeout_s=self.worker_job_timeout_s,
                heartbeat_timeout_s=self.worker_heartbeat_timeout_s,
                backoff=self.worker_backoff,
                seed=self.seed,
            )
            try:
                await self._pool.start()
            except Exception:
                self._pool = None
                raise
        self._queue = asyncio.Queue(self.queue_size)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._consumer = asyncio.create_task(self._consume())
        return self

    async def stop(self, drain: bool = False, drain_timeout_s: float = 30.0) -> None:
        """Tear the gateway down; idempotent.

        With ``drain=True`` the listener closes first, frames still
        arriving on live connections are shed with ``BUSY``, and every
        request already admitted is answered (bounded by
        ``drain_timeout_s``) before connections close.  Without drain,
        queued and in-flight work is failed fast with ``ERR server
        shutting down`` - either way no reply future is ever stranded.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            self._draining = True
            deadline = time.monotonic() + drain_timeout_s
            try:
                if self._queue is not None:
                    await asyncio.wait_for(
                        self._queue.join(), max(0.01, deadline - time.monotonic())
                    )
                if self._group_tasks:
                    await asyncio.wait_for(
                        asyncio.gather(
                            *list(self._group_tasks), return_exceptions=True
                        ),
                        max(0.01, deadline - time.monotonic()),
                    )
            except asyncio.TimeoutError:
                pass  # budget exhausted: fall through to the hard path
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None
        self._flush_queue("server shutting down")
        if self._group_tasks:
            for task in list(self._group_tasks):
                task.cancel()
            await asyncio.gather(*list(self._group_tasks), return_exceptions=True)
            self._group_tasks.clear()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        if self._pool is not None:
            await self._pool.stop()
            self._pool = None

    def _flush_queue(self, detail: str) -> None:
        """Answer (with ERR) anything still queued so writers terminate."""
        if self._queue is None:
            return
        reply = protocol.error_reply(detail)
        while True:
            try:
                _body, future, _enqueued = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if not future.done():
                future.set_result(reply)
            self._queue.task_done()

    async def serve_forever(self) -> None:
        """start() and block until cancelled (the ``serve`` CLI command)."""
        await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # -- per-connection I/O -------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Shutdown cancelled this connection mid-teardown; end the
            # task cleanly (asyncio's stream done-callback would re-raise
            # a cancelled handler into the loop's exception handler).
            pass
        finally:
            self._connections.discard(task)

    async def _serve_connection(self, reader, writer) -> None:
        self.counters["connections"] += 1
        loop = asyncio.get_running_loop()
        pending: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._write_replies(pending, writer))
        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # clean EOF or mid-header truncation: just close
                try:
                    length = protocol.frame_length(header)
                except SerializationError as exc:
                    # Oversized declaration: refuse the body; the stream
                    # cannot be re-synchronised, so reply ERR and close.
                    self.counters["protocol_errors"] += 1
                    future = loop.create_future()
                    future.set_result(protocol.error_reply(str(exc)))
                    await pending.put(future)
                    break
                try:
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # truncated frame: sender vanished mid-body
                future = loop.create_future()
                await pending.put(future)
                if self._draining:
                    self.counters["drain_rejections"] += 1
                    future.set_result(
                        protocol.encode_reply(Status.BUSY, b"server draining")
                    )
                    continue
                try:
                    self._queue.put_nowait((body, future, time.perf_counter()))
                except asyncio.QueueFull:
                    self.counters["busy_rejections"] += 1
                    future.set_result(
                        protocol.encode_reply(
                            Status.BUSY, b"request queue full"
                        )
                    )
        finally:
            await pending.put(None)  # writer drains the backlog, then stops
            await writer_task
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _write_replies(self, pending: asyncio.Queue, writer) -> None:
        """Send replies strictly in request order (FIFO per connection)."""
        while True:
            future = await pending.get()
            if future is None:
                return
            reply = await future
            try:
                writer.write(protocol.encode_frame(reply))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                # Peer is gone: keep consuming futures so the batch
                # consumer never blocks on an abandoned connection.
                continue

    # -- batch consumer -----------------------------------------------------
    async def _consume(self) -> None:
        """Drain the shared queue, micro-batching whatever has piled up."""
        while True:
            first = await self._queue.get()
            batch: List[_Work] = [first]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._process(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()
            # Yield so connection tasks can refill the queue while the
            # next batch accumulates.
            await asyncio.sleep(0)

    async def _process(self, batch: List[_Work]) -> None:
        """Decode and answer one drained batch.

        Verify requests are only split at their routing prefix here,
        partitioned into shard windows and run through
        :meth:`_run_window`: inline that does the CPU work synchronously
        (the window coroutine never suspends); with a worker pool each
        window becomes a task, so the loop returns to framing at once.
        """
        drained = time.perf_counter()
        registry = self.registry
        registry.histogram("service.batch_size").observe(len(batch))
        tracer = self.tracer
        curve = self.kgc.ctx.curve
        pendings: List[_PendingVerify] = []
        for body, future, enqueued in batch:
            if future.done():  # connection already answered (cannot happen
                continue  # for queued work today, but stay defensive)
            self.counters["requests"] += 1
            wait_s = drained - enqueued
            registry.histogram("service.queue_wait_ms").observe(wait_s * 1e3)
            try:
                opcode, payload, trace_id, deadline_ms = protocol.decode_request(
                    body
                )
                if trace_id is not None:
                    self.counters["traced_requests"] += 1
                    if tracer.enabled:
                        tracer.record(
                            "server.queue_wait",
                            trace_id=trace_id,
                            span_id=f"{trace_id}/queue_wait",
                            parent_id=f"{trace_id}/request",
                            start_s=enqueued,
                            dur_s=wait_s,
                        )
                deadline: Optional[float] = None
                if deadline_ms is not None:
                    self.counters["deadline_requests"] += 1
                    deadline = enqueued + deadline_ms / 1e3
                    if drained > deadline:
                        # Expired while queued: answer without paying
                        # for a pairing the client no longer wants.
                        self.counters["deadline_expirations"] += 1
                        future.set_result(
                            protocol.error_reply(
                                "deadline exceeded: "
                                f"{wait_s * 1e3:.0f}ms in queue against a "
                                f"{deadline_ms}ms budget"
                            )
                        )
                        continue
                if opcode in (Opcode.VERIFY, Opcode.VERIFY_FAST):
                    fast = opcode == Opcode.VERIFY_FAST
                    if fast:
                        self.counters["fast_verify_requests"] += 1
                        key = protocol.split_verify_fast_payload(payload)
                    else:
                        key, _pk_blob = protocol.split_verify_payload(
                            curve, payload
                        )
                    pendings.append(
                        _PendingVerify(
                            future, trace_id, enqueued, deadline, fast, key,
                            payload,
                        )
                    )
                    continue
                if opcode == Opcode.REKEY and self._pool is not None:
                    if payload:
                        raise SerializationError(
                            f"REKEY request carries {len(payload)} unexpected"
                            " payload bytes"
                        )
                    self._spawn_group_task(self._rekey_with_pool(future))
                    continue
                future.set_result(self._answer(opcode, payload))
            except SerializationError as exc:
                self.counters["protocol_errors"] += 1
                future.set_result(protocol.error_reply(str(exc)))
            except ReproError as exc:
                future.set_result(protocol.error_reply(str(exc)))
            except Exception as exc:  # total: a bug must not kill the loop
                future.set_result(
                    protocol.error_reply(f"internal error: {exc}")
                )
        for members in self._partition(pendings):
            window = self._run_window(members)
            if self._pool is None:
                await window
            else:
                self._spawn_group_task(window)

    def _spawn_group_task(self, coroutine) -> None:
        task = asyncio.ensure_future(coroutine)
        self._group_tasks.add(task)
        task.add_done_callback(self._group_tasks.discard)

    def _answer(self, opcode: Opcode, payload: bytes) -> bytes:
        """One non-verify request -> one reply body."""
        if payload and opcode not in (Opcode.ENROLL, Opcode.SESSION):
            # Payload-less opcodes must arrive bare: random bytes that
            # happen to start with a valid (possibly trace-flagged)
            # opcode byte stay protocol errors, not accidental requests.
            raise SerializationError(
                f"{opcode.name} request carries {len(payload)} unexpected"
                " payload bytes"
            )
        if opcode == Opcode.PING:
            return protocol.encode_reply(Status.OK)
        if opcode == Opcode.PARAMS:
            return protocol.encode_reply(
                Status.OK, protocol.encode_json_payload(self._params())
            )
        if opcode == Opcode.ENROLL:
            identity = protocol.decode_enroll_payload(payload)
            keys = self.kgc.enroll(identity)
            self.counters["enrollments"] += 1
            return protocol.encode_reply(
                Status.OK,
                protocol.encode_user_keys(self.kgc.ctx.curve, keys),
            )
        if opcode == Opcode.SESSION:
            return self._answer_session(payload)
        if opcode == Opcode.REKEY:
            self.kgc.rekey()
            self.counters["rekeys"] += 1
            self._flush_sessions_after_rekey()
            return protocol.encode_reply(
                Status.OK, protocol.encode_json_payload(self._params())
            )
        if opcode == Opcode.STATS:
            return protocol.encode_reply(
                Status.OK, protocol.encode_json_payload(self.stats())
            )
        if opcode == Opcode.METRICS:
            return protocol.encode_reply(
                Status.OK, self.metrics_text().encode("utf-8")
            )
        raise SerializationError(f"unhandled opcode {opcode}")

    async def _rekey_with_pool(self, future: "asyncio.Future[bytes]") -> None:
        """Rotate the master secret, then re-arm every worker *before*
        the reply goes out - a verify pipelined after the rekey reply is
        guaranteed to be judged under the new master public key."""
        try:
            self.kgc.rekey()
            self.counters["rekeys"] += 1
            self._flush_sessions_after_rekey()
            # broadcast_params also clears every worker's session shard
            await self._pool.broadcast_params(self._worker_params())
            reply = protocol.encode_reply(
                Status.OK, protocol.encode_json_payload(self._params())
            )
        except Exception as exc:
            reply = protocol.error_reply(f"rekey failed: {exc}")
        if not future.done():
            future.set_result(reply)

    # -- the pairing-free session fast path ---------------------------------
    def _flush_sessions_after_rekey(self) -> None:
        """A new master secret kills every issued partial key, therefore
        every session key derived from one (the rekey invalidation
        chain's session link)."""
        self.counters["sessions_killed_by_rekey"] += self.sessions.flush()
        self.authority.rekey(self.kgc.scheme.master_secret)

    def _answer_session(self, payload: bytes) -> bytes:
        """One SESSION handshake: bootstrap trust rides on the client's
        *enrolled* McCLS key (one pairing verify), then everything the
        session touches is plain G1 arithmetic and HMACs."""
        curve = self.kgc.ctx.curve
        self.counters["session_requests"] += 1
        hello, signature = protocol.decode_session_payload(curve, payload)
        identity = normalize_identity(hello.identity)
        try:
            enrolled = self.kgc.keys_for(identity)
        except KeyError:
            self.counters["sessions_rejected"] += 1
            return protocol.error_reply(
                f"identity {identity!r} is not enrolled"
            )
        auth_bytes = protocol.session_hello_auth_bytes(curve, hello)
        if not self.kgc.scheme.verify(
            auth_bytes, signature, identity, enrolled.public_key
        ):
            self.counters["sessions_rejected"] += 1
            return protocol.error_reply("session hello signature rejected")
        accept, session = self.authority.respond(hello)
        self.sessions.put(session, time.monotonic())
        self.counters["sessions_established"] += 1
        if self._pool is not None:
            self._pool.install_session(session)
        return protocol.encode_reply(
            Status.OK, protocol.encode_session_accept(curve, accept)
        )

    # -- the verification pipeline ------------------------------------------
    def _partition(
        self, pendings: List[_PendingVerify]
    ) -> List[List[_PendingVerify]]:
        """Cut a drained window by request kind and along the pool's
        identity shards (one shard inline), so every worker only admits,
        anchors and holds sessions for its own partition of the
        population."""
        windows: Dict[Tuple[bool, int], List[_PendingVerify]] = {}
        for pending in pendings:
            shard = 0 if self._pool is None else self._pool.shard_of(pending.key)
            windows.setdefault((pending.fast, shard), []).append(pending)
        return list(windows.values())

    async def _run_window(self, members: List[_PendingVerify]) -> None:
        """One shard window: inline through the window function, or one
        round trip through the pool; either way one accounting pass, and
        no reply future outlives the call."""
        fast = members[0].fast
        payloads = [pending.payload for pending in members]
        started = time.perf_counter()
        try:
            try:
                if self._pool is not None:
                    submit = self._pool.submit_fast if fast else self._pool.submit
                    outcome = await submit(members[0].key, payloads)
                elif fast:
                    outcome = fast_window(self.sessions, payloads)
                else:
                    outcome = verify_window(
                        self.kgc.ctx.curve, self.kgc.scheme, self.batcher,
                        payloads,
                    )
            except WorkerLostError as exc:
                # The worker died or hung with this window in flight: the
                # client gets a definite error now, never a hung future.
                self.counters["worker_lost_replies"] += len(members)
                failure = f"worker-lost: {exc}"
            except Exception as exc:  # total: a bug must not kill the loop
                failure = (
                    str(exc) if isinstance(exc, ReproError)
                    else f"internal error: {exc}"
                )
            else:
                self._settle(members, outcome, started, fast)
                return
            reply = protocol.error_reply(failure)
            now = time.perf_counter()
            for pending in members:
                self._resolve_verify(pending, reply, now)
        finally:
            # Cancellation (hard stop) must not strand a reply future.
            for pending in members:
                if not pending.future.done():
                    pending.future.set_result(
                        protocol.error_reply("server shutting down")
                    )

    def _resolve_verify(
        self, pending: _PendingVerify, reply: bytes, now: float
    ) -> None:
        """Answer one verify, demoting late verdicts to deadline errors."""
        if pending.future.done():
            return
        if pending.deadline is not None:
            slack_s = pending.deadline - now
            self.registry.histogram("service.deadline_slack_ms").observe(
                slack_s * 1e3
            )
            if slack_s < 0:
                self.counters["deadline_expirations"] += 1
                reply = protocol.error_reply(
                    "deadline exceeded: verdict ready "
                    f"{-slack_s * 1e3:.0f}ms past the budget"
                )
        pending.future.set_result(reply)

    def _settle(
        self,
        members: List[_PendingVerify],
        outcome: tuple,
        started: float,
        fast: bool,
    ) -> None:
        """Reply to one finished window and account for it: counters and
        the request histogram, plus for VERIFY windows the stage
        histograms, trace spans and the process-registry counter."""
        counters = self.counters
        registry = self.registry
        results, crypto_s = outcome[0], outcome[1]
        fold_s = time.perf_counter() - started
        if not fast:
            fallback, fold_stats = outcome[2], outcome[3]
            counters["verify_requests"] += len(members)
            counters["batch_fallbacks"] += int(fallback)
            if fold_stats is not None:
                counters["cross_signer_folds"] += 1
                counters["cross_signer_requests"] += len(members)
                counters["cross_bisections"] += int(
                    fold_stats.get("bisections", 0)
                )
                registry.histogram("service.cross_fold_size").observe(
                    len(members)
                )
            elif len(members) > 1:
                counters["batches"] += 1
                counters["batched_requests"] += len(members)
        verdict = "fast_verify_" if fast else "verify_"
        serialize_started = time.perf_counter()
        replies = []
        for kind, value in results:
            if kind == "err":
                counters[
                    "fast_verify_unknown_session"
                    if value == protocol.UNKNOWN_SESSION
                    else "protocol_errors"
                ] += 1
                replies.append(protocol.error_reply(str(value)))
                continue
            if kind == "replay":
                counters["fast_verify_replays"] += 1
            counters[verdict + ("valid" if value else "invalid")] += 1
            replies.append(protocol.verify_reply(bool(value)))
        done = time.perf_counter()
        for pending, reply in zip(members, replies):
            self._resolve_verify(pending, reply, done)
        request_ms = registry.histogram("service.request_ms")
        for pending in members:
            request_ms.observe((done - pending.enqueued) * 1e3)
        if fast:
            # A MAC window has no fold or pairing stage to report, and it
            # is often one request: three more histogram observations
            # would cost about a tenth of the gateway's time per request.
            return
        serialize_s = done - serialize_started
        registry.histogram("service.verify_ms").observe(crypto_s * 1e3)
        registry.histogram("service.batch_fold_ms").observe(fold_s * 1e3)
        registry.histogram("service.serialize_ms").observe(serialize_s * 1e3)
        tracer = self.tracer
        for pending in members:
            if pending.trace_id is None or not tracer.enabled:
                continue
            tid = pending.trace_id
            # One stage tree per traced request, all under its trace id;
            # the fold/crypto durations are shared by the whole window
            # (that sharing IS the batching win).
            tracer.record(
                "server.request",
                trace_id=tid,
                span_id=f"{tid}/request",
                parent_id=f"t{tid}",
                start_s=pending.enqueued,
                dur_s=done - pending.enqueued,
            )
            tracer.record(
                "server.batch_fold",
                trace_id=tid,
                span_id=f"{tid}/batch_fold",
                parent_id=f"{tid}/request",
                start_s=started,
                dur_s=fold_s,
                batch=len(members),
            )
            tracer.record(
                "server.pairing",
                trace_id=tid,
                span_id=f"{tid}/pairing",
                parent_id=f"{tid}/batch_fold",
                start_s=started,
                dur_s=crypto_s,
            )
            tracer.record(
                "server.serialize",
                trace_id=tid,
                span_id=f"{tid}/serialize",
                parent_id=f"{tid}/request",
                start_s=serialize_started,
                dur_s=serialize_s,
            )
        process_registry = get_registry()
        if process_registry.active:
            process_registry.counter("service.verifies").inc(len(members))

    # -- introspection ------------------------------------------------------
    def _params(self) -> dict:
        scheme = self.kgc.scheme
        return protocol.params_document(
            scheme.name,
            self.kgc.ctx.curve,
            scheme.p_pub_g1,
            scheme.p_pub_g2,
            backend=self.kgc.ctx.backend.name,
        )

    def _worker_params(self) -> dict:
        """The params document workers build from: the public params
        plus the bounds of each worker's session shard."""
        return dict(
            self._params(),
            sessions={
                "capacity": self.sessions.capacity,
                "ttl_s": self.sessions.ttl_s,
            },
        )

    #: the stage histograms STATS/METRICS report (stable metric names)
    STAGE_HISTOGRAMS = (
        "queue_wait",
        "batch_fold",
        "verify",
        "serialize",
        "request",
        "deadline_slack",
    )

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Bounded-cache accounting: the KGC's own context merged with
        every worker's (workers do the verify-side pairing work)."""
        if self._pool is None:
            return self.kgc.ctx.cache_stats()
        return merge_cache_stats(
            self.kgc.ctx.cache_stats(), self._pool.worker_cache_stats()
        )

    def session_counts(self) -> Dict[str, int]:
        """Live sessions plus eviction/expiry counters: the gateway's own
        table inline, the sum of the workers' shards with a pool (there
        the gateway's table is only a registry no shard follows)."""
        if self._pool is not None:
            return self._pool.worker_session_counts()
        self.sessions.prune(time.monotonic())
        return self.sessions.counts()

    def stats(self) -> dict:
        """Counters, bounded-cache accounting and server-side stage
        latency summaries (the STATS reply)."""
        registry = self.registry
        sessions = self.session_counts()
        document = {
            "schema_version": STATS_SCHEMA_VERSION,
            "counters": dict(self.counters),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_size": self.queue_size,
            "max_batch": self.max_batch,
            "cache": self.cache_stats(),
            "enrolled": len(self.kgc.issued_identities()),
            "latency_ms": {
                stage: registry.histogram(f"service.{stage}_ms").summary()
                for stage in self.STAGE_HISTOGRAMS
            },
            "batch": {
                "size": registry.histogram("service.batch_size").summary(),
                "cross_signer_folds": self.counters["cross_signer_folds"],
                "bisections": self.counters["cross_bisections"],
                "fold_size": registry.histogram(
                    "service.cross_fold_size"
                ).summary(),
            },
            "sessions": {
                "active": sessions["active"],
                "capacity": self.sessions.capacity,
                "ttl_s": self.sessions.ttl_s,
                "established": self.counters["sessions_established"],
                "evictions": sessions["evictions"],
                "expirations": sessions["expirations"],
                "killed_by_rekey": self.counters["sessions_killed_by_rekey"],
            },
        }
        if self._pool is not None:
            pool_stats = self._pool.stats()
            pool_stats["supervision_log"] = list(self._pool.supervisor.log)[-32:]
            document["pool"] = pool_stats
        return document

    def metrics_text(self) -> str:
        """Prometheus text exposition of everything STATS reports."""
        renderer = PrometheusRenderer("repro")
        for name, value in sorted(self.counters.items()):
            renderer.counter(f"service.{name}", value)
        for stage in self.STAGE_HISTOGRAMS:
            renderer.summary(
                "service.stage_ms",
                self.registry.histogram(f"service.{stage}_ms").summary(),
                {"stage": stage},
            )
        renderer.summary(
            "service.batch_size",
            self.registry.histogram("service.batch_size").summary(),
        )
        renderer.summary(
            "service.cross_fold_size",
            self.registry.histogram("service.cross_fold_size").summary(),
        )
        renderer.gauge(
            "service.queue_depth", self._queue.qsize() if self._queue else 0
        )
        renderer.gauge("service.queue_size", self.queue_size)
        renderer.gauge("service.enrolled", len(self.kgc.issued_identities()))
        sessions = self.session_counts()
        renderer.gauge("service.sessions_active", sessions["active"])
        renderer.counter("service.session_evictions", sessions["evictions"])
        renderer.counter(
            "service.session_expirations", sessions["expirations"]
        )
        if self._pool is not None:
            pool_stats = self._pool.stats()
            ready = sum(
                1 for w in pool_stats["workers"] if w["state"] == "ready"
            )
            renderer.gauge("service.workers", pool_stats["size"])
            renderer.gauge("service.workers_ready", ready)
            for name, value in sorted(pool_stats["supervisor"].items()):
                renderer.counter(f"service.worker_{name}", value)
        for cache_name, stats in sorted(self.cache_stats().items()):
            labels = {"cache": cache_name}
            for key in ("hits", "misses", "evictions"):
                renderer.counter(f"cache.{key}", stats.get(key, 0), labels)
            for key in ("size", "peak_size", "maxsize"):
                renderer.gauge(f"cache.{key}", stats.get(key, 0), labels)
        return renderer.render()
