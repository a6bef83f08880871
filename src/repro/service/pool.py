"""The gateway's verification pipeline and its supervised worker pool.

:func:`verify_window` and :func:`fast_window` are the whole verify
pipeline of the gateway.  A worker process runs them for every job; a
gateway without workers calls them inline on its event loop.  Verdicts,
fallbacks, error details and session expiry therefore cannot depend on
``--workers``:

* **The window rule.**  :func:`verify_window` fully decodes a drained
  window (a malformed item becomes ``("err", detail)``) and picks the
  method from what is left.  One signer with one item gets an exact
  ``verify``.  One signer with k > 1 items gets
  :meth:`~repro.core.batch.McCLSBatchVerifier.verify_same_signer` (one
  pairing when warm), then exact per-item verdicts if that fails or
  raises.  Several signers get one randomized
  :meth:`~repro.core.batch.McCLSBatchVerifier.verify_cross_signer`
  fold, which bisects a failure down to exact verdicts.

* **Session shards.**  :func:`fast_window` does the session lookup,
  identity check, replay check and HMAC of MAC-authenticated
  ``VERIFY_FAST`` requests against a :class:`SessionTable`.  Inline that
  table is the gateway's own; with a pool every worker holds one for
  its identity shard, bounded by the gateway's capacity and TTL.

The pool moves that CPU work into **worker processes**, each holding a
verifier view of the scheme (public params only - the KGC master secret
never crosses the process boundary) plus its own bounded pairing caches:

* **Identity-affinity routing.**  A window is routed by
  ``crc32(identity) % size``, so one worker's Miller/GT/comb caches and
  sessions stay with its identity partition instead of every worker
  thrashing over the whole key population.  When the affine worker is
  dead or restarting, the window falls over to another live worker
  (correctness never depends on affinity).

* **Crash/hang containment.**  Each worker is watched by the
  :class:`~repro.service.supervisor.WorkerSupervisor`: process exits and
  pipe EOFs surface immediately, heartbeats catch silent hangs, and a
  per-job deadline bounds poisoned requests.  A lost worker fails its
  in-flight jobs with :class:`~repro.errors.WorkerLostError` - the
  gateway turns those into clean ``ERR`` replies, **never a hung
  future** - and is respawned under jittered backoff.

* **Rekey propagation.**  :meth:`VerifyWorkerPool.broadcast_params`
  ships the post-rekey params document to every live worker; the pipe's
  FIFO ordering guarantees any job submitted afterwards verifies under
  the new master public key.  Workers report *cumulative* cache stats
  across param generations, so invalidation probes (miss-once-then-hit)
  keep working through the pool.

Wire format parent -> worker (pickled tuples over a duplex pipe):
``("verify", id, [payload, ...])`` (one window through
:func:`verify_window`), ``("fast", id, [payload, ...])`` (one window
through :func:`fast_window` against the worker's session shard),
``("session", session_id, key, identity)`` (install one established
session; the gateway sends it to the identity's shard owner),
``("params", doc)`` (rebuild the verifier view and flush the session
shard - a rekey kills every session key; the spawn document's
``doc["sessions"]`` carries the shard's ``capacity`` and ``ttl_s``),
``("ping", seq)``, ``("sleep", seconds)`` (a chaos/test hook simulating
a hard hang) and ``("stop",)``.  Worker -> parent: ``("ready", pid)``,
``("pong", seq, session_counts)``, ``("done", id, outcome, cache_stats,
session_counts)`` (``outcome`` is the window function's return value;
``session_counts`` is the shard's :meth:`SessionTable.counts`, pruned of
idle expired sessions at each heartbeat) and ``("failed", id,
detail)``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.batch import McCLSBatchVerifier
from repro.core.session import EstablishedSession
from repro.errors import ReproError, ServiceError, WorkerLostError
from repro.pairing.curve import point_key
from repro.service import protocol
from repro.service.supervisor import RestartBackoff, WorkerSupervisor

#: one item's result: ("ok", verdict), ("replay", False) for a replayed
#: fast-path sequence number, or ("err", detail) - a malformed payload,
#: or protocol.UNKNOWN_SESSION
ItemResult = Tuple[str, object]


def merge_cache_stats(*stats: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Merge per-context cache accounting documents.

    Monotonic counters (hits/misses/evictions) add; ``peak_size`` takes
    the max (every context respected its own bound, so the max is the
    honest "worst cache pressure seen anywhere"); ``size``/``maxsize``
    come from the last document naming them.  The ``fixed_bases`` entry's
    ``pinned``/``evictable`` populations add: each context pins its own
    copy of the system bases, so the merged document reports the total
    number of tables held across the deployment.
    """
    merged: Dict[str, Dict[str, int]] = {}
    for document in stats:
        for name, entry in document.items():
            into = merged.setdefault(name, {})
            for key in ("hits", "misses", "evictions", "pinned", "evictable"):
                if key in entry or key in into:
                    into[key] = into.get(key, 0) + entry.get(key, 0)
            into["peak_size"] = max(
                into.get("peak_size", 0), entry.get("peak_size", 0)
            )
            for key in ("size", "maxsize"):
                if key in entry:
                    into[key] = entry[key]
    return merged


# ---------------------------------------------------------------------------
# The verification pipeline (runs in a worker, or inline in the gateway)
# ---------------------------------------------------------------------------


@dataclass
class _SessionEntry:
    """One live fast-path session plus its replay/expiry state."""

    session: EstablishedSession
    identity: str
    #: highest sequence number accepted so far (monotonic per session)
    seq: int
    #: monotonic second the session stops being honoured
    expires_at: float


class SessionTable:
    """Bounded LRU of established fast-path sessions with a TTL.

    Keys are session ids (transcript digests).  ``get`` refreshes LRU
    order but never the TTL: a session lives at most ``ttl_s`` seconds
    from establishment, after which the client must re-handshake (and so
    re-prove possession of its enrolled McCLS key).  Eviction and expiry
    are counted so STATS can distinguish churn from rekey flushes.
    """

    def __init__(self, capacity: int = 1024, ttl_s: float = 600.0):
        if capacity < 1:
            raise ValueError("session table capacity must be >= 1")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self.evictions = 0
        self.expirations = 0
        self._entries: "OrderedDict[bytes, _SessionEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, session: EstablishedSession, now: float) -> None:
        """Admit a fresh session, evicting the LRU entry when full."""
        entry = _SessionEntry(
            session=session,
            identity=session.client_identity,
            seq=0,
            expires_at=now + self.ttl_s,
        )
        self._entries[session.session_id] = entry
        self._entries.move_to_end(session.session_id)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get(self, session_id: bytes, now: float) -> Optional[_SessionEntry]:
        """The live entry for ``session_id``, or None (expired entries
        are removed on access)."""
        entry = self._entries.get(session_id)
        if entry is None:
            return None
        if now >= entry.expires_at:
            del self._entries[session_id]
            self.expirations += 1
            return None
        self._entries.move_to_end(session_id)
        return entry

    def prune(self, now: float) -> None:
        """Remove (and count) every expired entry, accessed or not."""
        for session_id in [
            sid for sid, entry in self._entries.items()
            if now >= entry.expires_at
        ]:
            del self._entries[session_id]
            self.expirations += 1

    def flush(self) -> int:
        """Drop every session (rekey invalidation); returns the count."""
        flushed = len(self._entries)
        self._entries.clear()
        return flushed

    def counts(self) -> Dict[str, int]:
        """The ``active``/``evictions``/``expirations`` STATS reports."""
        return {
            "active": len(self._entries),
            "evictions": self.evictions,
            "expirations": self.expirations,
        }


def verify_window(
    curve, verifier, batcher: McCLSBatchVerifier, payloads: List[bytes]
):
    """Verdicts for one window of raw VERIFY payloads (the window rule
    in the module docstring).

    Returns ``(results, crypto_s, fallback, fold_stats)``: per-item
    results in payload order, the seconds the crypto took, whether a
    same-signer aggregate gave way to exact per-item verifies, and the
    cross-signer fold's accounting (``None`` unless the window spans
    several signers).
    """
    results: List[Optional[ItemResult]] = []
    live: List[Tuple[int, protocol.VerifyRequest]] = []
    for payload in payloads:
        try:
            request = protocol.decode_verify_payload(curve, payload)
        except ReproError as exc:
            results.append(("err", str(exc)))
            continue
        live.append((len(results), request))
        results.append(None)
    requests = [request for _index, request in live]
    started = time.perf_counter()
    signers = {(r.identity, point_key(r.public_key)) for r in requests}
    verdicts: Optional[List[bool]] = None
    fold_stats: Optional[dict] = None
    try:
        if len(signers) > 1:
            fold_stats = {}  # a cross window even if the fold raises
            verdicts, fold_stats = batcher.verify_cross_signer(
                [
                    (r.message, r.signature, r.identity, r.public_key)
                    for r in requests
                ]
            )
        elif len(requests) > 1 and batcher.verify_same_signer(
            [(r.message, r.signature) for r in requests],
            requests[0].identity,
            requests[0].public_key,
        ):
            verdicts = [True] * len(requests)
    except (ReproError, ValueError, ZeroDivisionError, ArithmeticError):
        pass  # content the aggregate cannot even weigh: settle per item
    fallback = verdicts is None and len(requests) > 1
    if verdicts is None:
        verdicts = [
            verifier.verify(r.message, r.signature, r.identity, r.public_key)
            for r in requests
        ]
    for (index, _request), valid in zip(live, verdicts):
        results[index] = ("ok", bool(valid))
    return results, time.perf_counter() - started, fallback, fold_stats


def fast_window(sessions: SessionTable, payloads: List[bytes]):
    """Verdicts for one window of MAC-authenticated VERIFY_FAST payloads.

    Session lookup (expired sessions die here), identity binding, replay
    check and HMAC - no curve arithmetic, so a warm fast path performs
    zero pairings.  Returns ``(results, crypto_s)``.
    """
    started = time.perf_counter()
    now = time.monotonic()
    results: List[ItemResult] = []
    for payload in payloads:
        try:
            request = protocol.decode_verify_fast_payload(payload)
        except ReproError as exc:
            results.append(("err", str(exc)))
            continue
        entry = sessions.get(request.session_id, now)
        if entry is None or entry.identity != request.identity:
            results.append(("err", protocol.UNKNOWN_SESSION))
        elif request.seq <= entry.seq:
            # replayed or reordered-behind sequence number: a legitimate
            # client never reuses one, so this is an invalid verdict
            results.append(("replay", False))
        elif entry.session.mac_ok(
            request.mac,
            *protocol.fast_verify_mac_bytes(
                request.session_id, request.seq, request.identity,
                request.message,
            ),
        ):
            entry.seq = request.seq
            results.append(("ok", True))
        else:
            results.append(("ok", False))
    return results, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(conn, params_doc: dict, cache_size: Optional[int]) -> None:
    """Worker process entry: build a verifier view, answer jobs forever.

    The params document carries the gateway's field-backend name
    (``backend`` key), so a spawn-started worker - which inherits no
    parent interpreter state - reconstructs its verifier view on the SAME
    backend the gateway selected, kernel compilation and all, rather than
    silently falling back to the env/default precedence.
    """
    # imported here so the docstring-level import graph stays acyclic
    from repro.service.client import build_verifier_view

    def build(document: dict):
        curve, view = build_verifier_view(document, cache_size=cache_size)
        return curve, view, McCLSBatchVerifier(view)

    try:
        curve, view, batcher = build(params_doc)
        sessions = SessionTable(**params_doc.get("sessions", {}))
        # cache accounting accumulated across params generations, so a
        # rekey (which rebuilds the context) does not reset the totals
        # the gateway's STATS report
        stats_base: Dict[str, Dict[str, int]] = {}
        conn.send(("ready", multiprocessing.current_process().pid))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                return
            if kind == "ping":
                # idle expired sessions are counted here, at heartbeat pace
                sessions.prune(time.monotonic())
                conn.send(("pong", message[1], sessions.counts()))
            elif kind == "params":
                stats_base = merge_cache_stats(
                    stats_base, view.ctx.cache_stats()
                )
                # a rekey invalidated every issued partial key, so every
                # session key derived from one dies with it
                curve, view, batcher = build(message[1])
                sessions.flush()
                conn.send(("ready", multiprocessing.current_process().pid))
            elif kind == "session":
                _, session_id, key, identity = message
                sessions.put(
                    EstablishedSession(
                        session_id=session_id,
                        key=key,
                        client_identity=identity,
                        gateway_identity="",
                    ),
                    time.monotonic(),
                )
            elif kind == "sleep":
                # chaos/test hook: a hard synchronous hang
                time.sleep(message[1])
            elif kind in ("verify", "fast"):
                _, job_id, payloads = message
                try:
                    if kind == "fast":
                        outcome = fast_window(sessions, payloads)
                    else:
                        outcome = verify_window(curve, view, batcher, payloads)
                    conn.send(
                        (
                            "done",
                            job_id,
                            outcome,
                            merge_cache_stats(
                                stats_base, view.ctx.cache_stats()
                            ),
                            sessions.counts(),
                        )
                    )
                except Exception as exc:  # total: one bad job != one worker
                    conn.send(
                        ("failed", job_id, f"{type(exc).__name__}: {exc}")
                    )
    except (EOFError, OSError, KeyboardInterrupt):
        return  # parent went away (or killed us): just exit


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side view of one worker slot (survives restarts)."""

    def __init__(self, index: int):
        self.index = index
        self.generation = 0
        self.state = "dead"  # dead -> starting -> ready
        self.process = None
        self.conn = None
        self.pending: Dict[int, Tuple[asyncio.Future, float]] = {}
        self.started_at = 0.0
        self.last_pong = 0.0
        self.restarts = 0  # lifetime respawns (stats)
        self.crash_streak = 0  # consecutive losses (backoff level)
        self.restart_at: Optional[float] = None
        self.cache_stats: Dict[str, Dict[str, int]] = {}
        self.session_counts: Dict[str, int] = {}
        self.jobs_done = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def oldest_job_age(self, now: float) -> Optional[float]:
        """Age of the oldest in-flight job, or None when idle."""
        if not self.pending:
            return None
        return now - min(started for _fut, started in self.pending.values())


class VerifyWorkerPool:
    """A supervised pool of verifier-view worker processes."""

    def __init__(
        self,
        params_doc: dict,
        size: int,
        *,
        cache_size: Optional[int] = None,
        job_timeout_s: float = 30.0,
        heartbeat_interval_s: float = 0.25,
        heartbeat_timeout_s: float = 2.0,
        backoff: Optional[RestartBackoff] = None,
        start_timeout_s: float = 60.0,
        submit_wait_s: float = 2.0,
        seed: int = 0,
        mp_start_method: str = "spawn",
    ):
        if size < 1:
            raise ServiceError("worker pool needs size >= 1")
        self.params_doc = params_doc
        self.size = size
        self.cache_size = cache_size
        self.start_timeout_s = start_timeout_s
        self.submit_wait_s = submit_wait_s
        self.supervisor = WorkerSupervisor(
            self,
            heartbeat_interval_s=heartbeat_interval_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
            job_timeout_s=job_timeout_s,
            backoff=backoff,
            seed=seed,
        )
        self.counters: Dict[str, int] = {
            "jobs_done": 0,
            "jobs_failed": 0,
            "worker_lost_jobs": 0,
        }
        self._ctx = multiprocessing.get_context(mp_start_method)
        self._handles = [_WorkerHandle(i) for i in range(size)]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._supervise_task: Optional[asyncio.Task] = None
        self._ready_event: Optional[asyncio.Event] = None
        self._ping_seq = 0
        self._next_job_id = 0
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "VerifyWorkerPool":
        """Spawn every worker and wait until the pool can serve."""
        self._loop = asyncio.get_running_loop()
        self._ready_event = asyncio.Event()
        for handle in self._handles:
            self._spawn(handle)
        deadline = time.monotonic() + self.start_timeout_s
        while any(h.state != "ready" for h in self._handles):
            if time.monotonic() >= deadline:
                ready = sum(1 for h in self._handles if h.state == "ready")
                if ready == 0:
                    await self.stop()
                    raise ServiceError(
                        "worker pool failed to start: no worker became ready"
                    )
                break  # serve degraded; the supervisor keeps trying
            await asyncio.sleep(0.01)
        self._supervise_task = asyncio.create_task(self._supervise())
        return self

    async def stop(self) -> None:
        """Stop supervision, fail in-flight jobs, reap every worker."""
        if self._closed:
            return
        self._closed = True
        if self._supervise_task is not None:
            self._supervise_task.cancel()
            try:
                await self._supervise_task
            except asyncio.CancelledError:
                pass
            self._supervise_task = None
        for handle in self._handles:
            self._fail_pending(handle, "worker pool stopped")
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
            if handle.process is not None:
                handle.process.join(timeout=1.0)
                if handle.process.exitcode is None:
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
            if handle.conn is not None:
                handle.conn.close()
                handle.conn = None
            handle.state = "dead"

    # -- submission ---------------------------------------------------------
    async def submit(self, affinity_key: str, payloads: List[bytes]):
        """Run :func:`verify_window` over one window on a worker.

        Returns its ``(results, crypto_s, fallback, fold_stats)``; raises
        :class:`~repro.errors.WorkerLostError` when the owning worker
        dies or overruns its job deadline with this window in flight, and
        when no worker is live within ``submit_wait_s``.
        """
        return await self._submit("verify", affinity_key, payloads)

    #: every window takes the same path; the name stays for callers
    submit_cross = submit

    async def submit_fast(self, affinity_key: str, payloads: List[bytes]):
        """Run :func:`fast_window` on the worker owning ``affinity_key``'s
        session shard; returns its ``(results, crypto_s)``.

        An item whose session the worker does not hold (restart,
        eviction, expiry, rekey) comes back as ``("err",
        UNKNOWN_SESSION)`` so the gateway tells that client to
        re-handshake.  Failure modes match :meth:`submit`.
        """
        return await self._submit("fast", affinity_key, payloads)

    def install_session(self, session: EstablishedSession) -> None:
        """Hand one established session to its identity shard's worker.

        Best-effort: if the shard owner is dead the session is simply not
        installed anywhere, and the client's first fast request earns an
        ``unknown session`` error that drives a re-handshake (by which
        time a worker is back, or the same miss repeats harmlessly).
        """
        handle = self._route(session.client_identity)
        if handle is None or handle.conn is None:
            return
        try:
            handle.conn.send(
                (
                    "session",
                    session.session_id,
                    session.key,
                    session.client_identity,
                )
            )
        except (OSError, ValueError) as exc:
            self.declare_lost(handle, f"session send failed: {exc}")

    async def _submit(self, kind: str, affinity_key: str, payloads: List[bytes]):
        if self._closed:
            raise WorkerLostError("worker pool is stopped")
        handle = await self._acquire(affinity_key)
        job_id = self._next_job_id
        self._next_job_id += 1
        future = self._loop.create_future()
        handle.pending[job_id] = (future, time.monotonic())
        try:
            handle.conn.send((kind, job_id, payloads))
        except (OSError, ValueError) as exc:
            self.declare_lost(handle, f"pipe send failed: {exc}")
        return await future

    async def _acquire(self, affinity_key: str) -> _WorkerHandle:
        """The affine worker if it is ready, else any ready worker; waits
        up to ``submit_wait_s`` through a full-pool restart storm."""
        deadline = time.monotonic() + self.submit_wait_s
        while True:
            handle = self._route(affinity_key)
            if handle is not None:
                return handle
            if self._closed:
                raise WorkerLostError("worker pool is stopped")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerLostError(
                    "no live worker available (all crashed or restarting)"
                )
            self._ready_event.clear()
            try:
                await asyncio.wait_for(self._ready_event.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    def shard_of(self, affinity_key: str) -> int:
        """Stable shard index an identity prefers (ignores liveness).

        The gateway splits every drained window along these ownership
        lines before submitting: each worker then only admits, anchors
        and holds sessions for its own identity partition instead of
        slowly learning the entire population.  Dead-worker fallback
        still happens per submit in :meth:`_route`.
        """
        return zlib.crc32(affinity_key.encode("utf-8")) % self.size

    def _route(self, affinity_key: str) -> Optional[_WorkerHandle]:
        digest = zlib.crc32(affinity_key.encode("utf-8"))
        preferred = self._handles[digest % self.size]
        if preferred.state == "ready":
            return preferred
        ready = [h for h in self._handles if h.state == "ready"]
        if not ready:
            return None
        return ready[digest % len(ready)]

    # -- worker plumbing ----------------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        """(Re)start one worker slot."""
        handle.generation += 1
        generation = handle.generation
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.params_doc, self.cache_size),
            daemon=True,
            name=f"repro-verify-worker-{handle.index}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.state = "starting"
        now = time.monotonic()
        handle.started_at = now
        handle.last_pong = now
        handle.restart_at = None
        handle.pending = {}
        threading.Thread(
            target=self._reader_loop,
            args=(handle, parent_conn, generation),
            daemon=True,
            name=f"repro-worker-reader-{handle.index}",
        ).start()

    def respawn(self, handle: _WorkerHandle) -> None:
        """Supervisor callback: bring a dead slot back."""
        if self._closed:
            return
        if handle.process is not None:
            handle.process.join(timeout=0.1)
        handle.restarts += 1
        self._spawn(handle)

    def _reader_loop(self, handle: _WorkerHandle, conn, generation: int) -> None:
        """Reader thread: one blocking recv loop per live worker pipe."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not self._post(self._on_message, handle, generation, message):
                return
        self._post(self._on_reader_eof, handle, generation)

    def _post(self, callback, *args) -> bool:
        """Schedule a callback on the loop thread (False once it is gone)."""
        try:
            self._loop.call_soon_threadsafe(callback, *args)
            return True
        except RuntimeError:
            return False  # event loop already closed (teardown)

    def _on_message(
        self, handle: _WorkerHandle, generation: int, message
    ) -> None:
        if generation != handle.generation or self._closed:
            return  # a previous incarnation's straggler
        kind = message[0]
        now = time.monotonic()
        if kind == "ready":
            handle.state = "ready"
            handle.last_pong = now
            handle.crash_streak = 0
            if self._ready_event is not None:
                self._ready_event.set()
        elif kind == "pong":
            handle.last_pong = now
            handle.session_counts = message[2]
        elif kind == "done":
            _, job_id, outcome, cache_stats, session_counts = message
            handle.last_pong = now
            handle.cache_stats = cache_stats
            handle.session_counts = session_counts
            entry = handle.pending.pop(job_id, None)
            if entry is not None:
                future, _started = entry
                if not future.done():
                    handle.jobs_done += 1
                    self.counters["jobs_done"] += 1
                    future.set_result(outcome)
        elif kind == "failed":
            _, job_id, detail = message
            handle.last_pong = now
            entry = handle.pending.pop(job_id, None)
            if entry is not None:
                future, _started = entry
                if not future.done():
                    self.counters["jobs_failed"] += 1
                    future.set_exception(
                        ServiceError(f"worker job failed: {detail}")
                    )

    def _on_reader_eof(self, handle: _WorkerHandle, generation: int) -> None:
        if generation != handle.generation or self._closed:
            return
        self.declare_lost(handle, "worker pipe closed")

    def declare_lost(self, handle: _WorkerHandle, reason: str) -> None:
        """Mark a worker dead: fail its jobs, kill it, schedule respawn."""
        if handle.state == "dead" or self._closed:
            return
        handle.state = "dead"
        self.supervisor.note("lost", handle.index, reason=reason)
        self._fail_pending(handle, reason)
        if handle.process is not None and handle.process.exitcode is None:
            handle.process.terminate()
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        handle.crash_streak += 1
        handle.restart_at = time.monotonic() + self.supervisor.restart_delay_s(
            handle.crash_streak - 1
        )

    def _fail_pending(self, handle: _WorkerHandle, reason: str) -> None:
        pending, handle.pending = handle.pending, {}
        for future, _started in pending.values():
            if not future.done():
                self.counters["worker_lost_jobs"] += 1
                future.set_exception(WorkerLostError(f"worker lost: {reason}"))

    def ping(self, handle: _WorkerHandle) -> None:
        """Supervisor callback: heartbeat one ready worker."""
        self._ping_seq += 1
        try:
            handle.conn.send(("ping", self._ping_seq))
        except (OSError, ValueError) as exc:
            self.declare_lost(handle, f"heartbeat send failed: {exc}")

    async def _supervise(self) -> None:
        while True:
            await asyncio.sleep(self.supervisor.heartbeat_interval_s)
            self.supervisor.sweep(time.monotonic())

    # -- rekey / introspection ----------------------------------------------
    async def broadcast_params(self, params_doc: dict) -> None:
        """Ship a fresh params document to every live worker.

        Pipe FIFO ordering guarantees any job submitted after this call
        verifies under the new parameters; dead workers pick the new
        document up at respawn.
        """
        self.params_doc = params_doc
        for handle in self._handles:
            if handle.state == "dead" or handle.conn is None:
                continue
            try:
                handle.conn.send(("params", params_doc))
            except (OSError, ValueError) as exc:
                self.declare_lost(handle, f"params send failed: {exc}")

    def handles(self) -> List[_WorkerHandle]:
        """The worker slots (supervisor's sweep surface)."""
        return self._handles

    def worker_cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Latest known cache accounting merged across workers."""
        return merge_cache_stats(
            *(h.cache_stats for h in self._handles if h.cache_stats)
        )

    def worker_session_counts(self) -> Dict[str, int]:
        """Latest known session-shard counts summed across workers."""
        total = {"active": 0, "evictions": 0, "expirations": 0}
        for handle in self._handles:
            for key, value in handle.session_counts.items():
                total[key] += value
        return total

    def stats(self) -> dict:
        """Pool counters, supervision tallies and per-worker state."""
        return {
            "size": self.size,
            "counters": dict(self.counters),
            "supervisor": dict(self.supervisor.counters),
            "workers": [
                {
                    "index": h.index,
                    "pid": h.pid,
                    "state": h.state,
                    "restarts": h.restarts,
                    "pending": len(h.pending),
                    "jobs_done": h.jobs_done,
                }
                for h in self._handles
            ],
        }
