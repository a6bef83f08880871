"""Closed- and open-loop load over raw pipelined connections.

Replies come back in request order on each connection, so a reader
matches them to requests by position.  Every OK reply is checked against
its expected verdict; a mismatch raises :class:`VerdictMismatch`, which
fails the run.  ``ERR``, ``BUSY``, timeouts and dropped connections are
counted as failures and never retried.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.service import protocol
from repro.service.protocol import Status

#: (connection index, frame bytes, expected verdict)
Item = Tuple[int, bytes, bool]

#: replies still missing this long after the last request was due fail
#: as timeouts
REPLY_TIMEOUT_S = 10.0
#: a closed block still unanswered after this long fails its remainder
CLOSED_TIMEOUT_S = 60.0


class VerdictMismatch(AssertionError):
    """The gateway answered OK with the wrong verdict."""


@dataclass
class PhaseResult:
    """What one phase sent and got back."""

    attempted: int = 0
    ok: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    #: open phase only: per-request latency from its due time (None when
    #: the request failed) and how late the generator sent it
    latency_s: List[Optional[float]] = field(default_factory=list)
    lateness_s: List[float] = field(default_factory=list)

    def merge(self, other: "PhaseResult") -> None:
        """Add another part of the same phase to this one."""
        self.attempted += other.attempted
        self.ok += other.ok
        self.failed += other.failed
        self.elapsed_s += other.elapsed_s
        self.latency_s += other.latency_s
        self.lateness_s += other.lateness_s


async def connect(host: str, port: int, count: int):
    """``count`` fresh (reader, writer) pairs."""
    return [await asyncio.open_connection(host, port) for _ in range(count)]


async def close(conns) -> None:
    """Close every connection, ignoring ones the peer already dropped."""
    for _reader, writer in conns:
        writer.close()
    for _reader, writer in conns:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _read_body(reader) -> bytes:
    header = await reader.readexactly(4)
    return await reader.readexactly(protocol.frame_length(header))


def judge(body: bytes, expected: bool) -> bool:
    """True for a correct OK verdict, False for ERR/BUSY; raises
    :class:`VerdictMismatch` for an OK reply with the wrong verdict."""
    status, payload = protocol.decode_reply(body)
    if status != Status.OK:
        return False
    verdict = protocol.decode_verify_verdict(payload)
    if verdict != expected:
        raise VerdictMismatch(f"gateway said {verdict}, expected {expected}")
    return True


async def closed_phase(conns, items: Sequence[Item], window: int) -> PhaseResult:
    """Send ``items`` keeping ``window`` requests in flight per connection."""
    per_conn: List[List[Item]] = [[] for _ in conns]
    for item in items:
        per_conn[item[0]].append(item)
    result = PhaseResult(attempted=len(items))

    async def drive(reader, writer, mine: List[Item]) -> None:
        inflight: deque = deque()
        sent = 0
        while sent < len(mine) and len(inflight) < window:
            writer.write(mine[sent][1])
            inflight.append(mine[sent][2])
            sent += 1
        while inflight:
            body = await _read_body(reader)
            if judge(body, inflight.popleft()):
                result.ok += 1
            if sent < len(mine):
                writer.write(mine[sent][1])
                inflight.append(mine[sent][2])
                sent += 1

    started = time.perf_counter()
    tasks = [
        asyncio.ensure_future(drive(r, w, mine))
        for (r, w), mine in zip(conns, per_conn)
    ]
    done, pending = await asyncio.wait(tasks, timeout=CLOSED_TIMEOUT_S)
    result.elapsed_s = time.perf_counter() - started
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        exc = task.exception()
        if isinstance(exc, VerdictMismatch):
            raise exc
    result.failed = result.attempted - result.ok
    return result


async def open_phase(conns, items: Sequence[Item], gaps: Sequence[float]) -> PhaseResult:
    """Send item i at its due time (start + sum of gaps[:i+1]) whatever
    the replies do; latency runs from the due time to the reply."""
    n = len(items)
    result = PhaseResult(attempted=n)
    due = [0.0] * n
    done: List[Optional[float]] = [None] * n
    inflight: List[deque] = [deque() for _ in conns]
    arrived = [asyncio.Event() for _ in conns]
    mismatch: List[VerdictMismatch] = []

    async def read(c: int, reader) -> None:
        queue = inflight[c]
        while True:
            while not queue:
                arrived[c].clear()
                await arrived[c].wait()
            body = await _read_body(reader)
            now = time.perf_counter()
            index = queue.popleft()
            try:
                if judge(body, items[index][2]):
                    done[index] = now
            except VerdictMismatch as exc:
                mismatch.append(exc)

    readers = [asyncio.ensure_future(read(c, r)) for c, (r, _w) in enumerate(conns)]
    start = time.perf_counter() + 0.05
    clock = start
    for i, gap in enumerate(gaps):
        clock += gap
        due[i] = clock
    try:
        i = 0
        while i < n:
            wait = due[i] - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            # everything due by now goes out in one write per connection
            now = time.perf_counter()
            batches: dict = {}
            while i < n and due[i] <= now:
                c, frame, _expected = items[i]
                batches.setdefault(c, []).append(frame)
                inflight[c].append(i)
                result.lateness_s.append(now - due[i])
                i += 1
            for c, frames in batches.items():
                writer = conns[c][1]
                writer.write(b"".join(frames))
                arrived[c].set()
                if writer.transport.get_write_buffer_size() > 1 << 16:
                    await writer.drain()
        deadline = due[-1] + REPLY_TIMEOUT_S if n else time.perf_counter()
        while any(inflight) and time.perf_counter() < deadline:
            if any(r.done() for r in readers):
                break  # a connection dropped: its in-flight requests fail
            await asyncio.sleep(0.005)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    if mismatch:
        raise mismatch[0]
    result.elapsed_s = (due[-1] - start) if n else 0.0
    result.latency_s = [None if d is None else d - due[i] for i, d in enumerate(done)]
    result.ok = sum(1 for d in done if d is not None)
    result.failed = n - result.ok
    return result
