"""Workload constants and the seeded request plans built from them.

A plan is a pure function of (workload, seed, seconds, connections): the
signer draw, the tampered positions, the messages and the open-phase
arrival gaps all come from one ``random.Random(seed)`` stream, so one
seed always yields the same frames and the same schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: share of ``--seconds`` given to the closed (capacity) phase; the rest
#: is the open (latency) phase
CLOSED_SHARE = 0.4
#: the open phase holds at least this many requests, so p99 always has
#: ten samples beyond it
MIN_OPEN_REQUESTS = 1000
#: both phases are cut into this many parts and run alternately (closed
#: block, open slice, closed block, ...), so a slow spell of the host
#: lands on parts of both instead of on one whole phase
ROUNDS = 6
#: gateway launches per run; setup_s is their median
SETUP_REPEATS = 3
#: throwaway signers that warm the gateway's lazy tables in set-up, each
#: sending WARM_PER_SIGNER valid requests; they never send again
FRESH_WARM_SIGNERS = 4
WARM_PER_SIGNER = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one gateway configuration."""

    name: str
    why: str
    #: "verify" (McCLS VERIFY frames, every burst from a fresh signer) or
    #: "fast" (VERIFY_FAST over CL-AKA sessions)
    mode: str
    workers: int
    #: open-phase offered rate, about half the highest rate this workload
    #: sustains without a growing backlog on the reference host
    rate_rps: float
    #: latency limit behind slo_ratio
    latency_limit_ms: float
    #: closed-phase requests per second of run time; sizes the corpus only
    closed_rps_hint: float
    #: requests each connection keeps pipelined in the closed phase
    window: int
    #: inclusive burst-length range: consecutive requests of one signer
    burst: Tuple[int, int]
    #: CL-AKA sessions multiplexed over the connections ("fast" mode)
    sessions: int = 0
    #: share of VERIFY requests whose message is altered after signing;
    #: each arrives alone, as the forged first message of its own identity
    tamper: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold_inline",
            why=(
                "first contact: every burst is a new signer, so Miller loops "
                "and admission dominate in-process with no pool"
            ),
            mode="verify",
            workers=0,
            rate_rps=110.0,
            latency_limit_ms=100.0,
            closed_rps_hint=250.0,
            window=16,
            burst=(6, 10),
            tamper=0.01,
        ),
        Workload(
            name="session_pool",
            why=(
                "MAC-authenticated VERIFY_FAST after CL-AKA: one HMAC per "
                "request, so framing, the event loop and pool dispatch dominate"
            ),
            mode="fast",
            workers=2,
            rate_rps=2000.0,
            latency_limit_ms=25.0,
            closed_rps_hint=10000.0,
            window=32,
            burst=(1, 1),
            sessions=48,
        ),
    )
}


@dataclass(frozen=True)
class Request:
    """One request of a plan; ``signer`` indexes ``Plan.identities``."""

    signer: int
    message: bytes
    tampered: bool
    conn: int
    #: consecutive requests of one signer share a burst number and, in
    #: the open phase, a due time
    burst: int = 0
    #: "<phase>/<index>", the request id traced spans carry
    rid: str = ""

    @property
    def expected(self) -> bool:
        """The verdict a correct gateway returns."""
        return not self.tampered


@dataclass
class Plan:
    """Everything one run sends, before any key material exists."""

    workload: Workload
    seed: int
    connections: int
    identities: List[str]
    #: closed-phase requests, run as ROUNDS contiguous blocks
    closed: List[Request]
    #: open-phase requests, due at the cumulative sums of ``gaps``
    open: List[Request]
    gaps: List[float]
    #: signers that send during warm-up
    warm_signers: List[int] = field(default_factory=list)

    def closed_blocks(self) -> List[List[Request]]:
        """The closed phase cut into ROUNDS contiguous blocks."""
        return split(self.closed, ROUNDS)

    def warm_requests(self, tag: str) -> List[Request]:
        """Warm-up requests for one gateway launch; ``tag`` keeps the
        messages of different launches distinct."""
        rng = random.Random(f"{self.seed}/{tag}")
        out: List[Request] = []
        for signer in self.warm_signers:
            for j in range(WARM_PER_SIGNER):
                message = b"warm/%s/%d/%d/" % (tag.encode(), signer, j) + rng.randbytes(8)
                rid = f"warm-{tag}/{len(out)}"
                out.append(Request(signer, message, False, signer % self.connections, rid=rid))
        return out


def split(items: Sequence, parts: int) -> List[Sequence]:
    """``items`` cut into ``parts`` contiguous runs of near-equal length."""
    bounds = [round(i * len(items) / parts) for i in range(parts + 1)]
    return [items[bounds[i] : bounds[i + 1]] for i in range(parts)]


def _message(rng: random.Random, plan_tag: bytes, phase: bytes, index: int) -> bytes:
    return b"%s/%s/%07d/" % (plan_tag, phase, index) + rng.randbytes(12)


def _tamper_positions(rng: random.Random, count: int, share: float) -> set:
    if share <= 0 or count == 0:
        return set()
    return set(rng.sample(range(count), max(1, round(share * count))))


def make_plan(
    workload: Workload, seed: int, seconds: float, connections: int, variant: str = ""
) -> Plan:
    """The seeded plan for one run of ``workload``.

    ``variant`` only changes the message text, so two passes of one run
    (untraced and traced) send the same draw without repeating a
    (message, signature) pair.
    """
    rng = random.Random(seed)
    tag = b"%s/%d/%s" % (workload.name.encode(), seed, variant.encode())
    closed_n = max(ROUNDS, round(workload.closed_rps_hint * seconds * CLOSED_SHARE))
    open_n = max(
        MIN_OPEN_REQUESTS, round(workload.rate_rps * seconds * (1 - CLOSED_SHARE))
    )
    identities: List[str] = []
    warm_signers: List[int] = []

    def new_signer(prefix: str) -> int:
        identities.append(f"{prefix}-{seed}-{len(identities):04d}")
        return len(identities) - 1

    def phase_requests(phase: bytes, count: int, pick_signer) -> List[Request]:
        tampered = _tamper_positions(rng, count, workload.tamper)
        out: List[Request] = []
        burst_index = 0
        while len(out) < count:
            signer = pick_signer()
            length = 1 if len(out) in tampered else rng.randint(*workload.burst)
            conn = signer % connections if workload.mode == "fast" else burst_index % connections
            for _ in range(min(length, count - len(out))):
                index = len(out)
                if index in tampered and out and out[-1].burst == burst_index:
                    break  # the forgery starts a burst of its own
                message = _message(rng, tag, phase, index)
                rid = f"{phase.decode()}/{index}"
                out.append(Request(signer, message, index in tampered, conn, burst_index, rid))
            burst_index += 1
        return out

    if workload.mode == "verify":
        warm_signers = [new_signer("warm") for _ in range(FRESH_WARM_SIGNERS)]
        closed = phase_requests(b"closed", closed_n, lambda: new_signer("node"))
        open_ = phase_requests(b"open", open_n, lambda: new_signer("node"))
    else:
        population = [new_signer("node") for _ in range(workload.sessions)]
        closed = phase_requests(b"closed", closed_n, lambda: rng.choice(population))
        open_ = phase_requests(b"open", open_n, lambda: rng.choice(population))
    # a burst arrives at once; the gaps between bursts are jittered by
    # up to 20% around the mean that gives rate_rps requests per second
    # (wider jitter lets bursts collide at random, and p99 then follows
    # the seed more than the gateway)
    mean_gap = len(open_) / workload.rate_rps / (open_[-1].burst + 1)
    gaps = [
        (0.8 + 0.4 * rng.random()) * mean_gap
        if i == 0 or req.burst != open_[i - 1].burst
        else 0.0
        for i, req in enumerate(open_)
    ]
    return Plan(
        workload=workload,
        seed=seed,
        connections=connections,
        identities=identities,
        closed=closed,
        open=open_,
        gaps=gaps,
        warm_signers=warm_signers,
    )
