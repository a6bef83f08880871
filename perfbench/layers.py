"""Per-layer metrics of a traced run, and the checks that the wrappers fired.

Counts per request (``calls_per_req``) and per call (``terms_per_call``,
``items_per_call``, ...) come from gateway and worker spans that start
inside the timed phases.  Per-call times (``.ms``, ``.us``) are mean
span durations over every span of the layer in the run, set-up included,
so a layer used only while setting up (``session.respond``) or building
the corpus (``mccls.sign``) still has one.  The layer split printed with
them uses self time: a span's duration minus what its children cover.
``server.*`` and ``proc.*`` come from the untraced pass: STATS and /proc
readings bracketing each open slice (medians over slices for the STATS
percentiles and window size).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from perfbench import measure
from perfbench.tracing import self_times

SERVER = ("gateway", "worker")
NODE = ("generator",)
COLD = ("cold_inline",)
SESSION = ("session_pool",)
ALL = COLD + SESSION

UNITS: Dict[str, str] = {
    "pairing.miller_loop.calls_per_req": "count",
    "pairing.miller_loop.ms": "ms",
    "pairing.final_exp.calls_per_req": "count",
    "pairing.final_exp.ms": "ms",
    "pairing.g1_msm.calls_per_req": "count",
    "pairing.g1_msm.terms_per_call": "count",
    "pairing.g1_msm.ms": "ms",
    "pairing.g1_mul.ms": "ms",
    "pairing.g2_mul.ms": "ms",
    "batch.fold.items_per_call": "count",
    "batch.fold.ms_per_item": "ms",
    "batch.fold.admissions_per_call": "count",
    "batch.fold.bisections_per_call": "count",
    "batch.fold.useful_ratio": "ratio",
    "mccls.sign.ms": "ms",
    "mccls.verify.calls_per_req": "count",
    "session.respond.ms": "ms",
    "session.mac_ok.calls_per_req": "count",
    "session.mac_ok.us": "us",
    "protocol.decode_request.us": "us",
    "protocol.decode_verify_payload.calls_per_req": "count",
    "protocol.decode_verify_payload.us": "us",
    "protocol.encode_reply.us": "us",
    "pool.job.rtt_ms": "ms",
    "pool.job.crypto_ms": "ms",
    "pool.job.overhead_ms": "ms",
    "pool.items_per_job": "count",
    "server.queue_wait_p50_ms": "ms",
    "server.queue_wait_p99_ms": "ms",
    "server.window_size": "count",
    "server.busy_rejections": "count",
    "server.cache_entries": "count",
    "server.session_entries": "count",
    "client.enroll.ms": "ms",
    "client.start_session.ms": "ms",
    "proc.gateway.busy_ratio": "ratio",
    "proc.worker.busy_ratio": "ratio",
    "trace.overhead.p50_ms": "ms",
    "trace.overhead.cpu_ms_per_req": "ms",
}

#: span -> workloads whose timed phases must call it
FIRES_IN_PHASES: Dict[str, Tuple[str, ...]] = {
    "pairing.miller_loop": COLD,
    "pairing.final_exp": COLD,
    "pairing.g1_msm": COLD,
    "batch.fold": COLD,
    "mccls.verify": COLD,
    "session.mac_ok": SESSION,
    "protocol.decode_request": ALL,
    "protocol.decode_verify_payload": COLD,
    "protocol.encode_reply": ALL,
    "pool.job": SESSION,
}
#: span -> workloads whose run (set-up and corpus included) must call it
FIRES_IN_RUN: Dict[str, Tuple[str, ...]] = {
    "pairing.g1_mul": COLD,
    "pairing.g2_mul": COLD,
    "mccls.sign": ALL,
    "session.respond": SESSION,
    "client.enroll": ALL,
    "client.start_session": SESSION,
}
#: span -> workloads whose timed phases must never call it
ZERO_IN_PHASES: Dict[str, Tuple[str, ...]] = {
    "pairing.miller_loop": SESSION,
    "pairing.final_exp": SESSION,
}
#: spans whose self time counts as crypto in the layer split
CRYPTO = (
    "pairing.miller_loop",
    "pairing.final_exp",
    "pairing.g1_msm",
    "pairing.g1_mul",
    "pairing.g2_mul",
    "batch.fold",
    "mccls.verify",
    "session.mac_ok",
)


class _Layer:
    """Spans of one name, split by where and when they ran."""

    def __init__(self):
        self.phase: List[dict] = []
        self.phase_self: List[float] = []
        #: role -> durations of every span of the run
        self.by_role: Dict[str, List[float]] = {}


def _group(spans: Sequence[dict], window: Tuple[float, float]) -> Dict[str, _Layer]:
    selfs = self_times(list(spans))
    layers: Dict[str, _Layer] = {}
    for i, span in enumerate(spans):
        layer = layers.setdefault(span["name"], _Layer())
        layer.by_role.setdefault(span["role"], []).append(span["end"] - span["start"])
        if span["role"] in SERVER and window[0] <= span["start"] <= window[1]:
            layer.phase.append(span)
            layer.phase_self.append(selfs[i])
    return layers


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def check_fired(workload: str, layers: Dict[str, _Layer], workers: int) -> None:
    """Raise ``RuntimeError`` when a wrapper meant to fire on this
    workload saw no call, or one that must stay idle did."""
    missing = []
    for name, where in FIRES_IN_PHASES.items():
        if workload in where and not layers.get(name, _Layer()).phase:
            missing.append(f"{name} (timed phases)")
    for name, where in FIRES_IN_RUN.items():
        if workload in where and not layers.get(name, _Layer()).by_role:
            missing.append(f"{name} (run)")
    if workers and not any(
        s["role"] == "worker" for layer in layers.values() for s in layer.phase
    ):
        missing.append("any worker-side span")
    if missing:
        raise RuntimeError("wrappers saw no calls: " + ", ".join(missing))
    busy = [
        name
        for name, where in ZERO_IN_PHASES.items()
        if workload in where and layers.get(name, _Layer()).phase
    ]
    if busy:
        raise RuntimeError("layers ran after set-up: " + ", ".join(busy))


def per_layer(workload, spans, traced_run, base_run, base_e2e, traced_e2e):
    """(metrics, report lines) of one traced run; raises RuntimeError
    when a wrapper did not fire where it must."""
    window = traced_run["window"]
    requests = traced_run["attempted"]
    layers = _group(spans, window)
    check_fired(workload.name, layers, workload.workers)

    def get(name: str) -> _Layer:
        return layers.get(name, _Layer())

    def per_req(name: str) -> float:
        return len(get(name).phase) / requests

    def call_mean(name: str, roles: Tuple[str, ...], scale: float) -> float:
        values = [v for role in roles for v in get(name).by_role.get(role, ())]
        return _mean(values) * scale

    folds = get("batch.fold").phase
    fold_items = sum(s["items"] for s in folds)
    jobs = get("pool.job").phase
    rtt = _mean(s["end"] - s["start"] for s in jobs) * 1e3
    crypto = _mean(s["crypto_s"] for s in jobs) * 1e3

    slices = base_run["slice_stats"]
    last = slices[-1][1]

    def slice_median(read) -> float:
        return measure.median([read(after) for _before, after in slices])

    wall = base_run["open_wall_s"]
    metrics = {
        "pairing.miller_loop.calls_per_req": per_req("pairing.miller_loop"),
        "pairing.miller_loop.ms": call_mean("pairing.miller_loop", SERVER, 1e3),
        "pairing.final_exp.calls_per_req": per_req("pairing.final_exp"),
        "pairing.final_exp.ms": call_mean("pairing.final_exp", SERVER, 1e3),
        "pairing.g1_msm.calls_per_req": per_req("pairing.g1_msm"),
        "pairing.g1_msm.terms_per_call": _mean(s["terms"] for s in get("pairing.g1_msm").phase),
        "pairing.g1_msm.ms": call_mean("pairing.g1_msm", SERVER, 1e3),
        "pairing.g1_mul.ms": call_mean("pairing.g1_mul", NODE, 1e3),
        "pairing.g2_mul.ms": call_mean("pairing.g2_mul", NODE, 1e3),
        "batch.fold.items_per_call": _mean(s["items"] for s in folds),
        "batch.fold.ms_per_item": measure.ratio(
            sum(s["end"] - s["start"] for s in folds) * 1e3, fold_items
        ),
        "batch.fold.admissions_per_call": _mean(s["admissions"] for s in folds),
        "batch.fold.bisections_per_call": _mean(s["bisections"] for s in folds),
        "batch.fold.useful_ratio": measure.ratio(
            sum(s["items"] for s in folds if not s["bisections"]), fold_items
        ),
        "mccls.sign.ms": call_mean("mccls.sign", NODE, 1e3),
        "mccls.verify.calls_per_req": per_req("mccls.verify"),
        "session.respond.ms": call_mean("session.respond", ("gateway",), 1e3),
        "session.mac_ok.calls_per_req": per_req("session.mac_ok"),
        "session.mac_ok.us": call_mean("session.mac_ok", SERVER, 1e6),
        "protocol.decode_request.us": call_mean("protocol.decode_request", SERVER, 1e6),
        "protocol.decode_verify_payload.calls_per_req": per_req("protocol.decode_verify_payload"),
        "protocol.decode_verify_payload.us": call_mean(
            "protocol.decode_verify_payload", SERVER, 1e6
        ),
        "protocol.encode_reply.us": call_mean("protocol.encode_reply", SERVER, 1e6),
        "pool.job.rtt_ms": rtt,
        "pool.job.crypto_ms": crypto,
        "pool.job.overhead_ms": rtt - crypto,
        "pool.items_per_job": _mean(s["items"] for s in jobs),
        "server.queue_wait_p50_ms": slice_median(lambda s: s["latency_ms"]["queue_wait"]["p50"]),
        "server.queue_wait_p99_ms": slice_median(lambda s: s["latency_ms"]["queue_wait"]["p99"]),
        "server.window_size": slice_median(lambda s: s["batch"]["size"]["mean"]),
        "server.busy_rejections": sum(
            after["counters"]["busy_rejections"] - before["counters"]["busy_rejections"]
            for before, after in slices
        ),
        "server.cache_entries": sum(c.get("size", 0) for c in last["cache"].values()),
        "server.session_entries": last["sessions"]["active"],
        "client.enroll.ms": call_mean("client.enroll", NODE, 1e3),
        "client.start_session.ms": call_mean("client.start_session", NODE, 1e3),
        "proc.gateway.busy_ratio": base_run["cpu_gateway_s"] / wall,
        "proc.worker.busy_ratio": max(base_run["cpu_workers_s"], default=0.0) / wall,
        "trace.overhead.p50_ms": traced_e2e["p50_ms"] - base_e2e["p50_ms"],
        "trace.overhead.cpu_ms_per_req": traced_e2e["cpu_ms_per_req"]
        - base_e2e["cpu_ms_per_req"],
    }
    return metrics, split_report(layers, requests) + [
        f"trace.overhead.throughput_rps {traced_e2e['throughput_rps'] - base_e2e['throughput_rps']!r} 1/s",
        f"trace.overhead.p90_ms {traced_e2e['p90_ms'] - base_e2e['p90_ms']!r} ms",
    ]


def split_report(layers: Dict[str, _Layer], requests: int) -> List[str]:
    """Self time per request of every layer in the timed phases, largest
    first, with its share of the crypto self time."""
    totals = {name: sum(layer.phase_self) for name, layer in layers.items() if layer.phase}
    crypto = sum(t for name, t in totals.items() if name in CRYPTO)
    lines = [f"layer_split requests {requests} (gateway and worker self time, timed phases)"]
    for name, total in sorted(totals.items(), key=lambda kv: -kv[1]):
        share = measure.ratio(total, crypto) if name in CRYPTO else 0.0
        lines.append(
            f"  {name:32s} calls {len(layers[name].phase):8d} "
            f"self_ms_per_req {total / requests * 1e3:9.4f} "
            + (f"crypto_share {share:.3f}" if name in CRYPTO else "")
        )
    return lines
