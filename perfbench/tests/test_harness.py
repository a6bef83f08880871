"""Self-tests of the benchmark harness (no BN254 gateway needed)."""

from __future__ import annotations

import asyncio
import time

import pytest

from perfbench import corpus, load, measure, tracing, workloads
from repro.service import protocol


# -- percentile helper ------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert measure.tail_percentile([0.0] * count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50.0) == 50
    assert measure.percentile(values, 99.0) == 99
    assert measure.percentile(values, 100.0) == 100


# -- fake gateways ----------------------------------------------------------


async def _fake_gateway(answer):
    """A loopback server answering frame i (body = opcode + u32 index)
    with ``await answer(index)`` -> reply body, strictly in order."""

    async def serve(reader, writer):
        try:
            while True:
                header = await reader.readexactly(4)
                body = await reader.readexactly(protocol.frame_length(header))
                index = int.from_bytes(body[1:5], "big")
                writer.write(protocol.encode_frame(await answer(index)))
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    return await asyncio.start_server(serve, "127.0.0.1", 0)


def _items(count, connections=1):
    return [
        (i % connections, protocol.encode_frame(b"\x04" + i.to_bytes(4, "big")), True)
        for i in range(count)
    ]


async def _open_run(answer, count, gap_s, connections=1, during=None):
    server = await _fake_gateway(answer)
    port = server.sockets[0].getsockname()[1]
    conns = await load.connect("127.0.0.1", port, connections)
    if during is not None:
        asyncio.get_running_loop().call_later(*during)
    try:
        return await load.open_phase(conns, _items(count, connections), [gap_s] * count)
    finally:
        await load.close(conns)
        server.close()
        await server.wait_closed()


def test_open_phase_counts_a_stall_from_due_time():
    stall_at, stall_s, gap_s = 10, 0.2, 0.01

    async def answer(index):
        if index == stall_at:
            await asyncio.sleep(stall_s)
        return protocol.verify_reply(True)

    result = asyncio.run(_open_run(answer, 40, gap_s))
    assert result.ok == 40 and result.failed == 0
    latency = result.latency_s
    assert latency[stall_at] >= stall_s
    # a request due k gaps after the stalled one waited for the stall too
    for k in range(1, 10):
        assert latency[stall_at + k] >= stall_s - k * gap_s - 0.005
    assert len(result.lateness_s) == 40
    assert all(late >= 0 for late in result.lateness_s)


def test_open_phase_reports_generator_lateness():
    async def answer(index):
        return protocol.verify_reply(True)

    # block the generator's own event loop for 150 ms after 100 ms
    result = asyncio.run(_open_run(answer, 40, 0.01, during=(0.1, time.sleep, 0.15)))
    assert max(result.lateness_s) >= 0.12
    late = max(range(40), key=lambda i: result.lateness_s[i])
    assert result.latency_s[late] >= result.lateness_s[late]


def test_flipped_verdict_fails_open_and_closed_phases():
    async def answer(index):
        return protocol.verify_reply(index != 7)

    with pytest.raises(load.VerdictMismatch):
        asyncio.run(_open_run(answer, 20, 0.002))

    async def closed():
        server = await _fake_gateway(answer)
        port = server.sockets[0].getsockname()[1]
        conns = await load.connect("127.0.0.1", port, 2)
        try:
            return await load.closed_phase(conns, _items(20, 2), window=4)
        finally:
            await load.close(conns)
            server.close()
            await server.wait_closed()

    with pytest.raises(load.VerdictMismatch):
        asyncio.run(closed())


def test_err_and_busy_count_as_failures_not_mismatches():
    async def answer(index):
        if index % 5 == 0:
            return protocol.encode_reply(protocol.Status.BUSY, b"full")
        return protocol.verify_reply(True)

    result = asyncio.run(_open_run(answer, 20, 0.002))
    assert result.failed == 4 and result.ok == 16
    assert sum(1 for l in result.latency_s if l is None) == 4


# -- seeded inputs ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_is_a_function_of_the_seed(name):
    workload = workloads.WORKLOADS[name]
    first = workloads.make_plan(workload, 7, 2.0, 2)
    again = workloads.make_plan(workload, 7, 2.0, 2)
    other = workloads.make_plan(workload, 8, 2.0, 2)
    assert first == again
    assert first.gaps == again.gaps
    assert first.open != other.open
    assert len(first.open) >= workloads.MIN_OPEN_REQUESTS
    messages = [r.message for r in first.closed + first.open]
    messages += [r.message for r in first.warm_requests("a") + first.warm_requests("b")]
    assert len(set(messages)) == len(messages)


def test_open_schedule_runs_at_the_offered_rate():
    workload = workloads.WORKLOADS["cold_inline"]
    plan = workloads.make_plan(workload, 3, 40.0, 2)
    rate = len(plan.open) / sum(plan.gaps)
    assert rate == pytest.approx(workload.rate_rps, rel=0.05)
    tampered = [r for r in plan.open if r.tampered]
    assert len(tampered) == round(workload.tamper * len(plan.open))
    # a forgery arrives alone, from an identity that sends nothing else
    for req in tampered:
        assert [r for r in plan.open if r.burst == req.burst] == [req]
        assert sum(r.signer == req.signer for r in plan.closed + plan.open) == 1


def test_one_seed_yields_byte_identical_frames():
    from repro.core.mccls import McCLS
    from repro.core.params import KeyGenerationCenter
    from repro.core.session import EstablishedSession
    from repro.pairing.bn import toy_curve
    from repro.service.client import build_verifier_view

    def verify_corpus():
        curve = toy_curve(32)
        plan = workloads.make_plan(workloads.WORKLOADS["cold_inline"], 5, 1.0, 2)
        kgc = KeyGenerationCenter(McCLS, curve=curve, seed=5)
        keys = [kgc.enroll(identity) for identity in plan.identities]
        document = protocol.params_document(
            "mccls", curve, kgc.scheme.p_pub_g1, kgc.scheme.p_pub_g2
        )
        _curve, view = build_verifier_view(document)
        return corpus.verify_frames(curve, plan.open[:60], keys, view.sign)

    first, again = verify_corpus(), verify_corpus()
    assert first == again

    def fast_corpus():
        plan = workloads.make_plan(workloads.WORKLOADS["session_pool"], 5, 1.0, 2)
        sessions = [
            EstablishedSession(bytes([i]) * 16, bytes([i + 1]) * 32, f"n{i}", "gw")
            for i in range(workloads.WORKLOADS["session_pool"].sessions)
        ]
        seqs = [0] * len(sessions)
        return corpus.fast_frames(plan.open, sessions, seqs), seqs

    (frames, seqs), (frames_again, _) = fast_corpus(), fast_corpus()
    assert frames == frames_again
    assert sum(seqs) == len(frames)


# -- tracing ----------------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"name": "fold", "start": 0.0, "end": 10.0, "id": 1, "parent": None, "pid": 1},
        {"name": "msm", "start": 1.0, "end": 4.0, "id": 2, "parent": 1, "pid": 1},
        {"name": "msm", "start": 3.0, "end": 5.0, "id": 3, "parent": 1, "pid": 1},
        {"name": "msm", "start": 9.0, "end": 12.0, "id": 4, "parent": 1, "pid": 1},
        # same id in another process is not a child of the fold
        {"name": "msm", "start": 0.0, "end": 10.0, "id": 5, "parent": 1, "pid": 2},
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0)


def test_recorder_links_parents_and_keeps_async_results():
    recorder = tracing.Recorder("test")

    def inner(x):
        return x + 1

    traced_inner = recorder.wrap("inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = recorder.wrap("outer", outer)

    async def job(x):
        return traced_inner(x)

    traced_job = recorder.wrap("job", job, lambda a, k, r: {"result": r})
    assert traced_outer(1) == 4
    assert asyncio.run(traced_job(5)) == 6
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span[0], []).append(span)
    (outer_span,) = by_name["outer"]
    assert by_name["inner"][0][4] == outer_span[3]
    (job_span,) = by_name["job"]
    assert job_span[6] == {"result": 6}
    assert by_name["inner"][1][4] == job_span[3]


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    import json
    import os

    from perfbench import layers
    from perfbench.run import END_TO_END_UNITS, ROOT

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for entry in doc["workloads"]:
        workload = workloads.WORKLOADS[entry["name"]]
        assert f"{workload.rate_rps:g} req/s" in entry["why"]
        assert f"limit {workload.latency_limit_ms:g} ms" in entry["why"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.UNITS
