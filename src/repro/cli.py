"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``scenario`` - run one MANET simulation and print the paper's metrics.
* ``sweep``    - run the Figures 1-5 speed sweep and print the series.
* ``campaign`` - run one scenario across many seeds with statistics,
  run isolation (per-seed failures become records, not aborts) and an
  auditable campaign-end fault/failure summary.
* ``table1``   - print the Table 1 scheme comparison (measured).
* ``games``    - run the security-game battery (McCLS vs McCLS+).
* ``serve``    - run the verification gateway (``--trace-out`` streams
  server-side request spans as JSONL; ``--workers N`` moves the pairing
  CPU into a supervised worker-process pool; SIGTERM drains gracefully).
* ``loadgen``  - drive load at a gateway; ``--trace-out`` captures the
  full client->queue->batch->pairing span trace of the run, ``--chaos``
  injects wire-level faults through a deterministic proxy, and
  ``--kill-worker-after`` murders a crypto worker mid-run to prove the
  supervisor restarts it, and ``--sessions`` adds the CL-AKA handshake +
  MAC fast-path phase with its zero-pairing assertion and post-rekey
  session-invalidation probe.
* ``top``      - live terminal dashboard polling a gateway's STATS.
* ``benchdiff`` - compare two BENCH_*.json files; nonzero exit when a
  gated metric regresses past ``--fail-over`` percent.

Fault injection (scenario/sweep/campaign): ``--faults SPEC`` attaches a
deterministic :class:`~repro.netsim.faults.FaultPlan`; SPEC is inline JSON
(``'{"crashes": [{"at": 20, "count": 2, "recover_at": 40}]}'``) or the
path of a JSON file.  Injected faults are reported after the run and
stream through ``--trace-out`` as ``fault.*`` events.

Observability flags (scenario/sweep/table1):

* ``--json`` prints one machine-readable JSON document instead of the
  aligned text tables - metrics plus an ``ops`` section with the
  pairing/multiplication counts collected by :mod:`repro.obs`.
* ``--trace-out FILE`` (scenario/sweep) streams the structured simulator
  event trace (route discovery, auth accept/reject, attacker drops, queue
  samples, radio transmissions) to ``FILE`` as JSON Lines.

Everything the CLI does is a thin layer over the public API, so scripts
and notebooks can do the same programmatically.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Dict, List, Optional

from repro import obs
from repro.errors import SimulationError
from repro.netsim.faults import FaultPlan
from repro.netsim.scenario import ScenarioConfig, paper_speed_sweep, run_scenario

#: attack choices shared by the scenario and sweep subcommands
ATTACK_CHOICES = ("none", "blackhole", "rushing", "blackhole-cryptanalyst")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--protocol", choices=("aodv", "mccls", "pki"), default="aodv"
    )
    parser.add_argument("--attack", choices=ATTACK_CHOICES, default="none")
    parser.add_argument("--speed", type=float, default=10.0)
    parser.add_argument("--time", type=float, default=60.0)
    parser.add_argument("--nodes", type=int, default=20)
    parser.add_argument("--flows", type=int, default=6)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--hello", type=float, default=0.0)
    parser.add_argument("--real-crypto", action="store_true")
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="fault plan: inline JSON or the path of a JSON file",
    )


def _parse_fault_plan(spec: Optional[str]) -> Optional[FaultPlan]:
    """Parse the --faults argument (inline JSON or a JSON file path)."""
    if not spec:
        return None
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            with open(spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise SimulationError(f"cannot read fault spec file: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimulationError(f"fault spec is not valid JSON: {exc}") from None
    return FaultPlan.from_spec(payload)


def _print_fault_summary(fault_counts: Dict[str, int]) -> None:
    if not fault_counts:
        return
    injected = " ".join(
        f"{name}={count}" for name, count in sorted(fault_counts.items())
    )
    print(f"faults injected: {injected}")


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        metavar="NAME",
        default=None,
        help="field-arithmetic backend (reference, native, gmpy2); "
        "default: $REPRO_FIELD_BACKEND or 'reference'",
    )


def _add_output_args(
    parser: argparse.ArgumentParser, trace: bool = True
) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="print one machine-readable JSON document instead of text",
    )
    if trace:
        parser.add_argument(
            "--trace-out",
            metavar="FILE",
            default=None,
            help="stream the structured simulator event trace to FILE (JSONL)",
        )


def _config_from(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        protocol=args.protocol,
        attack=None if args.attack == "none" else args.attack,
        max_speed=args.speed,
        sim_time_s=args.time,
        n_nodes=args.nodes,
        n_flows=args.flows,
        seed=args.seed,
        hello_interval=args.hello,
        real_crypto=args.real_crypto,
        faults=_parse_fault_plan(args.faults),
    )


def _ops_section(registry: obs.Registry) -> Dict[str, int]:
    """The combined op-count report of one collection window.

    Merges the pairing stack's measured tally (nonzero only when real
    crypto executed) with the timing model's modelled primitive counts
    (nonzero in modelled-crypto simulations).
    """
    ops: Dict[str, int] = dict(registry.field_ops.snapshot())
    for counter in (
        "modelled_pairings",
        "modelled_scalar_mults",
        "modelled_gt_exps",
        "modelled_group_hashes",
    ):
        ops[counter] = registry.counter_total(f"crypto.{counter}")
    ops["modelled_signs"] = registry.counter_total("crypto.sign")
    ops["modelled_verifies"] = registry.counter_total("crypto.verify")
    return ops


def _print_ops_text(ops: Dict[str, int]) -> None:
    nonzero = {name: count for name, count in ops.items() if count}
    if not nonzero:
        return
    print("ops:")
    width = max(len(name) for name in nonzero)
    for name, count in nonzero.items():
        print(f"  {name:<{width}} {count:>12}")


def cmd_scenario(args: argparse.Namespace) -> int:
    """Run one simulation and print the paper's metrics."""
    config = _config_from(args)
    sink = obs.open_sink(args.trace_out)
    try:
        with obs.collecting() as registry:
            result = run_scenario(
                config, event_sink=sink if sink.enabled else None
            )
    finally:
        sink.close()
    report = result.report()
    ops = _ops_section(registry)
    if args.json:
        payload = {
            "command": "scenario",
            "protocol": args.protocol,
            "attack": args.attack,
            "speed": args.speed,
            "seed": args.seed,
            "events_executed": result.events_executed,
            "attacker_ids": result.attacker_ids,
            "metrics": report,
            "ops": ops,
            "faults": result.fault_summary,
        }
        print(obs.render_json(payload))
        return 0
    print(
        f"protocol={args.protocol} attack={args.attack} speed={args.speed} "
        f"seed={args.seed} events={result.events_executed}"
    )
    if result.attacker_ids:
        print(f"attacker nodes: {result.attacker_ids}")
    _print_fault_summary(result.fault_summary)
    for key in (
        "packet_delivery_ratio",
        "rreq_ratio",
        "end_to_end_delay",
        "packet_drop_ratio",
        "data_sent",
        "data_received",
        "auth_rejected",
    ):
        print(f"  {key:24s} {report[key]:.4f}")
    _print_ops_text(ops)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the Figures 1-5 speed sweep for one metric."""
    attack = None if args.attack == "none" else args.attack
    metric = args.metric
    fault_plan = _parse_fault_plan(args.faults)
    sink = obs.open_sink(args.trace_out)
    rows: List[Dict[str, float]] = []
    fault_counts: Dict[str, int] = {}
    try:
        with obs.collecting() as registry:
            for speed in paper_speed_sweep():
                row: Dict[str, float] = {"speed": speed}
                for protocol in ("aodv", "mccls"):
                    if sink.enabled:
                        sink.emit(
                            "run.start",
                            protocol=protocol,
                            attack=attack or "none",
                            speed=speed,
                        )
                    config = ScenarioConfig(
                        protocol=protocol,
                        attack=attack,
                        max_speed=speed,
                        sim_time_s=args.time,
                        seed=args.seed,
                        faults=fault_plan,
                    )
                    result = run_scenario(
                        config, event_sink=sink if sink.enabled else None
                    )
                    row[protocol] = result.report()[metric]
                    for name, count in result.fault_summary.items():
                        fault_counts[name] = fault_counts.get(name, 0) + count
                rows.append(row)
    finally:
        sink.close()
    if args.json:
        payload = {
            "command": "sweep",
            "metric": metric,
            "attack": attack or "none",
            "time": args.time,
            "seed": args.seed,
            "rows": rows,
            "ops": _ops_section(registry),
            "faults": fault_counts,
        }
        print(obs.render_json(payload))
        return 0
    print(f"metric={metric} attack={attack or 'none'} time={args.time}s")
    print(f"{'speed':>6s} {'aodv':>10s} {'mccls':>10s}")
    for row in rows:
        print(
            f"{row['speed']:6.1f} {row['aodv']:10.4f} {row['mccls']:10.4f}"
        )
    _print_fault_summary(fault_counts)
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run one scenario across many seeds with statistics + run isolation."""
    from repro.netsim.campaign import run_campaign

    config = _config_from(args)
    seeds = list(range(args.seed, args.seed + args.seeds))
    result = run_campaign(
        config,
        seeds,
        failure_budget=args.failure_budget,
        workers=args.workers,
        calibrate=args.calibrate,
        backend=args.backend,
    )
    if args.json:
        payload = {
            "command": "campaign",
            "protocol": args.protocol,
            "attack": args.attack,
            "seeds": seeds,
            "completed_seeds": result.completed_seeds,
            "failure_budget": args.failure_budget,
            "metrics": {
                key: {
                    "mean": summary.mean,
                    "std": summary.std,
                    "ci_low": summary.ci_low,
                    "ci_high": summary.ci_high,
                    "samples": list(summary.samples),
                }
                for key, summary in result.metrics.items()
            },
            "failures": [
                {
                    "seed": failure.seed,
                    "error_type": failure.error_type,
                    "message": failure.message,
                }
                for failure in result.failures
            ],
            "faults": result.fault_counts,
        }
        print(obs.render_json(payload))
        return 0
    print(
        f"protocol={args.protocol} attack={args.attack} "
        f"seeds={seeds[0]}..{seeds[-1]} time={args.time}s"
    )
    print(result.table_text())
    print(result.summary_line())
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Print the measured Table 1 scheme comparison."""
    from repro.pairing.bn import toy_curve
    from repro.pairing.groups import PairingContext
    from repro.schemes.registry import scheme_class, scheme_names

    rows = []
    with obs.collecting() as registry:
        for name in scheme_names():
            ctx = PairingContext(toy_curve(args.bits), random.Random(1))
            scheme = scheme_class(name)(ctx)
            keys = scheme.generate_user_keys("cli@manet")
            scheme.sign(b"warm", keys)
            sig, sign_ops = scheme.measure_sign(b"m", keys)
            _, cold = scheme.measure_verify(b"m", sig, keys)
            _, warm = scheme.measure_verify(b"m", sig, keys)
            rows.append((name, sign_ops, cold, warm))
    if args.json:
        payload = {
            "command": "table1",
            "bits": args.bits,
            "rows": [
                {
                    "scheme": name,
                    "sign": vars(sign_ops),
                    "verify_cold": vars(cold),
                    "verify_warm": vars(warm),
                    # pairings the pairing stack actually executed inside
                    # each measured phase (verify spans cold + warm)
                    "executed_pairings": {
                        "sign": registry.counter_value(
                            "ops.pairings", phase=f"{name}.sign"
                        ),
                        "verify": registry.counter_value(
                            "ops.pairings", phase=f"{name}.verify"
                        ),
                    },
                }
                for name, sign_ops, cold, warm in rows
            ],
        }
        print(obs.render_json(payload))
        return 0
    print(f"{'scheme':8s} {'sign':>12s} {'verify cold':>12s} {'verify warm':>12s}")
    for name, sign_ops, cold, warm in rows:
        print(
            f"{name:8s} {sign_ops.summary():>12s} {cold.summary():>12s} "
            f"{warm.summary():>12s}"
        )
    return 0


def cmd_games(args: argparse.Namespace) -> int:
    """Run the security-game battery (McCLS vs McCLS+)."""
    from repro.core.hardened import demo_hardening
    from repro.pairing.bn import toy_curve

    results = demo_hardening(toy_curve(args.bits))
    print(f"{'adversary':24s} {'vs McCLS':>10s} {'vs McCLS+':>10s}")
    for name, (against_mccls, against_plus) in results.items():
        print(f"{name:24s} {against_mccls:>10.0%} {against_plus:>10.0%}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the verification gateway until interrupted.

    SIGTERM triggers a graceful drain: the listener closes, admitted
    requests are answered, then worker processes are reaped.  SIGINT
    (Ctrl-C) stops hard.
    """
    import asyncio
    import signal

    from repro.pairing.bn import toy_curve
    from repro.service.server import VerificationGateway

    sink = obs.open_sink(args.trace_out)
    gateway = VerificationGateway(
        curve=toy_curve(args.bits, backend=args.backend),
        backend=args.backend,
        seed=args.seed,
        cache_size=args.cache_size,
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        max_batch=args.max_batch,
        sink=sink if sink.enabled else None,
        workers=args.workers,
    )

    async def _serve() -> None:
        await gateway.start()
        loop = asyncio.get_running_loop()
        drain_requested = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, drain_requested.set)
        except (NotImplementedError, RuntimeError):
            pass  # platform without signal-handler support
        workers_note = f", workers {args.workers}" if args.workers else ""
        print(
            f"gateway listening on {gateway.host}:{gateway.port} "
            f"(curve bn-toy{args.bits}, "
            f"backend {gateway.kgc.ctx.backend.name}, "
            f"cache {args.cache_size}, "
            f"queue {args.queue_size}, batch {args.max_batch}"
            f"{workers_note})"
        )
        server_gone = asyncio.ensure_future(gateway._server.serve_forever())
        drain_wait = asyncio.ensure_future(drain_requested.wait())
        try:
            await asyncio.wait(
                [server_gone, drain_wait],
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            for task in (server_gone, drain_wait):
                task.cancel()
            await asyncio.gather(server_gone, drain_wait, return_exceptions=True)
        if drain_requested.is_set():
            print("SIGTERM: draining admitted requests before shutdown")
            await gateway.stop(drain=True)
            print("gateway drained and stopped")
        else:
            await gateway.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("gateway stopped")
    finally:
        sink.close()
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a load run against the gateway; write BENCH_service.json."""
    from repro.service.loadgen import LoadgenConfig, run_loadgen, summary_lines

    chaos_spec = None
    if args.chaos:
        text = args.chaos
        if not text.lstrip().startswith("{"):
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        chaos_spec = json.loads(text)
    config = LoadgenConfig(
        requests=args.requests,
        identities=args.identities,
        connections=args.connections,
        burst=args.burst,
        zipf=args.zipf,
        window=args.window,
        bits=args.bits,
        backend=args.backend,
        cache_size=args.cache_size,
        queue_size=args.queue_size,
        max_batch=args.max_batch,
        seed=args.seed,
        rekey_check=not args.no_rekey_check,
        out=args.out,
        host=args.host,
        port=args.port,
        trace_out=args.trace_out,
        workers=args.workers,
        deadline_ms=args.deadline_ms,
        kill_worker_after=args.kill_worker_after,
        chaos=chaos_spec,
        error_budget=args.error_budget,
        sessions=args.sessions,
        session_requests=args.session_requests,
    )
    result = run_loadgen(config)
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        for line in summary_lines(result):
            print(line)
        if config.out:
            print(f"wrote {config.out}")
    return 0 if result["ok"] else 1


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a gateway's STATS endpoint."""
    from repro.service.top import run_top

    return run_top(
        host=args.host,
        port=args.port,
        interval_s=args.interval,
        iterations=args.iterations,
    )


def cmd_benchdiff(args: argparse.Namespace) -> int:
    """Compare two bench documents; gate on regressions."""
    from repro.benchdiff import run_benchdiff

    return run_benchdiff(
        args.old,
        args.new,
        fail_over=args.fail_over,
        allow_backend_mismatch=args.allow_backend_mismatch,
    )


def build_parser() -> argparse.ArgumentParser:
    """The complete argument parser (separate from main for testability)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="McCLS reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser("scenario", help="run one simulation")
    _add_scenario_args(scenario)
    _add_output_args(scenario)
    scenario.set_defaults(func=cmd_scenario)

    sweep = sub.add_parser("sweep", help="speed sweep for one metric")
    sweep.add_argument(
        "--metric",
        default="packet_delivery_ratio",
        choices=(
            "packet_delivery_ratio",
            "rreq_ratio",
            "end_to_end_delay",
            "packet_drop_ratio",
        ),
    )
    sweep.add_argument("--attack", choices=ATTACK_CHOICES, default="none")
    sweep.add_argument("--time", type=float, default=60.0)
    sweep.add_argument("--seed", type=int, default=3)
    sweep.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="fault plan: inline JSON or the path of a JSON file",
    )
    _add_output_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    campaign = sub.add_parser(
        "campaign", help="multi-seed campaign with statistics"
    )
    _add_scenario_args(campaign)
    campaign.add_argument(
        "--seeds",
        type=int,
        default=5,
        help="number of consecutive seeds starting at --seed",
    )
    campaign.add_argument(
        "--failure-budget",
        type=float,
        default=0.5,
        help="tolerated failed fraction of per-seed runs before the "
        "campaign itself fails",
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for per-seed runs (1 = serial); results "
        "are identical regardless of worker count",
    )
    campaign.add_argument(
        "--calibrate",
        action="store_true",
        help="measure this machine's pairing/mult costs once (in the "
        "parent) and price all runs' modelled crypto with them",
    )
    _add_backend_arg(campaign)
    _add_output_args(campaign, trace=False)
    campaign.set_defaults(func=cmd_campaign)

    table1 = sub.add_parser("table1", help="scheme op-count comparison")
    table1.add_argument("--bits", type=int, default=48)
    _add_output_args(table1, trace=False)
    table1.set_defaults(func=cmd_table1)

    games = sub.add_parser("games", help="security-game battery")
    games.add_argument("--bits", type=int, default=32)
    games.set_defaults(func=cmd_games)

    serve = sub.add_parser(
        "serve", help="run the McCLS verification gateway"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7754)
    serve.add_argument("--bits", type=int, default=64)
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="bound on each pairing/Miller/comb-table LRU cache",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=256,
        help="bounded request queue; overflow is answered BUSY",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="micro-batcher drain limit per consumer cycle",
    )
    serve.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="stream server-side request spans to FILE (JSONL)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="supervised crypto worker processes (0 = verify in-process)",
    )
    _add_backend_arg(serve)
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="drive load at a gateway, write BENCH_service.json"
    )
    loadgen.add_argument("--requests", type=int, default=10_000)
    loadgen.add_argument("--identities", type=int, default=1_000)
    loadgen.add_argument("--connections", type=int, default=8)
    loadgen.add_argument("--burst", type=int, default=16)
    loadgen.add_argument(
        "--zipf",
        type=float,
        default=None,
        metavar="S",
        help="skew signer choice by a Zipf(S) rank distribution instead of "
        "uniform round-robin (exercises the cross-signer fold)",
    )
    loadgen.add_argument("--window", type=int, default=64)
    loadgen.add_argument("--bits", type=int, default=32)
    loadgen.add_argument("--cache-size", type=int, default=512)
    loadgen.add_argument("--queue-size", type=int, default=4096)
    loadgen.add_argument("--max-batch", type=int, default=64)
    loadgen.add_argument("--seed", type=int, default=7)
    _add_backend_arg(loadgen)
    loadgen.add_argument(
        "--no-rekey-check",
        action="store_true",
        help="skip the post-rekey cache-invalidation probe",
    )
    loadgen.add_argument(
        "--out",
        default="benchmarks/results/BENCH_service.json",
        help="result file path ('' disables writing)",
    )
    loadgen.add_argument(
        "--host",
        default=None,
        help="target an external gateway (default: in-process)",
    )
    loadgen.add_argument("--port", type=int, default=7754)
    loadgen.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="stream the client+server span trace of the run to FILE (JSONL)",
    )
    loadgen.add_argument(
        "--workers",
        type=int,
        default=0,
        help="supervised crypto workers for the in-process gateway",
    )
    loadgen.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        help="stamp every verify request with this deadline budget",
    )
    loadgen.add_argument(
        "--kill-worker-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="SIGKILL one worker this far into the main phase and assert "
        "the supervisor restarts it",
    )
    loadgen.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="drive load through the wire-level chaos proxy; SPEC is "
        "inline JSON or a JSON file (keys: reset, truncate, stall, "
        "stall_s, latency_s, jitter_s, seed)",
    )
    loadgen.add_argument(
        "--error-budget",
        type=float,
        default=0.01,
        help="max fraction of requests allowed to fail under chaos",
    )
    loadgen.add_argument(
        "--sessions",
        action="store_true",
        help="run the session phase: CL-AKA handshakes, the MAC-"
        "authenticated fast path (asserted pairing-free), and the "
        "post-rekey session-invalidation probe",
    )
    loadgen.add_argument(
        "--session-requests",
        type=int,
        default=4096,
        help="total fast-path requests the session phase drives",
    )
    loadgen.add_argument("--json", action="store_true")
    loadgen.set_defaults(func=cmd_loadgen)

    top = sub.add_parser(
        "top", help="live dashboard polling a gateway's STATS"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7754)
    top.add_argument(
        "--interval", type=float, default=2.0, help="poll interval seconds"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after N polls (default: run until interrupted)",
    )
    top.set_defaults(func=cmd_top)

    benchdiff = sub.add_parser(
        "benchdiff",
        help="compare two BENCH_*.json files and gate regressions",
    )
    benchdiff.add_argument("old", help="baseline bench JSON")
    benchdiff.add_argument("new", help="candidate bench JSON")
    benchdiff.add_argument(
        "--fail-over",
        type=float,
        default=10.0,
        metavar="PCT",
        help="fail when a gated metric regresses more than PCT%% (default 10)",
    )
    benchdiff.add_argument(
        "--allow-backend-mismatch",
        action="store_true",
        help="compare documents produced under different field backends "
        "(refused by default: the numbers measure different code)",
    )
    benchdiff.set_defaults(func=cmd_benchdiff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
