"""The gateway under test, in its own process.

Usage: ``python3 perfbench/gateway.py --workers N --seed S [--trace-dir D]``
from the root of a checkout.  The process builds
``VerificationGateway(curve=bn254(backend="native"), ...)``, starts it on
a loopback port and prints one JSON line ``{"port", "pid"}`` when it
serves.  It then reads commands from stdin, answering each with one
line on stdout:

``reset``
    replace the gateway's stage registry, so the next STATS reports
    only what follows (the open phase);
``flush``
    (traced runs) write the spans of the gateway and of every worker
    as JSONL into the trace directory;
end of input
    stop the gateway and its workers, then exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: seconds the flush waits for every worker's span file
FLUSH_TIMEOUT_S = 60.0


async def _flush(gateway, recorder, trace_dir: str) -> None:
    """Write the gateway's spans and have every worker write its own.

    Writing runs in threads so the event loop keeps the pool's
    heartbeats flowing; a loop blocked for seconds would get the
    workers declared hung and killed mid-flush.
    """
    from perfbench.tracing import FLUSH

    paths = [os.path.join(trace_dir, "gateway.jsonl")]
    writing = asyncio.ensure_future(asyncio.to_thread(recorder.dump, paths[0]))
    for handle in gateway.pool.handles() if gateway.pool is not None else ():
        path = os.path.join(trace_dir, f"worker-{handle.index}.jsonl")
        handle.conn.send((FLUSH, path))
        paths.append(path)
    await writing
    deadline = time.monotonic() + FLUSH_TIMEOUT_S
    while not all(os.path.exists(p) for p in paths):
        if time.monotonic() > deadline:
            raise TimeoutError("workers did not flush their spans")
        await asyncio.sleep(0.02)


async def serve(args) -> None:
    recorder = None
    if args.trace_dir:
        from perfbench import tracing

        recorder = tracing.install("gateway")
        tracing.trace_pool_workers()
    from repro.obs.registry import Registry
    from repro.pairing.bn import bn254
    from repro.service.server import VerificationGateway

    curve = bn254(backend="native")
    if curve.spec.backend.pairing_kernel(curve) is None:
        raise SystemExit("native pairing kernel is not active in the gateway")
    gateway = VerificationGateway(
        curve=curve, seed=args.seed, workers=args.workers, backend="native"
    )
    await gateway.start()
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    print(json.dumps({"port": gateway.port, "pid": os.getpid()}), flush=True)
    try:
        while True:
            line = (await reader.readline()).decode().strip()
            if not line:
                break
            if line == "reset":
                gateway.registry = Registry()
            elif line == "flush" and recorder is not None:
                await _flush(gateway, recorder, args.trace_dir)
            else:
                raise SystemExit(f"unknown command {line!r}")
            print("ok", flush=True)
    finally:
        await gateway.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-dir", default="")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
