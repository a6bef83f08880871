"""Span recording for the traced run, installed from outside the program.

:func:`install` wraps public functions and methods of the ``repro``
layers in place.  A module-level function is replaced in every loaded
``repro`` module that bound it by name (``from ... import``), so for
example the ``miller_loop`` that ``repro.pairing.groups`` imported is
traced as well as the one in ``repro.pairing.pairing``.  Pool workers
get the same wrappers through :func:`traced_worker_main`, which the
gateway process puts in place of the pool's worker entry before the
pool spawns.

Spans live in memory as tuples and are written as JSONL on request.
Timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so spans of the generator, the gateway and
the workers share one time axis.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: message a worker's pipe proxy intercepts: ("perfbench-flush", path)
FLUSH = "perfbench-flush"

_parent: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: request id of the generator-side operation in progress, if any
request_id: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None
)


def _terms(args, kwargs, result):
    return {"terms": len(args[1])}


def _fold(args, kwargs, result):
    stats = result[1]
    return {
        "items": len(args[1]),
        "admissions": stats.get("admission_pairings", 0),
        "bisections": stats.get("bisections", 0),
    }


def _job(args, kwargs, result):
    return {"items": len(args[2]), "crypto_s": result[1]}


#: (span name, module, attribute path, attrs(args, kwargs, result))
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("pairing.miller_loop", "repro.pairing.pairing", "miller_loop", None),
    ("pairing.final_exp", "repro.pairing.pairing", "final_exponentiation", None),
    ("pairing.g1_msm", "repro.pairing.groups", "PairingContext.g1_msm", _terms),
    ("pairing.g1_mul", "repro.pairing.groups", "PairingContext.g1_mul", None),
    ("pairing.g2_mul", "repro.pairing.groups", "PairingContext.g2_mul", None),
    ("batch.fold", "repro.core.batch", "McCLSBatchVerifier.verify_cross_signer", _fold),
    ("mccls.sign", "repro.core.mccls", "McCLS.sign", None),
    ("mccls.verify", "repro.core.mccls", "McCLS.verify", None),
    ("session.respond", "repro.core.session", "SessionAuthority.respond", None),
    ("session.mac_ok", "repro.core.session", "EstablishedSession.mac_ok", None),
    ("protocol.decode_request", "repro.service.protocol", "decode_request", None),
    (
        "protocol.decode_verify_payload",
        "repro.service.protocol",
        "decode_verify_payload",
        None,
    ),
    ("protocol.encode_reply", "repro.service.protocol", "encode_reply", None),
    ("pool.job", "repro.service.pool", "VerifyWorkerPool.submit", _job),
    ("pool.job", "repro.service.pool", "VerifyWorkerPool.submit_cross", _job),
    ("pool.job", "repro.service.pool", "VerifyWorkerPool.submit_fast", _job),
    ("client.enroll", "repro.service.client", "ServiceClient.enroll", None),
    ("client.start_session", "repro.service.client", "ServiceClient.start_session", None),
)

#: modules that bind traced functions by name; imported before patching
_BINDERS = (
    "repro.pairing.pairing",
    "repro.pairing.groups",
    "repro.core.batch",
    "repro.core.mccls",
    "repro.core.session",
    "repro.service.protocol",
    "repro.service.pool",
    "repro.service.client",
    "repro.service.server",
)


class Recorder:
    """In-memory span store of one process.

    A span is ``(name, start, end, span_id, parent_id, request_id,
    attrs)``; ids are unique within the process, and :meth:`dump` tags
    every line with the process role and pid.
    """

    def __init__(self, role: str):
        self.role = role
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None):
        """A traced stand-in for ``fn`` (coroutine functions stay async)."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id = next(ids)
                token = _parent.set(span_id)
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = clock()
                    parent = token.old_value
                    _parent.reset(token)
                extra = attrs(args, kwargs, result) if attrs else None
                spans.append(
                    (name, start, end, span_id, _or_none(parent), request_id.get(), extra)
                )
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            token = _parent.set(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                parent = token.old_value
                _parent.reset(token)
            extra = attrs(args, kwargs, result) if attrs else None
            spans.append(
                (name, start, end, span_id, _or_none(parent), request_id.get(), extra)
            )
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, atomically."""
        pid = os.getpid()
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as out:
            for name, start, end, span_id, parent, rid, extra in self.spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "id": span_id,
                    "parent": parent,
                    "request": rid,
                    "role": self.role,
                    "pid": pid,
                }
                if extra:
                    record.update(extra)
                out.write(json.dumps(record) + "\n")
        os.replace(tmp, path)


def _or_none(value):
    return None if value is contextvars.Token.MISSING else value


def install(role: str) -> Recorder:
    """Wrap every target in this process; returns the recorder.  Call it
    once per process: a second call would nest the wrappers.

    Raises ``LookupError`` when a target no longer exists, so a renamed
    layer fails the traced run instead of silently reporting nothing.
    """
    for name in _BINDERS:
        importlib.import_module(name)
    recorder = Recorder(role)
    for span, module_name, path, attrs in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__.get(attr)
            if original is None:
                raise LookupError(f"{module_name}.{path} not found")
            setattr(owner, attr, recorder.wrap(span, original, attrs))
            continue
        original = getattr(module, attr, None)
        if original is None:
            raise LookupError(f"{module_name}.{path} not found")
        wrapped = recorder.wrap(span, original, attrs)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
    return recorder


class _FlushingConn:
    """The worker's pipe end, answering :data:`FLUSH` requests itself.

    A flush writes this worker's spans to the given path from a thread,
    so the worker loop keeps answering heartbeats meanwhile (the pool
    kills a worker that stays silent for seconds); every other message
    passes through to the pool's worker loop unchanged.
    """

    def __init__(self, conn, recorder: Recorder):
        self._conn = conn
        self._recorder = recorder

    def recv(self):
        while True:
            message = self._conn.recv()
            if message and message[0] == FLUSH:
                threading.Thread(target=self._recorder.dump, args=(message[1],)).start()
                continue
            return message

    def send(self, message) -> None:
        self._conn.send(message)


def traced_worker_main(conn, params_doc: dict, cache_size) -> None:
    """Pool worker entry with the wrappers installed (see module doc)."""
    recorder = install("worker")
    # the pool spawns its workers, so this process imported the pool
    # afresh and _worker_main is the pool's own entry here
    from repro.service import pool

    pool._worker_main(_FlushingConn(conn, recorder), params_doc, cache_size)


def trace_pool_workers() -> None:
    """Make the pool spawn :func:`traced_worker_main` (gateway process)."""
    from repro.service import pool

    pool._worker_main = traced_worker_main


def load_spans(paths: Iterable[str]) -> List[dict]:
    """Every span of the given JSONL files."""
    spans: List[dict] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Self time of every span (by list index): its duration minus the
    part of its interval that its child spans cover."""
    index = {(s["pid"], s["id"]): i for i, s in enumerate(spans)}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is None:
            continue
        parent = index.get((s["pid"], s["parent"]))
        if parent is not None:
            children.setdefault(parent, []).append((s["start"], s["end"]))
    out: Dict[int, float] = {}
    for i, s in enumerate(spans):
        start, end = s["start"], s["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[i] = (end - start) - covered
    return out
