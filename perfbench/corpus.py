"""The corpus: signed (or MACed) request frames, built outside every
timed interval and outside ``setup_s``."""

from __future__ import annotations

import time
from typing import List, Optional, Tuple


def tamper(message: bytes) -> bytes:
    """The message with its last bit flipped (the signature no longer fits)."""
    return message[:-1] + bytes([message[-1] ^ 1])


def verify_frames(curve, requests, keys, sign, samples: Optional[List[float]] = None):
    """(conn, frame, expected) for each VERIFY request; ``sign(message,
    keys)`` signs, and its wall time per call goes into ``samples``."""
    from perfbench.tracing import request_id
    from repro.service import protocol

    items = []
    clock = time.perf_counter
    for req in requests:
        key = keys[req.signer]
        token = request_id.set(req.rid)
        started = clock()
        signature = sign(req.message, key)
        if samples is not None:
            samples.append(clock() - started)
        request_id.reset(token)
        message = tamper(req.message) if req.tampered else req.message
        payload = protocol.encode_verify_payload(
            curve, key.identity, key.public_key, message, signature
        )
        frame = protocol.encode_frame(
            protocol.encode_request(protocol.Opcode.VERIFY, payload)
        )
        items.append((req.conn, frame, req.expected))
    return items


def fast_frames(requests, sessions, seqs: List[int], samples: Optional[List[float]] = None):
    """(conn, frame, True) for each VERIFY_FAST request; per-session
    sequence numbers continue from ``seqs`` (updated in place)."""
    from repro.service import protocol

    items = []
    clock = time.perf_counter
    for req in requests:
        session = sessions[req.signer]
        seqs[req.signer] += 1
        seq = seqs[req.signer]
        started = clock()
        mac = session.mac(
            *protocol.fast_verify_mac_bytes(
                session.session_id, seq, session.client_identity, req.message
            )
        )
        if samples is not None:
            samples.append(clock() - started)
        payload = protocol.encode_verify_fast_payload(
            session.client_identity, session.session_id, seq, req.message, mac
        )
        frame = protocol.encode_frame(
            protocol.encode_request(protocol.Opcode.VERIFY_FAST, payload)
        )
        items.append((req.conn, frame, True))
    return items


class Signer:
    """Signs corpus requests in this process.

    ``client.sign`` (the default client) signs :data:`TIMED_PER_CHUNK`
    requests out of every :data:`CHUNK_EVERY`, timed: those times are the
    ``sign_p50_ms`` sample, spread over every signing period of the run.
    The rest is signed, untimed, by ``bulk.sign``: a second client whose
    verifier view dropped the comb table of the generator, so its ``R``
    multiplication runs on the compiled GLV path.  Both run the same
    ``McCLS.sign``, and every signature still has to pass the gateway.
    """

    CHUNK_EVERY = 400
    TIMED_PER_CHUNK = 50

    def __init__(self, client, bulk):
        self.client = client
        self.bulk = bulk
        ctx = bulk.scheme_view().ctx
        ctx.drop_fixed_base(ctx.g1)

    def sign(self, requests, keys, samples: List[float]) -> List[Tuple[int, bytes, bool]]:
        """VERIFY frames for ``requests`` in order."""
        curve = self.client.curve
        frames: List[Tuple[int, bytes, bool]] = []
        for index in range(0, len(requests), self.CHUNK_EVERY):
            segment = requests[index : index + self.CHUNK_EVERY]
            timed = segment[: self.TIMED_PER_CHUNK]
            frames += verify_frames(curve, timed, keys, self.client.sign, samples)
            frames += verify_frames(curve, segment[len(timed) :], keys, self.bulk.sign)
        return frames
