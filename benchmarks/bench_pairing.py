#!/usr/bin/env python3
"""Pairing-core micro-benchmark: optimised pipeline vs the affine reference.

Run:  PYTHONPATH=src python benchmarks/bench_pairing.py \
          [--curves toy48,bn254] [--backends reference,native]

For each (curve, field backend) pair this measures, via the
:mod:`repro.obs` field-op tally,

* a single ``pairing()`` through the optimised path (sparse projective
  Miller loop + cyclotomic final exponentiation) against the retained
  naive reference (:mod:`repro.pairing.naive`), in base-field
  multiplications and wall-clock seconds;
* a COLD McCLS verify routed through the shared-final-exponentiation
  co-DH check (asserting it executes exactly ONE final exponentiation);
* a warm ZWXF verify, whose three live pairings share one final
  exponentiation through ``multi_pair``.

Backends are compared side by side: the pairing values must be
bit-identical across every backend (the native backend is only allowed
to be *faster*, never *different*), the deterministic op counts must
match exactly, and on bn254 the native backend's compiled kernel must
beat the reference backend's single pairing by ``--min-native-speedup``
(default 5x) whenever the kernel compiled.

Since schema v3 each row also measures

* G1 scalar multiplication: the plain wNAF ladder against the GLV
  endomorphism decomposition (and, on the native backend, the compiled
  kernel MSM), gated on bn254 at >=2x fewer fp_mul for GLV and >=8x
  wall-clock for the kernel;
* a warm 64-signer cross-signer batch fold against per-item verifies,
  gated at <=35% of the per-item fp_mul cost.

Results land in ``benchmarks/results/BENCH_pairing.json`` (schema v3:
one row per curve+backend, top-level ``backends`` list).  The script
exits non-zero unless the optimised single pairing costs at most half
the naive reference's base-field multiplications on every measured
curve+backend — the earlier PR's headline >=2x op-count reduction.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(SRC))

from repro import obs
from repro.core.batch import McCLSBatchVerifier
from repro.core.mccls import McCLS
from repro.pairing import backends as field_backends
from repro.pairing import curve as curve_points
from repro.pairing import glv
from repro.pairing.bn import bn254, toy_curve
from repro.pairing.groups import PairingContext
from repro.pairing.naive import pairing_naive
from repro.pairing.pairing import pairing
from repro.schemes.zwxf import ZWXFScheme

RESULTS = Path(__file__).parent / "results" / "BENCH_pairing.json"

#: BENCH_pairing.json document version; v2 added per-backend rows and
#: the top-level ``backends`` list (``repro benchdiff`` keys on it); v3
#: added the ``scalar_mult`` section (wNAF ladder vs GLV vs compiled
#: kernel MSM) and the ``batch_verify`` section (cross-signer randomized
#: fold vs warm per-item verifies)
BENCH_SCHEMA_VERSION = 3

CURVES = {
    "toy48": lambda backend: toy_curve(48, backend=backend),
    "toy64": lambda backend: toy_curve(64, backend=backend),
    "bn254": lambda backend: bn254(backend=backend),
}


def _measure(fn, repeats: int = 1):
    """Run ``fn`` under a fresh registry -> (field_ops, seconds, out).

    The op tally comes from the first (instrumented) run; with
    ``repeats > 1`` the reported seconds are the minimum over the extra
    repeats, which stabilises the cross-backend speedup figures.
    """
    with obs.collecting() as registry:
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
    for _ in range(repeats - 1):
        start = time.perf_counter()
        fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    return registry.field_ops, elapsed, out


def bench_curve(name: str, backend_name: str) -> dict:
    """All pairing-core measurements for one curve on one backend."""
    curve = CURVES[name](backend_name)
    backend = curve.spec.backend
    kernel_active = backend.pairing_kernel(curve) is not None
    report: dict = {
        "curve": name,
        "bits": curve.p.bit_length(),
        "backend": backend.name,
        "backend_detail": backend.describe(),
        "kernel_active": kernel_active,
    }

    # Warm the per-curve Frobenius tables outside the tally so every
    # backend's counts start from the same (warm) state — the memo is
    # keyed on (p, xi_a) and would otherwise charge table construction
    # to whichever backend happens to run first.
    pairing(curve, curve.g1, curve.g2)

    fast_ops, fast_time, fast_val = _measure(
        lambda: pairing(curve, curve.g1, curve.g2), repeats=3
    )
    naive_ops, naive_time, naive_val = _measure(
        lambda: pairing_naive(curve, curve.g1, curve.g2)
    )
    if fast_val != naive_val:
        raise SystemExit(
            f"{name}/{backend.name}: optimised pairing != naive reference"
        )
    report["single_pairing"] = {
        "optimized": {"fp_mul": fast_ops.fp_mul, "seconds": fast_time},
        "naive": {"fp_mul": naive_ops.fp_mul, "seconds": naive_time},
        "fp_mul_ratio": naive_ops.fp_mul / fast_ops.fp_mul,
        "speedup": naive_time / fast_time if fast_time else float("inf"),
    }
    report["_pairing_value"] = fast_val  # cross-backend identity check

    # Deterministic batch weights keep the gated fp_mul counts replayable
    # run to run; production gateways use the secrets-backed default.
    ctx = PairingContext(
        curve, random.Random(0xBE7C4), insecure_deterministic_batch=True
    )
    scheme = McCLS(ctx)
    keys = scheme.generate_user_keys("bench@pairing")
    sig = scheme.sign(b"bench", keys)
    report["_mccls_sig"] = (
        int(sig.v),
        int(sig.s.x.c0),
        int(sig.s.x.c1),
        int(sig.r.x.value),
        int(sig.r.y.value),
    )
    cold_ops, cold_time, ok = _measure(
        lambda: scheme.verify(b"bench", sig, keys.identity, keys.public_key)
    )
    assert ok, f"{name}/{backend.name}: cold McCLS verify failed"
    if cold_ops.final_exps != 1:
        raise SystemExit(
            f"{name}/{backend.name}: cold McCLS verify ran "
            f"{cold_ops.final_exps} final exponentiations (expected exactly "
            "1 shared one)"
        )
    report["mccls_cold_verify"] = {
        "fp_mul": cold_ops.fp_mul,
        "seconds": cold_time,
        "miller_loops": cold_ops.miller_loops,
        "final_exps": cold_ops.final_exps,
    }

    zwxf = ZWXFScheme(ctx)
    zkeys = zwxf.generate_user_keys("bench@pairing")
    zsig = zwxf.sign(b"bench", zkeys)
    assert zwxf.verify(b"bench", zsig, zkeys.identity, zkeys.public_key)
    multi_ops, multi_time, ok = _measure(
        lambda: zwxf.verify(b"bench", zsig, zkeys.identity, zkeys.public_key)
    )
    assert ok, f"{name}/{backend.name}: warm ZWXF verify failed"
    report["zwxf_warm_multi_pairing_verify"] = {
        "fp_mul": multi_ops.fp_mul,
        "seconds": multi_time,
        "miller_loops": multi_ops.miller_loops,
        "final_exps": multi_ops.final_exps,
    }

    report["scalar_mult"] = bench_scalar_mult(name, curve)
    report["batch_verify"] = bench_batch_verify(name, ctx, scheme)
    return report


def bench_scalar_mult(name: str, curve) -> dict:
    """G1 scalar multiplication: double-and-add vs wNAF vs GLV.

    The scalars are drawn from a seed fixed per curve (NOT per backend),
    so the deterministic op counts are directly comparable across
    backends; the kernel, when active, changes only the seconds column.
    ``fp_mul_ratio`` is GLV's advantage over the binary double-and-add
    ladder; ``speedup`` is GLV's wall-clock advantage over the wNAF
    production path it replaced (the honest like-for-like number).
    """
    rng = random.Random(f"bench/scalar_mult/{name}")
    point = curve.g1 * 0xB007C0DE
    scalars = [rng.randrange(1, curve.n) for _ in range(6)]
    params = glv.glv_params(curve)
    # Warm the GLV parameter/table caches outside the tally.
    glv.glv_mul(curve, point, scalars[0])

    def ladder() -> list:
        return [curve_points._jacobian_scalar_mult(point, k) for k in scalars]

    def wnaf() -> list:
        return [curve_points._wnaf_scalar_mult(point, k) for k in scalars]

    def decomposed() -> list:
        return [glv.glv_mul(curve, point, k) for k in scalars]

    ladder_ops, ladder_time, ladder_vals = _measure(ladder, repeats=3)
    wnaf_ops, wnaf_time, wnaf_vals = _measure(wnaf, repeats=3)
    glv_ops, glv_time, glv_vals = _measure(decomposed, repeats=3)
    if not (ladder_vals == wnaf_vals == glv_vals):
        raise SystemExit(f"{name}: scalar-mult strategies disagree on values")
    kernel = curve.spec.backend.pairing_kernel(curve)
    return {
        "scalars": len(scalars),
        "glv_available": params is not None,
        "kernel_msm": kernel is not None,
        "ladder": {"fp_mul": ladder_ops.fp_mul, "seconds": ladder_time},
        "wnaf": {"fp_mul": wnaf_ops.fp_mul, "seconds": wnaf_time},
        "glv": {"fp_mul": glv_ops.fp_mul, "seconds": glv_time},
        "fp_mul_ratio": (
            ladder_ops.fp_mul / glv_ops.fp_mul if glv_ops.fp_mul else 0.0
        ),
        "wnaf_fp_mul_ratio": (
            wnaf_ops.fp_mul / glv_ops.fp_mul if glv_ops.fp_mul else 0.0
        ),
        "speedup": wnaf_time / glv_time if glv_time else float("inf"),
    }


def bench_batch_verify(name: str, ctx, scheme) -> dict:
    """Cross-signer randomized fold vs warm per-item verifies.

    64 distinct signers sign one message each; after one admission
    window has anchored every signer, a fresh mixed window must settle
    pairing-free in a fraction of the per-item fp_mul cost.
    """
    verifier = McCLSBatchVerifier(scheme)
    signers = [
        (f"batch-{i:02d}", scheme.generate_user_keys(f"batch-{i:02d}"))
        for i in range(64)
    ]

    def window(tag: bytes) -> list:
        return [
            (
                tag + identity.encode(),
                scheme.sign(tag + identity.encode(), keys),
                identity,
                keys.public_key,
            )
            for identity, keys in signers
        ]

    # Admission window: anchors every signer (pays the one-time pairing).
    verdicts, _stats = verifier.verify_cross_signer(window(b"warm:"))
    assert all(verdicts), f"{name}: admission window rejected a valid item"

    steady = window(b"steady:")
    batch_ops, batch_time, (verdicts, stats) = _measure(
        lambda: verifier.verify_cross_signer(steady)
    )
    assert all(verdicts), f"{name}: steady window rejected a valid item"

    # Warm the per-item path, then measure it for the comparison.
    for message, signature, identity, public_key in steady:
        assert scheme.verify(message, signature, identity, public_key)
    individual_ops, individual_time, oks = _measure(
        lambda: [
            scheme.verify(message, signature, identity, public_key)
            for message, signature, identity, public_key in steady
        ]
    )
    assert all(oks), f"{name}: warm individual verify failed"
    return {
        "signers": len(signers),
        "items": len(steady),
        "folds": stats["folds"],
        "bisections": stats["bisections"],
        "pairings": stats["admission_pairings"],
        "batch": {"fp_mul": batch_ops.fp_mul, "seconds": batch_time},
        "individual": {
            "fp_mul": individual_ops.fp_mul,
            "seconds": individual_time,
        },
        "fp_mul_ratio": (
            batch_ops.fp_mul / individual_ops.fp_mul
            if individual_ops.fp_mul
            else 0.0
        ),
        "speedup": (
            individual_time / batch_time if batch_time else float("inf")
        ),
    }


def _check_cross_backend(name: str, rows: list) -> None:
    """Value- and count-identity across every backend for one curve."""
    reference = rows[0]
    for row in rows[1:]:
        if row["_pairing_value"] != reference["_pairing_value"]:
            raise SystemExit(
                f"{name}: pairing value differs between backends "
                f"{reference['backend']} and {row['backend']}"
            )
        if row["_mccls_sig"] != reference["_mccls_sig"]:
            raise SystemExit(
                f"{name}: McCLS signature differs between backends "
                f"{reference['backend']} and {row['backend']}"
            )
        for block, inner in (
            ("single_pairing", "optimized"),
            ("mccls_cold_verify", None),
            ("zwxf_warm_multi_pairing_verify", None),
            ("scalar_mult", "ladder"),
            ("scalar_mult", "wnaf"),
            ("scalar_mult", "glv"),
            ("batch_verify", "batch"),
            ("batch_verify", "individual"),
        ):
            if inner is not None:
                ref_ops = reference[block][inner]["fp_mul"]
                row_ops = row[block][inner]["fp_mul"]
                label = f"{block}.{inner}"
            else:
                ref_ops = reference[block]["fp_mul"]
                row_ops = row[block]["fp_mul"]
                label = block
            if ref_ops != row_ops:
                raise SystemExit(
                    f"{name}.{label}: fp_mul count differs between backends "
                    f"({reference['backend']}={ref_ops}, "
                    f"{row['backend']}={row_ops}); counters must be "
                    "backend-independent"
                )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--curves",
        default="toy48,bn254",
        help="comma-separated subset of: " + ",".join(CURVES),
    )
    parser.add_argument(
        "--backends",
        default="reference,native",
        help="comma-separated field backends to measure side by side "
        "(available: " + ",".join(field_backends.backend_names()) + ")",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=2.0,
        help="required naive/optimized fp_mul ratio for a single pairing",
    )
    parser.add_argument(
        "--min-native-speedup",
        type=float,
        default=5.0,
        help="required reference/native wall-clock speedup for a single "
        "bn254 pairing when the native kernel is active (0 disables)",
    )
    parser.add_argument(
        "--min-glv-ratio",
        type=float,
        default=2.0,
        help="required ladder/GLV fp_mul ratio for bn254 G1 scalar "
        "multiplication (0 disables)",
    )
    parser.add_argument(
        "--min-kernel-mul-speedup",
        type=float,
        default=8.0,
        help="required wNAF/GLV wall-clock speedup for bn254 G1 scalar "
        "multiplication on the native backend when the kernel MSM is "
        "active (0 disables)",
    )
    parser.add_argument(
        "--max-batch-ratio",
        type=float,
        default=0.35,
        help="max allowed batch/individual fp_mul ratio for the warm "
        "64-signer cross-signer fold (0 disables)",
    )
    args = parser.parse_args()

    backend_names = []
    for raw in args.backends.split(","):
        raw = raw.strip()
        backend = field_backends.get_backend(raw)
        ok, reason = backend.availability()
        if not ok:
            print(f"skipping backend {raw!r}: {reason}")
            continue
        backend_names.append(raw)
    if not backend_names:
        raise SystemExit("no requested backend is available")

    reports = []
    failures = []
    for name in args.curves.split(","):
        name = name.strip()
        if name not in CURVES:
            raise SystemExit(f"unknown curve {name!r}")
        rows = [bench_curve(name, backend) for backend in backend_names]
        _check_cross_backend(name, rows)
        baseline = rows[0]["single_pairing"]["optimized"]["seconds"]
        for row in rows:
            ratio = row["single_pairing"]["fp_mul_ratio"]
            status = "ok" if ratio >= args.min_ratio else "TOO SLOW"
            seconds = row["single_pairing"]["optimized"]["seconds"]
            vs_first = baseline / seconds if seconds else float("inf")
            row["vs_reference_speedup"] = round(vs_first, 2)
            kern = " kernel" if row["kernel_active"] else ""
            print(
                f"{name:>6} [{row['backend']}{kern}]: pairing fp_mul "
                f"{row['single_pairing']['optimized']['fp_mul']} optimized "
                f"vs {row['single_pairing']['naive']['fp_mul']} naive "
                f"({ratio:.2f}x, need >={args.min_ratio:.1f}x) [{status}]  "
                f"{seconds * 1e3:.2f} ms/pairing "
                f"({vs_first:.2f}x vs {rows[0]['backend']})"
            )
            if ratio < args.min_ratio:
                failures.append(f"{name}/{row['backend']}")
            if (
                name == "bn254"
                and args.min_native_speedup > 0
                and row["backend"] == "native"
                and row["kernel_active"]
                and rows[0]["backend"] == "reference"
                and vs_first < args.min_native_speedup
            ):
                failures.append(
                    f"{name}/native speedup {vs_first:.2f}x < "
                    f"{args.min_native_speedup:g}x"
                )
        cold = rows[0]["mccls_cold_verify"]
        print(
            f"        cold mccls verify: {cold['fp_mul']} fp_mul, "
            f"{cold['miller_loops']} Miller loops, "
            f"{cold['final_exps']} final exp "
            "(values and counts identical across backends)"
        )
        for row in rows:
            mul = row["scalar_mult"]
            kern = " kernel" if mul["kernel_msm"] else ""
            print(
                f"        scalar mult [{row['backend']}{kern}]: GLV "
                f"{mul['fp_mul_ratio']:.2f}x fewer fp_mul than double-"
                f"and-add ({mul['wnaf_fp_mul_ratio']:.2f}x vs wNAF), "
                f"{mul['speedup']:.2f}x wall-clock vs wNAF "
                f"({mul['glv']['seconds'] * 1e3 / mul['scalars']:.2f} "
                "ms/mult)"
            )
            if (
                name == "bn254"
                and args.min_glv_ratio > 0
                and mul["fp_mul_ratio"] < args.min_glv_ratio
            ):
                failures.append(
                    f"{name}/{row['backend']} GLV fp_mul ratio "
                    f"{mul['fp_mul_ratio']:.2f}x < {args.min_glv_ratio:g}x"
                )
            if (
                name == "bn254"
                and args.min_kernel_mul_speedup > 0
                and row["backend"] == "native"
                and mul["kernel_msm"]
                and mul["speedup"] < args.min_kernel_mul_speedup
            ):
                failures.append(
                    f"{name}/native kernel scalar-mult speedup "
                    f"{mul['speedup']:.2f}x < "
                    f"{args.min_kernel_mul_speedup:g}x"
                )
            batch = row["batch_verify"]
            print(
                f"        batch verify [{row['backend']}]: "
                f"{batch['items']}-item cross-signer fold at "
                f"{batch['fp_mul_ratio'] * 100:.1f}% of warm per-item "
                f"fp_mul ({batch['speedup']:.1f}x wall-clock, "
                f"{batch['pairings']} pairings)"
            )
            if (
                args.max_batch_ratio > 0
                and batch["fp_mul_ratio"] > args.max_batch_ratio
            ):
                failures.append(
                    f"{name}/{row['backend']} batch fp_mul ratio "
                    f"{batch['fp_mul_ratio']:.3f} > {args.max_batch_ratio:g}"
                )
        reports.extend(rows)

    for row in reports:  # identity scratch fields never hit the JSON
        row.pop("_pairing_value", None)
        row.pop("_mccls_sig", None)
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(
        json.dumps(
            {
                "schema_version": BENCH_SCHEMA_VERSION,
                "backends": backend_names,
                "results": reports,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {RESULTS}")
    if failures:
        print(f"FAIL: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
