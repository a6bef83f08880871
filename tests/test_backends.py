"""Pluggable field-backend tests: registry, precedence, identity.

The contract under test is the PR's headline guarantee: a backend may
only change *how fast* field arithmetic runs, never *what it computes*
or *what the op counters report*.  Every registered-and-available
backend is therefore driven through the same Fp/Fp2/Fp12 operations,
full pairings, and McCLS sign/verify as the pure-Python reference
backend, and the results must match bit for bit.  Backends that cannot
run here (gmpy2 without the library installed) skip with their own
availability reason instead of silently passing.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.core.mccls import McCLS
from repro.core.params import KeyGenerationCenter
from repro.errors import FieldError
from repro.pairing import backends
from repro.pairing._kernel import kernel_availability
from repro.pairing.bn import bn254, toy_curve
from repro.pairing.fields import FieldSpec, Fp12
from repro.pairing.groups import PairingContext
from repro.pairing.pairing import final_exponentiation, miller_loop, pairing
from repro.schemes.registry import create_scheme

P254 = (1 << 253) + 39  # a 254-bit prime with p = 3 (mod 4)


def _available_backends():
    names = []
    for name in backends.backend_names():
        ok, _ = backends.get_backend(name).availability()
        if ok:
            names.append(name)
    return names


def _backend_params():
    params = []
    for name in backends.backend_names():
        ok, reason = backends.get_backend(name).availability()
        marks = (
            [pytest.mark.skip(reason=f"backend {name!r} unavailable: {reason}")]
            if not ok
            else []
        )
        params.append(pytest.param(name, marks=marks))
    return params


class TestRegistry:
    def test_reference_is_default_and_first(self):
        assert backends.DEFAULT_BACKEND == "reference"
        assert backends.backend_names()[0] == "reference"

    def test_all_expected_backends_registered(self):
        assert set(backends.backend_names()) == {"reference", "native", "gmpy2"}

    def test_unknown_backend_raises(self):
        with pytest.raises(backends.BackendError, match="unknown field backend"):
            backends.get_backend("no-such-backend")

    def test_instances_are_memoised(self):
        assert backends.get_backend("reference") is backends.get_backend(
            "reference"
        )

    def test_available_backends_always_include_reference(self):
        assert "reference" in _available_backends()

    def test_gmpy2_unavailability_carries_reason(self):
        ok, reason = backends.get_backend("gmpy2").availability()
        if not ok:
            assert "gmpy2" in reason


class TestPrecedence:
    """Selection precedence: explicit kwarg > env var > default."""

    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(backends.ENV_VAR, raising=False)
        assert backends.resolve_backend(None).name == "reference"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "native")
        assert backends.resolve_backend(None).name == "native"

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "native")
        assert backends.resolve_backend("reference").name == "reference"

    def test_instance_passes_through(self):
        instance = backends.get_backend("native")
        assert backends.resolve_backend(instance) is instance

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(backends.ENV_VAR, "no-such-backend")
        with pytest.raises(backends.BackendError):
            backends.resolve_backend(None)

    def test_context_threads_backend_to_spec(self, monkeypatch):
        monkeypatch.delenv(backends.ENV_VAR, raising=False)
        ctx = PairingContext(backend="native")
        assert ctx.backend.name == "native"
        assert ctx.curve.spec.backend.name == "native"

    def test_kgc_accepts_backend(self):
        kgc = KeyGenerationCenter(McCLS, seed=5, backend="native")
        assert kgc.ctx.backend.name == "native"

    def test_create_scheme_rebinds_backend(self, monkeypatch):
        monkeypatch.delenv(backends.ENV_VAR, raising=False)
        ctx = PairingContext(rng=random.Random(5))
        scheme = create_scheme("mccls", ctx, backend="native")
        assert scheme.ctx.backend.name == "native"
        # the caller's context is never mutated
        assert ctx.backend.name == "reference"


@pytest.mark.parametrize("name", _backend_params())
class TestCrossBackendIdentity:
    """Every backend must reproduce the reference backend bit for bit."""

    def _spec(self, name):
        return FieldSpec(P254, xi_a=1, backend=name)

    def test_fp_ops_match_reference(self, name):
        ref = FieldSpec(P254, xi_a=1, backend="reference")
        spec = self._spec(name)
        rng = random.Random(0xF00D)
        for _ in range(25):
            a, b = rng.randrange(1, P254), rng.randrange(1, P254)
            exp = rng.randrange(1, P254)
            for op in (
                lambda s: s.fp(a) * s.fp(b),
                lambda s: s.fp(a) + s.fp(b),
                lambda s: s.fp(a) - s.fp(b),
                lambda s: s.fp(a).inverse(),
                lambda s: s.fp(a) ** exp,
                lambda s: s.fp(a) ** -3,
            ):
                assert int(op(spec).value) == int(op(ref).value)

    def test_fp2_and_fp12_ops_match_reference(self, name):
        ref = FieldSpec(P254, xi_a=1, backend="reference")
        spec = self._spec(name)
        rng = random.Random(0xBEEF)
        coeffs = [rng.randrange(P254) for _ in range(12)]
        c0, c1, d0, d1 = (rng.randrange(1, P254) for _ in range(4))
        for op in (
            lambda s: s.fp2(c0, c1) * s.fp2(d0, d1),
            lambda s: s.fp2(c0, c1).square(),
            lambda s: s.fp2(c0, c1).inverse(),
            lambda s: s.fp2(c0, c1) ** 12345,
        ):
            out_spec, out_ref = op(spec), op(ref)
            assert (int(out_spec.c0), int(out_spec.c1)) == (
                int(out_ref.c0),
                int(out_ref.c1),
            )
        for op in (
            lambda s: s.fp12(coeffs) * s.fp12(coeffs[::-1]),
            lambda s: s.fp12(coeffs).square(),
            lambda s: s.fp12(coeffs).inverse(),
        ):
            assert op(spec) == op(ref)

    def test_full_pairing_matches_reference(self, name):
        ref_curve = toy_curve(48, backend="reference")
        curve = toy_curve(48, backend=name)
        assert curve.spec.backend.name == name
        expected = pairing(ref_curve, ref_curve.g1, ref_curve.g2)
        assert pairing(curve, curve.g1, curve.g2) == expected

    def test_pairing_bilinearity(self, name):
        curve = toy_curve(48, backend=name)
        lhs = pairing(curve, curve.g1 * 3, curve.g2 * 5)
        rhs = pairing(curve, curve.g1, curve.g2) ** 15
        assert lhs == rhs

    def test_mccls_sign_verify_matches_reference(self, name):
        def run(backend_name):
            ctx = PairingContext(
                toy_curve(48, backend=backend_name),
                random.Random(0xC0FFEE),
            )
            scheme = create_scheme("mccls", ctx)
            keys = scheme.generate_user_keys("alice@mwcps")
            sig = scheme.sign(b"pluggable backends", keys)
            assert scheme.verify(
                b"pluggable backends", sig, keys.identity, keys.public_key
            )
            assert not scheme.verify(
                b"tampered", sig, keys.identity, keys.public_key
            )
            return (
                int(sig.v),
                int(sig.s.x.c0),
                int(sig.s.x.c1),
                int(sig.r.x.value),
                int(sig.r.y.value),
            )

        assert run(name) == run("reference")

    def test_ecls_sign_verify_matches_reference(self, name):
        def run(backend_name):
            ctx = PairingContext(
                toy_curve(48, backend=backend_name),
                random.Random(0xC0FFEE),
            )
            scheme = create_scheme("ecls", ctx)
            keys = scheme.generate_user_keys("alice@mwcps")
            sig = scheme.sign(b"pairing-free backends", keys)
            assert scheme.verify(
                b"pairing-free backends",
                sig,
                keys.identity,
                keys.public_key,
                keys.public_key_extra,
            )
            assert not scheme.verify(
                b"tampered",
                sig,
                keys.identity,
                keys.public_key,
                keys.public_key_extra,
            )
            assert ctx.ops.pairings == 0
            return (
                int(sig.z),
                int(sig.t_pub.x.value),
                int(sig.t_pub.y.value),
                int(keys.partial.d),
            )

        assert run(name) == run("reference")

    def test_op_counts_match_reference(self, name):
        def count(backend_name):
            curve = toy_curve(48, backend=backend_name)
            pairing(curve, curve.g1, curve.g2)  # warm Frobenius tables
            with obs.collecting() as registry:
                pairing(curve, curve.g1, curve.g2)
            ops = registry.field_ops
            return (
                ops.fp_mul,
                ops.fp2_mul,
                ops.fp12_mul,
                ops.miller_loops,
                ops.final_exps,
            )

        assert count(name) == count("reference")


class TestNativeBackend:
    def test_native_is_always_selectable(self):
        ok, reason = backends.get_backend("native").availability()
        assert ok, reason

    def test_native_reports_flavor(self):
        backend = backends.get_backend("native")
        assert backend.flavor in (
            "gmpy2+cffi-kernel",
            "gmpy2",
            "cffi-kernel",
            "fallback",
        )
        assert backend.name in backend.describe()

    def test_kernel_memoised_per_curve(self):
        backend = backends.get_backend("native")
        curve = toy_curve(48, backend="native")
        assert backend.pairing_kernel(curve) is backend.pairing_kernel(curve)

    def test_curve_factories_cache_per_backend(self):
        assert toy_curve(48, backend="native") is toy_curve(
            48, backend="native"
        )
        assert toy_curve(48, backend="native") is not toy_curve(
            48, backend="reference"
        )

    def test_with_backend_is_identity_when_unchanged(self):
        curve = toy_curve(48, backend="native")
        assert curve.with_backend("native") is curve
        rebound = curve.with_backend("reference")
        assert rebound.spec.backend.name == "reference"
        assert rebound.g1.x == curve.g1.x


def _kernel_curves():
    ok, reason = kernel_availability()
    marks = [] if ok else [pytest.mark.skip(reason=f"kernel: {reason}")]
    return [pytest.param(name, marks=marks) for name in ("toy48", "bn254")]


def _curve_pair(name):
    """(reference, native) instances of one curve."""
    if name == "toy48":
        return toy_curve(48, backend="reference"), toy_curve(48, backend="native")
    return bn254(backend="reference"), bn254(backend="native")


@pytest.mark.parametrize("curve_name", _kernel_curves())
class TestKernelFp12Inverse:
    """The final exponentiation's easy-part inverse runs in C; it must be
    the reference extended-Euclid inverse byte for byte and tally alike."""

    def _inputs(self, ref):
        rng = random.Random(0x1A7E)
        values = [Fp12(ref.spec, [1] + [0] * 11)]
        for _ in range(24):
            coeffs = [
                rng.randrange(ref.p) if rng.random() < 0.6 else 0
                for _ in range(12)
            ]
            coeffs[rng.randrange(12)] = rng.randrange(1, ref.p)
            values.append(Fp12(ref.spec, coeffs))
        values.append(miller_loop(ref, ref.g1, ref.g2))
        return values

    def test_inverse_matches_reference(self, curve_name):
        ref, nat = _curve_pair(curve_name)
        kernel = nat.spec.backend.pairing_kernel(nat)
        assert kernel is not None
        for value in self._inputs(ref):
            got = kernel.fp12_inverse(Fp12(nat.spec, value.coeffs))
            assert got.coeffs == value.inverse().coeffs

    def test_zero_raises_on_both_backends(self, curve_name):
        for curve in _curve_pair(curve_name):
            with obs.collecting() as registry:
                with pytest.raises(FieldError):
                    final_exponentiation(curve, curve.spec.fp12_zero())
            assert registry.field_ops.fp12_inv == 1

    def test_final_exp_tallies_one_inverse(self, curve_name):
        ref, nat = _curve_pair(curve_name)
        raw = miller_loop(ref, ref.g1, ref.g2)
        tallies, values = [], []
        for curve in (ref, nat):
            f = Fp12(curve.spec, raw.coeffs)
            final_exponentiation(curve, f)  # warm the Frobenius tables
            with obs.collecting() as registry:
                values.append(final_exponentiation(curve, f).coeffs)
            tallies.append(registry.field_ops.snapshot())
        assert tallies[1]["fp12_inv"] == 1
        assert tallies[0] == tallies[1]
        assert values[0] == values[1]
        kernel = nat.spec.backend.pairing_kernel(nat)
        with obs.collecting() as registry:
            kernel.final_exp(Fp12(nat.spec, raw.coeffs))
        assert registry.field_ops.fp12_inv == 1
