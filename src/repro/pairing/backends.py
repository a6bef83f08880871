"""Registry of pluggable field-arithmetic backends.

Mirrors :mod:`repro.schemes.registry`: backends are looked up by name,
constructed lazily, and validated before use.  A backend decides how the
scalar layer of the tower computes — modular exponentiation, inversion,
the integer type carried by :class:`~repro.pairing.fields.FieldSpec` —
and may provide a compiled kernel (its one hook,
:meth:`~repro.pairing.fields.FieldBackend.pairing_kernel`) that executes
whole Miller loops, final exponentiations and G1/G2 multi-scalar
multiplications natively.  Whatever the backend, values
and obs counters are bit-identical to the ``reference`` tower; backends
trade wall time, never semantics.

Selection precedence (highest first):

1. explicit object/name passed to ``PairingContext(backend=...)``,
   ``create_scheme(..., backend=...)``, CLI ``--backend``;
2. the ``REPRO_FIELD_BACKEND`` environment variable;
3. the ``reference`` default.

The three registered names:

``reference``
    The pure-Python tower exactly as shipped; always available.
``native``
    Best native engine present: ``gmpy2`` big-ints if importable, plus
    the cffi-compiled Montgomery pairing kernel when a C toolchain is
    available; degrades to pure Python (with a recorded flavor) so it is
    always *selectable*, merely not always *fast*.
``gmpy2``
    Strict gmpy2 backend; unavailable (with reason) when gmpy2 is not
    installed.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple, Union

from repro.pairing.fields import FieldBackend, inverse_mod

ENV_VAR = "REPRO_FIELD_BACKEND"
DEFAULT_BACKEND = "reference"


class BackendError(ValueError):
    """Unknown or unavailable field backend."""


# ---------------------------------------------------------------------------
# implementations
# ---------------------------------------------------------------------------


class ReferenceBackend(FieldBackend):
    """The pure-Python tower; the value oracle every other backend matches."""

    name = "reference"


class NativeBackend(FieldBackend):
    """Fastest engine available in this interpreter/toolchain.

    ``flavor`` records what was actually found, in preference order:
    ``gmpy2`` (big-int layer) layered with ``cffi-kernel`` (whole-stage
    pairing kernel) when each is present; ``fallback`` when neither is.
    The backend is always selectable so ``--backend native`` is safe in
    any environment; :meth:`describe` tells the truth about speed.
    """

    name = "native"

    def __init__(self) -> None:
        try:
            import gmpy2  # noqa: F401

            self._gmpy2 = gmpy2
        except ImportError:
            self._gmpy2 = None
        self._kernels: Dict[tuple, object] = {}
        self._kernel_state: Optional[Tuple[bool, str]] = None

    @property
    def flavor(self) -> str:
        parts = []
        if self._gmpy2 is not None:
            parts.append("gmpy2")
        if self._kernel_available()[0]:
            parts.append("cffi-kernel")
        return "+".join(parts) if parts else "fallback"

    def _kernel_available(self) -> Tuple[bool, str]:
        if self._kernel_state is None:
            from repro.pairing import _kernel

            self._kernel_state = _kernel.kernel_availability()
        return self._kernel_state

    def availability(self) -> Tuple[bool, str]:
        """Always selectable; the reason string reports the engine found."""
        ok, reason = self._kernel_available()
        if self._gmpy2 is not None and ok:
            return True, "gmpy2 big-ints + compiled pairing kernel"
        if ok:
            return True, "compiled pairing kernel (gmpy2 not installed)"
        if self._gmpy2 is not None:
            return True, f"gmpy2 big-ints (kernel unavailable: {reason})"
        return True, f"pure-Python fallback (gmpy2 absent; kernel: {reason})"

    def wrap(self, value: int):
        """Lift ``value`` to ``gmpy2.mpz`` when the library is present."""
        if self._gmpy2 is not None:
            return self._gmpy2.mpz(value)
        return value

    def powmod(self, base, exponent, modulus):
        """``gmpy2.powmod`` when available, builtin ``pow`` otherwise."""
        if self._gmpy2 is not None:
            return int(self._gmpy2.powmod(base, exponent, modulus))
        return pow(base, exponent, modulus)

    def invmod(self, value, modulus):
        """``gmpy2.invert`` when available, extended Euclid otherwise."""
        if self._gmpy2 is not None:
            try:
                return int(self._gmpy2.invert(value, modulus))
            except ZeroDivisionError:
                raise ZeroDivisionError("inversion of zero")
        return inverse_mod(value, modulus)

    def pairing_kernel(self, curve):
        """Memoised compiled kernel for ``curve`` (None when unbuildable)."""
        key = (int(curve.spec.p), int(curve.spec.xi_a),
               curve.ate_loop_count, curve.t)
        if key in self._kernels:
            return self._kernels[key]
        if not self._kernel_available()[0]:
            kernel = None
        else:
            from repro.pairing._kernel import PairingKernel

            kernel = PairingKernel.for_curve(curve)
        self._kernels[key] = kernel
        return kernel


class Gmpy2Backend(NativeBackend):
    """Strict gmpy2 backend: refuses to run without the real library."""

    name = "gmpy2"

    def availability(self) -> Tuple[bool, str]:
        """Available only when the real gmpy2 library imports."""
        if self._gmpy2 is None:
            return False, "gmpy2 is not installed"
        return True, "gmpy2 big-ints"

    def pairing_kernel(self, curve):
        """Always None: scalar-layer-only backend, so benchmarks can
        isolate the gmpy2 contribution from the compiled kernel's."""
        return None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_FACTORIES: Dict[str, Callable[[], FieldBackend]] = {
    "reference": ReferenceBackend,
    "native": NativeBackend,
    "gmpy2": Gmpy2Backend,
}
_INSTANCES: Dict[str, FieldBackend] = {}


def backend_names() -> Tuple[str, ...]:
    """All registered backend names, default first."""
    names = sorted(_FACTORIES)
    names.remove(DEFAULT_BACKEND)
    return (DEFAULT_BACKEND, *names)


def get_backend(name: str) -> FieldBackend:
    """The (memoised) backend instance registered under ``name``.

    Raises :class:`BackendError` for unknown names; does *not* check
    availability — use :func:`resolve_backend` for selection semantics.
    """
    if name not in _FACTORIES:
        known = ", ".join(backend_names())
        raise BackendError(f"unknown field backend {name!r} (known: {known})")
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = _FACTORIES[name]()
    return instance


def available_backends() -> Dict[str, Tuple[bool, str]]:
    """Name -> (available, reason) for every registered backend."""
    return {name: get_backend(name).availability() for name in backend_names()}


def resolve_backend(
    backend: Union[FieldBackend, str, None] = None,
) -> FieldBackend:
    """Apply selection precedence and return a usable backend instance.

    ``backend`` may be an instance (returned as-is), a name, or ``None``
    — in which case the ``REPRO_FIELD_BACKEND`` environment variable is
    consulted before falling back to ``reference``.  Selecting an
    unavailable backend (e.g. ``gmpy2`` without the library) raises
    :class:`BackendError` with the recorded reason.
    """
    if isinstance(backend, FieldBackend):
        return backend
    if backend is None:
        backend = os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    instance = get_backend(backend)
    ok, reason = instance.availability()
    if not ok:
        raise BackendError(f"field backend {backend!r} unavailable: {reason}")
    return instance
