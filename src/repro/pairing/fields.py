"""Finite-field arithmetic for pairing-friendly curves.

Three field layers are provided:

* :class:`Fp` - the prime base field GF(p).
* :class:`Fp2` - the quadratic extension GF(p^2) = GF(p)[i] / (i^2 + 1),
  which requires p = 3 (mod 4); used for coordinates of the sextic twist.
* :class:`Fp12` - the full extension GF(p^12) = GF(p)[w] / (w^12 - 2a w^6 +
  (a^2+1)), i.e. w^6 = xi = a + i for the tower non-residue xi; this is the
  target field of the pairing's Miller loop.

Elements are immutable value objects.  Every element carries a reference to
its :class:`FieldSpec`, and mixing elements of different specs raises
:class:`FieldError` rather than silently producing garbage.

Base-field *strategy* is pluggable: every :class:`FieldSpec` holds a
:class:`FieldBackend` that supplies the scalar primitives the tower cannot
express structurally (modular exponentiation, modular inversion, the
coefficient representation, and - for native backends - a compiled pairing
kernel).  Backends are registered and resolved by name in
:mod:`repro.pairing.backends`; two specs with equal ``(p, xi_a)`` compare
equal regardless of backend, so elements produced under different backends
interoperate and can be compared bit-for-bit (the cross-backend identity
tests rely on this).
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

from repro.errors import FieldError
from repro.obs import runtime as _rt
from repro.pairing.numbers import inverse_mod, legendre_symbol, sqrt_mod

IntLike = Union[int, "Fp"]


class FieldBackend:
    """Strategy supplying base-field scalar primitives to a field tower.

    The base class implements the *reference* semantics (plain Python
    ints, builtin ``pow``), so a backend only overrides what it
    accelerates.  Implementations must be value-transparent: for the same
    inputs every backend returns the same canonical residues, and the obs
    tally (``fp_mul`` and friends) is incremented by the tower classes /
    kernel wrappers identically across backends, so operation-count
    benchmarks stay backend-independent.

    ``modulus`` arguments of :meth:`powmod`/:meth:`invmod` are always the
    base-field prime ``p`` of a :class:`FieldSpec`, so backends may use
    prime-only algorithms (Fermat inversion).
    """

    #: registry name; concrete backends override this
    name = "abstract"

    def availability(self) -> Tuple[bool, str]:
        """Whether this backend can run here, plus a human-readable reason."""
        return True, "always available (pure Python)"

    def wrap(self, value: int) -> int:
        """Coefficient-representation entry point.

        Applied to the prime ``p`` when a :class:`FieldSpec` is built, so
        a backend with a faster integer type (e.g. ``gmpy2.mpz``) can make
        every ``x % spec.p`` reduction propagate that type through the
        tower with zero per-operation dispatch cost.
        """
        return value

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent % modulus`` for non-negative exponents."""
        return pow(base, exponent, modulus)

    def invmod(self, value: int, modulus: int) -> int:
        """Modular inverse; ``modulus`` is prime (the base-field p)."""
        return inverse_mod(value, modulus)

    def pairing_kernel(self, curve):
        """A compiled pairing kernel for ``curve``, or ``None``.

        Returning ``None`` keeps the pure-Python Miller loop, final
        exponentiation and MSM column walk.  A non-None kernel is used by
        :mod:`repro.pairing.pairing` for whole-stage native execution and
        by :mod:`repro.pairing.glv` for its interleaved-wNAF multi-scalar
        multiplications, bit- and count-identical to the reference paths.
        """
        return None

    def describe(self) -> str:
        """One-line human description (shown by CLI/bench surfaces)."""
        ok, reason = self.availability()
        state = "available" if ok else "unavailable"
        return f"{self.name}: {state} - {reason}"

    def __repr__(self) -> str:
        return f"<FieldBackend {self.name}>"


class FieldSpec:
    """Shared description of a field tower: base prime and tower residue.

    ``xi = xi_a + i`` is the quadratic/sextic non-residue in Fp2 used to
    build Fp12 (w^6 = xi).  For the standard BN254/alt_bn128 tower,
    ``xi_a = 9``.

    ``backend`` selects the base-field arithmetic strategy (a
    :class:`FieldBackend` instance or a registered name); omitted, it
    resolves through :func:`repro.pairing.backends.resolve_backend`, which
    honours the ``REPRO_FIELD_BACKEND`` environment default.
    """

    __slots__ = ("p", "xi_a", "fp12_mod_c0", "fp12_mod_c6", "backend")

    def __init__(
        self,
        p: int,
        *,
        xi_a: int,
        backend=None,
    ):
        if p % 4 != 3:
            raise FieldError("field tower requires p = 3 (mod 4) so i^2 = -1")
        if backend is None or isinstance(backend, str):
            from repro.pairing import backends as _backends

            backend = _backends.resolve_backend(backend)
        self.backend = backend
        self.p = backend.wrap(p)
        self.xi_a = xi_a % p
        # w^12 = 2a w^6 - (a^2 + 1): reduction constants for Fp12.
        self.fp12_mod_c6 = (2 * self.xi_a) % p
        self.fp12_mod_c0 = (-(self.xi_a * self.xi_a + 1)) % p

    def __repr__(self) -> str:
        return (
            f"FieldSpec(p~2^{self.p.bit_length()}, xi={self.xi_a}+i,"
            f" backend={self.backend.name})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.xi_a == other.xi_a
        )

    def __hash__(self) -> int:
        return hash((self.p, self.xi_a))

    # -- element constructors ------------------------------------------------
    def fp(self, value: int) -> "Fp":
        """An Fp element of this spec."""
        return Fp(self, value)

    def fp2(self, c0: int, c1: int = 0) -> "Fp2":
        """An Fp2 element c0 + c1*i of this spec."""
        return Fp2(self, c0, c1)

    def fp12(self, coeffs: Sequence[int]) -> "Fp12":
        """An Fp12 element from 12 Fp coefficients."""
        return Fp12(self, coeffs)

    def fp12_one(self) -> "Fp12":
        """The Fp12 multiplicative identity."""
        return Fp12(self, (1,) + (0,) * 11)

    def fp12_zero(self) -> "Fp12":
        """The Fp12 additive identity."""
        return Fp12(self, (0,) * 12)


def _coerce_int(value: IntLike) -> int:
    if isinstance(value, Fp):
        return value.value
    if isinstance(value, int):
        return value
    raise FieldError(f"cannot coerce {type(value).__name__} to field scalar")


class Fp:
    """An element of the prime field GF(p)."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value: int):
        self.spec = spec
        self.value = value % spec.p

    def _check(self, other: "Fp") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise FieldError("mixed-field arithmetic")

    def __add__(self, other: IntLike) -> "Fp":
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.spec, self.value + other.value)
        return Fp(self.spec, self.value + _coerce_int(other))

    __radd__ = __add__

    def __sub__(self, other: IntLike) -> "Fp":
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.spec, self.value - other.value)
        return Fp(self.spec, self.value - _coerce_int(other))

    def __rsub__(self, other: IntLike) -> "Fp":
        return Fp(self.spec, _coerce_int(other) - self.value)

    def __mul__(self, other: IntLike) -> "Fp":
        tally = _rt.tally
        if tally is not None:
            tally.fp_mul += 1
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.spec, self.value * other.value)
        return Fp(self.spec, self.value * _coerce_int(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Fp":
        return Fp(self.spec, -self.value)

    def __truediv__(self, other: IntLike) -> "Fp":
        tally = _rt.tally
        if tally is not None:
            tally.fp_inv += 1
            tally.fp_mul += 1
        div = other.value if isinstance(other, Fp) else _coerce_int(other)
        spec = self.spec
        return Fp(spec, self.value * spec.backend.invmod(div, spec.p))

    def __rtruediv__(self, other: IntLike) -> "Fp":
        return Fp(self.spec, _coerce_int(other)) / self

    def __pow__(self, exponent: int) -> "Fp":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        spec = self.spec
        return Fp(spec, spec.backend.powmod(self.value, exponent, spec.p))

    def square(self) -> "Fp":
        """The square of this element (one base-field multiplication)."""
        tally = _rt.tally
        if tally is not None:
            tally.fp_mul += 1
        return Fp(self.spec, self.value * self.value)

    def inverse(self) -> "Fp":
        """The multiplicative inverse (raises FieldError on zero)."""
        tally = _rt.tally
        if tally is not None:
            tally.fp_inv += 1
        spec = self.spec
        return Fp(spec, spec.backend.invmod(self.value, spec.p))

    def is_zero(self) -> bool:
        """Whether this is the additive identity."""
        return self.value == 0

    def is_square(self) -> bool:
        """Quadratic-residue test."""
        return legendre_symbol(self.value, self.spec.p) >= 0

    def sqrt(self) -> "Fp":
        """A square root (raises FieldError for non-residues)."""
        return Fp(self.spec, sqrt_mod(self.value, self.spec.p))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp):
            return self.spec == other.spec and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.spec.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.spec.p, self.value))

    def __repr__(self) -> str:
        return f"Fp({self.value})"


class Fp2:
    """An element c0 + c1*i of GF(p^2) with i^2 = -1."""

    __slots__ = ("spec", "c0", "c1")

    def __init__(self, spec: FieldSpec, c0: int, c1: int = 0):
        self.spec = spec
        self.c0 = c0 % spec.p
        self.c1 = c1 % spec.p

    def _check(self, other: "Fp2") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise FieldError("mixed-field arithmetic")

    def __add__(self, other: "Fp2") -> "Fp2":
        self._check(other)
        return Fp2(self.spec, self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "Fp2") -> "Fp2":
        self._check(other)
        return Fp2(self.spec, self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "Fp2":
        return Fp2(self.spec, -self.c0, -self.c1)

    def __mul__(self, other: Union["Fp2", int]) -> "Fp2":
        tally = _rt.tally
        if isinstance(other, int):
            if tally is not None:
                tally.fp2_mul += 1
                tally.fp_mul += 2
            return Fp2(self.spec, self.c0 * other, self.c1 * other)
        self._check(other)
        if tally is not None:
            tally.fp2_mul += 1
            tally.fp_mul += 3
        a0, a1, b0, b1 = self.c0, self.c1, other.c0, other.c1
        # Karatsuba over i^2 = -1: three base multiplications.
        m0 = a0 * b0
        m1 = a1 * b1
        m2 = (a0 + a1) * (b0 + b1)
        return Fp2(self.spec, m0 - m1, m2 - m0 - m1)

    __rmul__ = __mul__

    def square(self) -> "Fp2":
        """Dedicated squaring: two base multiplications instead of three."""
        tally = _rt.tally
        if tally is not None:
            tally.fp2_sq += 1
            tally.fp_mul += 2
        a0, a1 = self.c0, self.c1
        # (a0 + a1 i)^2 = (a0+a1)(a0-a1) + 2 a0 a1 i
        return Fp2(self.spec, (a0 + a1) * (a0 - a1), 2 * a0 * a1)

    def __truediv__(self, other: Union["Fp2", int]) -> "Fp2":
        if isinstance(other, int):
            inv = self.spec.backend.invmod(other, self.spec.p)
            return Fp2(self.spec, self.c0 * inv, self.c1 * inv)
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "Fp2":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Fp2(self.spec, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base.square()
            e >>= 1
        return result

    def inverse(self) -> "Fp2":
        """The multiplicative inverse (raises FieldError on zero)."""
        tally = _rt.tally
        if tally is not None:
            tally.fp2_inv += 1
            tally.fp_mul += 4
        p = self.spec.p
        norm = (self.c0 * self.c0 + self.c1 * self.c1) % p
        if norm == 0:
            raise FieldError("inversion of zero in Fp2")
        inv = self.spec.backend.invmod(norm, p)
        return Fp2(self.spec, self.c0 * inv, -self.c1 * inv)

    def conjugate(self) -> "Fp2":
        """The conjugate c0 - c1*i."""
        return Fp2(self.spec, self.c0, -self.c1)

    def mul_by_xi(self) -> "Fp2":
        """Multiply by the tower residue xi = xi_a + i."""
        tally = _rt.tally
        if tally is not None:
            tally.fp_mul += 2
        a = self.spec.xi_a
        return Fp2(self.spec, self.c0 * a - self.c1, self.c0 + self.c1 * a)

    def is_zero(self) -> bool:
        """Whether this is the additive identity."""
        return self.c0 == 0 and self.c1 == 0

    def is_square(self) -> bool:
        """Quadratic-residue test in Fp2 via the norm map to Fp."""
        if self.is_zero():
            return True
        p = self.spec.p
        norm = (self.c0 * self.c0 + self.c1 * self.c1) % p
        return legendre_symbol(norm, p) == 1

    def sqrt(self) -> "Fp2":
        """Square root in Fp2 (complex method; raises for non-residues)."""
        if self.is_zero():
            return Fp2(self.spec, 0)
        p = self.spec.p
        if self.c1 == 0:
            if legendre_symbol(self.c0, p) == 1:
                return Fp2(self.spec, sqrt_mod(self.c0, p), 0)
            # sqrt(c0) = sqrt(-c0) * sqrt(-1); -1 has no sqrt in Fp here
            # (p = 3 mod 4), so the root is purely imaginary.
            return Fp2(self.spec, 0, sqrt_mod((-self.c0) % p, p))
        norm = (self.c0 * self.c0 + self.c1 * self.c1) % p
        if legendre_symbol(norm, p) != 1:
            raise FieldError("element is not a square in Fp2")
        n = sqrt_mod(norm, p)
        inv2 = inverse_mod(2, p)
        a = ((self.c0 + n) * inv2) % p
        if legendre_symbol(a, p) != 1:
            a = ((self.c0 - n) * inv2) % p
        if legendre_symbol(a, p) != 1:
            raise FieldError("element is not a square in Fp2")
        x0 = sqrt_mod(a, p)
        x1 = (self.c1 * inverse_mod(2 * x0, p)) % p
        root = Fp2(self.spec, x0, x1)
        if root * root == self:
            return root
        raise FieldError("element is not a square in Fp2")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp2):
            return (
                self.spec == other.spec
                and self.c0 == other.c0
                and self.c1 == other.c1
            )
        if isinstance(other, int):
            return self.c1 == 0 and self.c0 == other % self.spec.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.spec.p, self.c0, self.c1))

    def __repr__(self) -> str:
        return f"Fp2({self.c0}, {self.c1})"


class Fp12:
    """An element of GF(p^12) as a degree-11 polynomial in w.

    The reduction rule is w^12 = c6 * w^6 + c0 with c6 = 2*xi_a and
    c0 = -(xi_a^2 + 1), which encodes w^6 = xi = xi_a + i.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Sequence[int]):
        if len(coeffs) != 12:
            raise FieldError("Fp12 elements need exactly 12 coefficients")
        p = spec.p
        self.spec = spec
        self.coeffs: Tuple[int, ...] = tuple(c % p for c in coeffs)

    def _check(self, other: "Fp12") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise FieldError("mixed-field arithmetic")

    def __add__(self, other: "Fp12") -> "Fp12":
        self._check(other)
        return Fp12(
            self.spec,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other: "Fp12") -> "Fp12":
        self._check(other)
        return Fp12(
            self.spec,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self) -> "Fp12":
        return Fp12(self.spec, [-a for a in self.coeffs])

    def __mul__(self, other: Union["Fp12", int]) -> "Fp12":
        tally = _rt.tally
        if isinstance(other, int):
            if tally is not None:
                tally.fp12_mul += 1
                tally.fp_mul += 12
            return Fp12(self.spec, [a * other for a in self.coeffs])
        self._check(other)
        p = self.spec.p
        a = self.coeffs
        b = other.coeffs
        # Schoolbook product, degree <= 22.
        prod = [0] * 23
        mults = 0
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
                    mults += 1
        # Reduce w^k for k >= 12 using w^12 = c6 w^6 + c0.
        c6 = self.spec.fp12_mod_c6
        c0 = self.spec.fp12_mod_c0
        for k in range(22, 11, -1):
            v = prod[k]
            if v == 0:
                continue
            prod[k] = 0
            prod[k - 6] += v * c6
            prod[k - 12] += v * c0
            mults += 2
        if tally is not None:
            tally.fp12_mul += 1
            tally.fp_mul += mults
        return Fp12(self.spec, [prod[k] % p for k in range(12)])

    __rmul__ = __mul__

    def square(self) -> "Fp12":
        """Dedicated squaring via the symmetric schoolbook product.

        Computes only the upper triangle of the coefficient product
        (78 base multiplications instead of 144 for a dense ``*``).
        """
        tally = _rt.tally
        p = self.spec.p
        a = self.coeffs
        prod = [0] * 23
        mults = 0
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            prod[2 * i] += ai * ai
            mults += 1
            twice = 2 * ai
            for j in range(i + 1, 12):
                aj = a[j]
                if aj:
                    prod[i + j] += twice * aj
                    mults += 1
        c6 = self.spec.fp12_mod_c6
        c0 = self.spec.fp12_mod_c0
        for k in range(22, 11, -1):
            v = prod[k]
            if v == 0:
                continue
            prod[k] = 0
            prod[k - 6] += v * c6
            prod[k - 12] += v * c0
            mults += 2
        if tally is not None:
            tally.fp12_sq += 1
            tally.fp_mul += mults
        return Fp12(self.spec, [prod[k] % p for k in range(12)])

    def mul_sparse(self, terms: Sequence[Tuple[int, "Fp2"]]) -> "Fp12":
        """Multiply by a sparse operand given as (w-power, Fp2) tower terms.

        ``terms`` lists the nonzero tower components of the other operand
        indexed by w-power (< 6); Miller-loop line values have only three
        (powers 0, 1, 3).  Cost is ``6 * len(terms)`` Fp2 multiplications
        instead of a dense 12x12 coefficient product.
        """
        tally = _rt.tally
        if tally is not None:
            tally.fp12_sparse_mul += 1
        spec = self.spec
        comps = self.tower_components()
        acc = [None] * 6
        for power, coeff in terms:
            if coeff.is_zero():
                continue
            for i, z in enumerate(comps):
                k = i + power
                term = z * coeff
                if k >= 6:
                    k -= 6
                    term = term.mul_by_xi()
                acc[k] = term if acc[k] is None else acc[k] + term
        zero = Fp2(spec, 0)
        return Fp12.from_tower_components(
            spec, [zero if z is None else z for z in acc]
        )

    def cyclotomic_square(self) -> "Fp12":
        """Granger-Scott squaring, valid only in the cyclotomic subgroup.

        For f with f^(p^6+1) in the order-(p^4-p^2+1) subgroup (every
        output of the final exponentiation's easy part, hence all of GT),
        squaring collapses to three Fp4 squarings over the tower
        components.  Roughly a third of the base multiplications of
        :meth:`square`; garbage outside the cyclotomic subgroup.
        """
        tally = _rt.tally
        if tally is not None:
            tally.fp12_cyclo_sq += 1
        g = self.tower_components()
        a0, a1 = _fp4_square(g[0], g[3])
        b0, b1 = _fp4_square(g[1], g[4])
        c0, c1 = _fp4_square(g[2], g[5])

        def plus(three, two):
            # 3*three + 2*two via additions only.
            t = three + two
            return t + t + three

        def minus(three, two):
            # 3*three - 2*two via additions only.
            t = three - two
            return t + t + three

        return Fp12.from_tower_components(
            self.spec,
            [
                minus(a0, g[0]),
                plus(c1.mul_by_xi(), g[1]),
                minus(b0, g[2]),
                plus(a1, g[3]),
                minus(c0, g[4]),
                plus(b1, g[5]),
            ],
        )

    def __truediv__(self, other: Union["Fp12", int]) -> "Fp12":
        if isinstance(other, int):
            inv = self.spec.backend.invmod(other, self.spec.p)
            return Fp12(self.spec, [a * inv for a in self.coeffs])
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "Fp12":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.spec.fp12_one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base.square()
            e >>= 1
        return result

    def inverse(self) -> "Fp12":
        """Inverse via the extended Euclidean algorithm on polynomials."""
        tally = _rt.tally
        if tally is not None:
            tally.fp12_inv += 1
        p = self.spec.p
        # Modulus polynomial m(w) = w^12 - c6 w^6 - c0.
        modulus = [(-self.spec.fp12_mod_c0) % p, 0, 0, 0, 0, 0,
                   (-self.spec.fp12_mod_c6) % p, 0, 0, 0, 0, 0, 1]
        lm, hm = [1] + [0] * 12, [0] * 13
        low = list(self.coeffs) + [0]
        high = list(modulus)
        if all(c == 0 for c in self.coeffs):
            raise FieldError("inversion of zero in Fp12")

        def deg(poly):
            for d in range(len(poly) - 1, -1, -1):
                if poly[d]:
                    return d
            return 0

        while deg(low):
            r = _poly_rounded_div(high, low, p)
            r += [0] * (len(high) - len(r))
            nm = list(hm)
            new = list(high)
            for i in range(13):
                for j in range(13 - i):
                    nm[i + j] = (nm[i + j] - lm[i] * r[j]) % p
                    new[i + j] = (new[i + j] - low[i] * r[j]) % p
            lm, low, hm, high = nm, new, lm, low
        inv_lead = self.spec.backend.invmod(low[0], p)
        return Fp12(self.spec, [(c * inv_lead) % p for c in lm[:12]])

    def conjugate(self) -> "Fp12":
        """Conjugation by the order-2 Frobenius w -> -w (negate odd terms)."""
        return Fp12(
            self.spec,
            [c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)],
        )

    def tower_components(self) -> Tuple["Fp2", ...]:
        """View as sum_{i<6} z_i * w^i with z_i in Fp2 = Fp[i].

        Uses w^6 = xi = xi_a + i: the coefficient pair (c_i, c_{i+6})
        represents z_i = c_i + c_{i+6}*xi = (c_i + xi_a*c_{i+6}) + c_{i+6}*i.
        """
        tally = _rt.tally
        if tally is not None:
            tally.fp_mul += 6
        spec = self.spec
        return tuple(
            Fp2(
                spec,
                self.coeffs[i] + spec.xi_a * self.coeffs[i + 6],
                self.coeffs[i + 6],
            )
            for i in range(6)
        )

    @classmethod
    def from_tower_components(
        cls, spec: FieldSpec, components: Sequence["Fp2"]
    ) -> "Fp12":
        """Inverse of :meth:`tower_components`."""
        if len(components) != 6:
            raise FieldError("need exactly 6 Fp2 tower components")
        tally = _rt.tally
        if tally is not None:
            tally.fp_mul += 6
        coeffs = [0] * 12
        for i, z in enumerate(components):
            # z = z0 + z1*i and w^6 = xi_a + i  =>  pair is
            # (z0 - xi_a*z1, z1) at positions (i, i+6).
            coeffs[i] = (z.c0 - spec.xi_a * z.c1) % spec.p
            coeffs[i + 6] = z.c1
        return cls(spec, coeffs)

    def is_one(self) -> bool:
        """Whether this is the multiplicative identity."""
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_zero(self) -> bool:
        """Whether this is the additive identity."""
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp12):
            return self.spec == other.spec and self.coeffs == other.coeffs
        if isinstance(other, int):
            return (
                self.coeffs[0] == other % self.spec.p
                and all(c == 0 for c in self.coeffs[1:])
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.spec.p, self.coeffs))

    def __repr__(self) -> str:
        return f"Fp12({list(self.coeffs)})"


def _fp4_square(a: "Fp2", b: "Fp2") -> Tuple["Fp2", "Fp2"]:
    """Squaring in Fp4 = Fp2[V]/(V^2 - xi): (a + bV)^2 as (re, im).

    Returns (a^2 + xi b^2, 2ab) using three Fp2 squarings (the cross term
    via (a+b)^2 - a^2 - b^2).
    """
    a2 = a.square()
    b2 = b.square()
    return a2 + b2.mul_by_xi(), (a + b).square() - a2 - b2


def _poly_rounded_div(a: Sequence[int], b: Sequence[int], p: int):
    """Polynomial division helper used by Fp12 inversion (py_ecc style)."""
    dega = _degree(a)
    degb = _degree(b)
    temp = list(a)
    out = [0] * len(a)
    inv_lead = inverse_mod(b[degb], p)
    for i in range(dega - degb, -1, -1):
        out[i] = (out[i] + temp[degb + i] * inv_lead) % p
        for c in range(degb + 1):
            temp[c + i] = (temp[c + i] - out[i] * b[c]) % p
    return out[: _degree(out) + 1]


def _degree(poly: Sequence[int]) -> int:
    d = len(poly) - 1
    while d > 0 and poly[d] == 0:
        d -= 1
    return d
