"""GLV/GLS endomorphism-accelerated scalar multiplication for BN curves.

BN curves have j-invariant 0, so G1 carries the efficient endomorphism

    phi(x, y) = (beta * x, y),        beta^3 = 1 in Fp,

which acts on the prime-order subgroup as multiplication by a cube root of
unity lambda mod n.  A scalar k is lattice-reduced into (k1, k2) with
|k1|, |k2| ~ sqrt(n) and k = k1 + k2 * lambda (mod n), and k*P is evaluated
as the 2-way interleaved wNAF multi-scalar product k1*P + k2*phi(P) —
halving the doubling count of a plain ladder.

On the sextic twist, the Frobenius map expressed in twist coordinates
(psi = twist_frobenius, eigenvalue mu = p mod n on G2) satisfies the
cyclotomic relation psi^4 - psi^2 + 1 = 0, giving a 4-way GLS
decomposition with |k_i| ~ n^(1/4) where the lattice basis reduces well;
a 2-way (n, mu) Euclid basis is the fallback.  G2 decomposition is only
valid for points in the order-n subgroup, so callers must opt in
explicitly (see ``PairingContext.g2_mul(..., in_subgroup=True)``).

Everything here is value-identical to ``point * scalar`` for subgroup
points: the decompositions are verified at setup time against the curve
generators, and the MSM reuses the exact Jacobian formulas from
:mod:`repro.pairing.curve` so op counts stay deterministic.  Under the
``native`` backend the MSM column walk runs inside the compiled kernel
(:meth:`PairingKernel.g1_msm` / ``g2_msm``) with bit-identical results and
op-count identity versus this reference path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import List, Optional, Sequence, Tuple

from repro.obs import runtime as _rt
from repro.obs.registry import get_registry
from repro.pairing.bn import BNCurve
from repro.pairing.curve import (
    CurvePoint,
    _field_one,
    _jacobian_add,
    _jacobian_double,
    _jacobian_to_affine,
    _wnaf_digits,
)
from repro.pairing.fields import Fp, Fp2
from repro.pairing.numbers import sqrt_mod

#: scalars below this stay on the generic path: the decomposition and the
#: second odd-multiples table are not worth it for short scalars (and the
#: Babai step degenerates to (k, 0) there anyway).
GLV_MIN_BITS = 32

#: wNAF window of the interleaved MSM; matches ``_wnaf_scalar_mult`` so the
#: single-point MSM degenerates to exactly the existing wNAF ladder.
MSM_WINDOW = 5

#: largest point count a single kernel MSM call accepts (mirrors the C side).
MSM_KERNEL_MAX_POINTS = 1024


@dataclass(frozen=True)
class GLVParams:
    """Verified endomorphism/lattice data for one (p, n) BN curve."""

    p: int
    n: int
    # -- G1: phi(x, y) = (beta*x, y) acts as *lambda on the subgroup --
    beta: int
    lam: int
    v1: Tuple[int, int]  # short basis of {(a, b) : a + b*lam = 0 mod n}
    v2: Tuple[int, int]
    det: int
    # -- G2: psi = twist_frobenius acts as *mu on the order-n subgroup --
    mu: Optional[int]
    v1_g2: Optional[Tuple[int, int]]
    v2_g2: Optional[Tuple[int, int]]
    det_g2: Optional[int]
    # 4-way GLS basis (rows of a reduced lattice basis) + first row of the
    # inverse matrix as exact fractions, when the reduction is good enough.
    basis4: Optional[Tuple[Tuple[int, int, int, int], ...]]
    binv_row0: Optional[Tuple[Tuple[int, int], ...]]  # (numerator, denominator)


_PARAMS_CACHE: dict = {}
_PARAMS_LOCK = threading.Lock()


class _suppress_tally:
    """Temporarily disable the fp-op tally (setup-time arithmetic only)."""

    def __enter__(self):
        self._saved = _rt.tally
        _rt.tally = None
        return self

    def __exit__(self, exc_type, exc, tb):
        _rt.tally = self._saved


def _nearest(num: int, den: int) -> int:
    """round(num / den) with exact integer arithmetic (half rounds up)."""
    if den < 0:
        num, den = -num, -den
    return (2 * num + den) // (2 * den)


def _euclid_basis(n: int, lam: int):
    """Two short independent vectors (a, b) with a + b*lam = 0 (mod n).

    The classic GLV construction: run the extended Euclid algorithm on
    (n, lam) and stop at the first remainder below sqrt(n); consecutive
    remainder/cofactor pairs give lattice vectors of norm ~ sqrt(n)
    (Gallant-Lambert-Vanstone, via GECC Alg. 3.74).
    """
    r0, t0 = n, 0
    r1, t1 = lam % n, 1
    stop = isqrt(n)
    while r1 > stop:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    v1 = (r1, -t1)
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    cand_a = (r0, -t0)
    cand_b = (r2, -t2)
    v2 = min(cand_a, cand_b, key=lambda v: v[0] * v[0] + v[1] * v[1])
    det = v1[0] * v2[1] - v2[0] * v1[1]
    for a, b in (v1, v2):
        if (a + b * lam) % n != 0:  # pragma: no cover - construction invariant
            raise ArithmeticError("GLV basis vector not in the lattice")
    if det == 0:  # pragma: no cover - independent by construction
        raise ArithmeticError("degenerate GLV basis")
    return v1, v2, det


def _decompose_dim2(k: int, v1, v2, det: int) -> Tuple[int, int]:
    """Babai round-off of (k, 0) against the 2D basis: k = k1 + k2*lam mod n."""
    a1, b1 = v1
    a2, b2 = v2
    c1 = _nearest(b2 * k, det)
    c2 = _nearest(-b1 * k, det)
    k1 = k - c1 * a1 - c2 * a2
    k2 = -(c1 * b1 + c2 * b2)
    return k1, k2


def decompose2(params: GLVParams, k: int) -> Tuple[int, int]:
    """Split k into (k1, k2) with k = k1 + k2*lambda (mod n), |ki| ~ sqrt(n)."""
    return _decompose_dim2(k, params.v1, params.v2, params.det)


def decompose2_g2(params: GLVParams, k: int) -> Tuple[int, int]:
    """Split k against the G2 eigenvalue mu: k = k1 + k2*mu (mod n)."""
    return _decompose_dim2(k, params.v1_g2, params.v2_g2, params.det_g2)


def decompose4(params: GLVParams, k: int) -> Optional[Tuple[int, int, int, int]]:
    """4-way GLS split: k = sum k_i * mu^i (mod n) with |k_i| ~ n^(1/4).

    Returns None when the 4D basis was rejected at setup (callers fall back
    to :func:`decompose2_g2`).  The recombination identity is re-checked on
    every call — it is a few modular integer ops — so a bad split can never
    silently corrupt a scalar multiplication.
    """
    if params.basis4 is None or params.binv_row0 is None:
        return None
    target = (k, 0, 0, 0)
    coeffs = [_nearest(k * num, den) for num, den in params.binv_row0]
    kvec = list(target)
    for c, row in zip(coeffs, params.basis4):
        for i in range(4):
            kvec[i] -= c * row[i]
    n, mu = params.n, params.mu
    acc, power = 0, 1
    for ki in kvec:
        acc = (acc + ki * power) % n
        power = (power * mu) % n
    if acc != k % n:  # pragma: no cover - defensive; verified at setup
        return None
    return tuple(kvec)  # type: ignore[return-value]


# -- lattice reduction (setup-time only) --------------------------------------


def _lll(rows: List[List[int]], delta: Fraction = Fraction(3, 4)) -> List[List[int]]:
    """Textbook LLL over exact rationals; fine for tiny (4x4) bases."""
    basis = [list(map(int, row)) for row in rows]
    m = len(basis)

    def gram_schmidt():
        ortho: List[List[Fraction]] = []
        coeffs: List[List[Fraction]] = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            vec = [Fraction(x) for x in basis[i]]
            for j in range(i):
                denom = sum(x * x for x in ortho[j])
                mu_ij = (
                    Fraction(0)
                    if denom == 0
                    else sum(Fraction(basis[i][k]) * ortho[j][k] for k in range(len(vec))) / denom
                )
                coeffs[i][j] = mu_ij
                vec = [v - mu_ij * o for v, o in zip(vec, ortho[j])]
            ortho.append(vec)
        return ortho, coeffs

    ortho, mu = gram_schmidt()
    i = 1
    while i < m:
        for j in range(i - 1, -1, -1):
            if abs(mu[i][j]) > Fraction(1, 2):
                r = _nearest(mu[i][j].numerator, mu[i][j].denominator)
                basis[i] = [a - r * b for a, b in zip(basis[i], basis[j])]
                ortho, mu = gram_schmidt()
        norm_prev = sum(x * x for x in ortho[i - 1])
        norm_here = sum(x * x for x in ortho[i])
        if norm_here >= (delta - mu[i][i - 1] ** 2) * norm_prev:
            i += 1
        else:
            basis[i], basis[i - 1] = basis[i - 1], basis[i]
            ortho, mu = gram_schmidt()
            i = max(i - 1, 1)
    return basis


def _invert_rows(rows) -> Optional[List[List[Fraction]]]:
    """Exact inverse of a small integer matrix (None when singular)."""
    m = len(rows)
    aug = [
        [Fraction(rows[i][j]) for j in range(m)]
        + [Fraction(1 if i == j else 0) for j in range(m)]
        for i in range(m)
    ]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


# -- parameter derivation -----------------------------------------------------


def _cube_roots_of_unity(modulus: int) -> List[int]:
    """The two primitive cube roots of unity mod a prime = 1 (mod 3)."""
    root = sqrt_mod((-3) % modulus, modulus)
    inv2 = pow(2, -1, modulus)
    out = []
    for sign in (1, -1):
        w = ((-1 + sign * root) * inv2) % modulus
        if (w * w + w + 1) % modulus == 0:
            out.append(w)
    return out


def _derive_params(curve: BNCurve) -> Optional[GLVParams]:
    p, n = curve.p, curve.n
    if p % 3 != 1 or n % 3 != 1:  # pragma: no cover - impossible for BN
        return None
    try:
        betas = _cube_roots_of_unity(p)
        lams = _cube_roots_of_unity(n)
    except Exception:  # pragma: no cover - sqrt of -3 exists for p=1 mod 3
        return None
    if not betas or not lams:  # pragma: no cover
        return None

    spec = curve.spec
    g1 = curve.g1
    match = None
    with _suppress_tally():
        for beta in betas:
            phi_g1 = curve.g1_curve.unsafe_point(
                spec.fp((int(g1.x.value) * beta) % p), g1.y
            )
            for lam in lams:
                if g1 * lam == phi_g1:
                    match = (beta, lam)
                    break
            if match:
                break
    if match is None:  # pragma: no cover - one pairing always matches
        return None
    beta, lam = match
    v1, v2, det = _euclid_basis(n, lam)

    # -- G2 / GLS: psi eigenvalue and lattices ------------------------------
    from repro.pairing.pairing import twist_frobenius

    mu = p % n
    g2_ok = (pow(mu, 4, n) - pow(mu, 2, n) + 1) % n == 0
    if g2_ok:
        with _suppress_tally():
            g2_ok = twist_frobenius(curve, curve.g2) == curve.g2 * mu
    v1_g2 = v2_g2 = det_g2 = basis4 = binv_row0 = None
    if g2_ok:
        v1_g2, v2_g2, det_g2 = _euclid_basis(n, mu)
        basis4, binv_row0 = _derive_basis4(n, mu)

    return GLVParams(
        p=p,
        n=n,
        beta=beta,
        lam=lam,
        v1=v1,
        v2=v2,
        det=det,
        mu=mu if g2_ok else None,
        v1_g2=v1_g2,
        v2_g2=v2_g2,
        det_g2=det_g2,
        basis4=basis4,
        binv_row0=binv_row0,
    )


def _derive_basis4(n: int, mu: int):
    """LLL-reduce the degree-4 GLS lattice; reject weak reductions."""
    rows = [
        [n, 0, 0, 0],
        [-mu, 1, 0, 0],
        [0, -mu, 1, 0],
        [0, 0, -mu, 1],
    ]
    reduced = _lll(rows)
    # Every row must stay in the lattice: sum_j row[j] * mu^j = 0 (mod n).
    for row in reduced:
        acc, power = 0, 1
        for entry in row:
            acc = (acc + entry * power) % n
            power = (power * mu) % n
        if acc != 0:  # pragma: no cover - LLL preserves the lattice
            return None, None
    # Entries should be ~ n^(1/4); reject anything that would not actually
    # shorten the scalars (then the 2-way split is strictly better).
    bound_bits = (n.bit_length() + 3) // 4 + 8
    if any(abs(e).bit_length() > bound_bits for row in reduced for e in row):
        return None, None
    inverse = _invert_rows(reduced)
    if inverse is None:  # pragma: no cover - basis rows are independent
        return None, None
    row0 = tuple(
        (inverse[0][j].numerator, inverse[0][j].denominator) for j in range(4)
    )
    return tuple(tuple(row) for row in reduced), row0


def glv_params(curve: BNCurve) -> Optional[GLVParams]:
    """Verified GLV/GLS parameters for ``curve`` (cached per (p, n))."""
    key = (curve.p, curve.n)
    params = _PARAMS_CACHE.get(key)
    if params is not None or key in _PARAMS_CACHE:
        return params
    with _PARAMS_LOCK:
        if key not in _PARAMS_CACHE:
            _PARAMS_CACHE[key] = _derive_params(curve)
    return _PARAMS_CACHE[key]


# -- interleaved multi-scalar multiplication ----------------------------------


def _build_odds_table(pt: CurvePoint):
    """Odd multiples P, 3P, ..., 15P in Jacobian form (as _wnaf_scalar_mult)."""
    base = (pt.x, pt.y, _field_one(pt.x))
    double_base = _jacobian_double(base)
    odds = [base]
    for _ in range((1 << (MSM_WINDOW - 2)) - 1):
        previous = odds[-1]
        if previous is None:
            odds.append(double_base)
        elif double_base is None:
            odds.append(previous)
        else:
            odds.append(_jacobian_add(previous, double_base))
    return odds


def _derive_table_g1(table, beta_fp):
    """The odds table of phi(P) from P's table: phi is X -> beta*X, even in
    Jacobian coordinates (x = X/Z^2 scales the same way).  One fp_mul per
    entry versus a full rebuild."""
    return [
        None if entry is None else (entry[0] * beta_fp, entry[1], entry[2])
        for entry in table
    ]


def _derive_table_g2(curve: BNCurve, table):
    """The odds table of psi(Q) from Q's table.

    psi(x, y) = (conj(x)*gamma2, conj(y)*gamma3) extends to Jacobian
    coordinates as (conj(X)*gamma2, conj(Y)*gamma3, conj(Z)): conjugation
    is a ring automorphism, so X/Z^2 maps to conj(X/Z^2) and the gamma
    factors land exactly as in the affine map.  Two fp2_mul per entry
    versus a full table rebuild.
    """
    gamma2, gamma3 = curve.frob_gamma2, curve.frob_gamma3
    return [
        None
        if entry is None
        else (
            entry[0].conjugate() * gamma2,
            entry[1].conjugate() * gamma3,
            entry[2].conjugate(),
        )
        for entry in table
    ]


def _msm_loop(tables, digit_lists, ndigits):
    """Shared-doubling interleaved wNAF column walk over Jacobian triples.

    Per point this is exactly the digit walk of ``_wnaf_scalar_mult`` —
    including the None (infinity) propagation for small-order points — but
    all points share one doubling chain, which is where the GLV saving
    comes from.
    """
    result = None  # Jacobian infinity
    for col in range(ndigits - 1, -1, -1):
        result = _jacobian_double(result)
        for i, digits in enumerate(digit_lists):
            if col >= len(digits):
                continue
            digit = digits[col]
            if not digit:
                continue
            entry = tables[i][(abs(digit) - 1) // 2]
            if entry is None:
                continue
            if digit < 0:
                entry = (entry[0], -entry[1], entry[2])
            result = entry if result is None else _jacobian_add(result, entry)
    return result


def _signed_wnaf_digits(k: int):
    """wNAF digits of a possibly-negative scalar (digitwise negation)."""
    if k < 0:
        return [-d for d in _wnaf_digits(-k, MSM_WINDOW)]
    return _wnaf_digits(k, MSM_WINDOW)


def msm(
    curve: BNCurve,
    group_curve,
    pairs: Sequence[Tuple[CurvePoint, int]],
) -> CurvePoint:
    """sum_i k_i * P_i with one shared doubling chain (kernel when available).

    Scalars may be any integers (negatives flip the point, zeros and
    infinities drop out); the result is an ordinary affine point, identical
    to folding ``point * scalar`` sums by hand.
    """
    prepared = []
    for pt, k in pairs:
        if not isinstance(k, int):
            raise TypeError(f"MSM scalar must be int, got {type(k).__name__}")
        if k == 0 or pt.is_infinity():
            continue
        if k < 0:
            pt, k = -pt, -k
        prepared.append((pt, k))
    if not prepared:
        return group_curve.infinity()
    digit_lists = [_wnaf_digits(k, MSM_WINDOW) for _, k in prepared]
    ndigits = max(len(d) for d in digit_lists)
    jac = _msm_dispatch(
        curve, [pt for pt, _ in prepared], digit_lists, ndigits, endo=False
    )
    return _jacobian_to_affine(group_curve, jac)


def _msm_dispatch(curve: BNCurve, points, digit_lists, ndigits, *, endo: bool):
    """Run the MSM core in the compiled kernel when available, else here.

    ``endo=True`` means points[i] = endo^i(points[0]) (phi powers on G1,
    psi powers on G2): only the first odds table is built from scratch and
    the rest are derived by the endomorphism map, on both paths, so kernel
    and reference tally identical op counts.
    """
    kernel = curve.spec.backend.pairing_kernel(curve)
    if kernel is not None and len(points) <= MSM_KERNEL_MAX_POINTS:
        sample = points[0].x
        if isinstance(sample, Fp):
            supported, jac = kernel.g1_msm(points, digit_lists, ndigits, endo=endo)
        elif isinstance(sample, Fp2):
            supported, jac = kernel.g2_msm(points, digit_lists, ndigits, endo=endo)
        else:  # pragma: no cover - Fp12 embeddings never come through here
            supported = False
            jac = None
        if supported:
            return jac
    if endo:
        tables = [_build_odds_table(points[0])]
        g2 = isinstance(points[0].x, Fp2)
        params = glv_params(curve)
        for _ in range(1, len(points)):
            if g2:
                tables.append(_derive_table_g2(curve, tables[-1]))
            else:
                tables.append(
                    _derive_table_g1(tables[-1], curve.spec.fp(params.beta))
                )
    else:
        tables = [_build_odds_table(pt) for pt in points]
    return _msm_loop(tables, digit_lists, ndigits)


def glv_mul(curve: BNCurve, point: CurvePoint, scalar: int) -> CurvePoint:
    """k*P on G1 via the 2-way GLV split (P must lie in the order-n group).

    G1 has cofactor 1, so every on-curve point qualifies.  The scalar is
    reduced mod n (valid precisely because the point has order dividing n —
    callers needing unreduced semantics use ``point * scalar``).
    """
    params = glv_params(curve)
    k = scalar % curve.n
    if k == 0 or point.is_infinity():
        return point.curve.infinity()
    if params is None:
        return point * k
    tally = _rt.tally
    if tally is not None:
        tally.point_mul += 1
    k1, k2 = decompose2(params, k)
    return _endo_msm(curve, point, (k1, k2))


def glv_mul_g2(curve: BNCurve, point: CurvePoint, scalar: int) -> CurvePoint:
    """k*Q on G2 via the psi (GLS) split — Q MUST be in the order-n subgroup.

    Callers are responsible for the subgroup guarantee (trusted points such
    as Q_ID / D_ID / hash outputs); the context API enforces this with an
    explicit ``in_subgroup=True`` opt-in.
    """
    params = glv_params(curve)
    k = scalar % curve.n
    if k == 0 or point.is_infinity():
        return point.curve.infinity()
    if params is None or params.mu is None:
        return point * k
    tally = _rt.tally
    if tally is not None:
        tally.point_mul += 1
    split4 = decompose4(params, k)
    if split4 is None:
        split4 = decompose2_g2(params, k)
    return _endo_msm(curve, point, split4)


def _endo_msm(curve: BNCurve, point: CurvePoint, scalars) -> CurvePoint:
    """sum_i k_i * endo^i(P) with the endo tables derived, not rebuilt.

    Negative sub-scalars are handled by negating their wNAF digits (the
    digitwise-negation identity), so every derived table stays an exact
    endomorphism image of the first and the sharing trick applies to all
    sign patterns.  Trailing zero sub-scalars are trimmed — a derived table
    costs little, but a trimmed point costs nothing.
    """
    scalars = list(scalars)
    while scalars and scalars[-1] == 0:
        scalars.pop()
    if not scalars:
        return point.curve.infinity()
    digit_lists = [_signed_wnaf_digits(k) for k in scalars]
    ndigits = max(len(d) for d in digit_lists)
    points = [point] * len(scalars)  # only points[0] is read when endo=True
    jac = _msm_dispatch(curve, points, digit_lists, ndigits, endo=True)
    return _jacobian_to_affine(point.curve, jac)


def try_mul(
    curve: BNCurve, point: CurvePoint, scalar, *, g2: bool = False
) -> Optional[CurvePoint]:
    """GLV-route a context scalar multiplication when it is safe and worth it.

    Returns None (caller falls back to ``point * scalar``) unless the scalar
    is an int in (0, n) of at least GLV_MIN_BITS bits and the point's
    coordinate field matches the requested group.  The (0, n) bound means
    no reduction happens here, so unreduced-scalar call sites (order and
    membership checks) are untouched by construction.
    """
    if not isinstance(scalar, int):
        return None
    if scalar <= 0 or scalar >= curve.n or scalar.bit_length() < GLV_MIN_BITS:
        return None
    if point.is_infinity():
        return None
    params = glv_params(curve)
    if params is None:
        return None
    if g2:
        if params.mu is None or not isinstance(point.x, Fp2):
            return None
        result = glv_mul_g2(curve, point, scalar)
    else:
        if not isinstance(point.x, Fp):
            return None
        result = glv_mul(curve, point, scalar)
    get_registry().counter("glv.fast_mults").inc()
    return result
