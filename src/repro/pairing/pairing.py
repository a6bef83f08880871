"""The optimal-ate pairing e: G1 x G2 -> GT on BN curves, optimised.

The Miller loop runs over the twist E'(Fp2) in homogeneous projective
coordinates, so the per-doubling Fp2 inversion of the affine slope never
happens; line values are kept sparse (three Fp2 tower coefficients) and
folded into the accumulator with :meth:`Fp12.mul_sparse`, and the
accumulator squaring uses the dedicated :meth:`Fp12.square`.  After the
loop, the two Frobenius correction steps standard for BN optimal-ate are
applied, followed by the final exponentiation by (p^12 - 1)/n whose hard
part is the Devegili-Scott-Dahab addition chain over Granger-Scott
cyclotomic squarings (conjugation is inversion there, so the chain is
inversion-free).

Public entry points are :func:`pairing` and :func:`multi_pairing` (a
product of Miller loops under ONE shared final exponentiation); neither
caches anything (caching of constant pairings is done by the scheme
layer, mirroring the paper's "e(P_pub, Q_ID) is a constant"
optimisation).  The pre-optimisation textbook path is retained in
:mod:`repro.pairing.naive` as ground truth and as the fallback for
degenerate (hostile-input) Miller steps.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import CurveError
from repro.obs import runtime as _rt
from repro.obs.registry import get_registry
from repro.pairing import naive as _naive
from repro.pairing.bn import BNCurve
from repro.pairing.curve import CurvePoint, _wnaf_digits
from repro.pairing.fields import Fp2, Fp12, FieldSpec

#: a sparse Miller line: ((w-power, Fp2 coefficient), ...) tower terms
SparseLine = Tuple[Tuple[int, Fp2], ...]


class _DegenerateMillerStep(Exception):
    """Raised when the projective loop hits a vertical/degenerate step.

    Only non-subgroup (hostile or malformed) twist points can trigger it;
    the caller falls back to the affine reference loop, which handles
    verticals explicitly, so external behaviour matches the textbook path.
    """


def twist_frobenius(curve: BNCurve, q: CurvePoint) -> CurvePoint:
    """The p-power Frobenius endomorphism expressed on twist coordinates."""
    if q.is_infinity():
        return q
    x = q.x.conjugate() * curve.frob_gamma2
    y = q.y.conjugate() * curve.frob_gamma3
    return curve.g2_curve.unsafe_point(x, y)


def _double_step(
    spec: FieldSpec, x: Fp2, y: Fp2, z: Fp2, px: int, py: int
) -> Tuple[SparseLine, Fp2, Fp2, Fp2]:
    """One projective Miller doubling: tangent line at T and the point 2T.

    T = (x : y : z) is homogeneous on the twist.  The returned line is the
    affine tangent value scaled by the Fp2 factor 2*Y*Z^2 (erased later by
    the final exponentiation), with tower terms at w^0, w^1, w^3:

        l'(P) = 3X^2*Z*xP * w - (3X^3 - 2Y^2*Z) * w^3 - 2*Y*Z^2 * yP
    """
    if z.is_zero() or y.is_zero():
        raise _DegenerateMillerStep("doubling a point at infinity/2-torsion")
    xx = x.square()
    w3 = xx + xx + xx  # 3X^2
    s = y * z
    ss = s.square()
    yy = y.square()
    bz = (x * yy) * z  # X*Y^2*Z
    h = w3.square() - bz * 8
    x3 = (h * s) * 2
    y3 = w3 * (bz * 4 - h) - (yy * ss) * 8
    z3 = (s * ss) * 8
    line: SparseLine = (
        (0, (s * z) * (-2 * py)),
        (1, (xx * z) * (3 * px)),
        (3, (yy * z) * 2 - w3 * x),
    )
    return line, x3, y3, z3


def _add_step(
    spec: FieldSpec,
    x: Fp2,
    y: Fp2,
    z: Fp2,
    x2: Fp2,
    y2: Fp2,
    px: int,
    py: int,
) -> Tuple[SparseLine, Fp2, Fp2, Fp2]:
    """One mixed Miller addition: chord through T and affine Q, plus T + Q.

    The line is the affine chord value scaled by the Fp2 denominator
    v = x2*Z - X (again erased by the final exponentiation):

        l'(P) = u*xP * w - (u*x2 - v*y2) * w^3 - v*yP,   u = y2*Z - Y
    """
    if z.is_zero():
        raise _DegenerateMillerStep("adding to the point at infinity")
    u = y2 * z - y
    v = x2 * z - x
    if v.is_zero():
        raise _DegenerateMillerStep("vertical chord in Miller addition")
    vv = v.square()
    vvv = vv * v
    r = vv * x
    a = u.square() * z - vvv - r - r
    x3 = v * a
    y3 = u * (r - a) - vvv * y
    z3 = vvv * z
    line: SparseLine = (
        (0, v * (-py)),
        (1, u * px),
        (3, v * y2 - u * x2),
    )
    return line, x3, y3, z3


def _sparse_to_fp12(spec: FieldSpec, line: SparseLine) -> Fp12:
    """Materialise a sparse line as a dense Fp12 element."""
    zero = Fp2(spec, 0)
    comps: List[Fp2] = [zero] * 6
    for power, coeff in line:
        comps[power] = comps[power] + coeff
    return Fp12.from_tower_components(spec, comps)


def _miller_loop_projective(
    curve: BNCurve, p_point: CurvePoint, q_point: CurvePoint
) -> Fp12:
    """Projective sparse Miller loop; raises on degenerate steps."""
    spec = curve.spec
    px, py = p_point.x.value, p_point.y.value
    x2, y2 = q_point.x, q_point.y
    x, y, z = x2, y2, spec.fp2(1)
    f: Optional[Fp12] = None
    sparse_mults = 0
    loop = curve.ate_loop_count
    for i in range(loop.bit_length() - 2, -1, -1):
        line, x, y, z = _double_step(spec, x, y, z, px, py)
        if f is None:
            f = _sparse_to_fp12(spec, line)
        else:
            f = f.square().mul_sparse(line)
            sparse_mults += 1
        if (loop >> i) & 1:
            line, x, y, z = _add_step(spec, x, y, z, x2, y2, px, py)
            f = f.mul_sparse(line)
            sparse_mults += 1

    q1 = twist_frobenius(curve, q_point)
    q2 = -twist_frobenius(curve, q1)
    if q1.is_infinity() or q2.is_infinity():
        raise _DegenerateMillerStep("degenerate Frobenius correction point")
    line, x, y, z = _add_step(spec, x, y, z, q1.x, q1.y, px, py)
    f = f.mul_sparse(line)
    line, _, _, _ = _add_step(spec, x, y, z, q2.x, q2.y, px, py)
    f = f.mul_sparse(line)
    sparse_mults += 2
    get_registry().counter("pairing.sparse_mults").inc(sparse_mults)
    return f


def miller_loop(curve: BNCurve, p_point: CurvePoint, q_point: CurvePoint) -> Fp12:
    """Raw Miller loop value f_{6t+2,Q}(P) including the two BN extra lines.

    Uses the projective sparse fast path; degenerate steps (possible only
    for non-subgroup inputs) fall back to the affine reference loop.  The
    raw value differs from the affine reference by an Fp2 subfield factor
    (the projective line scalings), which the final exponentiation erases.

    When the active field backend provides a compiled pairing kernel
    (``spec.backend.pairing_kernel(curve)``), the projective loop runs
    natively instead — bit-identical values and obs counts, including the
    degenerate-step fallback to the affine loop.
    """
    spec = curve.spec
    if p_point.is_infinity() or q_point.is_infinity():
        return spec.fp12_one()
    tally = _rt.tally
    if tally is not None:
        tally.miller_loops += 1
    kernel = spec.backend.pairing_kernel(curve)
    if kernel is not None:
        f = kernel.miller_loop(p_point, q_point)
        if f is not None:
            return f
        return _naive.miller_loop_naive(curve, p_point, q_point)
    try:
        return _miller_loop_projective(curve, p_point, q_point)
    except _DegenerateMillerStep:
        return _naive.miller_loop_naive(curve, p_point, q_point)


#: per-spec cache of Frobenius gamma tables {1: (...), 2: (...), 3: (...)}
_FROBENIUS_TABLES = {}


def _frobenius_tables(curve: BNCurve):
    """Cached gamma tables for the p, p^2 and p^3 Frobenius maps on Fp12.

    ``tables[1][i] = (w^(p-1))^i = xi^(i*(p-1)/6)`` drives the p-power map
    ``(sum z_i w^i)^p = sum conj(z_i) * gamma[i] * w^i``; the p^2 table is
    ``gamma[i] * conj(gamma[i])`` (real, so no coefficient conjugation) and
    the p^3 table their product.
    """
    cached = _FROBENIUS_TABLES.get(curve.spec)
    if cached is None:
        spec = curve.spec
        xi = spec.fp2(spec.xi_a, 1)
        base = xi ** ((curve.p - 1) // 6)
        g1 = [spec.fp2(1)]
        for _ in range(5):
            g1.append(g1[-1] * base)
        g2 = [g * g.conjugate() for g in g1]
        g3 = [a * b for a, b in zip(g2, g1)]
        cached = {1: tuple(g1), 2: tuple(g2), 3: tuple(g3)}
        _FROBENIUS_TABLES[curve.spec] = cached
    return cached


def fp12_frobenius(curve: BNCurve, value: Fp12, power: int = 1) -> Fp12:
    """The p^power Frobenius endomorphism of Fp12, O(1) field mults.

    Decomposes ``power mod 12`` as (optional conjugation for the p^6
    half-turn) plus at most two applications of the cached p/p^2/p^3 gamma
    tables, instead of iterating the coefficient map ``power`` times.
    """
    k = power % 12
    if k == 0:
        return value
    if k >= 6:
        # frob^6 is w -> -w, i.e. plain conjugation.
        value = value.conjugate()
        k -= 6
        if k == 0:
            return value
    tables = _frobenius_tables(curve)
    while k:
        step = 3 if k >= 3 else k
        table = tables[step]
        components = value.tower_components()
        if step % 2:
            mapped = [z.conjugate() * table[i] for i, z in enumerate(components)]
        else:
            mapped = [z * table[i] for i, z in enumerate(components)]
        value = Fp12.from_tower_components(curve.spec, mapped)
        k -= step
    return value


def cyclotomic_exp(value: Fp12, exponent: int) -> Fp12:
    """Exponentiation valid only in the cyclotomic subgroup of Fp12.

    Uses Granger-Scott squarings and a signed NAF digit expansion where
    negative digits multiply by the conjugate (which is the inverse in the
    cyclotomic subgroup), so the whole ladder is inversion-free.  Garbage
    for inputs outside the subgroup — callers guarantee membership.
    """
    if exponent == 0:
        return value.spec.fp12_one()
    if exponent < 0:
        value, exponent = value.conjugate(), -exponent
    conj = value.conjugate()
    digits = _wnaf_digits(exponent, 2)  # width-2 wNAF == NAF, digits in {0,+-1}
    result: Optional[Fp12] = None
    squares = 0
    for digit in reversed(digits):
        if result is not None:
            result = result.cyclotomic_square()
            squares += 1
        if digit == 1:
            result = value if result is None else result * value
        elif digit == -1:
            result = conj if result is None else result * conj
    get_registry().counter("pairing.cyclo_squares").inc(squares)
    return result


def final_exponentiation(curve: BNCurve, f: Fp12) -> Fp12:
    """Map a Miller-loop value into the order-n subgroup GT.

    Computed as f^((p^12-1)/n) split the standard way:

    * easy part  f <- conj(f) * f^(-1)  (= f^(p^6 - 1), since the p^6
      Frobenius is plain conjugation) then f <- frob^2(f) * f, and
    * hard part  f^((p^4 - p^2 + 1)/n) via the Devegili-Scott-Dahab BN
      addition chain: three f^t ladders (cyclotomic NAF), Frobenius maps,
      Granger-Scott squarings and conjugation-as-inversion.

    Equality with the naive single exponentiation is covered by tests.
    """
    tally = _rt.tally
    if tally is not None:
        tally.final_exps += 1
    kernel = curve.spec.backend.pairing_kernel(curve)
    if kernel is not None:
        return kernel.final_exp(f)
    # Easy part 1: f^(p^6 - 1) = conj(f) * f^(-1).
    f = f.conjugate() * f.inverse()
    # Easy part 2: f^(p^2 + 1) = frob^2(f) * f.
    f = fp12_frobenius(curve, f, 2) * f
    # Hard part: f is now in the cyclotomic subgroup, where conjugation
    # inverts and Granger-Scott squaring applies.  Chain valid for the
    # repo's curves (t > 0 is enforced at curve derivation).
    t = curve.t
    fp1 = fp12_frobenius(curve, f, 1)
    fp2 = fp12_frobenius(curve, f, 2)
    fp3 = fp12_frobenius(curve, fp2, 1)
    fu = cyclotomic_exp(f, t)
    fu2 = cyclotomic_exp(fu, t)
    fu3 = cyclotomic_exp(fu2, t)
    y0 = fp1 * fp2 * fp3
    y1 = f.conjugate()
    y2 = fp12_frobenius(curve, fu2, 2)
    y3 = fp12_frobenius(curve, fu, 1).conjugate()
    y4 = (fu * fp12_frobenius(curve, fu2, 1)).conjugate()
    y5 = fu2.conjugate()
    y6 = (fu3 * fp12_frobenius(curve, fu3, 1)).conjugate()
    t0 = y6.cyclotomic_square() * y4 * y5
    t1 = y3 * y5 * t0
    t0 = t0 * y2
    t1 = (t1.cyclotomic_square() * t0).cyclotomic_square()
    t0 = t1 * y1
    t1 = t1 * y0
    t0 = t0.cyclotomic_square()
    get_registry().counter("pairing.cyclo_squares").inc(4)
    return t0 * t1


def pairing(
    curve: BNCurve,
    p_point: CurvePoint,
    q_point: CurvePoint,
    check_membership: bool = False,
) -> Fp12:
    """The optimal-ate pairing e(P, Q) with P in G1, Q in G2.

    With ``check_membership=True`` both inputs are verified to lie in their
    prime-order subgroups first (slower; scheme code validates keys once at
    import time instead of on every pairing).
    """
    if check_membership:
        if not curve.in_g1(p_point):
            raise CurveError("first pairing argument is not in G1")
        if not curve.in_g2(q_point):
            raise CurveError("second pairing argument is not in G2")
    tally = _rt.tally
    if tally is not None:
        tally.pairings += 1
    registry = get_registry()
    with registry.phase("pairing.miller_loop"):
        f = miller_loop(curve, p_point, q_point)
    with registry.phase("pairing.final_exp"):
        return final_exponentiation(curve, f)


def multi_pairing(
    curve: BNCurve,
    pairs: Sequence[Tuple[CurvePoint, CurvePoint]],
    check_membership: bool = False,
) -> Fp12:
    """The product prod_i e(P_i, Q_i) under ONE shared final exponentiation.

    Multiplies the raw Miller-loop values together and exponentiates the
    product once, so k pairings cost k Miller loops + 1 final
    exponentiation instead of k of each.  Counts as ``len(pairs)``
    requested pairings in the obs tally (the Table 1 accounting is about
    pairing *relations*, not final exponentiations).
    """
    if check_membership:
        for p_point, q_point in pairs:
            if not curve.in_g1(p_point):
                raise CurveError("multi-pairing G1 argument is not in G1")
            if not curve.in_g2(q_point):
                raise CurveError("multi-pairing G2 argument is not in G2")
    if not pairs:
        return curve.spec.fp12_one()
    tally = _rt.tally
    if tally is not None:
        tally.pairings += len(pairs)
    registry = get_registry()
    registry.counter("pairing.multi_pairings").inc()
    f: Optional[Fp12] = None
    with registry.phase("pairing.miller_loop"):
        for p_point, q_point in pairs:
            m = miller_loop(curve, p_point, q_point)
            f = m if f is None else f * m
    with registry.phase("pairing.final_exp"):
        return final_exponentiation(curve, f)


def is_valid_codh_tuple(
    curve: BNCurve,
    base: CurvePoint,
    left_g1: CurvePoint,
    right_g2: CurvePoint,
    target_g2: CurvePoint,
) -> bool:
    """Check the co-Diffie-Hellman relation e(left, right) == e(base, target).

    This is the "valid Diffie-Hellman tuple" test the paper's CL-Verify
    performs: (P_pub, V*P - h*R, S/h, Q_ID) is valid iff
    e(V*P - h*R, S/h) == e(P_pub, Q_ID).  Evaluated as the single
    multi-pairing e(left, right) * e(-base, target) == 1, sharing one
    final exponentiation across both Miller loops.
    """
    pairs = [(left_g1, right_g2), (-base, target_g2)]
    return multi_pairing(curve, pairs).is_one()
