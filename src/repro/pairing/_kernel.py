"""Native-speed BN pairing kernel, compiled on demand with cffi.

The ``native`` field backend routes whole pairing *stages* - the
projective Miller loop and the final exponentiation - through a small C
library built at first use (API-mode cffi, a one-off ~1 s compile per
process).  Per-scalar native calls were measured slower than pure Python
(FFI overhead dominates a single 254-bit multiply), so the boundary sits
at the stage level: a pairing becomes two C calls instead of ~41k
interpreted base-field multiplications.

Design contract with the pure-Python tower:

* **Bit identity.**  The C code transliterates
  :func:`repro.pairing.pairing._miller_loop_projective`,
  :func:`~repro.pairing.pairing.final_exponentiation` and the field
  formulas of :mod:`repro.pairing.fields` operation for operation
  (internally in 4x64-limb Montgomery form with ``R = 2^256``; the
  constants come from :class:`_Montgomery` below), so raw Miller values
  and GT outputs are byte-identical to the reference backend - not
  merely equal as group elements.
* **Count identity.**  Every C helper bumps a counter block using the
  *same rules* as the Python tower methods (e.g. an Fp2 x Fp2 product is
  ``fp2_mul += 1, fp_mul += 3`` whatever the internal algorithm), and the
  dense Fp12 product replicates the zero-skip accounting via "touched"
  flags, so the obs tally is identical across backends.  Registry-level
  counters (``pairing.sparse_mults``, ``pairing.cyclo_squares``) are
  carried in dedicated slots and applied by the Python wrapper inside the
  same phase context the pure path uses.
* **Degenerate steps.**  The C Miller loop aborts with the partial
  counter block exactly where the Python projective loop would raise
  ``_DegenerateMillerStep``; the wrapper applies the partial counts and
  lets the caller fall back to the affine reference loop, matching pure
  semantics for hostile inputs.

The kernel is an optional accelerator: any import, compile or toolchain
failure degrades to ``None`` (pure Python) with a recorded reason, never
an exception.  Curves whose prime exceeds 254 bits or whose loop/NAF
constants exceed the fixed buffers simply get no kernel.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
import tempfile
from typing import Optional, Tuple

from repro.errors import FieldError
from repro.obs import runtime as _rt
from repro.obs.registry import get_registry

#: fixed limb count: every supported prime fits 4 x 64 bits
_NLIMBS = 4
_LIMB_BYTES = 32
_R_BITS = 64 * _NLIMBS

#: counter-block slots, mirroring repro.obs.runtime.FieldOpTally names
_TALLY_SLOTS = (
    "fp_mul",
    "fp_inv",
    "fp2_mul",
    "fp2_sq",
    "fp2_inv",
    "fp12_mul",
    "fp12_sq",
    "fp12_sparse_mul",
    "fp12_cyclo_sq",
    "fp12_inv",
)
_REG_SPARSE = 10
_REG_CYCLO = 11
_NCOUNTS = 12

_MAX_LOOP_BITS = 192
_MAX_NAF = 200

_CDEF = """
typedef unsigned long long u64;
typedef struct { u64 c[4]; } fp;
typedef struct { fp c0, c1; } fp2;
typedef struct {
    fp p; u64 np; fp r2;
    fp c6m, c0m; int c6_nz, c0_nz;
    fp xi_a;
    fp two, four, eight, three;
    fp2 g1t[6], g2t[6], g3t[6];
    fp2 twg2, twg3;
    int n_loop_bits; unsigned char loop_bits[192];
    int n_t_naf; signed char t_naf[200];
} bnctx;
int kern_miller(const bnctx *ctx, const u64 *px, const u64 *py,
                const u64 *qx, const u64 *qy, u64 *out, u64 *counts);
void kern_final_exp(const bnctx *ctx, const u64 *f_in, u64 *out,
                    u64 *counts);
int kern_g1_msm(const bnctx *ctx, int m, const u64 *xs, const u64 *ys,
                const signed char *digits, int ndigits, int endo,
                const u64 *endo_beta, u64 *out, u64 *counts);
int kern_g2_msm(const bnctx *ctx, int m, const u64 *xs, const u64 *ys,
                const signed char *digits, int ndigits, int endo,
                u64 *out, u64 *counts);
void kern_mont_mul_test(const bnctx *ctx, const u64 *a, const u64 *b,
                        u64 *out);
void kern_fp12_inv_test(const bnctx *ctx, const u64 *f_in, u64 *out);
"""

_CSOURCE = r"""
#include <stdlib.h>
#include <string.h>

typedef unsigned long long u64;
typedef __uint128_t u128;
typedef __int128_t i128;

typedef struct { u64 c[4]; } fp;
typedef struct { fp c0, c1; } fp2;
typedef struct {
    fp p; u64 np; fp r2;
    fp c6m, c0m; int c6_nz, c0_nz;
    fp xi_a;
    fp two, four, eight, three;
    fp2 g1t[6], g2t[6], g3t[6];
    fp2 twg2, twg3;
    int n_loop_bits; unsigned char loop_bits[192];
    int n_t_naf; signed char t_naf[200];
} bnctx;

/* counter slots (must match the Python wrapper) */
enum {
    FP_MUL, FP_INV, FP2_MUL, FP2_SQ, FP2_INV,
    FP12_MUL, FP12_SQ, FP12_SPARSE, FP12_CYCLO, FP12_INV,
    REG_SPARSE, REG_CYCLO, NCOUNTS
};

/* ---------------- base field (Montgomery form) ---------------- */

static int fp_is_zero(const fp *a) {
    return (a->c[0] | a->c[1] | a->c[2] | a->c[3]) == 0;
}

static int fp_geq(const u64 *a, const u64 *p) {
    for (int i = 3; i >= 0; i--) {
        if (a[i] > p[i]) return 1;
        if (a[i] < p[i]) return 0;
    }
    return 1;
}

static void fp_sub_p(u64 *r, const u64 *p) {
    i128 c = 0;
    for (int i = 0; i < 4; i++) {
        c += (i128)r[i] - p[i];
        r[i] = (u64)c;
        c >>= 64;
    }
}

static void fp_add(const bnctx *ctx, fp *o, const fp *a, const fp *b) {
    u64 r[4];
    u128 c = 0;
    for (int i = 0; i < 4; i++) {
        c += (u128)a->c[i] + b->c[i];
        r[i] = (u64)c;
        c >>= 64;
    }
    if (c || fp_geq(r, ctx->p.c)) fp_sub_p(r, ctx->p.c);
    memcpy(o->c, r, sizeof r);
}

static void fp_sub(const bnctx *ctx, fp *o, const fp *a, const fp *b) {
    u64 r[4];
    i128 c = 0;
    for (int i = 0; i < 4; i++) {
        c += (i128)a->c[i] - b->c[i];
        r[i] = (u64)c;
        c >>= 64;
    }
    if (c) { /* borrow: add p back */
        u128 k = 0;
        for (int i = 0; i < 4; i++) {
            k += (u128)r[i] + ctx->p.c[i];
            r[i] = (u64)k;
            k >>= 64;
        }
    }
    memcpy(o->c, r, sizeof r);
}

static void fp_neg(const bnctx *ctx, fp *o, const fp *a) {
    if (fp_is_zero(a)) { *o = *a; return; }
    u64 r[4];
    i128 c = 0;
    for (int i = 0; i < 4; i++) {
        c += (i128)ctx->p.c[i] - a->c[i];
        r[i] = (u64)c;
        c >>= 64;
    }
    memcpy(o->c, r, sizeof r);
}

/* CIOS Montgomery product: o = a * b * R^-1 mod p */
static void mont_mul(const bnctx *ctx, fp *o, const fp *a, const fp *b) {
    const u64 *P = ctx->p.c;
    const u64 NP = ctx->np;
    u64 t[6] = {0, 0, 0, 0, 0, 0};
    for (int i = 0; i < 4; i++) {
        u128 c = 0;
        u64 bi = b->c[i];
        for (int j = 0; j < 4; j++) {
            c = (u128)a->c[j] * bi + t[j] + (u64)c;
            t[j] = (u64)c;
            c >>= 64;
        }
        c = (u128)t[4] + (u64)c;
        t[4] = (u64)c;
        t[5] = (u64)(c >> 64);
        u64 m = t[0] * NP;
        c = (u128)m * P[0] + t[0];
        c >>= 64;
        for (int j = 1; j < 4; j++) {
            c = (u128)m * P[j] + t[j] + (u64)c;
            t[j - 1] = (u64)c;
            c >>= 64;
        }
        c = (u128)t[4] + (u64)c;
        t[3] = (u64)c;
        t[4] = t[5] + (u64)(c >> 64);
    }
    u64 r[4] = {t[0], t[1], t[2], t[3]};
    if (t[4] || fp_geq(r, P)) fp_sub_p(r, P);
    memcpy(o->c, r, sizeof r);
}

static void fp_to_mont(const bnctx *ctx, fp *o, const fp *a) {
    mont_mul(ctx, o, a, &ctx->r2);
}

static void fp_from_mont(const bnctx *ctx, fp *o, const fp *a) {
    fp one1 = {{1, 0, 0, 0}};
    mont_mul(ctx, o, a, &one1);
}

/* ---------------- Fp2 (counting mirrors fields.Fp2) ---------------- */

static int fp2_is_zero(const fp2 *a) {
    return fp_is_zero(&a->c0) && fp_is_zero(&a->c1);
}

static void fp2_add(const bnctx *ctx, fp2 *o, const fp2 *a, const fp2 *b) {
    fp_add(ctx, &o->c0, &a->c0, &b->c0);
    fp_add(ctx, &o->c1, &a->c1, &b->c1);
}

static void fp2_sub(const bnctx *ctx, fp2 *o, const fp2 *a, const fp2 *b) {
    fp_sub(ctx, &o->c0, &a->c0, &b->c0);
    fp_sub(ctx, &o->c1, &a->c1, &b->c1);
}

static void fp2_neg(const bnctx *ctx, fp2 *o, const fp2 *a) {
    fp_neg(ctx, &o->c0, &a->c0);
    fp_neg(ctx, &o->c1, &a->c1);
}

static void fp2_conj(const bnctx *ctx, fp2 *o, const fp2 *a) {
    o->c0 = a->c0;
    fp_neg(ctx, &o->c1, &a->c1);
}

/* Fp2 x Fp2: tally rule fp2_mul+1, fp_mul+3 (Python uses Karatsuba) */
static void fp2_mul(const bnctx *ctx, u64 *k, fp2 *o,
                    const fp2 *a, const fp2 *b) {
    k[FP2_MUL] += 1;
    k[FP_MUL] += 3;
    fp m0, m1, sa, sb, m2, t;
    mont_mul(ctx, &m0, &a->c0, &b->c0);
    mont_mul(ctx, &m1, &a->c1, &b->c1);
    fp_add(ctx, &sa, &a->c0, &a->c1);
    fp_add(ctx, &sb, &b->c0, &b->c1);
    mont_mul(ctx, &m2, &sa, &sb);
    fp_sub(ctx, &t, &m0, &m1);
    fp_sub(ctx, &m2, &m2, &m0);
    fp_sub(ctx, &o->c1, &m2, &m1);
    o->c0 = t;
}

/* Fp2 x scalar (Python's Fp2.__mul__(int)): fp2_mul+1, fp_mul+2 */
static void fp2_mul_fp(const bnctx *ctx, u64 *k, fp2 *o,
                       const fp2 *a, const fp *s) {
    k[FP2_MUL] += 1;
    k[FP_MUL] += 2;
    fp t0, t1;
    mont_mul(ctx, &t0, &a->c0, s);
    mont_mul(ctx, &t1, &a->c1, s);
    o->c0 = t0;
    o->c1 = t1;
}

/* Fp2 squaring: fp2_sq+1, fp_mul+2 */
static void fp2_sq(const bnctx *ctx, u64 *k, fp2 *o, const fp2 *a) {
    k[FP2_SQ] += 1;
    k[FP_MUL] += 2;
    fp s, d, t0, t1;
    fp_add(ctx, &s, &a->c0, &a->c1);
    fp_sub(ctx, &d, &a->c0, &a->c1);
    mont_mul(ctx, &t0, &s, &d);
    fp_add(ctx, &t1, &a->c1, &a->c1);
    mont_mul(ctx, &t1, &t1, &a->c0);
    o->c0 = t0;
    o->c1 = t1;
}

/* multiply by xi = xi_a + i: fp_mul+2 */
static void fp2_mul_xi(const bnctx *ctx, u64 *k, fp2 *o, const fp2 *a) {
    k[FP_MUL] += 2;
    fp t0, t1, r0, r1;
    mont_mul(ctx, &t0, &a->c0, &ctx->xi_a);
    mont_mul(ctx, &t1, &a->c1, &ctx->xi_a);
    fp_sub(ctx, &r0, &t0, &a->c1);
    fp_add(ctx, &r1, &a->c0, &t1);
    o->c0 = r0;
    o->c1 = r1;
}

/* ---------------- Fp12 (counting mirrors fields.Fp12) ---------------- */

typedef struct { fp c[12]; } fp12;

static void fp12_conj(const bnctx *ctx, fp12 *o, const fp12 *a) {
    for (int i = 0; i < 12; i++) {
        if (i % 2) fp_neg(ctx, &o->c[i], &a->c[i]);
        else o->c[i] = a->c[i];
    }
}

/* dense product with the Python zero-skip accounting: mults counts every
 * nonzero a_i*b_j pair plus 2 per reduced power whose unreduced Python
 * coefficient would be a nonzero integer ("touched"). */
static void fp12_mul(const bnctx *ctx, u64 *k, fp12 *o,
                     const fp12 *a, const fp12 *b) {
    fp prod[23];
    int touched[23];
    memset(prod, 0, sizeof prod);
    memset(touched, 0, sizeof touched);
    u64 mults = 0;
    int bz[12];
    for (int j = 0; j < 12; j++) bz[j] = fp_is_zero(&b->c[j]);
    for (int i = 0; i < 12; i++) {
        if (fp_is_zero(&a->c[i])) continue;
        for (int j = 0; j < 12; j++) {
            if (bz[j]) continue;
            fp t;
            mont_mul(ctx, &t, &a->c[i], &b->c[j]);
            fp_add(ctx, &prod[i + j], &prod[i + j], &t);
            touched[i + j] = 1;
            mults += 1;
        }
    }
    for (int kk = 22; kk >= 12; kk--) {
        if (!touched[kk]) continue;
        fp t;
        mont_mul(ctx, &t, &prod[kk], &ctx->c6m);
        fp_add(ctx, &prod[kk - 6], &prod[kk - 6], &t);
        if (ctx->c6_nz) touched[kk - 6] = 1;
        mont_mul(ctx, &t, &prod[kk], &ctx->c0m);
        fp_add(ctx, &prod[kk - 12], &prod[kk - 12], &t);
        if (ctx->c0_nz) touched[kk - 12] = 1;
        mults += 2;
    }
    k[FP12_MUL] += 1;
    k[FP_MUL] += mults;
    for (int i = 0; i < 12; i++) o->c[i] = prod[i];
}

/* dedicated squaring (upper-triangle schoolbook), same accounting */
static void fp12_sq(const bnctx *ctx, u64 *k, fp12 *o, const fp12 *a) {
    fp prod[23];
    int touched[23];
    memset(prod, 0, sizeof prod);
    memset(touched, 0, sizeof touched);
    u64 mults = 0;
    int az[12];
    for (int j = 0; j < 12; j++) az[j] = fp_is_zero(&a->c[j]);
    for (int i = 0; i < 12; i++) {
        if (az[i]) continue;
        fp t, twice;
        mont_mul(ctx, &t, &a->c[i], &a->c[i]);
        fp_add(ctx, &prod[2 * i], &prod[2 * i], &t);
        touched[2 * i] = 1;
        mults += 1;
        fp_add(ctx, &twice, &a->c[i], &a->c[i]);
        for (int j = i + 1; j < 12; j++) {
            if (az[j]) continue;
            mont_mul(ctx, &t, &twice, &a->c[j]);
            fp_add(ctx, &prod[i + j], &prod[i + j], &t);
            touched[i + j] = 1;
            mults += 1;
        }
    }
    for (int kk = 22; kk >= 12; kk--) {
        if (!touched[kk]) continue;
        fp t;
        mont_mul(ctx, &t, &prod[kk], &ctx->c6m);
        fp_add(ctx, &prod[kk - 6], &prod[kk - 6], &t);
        if (ctx->c6_nz) touched[kk - 6] = 1;
        mont_mul(ctx, &t, &prod[kk], &ctx->c0m);
        fp_add(ctx, &prod[kk - 12], &prod[kk - 12], &t);
        if (ctx->c0_nz) touched[kk - 12] = 1;
        mults += 2;
    }
    k[FP12_SQ] += 1;
    k[FP_MUL] += mults;
    for (int i = 0; i < 12; i++) o->c[i] = prod[i];
}

/* Fp12 -> 6 Fp2 tower components: fp_mul+6 */
static void fp12_to_tower(const bnctx *ctx, u64 *k, fp2 *z, const fp12 *a) {
    k[FP_MUL] += 6;
    for (int i = 0; i < 6; i++) {
        fp t;
        mont_mul(ctx, &t, &ctx->xi_a, &a->c[i + 6]);
        fp_add(ctx, &z[i].c0, &a->c[i], &t);
        z[i].c1 = a->c[i + 6];
    }
}

/* 6 Fp2 tower components -> Fp12: fp_mul+6 */
static void fp12_from_tower(const bnctx *ctx, u64 *k, fp12 *o, const fp2 *z) {
    k[FP_MUL] += 6;
    for (int i = 0; i < 6; i++) {
        fp t;
        mont_mul(ctx, &t, &ctx->xi_a, &z[i].c1);
        fp_sub(ctx, &o->c[i], &z[i].c0, &t);
        o->c[i + 6] = z[i].c1;
    }
}

/* sparse product by a Miller line (powers 0, 1, 3) */
typedef struct { int power; fp2 coeff; } line_term;

static void fp12_mul_sparse(const bnctx *ctx, u64 *k, fp12 *o,
                            const fp12 *a, const line_term *terms, int n) {
    k[FP12_SPARSE] += 1;
    fp2 comps[6], acc[6];
    int have[6] = {0, 0, 0, 0, 0, 0};
    fp12_to_tower(ctx, k, comps, a);
    for (int t = 0; t < n; t++) {
        if (fp2_is_zero(&terms[t].coeff)) continue;
        for (int i = 0; i < 6; i++) {
            int kk = i + terms[t].power;
            fp2 term;
            fp2_mul(ctx, k, &term, &comps[i], &terms[t].coeff);
            if (kk >= 6) {
                kk -= 6;
                fp2_mul_xi(ctx, k, &term, &term);
            }
            if (have[kk]) fp2_add(ctx, &acc[kk], &acc[kk], &term);
            else { acc[kk] = term; have[kk] = 1; }
        }
    }
    for (int i = 0; i < 6; i++) {
        if (!have[i]) memset(&acc[i], 0, sizeof(fp2));
    }
    fp12_from_tower(ctx, k, o, acc);
}

/* Fp4 squaring helper of cyclotomic_square: fp2_sq+3, fp_mul net +8 */
static void fp4_sq(const bnctx *ctx, u64 *k, fp2 *re, fp2 *im,
                   const fp2 *a, const fp2 *b) {
    fp2 a2, b2, t;
    fp2_sq(ctx, k, &a2, a);
    fp2_sq(ctx, k, &b2, b);
    fp2_mul_xi(ctx, k, &t, &b2);
    fp2_add(ctx, re, &a2, &t);
    fp2_add(ctx, &t, a, b);
    fp2_sq(ctx, k, &t, &t);
    fp2_sub(ctx, &t, &t, &a2);
    fp2_sub(ctx, im, &t, &b2);
}

/* 3*three + 2*two via additions only (mirrors Python plus()) */
static void gs_plus(const bnctx *ctx, fp2 *o, const fp2 *three,
                    const fp2 *two) {
    fp2 t;
    fp2_add(ctx, &t, three, two);
    fp2_add(ctx, &t, &t, &t);
    fp2_add(ctx, o, &t, three);
}

static void gs_minus(const bnctx *ctx, fp2 *o, const fp2 *three,
                     const fp2 *two) {
    fp2 t;
    fp2_sub(ctx, &t, three, two);
    fp2_add(ctx, &t, &t, &t);
    fp2_add(ctx, o, &t, three);
}

static void fp12_cyclo_sq(const bnctx *ctx, u64 *k, fp12 *o, const fp12 *f) {
    k[FP12_CYCLO] += 1;
    fp2 g[6], out[6];
    fp12_to_tower(ctx, k, g, f);
    fp2 a0, a1, b0, b1, c0, c1, xc1;
    fp4_sq(ctx, k, &a0, &a1, &g[0], &g[3]);
    fp4_sq(ctx, k, &b0, &b1, &g[1], &g[4]);
    fp4_sq(ctx, k, &c0, &c1, &g[2], &g[5]);
    gs_minus(ctx, &out[0], &a0, &g[0]);
    fp2_mul_xi(ctx, k, &xc1, &c1);
    gs_plus(ctx, &out[1], &xc1, &g[1]);
    gs_minus(ctx, &out[2], &b0, &g[2]);
    gs_plus(ctx, &out[3], &a1, &g[3]);
    gs_minus(ctx, &out[4], &c0, &g[4]);
    gs_plus(ctx, &out[5], &b1, &g[5]);
    fp12_from_tower(ctx, k, o, out);
}

/* Frobenius p^power with cached gamma tables (mirrors fp12_frobenius) */
static void fp12_frob(const bnctx *ctx, u64 *k, fp12 *o, const fp12 *f,
                      int power) {
    int kk = power % 12;
    fp12 v = *f;
    if (kk == 0) { *o = v; return; }
    if (kk >= 6) {
        fp12_conj(ctx, &v, &v);
        kk -= 6;
        if (kk == 0) { *o = v; return; }
    }
    while (kk) {
        int step = kk >= 3 ? 3 : kk;
        const fp2 *table =
            step == 1 ? ctx->g1t : (step == 2 ? ctx->g2t : ctx->g3t);
        fp2 comps[6], mapped[6];
        fp12_to_tower(ctx, k, comps, &v);
        for (int i = 0; i < 6; i++) {
            fp2 z = comps[i];
            if (step % 2) fp2_conj(ctx, &z, &z);
            fp2_mul(ctx, k, &mapped[i], &z, &table[i]);
        }
        fp12_from_tower(ctx, k, &v, mapped);
        kk -= step;
    }
    *o = v;
}

/* a^(p-2) = a^-1 for nonzero a (Fermat), square-and-multiply over p-2 */
static void fp_inv(const bnctx *ctx, fp *o, const fp *a) {
    u64 e[4];
    i128 c = -2;
    for (int i = 0; i < 4; i++) {
        c += ctx->p.c[i];
        e[i] = (u64)c;
        c >>= 64;
    }
    fp one1 = {{1, 0, 0, 0}}, r;
    fp_to_mont(ctx, &r, &one1);
    for (int i = 255; i >= 0; i--) {
        mont_mul(ctx, &r, &r, &r);
        if ((e[i / 64] >> (i % 64)) & 1) mont_mul(ctx, &r, &r, a);
    }
    *o = r;
}

/* f^-1 by the norm chain, for nonzero f (every nonzero element of the
 * field Fp12 has a nonzero norm): g = f*conj(f) lies in Fp6,
 * N = g*g^(p^2)*g^(p^4) in Fp2 and M = N*N^p in Fp, so
 * f^-1 = conj(f)*g^(p^2)*g^(p^4)*N^p / M.  The inverse is unique, so the
 * value is byte-identical to Fp12.inverse; the products count into a
 * scratch block that is dropped (the wrapper tallies fp12_inv once). */
static void fp12_inv(const bnctx *ctx, fp12 *o, const fp12 *f) {
    u64 k[NCOUNTS];
    memset(k, 0, sizeof k);
    fp12 conj, g, g2, g4, a, n, np, m;
    fp12_conj(ctx, &conj, f);
    fp12_mul(ctx, k, &g, f, &conj);
    fp12_frob(ctx, k, &g2, &g, 2);
    fp12_frob(ctx, k, &g4, &g2, 2);
    fp12_mul(ctx, k, &a, &g2, &g4);
    fp12_mul(ctx, k, &n, &g, &a);
    fp12_frob(ctx, k, &np, &n, 1);
    fp12_mul(ctx, k, &m, &n, &np);
    fp12_mul(ctx, k, &a, &a, &np);
    fp12_mul(ctx, k, &a, &a, &conj);
    fp minv;
    fp_inv(ctx, &minv, &m.c[0]);
    for (int i = 0; i < 12; i++) mont_mul(ctx, &o->c[i], &a.c[i], &minv);
}

/* cyclotomic exponentiation by the curve parameter t (NAF in ctx) */
static void fp12_cyclo_exp_t(const bnctx *ctx, u64 *k, fp12 *o,
                             const fp12 *val) {
    fp12 conj, result;
    fp12_conj(ctx, &conj, val);
    int have = 0;
    u64 squares = 0;
    for (int d = ctx->n_t_naf - 1; d >= 0; d--) {
        if (have) {
            fp12_cyclo_sq(ctx, k, &result, &result);
            squares += 1;
        }
        int dig = ctx->t_naf[d];
        if (dig == 1) {
            if (have) fp12_mul(ctx, k, &result, &result, val);
            else { result = *val; have = 1; }
        } else if (dig == -1) {
            if (have) fp12_mul(ctx, k, &result, &result, &conj);
            else { result = conj; have = 1; }
        }
    }
    k[REG_CYCLO] += squares;
    *o = result;
}

/* ---------------- Miller loop (mirrors _miller_loop_projective) -------- */

/* returns 1 on a degenerate step (counts stay partially filled) */
static int c_double_step(const bnctx *ctx, u64 *k, fp2 line[3],
                         fp2 *x, fp2 *y, fp2 *z,
                         const fp *px3, const fp *pym2) {
    if (fp2_is_zero(z) || fp2_is_zero(y)) return 1;
    fp2 xx, w3, s, ss, yy, bz, h, t, u;
    fp2_sq(ctx, k, &xx, x);
    fp2_add(ctx, &w3, &xx, &xx);
    fp2_add(ctx, &w3, &w3, &xx);
    fp2_mul(ctx, k, &s, y, z);
    fp2_sq(ctx, k, &ss, &s);
    fp2_sq(ctx, k, &yy, y);
    fp2_mul(ctx, k, &t, x, &yy);
    fp2_mul(ctx, k, &bz, &t, z);
    fp2_sq(ctx, k, &h, &w3);
    fp2_mul_fp(ctx, k, &t, &bz, &ctx->eight);
    fp2_sub(ctx, &h, &h, &t);
    /* x3 = (h * s) * 2 */
    fp2 x3, y3, z3;
    fp2_mul(ctx, k, &t, &h, &s);
    fp2_mul_fp(ctx, k, &x3, &t, &ctx->two);
    /* y3 = w3 * (bz*4 - h) - (yy*ss)*8 */
    fp2_mul_fp(ctx, k, &t, &bz, &ctx->four);
    fp2_sub(ctx, &t, &t, &h);
    fp2_mul(ctx, k, &u, &w3, &t);
    fp2_mul(ctx, k, &t, &yy, &ss);
    fp2_mul_fp(ctx, k, &t, &t, &ctx->eight);
    fp2_sub(ctx, &y3, &u, &t);
    /* z3 = (s * ss) * 8 */
    fp2_mul(ctx, k, &t, &s, &ss);
    fp2_mul_fp(ctx, k, &z3, &t, &ctx->eight);
    /* line terms at powers 0, 1, 3 */
    fp2_mul(ctx, k, &t, &s, z);
    fp2_mul_fp(ctx, k, &line[0], &t, pym2);
    fp2_mul(ctx, k, &t, &xx, z);
    fp2_mul_fp(ctx, k, &line[1], &t, px3);
    fp2_mul(ctx, k, &t, &yy, z);
    fp2_mul_fp(ctx, k, &t, &t, &ctx->two);
    fp2_mul(ctx, k, &u, &w3, x);
    fp2_sub(ctx, &line[2], &t, &u);
    *x = x3;
    *y = y3;
    *z = z3;
    return 0;
}

static int c_add_step(const bnctx *ctx, u64 *k, fp2 line[3],
                      fp2 *x, fp2 *y, fp2 *z,
                      const fp2 *x2, const fp2 *y2,
                      const fp *pxm, const fp *pyn) {
    if (fp2_is_zero(z)) return 1;
    fp2 u, v, t;
    fp2_mul(ctx, k, &t, y2, z);
    fp2_sub(ctx, &u, &t, y);
    fp2_mul(ctx, k, &t, x2, z);
    fp2_sub(ctx, &v, &t, x);
    if (fp2_is_zero(&v)) return 1;
    fp2 vv, vvv, r, a, x3, y3, z3;
    fp2_sq(ctx, k, &vv, &v);
    fp2_mul(ctx, k, &vvv, &vv, &v);
    fp2_mul(ctx, k, &r, &vv, x);
    fp2_sq(ctx, k, &t, &u);
    fp2_mul(ctx, k, &a, &t, z);
    fp2_sub(ctx, &a, &a, &vvv);
    fp2_sub(ctx, &a, &a, &r);
    fp2_sub(ctx, &a, &a, &r);
    fp2_mul(ctx, k, &x3, &v, &a);
    fp2_sub(ctx, &t, &r, &a);
    fp2_mul(ctx, k, &t, &u, &t);
    fp2_mul(ctx, k, &y3, &vvv, y);
    fp2_sub(ctx, &y3, &t, &y3);
    fp2_mul(ctx, k, &z3, &vvv, z);
    fp2_mul_fp(ctx, k, &line[0], &v, pyn);
    fp2_mul_fp(ctx, k, &line[1], &u, pxm);
    fp2_mul(ctx, k, &t, &v, y2);
    fp2_mul(ctx, k, &u, &u, x2);
    fp2_sub(ctx, &line[2], &t, &u);
    *x = x3;
    *y = y3;
    *z = z3;
    return 0;
}

/* first-iteration materialisation (mirrors _sparse_to_fp12) */
static void sparse_to_fp12(const bnctx *ctx, u64 *k, fp12 *o,
                           const fp2 line[3]) {
    fp2 comps[6];
    memset(comps, 0, sizeof comps);
    fp2_add(ctx, &comps[0], &comps[0], &line[0]);
    fp2_add(ctx, &comps[1], &comps[1], &line[1]);
    fp2_add(ctx, &comps[3], &comps[3], &line[2]);
    fp12_from_tower(ctx, k, o, comps);
}

static void fold_line(const bnctx *ctx, u64 *k, fp12 *f, const fp2 line[3]) {
    line_term terms[3];
    terms[0].power = 0; terms[0].coeff = line[0];
    terms[1].power = 1; terms[1].coeff = line[1];
    terms[2].power = 3; terms[2].coeff = line[2];
    fp12_mul_sparse(ctx, k, f, f, terms, 3);
}

int kern_miller(const bnctx *ctx, const u64 *px_, const u64 *py_,
                const u64 *qx_, const u64 *qy_, u64 *out, u64 *counts) {
    memset(counts, 0, NCOUNTS * sizeof(u64));
    fp pxm, pym, px3, pym2, pyn, t;
    fp2 qx, qy;
    memcpy(pxm.c, px_, sizeof pxm.c);
    memcpy(pym.c, py_, sizeof pym.c);
    memcpy(qx.c0.c, qx_, 32);
    memcpy(qx.c1.c, qx_ + 4, 32);
    memcpy(qy.c0.c, qy_, 32);
    memcpy(qy.c1.c, qy_ + 4, 32);
    fp_to_mont(ctx, &pxm, &pxm);
    fp_to_mont(ctx, &pym, &pym);
    fp_to_mont(ctx, &qx.c0, &qx.c0);
    fp_to_mont(ctx, &qx.c1, &qx.c1);
    fp_to_mont(ctx, &qy.c0, &qy.c0);
    fp_to_mont(ctx, &qy.c1, &qy.c1);
    /* scalar line factors: 3*px, -(2*py), -py (canonical residues) */
    fp_add(ctx, &px3, &pxm, &pxm);
    fp_add(ctx, &px3, &px3, &pxm);
    fp_add(ctx, &t, &pym, &pym);
    fp_neg(ctx, &pym2, &t);
    fp_neg(ctx, &pyn, &pym);

    fp2 x = qx, y = qy, z;
    memset(&z, 0, sizeof z);
    fp one_canon = {{1, 0, 0, 0}};
    fp_to_mont(ctx, &z.c0, &one_canon);
    fp12 f;
    int have_f = 0;
    u64 sparse = 0;
    fp2 line[3];
    for (int i = 0; i < ctx->n_loop_bits; i++) {
        if (c_double_step(ctx, counts, line, &x, &y, &z, &px3, &pym2))
            return 1;
        if (!have_f) {
            sparse_to_fp12(ctx, counts, &f, line);
            have_f = 1;
        } else {
            fp12_sq(ctx, counts, &f, &f);
            fold_line(ctx, counts, &f, line);
            sparse += 1;
        }
        if (ctx->loop_bits[i]) {
            if (c_add_step(ctx, counts, line, &x, &y, &z, &qx, &qy,
                           &pxm, &pyn))
                return 1;
            fold_line(ctx, counts, &f, line);
            sparse += 1;
        }
    }
    /* Frobenius correction points q1 = pi(Q), q2 = -pi(q1) */
    fp2 q1x, q1y, q2x, q2y, c;
    fp2_conj(ctx, &c, &qx);
    fp2_mul(ctx, counts, &q1x, &c, &ctx->twg2);
    fp2_conj(ctx, &c, &qy);
    fp2_mul(ctx, counts, &q1y, &c, &ctx->twg3);
    fp2_conj(ctx, &c, &q1x);
    fp2_mul(ctx, counts, &q2x, &c, &ctx->twg2);
    fp2_conj(ctx, &c, &q1y);
    fp2_mul(ctx, counts, &q2y, &c, &ctx->twg3);
    fp2_neg(ctx, &q2y, &q2y);
    if (c_add_step(ctx, counts, line, &x, &y, &z, &q1x, &q1y, &pxm, &pyn))
        return 1;
    fold_line(ctx, counts, &f, line);
    if (c_add_step(ctx, counts, line, &x, &y, &z, &q2x, &q2y, &pxm, &pyn))
        return 1;
    fold_line(ctx, counts, &f, line);
    sparse += 2;
    counts[REG_SPARSE] = sparse;
    for (int i = 0; i < 12; i++) {
        fp o;
        fp_from_mont(ctx, &o, &f.c[i]);
        memcpy(out + 4 * i, o.c, 32);
    }
    return 0;
}

/* ---------------- final exponentiation (mirrors pairing.py) ----------- */

void kern_final_exp(const bnctx *ctx, const u64 *f_in, u64 *out,
                    u64 *counts) {
    memset(counts, 0, NCOUNTS * sizeof(u64));
    fp12 f0, finv, f, t, fr;
    for (int i = 0; i < 12; i++) {
        memcpy(f0.c[i].c, f_in + 4 * i, 32);
        fp_to_mont(ctx, &f0.c[i], &f0.c[i]);
    }
    /* easy part */
    fp12_inv(ctx, &finv, &f0);
    fp12_conj(ctx, &t, &f0);
    fp12_mul(ctx, counts, &f, &t, &finv);
    fp12_frob(ctx, counts, &fr, &f, 2);
    fp12_mul(ctx, counts, &f, &fr, &f);
    /* hard part (Devegili-Scott-Dahab chain) */
    fp12 fp1, fp2_, fp3, fu, fu2, fu3;
    fp12_frob(ctx, counts, &fp1, &f, 1);
    fp12_frob(ctx, counts, &fp2_, &f, 2);
    fp12_frob(ctx, counts, &fp3, &fp2_, 1);
    fp12_cyclo_exp_t(ctx, counts, &fu, &f);
    fp12_cyclo_exp_t(ctx, counts, &fu2, &fu);
    fp12_cyclo_exp_t(ctx, counts, &fu3, &fu2);
    fp12 y0, y1, y2, y3, y4, y5, y6;
    fp12_mul(ctx, counts, &y0, &fp1, &fp2_);
    fp12_mul(ctx, counts, &y0, &y0, &fp3);
    fp12_conj(ctx, &y1, &f);
    fp12_frob(ctx, counts, &y2, &fu2, 2);
    fp12_frob(ctx, counts, &y3, &fu, 1);
    fp12_conj(ctx, &y3, &y3);
    fp12_frob(ctx, counts, &t, &fu2, 1);
    fp12_mul(ctx, counts, &y4, &fu, &t);
    fp12_conj(ctx, &y4, &y4);
    fp12_conj(ctx, &y5, &fu2);
    fp12_frob(ctx, counts, &t, &fu3, 1);
    fp12_mul(ctx, counts, &y6, &fu3, &t);
    fp12_conj(ctx, &y6, &y6);
    fp12 t0, t1;
    fp12_cyclo_sq(ctx, counts, &t0, &y6);
    fp12_mul(ctx, counts, &t0, &t0, &y4);
    fp12_mul(ctx, counts, &t0, &t0, &y5);
    fp12_mul(ctx, counts, &t1, &y3, &y5);
    fp12_mul(ctx, counts, &t1, &t1, &t0);
    fp12_mul(ctx, counts, &t0, &t0, &y2);
    fp12_cyclo_sq(ctx, counts, &t1, &t1);
    fp12_mul(ctx, counts, &t1, &t1, &t0);
    fp12_cyclo_sq(ctx, counts, &t1, &t1);
    fp12 ta, tb;
    fp12_mul(ctx, counts, &ta, &t1, &y1);
    fp12_mul(ctx, counts, &tb, &t1, &y0);
    fp12_cyclo_sq(ctx, counts, &ta, &ta);
    counts[REG_CYCLO] += 4;
    fp12 res;
    fp12_mul(ctx, counts, &res, &ta, &tb);
    for (int i = 0; i < 12; i++) {
        fp o;
        fp_from_mont(ctx, &o, &res.c[i]);
        memcpy(out + 4 * i, o.c, 32);
    }
}

/* ---------------- Jacobian point arithmetic (MSM) ----------------
 *
 * Transliterations of curve._jacobian_double / _jacobian_add with the
 * tally rules of fields.Fp / fields.Fp2 applied per operation, so the
 * kernel MSM reports op counts identical to the reference column walk
 * in glv._msm_loop.  "Valid" flags mirror Python's None propagation
 * (the point at infinity, reachable for small-order toy points).
 */

static int fp_eq(const fp *a, const fp *b) {
    /* all fp routines emit canonical (< p) Montgomery residues */
    return memcmp(a->c, b->c, sizeof(a->c)) == 0;
}

static int fp2_eq(const fp2 *a, const fp2 *b) {
    return fp_eq(&a->c0, &b->c0) && fp_eq(&a->c1, &b->c1);
}

/* tallied Fp product: Python's Fp*Fp / Fp*int / Fp.square() all count 1 */
static void fp_mul_t(const bnctx *ctx, u64 *k, fp *o,
                     const fp *a, const fp *b) {
    k[FP_MUL] += 1;
    mont_mul(ctx, o, a, b);
}

typedef struct { fp x, y, z; } g1jac;
typedef struct { fp2 x, y, z; } g2jac;

/* 13 fp_mul, including the y1 == y1*0 infinity probe; 0 = infinity */
static int g1_dbl(const bnctx *ctx, u64 *k, g1jac *p) {
    k[FP_MUL] += 1;                      /* y1 * 0 */
    if (fp_is_zero(&p->y)) return 0;
    fp a, b, c, t, d, e, f, t2, x3, y3, z3;
    fp_mul_t(ctx, k, &a, &p->x, &p->x);
    fp_mul_t(ctx, k, &b, &p->y, &p->y);
    fp_mul_t(ctx, k, &c, &b, &b);
    fp_add(ctx, &t, &p->x, &b);
    fp_mul_t(ctx, k, &t, &t, &t);
    fp_sub(ctx, &t, &t, &a);
    fp_sub(ctx, &t, &t, &c);
    fp_mul_t(ctx, k, &d, &t, &ctx->two);
    fp_mul_t(ctx, k, &e, &a, &ctx->three);
    fp_mul_t(ctx, k, &f, &e, &e);
    fp_mul_t(ctx, k, &t2, &d, &ctx->two);
    fp_sub(ctx, &x3, &f, &t2);
    fp_sub(ctx, &t, &d, &x3);
    fp_mul_t(ctx, k, &t, &e, &t);
    fp_mul_t(ctx, k, &t2, &c, &ctx->eight);
    fp_sub(ctx, &y3, &t, &t2);
    fp_mul_t(ctx, k, &t, &p->y, &p->z);
    fp_mul_t(ctx, k, &z3, &t, &ctx->two);
    p->x = x3; p->y = y3; p->z = z3;
    return 1;
}

/* 20 fp_mul on the general path; equal-x falls into doubling or infinity */
static int g1_add(const bnctx *ctx, u64 *k, g1jac *p, const g1jac *q) {
    fp z1z1, z2z2, u1, u2, s1, s2, t;
    fp_mul_t(ctx, k, &z1z1, &p->z, &p->z);
    fp_mul_t(ctx, k, &z2z2, &q->z, &q->z);
    fp_mul_t(ctx, k, &u1, &p->x, &z2z2);
    fp_mul_t(ctx, k, &u2, &q->x, &z1z1);
    fp_mul_t(ctx, k, &t, &p->y, &z2z2);
    fp_mul_t(ctx, k, &s1, &t, &q->z);
    fp_mul_t(ctx, k, &t, &q->y, &z1z1);
    fp_mul_t(ctx, k, &s2, &t, &p->z);
    if (fp_eq(&u1, &u2)) {
        if (fp_eq(&s1, &s2)) return g1_dbl(ctx, k, p);
        return 0;                        /* p == -q */
    }
    fp h, hh, ii, j, r, v, t2, x3, y3, z3;
    fp_sub(ctx, &h, &u2, &u1);
    fp_add(ctx, &hh, &h, &h);
    fp_mul_t(ctx, k, &ii, &hh, &hh);
    fp_mul_t(ctx, k, &j, &h, &ii);
    fp_sub(ctx, &t, &s2, &s1);
    fp_mul_t(ctx, k, &r, &t, &ctx->two);
    fp_mul_t(ctx, k, &v, &u1, &ii);
    fp_mul_t(ctx, k, &t, &r, &r);
    fp_sub(ctx, &t, &t, &j);
    fp_mul_t(ctx, k, &t2, &v, &ctx->two);
    fp_sub(ctx, &x3, &t, &t2);
    fp_sub(ctx, &t, &v, &x3);
    fp_mul_t(ctx, k, &t, &r, &t);
    fp_mul_t(ctx, k, &t2, &s1, &j);
    fp_mul_t(ctx, k, &t2, &t2, &ctx->two);
    fp_sub(ctx, &y3, &t, &t2);
    fp_mul_t(ctx, k, &t, &p->z, &q->z);
    fp_mul_t(ctx, k, &t, &t, &h);
    fp_mul_t(ctx, k, &z3, &t, &ctx->two);
    p->x = x3; p->y = y3; p->z = z3;
    return 1;
}

/* Fp2 double: 5 fp2_sq + 2 fp2_mul + 6 scalar muls, as the generic
 * Python formula tallies over Fp2 */
static int g2_dbl(const bnctx *ctx, u64 *k, g2jac *p) {
    k[FP2_MUL] += 1;                     /* y1 * 0 */
    k[FP_MUL] += 2;
    if (fp2_is_zero(&p->y)) return 0;
    fp2 a, b, c, t, d, e, f, t2, x3, y3, z3;
    fp2_sq(ctx, k, &a, &p->x);
    fp2_sq(ctx, k, &b, &p->y);
    fp2_sq(ctx, k, &c, &b);
    fp2_add(ctx, &t, &p->x, &b);
    fp2_sq(ctx, k, &t, &t);
    fp2_sub(ctx, &t, &t, &a);
    fp2_sub(ctx, &t, &t, &c);
    fp2_mul_fp(ctx, k, &d, &t, &ctx->two);
    fp2_mul_fp(ctx, k, &e, &a, &ctx->three);
    fp2_sq(ctx, k, &f, &e);
    fp2_mul_fp(ctx, k, &t2, &d, &ctx->two);
    fp2_sub(ctx, &x3, &f, &t2);
    fp2_sub(ctx, &t, &d, &x3);
    fp2_mul(ctx, k, &t, &e, &t);
    fp2_mul_fp(ctx, k, &t2, &c, &ctx->eight);
    fp2_sub(ctx, &y3, &t, &t2);
    fp2_mul(ctx, k, &t, &p->y, &p->z);
    fp2_mul_fp(ctx, k, &z3, &t, &ctx->two);
    p->x = x3; p->y = y3; p->z = z3;
    return 1;
}

/* Fp2 add: 4 fp2_sq + 12 fp2_mul + 4 scalar muls on the general path */
static int g2_add(const bnctx *ctx, u64 *k, g2jac *p, const g2jac *q) {
    fp2 z1z1, z2z2, u1, u2, s1, s2, t;
    fp2_sq(ctx, k, &z1z1, &p->z);
    fp2_sq(ctx, k, &z2z2, &q->z);
    fp2_mul(ctx, k, &u1, &p->x, &z2z2);
    fp2_mul(ctx, k, &u2, &q->x, &z1z1);
    fp2_mul(ctx, k, &t, &p->y, &z2z2);
    fp2_mul(ctx, k, &s1, &t, &q->z);
    fp2_mul(ctx, k, &t, &q->y, &z1z1);
    fp2_mul(ctx, k, &s2, &t, &p->z);
    if (fp2_eq(&u1, &u2)) {
        if (fp2_eq(&s1, &s2)) return g2_dbl(ctx, k, p);
        return 0;
    }
    fp2 h, hh, ii, j, r, v, t2, x3, y3, z3;
    fp2_sub(ctx, &h, &u2, &u1);
    fp2_add(ctx, &hh, &h, &h);
    fp2_sq(ctx, k, &ii, &hh);
    fp2_mul(ctx, k, &j, &h, &ii);
    fp2_sub(ctx, &t, &s2, &s1);
    fp2_mul_fp(ctx, k, &r, &t, &ctx->two);
    fp2_mul(ctx, k, &v, &u1, &ii);
    fp2_sq(ctx, k, &t, &r);
    fp2_sub(ctx, &t, &t, &j);
    fp2_mul_fp(ctx, k, &t2, &v, &ctx->two);
    fp2_sub(ctx, &x3, &t, &t2);
    fp2_sub(ctx, &t, &v, &x3);
    fp2_mul(ctx, k, &t, &r, &t);
    fp2_mul(ctx, k, &t2, &s1, &j);
    fp2_mul_fp(ctx, k, &t2, &t2, &ctx->two);
    fp2_sub(ctx, &y3, &t, &t2);
    fp2_mul(ctx, k, &t, &p->z, &q->z);
    fp2_mul(ctx, k, &t, &t, &h);
    fp2_mul_fp(ctx, k, &z3, &t, &ctx->two);
    p->x = x3; p->y = y3; p->z = z3;
    return 1;
}

#define MSM_MAX_POINTS 1024
#define MSM_TAB 8                        /* odd multiples for width-5 wNAF */

/* Interleaved wNAF MSM over G1.  digits is an m x ndigits column-major-
 * safe row matrix (row i = point i, zero padded).  endo != 0 means
 * points[i] = phi^i(points[0]): table 0 is built and the rest derived by
 * X *= beta (1 fp_mul per live entry), exactly as glv._derive_table_g1.
 * Returns 0 = point in out (affine-domain Jacobian limbs), 1 = infinity,
 * 2 = unsupported (counts must be discarded). */
int kern_g1_msm(const bnctx *ctx, int m, const u64 *xs, const u64 *ys,
                const signed char *digits, int ndigits, int endo,
                const u64 *endo_beta, u64 *out, u64 *counts) {
    memset(counts, 0, NCOUNTS * sizeof(u64));
    if (m <= 0 || m > MSM_MAX_POINTS || ndigits <= 0) return 2;
    g1jac *tab = malloc((size_t)m * MSM_TAB * sizeof(g1jac));
    unsigned char *ok = malloc((size_t)m * MSM_TAB);
    if (!tab || !ok) { free(tab); free(ok); return 2; }
    fp one = {{1, 0, 0, 0}};
    fp onem, beta;
    fp_to_mont(ctx, &onem, &one);
    if (endo) memcpy(beta.c, endo_beta, sizeof(beta.c));
    for (int i = 0; i < m; i++) {
        if (endo && i > 0) {
            for (int e = 0; e < MSM_TAB; e++) {
                int idx = i * MSM_TAB + e, prev = (i - 1) * MSM_TAB + e;
                ok[idx] = ok[prev];
                if (!ok[prev]) continue;
                tab[idx] = tab[prev];
                fp_mul_t(ctx, counts, &tab[idx].x, &tab[prev].x, &beta);
            }
            continue;
        }
        g1jac base, dbl;
        memcpy(base.x.c, xs + 4 * i, 32);
        memcpy(base.y.c, ys + 4 * i, 32);
        fp_to_mont(ctx, &base.x, &base.x);
        fp_to_mont(ctx, &base.y, &base.y);
        base.z = onem;
        dbl = base;
        int dvalid = g1_dbl(ctx, counts, &dbl);
        tab[i * MSM_TAB] = base;
        ok[i * MSM_TAB] = 1;
        for (int e = 1; e < MSM_TAB; e++) {
            int idx = i * MSM_TAB + e, prev = idx - 1;
            if (!ok[prev]) { tab[idx] = dbl; ok[idx] = (unsigned char)dvalid; }
            else if (!dvalid) { tab[idx] = tab[prev]; ok[idx] = 1; }
            else {
                tab[idx] = tab[prev];
                ok[idx] = (unsigned char)g1_add(ctx, counts, &tab[idx], &dbl);
            }
        }
    }
    g1jac r;
    int rvalid = 0;
    for (int col = ndigits - 1; col >= 0; col--) {
        if (rvalid) rvalid = g1_dbl(ctx, counts, &r);
        for (int i = 0; i < m; i++) {
            int d = digits[(size_t)i * ndigits + col];
            if (!d) continue;
            int a = d < 0 ? -d : d;
            int e = (a - 1) >> 1;
            if (e >= MSM_TAB) { free(tab); free(ok); return 2; }
            int idx = i * MSM_TAB + e;
            if (!ok[idx]) continue;
            g1jac entry = tab[idx];
            if (d < 0) fp_neg(ctx, &entry.y, &entry.y);
            if (!rvalid) { r = entry; rvalid = 1; }
            else rvalid = g1_add(ctx, counts, &r, &entry);
        }
    }
    free(tab); free(ok);
    if (!rvalid) return 1;
    fp o;
    fp_from_mont(ctx, &o, &r.x); memcpy(out, o.c, 32);
    fp_from_mont(ctx, &o, &r.y); memcpy(out + 4, o.c, 32);
    fp_from_mont(ctx, &o, &r.z); memcpy(out + 8, o.c, 32);
    return 0;
}

/* G2 twin: coords are Fp2 (8 limbs: c0 then c1).  endo != 0 derives
 * table i from i-1 by psi: (conj(X)*twg2, conj(Y)*twg3, conj(Z)) — two
 * fp2_mul per live entry, as glv._derive_table_g2. */
int kern_g2_msm(const bnctx *ctx, int m, const u64 *xs, const u64 *ys,
                const signed char *digits, int ndigits, int endo,
                u64 *out, u64 *counts) {
    memset(counts, 0, NCOUNTS * sizeof(u64));
    if (m <= 0 || m > MSM_MAX_POINTS || ndigits <= 0) return 2;
    g2jac *tab = malloc((size_t)m * MSM_TAB * sizeof(g2jac));
    unsigned char *ok = malloc((size_t)m * MSM_TAB);
    if (!tab || !ok) { free(tab); free(ok); return 2; }
    fp one = {{1, 0, 0, 0}};
    fp onem;
    fp_to_mont(ctx, &onem, &one);
    for (int i = 0; i < m; i++) {
        if (endo && i > 0) {
            for (int e = 0; e < MSM_TAB; e++) {
                int idx = i * MSM_TAB + e, prev = (i - 1) * MSM_TAB + e;
                ok[idx] = ok[prev];
                if (!ok[prev]) continue;
                fp2 t;
                fp2_conj(ctx, &t, &tab[prev].x);
                fp2_mul(ctx, counts, &tab[idx].x, &t, &ctx->twg2);
                fp2_conj(ctx, &t, &tab[prev].y);
                fp2_mul(ctx, counts, &tab[idx].y, &t, &ctx->twg3);
                fp2_conj(ctx, &tab[idx].z, &tab[prev].z);
            }
            continue;
        }
        g2jac base, dbl;
        memcpy(base.x.c0.c, xs + 8 * i, 32);
        memcpy(base.x.c1.c, xs + 8 * i + 4, 32);
        memcpy(base.y.c0.c, ys + 8 * i, 32);
        memcpy(base.y.c1.c, ys + 8 * i + 4, 32);
        fp_to_mont(ctx, &base.x.c0, &base.x.c0);
        fp_to_mont(ctx, &base.x.c1, &base.x.c1);
        fp_to_mont(ctx, &base.y.c0, &base.y.c0);
        fp_to_mont(ctx, &base.y.c1, &base.y.c1);
        base.z.c0 = onem;
        memset(base.z.c1.c, 0, 32);
        dbl = base;
        int dvalid = g2_dbl(ctx, counts, &dbl);
        tab[i * MSM_TAB] = base;
        ok[i * MSM_TAB] = 1;
        for (int e = 1; e < MSM_TAB; e++) {
            int idx = i * MSM_TAB + e, prev = idx - 1;
            if (!ok[prev]) { tab[idx] = dbl; ok[idx] = (unsigned char)dvalid; }
            else if (!dvalid) { tab[idx] = tab[prev]; ok[idx] = 1; }
            else {
                tab[idx] = tab[prev];
                ok[idx] = (unsigned char)g2_add(ctx, counts, &tab[idx], &dbl);
            }
        }
    }
    g2jac r;
    int rvalid = 0;
    for (int col = ndigits - 1; col >= 0; col--) {
        if (rvalid) rvalid = g2_dbl(ctx, counts, &r);
        for (int i = 0; i < m; i++) {
            int d = digits[(size_t)i * ndigits + col];
            if (!d) continue;
            int a = d < 0 ? -d : d;
            int e = (a - 1) >> 1;
            if (e >= MSM_TAB) { free(tab); free(ok); return 2; }
            int idx = i * MSM_TAB + e;
            if (!ok[idx]) continue;
            g2jac entry = tab[idx];
            if (d < 0) fp2_neg(ctx, &entry.y, &entry.y);
            if (!rvalid) { r = entry; rvalid = 1; }
            else rvalid = g2_add(ctx, counts, &r, &entry);
        }
    }
    free(tab); free(ok);
    if (!rvalid) return 1;
    fp o;
    fp_from_mont(ctx, &o, &r.x.c0); memcpy(out, o.c, 32);
    fp_from_mont(ctx, &o, &r.x.c1); memcpy(out + 4, o.c, 32);
    fp_from_mont(ctx, &o, &r.y.c0); memcpy(out + 8, o.c, 32);
    fp_from_mont(ctx, &o, &r.y.c1); memcpy(out + 12, o.c, 32);
    fp_from_mont(ctx, &o, &r.z.c0); memcpy(out + 16, o.c, 32);
    fp_from_mont(ctx, &o, &r.z.c1); memcpy(out + 20, o.c, 32);
    return 0;
}

/* exposed for the Python-side build self-test */
void kern_mont_mul_test(const bnctx *ctx, const u64 *a, const u64 *b,
                        u64 *out) {
    fp fa, fb, fo;
    memcpy(fa.c, a, 32);
    memcpy(fb.c, b, 32);
    fp_to_mont(ctx, &fa, &fa);
    fp_to_mont(ctx, &fb, &fb);
    mont_mul(ctx, &fo, &fa, &fb);
    fp_from_mont(ctx, &fo, &fo);
    memcpy(out, fo.c, 32);
}

/* exposed for the differential test against Fp12.inverse (f != 0) */
void kern_fp12_inv_test(const bnctx *ctx, const u64 *f_in, u64 *out) {
    fp12 f, r;
    for (int i = 0; i < 12; i++) {
        memcpy(f.c[i].c, f_in + 4 * i, 32);
        fp_to_mont(ctx, &f.c[i], &f.c[i]);
    }
    fp12_inv(ctx, &r, &f);
    for (int i = 0; i < 12; i++) {
        fp o;
        fp_from_mont(ctx, &o, &r.c[i]);
        memcpy(out + 4 * i, o.c, 32);
    }
}
"""

# ---------------------------------------------------------------------------
# build machinery
# ---------------------------------------------------------------------------

_BUILD_STATE: dict = {"tried": False, "ffi": None, "lib": None, "reason": ""}


def _source_tag() -> str:
    digest = hashlib.sha256(
        (_CDEF + _CSOURCE).encode("utf-8")
    ).hexdigest()[:16]
    return f"_repro_pairing_kernel_{digest}"


def _compile_library() -> Tuple[Optional[object], Optional[object], str]:
    """Compile (or reuse) the kernel extension; never raises."""
    try:
        import cffi
    except ImportError:
        return None, None, "cffi is not installed"
    modname = _source_tag()
    build_root = os.environ.get("REPRO_KERNEL_CACHE") or os.path.join(
        tempfile.gettempdir(), f"{modname}-py{sys.version_info[0]}{sys.version_info[1]}"
    )
    try:
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(modname, _CSOURCE, extra_compile_args=["-O2"])
        sofile = None
        if os.path.isdir(build_root):
            for entry in sorted(os.listdir(build_root)):
                if entry.startswith(modname) and entry.endswith(
                    (".so", ".pyd", ".dylib")
                ):
                    sofile = os.path.join(build_root, entry)
                    break
        if sofile is None:
            os.makedirs(build_root, exist_ok=True)
            # Compile in a fresh private dir, then publish atomically so
            # concurrently-spawned worker processes never load a half-
            # written extension.
            workdir = tempfile.mkdtemp(prefix="build-", dir=build_root)
            built = ffi.compile(tmpdir=workdir)
            final = os.path.join(build_root, os.path.basename(built))
            try:
                os.replace(built, final)
            except OSError:
                final = built
            sofile = final
        spec = importlib.util.spec_from_file_location(modname, sofile)
        if spec is None or spec.loader is None:
            return None, None, f"cannot load built kernel at {sofile}"
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.ffi, module.lib, "compiled"
    except Exception as exc:  # toolchain/compiler/load failures
        return None, None, f"kernel build failed: {exc!r}"


def _library() -> Tuple[Optional[object], Optional[object], str]:
    state = _BUILD_STATE
    if not state["tried"]:
        state["tried"] = True
        ffi, lib, reason = _compile_library()
        if lib is not None:
            try:
                _selftest(ffi, lib)
            except Exception as exc:
                ffi, lib, reason = None, None, f"kernel self-test failed: {exc!r}"
        state["ffi"], state["lib"], state["reason"] = ffi, lib, reason
    return state["ffi"], state["lib"], state["reason"]


def kernel_availability() -> Tuple[bool, str]:
    """Whether the compiled kernel can be used here, plus the reason."""
    _, lib, reason = _library()
    return lib is not None, reason


def _limbs(value: int):
    value = int(value)
    return [(value >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(_NLIMBS)]


class _Montgomery:
    """The C core's Montgomery constants for ``p``, with ``R = 2^256``.

    ``np_ = -p^-1 mod 2^64`` drives the word-wise (CIOS) REDC and
    ``r2 = R^2 mod p`` converts inside C; :meth:`to_mont` converts here.
    """

    __slots__ = ("p", "np_", "r2")

    def __init__(self, p: int):
        self.p = p
        self.np_ = -pow(p, -1, 1 << 64) % (1 << 64)
        self.r2 = pow(2, 2 * _R_BITS, p)

    def to_mont(self, a: int) -> int:
        """Canonical residue -> Montgomery form ``a * R mod p``."""
        return (int(a) << _R_BITS) % self.p


def _fp_from_bytes(raw: bytes, index: int) -> int:
    start = index * _LIMB_BYTES
    return int.from_bytes(raw[start:start + _LIMB_BYTES], "little")


def _selftest(ffi, lib) -> None:
    """Check the C Montgomery core against Python big-int arithmetic."""
    import random as _random

    rng = _random.Random(0xC0DE)
    from repro.pairing.numbers import is_probable_prime

    p = (1 << 254) - 1
    while not (is_probable_prime(p) and p % 4 == 3):
        p -= 2
    ctx = ffi.new("bnctx *")
    dom = _Montgomery(p)
    ctx.p.c = _limbs(p)
    ctx.np = dom.np_
    ctx.r2.c = _limbs(dom.r2)
    out = ffi.new("u64[4]")
    for _ in range(8):
        a = rng.randrange(p)
        b = rng.randrange(p)
        abuf = ffi.new("u64[4]", _limbs(a))
        bbuf = ffi.new("u64[4]", _limbs(b))
        lib.kern_mont_mul_test(ctx, abuf, bbuf, out)
        got = int.from_bytes(bytes(ffi.buffer(out)), "little")
        if got != (a * b) % p:
            raise ArithmeticError("Montgomery product mismatch")


# ---------------------------------------------------------------------------
# per-curve kernel handle
# ---------------------------------------------------------------------------


class PairingKernel:
    """Compiled Miller loop + final exponentiation bound to one BN curve."""

    def __init__(self, curve, ffi, lib):
        self._curve = curve
        self._ffi = ffi
        self._lib = lib
        self._tables_ready = False
        spec = curve.spec
        p = int(spec.p)
        dom = _Montgomery(p)
        self._dom = dom
        ctx = ffi.new("bnctx *")
        ctx.p.c = _limbs(p)
        ctx.np = dom.np_
        ctx.r2.c = _limbs(dom.r2)
        ctx.c6m.c = _limbs(dom.to_mont(spec.fp12_mod_c6))
        ctx.c0m.c = _limbs(dom.to_mont(spec.fp12_mod_c0))
        ctx.c6_nz = 1 if spec.fp12_mod_c6 % p else 0
        ctx.c0_nz = 1 if spec.fp12_mod_c0 % p else 0
        ctx.xi_a.c = _limbs(dom.to_mont(spec.xi_a))
        ctx.two.c = _limbs(dom.to_mont(2))
        ctx.four.c = _limbs(dom.to_mont(4))
        ctx.eight.c = _limbs(dom.to_mont(8))
        ctx.three.c = _limbs(dom.to_mont(3))
        self._fill_fp2(ctx.twg2, curve.frob_gamma2)
        self._fill_fp2(ctx.twg3, curve.frob_gamma3)
        loop = curve.ate_loop_count
        bits = [(loop >> i) & 1 for i in range(loop.bit_length() - 2, -1, -1)]
        ctx.n_loop_bits = len(bits)
        for i, bit in enumerate(bits):
            ctx.loop_bits[i] = bit
        from repro.pairing.curve import _wnaf_digits

        naf = _wnaf_digits(curve.t, 2)
        ctx.n_t_naf = len(naf)
        for i, digit in enumerate(naf):
            ctx.t_naf[i] = digit
        self._ctx = ctx

    def _fill_fp2(self, target, value) -> None:
        dom = self._dom
        target.c0.c = _limbs(dom.to_mont(int(value.c0)))
        target.c1.c = _limbs(dom.to_mont(int(value.c1)))

    @classmethod
    def for_curve(cls, curve) -> Optional["PairingKernel"]:
        """A kernel for ``curve`` if the library and parameters allow it."""
        ffi, lib, _ = _library()
        if lib is None:
            return None
        p = int(curve.spec.p)
        if p.bit_length() > 254 or p % 2 == 0:
            return None
        loop_bits = curve.ate_loop_count.bit_length() - 1
        if loop_bits > _MAX_LOOP_BITS or curve.t <= 0:
            return None
        if len(str(curve.t)) and curve.t.bit_length() + 2 > _MAX_NAF:
            return None
        try:
            return cls(curve, ffi, lib)
        except Exception:
            return None

    # -- tally plumbing ----------------------------------------------------
    def _apply_counts(self, counts, apply_registry_sparse: bool) -> None:
        tally = _rt.tally
        if tally is not None:
            for index, name in enumerate(_TALLY_SLOTS):
                value = counts[index]
                if value:
                    setattr(tally, name, getattr(tally, name) + value)
        registry = get_registry()
        if apply_registry_sparse and counts[_REG_SPARSE]:
            registry.counter("pairing.sparse_mults").inc(counts[_REG_SPARSE])
        if counts[_REG_CYCLO]:
            registry.counter("pairing.cyclo_squares").inc(counts[_REG_CYCLO])

    def _ensure_tables(self) -> None:
        """Fill the Frobenius gamma tables on first final exponentiation.

        Built through the *same* cached pure-Python helper the reference
        path uses, at the same point in the call sequence (first final
        exp), so the one-off table construction tallies identically across
        backends.
        """
        if self._tables_ready:
            return
        from repro.pairing.pairing import _frobenius_tables

        tables = _frobenius_tables(self._curve)
        for power, field_name in ((1, "g1t"), (2, "g2t"), (3, "g3t")):
            target = getattr(self._ctx, field_name)
            for i, value in enumerate(tables[power]):
                self._fill_fp2(target[i], value)
        self._tables_ready = True

    # -- public stages -----------------------------------------------------
    def miller_loop(self, p_point, q_point):
        """Kernel Miller loop; ``None`` signals a degenerate step."""
        ffi, lib = self._ffi, self._lib
        px = ffi.new("u64[4]", _limbs(p_point.x.value))
        py = ffi.new("u64[4]", _limbs(p_point.y.value))
        qx = ffi.new("u64[8]", _limbs(q_point.x.c0) + _limbs(q_point.x.c1))
        qy = ffi.new("u64[8]", _limbs(q_point.y.c0) + _limbs(q_point.y.c1))
        out = ffi.new("u64[48]")
        counts = ffi.new("u64[12]")
        rc = lib.kern_miller(self._ctx, px, py, qx, qy, out, counts)
        self._apply_counts(counts, apply_registry_sparse=(rc == 0))
        if rc != 0:
            return None
        return self._fp12_value(out)

    # -- point arithmetic --------------------------------------------------
    def _pack_digits(self, digit_lists, ndigits: int, m: int):
        """Row-major zero-padded int8 digit matrix for the C column walk."""
        buf = self._ffi.new(f"signed char[{m * ndigits}]")
        for i, digits in enumerate(digit_lists):
            base = i * ndigits
            for j, digit in enumerate(digits):
                buf[base + j] = digit
        return buf

    def g1_msm(self, points, digit_lists, ndigits: int, *, endo: bool = False):
        """Interleaved wNAF MSM over G1 in the kernel.

        Returns ``(supported, jac)``: ``supported=False`` asks the caller
        to run the reference path (no counts were applied); otherwise
        ``jac`` is the Jacobian triple (or None for infinity), bit- and
        count-identical to :func:`repro.pairing.glv._msm_loop`.
        """
        ffi, lib = self._ffi, self._lib
        m = len(points)
        beta = ffi.new("u64[4]")
        if endo:
            from repro.pairing import glv as _glv

            params = _glv.glv_params(self._curve)
            if params is None:
                return False, None
            beta = ffi.new("u64[4]", _limbs(self._dom.to_mont(params.beta)))
        xs, ys = [], []
        for pt in points:
            xs.extend(_limbs(pt.x.value))
            ys.extend(_limbs(pt.y.value))
        out = ffi.new("u64[12]")
        counts = ffi.new(f"u64[{_NCOUNTS}]")
        rc = lib.kern_g1_msm(
            self._ctx,
            m,
            ffi.new(f"u64[{4 * m}]", xs),
            ffi.new(f"u64[{4 * m}]", ys),
            self._pack_digits(digit_lists, ndigits, m),
            ndigits,
            1 if endo else 0,
            beta,
            out,
            counts,
        )
        if rc == 2:
            return False, None
        self._apply_counts(counts, apply_registry_sparse=False)
        if rc == 1:
            return True, None
        raw = bytes(ffi.buffer(out))
        spec = self._curve.spec
        return True, (
            spec.fp(_fp_from_bytes(raw, 0)),
            spec.fp(_fp_from_bytes(raw, 1)),
            spec.fp(_fp_from_bytes(raw, 2)),
        )

    def g2_msm(self, points, digit_lists, ndigits: int, *, endo: bool = False):
        """G2 twin of :meth:`g1_msm` (Fp2 coordinates, psi-derived tables)."""
        ffi, lib = self._ffi, self._lib
        m = len(points)
        xs, ys = [], []
        for pt in points:
            xs.extend(_limbs(pt.x.c0) + _limbs(pt.x.c1))
            ys.extend(_limbs(pt.y.c0) + _limbs(pt.y.c1))
        out = ffi.new("u64[24]")
        counts = ffi.new(f"u64[{_NCOUNTS}]")
        rc = lib.kern_g2_msm(
            self._ctx,
            m,
            ffi.new(f"u64[{8 * m}]", xs),
            ffi.new(f"u64[{8 * m}]", ys),
            self._pack_digits(digit_lists, ndigits, m),
            ndigits,
            1 if endo else 0,
            out,
            counts,
        )
        if rc == 2:
            return False, None
        self._apply_counts(counts, apply_registry_sparse=False)
        if rc == 1:
            return True, None
        raw = bytes(ffi.buffer(out))
        spec = self._curve.spec
        return True, (
            spec.fp2(_fp_from_bytes(raw, 0), _fp_from_bytes(raw, 1)),
            spec.fp2(_fp_from_bytes(raw, 2), _fp_from_bytes(raw, 3)),
            spec.fp2(_fp_from_bytes(raw, 4), _fp_from_bytes(raw, 5)),
        )

    def _fp12_buf(self, f):
        """An Fp12 value as the C side's 48 little-endian limbs."""
        buf = self._ffi.new("u64[48]")
        for i in range(12):
            for j, limb in enumerate(_limbs(f.coeffs[i])):
                buf[4 * i + j] = limb
        return buf

    def _fp12_value(self, out):
        from repro.pairing.fields import Fp12

        raw = bytes(self._ffi.buffer(out))
        return Fp12(self._curve.spec, [_fp_from_bytes(raw, i) for i in range(12)])

    def final_exp(self, f):
        """Kernel final exponentiation of a Miller value ``f``."""
        # The easy part's f^-1 runs in C (norm chain, uncounted); the
        # tally and the zero check match Fp12.inverse, which the pure
        # path calls before it first touches the Frobenius tables.
        tally = _rt.tally
        if tally is not None:
            tally.fp12_inv += 1
        if f.is_zero():
            raise FieldError("inversion of zero in Fp12")
        self._ensure_tables()
        out = self._ffi.new("u64[48]")
        counts = self._ffi.new("u64[12]")
        self._lib.kern_final_exp(self._ctx, self._fp12_buf(f), out, counts)
        self._apply_counts(counts, apply_registry_sparse=False)
        return self._fp12_value(out)

    def fp12_inverse(self, f):
        """The final exponentiation's C inverse of a nonzero ``f``, uncounted.

        Exposed for the differential test against :meth:`Fp12.inverse`.
        """
        if f.is_zero():
            raise FieldError("inversion of zero in Fp12")
        self._ensure_tables()
        out = self._ffi.new("u64[48]")
        self._lib.kern_fp12_inv_test(self._ctx, self._fp12_buf(f), out)
        return self._fp12_value(out)
