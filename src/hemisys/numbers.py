"""Point counts of the feasibility curves and the prime search.

The existence criterion for the ft family at q is that the elliptic
curve Y^2 = X^3 - X has q-1 or q+3 points over GF(q).  Counts here are
exact character sums, one array expression over every x of GF(q): a
nonzero y is a square in GF(q) when its log is a multiple of step (2 in
GF(q) itself, 2 (|ctx| - 1) / (q - 1) in a field ctx containing it).  The
quartic Y^2 = X^4 - 24w X^2 + 16w^2 (w a non-square) and the cubic
(1/2w) Y^2 = X^3 - X tie the criterion to the generator balance at the
exceptional surface points.

Counting conventions (these make the identities exact):

* N_E3, N_C3: projective counts, one rational point at infinity each.
* N_C4: affine count plus 2 for the two rational branches at infinity
  of its double point; this equals the smooth-model count.
* n_q: the number of x in GF(q) with x^4 - 24w x^2 + 16w^2 a nonzero
  square (the polynomial has no rational root for non-square w).

Then n_q = (N_C4 - 2)/2 and N_C4 + N_E3 = 2q + 2 hold for every odd q;
N_C3 = N_C4 (and so the cubic twist identity N_C3 + N_E3 = 2q + 2, and
n_q = (N_C3 - 2)/2) holds exactly when 2 is a square in GF(q).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .gf import (FieldCtx, InvariantFailed, UsageError, check, factorize, is_prime, make_field,
                 vec_add, vec_mul, vec_neg)


def _chi(ctx: FieldCtx, y: np.ndarray, step: int = 2) -> np.ndarray:
    """Quadratic character, chi(0) = 0, on an array of ctx's elements that lie in the
    subfield whose nonzero squares have logs divisible by step."""
    return np.where(y == 0, 0, np.where(ctx.log_np[y] % step == 0, 1, -1))


def _cubic(ctx: FieldCtx, x: np.ndarray) -> np.ndarray:
    """x^3 - x over the elements x of ctx."""
    return vec_add(ctx, vec_mul(ctx, x, vec_mul(ctx, x, x)), vec_neg(ctx, x))


def count_E3(ctx: FieldCtx, q: int | None = None) -> int:
    """Projective |{Y^2 = X^3 - X}| = 1 + q + sum chi(x^3 - x) over the subfield GF(q)
    of ctx (default: ctx), whose units are the powers of g^((|ctx| - 1) / (q - 1))."""
    q = ctx.order if q is None else q
    n1 = ctx.order - 1
    xs = np.append(ctx.exp_np[:n1:n1 // (q - 1)], 0)
    return 1 + q + int(_chi(ctx, _cubic(ctx, xs), 2 * n1 // (q - 1)).sum())


@dataclass
class CountRecord:
    q: int
    omega: int
    N_E3: int
    N_C3: int
    N_C4: int
    n_q: int
    two_square: bool

    def hasse_ok(self) -> bool:
        return (abs(self.N_E3 - (self.q + 1)) <= 2 * math.sqrt(self.q)
                and abs(self.N_C3 - (self.q + 1)) <= 2 * math.sqrt(self.q)
                and abs(self.N_C4 - (self.q + 1)) <= 2 * math.sqrt(self.q))

    def identities_ok(self) -> bool:
        ok = self.n_q == (self.N_C4 - 2) // 2 and (self.N_C4 - 2) % 2 == 0
        ok &= self.N_C4 + self.N_E3 == 2 * self.q + 2
        if self.two_square:
            ok &= self.N_C3 == self.N_C4
        else:
            ok &= self.N_C3 == self.N_E3
        return ok


def count_C3_C4(ctx_q: FieldCtx, omega: int) -> CountRecord:
    """Counts of the quartic/cubic pair for a non-square omega."""
    if ctx_q.is_square(omega):
        raise UsageError(f"{omega} is a square")
    q = ctx_q.order
    x = np.arange(q, dtype=np.int64)
    x2 = vec_mul(ctx_q, x, x)
    c24 = ctx_q.mul(24 % ctx_q.p, omega)
    c16 = ctx_q.mul(16 % ctx_q.p, ctx_q.mul(omega, omega))
    f = vec_add(ctx_q, vec_mul(ctx_q, x2, vec_add(ctx_q, x2, ctx_q.neg(c24))), c16)
    check(bool(f.all()), "the quartic has a rational root at a non-square omega")
    n_q = int((_chi(ctx_q, f) == 1).sum())
    two_omega = ctx_q.mul(2 % ctx_q.p, omega)
    n_c3 = 1 + q + int(_chi(ctx_q, vec_mul(ctx_q, two_omega, _cubic(ctx_q, x))).sum())
    return CountRecord(q=q, omega=omega, N_E3=count_E3(ctx_q), N_C3=n_c3, N_C4=2 * n_q + 2,
                       n_q=n_q, two_square=ctx_q.is_square(2 % ctx_q.p))


def condition_B_holds(q: int, ctx: FieldCtx | None = None) -> bool:
    """Feasibility criterion: N_q(E3) is q-1 or q+3; ctx, if given, contains GF(q)."""
    return count_E3(ctx or _field_of_order(q), q) in (q - 1, q + 3)


def prime_power(q: int):
    """(p, h) with q = p^h for a prime p, or None when q is no prime power."""
    fs = factorize(q) if q >= 2 else {}
    return next(iter(fs.items())) if len(fs) == 1 else None


def _field_of_order(q: int) -> FieldCtx:
    ph = prime_power(q)
    if ph is None:
        raise UsageError(f"{q} is not a prime power")
    return make_field(*ph)


# ---------------------------------------------------------------------------
# Gaussian integers

@dataclass
class GaussDecomp:
    p: int
    alpha1: int
    alpha2: int

    def check(self) -> bool:
        return self.alpha1 ** 2 + self.alpha2 ** 2 == self.p


def _divisible_in_zi(a, b):
    """(a) divisible by (b) in Z[i]; a, b as (re, im)."""
    ar, ai = a
    br, bi = b
    nb = br * br + bi * bi
    re = ar * br + ai * bi
    im = ai * br - ar * bi
    return re % nb == 0 and im % nb == 0


def gauss_alpha1(p: int) -> GaussDecomp:
    """p = alpha1^2 + alpha2^2 normalized by pi = 1 mod (-2+2i).

    With this normalization p + 1 - 2*alpha1 is the projective count of
    Y^2 = X^3 - X over GF(p).
    """
    if p % 4 != 1 or not is_prime(p):
        raise UsageError(f"{p} is not a prime = 1 mod 4")
    base = None
    for a in range(1, math.isqrt(p) + 1):
        b2 = p - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            base = (a, b)
            break
    check(base is not None, f"no two-square decomposition of {p}")
    a, b = base
    for re, im in ((a, b), (a, -b), (-a, b), (-a, -b),
                   (b, a), (b, -a), (-b, a), (-b, -a)):
        if _divisible_in_zi((re - 1, im), (-2, 2)):
            return GaussDecomp(p=p, alpha1=re, alpha2=im)
    raise InvariantFailed(f"no normalized Gaussian factor for {p}")


# ---------------------------------------------------------------------------
# prime search and survey

def search_primes(maximum: int) -> list:
    """Ascending primes of the form 1 + 16 n^2 up to the bound."""
    out = []
    n = 1
    while 1 + 16 * n * n <= maximum:
        v = 1 + 16 * n * n
        if is_prime(v):
            out.append(v)
        n += 1
    return out


@dataclass
class SurveyRow:
    q: int
    N_E3: int
    condition_B: bool
    p_mod_8: int
    q_square: bool


def survey_row(q: int) -> SurveyRow:
    ctx = _field_of_order(q)
    n = count_E3(ctx)
    h = ctx.d
    return SurveyRow(q=q, N_E3=n, condition_B=n in (q - 1, q + 3),
                     p_mod_8=ctx.p % 8, q_square=h % 2 == 0)


def survey(q_list) -> list:
    qs = list(q_list)
    for q in qs:
        if q % 4 != 1:
            raise UsageError(f"survey requires q = 1 mod 4, got {q}")
    return [survey_row(q) for q in qs]
