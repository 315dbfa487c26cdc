"""Point counts of the feasibility curves and the prime search.

The existence criterion for the ft family at q is that the elliptic
curve Y^2 = X^3 - X has q-1 or q+3 points over GF(q).  Counts here are
exact brute force via the quadratic character; the quartic
Y^2 = X^4 - 24w X^2 + 16w^2 (w a non-square) and the cubic
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

from .gf import FieldCtx, make_field, is_prime


class OmegaIsSquare(ValueError):
    pass


class NotOneModFour(ValueError):
    pass


class NotPrimePower(ValueError):
    pass


class CountInvariantFailed(RuntimeError):
    """A number-theoretic identity failed: a bug, not input."""


def _check(ok: bool, what: str) -> None:
    """Raise CountInvariantFailed(what) unless ok; python -O keeps it, unlike assert."""
    if not ok:
        raise CountInvariantFailed(what)


def _chi(ctx: FieldCtx, x: int) -> int:
    """Quadratic character with chi(0) = 0."""
    if x == 0:
        return 0
    return 1 if ctx.is_square(x) else -1


def count_E3(ctx: FieldCtx, q: int | None = None) -> int:
    """Projective |{Y^2 = X^3 - X}| over the subfield GF(q) of ctx (default: ctx).

    A y in GF(q)* is a square there iff its log in ctx is a multiple of
    2 (|ctx| - 1) / (q - 1).
    """
    q = ctx.order if q is None else q
    step = 2 * (ctx.order - 1) // (q - 1)
    n = 1
    for x in range(ctx.order):
        if ctx.pow(x, q) == x:
            x3x = ctx.sub(ctx.mul(x, ctx.mul(x, x)), x)
            n += 1 if x3x == 0 else 2 * int(ctx.log_np[x3x] % step == 0)   # 1 + chi
    return n


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
        raise OmegaIsSquare(f"{omega} is a square")
    q = ctx_q.order
    w2 = ctx_q.mul(omega, omega)
    c24 = ctx_q.mul(24 % ctx_q.p, omega)
    c16 = ctx_q.mul(16 % ctx_q.p, w2)
    n_q = 0
    n_c4_affine = 0
    for x in range(q):
        x2 = ctx_q.mul(x, x)
        f = ctx_q.add(ctx_q.sub(ctx_q.mul(x2, x2), ctx_q.mul(c24, x2)), c16)
        ch = _chi(ctx_q, f)
        _check(f != 0, "the quartic has a rational root at a non-square omega")
        if ch == 1:
            n_q += 1
            n_c4_affine += 2
    two_omega = ctx_q.mul(2 % ctx_q.p, omega)
    n_c3 = 1
    for x in range(q):
        x3x = ctx_q.sub(ctx_q.mul(x, ctx_q.mul(x, x)), x)
        n_c3 += 1 + _chi(ctx_q, ctx_q.mul(two_omega, x3x))
    rec = CountRecord(q=q, omega=omega, N_E3=count_E3(ctx_q), N_C3=n_c3,
                      N_C4=n_c4_affine + 2, n_q=n_q,
                      two_square=ctx_q.is_square(2 % ctx_q.p))
    return rec


def condition_B_holds(q: int, ctx: FieldCtx | None = None) -> bool:
    """Feasibility criterion: N_q(E3) is q-1 or q+3; ctx, if given, contains GF(q)."""
    return count_E3(ctx or _field_of_order(q), q) in (q - 1, q + 3)


def prime_power(q: int):
    """(p, h) with q = p^h for a prime p, or None when q is no prime power."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    h = 0
    while q % p == 0:
        q //= p
        h += 1
    return (p, h) if q == 1 else None


def _field_of_order(q: int) -> FieldCtx:
    ph = prime_power(q)
    if ph is None:
        raise NotPrimePower(f"{q} is not a prime power")
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
        raise NotOneModFour(f"{p} is not a prime = 1 mod 4")
    base = None
    for a in range(1, math.isqrt(p) + 1):
        b2 = p - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            base = (a, b)
            break
    _check(base is not None, f"no two-square decomposition of {p}")
    a, b = base
    for re, im in ((a, b), (a, -b), (-a, b), (-a, -b),
                   (b, a), (b, -a), (-b, a), (-b, -a)):
        if _divisible_in_zi((re - 1, im), (-2, 2)):
            return GaussDecomp(p=p, alpha1=re, alpha2=im)
    raise CountInvariantFailed(f"no normalized Gaussian factor for {p}")


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
            raise NotOneModFour(f"survey requires q = 1 mod 4, got {q}")
    return [survey_row(q) for q in qs]
