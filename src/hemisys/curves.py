"""Embedded maximal curves on the Hermitian surface and their chord sets.

Two families:

* the rational normal curve (1, t, t^q, t^(q+1)) in the diagonal frame,
* the Fuhrmann-Torres pair X+/X- in the ft frame, images of the plane
  curves y^q z - y z^q = +-x^((q+1)/2) under (z^2, xz, yz, y^2).

GF(q^2)-rational points split into Omega (the conic section in the plane
X1 = 0) and Delta+/Delta-, found by array code over every v off GF(q) at
once: the roots of u^((q+1)/2) = +-(v^q - v) are read off the log table.
Imaginary chords join a GF(q^4)-point of the curve to its q^2-Frobenius
conjugate; they are generators of the surface disjoint from the rational
points and supply the H part of a hemisystem.
The curve-meeting half-orbits are unions of pencils: the half-orbit's
lines through one base point of the curve, moved to every other point by
one group element each (cp_half_orbits, m2_half_orbit).  join_keys turns
chords and pencils alike into sorted, distinct, counted keys.

GF(q^4) is never built.  Its elements are pairs t = a + b sqrt(nu) over
GF(q^2), nu the digit-lex smallest non-square of GF(q^2), and with
kappa = nu^((q-1)/2):

* t^q = a^q + b^q kappa sqrt(nu) and t^(q^2) = a - b sqrt(nu);
* a curve point A + sqrt(nu) B, A and B over GF(q^2), and its conjugate
  A - sqrt(nu) B span the GF(q^2)-line <A, B>: that line is the chord.

A broken internal identity raises gf.InvariantFailed through gf.check,
which python -O keeps, unlike assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import FieldCtx, UsageError, check, make_field, vec_add, vec_mul, vec_neg
from . import pg3
from .pg3 import HermitianFrame


# ---------------------------------------------------------------------------
# GF(q^4) = GF(q^2)[sqrt(nu)]: pairs of GF(q^2) arrays

def _tower(ctx2: FieldCtx) -> tuple:
    """(q, y -> y^q table, nu the digit-lex smallest non-square, kappa = nu^((q-1)/2))."""
    q = ctx2.p ** (ctx2.d // 2)
    nu = next(x for x in ctx2.elements_by_rank() if not ctx2.is_square(x))
    return q, ctx2.frob_np(ctx2.d // 2), nu, ctx2.pow(nu, (q - 1) // 2)


def _off_subfield(ctx2: FieldCtx):
    """Blocks (a, b) of up to pg3.BLOCK_ROWS pairs (one b at least), over every a and
    one b of each pair +-b != 0.

    a + b sqrt(nu) then runs over one element of each conjugate pair
    {t, t^(q^2)} of GF(q^4) off GF(q^2).
    """
    a = np.arange(ctx2.order, dtype=np.int64)
    bs = a[1:][ctx2.rank_np[a[1:]] < ctx2.rank_np[ctx2.neg_np[a[1:]]]]
    for b in np.split(bs, range(step := max(1, pg3.BLOCK_ROWS // ctx2.order), len(bs), step)):
        yield np.tile(a, len(b)), np.repeat(b, ctx2.order)


def _tower_mul(ctx2: FieldCtx, nu: int, x: tuple, y: tuple) -> tuple:
    """(a + b sqrt(nu)) (c + d sqrt(nu)) = (ac + nu bd) + (ad + bc) sqrt(nu)."""
    (a, b), (c, d) = x, y
    return (vec_add(ctx2, vec_mul(ctx2, a, c), vec_mul(ctx2, nu, vec_mul(ctx2, b, d))),
            vec_add(ctx2, vec_mul(ctx2, a, d), vec_mul(ctx2, b, c)))


def _tower_pow(ctx2: FieldCtx, nu: int, x: tuple, n: int) -> tuple:
    """x^n for n >= 1, by square-and-multiply from the top bit of n down."""
    out = x
    for bit in bin(n)[3:]:
        out = _tower_mul(ctx2, nu, out, out)
        if bit == "1":
            out = _tower_mul(ctx2, nu, out, x)
    return out


def join_keys(ctx2: FieldCtx, pencils, expect: int, what: str) -> np.ndarray:
    """Sorted distinct keys of the lines <A, B> for each (A, B) of pencils (any
    iterable), A and B four coordinates (arrays or ints) that broadcast together,
    joined about pg3.BLOCK_ROWS pairs at a time: only the int64 line codes span
    all of them.  Raises gf.InvariantFailed unless they are expect distinct lines."""
    codes = []
    for A, B in pencils:
        cols = np.broadcast_arrays(*A, *B)
        step = max(1, pg3.BLOCK_ROWS * len(cols[0]) // max(1, cols[0].size))   # leading rows
        for lo in range(0, len(cols[0]), step):
            rows = np.stack([c[lo:lo + step] for c in cols], axis=-1).reshape(-1, 8)
            codes.append(pg3.line_codes(ctx2, pg3.line_keys_batch(ctx2, rows[:, :4], rows[:, 4:])))
    out = pg3.code_keys(ctx2, pg3.unique(np.concatenate(codes)))
    check(len(out) == expect, f"{len(out)} {what}, expected {expect}")
    return out


def cp_imaginary_chords(ctx2: FieldCtx) -> np.ndarray:
    """Chord keys of the rational curve: (q^2+q)(q^2-q)/2 generators.

    The point at t = a + b sqrt(nu) is A + sqrt(nu) B with
    A = (1, a, a^q, a^(q+1) + nu kappa b^(q+1)) and
    B = (0, b, kappa b^q, kappa a b^q + a^q b).
    """
    q, frob, nu, kappa = _tower(ctx2)

    def chords():
        for a, b in _off_subfield(ctx2):
            aq, kbq = frob[a], vec_mul(ctx2, kappa, frob[b])
            yield ((1, a, aq, vec_add(ctx2, vec_mul(ctx2, a, aq),
                                      vec_mul(ctx2, vec_mul(ctx2, nu, b), kbq))),
                   (0, b, kbq, vec_add(ctx2, vec_mul(ctx2, a, kbq), vec_mul(ctx2, aq, b))))

    return join_keys(ctx2, chords(), (q * q + q) * (q * q - q) // 2, "imaginary chords")


def cp_half_orbits(ctx2: FieldCtx, x0: int) -> tuple:
    """PSL(2, q^2)'s two half-orbits on the (q+1)(q^2+1) generators meeting the
    rational curve, each a union of q^2+1 pencils of (q+1)/2 lines.

    The generators through (0,0,0,1) are <(0,0,0,1), (0,1,x,0)> with
    x^(q+1) = -1, x = x0 g^((q-1)k).  The stabilizer t -> a^2 t + b of t = oo
    multiplies x by a^(2(q-1)), so even k (with x0) and odd k are its halves.
    h_c: t -> c - 1/t, in PSL(2, q^2), moves both to the curve point
    (1, c, c^q, c^(q+1)), sending (0,1,x,0) to (0, x, 1, c + c^q x).
    Returns (even k's half-orbit, odd k's).
    """
    q = ctx2.p ** (ctx2.d // 2)
    c = np.arange(ctx2.order, dtype=np.int64)[:, None]
    cq = ctx2.frob_np(ctx2.d // 2)[c]
    x = vec_mul(ctx2, x0, ctx2.exp_np[(q - 1) * np.arange(q + 1)])
    return tuple(join_keys(ctx2, [((1, c, cq, vec_mul(ctx2, c, cq)),
                                   (0, xk, 1, vec_add(ctx2, c, vec_mul(ctx2, cq, xk)))),
                                  ((0, 0, 0, 1), (0, 1, xk, 0))],
                           (q + 1) * (q * q + 1) // 2, "lines in a cp half-orbit")
                 for xk in (x[0::2], x[1::2]))


# ---------------------------------------------------------------------------
# Fuhrmann-Torres point sets

@dataclass
class CurvePointSets:
    """Rational points of the embedded pair: Omega and the two Delta sets."""

    omega: np.ndarray
    delta_plus: np.ndarray
    delta_minus: np.ndarray


def subfield_elements(ctx2: FieldCtx) -> np.ndarray:
    h = ctx2.d // 2
    xs = np.arange(ctx2.order, dtype=np.int64)
    return xs[ctx2.frob_np(h)[xs] == xs]


def ft_point_sets(ctx2: FieldCtx) -> CurvePointSets:
    """Omega, Delta+ and Delta- for q = p^h = sqrt(|ctx2|), q = 1 mod 4, as sorted
    packed arrays.

    Delta+ holds (1, u, v, v^2) for v off GF(q) and the (q+1)/2 roots u of
    u^((q+1)/2) = c = v^q - v; they are g^(log c / m + k (|ctx2| - 1) / m),
    m = (q+1)/2, and Delta- takes the roots for -c.
    """
    h = ctx2.d // 2
    q = ctx2.p ** h
    if q % 4 != 1:
        raise UsageError(f"q = {q} is not 1 mod 4")
    m = (q + 1) // 2
    n1 = ctx2.order - 1
    xs = np.arange(ctx2.order, dtype=np.int64)
    frob = ctx2.frob_np(h)
    ys, v = xs[frob == xs], xs[frob != xs]
    omega = pg3.norm_pack_batch(
        ctx2, np.ones_like(ys), np.zeros_like(ys), ys, vec_mul(ctx2, ys, ys))
    omega = pg3.unique(np.concatenate(
        [omega, [pg3.pack_point(ctx2, (0, 0, 0, 1))]]))
    check(len(omega) == q + 1, f"{len(omega)} points in Omega")

    c = vec_add(ctx2, frob[v], vec_neg(ctx2, v))                     # v^q - v
    v, v2 = np.repeat(v, m), np.repeat(vec_mul(ctx2, v, v), m)
    deltas = []
    for rhs, what in ((c, "u^((q+1)/2) = v^q - v"), (vec_neg(ctx2, c), "s^((q+1)/2) = v - v^q")):
        lc = ctx2.log_np[rhs]
        check(bool((lc % m == 0).all()), f"{what} has not (q+1)/2 solutions")
        u = ctx2.exp_np[(lc[:, None] // m + n1 // m * np.arange(m)) % n1].ravel()
        deltas.append(pg3.unique(pg3.norm_pack_batch(ctx2, np.ones_like(u), u, v, v2)))
    dp, dm = deltas
    expect = (q ** 3 - q) // 2
    check(len(dp) == expect and len(dm) == expect,
          f"{len(dp)} and {len(dm)} points in Delta+ and Delta-, expected {expect}")
    check(not (pg3.member(dp, omega).any() or pg3.member(dm, omega).any()
               or pg3.member(dm, dp).any()), "Omega, Delta+ and Delta- overlap")
    return CurvePointSets(omega, dp, dm)


def ft_imaginary_chords(ctx2: FieldCtx) -> np.ndarray:
    """Chord keys of X+ over GF(q^4): q(q+1)(q^2-1)/4 generators.

    With x = xa + xb sqrt(nu), y = ya + yb sqrt(nu) and x^((q+1)/2) =
    c0 + c1 sqrt(nu), the curve equation y^q - y = x^((q+1)/2) splits into
    ya^q - ya = c0 (q solutions or none, read off a sorted table) and
    kappa yb^q - yb = c1 (a bijection, as kappa^(q+1) = -1).  A point with
    xb = 0 has yb = 0 and is rational, so x runs over _off_subfield: one
    point of each conjugate pair.  Its chord is <A, B> with
    A = (1, xa, ya, ya^2 + nu yb^2) and B = (0, xb, yb, 2 ya yb).
    """
    q, frob, nu, kappa = _tower(ctx2)
    ys = np.arange(ctx2.order, dtype=np.int64)
    zs = vec_add(ctx2, frob, vec_neg(ctx2, ys))                        # y^q - y
    order = np.argsort(zs, kind="stable")
    zs_sorted = zs[order]
    lin = vec_add(ctx2, vec_mul(ctx2, kappa, frob), vec_neg(ctx2, ys))  # kappa y^q - y
    lin_inv = np.full(ctx2.order, -1, dtype=np.int64)
    lin_inv[lin] = ys
    check((lin_inv >= 0).all(), "kappa y^q - y is not a bijection")

    expect_pts = (q * q + q) * (q * q - q - (q - 1) ** 2 // 2)        # genus g = (q-1)^2/4

    def chords():
        pairs = 0
        for xa, xb in _off_subfield(ctx2):
            c0, c1 = _tower_pow(ctx2, nu, (xa, xb), (q + 1) // 2)
            lo = np.searchsorted(zs_sorted, c0, side="left")
            counts = np.searchsorted(zs_sorted, c0, side="right") - lo
            sel = counts > 0
            check((counts[sel] == q).all(), "a value of y^q - y has other than q preimages")
            ya = order[lo[sel, None] + np.arange(q)].ravel()
            xa, xb, yb = (np.repeat(v[sel], q) for v in (xa, xb, lin_inv[c1]))
            pairs += len(ya)
            yield ((1, xa, ya, vec_add(ctx2, vec_mul(ctx2, ya, ya),
                                       vec_mul(ctx2, nu, vec_mul(ctx2, yb, yb)))),
                   (0, xb, yb, vec_mul(ctx2, 2 % ctx2.p, vec_mul(ctx2, ya, yb))))
        check(2 * pairs == expect_pts,
              f"{pairs} conjugate pairs of points of X+ off GF(q^2), expected {expect_pts // 2}")

    return join_keys(ctx2, chords(), expect_pts // 2, "imaginary chords")


def m2_half_orbit(fr: FTFrame, eps: int) -> np.ndarray:
    """H's half-orbit M2 of <O, P_eps>, O = (1,0,0,0): (q+1)^2/2 generators
    meeting Omega, a union of q+1 pencils of (q+1)/2 lines.

    Through O it is <O, (0,y,1,0)> for y in y0 <g^(2(q-1))>, y0 = eps sqrt(-2)
    the direction of P_eps, as L_lam scales y by lam.  T_a (a in GF(q)) moves
    it to (1,0,a,a^2), sending (0,y,1,0) to (0,y,1,2a), and N_sigma0
    (sigma0 = g^(q-1)) to (0,0,0,1), sending (0,y,1,0) to (0,sigma0 y,1,0).
    """
    ctx2, q = fr.ctx2, fr.q
    y0 = fr.sqrtm2 if eps == 1 else ctx2.neg(fr.sqrtm2)
    y = vec_mul(ctx2, y0, ctx2.exp_np[2 * (q - 1) * np.arange((q + 1) // 2)])
    a = subfield_elements(ctx2)[:, None]
    two_a = vec_mul(ctx2, 2 % ctx2.p, a)
    return join_keys(ctx2, [((1, 0, a, vec_mul(ctx2, a, a)), (0, y, 1, two_a)),
                            ((0, 0, 0, 1), (0, vec_mul(ctx2, ctx2.exp_np[q - 1], y), 1, 0))],
                     (q + 1) ** 2 // 2, "lines in the M2 half-orbit")


# ---------------------------------------------------------------------------
# the ft frame constants

@dataclass
class FTFrame:
    """Frame constants for the Fuhrmann-Torres construction at q = p^h.

    Everything lives in ctx2 = GF(q^2); the chords reach GF(q^4) as the
    tower GF(q^2)[sqrt(nu)] and need no tables of their own.
    """

    p: int
    h: int
    eps: int
    ctx2: FieldCtx
    frame: HermitianFrame
    b: int
    omega: int
    j: int
    sqrt2: int
    sqrtm2: int
    chi: int

    @property
    def q(self) -> int:
        return self.p ** self.h

    def in_gfq(self, x: int) -> bool:
        return self.ctx2.frobenius(x, self.h) == x

    def chi_q(self, x: int) -> int:
        """Quadratic character of GF(q) evaluated inside GF(q^2)."""
        if x == 0:
            return 0
        v = self.ctx2.pow(x, (self.q - 1) // 2)
        if v == 1:
            return 1
        check(v == self.ctx2.neg(1), f"x^((q-1)/2) = {v} is not +-1 for x = {x}")
        return -1

    def p_eps(self, eps: int = None) -> tuple:
        """The tangency-line point (1, eps*sqrt(-2)*b, b, 0)."""
        e = self.eps if eps is None else eps
        c = self.ctx2
        a = c.mul(self.sqrtm2, self.b)
        if e < 0:
            a = c.neg(a)
        return (1, a, self.b, 0)


def ft_frame_setup(p: int, h: int = 1, eps: int = 1) -> FTFrame:
    """Build the frame constants; requires q = 1 mod 4 and 2 a square in GF(q)."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    q = p ** h
    if q % 4 != 1:
        raise UsageError(f"q = {q} is not 1 mod 4")
    ctx2 = make_field(p, 2 * h)
    two = 2 % p
    if ctx2.pow(two, (q - 1) // 2) != 1:
        raise UsageError(f"2 is a non-square in GF({q})")
    # smallest non-square of GF(q) in digit-lex order
    omega = None
    neg1 = ctx2.neg(1)
    for x in ctx2.elements_by_rank():
        if x and ctx2.frobenius(x, h) == x and ctx2.pow(x, (q - 1) // 2) == neg1:
            omega = x
            break
    b = ctx2.sqrt(omega)
    check(b is not None and ctx2.mul(b, b) == omega and ctx2.frobenius(b, h) == ctx2.neg(b),
          "b = sqrt(omega) is not a square root with b^q = -b")
    j = ctx2.pow(b, (q - 1) // 2)
    check(ctx2.mul(j, j) == neg1 and ctx2.frobenius(j, h) == j, "j is not a sqrt(-1) in GF(q)")
    sqrt2 = ctx2.sqrt(two)
    check(ctx2.frobenius(sqrt2, h) == sqrt2, "sqrt(2) is not in GF(q)")
    sqrtm2 = ctx2.mul(j, sqrt2)
    check(ctx2.mul(sqrtm2, sqrtm2) == ctx2.neg(two), "sqrt(-2)^2 is not -2")
    frame = pg3.ft_frame(ctx2)

    # chi solves chi = eps * (2 - chi*sqrt2)^((q-1)/2); exactly one value works
    def char(x):
        v = ctx2.pow(x, (q - 1) // 2)
        return 1 if v == 1 else -1

    chis = [c for c in (1, -1)
            if eps * char(ctx2.sub(two, sqrt2 if c == 1 else ctx2.neg(sqrt2))) == c]
    check(len(chis) == 1, f"{len(chis)} values of chi satisfy the sign identity")
    return FTFrame(p=p, h=h, eps=eps, ctx2=ctx2, frame=frame, b=b, omega=omega, j=j,
                   sqrt2=sqrt2, sqrtm2=sqrtm2, chi=chis[0])
