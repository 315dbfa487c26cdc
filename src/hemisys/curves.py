"""Embedded maximal curves on the Hermitian surface and their chord sets.

Two families:

* the rational normal curve (1, t, t^q, t^(q+1)) in the diagonal frame,
* the Fuhrmann-Torres pair X+/X- in the ft frame, images of the plane
  curves y^q z - y z^q = +-x^((q+1)/2) under (z^2, xz, yz, y^2).

GF(q^2)-rational points split into Omega (the conic section in the plane
X1 = 0) and Delta+/Delta-.  Imaginary chords join a GF(q^4)-point of the
curve to its q^2-Frobenius conjugate; they are generators of the surface
disjoint from the rational points and supply the H part of a hemisystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf import FieldCtx, make_field, embed_subfield, vec_add, vec_mul, vec_neg
from . import pg3
from .pg3 import HermitianFrame


class BadCongruence(ValueError):
    pass


class TwoNotSquare(ValueError):
    pass


class NotGenerator(ValueError):
    pass


class ProjectionUndefined(ValueError):
    pass


class TraceLeftSubfield(RuntimeError):
    """A chord trace fell outside GF(q^2): a bug, not input."""


G2_MEETS_OMEGA = "G2_MEETS_OMEGA"
G1_MEETS_DELTAS = "G1_MEETS_DELTAS"
DISJOINT = "DISJOINT"

RATIONAL_SUBPLANE = "RATIONAL_SUBPLANE"
TYPE_I = "TYPE_I"
TYPE_II = "TYPE_II"
TYPE_III = "TYPE_III"


# ---------------------------------------------------------------------------
# rational curve (diagonal frame)

def cp_curve_points(ctx2: FieldCtx) -> np.ndarray:
    """Packed points (1, t, t^q, t^(q+1)) plus (0,0,0,1); q^2+1 in total."""
    h = ctx2.d // 2
    ts = np.arange(ctx2.order, dtype=np.int64)
    tq = ctx2.frob_np(h)[ts]
    ones = np.ones_like(ts)
    pts = pg3.norm_pack_batch(ctx2, ones, ts, tq, vec_mul(ctx2, ts, tq))
    inf = np.asarray([pg3.pack_point(ctx2, (0, 0, 0, 1))], dtype=np.int64)
    out = np.unique(np.concatenate([pts, inf]))
    assert len(out) == ctx2.order + 1
    return out


def cp_curve_coords_q4(ctx2: FieldCtx, ctx4: FieldCtx, emb) -> tuple:
    """Coordinate arrays over GF(q^4) of all A(t), t in GF(q^4), plus A(inf)."""
    h = ctx2.d // 2
    ts = np.arange(ctx4.order, dtype=np.int64)
    tq = ctx4.frob_np(h)[ts]
    c0 = np.ones_like(ts)
    c3 = vec_mul(ctx4, ts, tq)
    c0 = np.concatenate([c0, [0]])
    c1 = np.concatenate([ts, [0]])
    c2 = np.concatenate([tq, [0]])
    c3 = np.concatenate([c3, [1]])
    return c0, c1, c2, c3


# ---------------------------------------------------------------------------
# conjugate-pair chords: GF(q^4) point pairs -> GF(q^2) line keys

def conj_pair_line_keys(ctx2: FieldCtx, ctx4: FieldCtx, inv_emb, coords) -> np.ndarray:
    """Canonical GF(q^2) line keys of lines P -- Phi(P) for GF(q^4) points P.

    coords are four (n,) arrays over ctx4; each row must be a point off the
    GF(q^2) subgeometry.  mu*P + (mu*P)^Frobenius is a rational point of the
    chord for each mu, and mu = 1, gen lie in distinct cosets of GF(q^2)*,
    so their two points span it.
    """
    frob2 = ctx4.frob_np(ctx4.d // 2)
    spans = []
    for mu in (1, ctx4.gen):
        m = vec_mul(ctx4, mu, np.stack(coords, axis=1))
        small = inv_emb[vec_add(ctx4, m, frob2[m])]
        if (small < 0).any():
            raise TraceLeftSubfield("trace left the GF(q^2) image")
        spans.append(small)
    return pg3.line_keys_batch(ctx2, *spans)


def _dedupe_conjugate(ctx4: FieldCtx, coords) -> tuple:
    """Keep one representative of each {P, Phi(P)} pair (rank-min rule)."""
    h2 = ctx4.d // 2
    frob2 = ctx4.frob_np(h2)
    rank = ctx4.rank_np
    # lexicographic compare of (c0..c3) ranks against the conjugate's
    cmp = np.zeros(len(coords[0]), dtype=np.int8)
    for c in coords:
        rc = rank[c]
        rfc = rank[frob2[c]]
        upd = cmp == 0
        cmp = np.where(upd & (rc < rfc), -1, cmp)
        cmp = np.where(upd & (rc > rfc), 1, cmp)
    assert not np.any(cmp == 0), "self-conjugate point in chord enumeration"
    keep = cmp < 0
    return tuple(c[keep] for c in coords)


def cp_imaginary_chords(ctx2: FieldCtx, ctx4: FieldCtx, emb, inv_emb) -> np.ndarray:
    """Chord keys of the rational curve: (q^2+q)(q^2-q)/2 generators."""
    q = ctx2.p ** (ctx2.d // 2)
    h = ctx2.d // 2
    ts = np.arange(ctx4.order, dtype=np.int64)
    ts = ts[inv_emb[ts] < 0]          # t in GF(q^4) \ GF(q^2)
    tq = ctx4.frob_np(h)[ts]
    coords = (np.ones_like(ts), ts, tq, vec_mul(ctx4, ts, tq))
    coords = _dedupe_conjugate(ctx4, coords)
    keys = conj_pair_line_keys(ctx2, ctx4, inv_emb, coords)
    out = np.unique(keys, axis=0)
    assert len(out) == (q * q + q) * (q * q - q) // 2
    return out


# ---------------------------------------------------------------------------
# Fuhrmann-Torres point sets

@dataclass
class CurvePointSets:
    """Rational points of the embedded pair: Omega and the two Delta sets."""

    omega: np.ndarray
    delta_plus: np.ndarray
    delta_minus: np.ndarray
    uv_plus: dict = field(repr=False, default_factory=dict)
    st_minus: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self.omega_set = frozenset(int(x) for x in self.omega)
        self.plus_set = frozenset(int(x) for x in self.delta_plus)
        self.minus_set = frozenset(int(x) for x in self.delta_minus)

    @property
    def rational_plus(self) -> frozenset:
        return self.omega_set | self.plus_set


def subfield_elements(ctx2: FieldCtx) -> np.ndarray:
    h = ctx2.d // 2
    xs = np.arange(ctx2.order, dtype=np.int64)
    return xs[ctx2.frob_np(h)[xs] == xs]


def ft_point_sets(ctx2: FieldCtx) -> CurvePointSets:
    """Omega, Delta+ and Delta- for q = p^h = sqrt(|ctx2|), q = 1 mod 4."""
    h = ctx2.d // 2
    q = ctx2.p ** h
    if q % 4 != 1:
        raise BadCongruence(f"q = {q} is not 1 mod 4")
    m = (q + 1) // 2
    sub = subfield_elements(ctx2)
    ys = sub
    omega = pg3.norm_pack_batch(
        ctx2, np.ones_like(ys), np.zeros_like(ys), ys, vec_mul(ctx2, ys, ys))
    omega = np.unique(np.concatenate(
        [omega, [pg3.pack_point(ctx2, (0, 0, 0, 1))]]))
    assert len(omega) == q + 1

    frob_h = ctx2.frob_np(h)
    uv_plus: dict = {}
    st_minus: dict = {}
    plus_rows = []
    minus_rows = []
    sub_set = set(int(x) for x in sub)
    for v in range(ctx2.order):
        if v in sub_set:
            continue
        c = ctx2.sub(int(frob_h[v]), v)           # v^q - v
        us = ctx2.power_residue_solutions(c, m)
        assert len(us) == m, "missing (q+1)/2 solutions"
        v2 = ctx2.mul(v, v)
        for u in us:
            plus_rows.append((1, u, v, v2))
        cs = ctx2.neg(c)                          # t - t^q with t = v
        ss = ctx2.power_residue_solutions(cs, m)
        assert len(ss) == m
        for s in ss:
            minus_rows.append((1, s, v, v2))
    plus_arr = np.asarray(plus_rows, dtype=np.int64)
    minus_arr = np.asarray(minus_rows, dtype=np.int64)
    dp = pg3.norm_pack_batch(ctx2, plus_arr[:, 0], plus_arr[:, 1],
                             plus_arr[:, 2], plus_arr[:, 3])
    dm = pg3.norm_pack_batch(ctx2, minus_arr[:, 0], minus_arr[:, 1],
                             minus_arr[:, 2], minus_arr[:, 3])
    for row, packed in zip(plus_rows, dp):
        uv_plus[int(packed)] = (row[1], row[2])
    for row, packed in zip(minus_rows, dm):
        st_minus[int(packed)] = (row[1], row[2])
    dp = np.unique(dp)
    dm = np.unique(dm)
    expect = (q ** 3 - q) // 2
    assert len(dp) == expect and len(dm) == expect
    sets = CurvePointSets(omega, dp, dm, uv_plus, st_minus)
    assert not (sets.omega_set & sets.plus_set)
    assert not (sets.omega_set & sets.minus_set)
    assert not (sets.plus_set & sets.minus_set)
    return sets


def ft_imaginary_chords(ctx2: FieldCtx, ctx4: FieldCtx, emb, inv_emb) -> np.ndarray:
    """Chord keys of X+ over GF(q^4): q(q+1)(q^2-1)/4 generators."""
    h = ctx2.d // 2
    q = ctx2.p ** h
    m = (q + 1) // 2
    n4 = ctx4.order
    ys = np.arange(n4, dtype=np.int64)
    zs = vec_add(ctx4, ctx4.frob_np(h)[ys], vec_neg(ctx4, ys))   # y^q - y
    order = np.argsort(zs, kind="stable")
    zs_sorted = zs[order]

    xs = ctx4.exp_np[: n4 - 1].copy()                            # all x != 0
    cs = ctx4.exp_np[(ctx4.log_np[xs] * m) % (n4 - 1)]           # x^((q+1)/2)
    lo = np.searchsorted(zs_sorted, cs, side="left")
    hi = np.searchsorted(zs_sorted, cs, side="right")
    counts = hi - lo
    sel = counts > 0
    assert set(np.unique(counts[sel]).tolist()) <= {q}
    xs_rep = np.repeat(xs[sel], counts[sel])
    offs = (np.arange(counts[sel].sum()) -
            np.repeat(np.cumsum(counts[sel]) - counts[sel], counts[sel]))
    ys_rep = order[np.repeat(lo[sel], counts[sel]) + offs]

    rational = (inv_emb[xs_rep] >= 0) & (inv_emb[ys_rep] >= 0)
    xs_rep, ys_rep = xs_rep[~rational], ys_rep[~rational]
    g = (q - 1) ** 2 // 4
    expect_pts = (q * q + q) * (q * q - q - 2 * g)
    assert len(xs_rep) == expect_pts, (len(xs_rep), expect_pts)

    coords = (np.ones_like(xs_rep), xs_rep, ys_rep,
              vec_mul(ctx4, ys_rep, ys_rep))
    coords = _dedupe_conjugate(ctx4, coords)
    keys = conj_pair_line_keys(ctx2, ctx4, inv_emb, coords)
    out = np.unique(keys, axis=0)
    assert len(out) == expect_pts // 2
    return out


# ---------------------------------------------------------------------------
# classification

def classify_generator(frame: HermitianFrame, key, sets: CurvePointSets) -> str:
    ctx = frame.ctx
    A, B = pg3.key_points(ctx, key)
    if not pg3.is_generator(frame, A, B):
        raise NotGenerator(f"line {key} is not a generator")
    pts = set(int(x) for x in pg3.line_points(ctx, A, B))
    n_om = len(pts & sets.omega_set)
    n_p = len(pts & sets.plus_set)
    n_m = len(pts & sets.minus_set)
    assert n_om + n_p <= 1 and n_om + n_m <= 1, "two rational curve points on one generator"
    if n_om:
        return G2_MEETS_OMEGA
    if n_p or n_m:
        assert n_p == 1 and n_m == 1, "generator must meet both Delta sets"
        return G1_MEETS_DELTAS
    return DISJOINT


def _normalize3(ctx: FieldCtx, c) -> tuple:
    for x in c:
        if x:
            s = ctx.inv(x)
            return tuple(ctx.mul(y, s) for y in c)
    raise ProjectionUndefined("projection from the vertex is undefined")


def classify_point_type(ctx2: FieldCtx, P) -> str:
    """Type of a surface point w.r.t. the conic X0 X3 = X2^2 in the plane X1=0.

    Projects from (0,1,0,0); off the Baer subplane the unique GF(q)-line
    through the projection meets the rational conic in 0, 2 or 1 points
    (types I, II, III).
    """
    h = ctx2.d // 2
    q = ctx2.p ** h
    proj = _normalize3(ctx2, (P[0], P[2], P[3]))
    if all(ctx2.frobenius(x, h) == x for x in proj):
        return RATIONAL_SUBPLANE
    conj = tuple(ctx2.frobenius(x, h) for x in proj)
    # GF(q)-rational points of the Baer line through proj and conj
    reps = ctx2.exp_np[: q + 1]
    hits = 0
    for mu in reps:
        mu = int(mu)
        R = tuple(ctx2.add(ctx2.mul(mu, a), ctx2.frobenius(ctx2.mul(mu, a), h))
                  for a in proj)
        if not any(R):
            R = tuple(ctx2.sub(ctx2.mul(mu, a), ctx2.frobenius(ctx2.mul(mu, a), h))
                      for a in proj)
        assert all(ctx2.frobenius(x, h) == x for x in R if x)
        if ctx2.sub(ctx2.mul(R[0], R[2]), ctx2.mul(R[1], R[1])) == 0:
            hits += 1
    return {0: TYPE_I, 2: TYPE_II, 1: TYPE_III}[hits]


# ---------------------------------------------------------------------------
# the ft frame constants

@dataclass
class FTFrame:
    """Frame constants for the Fuhrmann-Torres construction at q = p^h."""

    p: int
    h: int
    eps: int
    ctx2: FieldCtx
    ctx4: FieldCtx
    frame: HermitianFrame
    emb: np.ndarray
    inv_emb: np.ndarray
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
        assert v == self.ctx2.neg(1)
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
        raise BadCongruence(f"q = {q} is not 1 mod 4")
    ctx2 = make_field(p, 2 * h)
    two = 2 % p
    if ctx2.pow(two, (q - 1) // 2) != 1:
        raise TwoNotSquare(f"2 is a non-square in GF({q})")
    # smallest non-square of GF(q) in digit-lex order
    omega = None
    neg1 = ctx2.neg(1)
    for x in ctx2.elements_by_rank():
        if x and ctx2.frobenius(x, h) == x and ctx2.pow(x, (q - 1) // 2) == neg1:
            omega = x
            break
    b = ctx2.sqrt(omega)
    assert b is not None and ctx2.frobenius(b, h) == ctx2.neg(b)
    j = ctx2.pow(b, (q - 1) // 2)
    assert ctx2.mul(j, j) == neg1 and ctx2.frobenius(j, h) == j
    sqrt2 = ctx2.sqrt(two)
    assert ctx2.frobenius(sqrt2, h) == sqrt2
    sqrtm2 = ctx2.mul(j, sqrt2)
    assert ctx2.mul(sqrtm2, sqrtm2) == ctx2.neg(two)
    ctx4 = make_field(p, 4 * h)
    emb, inv_emb = embed_subfield(ctx2, ctx4)
    frame = pg3.ft_frame(ctx2)

    # chi solves chi = eps * (2 - chi*sqrt2)^((q-1)/2); exactly one value works
    def char(x):
        v = ctx2.pow(x, (q - 1) // 2)
        return 1 if v == 1 else -1

    chi = None
    for cand in (1, -1):
        arg = ctx2.sub(two, sqrt2 if cand == 1 else ctx2.neg(sqrt2))
        if eps * char(arg) == cand:
            assert chi is None, "chi is not unique"
            chi = cand
    assert chi is not None, "no chi satisfies the sign identity"
    fr = FTFrame(p=p, h=h, eps=eps, ctx2=ctx2, ctx4=ctx4, frame=frame,
                 emb=emb, inv_emb=inv_emb, b=b, omega=omega, j=j,
                 sqrt2=sqrt2, sqrtm2=sqrtm2, chi=chi)
    assert ctx2.mul(b, b) == omega
    assert ctx2.neg(ctx2.mul(b, ctx2.frobenius(b, h))) == omega
    return fr
