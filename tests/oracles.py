"""Slow, direct test oracles for library functions.

generators_through scans one point's tangent plane in scalar code, and
enumerate_generators lists every generator of the surface through that scan at
the surface points of one plane; count_E3_naive counts the
points of Y^2 = X^3 - X by a double loop.  orbit is the breadth-first search
of a line's orbit under a list of (4, 4) generator matrices: with cp_lift and
cp_group_gens (the lift of PGL(2, q^2) and its PSL(2, q^2) generators; a
singular Moebius map raises Singular) and ell_line (the seed of M2) it is the
reference for every half-orbit the library writes down by enumeration.  The
tests compare the library's faster routes against them.  enumerate_surface,
cp_curve_points, on_plane, pole (with mat_inv and the scalar dot4),
tangent_plane and classify_generator are only used by tests, so they live
here too.  So do the per-point diagnostics that no command runs:
line_points_table (the packed reference for count_incidences),
classify_point_type (types I, II and III of a point off the curve) and
condition_checks (the balance of the curve-meeting half-set at one point).
ft_point_sets is the per-v loop that the library's array code replaced,
kept as its reference.
"""

from __future__ import annotations

import numpy as np

from hemisys import curves, gf, groups, pg3
from hemisys.gf import FieldCtx

RATIONAL_SUBPLANE = "RATIONAL_SUBPLANE"
TYPE_I = "TYPE_I"
TYPE_II = "TYPE_II"
TYPE_III = "TYPE_III"
G2_MEETS_OMEGA = "G2_MEETS_OMEGA"
G1_MEETS_DELTAS = "G1_MEETS_DELTAS"
DISJOINT = "DISJOINT"


class NotGenerator(ValueError):
    pass


class Singular(ValueError):
    pass


def dot4(ctx: FieldCtx, row, vec) -> int:
    """sum row_i vec_i over the field, in scalar code."""
    acc = 0
    for a, b in zip(row, vec):
        acc = ctx.add(acc, ctx.mul(a, b))
    return acc


def cp_curve_points(ctx2: FieldCtx) -> np.ndarray:
    """Packed points (1, t, t^q, t^(q+1)) plus (0,0,0,1); q^2+1 in total."""
    h = ctx2.d // 2
    ts = np.arange(ctx2.order, dtype=np.int64)
    tq = ctx2.frob_np(h)[ts]
    pts = pg3.norm_pack_batch(ctx2, np.ones_like(ts), ts, tq, gf.vec_mul(ctx2, ts, tq))
    out = pg3.unique(np.concatenate([pts, [pg3.pack_point(ctx2, (0, 0, 0, 1))]]))
    gf.check(len(out) == ctx2.order + 1, f"{len(out)} points on the rational curve")
    return out


def enumerate_surface(frame: pg3.HermitianFrame) -> np.ndarray:
    """Sorted packed array of all (q^3+1)(q^2+1) surface points."""
    return np.sort(pg3.surface_point(frame, np.arange(frame.num_points)))


def on_plane(ctx: FieldCtx, coeffs, P) -> bool:
    return dot4(ctx, coeffs, P) == 0


def pole(frame: pg3.HermitianFrame, coeffs) -> tuple:
    """Pole of a plane under the unitary polarity (inverse of tangent_plane)."""
    ctx = frame.ctx
    h = ctx.d // 2
    gi = mat_inv(ctx, frame.gram)
    v = [dot4(ctx, gi[i], coeffs) for i in range(4)]
    return pg3.normalize(ctx, tuple(ctx.frobenius(x, ctx.d - h) for x in v))


def mat_inv(ctx: FieldCtx, M):
    n = 4
    a = [list(row) for row in M]
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        s = ctx.inv(a[col][col])
        a[col] = [ctx.mul(x, s) for x in a[col]]
        b[col] = [ctx.mul(x, s) for x in b[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(a[r], a[col])]
                b[r] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(b[r], b[col])]
    return tuple(tuple(row) for row in b)


def classify_generator(frame: pg3.HermitianFrame, key, sets: curves.CurvePointSets) -> str:
    ctx = frame.ctx
    A, B = pg3.key_points(ctx, key)
    if not pg3.is_generator(frame, A, B):
        raise NotGenerator(f"line {key} is not a generator")
    pts = set(int(x) for x in pg3.line_points(ctx, A, B))
    n_om, n_p, n_m = (len(pts & set(s.tolist()))
                      for s in (sets.omega, sets.delta_plus, sets.delta_minus))
    gf.check(n_om + n_p <= 1 and n_om + n_m <= 1,
             "two rational curve points on one generator")
    if n_om:
        return G2_MEETS_OMEGA
    if n_p or n_m:
        gf.check(n_p == 1 and n_m == 1, "a generator meets one Delta set only")
        return G1_MEETS_DELTAS
    return DISJOINT


def rational_plus(sets: curves.CurvePointSets) -> frozenset:
    """Packed GF(q^2)-rational points of X+: Omega and Delta+."""
    return frozenset(np.concatenate([sets.omega, sets.delta_plus]).tolist())


def ft_point_sets(ctx2: FieldCtx) -> tuple:
    """(Omega, Delta+, Delta-) as sorted packed arrays, Delta+- by a loop over v off
    GF(q) that solves u^((q+1)/2) = +-(v^q - v) one v at a time."""
    h = ctx2.d // 2
    q = ctx2.p ** h
    m = (q + 1) // 2
    ys = curves.subfield_elements(ctx2)
    omega = pg3.norm_pack_batch(ctx2, np.ones_like(ys), np.zeros_like(ys), ys,
                                gf.vec_mul(ctx2, ys, ys))
    omega = pg3.unique(np.append(omega, pg3.pack_point(ctx2, (0, 0, 0, 1))))
    rows = {1: [], -1: []}
    for v in range(ctx2.order):
        if ctx2.frobenius(v, h) == v:
            continue
        c = ctx2.sub(ctx2.frobenius(v, h), v)
        for sign, rhs in ((1, c), (-1, ctx2.neg(c))):
            us = ctx2.power_residue_solutions(rhs, m)
            gf.check(len(us) == m, "u^((q+1)/2) = +-(v^q - v) has not (q+1)/2 solutions")
            rows[sign] += [(1, u, v, ctx2.mul(v, v)) for u in us]
    return (omega, *(pg3.unique(pg3.norm_pack_batch(ctx2, *np.asarray(rows[s]).T))
                     for s in (1, -1)))


def tangent_plane(frame: pg3.HermitianFrame, P) -> tuple:
    """Coefficients (a0..a3) of the tangent plane sum a_i X_i = 0 at P."""
    if not pg3.on_surface(frame, P):
        raise ValueError(f"{P} is not on the surface")
    ctx = frame.ctx
    h = ctx.d // 2
    Pq = [ctx.frobenius(x, h) for x in P]
    return tuple(dot4(ctx, frame.gram[i], Pq) for i in range(4))


def plane_kernel_basis(ctx: FieldCtx, coeffs):
    """Three spanning points of the plane sum c_i X_i = 0."""
    piv = next(i for i in range(4) if coeffs[i])
    s = ctx.inv(coeffs[piv])
    basis = []
    for i in range(4):
        if i == piv:
            continue
        v = [0, 0, 0, 0]
        v[i] = 1
        v[piv] = ctx.neg(ctx.mul(coeffs[i], s))
        basis.append(tuple(v))
    return basis


def generator_partners(frame: pg3.HermitianFrame, P):
    """One surface point on each generator through P (transversal scan)."""
    ctx = frame.ctx
    coeffs = tangent_plane(frame, P)
    piv = next(i for i in range(4) if coeffs[i])
    i0 = next(i for i in range(4) if i != piv and P[i])
    u, v = [b for b in plane_kernel_basis(ctx, coeffs) if b[i0] == 0]
    pts = pg3.line_points_batch(ctx, [u], [v])[0]
    hits = pts[pg3.on_surface(frame, pg3.unpack_batch(ctx, pts))]
    return [pg3.unpack(ctx, int(x)) for x in hits]


def generators_through(frame: pg3.HermitianFrame, P) -> list:
    """The sorted distinct generator keys through a surface point P, one scalar scan."""
    P = pg3.normalize(frame.ctx, P)
    partners = generator_partners(frame, P)
    keys = pg3.line_keys_batch(frame.ctx, [P] * len(partners), partners)
    return sorted({(int(a), int(b)) for a, b in keys})


def enumerate_generators(frame: pg3.HermitianFrame, force: bool = False) -> list:
    """All generator keys; intended for q <= 7 unless force is set.

    Every line meets the plane X0 = 0 (packed points below order^3), so the
    transversal scan at its surface points reaches every generator.
    """
    if frame.q > 7 and not force:
        raise gf.UsageError(f"full generator enumeration at q={frame.q} is heavy; pass force")
    ctx = frame.ctx
    pairs_a = []
    pairs_b = []
    pts = enumerate_surface(frame)
    for packed in pts[pts < ctx.order ** 3]:
        P = pg3.unpack(ctx, int(packed))
        for R in generator_partners(frame, P):
            pairs_a.append(P)
            pairs_b.append(R)
    keys = pg3.line_keys_batch(ctx, pairs_a, pairs_b)
    out = sorted({(int(a), int(b)) for a, b in keys})
    gf.check(len(out) == frame.num_generators,
             f"{len(out)} generators, expected {frame.num_generators}")
    return out


def count_E3_naive(ctx_q: FieldCtx) -> int:
    """Projective |{Y^2 = X^3 - X}| over ctx_q by a double loop."""
    n = 1
    for x in range(ctx_q.order):
        rhs = ctx_q.sub(ctx_q.mul(x, ctx_q.mul(x, x)), x)
        for y in range(ctx_q.order):
            if ctx_q.mul(y, y) == rhs:
                n += 1
    return n


def orbit(ctx: FieldCtx, gens, seed_key) -> np.ndarray:
    """Breadth-first line orbit as sorted (n, 2) key rows.

    Each level maps the frontier by every generator at once and keeps the
    images whose pg3.line_codes are not yet seen; seen stays a sorted code
    array.
    """
    frontier = np.asarray(seed_key, dtype=np.int64).reshape(1, 2)
    seen = pg3.line_codes(ctx, frontier)
    while len(frontier):
        imgs = np.concatenate([groups.apply_to_keys(ctx, g, frontier) for g in gens])
        codes = pg3.unique(pg3.line_codes(ctx, imgs))
        codes = codes[~pg3.member(codes, seen)]
        seen = np.insert(seen, np.searchsorted(seen, codes), codes)
        frontier = pg3.code_keys(ctx, codes)
    return pg3.code_keys(ctx, seen)


def cp_lift(ctx: FieldCtx, moeb) -> np.ndarray:
    """Lift of t -> (at+b)/(ct+d) to the diagonal frame.

    Acts when the curve is parametrized by (u u^s, v u^s, u v^s, v v^s)
    with s the q-power and t = v/u; the lift of a product is the product
    of the lifts up to scalars.
    """
    a, b, c, d = (x % ctx.order for x in moeb)
    if ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) == 0:
        raise Singular("Moebius map is singular")
    ap, bp, cp, dp = d, c, b, a            # action on (u, v)
    f = lambda x: ctx.frobenius(x, ctx.d // 2)
    m = ctx.mul
    return np.array([
        [m(ap, f(ap)), m(f(ap), bp), m(ap, f(bp)), m(bp, f(bp))],
        [m(cp, f(ap)), m(dp, f(ap)), m(cp, f(bp)), m(dp, f(bp))],
        [m(ap, f(cp)), m(bp, f(cp)), m(ap, f(dp)), m(bp, f(dp))],
        [m(cp, f(cp)), m(dp, f(cp)), m(cp, f(dp)), m(dp, f(dp))],
    ], dtype=np.int64)


def cp_group_gens(ctx: FieldCtx) -> tuple:
    """Generators of the lift of PGL(2,q^2) and of its PSL(2,q^2) subgroup."""
    g = ctx.gen
    shift = cp_lift(ctx, (1, 1, 0, 1))
    invmap = cp_lift(ctx, (0, ctx.neg(1), 1, 0))
    return ([shift, cp_lift(ctx, (g, 0, 0, 1)), invmap],
            [shift, cp_lift(ctx, (ctx.mul(g, g), 0, 0, 1)), invmap])


def ell_line(fr: curves.FTFrame, eps: int) -> tuple:
    """Generator joining the origin (1,0,0,0) to (1, eps*sqrt(-2)b, b, 0)."""
    return pg3.line_key(fr.ctx2, (1, 0, 0, 0), fr.p_eps(eps))



def line_points_table(ctx: FieldCtx, keys) -> np.ndarray:
    """(n, q^2+1) packed point table of the lines given by key rows."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    out = []
    for lo in range(0, len(keys), pg3.BLOCK_ROWS):
        a, b = (np.stack(pg3.unpack_batch(ctx, keys[lo:lo + pg3.BLOCK_ROWS, k]), axis=1)
                for k in (0, 1))
        out.append(pg3.line_points_batch(ctx, a, b))
    return np.concatenate(out, axis=0)


def classify_point_type(ctx2: FieldCtx, P) -> str:
    """Type of a surface point w.r.t. the conic X0 X3 = X2^2 in the plane X1=0.

    Projects from (0,1,0,0); off the Baer subplane the unique GF(q)-line
    through the projection meets the rational conic in 0, 2 or 1 points
    (types I, II, III).
    """
    h = ctx2.d // 2
    q = ctx2.p ** h
    proj = pg3.normalize(ctx2, (P[0], P[2], P[3]))
    if all(ctx2.frobenius(x, h) == x for x in proj):
        return RATIONAL_SUBPLANE
    # GF(q)-rational points of the Baer line through proj and its conjugate
    reps = ctx2.exp_np[: q + 1]
    hits = 0
    for mu in reps:
        mu = int(mu)
        R = tuple(ctx2.add(ctx2.mul(mu, a), ctx2.frobenius(ctx2.mul(mu, a), h))
                  for a in proj)
        if not any(R):
            R = tuple(ctx2.sub(ctx2.mul(mu, a), ctx2.frobenius(ctx2.mul(mu, a), h))
                      for a in proj)
        gf.check(all(ctx2.frobenius(x, h) == x for x in R),
                 "a Baer line point is not over GF(q)")
        if ctx2.sub(ctx2.mul(R[0], R[2]), ctx2.mul(R[1], R[1])) == 0:
            hits += 1
    return {0: TYPE_I, 2: TYPE_II, 1: TYPE_III}[hits]


def condition_checks(fr: curves.FTFrame, m_keys, P, sets: curves.CurvePointSets) -> dict:
    """Balance record for one surface point against the curve-meeting half-set."""
    ctx = fr.ctx2
    P = pg3.normalize(ctx, P)
    rational = rational_plus(sets)
    on_curve = pg3.pack(ctx, P) in rational
    gens = pg3.generators_through(fr.frame, P)
    rows = line_points_table(ctx, np.asarray(gens, dtype=np.int64))
    meeting = [k for k, pts in zip(gens, rows)
               if set(int(x) for x in pts) & rational]
    m_codes = pg3.unique(pg3.line_codes(ctx, m_keys))
    in_m = int(pg3.member(pg3.line_codes(ctx, meeting), m_codes).sum())
    if on_curve:
        tag = "CURVE_POINT"
        passed = in_m == (fr.q + 1) // 2
    else:
        tag = classify_point_type(ctx, P)
        passed = 2 * in_m == len(meeting)
    return {"n_P": len(meeting), "in_M": in_m, "type": tag, "passed": passed}
