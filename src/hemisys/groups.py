"""Collineation groups of the Fuhrmann-Torres pair and their action on lines.

A collineation is a plain (4, 4) int64 matrix over GF(q^2), acting on column
points by left multiplication and taken modulo scalars: apply is its one
kernel, on four coordinates that are ints or equal-shape arrays, and
apply_to_keys images a batch of lines.  Products are mat_mul, and two
matrices are the same collineation when pg3.normalize of their 16 entries
agrees.  Group generators are checked to preserve the active Hermitian form
up to a scalar.

The group G is generated by the five matrix families T_a, M_rho, N_sigma,
R_mu, L_lambda together with the extra commuting involution
w = diag(1,-1,1,1) which swaps the two curves.  The same five families act
on parameter quadruples (u,v,s,t) of the Delta-meeting generators;
quadruple_action_check certifies that each matrix realizes its quadruple
map.

T, M and N act on (X0, X2, X3) as PSL(2, q) on the conic X0 X3 = X2^2 and
L scales X1, so the index-2 subgroup H has a Bruhat normal form: with g the
generator of GF(q^2) and eta = g^(q+1), each element is one word T_a M_rho
L_lam or T_a M_rho L_lam N_sigma0 T_b, a, b in GF(q) = {0} u <eta>, rho one
of the (q-1)/2 squares eta^(2k), lam one of the (q+1)/2 powers of
g^(2(q-1)) and sigma0 = g^(q-1): q(q-1)(q+1)^2/4 = |H| words (22,032 at
q = 17).  ft_word_images images a line by every word.  No orbit is searched:
the other half-orbits are pencil unions (curves.cp_half_orbits,
curves.m2_half_orbit), and G's orbit of a line is H's and its image by R.
"""

from __future__ import annotations

import random

import numpy as np

from .gf import FieldCtx, InvariantFailed, check, vec_add, vec_mul
from . import pg3
from .pg3 import HermitianFrame
from .curves import FTFrame


def apply(ctx: FieldCtx, M, cols) -> list:
    """Image coordinates M x of points x given as four coordinates, ints or
    equal-shape arrays; zero entries of M are skipped and entries 1 not multiplied."""
    out = []
    for row in M.tolist():
        acc = None
        for m, c in zip(row, cols):
            if not m:
                continue
            term = c if m == 1 else vec_mul(ctx, m, c)
            acc = term if acc is None else vec_add(ctx, acc, term)
        out.append(acc if acc is not None else np.zeros_like(cols[0]))
    return out


def mat_mul(ctx: FieldCtx, A, B) -> np.ndarray:
    """Product of two (4, 4) matrices over the field: A applied to B's columns."""
    return np.stack(apply(ctx, A, list(B)))


def preserves_form(frame: HermitianFrame, M):
    """Scalar lam with M^(q)T G M = lam G, or None."""
    ctx = frame.ctx
    G = np.asarray(frame.gram, dtype=np.int64)
    lhs = mat_mul(ctx, mat_mul(ctx, ctx.frob_np(ctx.d // 2)[M].T, G), M)
    nz = G != 0
    lam = vec_mul(ctx, lhs[nz], ctx.inv_np[G[nz]])
    if lam[0] and (lam == lam[0]).all() and not lhs[~nz].any():
        return int(lam[0])
    return None


def apply_to_keys(ctx: FieldCtx, M, keys) -> np.ndarray:
    """Canonical keys of the images of a batch of lines; (n,2) -> (n,2)."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    A, B = (np.stack(apply(ctx, M, pg3.unpack_batch(ctx, keys[:, k])), axis=1)
            for k in (0, 1))
    return pg3.line_keys_batch(ctx, A, B)


# ---------------------------------------------------------------------------
# Fuhrmann-Torres groups: matrices and quadruple maps

def mat_T(ctx: FieldCtx, a: int):
    a2 = ctx.mul(a, a)
    return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [a, 0, 1, 0],
                     [a2, 0, ctx.mul(2 % ctx.p, a), 1]], dtype=np.int64)


def mat_M(ctx: FieldCtx, rho: int):
    return np.array([[ctx.inv(rho), 0, 0, 0], [0, 1, 0, 0],
                     [0, 0, 1, 0], [0, 0, 0, rho]], dtype=np.int64)


def mat_L(ctx: FieldCtx, lam: int):
    return np.array([[1, 0, 0, 0], [0, lam, 0, 0],
                     [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.int64)


def mat_N(ctx: FieldCtx, sigma: int):
    return np.array([[0, 0, 0, 1], [0, sigma, 0, 0],
                     [0, 0, 1, 0], [1, 0, 0, 0]], dtype=np.int64)


def mat_R(ctx: FieldCtx, mu: int):
    return np.array([[0, 0, 0, ctx.inv(mu)], [0, 1, 0, 0],
                     [0, 0, 1, 0], [mu, 0, 0, 0]], dtype=np.int64)


def mat_W(ctx: FieldCtx):
    return np.array([[1, 0, 0, 0], [0, ctx.neg(1), 0, 0],
                     [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.int64)


def quad_T(ctx, a):
    return lambda q: (q[0], ctx.add(q[1], a), q[2], ctx.add(q[3], a))


def quad_M(ctx, rho):
    return lambda q: tuple(ctx.mul(rho, x) for x in q)


def quad_N(ctx, sigma):
    def f(q):
        u, v, s, t = q
        vi, ti = ctx.inv(v), ctx.inv(t)
        return (ctx.mul(sigma, ctx.mul(ctx.mul(vi, vi), u)), vi,
                ctx.mul(sigma, ctx.mul(ctx.mul(ti, ti), s)), ti)
    return f


def quad_R(ctx, mu):
    def f(q):
        u, v, s, t = q
        vi, ti = ctx.inv(v), ctx.inv(t)
        return (ctx.mul(mu, ctx.mul(ctx.mul(vi, vi), u)), ctx.mul(mu, vi),
                ctx.mul(mu, ctx.mul(ctx.mul(ti, ti), s)), ctx.mul(mu, ti))
    return f


def quad_L(ctx, lam):
    return lambda q: (ctx.mul(lam, q[0]), q[1], ctx.mul(lam, q[2]), q[3])


def quad_W(ctx):
    # diag(1,-1,1,1) sends (1,u,v,v^2) to (1,-u,v,v^2), which lies on the
    # opposite curve with parameters (-u, v); the line swaps its two
    # parameter pairs accordingly.
    return lambda q: (ctx.neg(q[2]), q[3], ctx.neg(q[0]), q[1])


def ft_group_gens(fr: FTFrame) -> tuple:
    """Generator lists of the full group G and the index-2 subgroup H, and w.

    The subgroup uses translations, square dilations, one sigma-inversion
    and one central scalar; adding one non-square dilation-inversion R
    yields the full group.  Orbit cardinalities certify the closure.
    """
    ctx = fr.ctx2
    q = fr.q
    eta = ctx.pow(ctx.gen, q + 1)               # primitive in GF(q)
    rho0 = ctx.mul(eta, eta)
    sigma0 = ctx.pow(ctx.gen, q - 1)            # sigma0^((q+1)/2) = -1
    lam0 = ctx.pow(ctx.gen, 2 * (q - 1))        # order (q+1)/2
    check(ctx.pow(sigma0, (q + 1) // 2) == ctx.neg(1), "sigma0^((q+1)/2) is not -1")
    check(ctx.pow(lam0, (q + 1) // 2) == 1, "lam0^((q+1)/2) is not 1")
    H = [mat_T(ctx, 1), mat_T(ctx, eta), mat_M(ctx, rho0), mat_N(ctx, sigma0),
         mat_L(ctx, lam0)]
    G = H + [mat_R(ctx, eta)]
    for M in G:
        check(preserves_form(fr.frame, M) is not None, "an ft generator breaks the form")
    w = mat_W(ctx)
    check(preserves_form(fr.frame, w) is not None, "w breaks the form")
    check(pg3.normalize(ctx, mat_mul(ctx, w, w).ravel())
          == pg3.normalize(ctx, np.eye(4, dtype=np.int64).ravel()), "w^2 is not 1")
    for M in G:
        check(pg3.normalize(ctx, mat_mul(ctx, w, M).ravel())
              == pg3.normalize(ctx, mat_mul(ctx, M, w).ravel()), "w does not commute")
    return G, H, w


def ft_word_images(fr: FTFrame, key) -> np.ndarray:
    """Line codes of h(key) for every h of H, one per normal word, unsorted.

    Up to the scalar rho, T_a M_rho L_lam maps (x0, x1, x2, x3) to
    (x0, rho lam x1, a x0 + rho x2, a^2 x0 + 2a rho x2 + rho^2 x3).  That is
    evaluated on the key's two points, then on N_sigma0 T_b of them for each b:
    one block of q (q-1)/2 (q+1)/2 lines at a time.
    """
    ctx, q = fr.ctx2, fr.q
    a = ctx.subfield(q)[:, None, None]
    rho = a[1::2, 0]
    lam = ctx.exp_np[2 * (q - 1) * np.arange((q + 1) // 2)]
    rho_lam, rho2 = vec_mul(ctx, rho, lam), vec_mul(ctx, rho, rho)
    a2, two_a = vec_mul(ctx, a, a), vec_mul(ctx, 2 % ctx.p, a)
    shape = (len(a), len(rho), len(lam))

    def images(x):
        y2 = vec_mul(ctx, rho, x[2])
        cols = (x[0], vec_mul(ctx, rho_lam, x[1]), vec_add(ctx, vec_mul(ctx, a, x[0]), y2),
                vec_add(ctx, vec_add(ctx, vec_mul(ctx, a2, x[0]), vec_mul(ctx, two_a, y2)),
                        vec_mul(ctx, rho2, x[3])))
        return np.stack([np.broadcast_to(c, shape).reshape(-1) for c in cols], axis=1)

    points = pg3.key_points(ctx, key)
    n_sigma0 = mat_N(ctx, ctx.pow(ctx.gen, q - 1))
    blocks = [points] + [[apply(ctx, n_sigma0, apply(ctx, mat_T(ctx, int(b)), x)) for x in points]
                         for b in a.ravel()]
    return np.concatenate([pg3.line_codes(ctx, pg3.line_keys_batch(ctx, *map(images, blk)))
                           for blk in blocks])


# ---------------------------------------------------------------------------
# quadruples of Delta-meeting generators

def quad_relations_hold(fr: FTFrame, quad) -> bool:
    ctx = fr.ctx2
    q = fr.q
    m = (q + 1) // 2
    u, v, s, t = quad
    if fr.in_gfq(v) or fr.in_gfq(t):
        return False
    fv = ctx.frobenius(v, fr.h)
    ft = ctx.frobenius(t, fr.h)
    if ctx.pow(u, m) != ctx.sub(fv, v):
        return False
    if ctx.neg(ctx.pow(s, m)) != ctx.sub(ft, t):
        return False
    d = ctx.sub(t, fv)
    if s != ctx.div(ctx.mul(d, d), ctx.frobenius(u, fr.h)):
        return False
    vt = ctx.mul(v, t)
    lhs = ctx.pow(ctx.add(v, t), q + 1)
    rhs = ctx.mul(2 % ctx.p, ctx.add(vt, ctx.frobenius(vt, fr.h)))
    return lhs == rhs


def quad_line(fr: FTFrame, quad) -> tuple:
    u, v, s, t = quad
    ctx = fr.ctx2
    P = (1, u, v, ctx.mul(v, v))
    Q = (1, s, t, ctx.mul(t, t))
    return pg3.line_key(ctx, P, Q)


def base_quadruple(fr: FTFrame) -> tuple:
    """Deterministic first quadruple: smallest v, u, t in digit-lex order."""
    ctx = fr.ctx2
    q = fr.q
    m = (q + 1) // 2
    v = next(x for x in ctx.elements_by_rank() if x and not fr.in_gfq(x))
    u = ctx.power_residue_solutions(
        ctx.sub(ctx.frobenius(v, fr.h), v), m)[0]
    two = 2 % ctx.p
    for t in ctx.elements_by_rank():
        if not t or fr.in_gfq(t):
            continue
        vt = ctx.mul(v, t)
        if ctx.pow(ctx.add(v, t), q + 1) == ctx.mul(two, ctx.add(vt, ctx.frobenius(vt, fr.h))):
            d = ctx.sub(t, ctx.frobenius(v, fr.h))
            s = ctx.div(ctx.mul(d, d), ctx.frobenius(u, fr.h))
            quad = (u, v, s, t)
            if quad_relations_hold(fr, quad):
                return quad
    raise InvariantFailed("no base quadruple found")


def _random_square(ctx, q, rng):
    eta = ctx.pow(ctx.gen, q + 1)
    return ctx.pow(eta, 2 * rng.randrange(1, (q - 1) // 2 + 1))


def quadruple_action_check(fr: FTFrame, n_samples: int, seed: int = 0) -> bool:
    """Matrix action and quadruple-map action agree on sampled generators."""
    ctx = fr.ctx2
    q = fr.q
    rng = random.Random(seed)
    eta = ctx.pow(ctx.gen, q + 1)
    quad = base_quadruple(fr)

    def random_pair(rng):
        kind = rng.randrange(6)
        if kind == 0:
            a = ctx.pow(eta, rng.randrange(q - 1)) if rng.random() < 0.9 else 0
            return mat_T(ctx, a), quad_T(ctx, a)
        if kind == 1:
            rho = _random_square(ctx, q, rng)
            return mat_M(ctx, rho), quad_M(ctx, rho)
        if kind == 2:
            sigma = ctx.mul(ctx.pow(ctx.gen, q - 1),
                            ctx.pow(ctx.pow(ctx.gen, 2 * (q - 1)), rng.randrange((q + 1) // 2)))
            return mat_N(ctx, sigma), quad_N(ctx, sigma)
        if kind == 3:
            mu = ctx.mul(eta, _random_square(ctx, q, rng))
            return mat_R(ctx, mu), quad_R(ctx, mu)
        if kind == 4:
            lam = ctx.pow(ctx.pow(ctx.gen, 2 * (q - 1)), rng.randrange((q + 1) // 2))
            return mat_L(ctx, lam), quad_L(ctx, lam)
        return mat_W(ctx), quad_W(ctx)

    for _ in range(n_samples):
        M, qmap = random_pair(rng)
        image = qmap(quad)
        if not quad_relations_hold(fr, image):
            return False
        A, B = pg3.key_points(ctx, quad_line(fr, quad))
        if pg3.line_key(ctx, apply(ctx, M, A), apply(ctx, M, B)) != quad_line(fr, image):
            return False
        quad = image
    return True
