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
w = diag(1,-1,1,1) which swaps the two curves.  A quadruple (u, v, s, t) is
exactly a generator joining P = (1, u, v, v^2) in Delta+ to
Q = (1, s, t, t^2) in Delta-: quad_relations_hold states the independent
relations (the paper's trace relation follows from them), and quadruples
lists the q+1 generators through each point of Delta+ in closed form.  Each
generator of ft_generators maps the points (1, x, y, y^2) by one pair map
(x, y) -> (x', y'), on (u, v) and on (s, t).  quadruple_action_check
proves, on every point and quadruple rather than a sample, that each matrix
acts on Delta+ and Delta- as its pair map and that the quadruples' lines are
G's orbit of the seed, one line each; as the matrices preserve the form, a
matrix then sends a quadruple's line to the line of its pair-map image.  It
holds at q = 9, 17, 25, 41 and 49: there G's orbit of the seed is every
generator through a point of Delta+.

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

import numpy as np

from .gf import FieldCtx, check, vec_add, vec_mul, vec_neg
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


def ft_generators(fr: FTFrame) -> list:
    """(matrix, pair map, swaps) of T_1, T_eta, M_rho0, N_sigma0, L_lam0, R_eta and w.

    The first five generate the index-2 subgroup H: translations, square
    dilations, one sigma-inversion and one central scalar; the non-square
    dilation-inversion R adds the rest of G.  The matrix sends (1, x, y, y^2)
    to (1, x', y', y'^2) up to a scalar, (x', y') = map(x, y) on ints or arrays,
    and swaps is true for w alone, which swaps Delta+ and Delta-.  Raises
    InvariantFailed unless every matrix preserves the form and w is an
    involution that commutes with the rest.
    """
    ctx = fr.ctx2
    q = fr.q
    eta = ctx.pow(ctx.gen, q + 1)               # primitive in GF(q)
    rho0 = ctx.mul(eta, eta)
    sigma0 = ctx.pow(ctx.gen, q - 1)            # sigma0^((q+1)/2) = -1
    lam0 = ctx.pow(ctx.gen, 2 * (q - 1))        # order (q+1)/2
    check(ctx.pow(sigma0, (q + 1) // 2) == ctx.neg(1), "sigma0^((q+1)/2) is not -1")
    check(ctx.pow(lam0, (q + 1) // 2) == 1, "lam0^((q+1)/2) is not 1")
    inv = ctx.inv_np

    def mul(a, b):
        return vec_mul(ctx, a, b)

    gens = [(mat_T(ctx, 1), lambda x, y: (x, vec_add(ctx, y, 1)), False),
            (mat_T(ctx, eta), lambda x, y: (x, vec_add(ctx, y, eta)), False),
            (mat_M(ctx, rho0), lambda x, y: (mul(rho0, x), mul(rho0, y)), False),
            (mat_N(ctx, sigma0), lambda x, y: (mul(sigma0, mul(x, inv[mul(y, y)])), inv[y]), False),
            (mat_L(ctx, lam0), lambda x, y: (mul(lam0, x), y), False),
            (mat_R(ctx, eta), lambda x, y: (mul(eta, mul(x, inv[mul(y, y)])), mul(eta, inv[y])),
             False),
            (mat_W(ctx), lambda x, y: (vec_neg(ctx, x), y), True)]
    *G, w = (M for M, _, _ in gens)
    for M in G:
        check(preserves_form(fr.frame, M) is not None, "an ft generator breaks the form")
    check(preserves_form(fr.frame, w) is not None, "w breaks the form")
    check(pg3.normalize(ctx, mat_mul(ctx, w, w).ravel())
          == pg3.normalize(ctx, np.eye(4, dtype=np.int64).ravel()), "w^2 is not 1")
    for M in G:
        check(pg3.normalize(ctx, mat_mul(ctx, w, M).ravel())
              == pg3.normalize(ctx, mat_mul(ctx, M, w).ravel()), "w does not commute")
    return gens


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

def quad_relations_hold(fr: FTFrame, quad):
    """True where (u, v, s, t), four ints or equal-shape arrays, is a quadruple:
    v, t off GF(q), u^m = v^q - v, s^m = t - t^q (m = (q+1)/2) and
    s u^q = (t - v^q)^2.  That is, P = (1, u, v, v^2) lies in Delta+,
    Q = (1, s, t, t^2) in Delta- and PQ is a generator, as pg3.herm_form(P, Q)
    = u s^q - (v - t^q)^2.  The paper's fifth relation (v + t)^(q+1) = 2 Tr(vt)
    follows: u^m = v^q - v and s u^q = (t - v^q)^2 give
    s^m = N(t - v^q) / (v - v^q), and N(t - v^q) - (t - t^q)(v - v^q) =
    (v + t)^(q+1) - 2 Tr(vt)."""
    ctx, m, n1 = fr.ctx2, (fr.q + 1) // 2, fr.ctx2.order - 1
    frob = ctx.frob_np(fr.h)
    u, v, s, t = (np.asarray(x, dtype=np.int64) for x in quad)
    neg = ctx.neg_np

    def half_power(x):                          # x^((q+1)/2)
        return np.where(x == 0, 0, ctx.exp_np[ctx.log_np[x] * m % n1])

    fv, ft = frob[v], frob[t]
    d = vec_add(ctx, t, neg[fv])
    return ((fv != v) & (ft != t)
            & (half_power(u) == vec_add(ctx, fv, neg[v]))
            & (half_power(s) == vec_add(ctx, t, neg[ft]))
            & (vec_mul(ctx, s, frob[u]) == vec_mul(ctx, d, d)))


def quad_line(fr: FTFrame, quad) -> np.ndarray:
    """Key rows (n, 2) of the lines <(1, u, v, v^2), (1, s, t, t^2)> of the quadruples
    (u, v, s, t), four ints or equal-length arrays."""
    ctx = fr.ctx2
    u, v, s, t = (np.atleast_1d(np.asarray(x, dtype=np.int64)) for x in quad)
    one = np.ones_like(v)
    return pg3.line_keys_batch(ctx, np.stack([one, u, v, vec_mul(ctx, v, v)], axis=1),
                               np.stack([one, s, t, vec_mul(ctx, t, t)], axis=1))


def quadruples(fr: FTFrame, delta_plus):
    """Every quadruple (u, v, s, t), as four equal-length arrays of about
    pg3.GROUP_SIZE rows: the q+1 generators through each point (1, u, v, v^2) of
    Delta+ (delta_plus, packed as curves.ft_point_sets gives it), all to Delta-.

    With c = v^q - v, (v + t)^(q+1) - 2 Tr(vt) = N(t + v - 2v^q) + 2c^2, so the
    generators through P are t = 2v^q - v + z for the q+1 roots z of
    z^(q+1) = -2c^2, which lies in GF(q)*; each such t is off GF(q), and
    s = (c + z)^2 / u^q.  No row is filtered: there are |Delta+| (q+1).
    """
    ctx, q = fr.ctx2, fr.q
    frob = ctx.frob_np(fr.h)
    for packed in np.split(delta_plus, range(step := max(1, pg3.GROUP_SIZE // (q + 1)),
                                             len(delta_plus), step)):
        _, u, v, _ = pg3.unpack_batch(ctx, packed)
        c = vec_add(ctx, frob[v], vec_neg(ctx, v))
        lz = ctx.log_np[vec_mul(ctx, ctx.neg(2 % ctx.p), vec_mul(ctx, c, c))] // (q + 1)
        cz = vec_add(ctx, c[:, None], ctx.exp_np[lz[:, None] + (q - 1) * np.arange(q + 1)]).ravel()
        u, v = np.repeat(u, q + 1), np.repeat(v, q + 1)
        yield (u, v, vec_mul(ctx, vec_mul(ctx, cz, cz), ctx.inv_np[frob[u]]),
               vec_add(ctx, frob[v], cz))


def quadruple_action_check(fr: FTFrame, sets, g1) -> bool:
    """True iff (a) the lines of quadruples(fr, sets.delta_plus) are g1, the sorted key
    rows of G's orbit of the seed, each once, and (b) each matrix sends every point
    (1, x, y, y^2) of Delta+ and Delta- (sets, curves.ft_point_sets) to
    (1, x', y', y'^2), (x', y') its pair map of (x, y), in the same set (the other
    for w).  By (b), and as ft_generators checks that every matrix preserves the
    form, a matrix sends a quadruple's line, the generator joining P in Delta+ to
    Q in Delta-, to the generator joining the pair-map images of P and Q: again a
    quadruple's line.  So by (a) G's orbit of the seed is every generator through
    a point of Delta+, and each matrix acts on it as its pair maps do."""
    ctx = fr.ctx2
    gens = ft_generators(fr)
    deltas = (sets.delta_plus, sets.delta_minus)
    for k, packed in enumerate(deltas):
        P = pg3.unpack_batch(ctx, packed)
        for M, pair, swaps in gens:
            x, y = pair(P[1], P[2])
            image = pg3.norm_pack_batch(ctx, *apply(ctx, M, P))
            if not (np.array_equal(image, pg3.norm_pack_batch(ctx, P[0], x, y, vec_mul(ctx, y, y)))
                    and pg3.member(image, deltas[k ^ swaps]).all()):
                return False
    codes = np.concatenate([pg3.line_codes(ctx, quad_line(fr, quad))
                            for quad in quadruples(fr, sets.delta_plus)])
    codes.sort()
    return np.array_equal(codes, pg3.line_codes(ctx, g1))
