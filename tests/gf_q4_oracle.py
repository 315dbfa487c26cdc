"""The GF(q^4) route to the imaginary chords, kept as a test oracle.

The library enumerates the chords in the tower GF(q^2)[sqrt(nu)] with
GF(q^2) tables only.  These functions build the same chords the direct
way: all of GF(q^4), the embedding of GF(q^2) in it, the q^2-Frobenius
trace of each curve point and a pass that keeps one point of each
conjugate pair.  The tests compare the two routes key for key.
"""

from __future__ import annotations

import numpy as np

from hemisys import gf, pg3
from hemisys.gf import FieldCtx, vec_add, vec_mul, vec_neg


class TraceLeftSubfield(RuntimeError):
    """A chord trace fell outside GF(q^2): a bug, not input."""


def embed_subfield(small: FieldCtx, big: FieldCtx):
    """Embedding GF(p^k) -> GF(p^d) as a lookup array, plus partial inverse.

    Sends the power-basis root of small.poly to its digit-lex smallest root
    inside the big field; the image array has big-field indices, the inverse
    array holds -1 off the image.
    """
    if big.p != small.p or big.d % small.d:
        raise gf.BadExponent("no subfield embedding")
    p = big.p
    # evaluate small.poly at every element of the big field (Horner, vectorised)
    xs = np.arange(big.order, dtype=np.int64)
    acc = np.zeros(big.order, dtype=np.int64)
    for c in reversed(small.poly):
        acc = big._sum(big._prod(acc, xs), c % p)
    roots = np.nonzero(acc == 0)[0]
    if len(roots) != small.d:
        raise gf.TableInvariantFailed(
            f"{len(roots)} roots of {small.poly} in GF({p}^{big.d}), expected {small.d}")
    rho = int(roots[np.argmin(big.rank_np[roots])])
    # x = sum c_i a^i goes to sum c_i rho^i; a digit c_i is the prime-field element c_i
    emb = np.zeros(small.order, dtype=np.int64)
    rem = np.arange(small.order, dtype=np.int64)
    w = 1
    for _ in range(small.d):
        emb = big._sum(emb, big._prod(rem % p, w))
        rem //= p
        w = big.mul(w, rho)
    n1 = small.order - 1
    lg = big.log_np[emb[small.gen]]
    if not np.array_equal(emb[small.exp_np[:n1]],
                          big.exp_np[np.arange(n1) * lg % (big.order - 1)]):
        raise gf.TableInvariantFailed("subfield embedding is not multiplicative")
    inv = np.full(big.order, -1, dtype=np.int64)
    inv[emb] = np.arange(small.order, dtype=np.int64)
    return emb, inv



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



def gf_q4_setup(ctx2: FieldCtx) -> tuple:
    """(ctx4, emb, inv_emb): GF(q^4) and the embedding of ctx2 in it."""
    ctx4 = gf.make_field(ctx2.p, 2 * ctx2.d)
    return (ctx4, *embed_subfield(ctx2, ctx4))
