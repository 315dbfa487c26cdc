"""Points, lines, planes and the Hermitian surface of PG(3,q^2).

A point is a 4-tuple of field-element ints, normalized so the first
nonzero coordinate is 1.  Normalized points are packed into a single
int64 whose numeric order is digit-lex order on the coordinate digits,
so minima over packed arrays pick canonical representatives.  A line is
identified by its canonical key: the ordered pair of the two smallest
packed points on it.  It is read off the reduced row-echelon form (RREF)
[R1; R2] of any two of its points, leading 1s at i < j and R1[j] = 0;
every other point is R1 + lam R2.  Since rank(0) = 0 and each point's
first nonzero coordinate is 1, R2 (0 at i) is below every R1 + lam R2
(1 at i), and these agree with R1 before j and hold lam at j, so lam = 0
is the least: the key is (R2, R1), and no point is enumerated to find
it; so a key is its own RREF (is_rref_key).  Surface points also have a
dense index 0 .. num_points-1 (surface_index, and its inverse
surface_point, which only tests call today: it stays to decode the failing
points a verify report will name).  Orbits and key sets are handled as one
int64 line code per key (line_codes, and its inverse code_keys), which
sorts exactly like the keys, so sets of lines are sorted 1-D arrays,
handled by unique and member (numpy 2.4's np.unique, np.isin and
np.setdiff1d import numpy.ma).

count_incidences counts the points of many lines without packing any:
with g the field's generator, coordinate k of R1 + g^t R2 (t < order-1)
has rank r[R1[k] w + log R2[k] + t], r[a w + s] = rank(a + exp[s]),
w = 3(order-1) so that log 0 = 2(order-1) stays in exp's zero tail: the
field's own Zech-logarithm sum (gf), laid out per (a, s).  Such a point has
X0 = R1[0], as R2[0] = 0; off the plane X0 = 0 it has index a q + d with
a = r1 order + r2 and d = slot[r3] - start[a].  zech_rows holds r as an
int16 row (ranks < order) and slot[r] as an int32 row (slots < order q,
past 2^15 from q = 49 on): 1.5 MB at q = 17, 51 MB at q = 41.  Row
base of a sliding window view of length order-1 holds a line's
coordinate at every step t, so one fancy index gathers a group of lines,
of about GROUP_SIZE points whatever q.  Indices fit int32 while num_points
< 2^31, i.e. q <= 73 (require_int32_indices).

Two Hermitian frames are supported, both with Gram matrix G satisfying
G = G^T with entries in the prime field:

* diagonal_cp:  X1^(q+1) +   X2^(q+1) = X0^q X3 + X0 X3^q
* ft:           X1^(q+1) + 2 X2^(q+1) = X3^q X0 + X3 X0^q

and the surface predicate is x^T G x^(q) = 0 in both cases.
"""

from __future__ import annotations

from functools import cached_property, reduce

import numpy as np

from .gf import CandidateError, FieldCtx, UsageError, check, vec_add, vec_mul


# Rows (keys, point pairs, file lines) per block of every stage that walks a whole
# set, and entries (points gathered, table entries, counts, bytes) per group: no
# workspace outgrows about 2 MB, whatever q.
BLOCK_ROWS = 2 ** 11
GROUP_SIZE = 2 ** 14


class HermitianFrame:
    """Hermitian surface frame: field, Gram matrix and derived counts."""

    def __init__(self, tag: str, ctx: FieldCtx, gram):
        check(ctx.d % 2 == 0, f"GF({ctx.p}^{ctx.d}) is not a field of order q^2")
        self.tag = tag
        self.ctx = ctx
        self.q = ctx.p ** (ctx.d // 2)
        self.gram = tuple(tuple(int(x) for x in row) for row in gram)
        self.sparse = [(i, j, self.gram[i][j])
                       for i in range(4) for j in range(4) if self.gram[i][j]]
        check(all(ctx.pow(self.gram[i][j], self.q) == self.gram[j][i]
                  for i in range(4) for j in range(4)), "Gram not Hermitian")
        self.num_points = (self.q ** 3 + 1) * (self.q ** 2 + 1)
        self.num_generators = (self.q ** 3 + 1) * (self.q + 1)

    def __repr__(self):
        return f"HermitianFrame({self.tag}, q={self.q})"

    @cached_property
    def index_tables(self) -> tuple:
        """Tables of surface_index/surface_point, indexed by field rank.

        (rank of 1; the flat fibre table, q ranks per trace value x + x^q;
        each rank's slot in it, q * trace + its place in the fibre; the
        first slot of the fibre of N(x1) + e N(x2), by rank x1 * order +
        rank x2; x2's place among the solutions of 1 + e N(x2) = 0 or -1).
        """
        ctx, q, n = self.ctx, self.q, self.ctx.order
        xs = ctx.unrank_np
        xq = ctx.frob_np(ctx.d // 2)[xs]
        trace = vec_add(ctx, xs, xq)
        norm = vec_mul(ctx, xs, xq)
        e_norm = vec_mul(ctx, self.gram[2][2], norm)
        start = np.empty((n, n), dtype=np.int32)      # filled a group at a time: no n^2 int64
        for lo in range(0, n, step := max(1, GROUP_SIZE // n)):
            start[lo:lo + step] = vec_add(ctx, norm[lo:lo + step, None], e_norm[None, :]) * q
        pos = np.empty(n, dtype=np.int64)
        pos[np.argsort(trace, kind="stable")] = np.tile(np.arange(q), q)   # q fibres of q ranks
        slot = (trace * q + pos).astype(np.int32)
        fibre = np.zeros(n * q, dtype=np.int64)
        fibre[slot] = np.arange(n)
        sol_at = np.full(n, -1, dtype=np.int64)
        sols = np.flatnonzero(e_norm == ctx.neg_np[1])
        sol_at[sols] = np.arange(len(sols))
        return int(ctx.rank_np[1]), fibre, slot, start.reshape(-1), sol_at

    @cached_property
    def zech_rows(self) -> tuple:
        """Rows r (int16) and slot[r] (int32) of the module docstring, filled a group at a time."""
        require_int32_indices(self)
        ctx, n, w = self.ctx, self.ctx.order, 3 * (self.ctx.order - 1)
        rank, slot = np.empty(n * w, dtype=np.int16), np.empty(n * w, dtype=np.int32)
        for lo in range(0, n, step := max(1, GROUP_SIZE // w)):
            r = ctx.rank_np[vec_add(ctx, np.arange(n)[lo:lo + step, None], ctx.exp_np[:w])].ravel()
            rank[lo * w:lo * w + len(r)], slot[lo * w:lo * w + len(r)] = r, self.index_tables[2][r]
        return rank, slot


def require_int32_indices(frame: HermitianFrame) -> None:
    """Raise UsageError unless every surface index fits an int32, as at q <= 73."""
    if frame.num_points >= 2 ** 31:
        raise UsageError(f"q={frame.q} has {frame.num_points} surface points; "
                         "int32 surface indices need fewer than 2**31")


def cp_frame(ctx: FieldCtx) -> HermitianFrame:
    n1 = ctx.neg_np[1]
    g = [[0, 0, 0, n1], [0, 1, 0, 0], [0, 0, 1, 0], [n1, 0, 0, 0]]
    return HermitianFrame("diagonal_cp", ctx, g)


def ft_frame(ctx: FieldCtx) -> HermitianFrame:
    n1 = ctx.neg_np[1]
    g = [[0, 0, 0, n1], [0, 1, 0, 0], [0, 0, 2 % ctx.p, 0], [n1, 0, 0, 0]]
    return HermitianFrame("ft", ctx, g)


# ---------------------------------------------------------------------------
# points

def normalize(ctx: FieldCtx, coords) -> tuple:
    c = tuple(int(x) for x in coords)
    for x in c:
        if x:
            s = ctx.inv(x)
            return tuple(ctx.mul(y, s) for y in c)
    raise ValueError("zero vector is not a projective point")


def pack(ctx: FieldCtx, coords) -> int:
    n = ctx.order
    r = ctx.rank_np
    c = coords
    return int(((int(r[c[0]]) * n + int(r[c[1]])) * n + int(r[c[2]])) * n + int(r[c[3]]))


def unpack(ctx: FieldCtx, packed: int) -> tuple:
    n = ctx.order
    u = ctx.unrank_np
    r3 = packed % n
    packed //= n
    r2 = packed % n
    packed //= n
    r1 = packed % n
    r0 = packed // n
    return (int(u[r0]), int(u[r1]), int(u[r2]), int(u[r3]))


def pack_point(ctx: FieldCtx, coords) -> int:
    return pack(ctx, normalize(ctx, coords))


def norm_pack_batch(ctx: FieldCtx, c0, c1, c2, c3):
    """Normalize and pack arrays of coordinates (no all-zero rows allowed)."""
    piv = np.where(c0 != 0, c0, np.where(c1 != 0, c1, np.where(c2 != 0, c2, c3)))
    s = ctx.inv_np[piv]
    r = ctx.rank_np
    n = ctx.order
    out = r[vec_mul(ctx, c0, s)]
    out = out * n + r[vec_mul(ctx, c1, s)]
    out = out * n + r[vec_mul(ctx, c2, s)]
    out = out * n + r[vec_mul(ctx, c3, s)]
    return out


def unpack_batch(ctx: FieldCtx, packed):
    n = ctx.order
    u = ctx.unrank_np
    v = np.asarray(packed, dtype=np.int64)
    c3 = u[v % n]
    v = v // n
    c2 = u[v % n]
    v = v // n
    c1 = u[v % n]
    c0 = u[v // n]
    return c0, c1, c2, c3


# ---------------------------------------------------------------------------
# Hermitian form, surface, tangent planes

def herm_form(frame: HermitianFrame, A, B):
    """Sesquilinear form A^T G B^(q), zero iff A is on B's tangent plane; A and B
    are four coordinates each, ints or arrays that broadcast together."""
    ctx = frame.ctx
    fr = ctx.frob_np(ctx.d // 2)
    acc = 0
    for i, j, g in frame.sparse:
        term = vec_mul(ctx, A[i], fr[B[j]])
        if g != 1:
            term = vec_mul(ctx, g, term)
        acc = vec_add(ctx, acc, term)
    return acc


def on_surface(frame: HermitianFrame, P):
    """True where the point of the four coordinates P (ints or arrays) is on the surface."""
    return herm_form(frame, P, P) == 0


# ---------------------------------------------------------------------------
# 4x4 matrices over the field

def mat_mul(ctx: FieldCtx, A, B) -> np.ndarray:
    """Product of two (4, 4) matrices over the field."""
    terms = vec_mul(ctx, np.asarray(A)[:, :, None], np.asarray(B)[None])   # A[i, k] B[k, j]
    return reduce(lambda acc, t: vec_add(ctx, acc, t), terms.transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# lines

def _rref(ctx: FieldCtx, A, B):
    """Reduced row-echelon form [R1; R2] of each [A; B]: leading 1s at i < j,
    R1[j] = 0.  A row whose A and B are proportional raises ValueError."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    rows = np.arange(len(A))
    swap = ((B != 0).argmax(axis=1) < (A != 0).argmax(axis=1))[:, None]
    P, Q = np.where(swap, B, A), np.where(swap, A, B)
    i = (P != 0).argmax(axis=1)
    P = vec_mul(ctx, P, ctx.inv_np[P[rows, i]][:, None])
    Q = vec_add(ctx, Q, vec_mul(ctx, ctx.neg_np[Q[rows, i]][:, None], P))
    j = (Q != 0).argmax(axis=1)
    R2 = vec_mul(ctx, Q, ctx.inv_np[Q[rows, j]][:, None])
    R1 = vec_add(ctx, P, vec_mul(ctx, ctx.neg_np[P[rows, j]][:, None], R2))
    if not ((R1[rows, i] == 1) & (R2[rows, j] == 1)).all():
        raise ValueError("line through equal points")
    return R1, R2


def is_rref_key(A, B):
    """True on rows where (A, B) is its line's key and RREF: both normalized, B leads
    before A and is 0 where A leads, so R1 = B, R2 = A and line_keys_batch gives (A, B)."""
    rows = np.arange(len(A))
    i, j = (B != 0).argmax(axis=1), (A != 0).argmax(axis=1)
    return (i < j) & (B[rows, i] == 1) & (A[rows, j] == 1) & (B[rows, j] == 0)


def _pack_rows(ctx: FieldCtx, R):
    """Packed ints of (n, 4) rows that are already normalized."""
    return ctx.rank_np[R] @ ctx.order ** np.arange(3, -1, -1)


def line_points_batch(ctx: FieldCtx, A, B):
    """Packed points R1 + lam R2 (lam = 0 .. order-1), then R2, of each line
    through rows of A, B, [R1; R2] its RREF; all normalized as they stand."""
    R1, R2 = _rref(ctx, A, B)
    lam = np.arange(ctx.order, dtype=np.int64)
    out = ctx.rank_np[R1[:, :1]]              # column 0: R2 is 0 there, as j > i >= 0
    for k in range(1, 4):
        col = vec_add(ctx, R1[:, k, None], vec_mul(ctx, lam, R2[:, k, None]))
        out = out * ctx.order + ctx.rank_np[col]
    return np.concatenate([out, _pack_rows(ctx, R2)[:, None]], axis=1)


def line_keys_batch(ctx: FieldCtx, A, B):
    """Canonical keys (two smallest packed points, ordered) for line batches.

    They are (R2, R1) of the RREF: rank(0) = 0 and each point's first nonzero
    coordinate is 1, so R2 (0 at i) is below every R1 + lam R2 (1 at i), and
    of those lam = 0, rank 0 at j, is the least.
    """
    R1, R2 = _rref(ctx, A, B)
    return np.stack([_pack_rows(ctx, R2), _pack_rows(ctx, R1)], axis=1)


def _code_base(ctx: FieldCtx) -> tuple:
    """(n = order, one = rank of 1, N = n^3 + n^2 + n + 1 points of PG(3, n)).

    Raises UsageError unless every line code fits an int64: a key's first point
    is 0 where its second leads, so its dense rank is below n^2 + n + 1.
    """
    n = ctx.order
    N = n ** 3 + n ** 2 + n + 1
    if (n * n + n + 1) * N >= 2 ** 63:
        raise UsageError(f"line codes at order {n} overflow int64")
    return n, int(ctx.rank_np[1]), N


def line_codes(ctx: FieldCtx, keys) -> np.ndarray:
    """One int64 per key row, dense(key0) * N + dense(key1), where dense ranks a
    normalized packed point among all N points in packed order; codes sort like keys."""
    n, one, N = _code_base(ctx)
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    lead = one * n ** np.arange(4)            # the least point that leads at place 3 - k
    out = np.empty(len(keys), dtype=np.int64)
    for lo in range(0, len(keys), BLOCK_ROWS):
        blk = keys[lo:lo + BLOCK_ROWS]
        k = np.searchsorted(lead, blk, side="right") - 1
        dense = blk - lead[k] + (n ** k - 1) // (n - 1)
        out[lo:lo + BLOCK_ROWS] = dense[:, 0] * N + dense[:, 1]
    return out


def code_keys(ctx: FieldCtx, codes) -> np.ndarray:
    """Key rows (len(codes), 2) of line codes; the inverse of line_codes."""
    n, one, N = _code_base(ctx)
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    first = (n ** np.arange(4) - 1) // (n - 1)   # dense rank of the least point leading at 3 - k
    out = np.empty((len(codes), 2), dtype=np.int64)
    for lo in range(0, len(codes), BLOCK_ROWS):
        d = np.stack(np.divmod(codes[lo:lo + BLOCK_ROWS], N), axis=1)
        k = np.searchsorted(first, d, side="right") - 1
        out[lo:lo + BLOCK_ROWS] = d - first[k] + one * n ** k
    return out


def unique(a) -> np.ndarray:
    """Sorted distinct entries of a 1-D array, by a sort and an adjacent compare."""
    s = np.sort(np.asarray(a).reshape(-1))
    return s[np.concatenate([[True], s[1:] != s[:-1]])]


def member(a, sorted_b) -> np.ndarray:
    """True where an entry of a occurs in the non-empty sorted 1-D array sorted_b."""
    return sorted_b[np.minimum(np.searchsorted(sorted_b, a), len(sorted_b) - 1)] == a


def line_points(ctx: FieldCtx, A, B) -> np.ndarray:
    return np.sort(line_points_batch(ctx, [A], [B])[0])


def line_key(ctx: FieldCtx, A, B) -> tuple:
    k = line_keys_batch(ctx, [A], [B])
    return (int(k[0, 0]), int(k[0, 1]))


def key_points(ctx: FieldCtx, key) -> tuple:
    return unpack(ctx, key[0]), unpack(ctx, key[1])


def is_generator(frame: HermitianFrame, A, B):
    """Two-point criterion: both on the surface and mutually conjugate; A and B are
    four coordinates each, ints or arrays, and the answer is per entry."""
    return on_surface(frame, A) & on_surface(frame, B) & (herm_form(frame, A, B) == 0)


# ---------------------------------------------------------------------------
# generators through a point

def generators_through(frame: HermitianFrame, P) -> list:
    """The q+1 generator keys through a surface point P, sorted."""
    keys = generators_through_batch(frame, [normalize(frame.ctx, P)])[0]
    return [(int(a), int(b)) for a, b in keys]


def generators_through_batch(frame: HermitianFrame, P) -> np.ndarray:
    """Generator keys (n, q+1, 2), sorted per row, through each of n normalized
    surface points P (n, 4), by one transversal scan of all the tangent planes.

    The tangent plane sum c_i X_i = 0 at P, c = G P^q, meets the surface in
    the q+1 generators through P.  With piv the first i where c_i != 0 and i0
    the first other i where P_i != 0, the kernel vectors e_i - (c_i / c_piv)
    e_piv of the two i outside {piv, i0} span a line of the plane that is 0 at
    i0, so it misses P and meets each generator through P in one point.
    """
    ctx, q = frame.ctx, frame.q
    P = np.asarray(P, dtype=np.int64).reshape(-1, 4)
    rows = np.arange(len(P))
    off = np.flatnonzero(~on_surface(frame, P.T))
    if len(off):
        raise ValueError(f"{tuple(int(x) for x in P[off[0]])} is not on the surface")
    eye = np.eye(4, dtype=np.int64)
    c = np.stack([herm_form(frame, eye[i], P.T) for i in range(4)], axis=1)   # G P^q
    piv = (c != 0).argmax(axis=1)
    i0 = ((P != 0) & (np.arange(4) != piv[:, None])).argmax(axis=1)
    free = (np.arange(4) != piv[:, None]) & (np.arange(4) != i0[:, None])
    scale = ctx.neg_np[ctx.inv_np[c[rows, piv]]]
    span = []
    for i in np.nonzero(free)[1].reshape(-1, 2).T:
        v = eye[i]
        v[rows, piv] = vec_mul(ctx, c[rows, i], scale)
        span.append(v)
    pts = line_points_batch(ctx, *span)
    hit = on_surface(frame, unpack_batch(ctx, pts))
    check((hit.sum(axis=1) == q + 1).all(), f"a transversal has other than {q + 1} surface points")
    partners = np.stack(unpack_batch(ctx, pts[hit]), axis=1)
    keys = line_keys_batch(ctx, np.repeat(P, q + 1, axis=0), partners)
    codes = np.sort(line_codes(ctx, keys).reshape(-1, q + 1), axis=1)
    check((codes[:, 1:] != codes[:, :-1]).all(),
          f"fewer than {q + 1} distinct generators through a point")
    return code_keys(ctx, codes.reshape(-1)).reshape(-1, q + 1, 2)


# ---------------------------------------------------------------------------
# surface point index

def surface_index(frame: HermitianFrame, packed):
    """Index in 0 .. num_points-1 of each normalized packed surface point.

    An affine point (1, x1, x2, x3) lies on the surface iff
    tr(x3) = x3 + x3^q equals N(x1) + e N(x2), with N(x) = x^(q+1) and
    e = G[2][2], so x3 is one of the q elements of a trace fibre.  Its
    index is (rank x1 * order + rank x2) * q + the place of x3 in its
    fibre, read off the packed int.  The X0 = 0 points follow from q^5
    on: (0,0,0,1), then (0,1,x2,x3) with 1 + e N(x2) = 0, by x2's place
    among the q+1 solutions and the rank of x3.  Any other point raises
    ValueError.
    """
    one, _, slot, start, sol_at = frame.index_tables
    n, q = frame.ctx.order, frame.q
    hi, r3 = np.divmod(np.asarray(packed, dtype=np.int64), n)
    a = hi - one * n * n                      # rank x1 * n + rank x2 if X0 = 1
    tail = np.flatnonzero(a < 0)
    a.flat[tail] = 0
    d = slot.take(r3) - start.take(a)         # x3's place in its fibre if 0 <= d < q
    ok = d.view(np.uint32) < q                # 0 <= d < q as one unsigned compare
    idx = np.multiply(a, q, out=a)
    idx += d
    if len(tail):
        r1, r2 = np.divmod(hi.flat[tail], n)
        x3 = r3.flat[tail]
        j = sol_at[r2]
        idx.flat[tail] = np.where(r1 == one, q ** 5 + 1 + j * n + x3, q ** 5)
        ok.flat[tail] = np.where(r1 == one, j >= 0, (r1 == 0) & (r2 == 0) & (x3 == one))
    if not ok.all():
        bad = np.argmin(ok)
        raise ValueError(f"{unpack(frame.ctx, int(hi.flat[bad]) * n + int(r3.flat[bad]))} "
                         "is not on the surface")
    return idx


def count_incidences(frame: HermitianFrame, keys, counts: np.ndarray) -> None:
    """Add 1 to counts[surface_index(P)] for each point P of each line of key rows, after
    checking every row is a generator (a CandidateError names the first that is not), or
    raise ValueError.  The RREF rows R2, R1 and the lines in the plane X0 = 0 go
    through surface_index packed, the points R1 + g^t R2 of the rest through zech_rows."""
    ctx, n, q = frame.ctx, frame.ctx.order, frame.q
    one, _, _, start, _ = frame.index_tables
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    A, B = (unpack_batch(ctx, keys[:, c]) for c in (0, 1))
    bad = np.flatnonzero(~is_generator(frame, A, B))
    if len(bad):
        raise CandidateError(f"line {tuple(int(x) for x in keys[bad[0]])} is not a generator")
    R2, R1 = np.stack(A, axis=1), np.stack(B, axis=1)
    redo = np.flatnonzero(~is_rref_key(R2, R1))   # a canonical key is its own RREF
    if len(redo):
        R1[redo], R2[redo] = _rref(ctx, R2[redo], R1[redo])
    inc = counts.dtype.type(1)                # np.add.at is slow for a value of another type
    np.add.at(counts, surface_index(frame, np.stack([_pack_rows(ctx, R) for R in (R2, R1)])), inc)
    plane = np.flatnonzero(R1[:, 0] == 0)     # the q+1 lines through (0,0,0,1), or repeats
    if len(plane):
        for rows in np.split(plane, range(g := max(1, GROUP_SIZE // n), len(plane), g)):
            inner = line_points_batch(ctx, R1[rows], R2[rows])[:, 1:-1]   # less R1 and R2
            np.add.at(counts, surface_index(frame, inner), inc)
        R1, R2 = np.delete(R1, plane, axis=0), np.delete(R2, plane, axis=0)
    # row base of a window holds a line's coordinate at every step: r1, r2, slot[r3]
    rank, slot = (np.lib.stride_tricks.sliding_window_view(z, n - 1) for z in frame.zech_rows)
    base = R1[:, 1:] * (3 * (n - 1)) + ctx.log_np[R2[:, 1:]]
    for b in np.split(base, range(g := max(1, GROUP_SIZE // (n - 1)), len(base), g)):
        a = np.multiply(rank[b[:, 0]], n, dtype=np.intp)   # (lines, order-1), a group at most
        a += rank[b[:, 1]]                    # rank x1 * order + rank x2
        d = start.take(a)
        np.subtract(slot[b[:, 2]], d, out=d)  # x3's place in its fibre if 0 <= d < q
        if d.view(np.uint32).max(initial=0) >= q:   # some d < 0 or d >= q, as unsigned
            i, t = np.unravel_index(np.argmax(d.view(np.uint32) >= q), d.shape)
            packed = (one * n * n + int(a[i, t])) * n + int(rank[b[i, 2], t])
            raise ValueError(f"{unpack(ctx, packed)} is not on the surface")
        a *= q
        a += d
        np.add.at(counts, a.reshape(-1), inc)
        del a, d                              # before the next group's arrays are made


def surface_point(frame: HermitianFrame, index):
    """Packed surface point of each index (the inverse of surface_index)."""
    one, fibre, _, start, sol_at = frame.index_tables
    n, q5 = frame.ctx.order, frame.q ** 5
    i = np.asarray(index, dtype=np.int64)
    a, k = np.divmod(np.minimum(i, q5 - 1), frame.q)
    affine = (one * n * n + a) * n + fibre[start[a] + k]
    j, r3 = np.divmod(np.maximum(i - q5 - 1, 0), n)
    sols = np.flatnonzero(sol_at >= 0)
    tail = np.where(i == q5, one, (one * n + sols[j]) * n + r3)
    return np.where(i < q5, affine, tail)
