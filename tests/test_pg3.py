import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hemisys import gf, hemisystem, pg3

import oracles


@pytest.fixture(scope="module")
def cp3(F9):
    return pg3.cp_frame(F9)


@pytest.fixture(scope="module")
def ft17f(F289):
    return pg3.ft_frame(F289)


def test_ft_frame_examples(ft17f):
    assert pg3.on_surface(ft17f, (1, 0, 0, 0))
    assert not pg3.on_surface(ft17f, (0, 1, 0, 0))


def test_cp_curve_points_on_surface(F289):
    frame = pg3.cp_frame(F289)
    rng = random.Random(0)
    h = 1
    for _ in range(20):
        t = rng.randrange(289)
        P = (1, t, F289.frobenius(t, h), F289.mul(t, F289.frobenius(t, h)))
        assert pg3.on_surface(frame, P)


def test_tangent_plane_cp_at_infinity(cp3, F9):
    c = oracles.tangent_plane(cp3, (0, 0, 0, 1))
    c = pg3.normalize(F9, c)
    assert c == (1, 0, 0, 0)          # plane X0 = 0


def test_tangent_plane_ft_at_origin(ft17f, F289):
    c = oracles.tangent_plane(ft17f, (1, 0, 0, 0))
    assert pg3.normalize(F289, c) == (0, 0, 0, 1)   # plane X3 = 0


def test_point_on_own_tangent_plane(ft17f, F289):
    pts = oracles.enumerate_surface(ft17f)
    rng = random.Random(1)
    for _ in range(25):
        P = pg3.unpack(F289, int(pts[rng.randrange(len(pts))]))
        assert oracles.on_plane(F289, oracles.tangent_plane(ft17f, P), P)


def test_tangent_plane_requires_surface_point(ft17f):
    with pytest.raises(ValueError, match=r"^\(0, 1, 0, 0\) is not on the surface$"):
        oracles.tangent_plane(ft17f, (0, 1, 0, 0))


def test_line_has_q2_plus_1_points(F9, F289):
    assert len(pg3.line_points(F9, (1, 0, 0, 0), (0, 1, 0, 0))) == 10
    assert len(pg3.line_points(F289, (1, 0, 0, 0), (0, 1, 0, 0))) == 290


def test_line_points_in_a_field_above_the_one_chunk_size():
    # GF(47^2) has order 2209 > 2^11; it adds by the same Zech formula as every field
    F = gf.make_field(47, 2)
    pts = pg3.line_points(F, (1, 0, 0, 0), (0, 1, 0, 0))
    assert len(np.unique(pts)) == len(pts) == 47 ** 2 + 1


def test_line_key_symmetric(F9):
    A, B = (1, 0, 2, 1), (0, 1, 1, 2)
    assert pg3.line_key(F9, A, B) == pg3.line_key(F9, B, A)
    with pytest.raises(ValueError, match="^line through equal points$"):
        pg3.line_key(F9, A, A)


def test_line_key_points_are_smallest_on_line(F9):
    key = pg3.line_key(F9, (1, 0, 2, 1), (0, 1, 1, 2))
    pts = sorted(pg3.line_points(F9, *pg3.key_points(F9, key)))
    assert (int(pts[0]), int(pts[1])) == key


def _oracle_points(F, A, B) -> list:
    """Sorted packed points of the line AB by scalar arithmetic: A + lam B, and B."""
    pts = {pg3.pack_point(F, [F.add(a, F.mul(lam, b)) for a, b in zip(A, B)])
           for lam in range(F.order)}
    return sorted(pts | {pg3.pack_point(F, B)})


def _random_lines(F, rng, n):
    """n random point pairs spanning lines; many rows start with zero pivots."""
    out = []
    while len(out) < n:
        A = [rng.randrange(F.order) for _ in range(4)]
        B = [rng.randrange(F.order) for _ in range(4)]
        for row in (A, B):
            for k in range(rng.randrange(4)):
                row[k] = 0
        if any(A) and any(B) and pg3.normalize(F, A) != pg3.normalize(F, B):
            out.append((A, B))
    return out


@pytest.mark.parametrize("p, d", [(3, 2), (5, 2), (3, 4), (13, 2)])
def test_line_keys_and_points_match_the_scalar_oracle(p, d):
    F = gf.make_field(p, d)
    lines = _random_lines(F, random.Random(p * 10 + d), 60)
    A = np.asarray([a for a, _ in lines], dtype=np.int64)
    B = np.asarray([b for _, b in lines], dtype=np.int64)
    keys = pg3.line_keys_batch(F, A, B)
    rows = pg3.line_points_batch(F, A, B)
    assert rows.shape == (len(lines), F.order + 1)
    for (a, b), key, row in zip(lines, keys, rows):
        oracle = _oracle_points(F, a, b)
        assert len(oracle) == F.order + 1
        assert (int(key[0]), int(key[1])) == tuple(oracle[:2])
        assert sorted(int(x) for x in row) == oracle


def test_line_keys_batch_raises_on_a_proportional_pair(F9):
    A = np.asarray([[1, 0, 2, 1], [0, 1, 1, 2], [0, 0, 1, 5]], dtype=np.int64)
    # row 2 of B is a multiple of row 2 of A
    B = np.asarray([[0, 1, 1, 2], [1, 0, 0, 0], [F9.mul(3, int(x)) for x in A[2]]],
                   dtype=np.int64)
    with pytest.raises(ValueError, match="^line through equal points$"):
        pg3.line_keys_batch(F9, A, B)
    with pytest.raises(ValueError, match="^line through equal points$"):
        pg3.line_points_batch(F9, A, B)
    assert len(pg3.line_keys_batch(F9, A[:2], B[:2])) == 2


def test_generators_through_raises_when_a_partner_is_dropped(cp3, monkeypatch):
    on_surface = pg3.on_surface

    def drop_a_hit(frame, P):                     # the transversal scan's mask is 2-D
        hit = on_surface(frame, P)
        if hit.ndim == 2:
            hit[0, np.flatnonzero(hit[0])[-1]] = False
        return hit

    monkeypatch.setattr(pg3, "on_surface", drop_a_hit)
    with pytest.raises(gf.InvariantFailed, match="^a transversal has other than 4 surface points$"):
        pg3.generators_through(cp3, (0, 0, 0, 1))


def test_generators_through_raises_on_a_repeated_generator(cp3, monkeypatch):
    keys_batch = pg3.line_keys_batch

    def repeat_a_key(ctx, A, B):
        keys = keys_batch(ctx, A, B)
        keys[1] = keys[0]
        return keys

    monkeypatch.setattr(pg3, "line_keys_batch", repeat_a_key)
    with pytest.raises(gf.InvariantFailed, match="^fewer than 4 distinct generators through a point$"):
        pg3.generators_through(cp3, (0, 0, 0, 1))


@pytest.mark.parametrize("make_frame, p, h", [(pg3.cp_frame, 3, 1), (pg3.cp_frame, 5, 1),
                                              (pg3.cp_frame, 3, 2), (pg3.ft_frame, 3, 2),
                                              (pg3.ft_frame, 17, 1)])
def test_generators_through_batch_matches_the_scalar_scan(make_frame, p, h):
    frame = make_frame(gf.make_field(p, 2 * h))
    q5, rng = frame.q ** 5, random.Random(p + h)
    # affine points, (0,0,0,1) at q^5, then points (0, 1, x2, x3)
    idx = sorted({*rng.sample(range(q5), 24), q5, q5 + 1, frame.num_points - 1,
                  *rng.sample(range(q5 + 1, frame.num_points), 8)})
    P = np.stack(pg3.unpack_batch(frame.ctx, pg3.surface_point(frame, idx)), axis=1)
    keys = pg3.generators_through_batch(frame, P)
    assert keys.shape == (len(idx), frame.q + 1, 2)
    for row, point in zip(keys, P.tolist()):
        expect = oracles.generators_through(frame, point)
        assert [tuple(k) for k in row.tolist()] == pg3.generators_through(frame, point) == expect


def test_generators_through_batch_refuses_an_off_surface_point(cp3):
    with pytest.raises(ValueError, match=r"^\(0, 1, 0, 0\) is not on the surface$"):
        pg3.generators_through_batch(cp3, [(0, 0, 0, 1), (0, 1, 0, 0)])


def test_is_generator_ft_example(ft17f, F289):
    # the line from the origin to (1, sqrt(-2) b, b, 0)
    b = F289.sqrt(3)
    j = F289.pow(b, 8)
    sm2 = F289.mul(j, F289.sqrt(2))
    P = (1, F289.mul(sm2, b), b, 0)
    assert pg3.is_generator(ft17f, (1, 0, 0, 0), P)


def test_cp_tangent_line_is_not_generator(cp3, F9):
    # tangent line to the rational curve at (0,0,0,1) is spanned with (0,0,1,0)
    A, B = (0, 0, 0, 1), (0, 0, 1, 0)
    assert not pg3.is_generator(cp3, A, B)
    on = [p for p in pg3.line_points(F9, A, B)
          if pg3.on_surface(cp3, pg3.unpack(F9, int(p)))]
    assert len(on) == 1               # tangent: no further surface point


def test_random_nonconjugate_line_is_not_generator(ft17f, F289):
    pts = oracles.enumerate_surface(ft17f)
    rng = random.Random(2)
    found = 0
    while found < 10:
        A = pg3.unpack(F289, int(pts[rng.randrange(len(pts))]))
        B = pg3.unpack(F289, int(pts[rng.randrange(len(pts))]))
        if A == B or pg3.herm_form(ft17f, A, B) == 0:
            continue
        assert not pg3.is_generator(ft17f, A, B)
        found += 1


def test_generators_through_count_q3(cp3, F9):
    pts = oracles.enumerate_surface(cp3)
    for packed in pts[:20]:
        P = pg3.unpack(F9, int(packed))
        assert len(pg3.generators_through(cp3, P)) == 4


def test_generators_through_z_infinity_q17(ft17f, F289):
    keys = pg3.generators_through(ft17f, (0, 0, 0, 1))
    assert len(keys) == 18
    zpacked = pg3.pack_point(F289, (0, 0, 0, 1))
    minus2 = F289.neg(2)
    ks = set()
    sets = []
    for key in keys:
        A, B = pg3.key_points(F289, key)
        pts = set(int(x) for x in pg3.line_points(F289, A, B))
        sets.append(pts)
        # line has the parametric form (0, k, 1, T) plus the vertex
        for p in pts:
            c = pg3.unpack(F289, p)
            assert c[0] == 0
            if c[2] != 0:
                k = F289.div(c[1], c[2])
                ks.add(k)
                assert F289.pow(k, 18) == minus2
    assert len(ks) == 18
    assert set.intersection(*sets) == {zpacked}


def test_enumerate_surface_counts(cp3, ft17f, F25):
    assert len(oracles.enumerate_surface(cp3)) == 280
    assert len(oracles.enumerate_surface(pg3.cp_frame(F25))) == 3276
    assert oracles.enumerate_surface(ft17f).shape[0] == 1425060


@pytest.mark.parametrize("family,p,d", [("cp", 3, 2), ("cp", 5, 2),
                                        ("ft", 3, 4), ("ft", 17, 2)])
def test_surface_index_round_trips_enumerate_surface(family, p, d):
    ctx = gf.make_field(p, d)
    frame = pg3.cp_frame(ctx) if family == "cp" else pg3.ft_frame(ctx)
    pts = oracles.enumerate_surface(frame)
    assert len(pts) == frame.num_points and (np.diff(pts) > 0).all()
    assert pg3.on_surface(frame, pg3.unpack_batch(ctx, pts)).all()
    idx = pg3.surface_index(frame, pts)
    assert (np.sort(idx) == np.arange(frame.num_points)).all()
    assert (pg3.surface_point(frame, idx) == pts).all()


@pytest.mark.parametrize("family", ["cp", "ft"])
def test_surface_index_raises_exactly_off_the_surface(family, F9):
    frame = pg3.cp_frame(F9) if family == "cp" else pg3.ft_frame(F9)
    on = 0
    for packed in range(1, 9 ** 4):
        P = pg3.unpack(F9, packed)
        if pg3.normalize(F9, P) != P:
            continue
        if pg3.on_surface(frame, P):
            on += 1
            pg3.surface_index(frame, [packed])
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(str(P))} is not on the surface$"):
                pg3.surface_index(frame, [packed])
    assert on == frame.num_points
    surf = oracles.enumerate_surface(frame)
    with pytest.raises(ValueError, match=r"^\(0, 0, 1, 0\) is not on the surface$"):
        pg3.surface_index(frame, np.append(surf, pg3.pack(F9, (0, 0, 1, 0))))


@pytest.mark.parametrize("field", ["F9", "F289"])
def test_is_rref_key_is_the_key_coming_back(field, request):
    # 20,000 pairs of normalized points: random ones (equal leads among them),
    # canonical keys, the keys swapped, and keys (A, B + lam A), nonzero at
    # lead(A); then 5,000 keys (lam A, B) whose first point is not normalized
    ctx = request.getfixturevalue(field)
    n = ctx.order
    rng = np.random.default_rng(n)
    lead = rng.integers(0, 4, (2, 6000, 1))
    rand = ctx.unrank_np[rng.integers(0, n, (2, 6000, 4))]
    A, B = np.where(np.arange(4) < lead, 0, np.where(np.arange(4) == lead, 1, rand))
    distinct = np.flatnonzero((A != B).any(axis=1))[:5000]       # a point is no line
    A, B = A[distinct], B[distinct]
    KA, KB = (np.stack(pg3.unpack_batch(ctx, k), axis=1)
              for k in pg3.line_keys_batch(ctx, A, B).T)
    lam = ctx.unrank_np[rng.integers(1, n, (len(KA), 1))]
    lam[lam == 1] = ctx.neg_np[1]                # lam is neither 0 nor 1
    A, B = (np.concatenate(c) for c in zip((A, B), (KA, KB), (KB, KA),
                                            (KA, gf.vec_add(ctx, KB, gf.vec_mul(ctx, lam, KA))),
                                            (gf.vec_mul(ctx, lam, KA), KB)))
    came_back = (pg3.line_keys_batch(ctx, A, B)
                 == np.stack([pg3._pack_rows(ctx, P) for P in (A, B)], axis=1)).all(1)
    assert len(A) == 25000 and 5000 < came_back.sum() < 6000
    assert ((A != 0).argmax(axis=1) == (B != 0).argmax(axis=1)).sum() > 500
    assert np.array_equal(pg3.is_rref_key(A, B), came_back)


def test_is_rref_key_holds_on_every_key_of_cp5():
    cand = hemisystem.build_cp(5)
    ctx = cand.ctx2()
    A, B = (np.stack(pg3.unpack_batch(ctx, k), axis=1) for k in cand.lines.T)
    assert pg3.is_rref_key(A, B).all()
    assert np.array_equal(pg3.line_keys_batch(ctx, A, B), cand.lines)


def test_index_tables_build_without_order_squared_int64_temporaries():
    # start has order^2 int32 entries (11.3 MB at q=41); an int64 temporary
    # of that length would take twice as much again
    frame = pg3.ft_frame(gf.make_field(41, 2))
    tracemalloc.start()
    try:
        tables = frame.index_tables
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = sum(t.nbytes for t in tables[1:])
    assert final > 11e6 and peak < 2 * final, (peak, final)


def _packed_counts(frame, keys):
    """Incidences of key rows by the packed path: surface_index of line_points_table."""
    counts = np.zeros(frame.num_points, dtype=np.int64)
    for lo in range(0, len(keys), 4096):
        pts = oracles.line_points_table(frame.ctx, keys[lo:lo + 4096])
        np.add.at(counts, pg3.surface_index(frame, pts), 1)
    return counts


def _kernel_counts(frame, keys, block, workers):
    """Incidences of key rows by count_incidences, over verify's contiguous shares."""
    counts = np.zeros(frame.num_points, dtype=np.int64)
    for share in np.array_split(keys, workers):
        for lo in range(0, len(share), block):
            pg3.count_incidences(frame, share[lo:lo + block], counts)
    return counts


@pytest.mark.parametrize("family,p,h", [("cp", 3, 1), ("cp", 5, 1), ("cp", 3, 2), ("cp", 13, 1),
                                        ("ft", 3, 2), ("ft", 17, 1)])
def test_line_surface_index_matches_the_packed_path(family, p, h, request):
    # the packed points of line_points_table are the reference; count_incidences
    # must count every point of every line the same, in any block size and share
    if (family, p) == ("ft", 17):
        cand = request.getfixturevalue("ft17_build")[0]
    elif family == "cp":
        cand = hemisystem.build_cp(p, h)
    else:
        cand = hemisystem.build_ft(p, h, force=True)
    ctx = cand.ctx2()
    frame = pg3.cp_frame(ctx) if family == "cp" else pg3.ft_frame(ctx)
    q = frame.q
    rng = random.Random(p * h)
    pts = pg3.surface_point(frame, [rng.randrange(frame.num_points) for _ in range(60)])
    extra = [rng.choice(pg3.generators_through(frame, pg3.unpack(ctx, int(x)))) for x in pts]
    # the candidate's lines in the X0 = 0 tangent plane take the packed branch
    plane = np.flatnonzero(cand.lines[:, 1] < pg3.pack(ctx, (1, 0, 0, 0)))
    assert len(plane) == (q + 1) // 2
    # two other points of a line are a non-canonical key row, which the kernel redoes
    some = np.concatenate([plane, rng.sample(range(len(cand.lines)), 30)])
    other = oracles.line_points_table(ctx, cand.lines[some])[:, [3, 2]]
    A, B = (np.stack(pg3.unpack_batch(ctx, other[:, k]), axis=1) for k in (0, 1))
    assert not pg3.is_rref_key(A, B).any()
    keys = np.vstack([cand.lines, np.asarray(extra, dtype=np.int64), other])
    want = _packed_counts(frame, keys)
    assert want.sum() == len(keys) * (q * q + 1)
    for workers in (1, 2, 3):
        assert np.array_equal(_kernel_counts(frame, keys, pg3.BLOCK_ROWS, workers), want)
    # blocks of 1 and 7 lines on every line but the candidate's bulk
    few = np.vstack([cand.lines[some], np.asarray(extra, dtype=np.int64), other])
    for block in (1, 7):
        for workers in (1, 3):
            assert np.array_equal(_kernel_counts(frame, few, block, workers),
                                  _packed_counts(frame, few))


def test_zech_rows_at_q49_whose_slots_pass_int16():
    # at q = 49 the trace of x has a large element index, so slots run past 2^15:
    # an int16 slot row would wrap, and the kernel call generators off the surface
    frame = pg3.cp_frame(gf.make_field(7, 4))
    slot = frame.index_tables[2]
    assert slot.max() >= 2 ** 15
    rank, zslot = frame.zech_rows
    for lo in range(0, len(rank), 2 ** 22):
        assert np.array_equal(zslot[lo:lo + 2 ** 22], slot[rank[lo:lo + 2 ** 22]])


def _counted_past_the_generator_check(frame, key, monkeypatch):
    """count_incidences of one key row that its generator check rejects, then of the
    same row with the check passing everything, so the kernel's own check must fire."""
    counts = np.zeros(frame.num_points, dtype=np.uint8)
    with pytest.raises(gf.CandidateError, match=rf"^line \({key[0]}, {key[1]}\) is not"):
        pg3.count_incidences(frame, [key], counts)
    monkeypatch.setattr(pg3, "is_generator", lambda frame, A, B: np.ones(len(A[0]), dtype=bool))
    pg3.count_incidences(frame, [key], counts)


@pytest.mark.parametrize("family", ["cp", "ft"])
def test_line_surface_index_raises_off_the_surface(family, F9, monkeypatch):
    # (0,0,0,1) and (1,0,0,0) lie on the surface and are the key of their
    # line, but (1,0,0,lam) with lam + lam^q != 0 do not: the kernel's own
    # check must fire, not only the generator check
    frame = pg3.cp_frame(F9) if family == "cp" else pg3.ft_frame(F9)
    key = pg3.line_key(F9, (1, 0, 0, 0), (0, 0, 0, 1))
    assert key == (pg3.pack(F9, (0, 0, 0, 1)), pg3.pack(F9, (1, 0, 0, 0)))
    assert len(pg3.surface_index(frame, key)) == 2
    with pytest.raises(ValueError, match=r"^\(1, 0, 0, [0-9]+\) is not on the surface$"):
        _counted_past_the_generator_check(frame, key, monkeypatch)


@pytest.mark.parametrize("family", ["cp", "ft"])
def test_line_surface_index_raises_off_the_surface_in_the_x0_plane(family, F9, monkeypatch):
    # (0,1,x,0) and (0,1,x',0) with 1 + e N(x) = 0 lie on the surface, but the
    # line they span is no generator: the points (0,1,lam,0) with 1 + e N(lam)
    # != 0 must fail the X0 = 0 rule, as the key points pass it
    frame = pg3.cp_frame(F9) if family == "cp" else pg3.ft_frame(F9)
    x, y = [x for x in range(9) if pg3.on_surface(frame, (0, 1, x, 0))][:2]
    key = sorted([pg3.pack(F9, (0, 1, x, 0)), pg3.pack(F9, (0, 1, y, 0))])
    assert len(pg3.surface_index(frame, key)) == 2
    with pytest.raises(ValueError, match=r"^\(0, [01], [0-9]+, 0\) is not on the surface$"):
        _counted_past_the_generator_check(frame, key, monkeypatch)


def test_enumerate_generators_counts(cp3, F25):
    assert len(oracles.enumerate_generators(cp3)) == 112
    assert len(oracles.enumerate_generators(pg3.cp_frame(F25))) == 756


def test_enumerate_generators_too_large(ft17f):
    with pytest.raises(gf.UsageError, match="^full generator enumeration at q=17 is heavy"):
        oracles.enumerate_generators(ft17f)


def test_full_incidence_cross_check_q3(cp3, F9):
    gens = oracles.enumerate_generators(cp3)
    cnt = Counter()
    for key in gens:
        A, B = pg3.key_points(F9, key)
        assert pg3.is_generator(cp3, A, B)
        for p in pg3.line_points(F9, A, B):
            cnt[int(p)] += 1
    assert Counter(cnt.values()) == Counter({4: 280})


def test_tangent_plane_intersection_is_generator_union_q3(cp3, F9):
    surf = set(int(x) for x in oracles.enumerate_surface(cp3))
    for packed in list(surf)[:15]:
        P = pg3.unpack(F9, packed)
        coeffs = oracles.tangent_plane(cp3, P)
        in_plane = {s for s in surf
                    if oracles.on_plane(F9, coeffs, pg3.unpack(F9, s))}
        union = set()
        for key in pg3.generators_through(cp3, P):
            A, B = pg3.key_points(F9, key)
            union.update(int(x) for x in pg3.line_points(F9, A, B))
        assert union == in_plane


def test_two_point_generator_criterion_equivalence_q3(cp3, F9):
    # the key-pair criterion agrees with "all q^2+1 points on the surface"
    # for every line spanned by two surface points
    surf = [pg3.unpack(F9, int(x)) for x in oracles.enumerate_surface(cp3)]
    A, B = [], []
    for i in range(0, len(surf), 3):
        for j in range(i + 1, len(surf), 7):
            A.append(surf[i])
            B.append(surf[j])
    keys = pg3.line_keys_batch(F9, np.asarray(A, dtype=np.int64),
                               np.asarray(B, dtype=np.int64))
    seen = {(int(a), int(b)) for a, b in keys}
    gens = set(oracles.enumerate_generators(cp3))
    assert gens & seen
    for key in seen:
        P, Q = pg3.key_points(F9, key)
        full = all(pg3.on_surface(cp3, pg3.unpack(F9, int(r)))
                   for r in pg3.line_points(F9, P, Q))
        assert pg3.is_generator(cp3, P, Q) == full == (key in gens)


def test_surface_predicate_matches_named_equation_q3(cp3, F9):
    # direct check of X1^(q+1) + X2^(q+1) = X0^q X3 + X0 X3^q on every point
    h = 1
    nrm = lambda x: F9.mul(x, F9.frobenius(x, h))
    for x0 in range(9):
        for x1 in range(9):
            for x2 in range(9):
                for x3 in (0, 1, 2):
                    if not (x0 or x1 or x2 or x3):
                        continue
                    lhs = F9.add(nrm(x1), nrm(x2))
                    rhs = F9.add(F9.mul(F9.frobenius(x0, h), x3),
                                 F9.mul(x0, F9.frobenius(x3, h)))
                    assert (lhs == rhs) == pg3.on_surface(cp3, (x0, x1, x2, x3))


def test_polarity_involution(ft17f, F289):
    pts = oracles.enumerate_surface(ft17f)
    rng = random.Random(3)
    for _ in range(20):
        P = pg3.unpack(F289, int(pts[rng.randrange(len(pts))]))
        assert oracles.pole(ft17f, oracles.tangent_plane(ft17f, P)) == pg3.normalize(F289, P)


def test_pack_unpack_roundtrip(F289):
    rng = random.Random(4)
    for _ in range(100):
        c = tuple(rng.randrange(289) for _ in range(4))
        if not any(c):
            continue
        P = pg3.normalize(F289, c)
        assert pg3.unpack(F289, pg3.pack(F289, P)) == P


def test_packed_order_is_digit_lex(F289):
    # packed order = lexicographic order on the concatenated digit vectors,
    # so zero coordinates sort first
    pts = [(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 2)]
    packed = [pg3.pack(F289, p) for p in pts]
    assert packed == sorted(packed)
    digit_seqs = [tuple(c // 17 ** i % 17 for c in p for i in range(2)) for p in pts]
    assert digit_seqs == sorted(digit_seqs)


# ---------------------------------------------------------------------------
# line codes

def _assert_codes_sort_and_round_trip(ctx, keys):
    """keys: sorted distinct key rows; their codes rise strictly and decode back."""
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 2)
    codes = pg3.line_codes(ctx, keys)
    assert codes.dtype == np.int64
    assert (np.diff(codes) > 0).all()
    assert np.array_equal(pg3.code_keys(ctx, codes), keys)


def test_line_code_dense_rank_is_packed_order(F9):
    # with the least point (0,0,0,1) first, a key's code is dense of its second point
    n = F9.order
    r = np.arange(n)
    grid = np.stack(np.meshgrid(r, r, r, r, indexing="ij"), axis=-1).reshape(-1, 4)
    unrank = F9.unrank_np[grid]
    lead = unrank[np.arange(len(grid)), (grid != 0).argmax(axis=1)]
    packed = np.sort(grid[(grid != 0).any(axis=1) & (lead == 1)] @ n ** np.arange(3, -1, -1))
    assert len(packed) == n ** 3 + n ** 2 + n + 1
    first = pg3.pack(F9, (0, 0, 0, 1))
    dense = pg3.line_codes(F9, np.stack([np.full_like(packed, first), packed], axis=1))
    assert np.array_equal(dense, np.arange(len(packed)))


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (7, 2), (3, 4)])
@pytest.mark.parametrize("make_frame", [pg3.cp_frame, pg3.ft_frame])
def test_line_codes_on_every_generator(p, d, make_frame):
    ctx = gf.make_field(p, d)
    _assert_codes_sort_and_round_trip(ctx, oracles.enumerate_generators(make_frame(ctx),
                                                                        force=True))


@pytest.mark.parametrize("p", [17, 41])
def test_line_codes_on_random_lines(p):
    ctx = gf.make_field(p, 2)
    rng = np.random.default_rng(p)
    A, B = rng.integers(0, ctx.order, size=(2, 5000, 4))
    A[:, 0] = 1                        # never zero, and A, B never proportional
    B[:, 0] = 0
    B[(B == 0).all(axis=1), 3] = 1
    keys = np.unique(pg3.line_keys_batch(ctx, A, B), axis=0)
    assert len(keys) > 4900
    _assert_codes_sort_and_round_trip(ctx, keys)


def test_line_codes_refuse_orders_past_int64():
    big = gf.make_field(79, 2)
    with pytest.raises(gf.UsageError, match="^line codes at order 6241 overflow int64$"):
        pg3.line_codes(big, np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(gf.UsageError, match="^line codes at order 6241 overflow int64$"):
        pg3.code_keys(big, np.zeros(0, dtype=np.int64))
    ctx = gf.make_field(73, 2)
    n = ctx.order
    one = int(ctx.rank_np[1])
    # the top code: the last point with X0 = 0, then the last point (ranks
    # (0, 1, n-1, n-1) and (1, n-1, n-1, n-1)), dense n^2 + n and N - 1
    N = n ** 3 + n ** 2 + n + 1
    top = [[one * n * n + (n - 1) * (n + 1), one * n ** 3 + (n - 1) * (n * n + n + 1)]]
    _assert_codes_sort_and_round_trip(ctx, top)
    assert int(pg3.line_codes(ctx, top)[0]) == (n * n + n) * N + N - 1 > 2 ** 61
