import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hemisys import curves, gf, pg3

import gf_q4_oracle as oracle
import oracles


@pytest.fixture(scope="module")
def cp5_setup(F25):
    return (F25, *oracle.gf_q4_setup(F25))


# ---------------------------------------------------------------------------
# rational curve

def test_cp_curve_counts(F9, F25):
    assert len(oracles.cp_curve_points(F9)) == 10
    assert len(oracles.cp_curve_points(F25)) == 26


def test_cp_curve_origin_on_surface(F9):
    frame = pg3.cp_frame(F9)
    assert pg3.on_surface(frame, (1, 0, 0, 0))
    pts = oracles.cp_curve_points(F9)
    assert pg3.pack_point(F9, (1, 0, 0, 0)) in set(int(x) for x in pts)


def test_cp_curve_point_generator_count_q5(F25):
    frame = pg3.cp_frame(F25)
    for packed in oracles.cp_curve_points(F25):
        P = pg3.unpack(F25, int(packed))
        assert len(pg3.generators_through(frame, P)) == 6


@pytest.mark.parametrize("p,expected", [(3, 36), (5, 300)])
def test_cp_chord_counts(p, expected):
    ctx2 = gf.make_field(p, 2)
    chords = curves.cp_imaginary_chords(ctx2)
    assert len(chords) == expected


@pytest.mark.parametrize("p", [3, 5])
def test_cp_chords_are_generators_disjoint_from_curve(p):
    ctx2 = gf.make_field(p, 2)
    frame = pg3.cp_frame(ctx2)
    curve = set(int(x) for x in oracles.cp_curve_points(ctx2))
    chords = curves.cp_imaginary_chords(ctx2)
    rows = oracles.line_points_table(ctx2, chords)
    for key, pts in zip(chords, rows):
        A, B = pg3.key_points(ctx2, (int(key[0]), int(key[1])))
        assert pg3.is_generator(frame, A, B)
        assert not (set(int(x) for x in pts) & curve)


def test_cp_chord_conjugate_pair_same_line(cp5_setup):
    ctx2, ctx4, emb, inv = cp5_setup
    h = 1
    rng = random.Random(0)
    for _ in range(10):
        t = rng.randrange(ctx4.order)
        if inv[t] >= 0:
            continue
        tc = ctx4.frobenius(t, 2 * h)
        def coords(tt):
            return tuple(np.asarray([v], dtype=np.int64) for v in
                         (1, tt, ctx4.frobenius(tt, h), ctx4.mul(tt, ctx4.frobenius(tt, h))))
        k1 = oracle.conj_pair_line_keys(ctx2, ctx4, inv, coords(t))
        k2 = oracle.conj_pair_line_keys(ctx2, ctx4, inv, coords(tc))
        assert (k1 == k2).all()


def test_natural_embedding_tangency_q5(cp5_setup):
    # the tangent plane at a rational curve point meets the curve's
    # GF(q^4) points only in that point, for every rational point
    ctx2, ctx4, emb, inv = cp5_setup
    frame = pg3.cp_frame(ctx2)
    h = 1
    c0, c1, c2, c3 = oracle.cp_curve_coords_q4(ctx2, ctx4, emb)
    for packed in oracles.cp_curve_points(ctx2):
        P = pg3.unpack(ctx2, int(packed))
        coeffs = oracles.tangent_plane(frame, P)
        ce = [int(emb[c]) for c in coeffs]
        acc = np.zeros(len(c0), dtype=np.int64)
        for cc, col in zip(ce, (c0, c1, c2, c3)):
            acc = gf.vec_add(ctx4, acc, gf.vec_mul(ctx4, np.full_like(col, cc), col))
        hits = np.nonzero(acc == 0)[0]
        assert len(hits) == 1
        hit = tuple(int(x[hits[0]]) for x in (c0, c1, c2, c3))
        assert tuple(int(emb[x]) for x in P) == tuple(
            ctx4.mul(v, ctx4.inv(next(u for u in hit if u))) for v in hit)


def test_offcurve_tangent_meets_curve_in_q_plus_1_points_q5(cp5_setup):
    ctx2, ctx4, emb, inv = cp5_setup
    frame = pg3.cp_frame(ctx2)
    curve = set(int(x) for x in oracles.cp_curve_points(ctx2))
    surf = oracles.enumerate_surface(frame)
    c0, c1, c2, c3 = oracle.cp_curve_coords_q4(ctx2, ctx4, emb)
    rng = random.Random(1)
    done = 0
    while done < 50:
        packed = int(surf[rng.randrange(len(surf))])
        if packed in curve:
            continue
        P = pg3.unpack(ctx2, packed)
        coeffs = oracles.tangent_plane(frame, P)
        ce = [int(emb[c]) for c in coeffs]
        acc = np.zeros(len(c0), dtype=np.int64)
        for cc, col in zip(ce, (c0, c1, c2, c3)):
            acc = gf.vec_add(ctx4, acc, gf.vec_mul(ctx4, np.full_like(col, cc), col))
        assert (acc == 0).sum() == 6      # q + 1 distinct curve points
        done += 1


@pytest.mark.parametrize("family,p,h", [("cp", 3, 1), ("cp", 5, 1), ("cp", 7, 1), ("cp", 3, 2),
                                         ("cp", 11, 1), ("cp", 13, 1), ("ft", 5, 1),
                                         ("ft", 3, 2), ("ft", 13, 1), ("ft", 17, 1)])
def test_tower_chords_match_the_gf_q4_oracle(family, p, h):
    # GF(q^2)[sqrt(nu)] and the built GF(q^4) give the same chords, key for key
    ctx2 = gf.make_field(p, 2 * h)
    tower = getattr(curves, f"{family}_imaginary_chords")(ctx2)
    direct = getattr(oracle, f"{family}_imaginary_chords")(ctx2, *oracle.gf_q4_setup(ctx2))
    assert tower.dtype == direct.dtype and np.array_equal(tower, direct)


CHORDS_DROPPING_A_ROW = """
from hemisys import curves, gf, pg3
keys = pg3.line_keys_batch
pg3.line_keys_batch = lambda *args: keys(*args)[1:]
for chords in (curves.cp_imaginary_chords, curves.ft_imaginary_chords):
    try:
        chords(gf.make_field(5, 2))
    except gf.InvariantFailed as e:
        print(__debug__, e)
"""


def test_curve_checks_hold_under_python_O():
    # the chord counts are raises, not asserts that -O strips
    src = str(Path(curves.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", CHORDS_DROPPING_A_ROW],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out == ("False 299 imaginary chords, expected 300\n"
                   "False 179 imaginary chords, expected 180\n")


# ---------------------------------------------------------------------------
# Fuhrmann-Torres point sets

def test_ft_sets_cardinalities_q17(ft17_sets):
    assert len(ft17_sets.omega) == 18
    assert len(ft17_sets.delta_plus) == 2448
    assert len(ft17_sets.delta_minus) == 2448


def test_ft_sets_disjoint_and_on_surface(ft17, ft17_sets):
    allpts = np.concatenate([ft17_sets.omega, ft17_sets.delta_plus,
                             ft17_sets.delta_minus])
    assert len(np.unique(allpts)) == len(allpts)
    cs = pg3.unpack_batch(ft17.ctx2, allpts)
    assert bool(pg3.on_surface(ft17.frame, cs).all())


@pytest.mark.parametrize("p,h", [(3, 2), (13, 1), (17, 1), (5, 2), (29, 1), (41, 1)])
def test_ft_point_sets_match_the_per_v_loop(p, h):
    # the array roots g^(log c / m + k (q^2 - 1) / m) are the loop's roots of u^m = +-c
    ctx2 = gf.make_field(p, 2 * h)
    sets = curves.ft_point_sets(ctx2)
    for got, want in zip((sets.omega, sets.delta_plus, sets.delta_minus),
                         oracles.ft_point_sets(ctx2)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_omega_in_plane_and_conic(ft17, ft17_sets):
    ctx = ft17.ctx2
    for packed in ft17_sets.omega:
        c = pg3.unpack(ctx, int(packed))
        assert c[1] == 0
        assert ctx.sub(ctx.mul(c[0], c[3]), ctx.mul(c[2], c[2])) == 0


def test_each_v_gives_nine_u_values(ft17):
    ctx = ft17.ctx2
    rng = random.Random(2)
    for _ in range(20):
        v = rng.randrange(289)
        if ft17.in_gfq(v):
            continue
        c = ctx.sub(ctx.frobenius(v, 1), v)
        assert len(ctx.power_residue_solutions(c, 9)) == 9


@pytest.mark.parametrize("sign", [1, -1])
def test_ft_membership_identity_exhaustive_q5(F25, sign):
    # (1, x, y, y^2) lies on the surface whenever y^q - y = +-x^((q+1)/2)
    frame = pg3.ft_frame(F25)
    for x in range(25):
        for y in range(25):
            lhs = F25.sub(F25.frobenius(y, 1), y)
            rhs = F25.pow(x, 3) if x else 0
            if sign < 0:
                rhs = F25.neg(rhs)
            if lhs == rhs:
                assert pg3.on_surface(frame, (1, x, y, F25.mul(y, y)))


def test_ft_membership_identity_random_q17(ft17):
    ctx = ft17.ctx2
    rng = random.Random(3)
    hits = 0
    while hits < 10000:
        x = rng.randrange(289)
        c = ctx.pow(x, 9) if x else 0
        ys = [y for y in range(289) if ctx.sub(ctx.frobenius(y, 1), y) == c]
        y = ys[rng.randrange(len(ys))] if ys else None
        if y is None:
            continue
        assert pg3.on_surface(ft17.frame, (1, x, y, ctx.mul(y, y)))
        hits += len(ys) and 17 or 0


def test_ft_chord_count_q17(ft17_chords):
    assert len(ft17_chords) == 22032


def test_ft_chords_generators_disjoint_exhaustive_q17(ft17, ft17_sets, ft17_chords):
    frame = ft17.frame
    keys = np.asarray(ft17_chords, dtype=np.int64)
    assert pg3.is_generator(frame, *(pg3.unpack_batch(ft17.ctx2, keys[:, c]) for c in (0, 1))).all()
    rows = oracles.line_points_table(ft17.ctx2, keys)
    rational = np.concatenate([ft17_sets.omega, ft17_sets.delta_plus,
                               ft17_sets.delta_minus])
    assert not np.isin(rows.reshape(-1), rational).any()


def test_ft_chords_avoid_omega_pencils(ft17, ft17_g2, ft17_chords):
    chord_set = {(int(a), int(b)) for a, b in ft17_chords}
    assert not (chord_set & set(ft17_g2))


def test_g2_size(ft17_g2):
    assert len(ft17_g2) == 324


def test_g1_size_and_single_delta_meetings(ft17, ft17_sets, ft17_g1):
    assert len(ft17_g1) == 44064
    keys = np.asarray(ft17_g1, dtype=np.int64)
    rows = oracles.line_points_table(ft17.ctx2, keys)
    n = rows.shape[0]
    in_plus = np.isin(rows, ft17_sets.delta_plus).sum(axis=1)
    in_minus = np.isin(rows, ft17_sets.delta_minus).sum(axis=1)
    in_omega = np.isin(rows, ft17_sets.omega).sum(axis=1)
    assert (in_plus == 1).all() and (in_minus == 1).all() and (in_omega == 0).all()


def test_classify_generator(ft17, ft17_sets, ft17_g2, ft17_g1, ft17_chords):
    assert oracles.classify_generator(ft17.frame, ft17_g2[0], ft17_sets) \
        == oracles.G2_MEETS_OMEGA
    assert oracles.classify_generator(ft17.frame, ft17_g1[0], ft17_sets) \
        == oracles.G1_MEETS_DELTAS
    k = (int(ft17_chords[0][0]), int(ft17_chords[0][1]))
    assert oracles.classify_generator(ft17.frame, k, ft17_sets) == oracles.DISJOINT
    # a non-generator is rejected
    ctx = ft17.ctx2
    surf = oracles.enumerate_surface(ft17.frame)
    rng = random.Random(4)
    while True:
        A = pg3.unpack(ctx, int(surf[rng.randrange(len(surf))]))
        B = pg3.unpack(ctx, int(surf[rng.randrange(len(surf))]))
        if A != B and pg3.herm_form(ft17.frame, A, B) != 0:
            break
    with pytest.raises(oracles.NotGenerator):
        oracles.classify_generator(ft17.frame, pg3.line_key(ctx, A, B), ft17_sets)


# ---------------------------------------------------------------------------
# point types

def test_point_type_examples(ft17):
    assert oracles.classify_point_type(ft17.ctx2, ft17.p_eps(1)) == oracles.TYPE_III
    assert oracles.classify_point_type(ft17.ctx2, ft17.p_eps(-1)) == oracles.TYPE_III
    # a surface point projecting into the Baer subplane: fix x2, x3 in GF(q)
    # and solve the norm equation for x1
    ctx = ft17.ctx2
    x2, x3 = 1, 5
    rhs = ctx.sub(ctx.mul(2, x3), ctx.mul(2, ctx.mul(x2, x2)))   # Tr(x3) - 2 x2^2
    x1 = ctx.power_residue_solutions(rhs, 18)[0]
    P = (1, x1, x2, x3)
    assert pg3.on_surface(ft17.frame, P)
    assert oracles.classify_point_type(ctx, P) == oracles.RATIONAL_SUBPLANE


def test_point_type_census_q5_against_line_scan(F25):
    """Census over all surface points matches a brute-force line-type scan."""
    ctx = F25
    q, h = 5, 1
    frame = pg3.ft_frame(ctx)
    sub = [x for x in range(25) if ctx.frobenius(x, h) == x]
    # the 31 lines of PG(2,5) as coefficient triples over the subfield
    trips = []
    for a in sub:
        for b in sub:
            for c in sub:
                if (a, b, c) == (0, 0, 0):
                    continue
                t = pg3.normalize(ctx, (a, b, c, 0))[:3]
                if t not in trips:
                    trips.append(t)
    assert len(trips) == 31
    conic = set()
    for y in sub:
        conic.add(pg3.normalize(ctx, (1, y, ctx.mul(y, y), 0))[:3])
    conic.add((0, 0, 1))
    assert len(conic) == 6

    def dot3(t, P):
        return ctx.add(ctx.add(ctx.mul(t[0], P[0]), ctx.mul(t[1], P[1])),
                       ctx.mul(t[2], P[2]))

    def brute_type(proj):
        if all(ctx.frobenius(x, h) == x for x in proj):
            return oracles.RATIONAL_SUBPLANE
        lines = [t for t in trips if dot3(t, proj) == 0]
        assert len(lines) == 1
        t = lines[0]
        hits = sum(1 for c in conic if dot3(t, c) == 0)
        return {0: oracles.TYPE_I, 2: oracles.TYPE_II, 1: oracles.TYPE_III}[hits]

    census = {}
    for packed in oracles.enumerate_surface(frame):
        P = pg3.unpack(ctx, int(packed))
        proj = pg3.normalize(ctx, (P[0], P[2], P[3]))
        tag = oracles.classify_point_type(ctx, P)
        assert tag == brute_type(proj)
        census[tag] = census.get(tag, 0) + 1
    assert sum(census.values()) == 3276


# ---------------------------------------------------------------------------
# frame constants

def test_ft_frame_setup_q17(ft17):
    ctx = ft17.ctx2
    assert ctx.mul(ft17.j, ft17.j) == ctx.neg(1)
    assert ft17.in_gfq(ft17.j)
    assert ctx.mul(ft17.b, ctx.frobenius(ft17.b, 1)) == ctx.neg(ft17.omega)
    assert ctx.mul(ft17.sqrtm2, ft17.sqrtm2) == ctx.neg(2)
    assert ft17.chi_q(ft17.omega) == -1      # non-square in GF(q)
    assert ft17.in_gfq(ft17.omega)
    # chi solves its sign identity, and the other value does not
    root = ft17.sqrt2 if ft17.chi == 1 else ctx.neg(ft17.sqrt2)
    assert ft17.chi == ft17.eps * ft17.chi_q(ctx.sub(2, root))
    other = -ft17.chi
    oroot = ft17.sqrt2 if other == 1 else ctx.neg(ft17.sqrt2)
    assert other != ft17.eps * ft17.chi_q(ctx.sub(2, oroot))


@pytest.mark.parametrize("p", [5, 13])
def test_ft_frame_two_not_square(p):
    with pytest.raises(gf.UsageError, match=f"^2 is a non-square in GF\\({p}\\)$"):
        curves.ft_frame_setup(p, 1)


def test_ft_frame_bad_congruence():
    with pytest.raises(gf.UsageError, match="^q = 7 is not 1 mod 4$"):
        curves.ft_frame_setup(7, 1)


def test_ft_frame_eps_minus(ft17):
    fr2 = curves.ft_frame_setup(17, 1, -1)
    assert fr2.chi == -ft17.chi
    assert fr2.b == ft17.b and fr2.sqrt2 == ft17.sqrt2
