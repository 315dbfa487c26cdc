import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hemisys import curves, gf, groups, hemisystem, pg3

import oracles


def _moebius_apply(ctx, mb, t):
    a, b, c, d = mb
    if t is None:
        return None if c == 0 else ctx.div(a, c)
    den = ctx.add(ctx.mul(c, t), d)
    if den == 0:
        return None
    return ctx.div(ctx.add(ctx.mul(a, t), b), den)


def _curve_point(ctx, t):
    if t is None:
        return (0, 0, 0, 1)
    h = ctx.d // 2
    tq = ctx.frobenius(t, h)
    return (1, t, tq, ctx.mul(t, tq))


def test_cp_lift_identity(F9):
    col = oracles.cp_lift(F9, (1, 0, 0, 1))
    assert pg3.normalize(F9, col.ravel()) == pg3.normalize(F9, np.eye(4, dtype=np.int64).ravel())


def test_cp_lift_singular(F9):
    with pytest.raises(oracles.Singular):
        oracles.cp_lift(F9, (1, 1, 1, 1))


def test_cp_lift_translation_matrix(F289):
    # the lift of t -> t + alpha is lower triangular with rows
    # (1,0,0,0), (a,1,0,0), (a^q,0,1,0), (a^{q+1}, a^q, a, 1)
    a = 7
    col = oracles.cp_lift(F289, (1, a, 0, 1))
    aq = F289.frobenius(a, 1)
    expect = ((1, 0, 0, 0), (a, 1, 0, 0), (aq, 0, 1, 0),
              (F289.mul(a, aq), aq, a, 1))
    assert pg3.normalize(F289, col.ravel()) == pg3.normalize(F289, np.ravel(expect))


def test_cp_lift_action_property(F9):
    rng = random.Random(0)
    count = 0
    while count < 30:
        mb = tuple(rng.randrange(9) for _ in range(4))
        if F9.sub(F9.mul(mb[0], mb[3]), F9.mul(mb[1], mb[2])) == 0:
            continue
        col = oracles.cp_lift(F9, mb)
        for t in list(range(9)) + [None]:
            src = _curve_point(F9, t)
            tgt = _curve_point(F9, _moebius_apply(F9, mb, t))
            assert pg3.normalize(F9, groups.apply(F9, col, src)) == pg3.normalize(F9, tgt)
        count += 1


def test_cp_lift_multiplicative(F9):
    rng = random.Random(1)
    done = 0
    while done < 20:
        m1 = tuple(rng.randrange(9) for _ in range(4))
        m2 = tuple(rng.randrange(9) for _ in range(4))
        det = lambda m: F9.sub(F9.mul(m[0], m[3]), F9.mul(m[1], m[2]))
        if det(m1) == 0 or det(m2) == 0:
            continue
        prod = (F9.add(F9.mul(m1[0], m2[0]), F9.mul(m1[1], m2[2])),
                F9.add(F9.mul(m1[0], m2[1]), F9.mul(m1[1], m2[3])),
                F9.add(F9.mul(m1[2], m2[0]), F9.mul(m1[3], m2[2])),
                F9.add(F9.mul(m1[2], m2[1]), F9.mul(m1[3], m2[3])))
        assert pg3.normalize(F9, pg3.mat_mul(F9, oracles.cp_lift(F9, m1),
                                             oracles.cp_lift(F9, m2)).ravel()) \
            == pg3.normalize(F9, oracles.cp_lift(F9, prod).ravel())
        done += 1


def test_cp_lift_preserves_curve_set(F9):
    pts = set(int(x) for x in oracles.cp_curve_points(F9))
    rng = random.Random(2)
    done = 0
    while done < 20:
        mb = tuple(rng.randrange(9) for _ in range(4))
        if F9.sub(F9.mul(mb[0], mb[3]), F9.mul(mb[1], mb[2])) == 0:
            continue
        col = oracles.cp_lift(F9, mb)
        img = {pg3.pack_point(F9, groups.apply(F9, col, pg3.unpack(F9, p))) for p in pts}
        assert img == pts
        assert groups.preserves_form(pg3.cp_frame(F9), col) is not None
        done += 1


def _cp_generator_set(ctx):
    frame = pg3.cp_frame(ctx)
    keys = set()
    for packed in oracles.cp_curve_points(ctx):
        keys.update(pg3.generators_through(frame, pg3.unpack(ctx, int(packed))))
    return keys


@pytest.mark.parametrize("p,total,half", [(3, 40, 20), (5, 156, 78)])
def test_cp_orbit_split(p, total, half):
    ctx = gf.make_field(p, 2)
    gcp = _cp_generator_set(ctx)
    assert len(gcp) == total
    G, H = oracles.cp_group_gens(ctx)
    seed = min(pg3.generators_through(pg3.cp_frame(ctx), (0, 0, 0, 1)))
    M = set(map(tuple, oracles.orbit(ctx, H, seed).tolist()))
    assert len(M) == half
    M2 = set(map(tuple, oracles.orbit(ctx, H, min(gcp - M)).tolist()))
    assert M2 == gcp - M
    full = set(map(tuple, oracles.orbit(ctx, G, seed).tolist()))
    assert full == gcp


@pytest.mark.parametrize("p, h", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2)])
@pytest.mark.parametrize("seed_orbit", ["plus", "minus"])
def test_cp_half_orbits_are_the_bfs_orbits(p, h, seed_orbit):
    # the pencil unions are PSL(2, q^2)'s two orbits on the curve-meeting generators
    ctx = gf.make_field(p, 2 * h)
    seed = pg3.generators_through(pg3.cp_frame(ctx), (0, 0, 0, 1))[0]
    plus, minus = curves.cp_half_orbits(ctx, pg3.unpack(ctx, seed[1])[2])
    half = plus if seed_orbit == "plus" else minus
    _, H = oracles.cp_group_gens(ctx)
    assert np.array_equal(half, oracles.orbit(ctx, H, tuple(half[0])))
    assert (seed in set(map(tuple, half.tolist()))) == (seed_orbit == "plus")
    gcp = set(map(tuple, np.concatenate([plus, minus]).tolist()))
    assert len(gcp) == 2 * len(half) and gcp == _cp_generator_set(ctx)
    cand = hemisystem.build_cp(p, h, seed_orbit=seed_orbit, force=True)
    assert cand.provenance["orbit_size"] == len(half)
    assert set(map(tuple, half.tolist())) <= cand.key_set()


@pytest.mark.parametrize("c", [0, 1, 5, 17, 100, 288])
def test_cp_coset_representative_rows(F289, c):
    # h_c: t -> c - 1/t sends (0,0,0,1) and (0,1,x,0) to the rows cp_half_orbits uses
    col = oracles.cp_lift(F289, (c, F289.neg(1), 1, 0))
    cq = F289.frobenius(c, 1)
    assert pg3.normalize(F289, groups.apply(F289, col, (0, 0, 0, 1))) == (1, c, cq, F289.mul(c, cq))
    for x in (F289.pow(F289.gen, 8 + 16 * k) for k in range(18)):   # x^18 = -1
        expect = (0, x, 1, F289.add(c, F289.mul(cq, x)))
        assert pg3.normalize(F289, groups.apply(F289, col, (0, 1, x, 0))) \
            == pg3.normalize(F289, expect)


def test_ft_gens_form_preservation(ft17, ft17_gens):
    G, H, w = ft17_gens
    for col in G + [w]:
        assert groups.preserves_form(ft17.frame, col) is not None


def test_w_is_commuting_involution(ft17, ft17_gens):
    G, H, w = ft17_gens
    ctx = ft17.ctx2
    ident = pg3.normalize(ctx, np.eye(4, dtype=np.int64).ravel())
    assert pg3.normalize(ctx, pg3.mat_mul(ctx, w, w).ravel()) == ident
    for col in G:
        assert pg3.normalize(ctx, pg3.mat_mul(ctx, w, col).ravel()) \
            == pg3.normalize(ctx, pg3.mat_mul(ctx, col, w).ravel())


BUILD_GROUPS_WITH_A_BROKEN_FORM = """
from hemisys import curves, gf, groups
groups.preserves_form = lambda frame, col: None
try:
    groups.ft_group_gens(curves.ft_frame_setup(3, 2, 1))
except gf.InvariantFailed as e:
    print(__debug__, e)
"""


def test_group_checks_hold_under_python_O():
    # the generator checks are raises, not asserts that -O strips
    src = str(Path(groups.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", BUILD_GROUPS_WITH_A_BROKEN_FORM],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False an ft generator breaks the form\n"


def test_ft_gens_preserve_point_sets(ft17, ft17_sets, ft17_gens):
    ctx = ft17.ctx2
    G, H, w = ft17_gens

    def image(col, packed_arr):
        cols = pg3.unpack_batch(ctx, np.asarray(packed_arr, dtype=np.int64))
        out = groups.apply(ctx, col, cols)
        return set(int(x) for x in pg3.norm_pack_batch(ctx, *out))

    om = set(int(x) for x in ft17_sets.omega)
    dp = set(int(x) for x in ft17_sets.delta_plus)
    dm = set(int(x) for x in ft17_sets.delta_minus)
    for col in G:
        assert image(col, ft17_sets.omega) == om
        assert image(col, ft17_sets.delta_plus) == dp
        assert image(col, ft17_sets.delta_minus) == dm
    assert image(w, ft17_sets.omega) == om
    assert image(w, ft17_sets.delta_plus) == dm
    assert image(w, ft17_sets.delta_minus) == dp


def test_order2_fixed_structures(ft17):
    """diag-type square dilations fix two skew lines; R fixes plane + point."""
    ctx = ft17.ctx2
    q = ft17.q
    m_neg1 = groups.mat_M(ctx, ctx.neg(1))
    # pointwise fixed: the lines X1=X2=0 and X0=X3=0
    for x0 in range(0, 289, 37):
        for x3 in range(0, 289, 41):
            if x0 or x3:
                P = pg3.normalize(ctx, (x0, 0, 0, x3))
                assert pg3.normalize(ctx, groups.apply(ctx, m_neg1, P)) == P
            if x0 or x3:
                P = pg3.normalize(ctx, (0, x0, x3, 0))
                assert pg3.normalize(ctx, groups.apply(ctx, m_neg1, P)) == P
    # a generic point is moved
    assert pg3.normalize(ctx, groups.apply(ctx, m_neg1, (1, 1, 1, 1))) \
        != pg3.normalize(ctx, (1, 1, 1, 1))

    eta = ctx.pow(ctx.gen, q + 1)
    r_eta = groups.mat_R(ctx, eta)
    sq = pg3.mat_mul(ctx, r_eta, r_eta)
    ident = np.eye(4, dtype=np.int64)
    assert pg3.normalize(ctx, sq.ravel()) == pg3.normalize(ctx, ident.ravel())
    # fixed plane X3 = eta*X0 and isolated center (1, 0, 0, -eta)
    rng = random.Random(5)
    for _ in range(40):
        x0, x1, x2 = (rng.randrange(289) for _ in range(3))
        if not (x0 or x1 or x2):
            continue
        P = pg3.normalize(ctx, (x0, x1, x2, ctx.mul(eta, x0)))
        assert pg3.normalize(ctx, groups.apply(ctx, r_eta, P)) == P
    center = pg3.normalize(ctx, (1, 0, 0, ctx.neg(eta)))
    assert pg3.normalize(ctx, groups.apply(ctx, r_eta, center)) == center
    moved = pg3.normalize(ctx, (1, 0, 0, 1))
    assert pg3.normalize(ctx, groups.apply(ctx, r_eta, moved)) != moved


def test_gens_map_g1_bijectively(ft17, ft17_gens, ft17_g1):
    ctx = ft17.ctx2
    G, H, w = ft17_gens
    g1 = set(map(tuple, ft17_g1.tolist()))
    arr = np.asarray(ft17_g1, dtype=np.int64)
    for col in G + [w]:
        img = groups.apply_to_keys(ctx, col, arr)
        img_set = {(int(a), int(b)) for a, b in img}
        assert img_set == g1


def test_h_orbits_on_g1_swapped_by_w(ft17, ft17_gens, ft17_m1, ft17_g1):
    ctx = ft17.ctx2
    G, H, w = ft17_gens
    m1 = set(map(tuple, ft17_m1.tolist()))
    assert len(m1) == 22032
    w_m1 = {(int(a), int(b))
            for a, b in groups.apply_to_keys(ctx, w, np.asarray(ft17_m1))}
    assert not (m1 & w_m1)
    assert m1 | w_m1 == set(map(tuple, ft17_g1.tolist()))


def test_h_orbits_on_g2_swapped_by_w(ft17, ft17_gens, ft17_m2, ft17_g2):
    ctx = ft17.ctx2
    G, H, w = ft17_gens
    m2 = set(map(tuple, ft17_m2.tolist()))
    assert len(m2) == 162
    w_m2 = {(int(a), int(b))
            for a, b in groups.apply_to_keys(ctx, w, np.asarray(ft17_m2))}
    assert not (m2 & w_m2)
    assert m2 | w_m2 == set(ft17_g2)
    # the full group is transitive on the omega-meeting generators
    full = oracles.orbit(ctx, G, ft17_m2[0])
    assert set(map(tuple, full.tolist())) == set(ft17_g2)


def test_orbit_determinism(ft17, ft17_gens):
    ctx = ft17.ctx2
    _, H, _ = ft17_gens
    seed = oracles.ell_line(ft17, 1)
    o1 = oracles.orbit(ctx, H, seed)
    o2 = oracles.orbit(ctx, H, seed)
    assert np.array_equal(o1, o2)


def test_base_quadruple_relations(ft17):
    quad = groups.base_quadruple(ft17)
    assert groups.quad_relations_hold(ft17, quad)
    key = groups.quad_line(ft17, quad)
    A, B = pg3.key_points(ft17.ctx2, key)
    assert pg3.is_generator(ft17.frame, A, B)


def test_quadruple_matrix_pairs_on_base(ft17):
    ctx = ft17.ctx2
    q = ft17.q
    quad = groups.base_quadruple(ft17)
    key = groups.quad_line(ft17, quad)
    eta = ctx.pow(ctx.gen, q + 1)
    sigma0 = ctx.pow(ctx.gen, q - 1)
    lam0 = ctx.pow(ctx.gen, 2 * (q - 1))
    pairs = [
        (groups.mat_T(ctx, 1), groups.quad_T(ctx, 1)),
        (groups.mat_M(ctx, ctx.mul(eta, eta)), groups.quad_M(ctx, ctx.mul(eta, eta))),
        (groups.mat_N(ctx, sigma0), groups.quad_N(ctx, sigma0)),
        (groups.mat_R(ctx, eta), groups.quad_R(ctx, eta)),
        (groups.mat_L(ctx, lam0), groups.quad_L(ctx, lam0)),
        (groups.mat_W(ctx), groups.quad_W(ctx)),
    ]
    for col, qmap in pairs:
        img = qmap(quad)
        assert groups.quad_relations_hold(ft17, img)
        assert tuple(groups.apply_to_keys(ctx, col, key)[0]) == groups.quad_line(ft17, img)
    ident_col = np.eye(4, dtype=np.int64)
    assert tuple(groups.apply_to_keys(ctx, ident_col, key)[0]) == key


def test_quadruple_action_check(ft17):
    assert groups.quadruple_action_check(ft17, 200, seed=7)
