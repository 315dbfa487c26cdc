import random
import tracemalloc

import numpy as np
import pytest

from hemisys import gf

import gf_q4_oracle


def test_make_field_prime():
    F3 = gf.make_field(3, 1)
    assert F3.poly == (0, 1)
    assert F3.order == 3


def test_make_field_gf9_polynomial(F9):
    # x^2 + 1 is irreducible mod 3 since -1 is a non-square
    assert F9.poly == (1, 0, 1)


def test_make_field_gf289_generator_order(F289):
    n1 = 288
    assert F289.order == 289
    for ell in gf.factorize(n1):
        assert F289.pow(F289.gen, n1 // ell) != 1


def test_make_field_errors():
    with pytest.raises(gf.NotPrime):
        gf.make_field(15, 1)
    with pytest.raises(gf.EvenCharacteristic):
        gf.make_field(2, 4)
    with pytest.raises(gf.FieldTooLarge):
        gf.make_field(101, 5)
    for d in (0, -1):
        with pytest.raises(gf.BadExponent):
            gf.make_field(3, d)


def test_make_field_refuses_by_table_bytes_before_allocating(monkeypatch):
    # 3^16 is under the old order cap of 10^8, but its tables need gigabytes
    assert 3 ** 16 < 10 ** 8

    def no_tables(*args):
        pytest.fail("field tables were allocated")

    monkeypatch.setattr(gf, "FieldCtx", no_tables)
    with pytest.raises(gf.FieldTooLarge):
        gf.make_field(3, 16)


@pytest.mark.parametrize("p", [2053, 12289])
def test_prime_above_the_dense_table_side_adds_in_small_tables(p):
    # a dense p x p addition table would take 8 p^2 bytes: 34 MB at p = 2053,
    # 1.2 GB at p = 12289
    tracemalloc.start()
    try:
        ctx = gf.make_field(p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * gf.ADD_TABLE_MAX ** 2
    assert gf._table_bytes(p, 1) < 8 * gf.ADD_TABLE_MAX ** 2
    rng = np.random.default_rng(p)
    A = np.append(rng.integers(0, p, 300), [0, p - 1])
    B = np.append(rng.integers(0, p, 300), [p - 1, p - 1])
    assert np.array_equal(gf.vec_add(ctx, A[:, None], B[None, :]),
                          (A[:, None] + B[None, :]) % p)
    for a, b in zip(A.tolist(), B.tolist()):
        assert ctx.add(a, b) == (a + b) % p
        assert ctx.sub(a, b) == (a - b) % p


def test_tables_refuse_a_generator_of_low_order(monkeypatch):
    # -1 has order 2 in GF(9)*, so its powers repeat
    monkeypatch.setattr(gf, "_smallest_generator", lambda p, d, f: [2, 0])
    with pytest.raises(gf.TableInvariantFailed):
        gf.make_field(3, 2)
    assert not issubclass(gf.TableInvariantFailed, ValueError)


def test_field_axioms_random(F9, F289):
    rng = random.Random(0)
    for ctx in (F9, F289):
        for _ in range(300):
            a, b, c = (rng.randrange(ctx.order) for _ in range(3))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.add(a, ctx.neg(a)) == 0
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1


def test_multiplicative_order_exhaustive(F9, F25, F289):
    for ctx in (F9, F25, F289):
        for x in range(1, ctx.order):
            assert ctx.pow(x, ctx.order - 1) == 1


def test_multiplicative_order_gf17_4():
    ctx = gf.make_field(17, 4)
    xs = np.arange(ctx.order, dtype=np.int64)
    acc = np.ones(ctx.order, dtype=np.int64)
    base = xs.copy()
    n = ctx.order - 1
    while n:
        if n & 1:
            acc = gf.vec_mul(ctx, acc, base)
        base = gf.vec_mul(ctx, base, base)
        n >>= 1
    assert bool((acc[1:] == 1).all())
    assert acc[0] == 0


def test_frobenius_involution_gf289(F289):
    for x in range(0, 289, 7):
        assert F289.frobenius(F289.frobenius(x, 1), 1) == x


def test_frobenius_is_automorphism(F289):
    rng = random.Random(1)
    for _ in range(100):
        a, b = rng.randrange(289), rng.randrange(289)
        assert F289.frobenius(F289.add(a, b)) == F289.add(F289.frobenius(a), F289.frobenius(b))
        assert F289.frobenius(F289.mul(a, b)) == F289.mul(F289.frobenius(a), F289.frobenius(b))


def test_trace_of_antisymmetric_element_vanishes(F289):
    # any b with b^q = -b has trace zero onto GF(q)
    b = F289.sqrt(3)
    assert F289.frobenius(b, 1) == F289.neg(b)
    assert F289.add(b, F289.frobenius(b, 1)) == 0


def test_euler_criterion_two_mod_17():
    F17 = gf.make_field(17, 1)
    assert F17.pow(2, 8) == 1
    assert F17.is_square(2)


def test_two_is_nonsquare_mod_5():
    F5 = gf.make_field(5, 1)
    assert not F5.is_square(2)
    assert F5.pow(2, 2) == F5.neg(1)


def test_subfield_sizes(F289):
    assert (F289.frob_np(1) == np.arange(289)).sum() == 17
    ctx4 = gf.make_field(17, 4)
    xs = np.arange(ctx4.order, dtype=np.int64)
    fixed = (ctx4.frob_np(2)[xs] == xs).sum()
    assert fixed == 289


def test_division_by_zero(F9):
    with pytest.raises(gf.DivisionByZero):
        F9.inv(0)


def test_sqrt_square_roundtrip_small_fields():
    for p, d in ((3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (17, 2)):
        ctx = gf.make_field(p, d)
        for x in range(ctx.order):
            r = ctx.sqrt(ctx.mul(x, x))
            assert r in (x, ctx.neg(x))
        assert ctx.sqrt(0) == 0 and ctx.sqrt(1) == 1


def test_sqrt_returns_lex_smaller_root(F289):
    for x in range(1, 289, 5):
        if not F289.is_square(x):
            assert F289.sqrt(x) is None
            continue
        r = F289.sqrt(x)
        assert F289.mul(r, r) == x
        assert F289.rank_np[r] <= F289.rank_np[F289.neg(r)]


def test_power_residue_solutions(F289, F9):
    c = F289.pow(F289.gen, 9)
    sols = F289.power_residue_solutions(c, 9)
    assert len(sols) == 9
    assert all(F289.pow(x, 9) == c for x in sols)
    assert F289.power_residue_solutions(F289.mul(c, F289.gen), 9) == []
    assert F9.power_residue_solutions(F9.gen, 2) == []
    with pytest.raises(gf.ZeroInput):
        F289.power_residue_solutions(0, 9)
    with pytest.raises(gf.BadExponent):
        F289.power_residue_solutions(1, 7)


def test_power_residue_count_property(F289):
    rng = random.Random(2)
    for m in (2, 3, 9, 18):
        for _ in range(20):
            c = rng.randrange(1, 289)
            sols = F289.power_residue_solutions(c, m)
            assert len(sols) in (0, m)
            assert all(F289.pow(x, m) == c for x in sols)


def test_embedding_is_field_hom(F289):
    ctx4 = gf.make_field(17, 4)
    emb, inv = gf_q4_oracle.embed_subfield(F289, ctx4)
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randrange(289), rng.randrange(289)
        assert int(emb[F289.mul(a, b)]) == ctx4.mul(int(emb[a]), int(emb[b]))
        assert int(emb[F289.add(a, b)]) == ctx4.add(int(emb[a]), int(emb[b]))
    assert emb[0] == 0 and emb[1] == 1
    assert (inv[emb] == np.arange(289)).all()


def test_vec_ops_match_scalar(F289):
    ctx4 = gf.make_field(17, 4)
    rng = random.Random(4)
    for ctx in (F289, ctx4):
        A = np.asarray([rng.randrange(ctx.order) for _ in range(200)], dtype=np.int64)
        B = np.asarray([rng.randrange(ctx.order) for _ in range(200)], dtype=np.int64)
        vm = gf.vec_mul(ctx, A, B)
        va = gf.vec_add(ctx, A, B)
        for i in range(200):
            assert int(vm[i]) == ctx.mul(int(A[i]), int(B[i]))
            assert int(va[i]) == ctx.add(int(A[i]), int(B[i]))
        # broadcast operands: a column against a row gives the full table
        col, row = A[:20, None], B[None, :30]
        vm = gf.vec_mul(ctx, col, row)
        va = gf.vec_add(ctx, col, row)
        assert vm.shape == va.shape == (20, 30)
        for i in range(20):
            for j in range(30):
                assert int(vm[i, j]) == ctx.mul(int(A[i]), int(B[j]))
                assert int(va[i, j]) == ctx.add(int(A[i]), int(B[j]))
