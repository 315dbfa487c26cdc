import random
import tracemalloc

import numpy as np
import pytest

from hemisys import gf

import gf_q4_oracle
import oracles


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
    with pytest.raises(gf.UsageError, match="^15 is not prime$"):
        gf.make_field(15, 1)
    with pytest.raises(gf.UsageError, match="^characteristic 2 is not supported$"):
        gf.make_field(2, 4)
    with pytest.raises(gf.UsageError, match=r"^GF\(101\^5\) needs [0-9]+ bytes of tables, over"):
        gf.make_field(101, 5)
    for d in (0, -1):
        with pytest.raises(ValueError, match=f"^field degree {d} is not positive$"):
            gf.make_field(3, d)


def test_make_field_refuses_by_table_bytes_before_allocating(monkeypatch):
    # 3^16 is under the old order cap of 10^8, but its tables need gigabytes
    assert 3 ** 16 < 10 ** 8

    def no_tables(*args):
        pytest.fail("field tables were allocated")

    monkeypatch.setattr(gf, "FieldCtx", no_tables)
    with pytest.raises(gf.UsageError, match=r"^GF\(3\^16\) needs [0-9]+ bytes of tables, over"):
        gf.make_field(3, 16)


def _digitwise(ctx, A, B, sign=1):
    """A + sign B added digit by digit mod p: the definition of addition."""
    A, B = np.broadcast_arrays(np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64))
    return sum((A // ctx.p ** i + sign * (B // ctx.p ** i)) % ctx.p * ctx.p ** i
               for i in range(ctx.d))


@pytest.mark.parametrize("p,d", [(2053, 1), (12289, 1), (17, 2), (41, 2), (43, 2)],
                         ids=["2053", "12289", "17^2", "41^2", "43^2"])
def test_field_tables_take_bytes_linear_in_the_order(p, d):
    # a 2-D addition table takes 8 order^2 bytes (27.5 MB for GF(43^2)); the tables
    # hold about 90 bytes an element (0.03 MB for GF(17^2), 0.16 MB for GF(43^2))
    # and peak at about 140-150 while they are built, as the Zech logarithms are
    # computed over one period
    tracemalloc.start()
    try:
        ctx = gf.make_field(p, d)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(held, gf._table_bytes(p, d)) < 100 * ctx.order, (held, peak)
    assert peak < 155 * ctx.order, (held, peak)
    rng = np.random.default_rng(p)
    A = np.append(rng.integers(0, ctx.order, 300), [0, 0, ctx.order - 1, 1])
    B = np.append(rng.integers(0, ctx.order, 300), [0, ctx.order - 1, ctx.order - 1, p - 1])
    assert np.array_equal(gf.vec_add(ctx, A[:, None], B[None, :]),
                          _digitwise(ctx, A[:, None], B[None, :]))
    for a, b in zip(A.tolist(), B.tolist()):
        assert ctx.add(a, b) == _digitwise(ctx, a, b)
        assert ctx.sub(a, b) == _digitwise(ctx, a, b, -1)


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (3, 3), (3, 4), (17, 2)])
def test_addition_is_digitwise_on_every_pair(p, d):
    # zero rows and columns included: the ends of the Zech table stand in for a mask
    ctx = gf.make_field(p, d)
    xs = np.arange(ctx.order)
    A, B = (z.ravel() for z in np.meshgrid(xs, xs, indexing="ij"))
    want, diff = _digitwise(ctx, A, B), _digitwise(ctx, A, B, -1)
    assert np.array_equal(gf.vec_add(ctx, A, B), want)
    assert [ctx.add(a, b) for a, b in zip(A.tolist(), B.tolist())] == want.tolist()
    assert [ctx.sub(a, b) for a, b in zip(A.tolist(), B.tolist())] == diff.tolist()


@pytest.mark.parametrize("p,d", [(17, 4), (73, 2), (3, 8)])
def test_addition_is_digitwise_on_random_pairs(p, d):
    ctx = gf.make_field(p, d)
    rng = np.random.default_rng(ctx.order)
    A = np.append(rng.integers(0, ctx.order, 20000), [0, 0, 1, 1])
    B = np.append(rng.integers(0, ctx.order, 20000), [0, 1, 0, ctx.neg(1)])
    assert np.array_equal(gf.vec_add(ctx, A, B), _digitwise(ctx, A, B))
    for a, b in zip(A[-1000:].tolist(), B[-1000:].tolist()):
        assert ctx.add(a, b) == _digitwise(ctx, a, b)
        assert ctx.sub(a, b) == _digitwise(ctx, a, b, -1)


def test_tables_refuse_a_generator_of_low_order(monkeypatch):
    # -1 has order 2 in GF(9)*, so its powers repeat
    monkeypatch.setattr(gf, "_smallest_generator", lambda p, d, f: [2, 0])
    with pytest.raises(gf.InvariantFailed, match=r"^powers of the generator of GF\(3\^2\) repeat$"):
        gf.make_field(3, 2)
    assert not issubclass(gf.InvariantFailed, ValueError)


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
    assert F17.chi(2) == 1


def test_two_is_nonsquare_mod_5():
    F5 = gf.make_field(5, 1)
    assert F5.chi(2) == -1
    assert F5.pow(2, 2) == F5.neg(1)


def test_subfield_sizes(F289):
    assert (F289.frob_np(1) == np.arange(289)).sum() == 17
    ctx4 = gf.make_field(17, 4)
    xs = np.arange(ctx4.order, dtype=np.int64)
    fixed = (ctx4.frob_np(2)[xs] == xs).sum()
    assert fixed == 289


@pytest.mark.parametrize("p,d,k", [(3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 4, 2), (3, 6, 3),
                                   (5, 2, 1), (5, 4, 2), (7, 3, 1), (17, 2, 1), (17, 2, 2)])
def test_subfield_chi_and_least_nonsquare_match_their_definitions(p, d, k):
    # GF(q) = {x : x^q = x}, Euler's criterion, and the first non-square by rank
    ctx, q = gf.make_field(p, d), p ** k
    fixed = [x for x in range(ctx.order) if ctx.pow(x, q) == x]
    xs = ctx.subfield(q)
    assert xs.dtype == np.int64 and xs[0] == 0 and sorted(xs.tolist()) == fixed
    euler = [0 if x == 0 else 1 if ctx.pow(x, (q - 1) // 2) == 1 else -1 for x in xs.tolist()]
    assert ctx.chi(xs, q).tolist() == euler == [int(ctx.chi(x, q)) for x in xs.tolist()]
    nonsquares = [x for x, c in zip(xs.tolist(), euler) if c == -1]
    assert ctx.least_nonsquare(q) == min(nonsquares, key=lambda x: ctx.rank_np[x])
    if k == d:
        assert np.array_equal(ctx.subfield(), xs) and np.array_equal(ctx.chi(xs), ctx.chi(xs, q))
        assert ctx.least_nonsquare() == ctx.least_nonsquare(q)


def test_division_by_zero(F9):
    with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
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
        if F289.chi(x) == -1:
            assert F289.sqrt(x) is None
            continue
        r = F289.sqrt(x)
        assert F289.mul(r, r) == x
        assert F289.rank_np[r] <= F289.rank_np[F289.neg(r)]


def test_power_residue_solutions(F289, F9):
    c = F289.pow(F289.gen, 9)
    sols = oracles.power_residue_solutions(F289, c, 9)
    assert len(sols) == 9
    assert all(F289.pow(x, 9) == c for x in sols)
    assert oracles.power_residue_solutions(F289, F289.mul(c, F289.gen), 9) == []
    assert oracles.power_residue_solutions(F9, F9.gen, 2) == []
    with pytest.raises(ValueError, match="^c must be nonzero$"):
        oracles.power_residue_solutions(F289, 0, 9)
    with pytest.raises(ValueError, match="^exponent 7 does not divide order-1$"):
        oracles.power_residue_solutions(F289, 1, 7)


def test_power_residue_count_property(F289):
    rng = random.Random(2)
    for m in (2, 3, 9, 18):
        for _ in range(20):
            c = rng.randrange(1, 289)
            sols = oracles.power_residue_solutions(F289, c, m)
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
