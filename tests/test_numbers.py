import math
import tracemalloc

import pytest

from hemisys import gf, numbers

import oracles


# q=81 is 64, not the 100 a naive reading of the even-power zeta formula
# suggests: the trace term 2 p^h enters with sign (-1)^(h+1), and 81 = 3^(2*2)
# has h = 2 (confirmed by the naive double-loop count and the eigenvalue
# expansion of the supersingular curve over GF(3))
E3_VALUES = {5: 8, 9: 16, 13: 8, 17: 16, 25: 32, 29: 40, 49: 64, 81: 64}


@pytest.mark.parametrize("q,expected", sorted(E3_VALUES.items()))
def test_count_E3_values(q, expected):
    ctx = numbers._field_of_order(q)
    assert numbers.count_E3(ctx) == expected


@pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29, 37, 41, 49])
def test_count_E3_matches_naive_oracle(q):
    ctx = numbers._field_of_order(q)
    assert numbers.count_E3(ctx) == oracles.count_E3_naive(ctx)


@pytest.mark.parametrize("p,h", [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2)])
def test_count_E3_over_a_subfield_matches_its_own_field(p, h):
    # condition_B_holds counts GF(q) inside the GF(q^2) of an ft build
    ctx = gf.make_field(p, h)
    assert numbers.count_E3(gf.make_field(p, 2 * h), p ** h) == numbers.count_E3(ctx) \
        == oracles.count_E3_naive(ctx)


@pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29])
def test_count_records_all_nonsquare_omegas(q):
    ctx = numbers._field_of_order(q)
    n_qs = set()
    for omega in range(1, q):
        if ctx.chi(omega) == 1:
            continue
        rec = numbers.count_C3_C4(ctx, omega)
        assert rec.identities_ok(), rec
        assert rec.hasse_ok(), rec
        # the quartic pairs with the cubic exactly when 2 is a square
        assert (rec.N_C3 == rec.N_C4) == rec.two_square
        assert rec.N_C4 + rec.N_E3 == 2 * q + 2
        n_qs.add(rec.n_q)
    assert len(n_qs) == 1             # independent of the choice of omega


def test_count_record_q17_values():
    ctx = gf.make_field(17, 1)
    rec = numbers.count_C3_C4(ctx, 3)
    assert (rec.N_E3, rec.N_C3, rec.N_C4, rec.n_q) == (16, 20, 20, 9)
    assert rec.n_q in ((17 + 1) // 2, (17 - 3) // 2)


@pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29])
def test_count_C3_C4_over_a_subfield_matches_its_own_field(q):
    # diagnose counts GF(q) inside the GF(q^2) of its ft frame; no count depends on omega
    ctx = numbers._field_of_order(q)
    ctx2 = gf.make_field(ctx.p, 2 * ctx.d)
    rec, rec2 = (numbers.count_C3_C4(c, c.least_nonsquare(q), q) for c in (ctx, ctx2))
    assert (rec.q, rec.N_E3, rec.N_C3, rec.N_C4, rec.n_q, rec.two_square) \
        == (rec2.q, rec2.N_E3, rec2.N_C3, rec2.N_C4, rec2.n_q, rec2.two_square)
    assert rec2.identities_ok() and rec2.hasse_ok()


def test_character_sums_hold_ten_bytes_an_element():
    # the sums go a pg3.GROUP_SIZE slice at a time: only GF(q)'s int64 list spans q
    q = 1_000_117
    ctx = gf.make_field(q, 1)
    for count, args in ((numbers.count_E3, ()), (numbers.count_C3_C4, (ctx.least_nonsquare(),))):
        tracemalloc.start()
        try:
            count(ctx, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * q, (count.__name__, peak / q)


def test_count_record_rejects_square_omega():
    ctx = gf.make_field(17, 1)
    with pytest.raises(gf.UsageError, match="^4 is a square$"):
        numbers.count_C3_C4(ctx, 4)


@pytest.mark.parametrize("q,expected", [
    (5, True), (9, False), (13, False), (17, True), (25, False),
    (29, False), (37, True), (41, False), (49, False), (81, False),
])
def test_condition_B(q, expected):
    assert numbers.condition_B_holds(q) is expected


def _prime_power_by_least_divisor(q):
    """The definition: strip the least divisor d > 1 of q as often as it divides."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    h = 0
    while q % p == 0:
        q //= p
        h += 1
    return (p, h) if q == 1 else None


def test_prime_power_matches_the_least_divisor_definition():
    for q in range(-2, 5000):
        assert numbers.prime_power(q) == _prime_power_by_least_divisor(q), q


def test_prime_power_of_a_large_prime():
    # trial division up to sqrt(q): the least-divisor scan takes q steps here
    assert numbers.prime_power(1_000_000_009) == (1_000_000_009, 1)
    assert numbers.prime_power(17 ** 7) == (17, 7)
    assert numbers.prime_power(2 * 1_000_000_009) is None


def test_search_primes_bounds():
    assert numbers.search_primes(16) == []
    assert numbers.search_primes(300) == [17, 257]


def test_search_primes_full_list():
    expected = [17, 257, 401, 577, 1297, 1601, 3137, 7057, 13457, 14401,
                15377, 24337, 25601, 30977, 32401, 33857, 41617, 50177]
    assert numbers.search_primes(51000) == expected


@pytest.mark.parametrize("p,a1", [(17, 1), (257, 1)])
def test_gauss_alpha1_known(p, a1):
    gd = numbers.gauss_alpha1(p)
    assert gd.check()
    assert gd.alpha1 == a1
    ctx = gf.make_field(p, 1)
    assert p + 1 - 2 * gd.alpha1 == numbers.count_E3(ctx)


def test_gauss_alpha1_p13_cross_check():
    gd = numbers.gauss_alpha1(13)
    ctx = gf.make_field(13, 1)
    assert 13 + 1 - 2 * gd.alpha1 == numbers.count_E3(ctx)


def test_gauss_alpha1_rejects_3_mod_4():
    with pytest.raises(gf.UsageError, match="^7 is not a prime = 1 mod 4$"):
        numbers.gauss_alpha1(7)
    with pytest.raises(gf.UsageError, match="^15 is not a prime = 1 mod 4$"):
        numbers.gauss_alpha1(15)


def test_pminus1_criterion_up_to_3000():
    # for p = 1 mod 8: N_p = p - 1 exactly at the 1 + 16n^2 primes
    special = set(numbers.search_primes(3000))
    for p in range(17, 3001, 8):
        if not gf.is_prime(p):
            continue
        ctx = gf.make_field(p, 1)
        assert (numbers.count_E3(ctx) == p - 1) == (p in special)


def test_survey_rows():
    rows = numbers.survey([5, 13, 17, 29, 37, 41])
    got = {r.q: r.condition_B for r in rows}
    assert got == {5: True, 13: False, 17: True, 29: False, 37: True, 41: False}
    for r in rows:
        assert abs(r.N_E3 - (r.q + 1)) <= 2 * math.sqrt(r.q)


def test_survey_5_to_101():
    # over all prime powers q = 1 mod 4 up to 101, the criterion holds
    # exactly at q in {5, 17, 37, 101}, i.e. the primes p = 1 + 4a^2
    qs = [q for q in range(5, 102)
          if q % 4 == 1 and any(
              q == p ** k for p in range(2, q + 1) if gf.is_prime(p)
              for k in range(1, 8) if p ** k <= q)]
    rows = numbers.survey(qs)
    hits = sorted(r.q for r in rows if r.condition_B)
    assert hits == [5, 17, 37, 101]
    for r in rows:
        if r.q in (p for p in hits) and gf.is_prime(r.q):
            a2 = (r.q - 1) // 4
            assert math.isqrt(a2) ** 2 == a2


def test_survey_requires_1_mod_4():
    with pytest.raises(gf.UsageError, match="^survey requires q = 1 mod 4, got 7$"):
        numbers.survey([7])

