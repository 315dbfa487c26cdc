"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 7 checks the cubic (1/2w)Y^2 = X^3 - X against E3: Y^2 = X^3 - X
over the sweep q in {5, 9, 13, 17, 25, 29} and every non-square omega.
The cubic is Y^2 = 2w(X^3 - X), so it is the quadratic twist of E3 when
2w is a non-square and isomorphic to E3 when 2w is a square.  With omega
a non-square, that splits on whether 2 is a square in GF(p^h), which
holds iff h is even or p = +-1 (mod 8).  Where 2 is a square (q in
{9, 17, 25}) the criterion asserts the twist identity
N_C3 + N_E3 = 2q + 2; where it is not (q in {5, 13, 29}) it asserts
N_C3 = N_E3.  The quartic form N_C4 + N_E3 = 2q + 2 is asserted on every
row (see the counting notes in numbers.py).
"""

import json
import time

import numpy as np

from hemisys import cli, curves, gf, groups, hemisystem, numbers, pg3

import oracles


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


def _cli_json(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_01_cp_q3(capsys, tmp_path):
    t0 = time.time()
    code, payload = _cli_json(
        capsys, "construct", "--family", "cp", "--p", "3",
        "--out", str(tmp_path / "h3.hs"), "--format", "json")
    wall = time.time() - t0
    ok = (code == 0 and payload["lines"] == 56 and payload["passed"]
          and payload["histogram"] == "2:280" and payload["points"] == 280
          and wall < 1.0)
    _report(1, ok, f"cp q=3: 56 lines, histogram 2:280, {wall:.2f}s < 1s")


def test_criterion_02_cp_q5_q7(capsys, tmp_path):
    results = []
    for p, lines, inc, pts in ((5, 378, 3, 3276), (7, 1376, 4, 17200)):
        t0 = time.time()
        code, payload = _cli_json(
            capsys, "construct", "--family", "cp", "--p", str(p),
            "--out", str(tmp_path / f"h{p}.hs"), "--format", "json")
        wall = time.time() - t0
        results.append(code == 0 and payload["lines"] == lines
                       and payload["histogram"] == f"{inc}:{pts}"
                       and payload["passed"] and wall < 10.0)
    _report(2, all(results), "cp q=5: 378 lines at 3:3276; q=7: 1376 lines at 4:17200, each < 10s")


def test_criterion_03_ft_p17_end_to_end():
    t0 = time.time()
    cand, report = hemisystem.build_ft_verified(17, 1, eps=1, threads=1)
    wall = time.time() - t0
    prov = cand.provenance
    ok = (report.passed
          and len(cand.lines) == 44226
          and prov["m1_size"] == 22032
          and prov["m2_size"] == 162
          and prov["chords"] == 22032
          and report.histogram == {9: 1425060}
          and report.point_count == 1425060
          and wall < 600.0)
    t1 = time.time()
    rep8 = hemisystem.verify(cand, threads=8)
    wall8 = time.time() - t1
    ok = ok and rep8.passed and rep8.histogram == {9: 1425060} and wall8 < 120.0
    _report(3, ok, f"ft p=17: 44226 = 22032+162+22032 lines, histogram 9:1425060, "
                   f"single-threaded {wall:.1f}s < 600s, 8 workers {wall8:.1f}s < 120s")


def test_criterion_04_orbit_structure(ft17, ft17_gens, ft17_seed, ft17_g1,
                                       ft17_m1, ft17_m2, ft17_g2):
    ctx = ft17.ctx2
    _, _, w = ft17_gens
    m1 = set(map(tuple, ft17_m1.tolist()))
    w_m1 = {(int(a), int(b)) for a, b in groups.apply_to_keys(ctx, w, np.asarray(ft17_m1))}
    m2 = set(map(tuple, ft17_m2.tolist()))
    w_m2 = {(int(a), int(b)) for a, b in groups.apply_to_keys(ctx, w, np.asarray(ft17_m2))}
    ok = (len(ft17_g1) == 44064
          and len(m1) == 22032 and len(w_m1) == 22032
          and not (m1 & w_m1) and m1 | w_m1 == set(map(tuple, ft17_g1.tolist()))
          and len(m2) == 162 and len(w_m2) == 162
          and not (m2 & w_m2) and m2 | w_m2 == set(ft17_g2)
          and len(ft17_g2) == 324)
    _report(4, ok, "q=17: full orbit 44064; half-orbits 22032+22032 and 162+162 swapped by w")


def test_criterion_05_r_rprime_law(ft17, ft17_m1):
    r, rp = hemisystem.count_r_rprime(ft17, np.asarray(ft17_m1), "plus")
    ctxq = gf.make_field(17, 1)
    omega = next(x for x in range(1, 17) if ctxq.chi(x) == -1)
    rec = numbers.count_C3_C4(ctxq, omega)
    n_e3 = numbers.count_E3(ctxq)
    # consistency chain: N_E3 = 16 forces N_C4 = 2q+2-16 = 20, n_q = 9
    ok = ({r, rp} == {4, 5}
          and 2 * rp - 1 == rec.n_q
          and rec.n_q in (7, 9)
          and n_e3 == 16
          and rec.N_C4 == 2 * 17 + 2 - n_e3
          and rec.n_q == (rec.N_C4 - 2) // 2)
    _report(5, ok, f"q=17: (r, r') = ({r}, {rp}), 2r'-1 = {2 * rp - 1} = n_q, N_E3 = 16")


def test_criterion_06_tangency_equation_solution_count(ft17):
    ctx = ft17.ctx2
    b = ft17.b
    q = 17
    m = (q + 1) // 2
    sqrt2_is_square = ctx.chi(ft17.sqrt2, q) == 1
    counts = {}
    for eps in (1, -1):
        n = 0
        for v in range(ctx.order):
            if oracles.in_gfq(ft17, v):
                continue
            lhs = ctx.pow(ctx.add(ctx.mul(v, v), ctx.mul(2, ctx.mul(b, v))), m)
            rhs = ctx.mul(ctx.mul(ft17.sqrt2, b), ctx.sub(ctx.frobenius(v, 1), v))
            if eps == -1:
                rhs = ctx.neg(rhs)
            if sqrt2_is_square:
                rhs = ctx.neg(rhs)
            if lhs == rhs:
                n += 1
        counts[eps] = n
    ok = counts == {1: 9, -1: 9}
    _report(6, ok, f"tangency equation over GF(289)\\GF(17): {counts[1]} and {counts[-1]} solutions (9 each)")


def test_criterion_07_number_theory_suite():
    e3 = {q: numbers.count_E3(numbers._field_of_order(q))
          for q in (5, 9, 17, 25, 49)}
    e3_ok = e3 == {5: 8, 9: 16, 17: 16, 25: 32, 49: 64}
    hasse_ok = True
    twist_qs, iso_qs = [], []
    failures = []
    for q in (5, 9, 13, 17, 25, 29):
        ctx = numbers._field_of_order(q)
        # 2 is a square in GF(p^h) iff h is even or p = +-1 (mod 8)
        two_square = ctx.d % 2 == 0 or ctx.p % 8 in (1, 7)
        (twist_qs if two_square else iso_qs).append(q)
        for omega in range(1, q):
            if ctx.chi(omega) == 1:
                continue
            rec = numbers.count_C3_C4(ctx, omega)
            hasse_ok &= rec.hasse_ok()
            if two_square:
                cubic_ok = rec.N_C3 + rec.N_E3 == 2 * q + 2
            else:
                cubic_ok = rec.N_C3 == rec.N_E3
            if not cubic_ok or rec.N_C4 + rec.N_E3 != 2 * q + 2:
                failures.append((q, omega))
    qs_bad = sorted({q for q, _ in failures})
    ok = (e3_ok and hasse_ok and not failures
          and bool(twist_qs) and bool(iso_qs))
    _report(7, ok,
            f"E3 counts {'ok' if e3_ok else 'BAD'}; Hasse {'ok' if hasse_ok else 'BAD'}; "
            f"2 square at q in {twist_qs}: cubic twist N_C3+N_E3=2q+2; "
            f"2 non-square at q in {iso_qs}: C3 isomorphic to E3 so N_C3=N_E3; "
            f"quartic N_C4+N_E3=2q+2 on every row; "
            f"{f'failures at q in {qs_bad}' if qs_bad else 'no failures'}")


def test_criterion_08_prime_search(capsys):
    code = cli.main(["--format", "csv", "primes", "--max", "51000"])
    out = capsys.readouterr().out
    rows = [int(ln.split(",")[1]) for ln in out.strip().split("\n")[1:]]
    expected = [17, 257, 401, 577, 1297, 1601, 3137, 7057, 13457, 14401,
                15377, 24337, 25601, 30977, 32401, 33857, 41617, 50177]
    ok = code == 0 and rows == expected
    _report(8, ok, f"primes 1+16n^2 up to 51000: {len(rows)} found, order and values exact")


def test_criterion_09_gauss_formula():
    bad = []
    for p in range(5, 1001, 4):
        if not gf.is_prime(p):
            continue
        gd = numbers.gauss_alpha1(p)
        ctx = gf.make_field(p, 1)
        if p + 1 - 2 * gd.alpha1 != numbers.count_E3(ctx) or not gd.check():
            bad.append(p)
    ok = not bad
    _report(9, ok, f"p+1-2*alpha1 = N_p(E3) for every prime p = 1 mod 4 up to 1000 "
                   f"({'all exact' if ok else f'failures: {bad}'})")


def test_criterion_10_property_suites(ft17, ft17_sets, ft17_g1, ft17_chords, cp3_build):
    parts = {}

    # imaginary chords are generators disjoint from the rational points
    for p in (3, 5):
        ctx2 = gf.make_field(p, 2)
        frame = pg3.cp_frame(ctx2)
        chords = curves.cp_imaginary_chords(ctx2)
        curve = np.asarray(sorted(int(x) for x in oracles.cp_curve_points(ctx2)))
        rows = oracles.line_points_table(ctx2, chords)
        parts[f"cp_chords_q{p}"] = (
            pg3.is_generator(frame, *(pg3.unpack_batch(ctx2, chords[:, c]) for c in (0, 1))).all()
            and not np.isin(rows.reshape(-1), curve).any())
    keys17 = np.asarray(ft17_chords, dtype=np.int64)
    rows17 = oracles.line_points_table(ft17.ctx2, keys17)
    rational = np.concatenate([ft17_sets.omega, ft17_sets.delta_plus,
                               ft17_sets.delta_minus])
    parts["ft_chords_q17"] = (
        pg3.is_generator(ft17.frame, *(pg3.unpack_batch(ft17.ctx2, keys17[:, c])
                                       for c in (0, 1))).all()
        and not np.isin(rows17.reshape(-1), np.sort(rational)).any())

    # quadruple action vs matrix action on every quadruple of the G-orbit
    parts["quad_action_exact"] = groups.quadruple_action_check(ft17, ft17_sets, ft17_g1)

    # complement of the q=3 hemisystem is a hemisystem
    cand, _ = cp3_build
    frame3 = pg3.cp_frame(cand.ctx2())
    comp = sorted(set(oracles.enumerate_generators(frame3)) - cand.key_set())
    comp_cand = hemisystem.HemisystemCandidate(
        "cp", 3, 1, None, None, np.asarray(comp, dtype=np.int64))
    parts["complement_q3"] = hemisystem.verify(comp_cand).passed

    ok = all(parts.values())
    detail = ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in parts.items())
    _report(10, ok, detail)
