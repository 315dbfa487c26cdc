import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hemisys import curves, gf, groups, hemisystem, numbers, pg3

import oracles


# ---------------------------------------------------------------------------
# seed generator

def test_seed_postconditions_q17(ft17, ft17_seed):
    ctx = ft17.ctx2
    key, quad, prov = ft17_seed
    u0, v0, s0, t0 = quad
    b = ft17.b
    assert groups.quad_relations_hold(ft17, quad)
    sixteen_b2 = ctx.mul(16, ctx.mul(b, b))
    assert ctx.mul(ctx.frobenius(u0, 1), s0) == sixteen_b2
    d = ctx.sub(t0, ctx.frobenius(v0, 1))
    assert ctx.mul(d, d) == sixteen_b2
    assert ctx.add(v0, t0) == ctx.mul(ctx.neg(4), b)
    assert ctx.mul(v0, t0) == ctx.mul(ctx.neg(4), ctx.mul(b, b))
    A, B = pg3.key_points(ctx, key)
    assert pg3.is_generator(ft17.frame, A, B)
    assert prov["tangency_point"] in ("plus", "minus")
    assert prov["u_sign_matches_rule"]


def test_seed_meets_exactly_one_tangency_point(ft17, ft17_seed):
    ctx = ft17.ctx2
    key, _, prov = ft17_seed
    pts = set(int(x) for x in pg3.line_points(ctx, *pg3.key_points(ctx, key)))
    on_plus = pg3.pack_point(ctx, ft17.p_eps(1)) in pts
    on_minus = pg3.pack_point(ctx, ft17.p_eps(-1)) in pts
    assert on_plus != on_minus
    assert prov["tangency_point"] == ("plus" if on_plus else "minus")


def test_w_swaps_the_two_seeds(ft17, ft17_gens, ft17_seed):
    ctx = ft17.ctx2
    _, _, w = ft17_gens
    fr_minus = curves.ft_frame_setup(17, 1, -1)
    key_p = ft17_seed[0]
    key_m = hemisystem.seed_generator_g0(fr_minus)[0]
    assert key_p != key_m
    assert tuple(groups.apply_to_keys(ctx, w, key_p)[0]) == key_m
    assert tuple(groups.apply_to_keys(ctx, w, key_m)[0]) == key_p


# ---------------------------------------------------------------------------
# balance counts

def test_r_rprime_values(ft17, ft17_m1):
    m1 = np.asarray(ft17_m1, dtype=np.int64)
    r, rp = hemisystem.count_r_rprime(ft17, m1, "plus")
    assert (r, rp) == (4, 5)
    r2, rp2 = hemisystem.count_r_rprime(ft17, m1, "minus")
    assert (r2, rp2) == (5, 4)
    assert r + rp == 9


def test_two_rprime_minus_one_equals_square_value_count(ft17, ft17_m1):
    _, rp = hemisystem.count_r_rprime(ft17, np.asarray(ft17_m1), "plus")
    ctxq = gf.make_field(17, 1)
    omega = next(x for x in range(1, 17) if ctxq.chi(x) == -1)
    rec = numbers.count_C3_C4(ctxq, omega)
    assert 2 * rp - 1 == rec.n_q == 9


# ---------------------------------------------------------------------------
# cp builds

def test_build_cp_q3(cp3_build):
    cand, report = cp3_build
    assert len(cand.lines) == 56
    assert cand.provenance["orbit_size"] == 20
    assert cand.provenance["chords"] == 36
    assert report.passed and report.histogram == {2: 280}


def test_build_cp_q3_minus_orbit():
    cand = hemisystem.build_cp(3, 1, seed_orbit="minus")
    report = hemisystem.verify(cand)
    assert report.passed
    plus = hemisystem.build_cp(3, 1).key_set()
    assert cand.key_set() != plus
    assert len(cand.key_set() & plus) == 36     # exactly the shared chords


def test_build_cp_q5():
    cand = hemisystem.build_cp(5, 1)
    report = hemisystem.verify(cand)
    assert len(cand.lines) == 378
    assert report.passed and report.histogram == {3: 3276}


def test_build_cp_q9_needs_no_force():
    # cp has no size guard; verify's byte budget is the size refusal
    cand = hemisystem.build_cp(3, 2)
    report = hemisystem.verify(cand)
    assert len(cand.lines) == pg3.cp_frame(cand.ctx2()).num_generators // 2 == 3650
    assert report.passed and report.histogram == {5: 59860}


def test_complement_is_hemisystem_q3(cp3_build, F9):
    cand, _ = cp3_build
    frame = pg3.cp_frame(F9)
    comp = sorted(set(oracles.enumerate_generators(frame)) - cand.key_set())
    comp_cand = hemisystem.HemisystemCandidate(
        "cp", 3, 1, None, None, np.asarray(comp, dtype=np.int64))
    assert hemisystem.verify(comp_cand).passed


# ---------------------------------------------------------------------------
# ft build at q = 17

def test_build_ft_q17_sizes_and_pass(ft17_build):
    cand, report = ft17_build
    assert cand.provenance["m1_size"] == 22032
    assert cand.provenance["m2_size"] == 162
    assert cand.provenance["chords"] == 22032
    assert len(cand.lines) == 44226
    assert report.passed
    assert report.histogram == {9: 1425060}
    assert {cand.provenance["r"], cand.provenance["r_prime"]} == {4, 5}


def test_build_ft_partitions(ft17, ft17_gens, ft17_build, ft17_g1, ft17_g2,
                             ft17_m1, ft17_m2):
    # the chosen halves and their w-images tile the two curve-meeting classes
    ctx = ft17.ctx2
    _, _, w = ft17_gens
    m1 = set(map(tuple, ft17_m1.tolist()))
    m2 = set(map(tuple, ft17_m2.tolist()))
    w_m1 = {(int(a), int(b)) for a, b in groups.apply_to_keys(ctx, w, np.asarray(ft17_m1))}
    w_m2 = {(int(a), int(b)) for a, b in groups.apply_to_keys(ctx, w, np.asarray(ft17_m2))}
    assert m1 | w_m1 == set(map(tuple, ft17_g1.tolist())) and not (m1 & w_m1)
    assert m2 | w_m2 == set(ft17_g2) and not (m2 & w_m2)


def test_size_identity_both_families(cp3_build, ft17_build):
    # (q+1)/2 * N + (q^2+q)(q^2-q-2g)/2 = (q^3+1)(q+1)/2 realized by actual sets
    cand3, _ = cp3_build
    assert 20 + 36 == 56 == (27 + 1) * 4 // 2
    cand17, _ = ft17_build
    n_rational = (17 ** 3 + 17 + 2) // 2
    assert cand17.provenance["m1_size"] + cand17.provenance["m2_size"] \
        == 9 * n_rational == 22194
    assert 22194 + 22032 == 44226 == (17 ** 3 + 1) * 18 // 2


def test_build_ft_condition_b_gate():
    with pytest.raises(gf.UsageError, match="^the point-count criterion fails at q=9; pass"):
        hemisystem.build_ft(3, 2)


def test_build_ft_forced_falsification_q9(monkeypatch):
    # condition B fails at q=9; the forced build assembles a candidate of the
    # right size and exhaustive verification rejects it, both half-choices,
    # enumerating M1 once and building each M2 half-orbit once
    m2_half_orbit, calls = curves.m2_half_orbit, []
    words, word_calls = groups.ft_word_images, []
    monkeypatch.setattr(curves, "m2_half_orbit",
                        lambda fr, eps: calls.append(eps) or m2_half_orbit(fr, eps))
    monkeypatch.setattr(groups, "ft_word_images",
                        lambda *a: word_calls.append(a[1]) or words(*a))
    cand, report = hemisystem.build_ft_verified(3, 2, eps=1, force=True)
    assert len(cand.lines) == (9 ** 3 + 1) * 10 // 2
    assert not report.passed
    assert cand.provenance["m2_choice"] == "both_failed"
    assert len(word_calls) == 1
    assert len(calls) == len(set(calls)) == 2


@pytest.mark.parametrize("p, h, histogram", [(3, 2, {4: 3600, 5: 52660, 6: 3600}),
                                             (5, 2, {12: 202800, 13: 9376276, 14: 202800})])
def test_build_ft_forced_histogram(p, h, histogram):
    # condition B fails at q = 9 and 25: the pinned FAIL histogram of the rule's pick,
    # after the fallback fails too
    cand, report = hemisystem.build_ft_verified(p, h, eps=1, force=True)
    assert not report.passed and report.histogram == histogram
    assert sum(histogram.values()) == report.expected_points
    assert cand.provenance["m2_choice"] == "both_failed"


@pytest.mark.parametrize("p, h, eps", [(3, 2, 1), (3, 2, -1), (17, 1, 1), (17, 1, -1)])
def test_m1_by_words_is_the_bfs_orbit(p, h, eps):
    fr = curves.ft_frame_setup(p, h, eps)
    _, H, _ = oracles.ft_group_gens(fr)
    key0 = hemisystem.seed_generator_g0(fr)[0]
    assert np.array_equal(hemisystem.m1_half_orbit(fr, key0), oracles.orbit(fr.ctx2, H, key0))
    # M2 by pencils, at the rule's point and the fallback's
    for e in (1, -1):
        bfs = oracles.orbit(fr.ctx2, H, oracles.ell_line(fr, e))
        assert np.array_equal(curves.m2_half_orbit(fr, e), bfs)


@pytest.mark.parametrize("p, h", [(3, 2), (17, 1)])
def test_g_orbit_is_the_bfs_orbit(p, h, ft17_g1):
    fr = curves.ft_frame_setup(p, h, 1)
    G, _, _ = oracles.ft_group_gens(fr)
    key0 = hemisystem.seed_generator_g0(fr)[0]
    g1 = hemisystem.g_orbit(fr, hemisystem.m1_half_orbit(fr, key0))
    assert np.array_equal(g1, ft17_g1 if p == 17 else oracles.orbit(fr.ctx2, G, key0))


def test_m1_refuses_two_words_with_one_image(monkeypatch):
    fr = curves.ft_frame_setup(3, 2, 1)
    words = groups.ft_word_images

    def collide(fr, key):
        codes = words(fr, key)
        codes[1] = codes[0]
        return codes

    monkeypatch.setattr(groups, "ft_word_images", collide)
    with pytest.raises(gf.InvariantFailed, match="^1800 words of H give 1799 lines of M1$"):
        hemisystem.m1_half_orbit(fr, hemisystem.seed_generator_g0(fr)[0])


BUILD_CP_DROPPING_AN_ORBIT_LINE = """
from hemisys import curves, gf, hemisystem
halves = curves.cp_half_orbits
curves.cp_half_orbits = lambda *args: (halves(*args)[0][1:], halves(*args)[1])
try:
    hemisystem.build_cp(3)
except gf.InvariantFailed as e:
    print(__debug__, e)
"""


def test_build_checks_hold_under_python_O():
    # the orbit-size checks are raises, not asserts that -O strips
    src = str(Path(hemisystem.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", BUILD_CP_DROPPING_AN_ORBIT_LINE],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False index-2 split failed\n"


def test_build_ft_eps_minus_verifies():
    cand, report = hemisystem.build_ft_verified(17, 1, eps=-1)
    assert report.passed
    assert cand.provenance["m2_choice"] == "rule"
    assert (cand.provenance["r"], cand.provenance["r_prime"]) == (5, 4)
    assert cand.provenance["m2_point"] == "minus"


def test_ft_eps_builds_differ(ft17_build, tmp_path):
    cand_plus, _ = ft17_build
    cand_minus, report = hemisystem.build_ft_verified(17, 1, eps=-1)
    assert report.passed
    assert cand_minus.key_set() != cand_plus.key_set()
    assert cand_plus.chi == 1 and cand_minus.chi == -1
    pp, pm = tmp_path / "plus.hs", tmp_path / "minus.hs"
    hemisystem.export(cand_plus, str(pp))
    hemisystem.export(cand_minus, str(pm))
    head_p = pp.read_text().split("\n")[1]
    head_m = pm.read_text().split("\n")[1]
    assert "eps=+1 chi=+1" in head_p and "eps=-1 chi=-1" in head_m
    assert hemisystem.verify(hemisystem.import_candidate(str(pm))).passed


# ---------------------------------------------------------------------------
# verification details

def test_verify_mutation_drops_one_line(ft17, ft17_build):
    cand, _ = ft17_build
    mut = hemisystem.HemisystemCandidate("ft", 17, 1, 1, cand.chi, cand.lines[1:])
    report = hemisystem.verify(mut, frame=ft17.frame)
    assert not report.passed
    assert report.histogram == {9: 1425060 - 290, 8: 290}


def _non_generator(ft17, seed):
    ctx, surf, rng = ft17.ctx2, oracles.enumerate_surface(ft17.frame), random.Random(seed)
    while True:
        A = pg3.unpack(ctx, int(surf[rng.randrange(len(surf))]))
        B = pg3.unpack(ctx, int(surf[rng.randrange(len(surf))]))
        if A != B and pg3.herm_form(ft17.frame, A, B) != 0:
            return oracles.line_key(ctx, A, B)


def test_verify_rejects_non_generator(ft17, ft17_build):
    cand, _ = ft17_build
    bad = np.vstack([cand.lines, np.asarray([_non_generator(ft17, 0)])])
    mut = hemisystem.HemisystemCandidate("ft", 17, 1, 1, cand.chi, bad)
    with pytest.raises(gf.CandidateError, match=r"^line \([0-9]+, [0-9]+\) is not a generator$"):
        hemisystem.verify(mut, frame=ft17.frame)


def test_generator_check_blocks_name_the_first_bad_line(ft17, ft17_build, monkeypatch):
    # lines 20,000 and 40,001 of 44,228: in share 0 of 1 or 2 and in shares 1
    # and 2 of 3, where both children fail and the recount names share 1's
    cand, _ = ft17_build
    bad = [np.asarray([_non_generator(ft17, s)]) for s in (1, 2)]
    lines = np.concatenate([cand.lines[:20000], bad[0], cand.lines[20000:40000], bad[1],
                            cand.lines[40000:]])
    mut = hemisystem.HemisystemCandidate("ft", 17, 1, 1, cand.chi, lines)
    messages = []
    for rows in (pg3.BLOCK_ROWS, 512):
        monkeypatch.setattr(pg3, "BLOCK_ROWS", rows)
        for threads in (1, 2, 3):
            with pytest.raises(gf.CandidateError, match="is not a generator$") as e:
                hemisystem.verify(mut, threads=threads, frame=ft17.frame)
            messages.append(str(e.value))
    assert set(messages) == {f"line {tuple(bad[0][0].tolist())} is not a generator"}


def test_generator_check_peak_memory_is_one_block(ft17, ft17_build, monkeypatch):
    # each block of keys is checked as it is counted: all 44,226 keys take no
    # more than one block of 512 (checking them at once took 4.6 MB)
    cand = ft17_build[0]
    ft17.frame.zech_rows                      # tables built outside the traced calls
    monkeypatch.setattr(pg3, "BLOCK_ROWS", 512)
    peaks = []
    for rows in (512, len(cand.lines)):
        part = dataclasses.replace(cand, lines=cand.lines[:rows])
        peaks.append(_traced_peak(lambda: hemisystem.verify(part, frame=ft17.frame))[0])
    one_block, all_blocks = peaks
    assert all_blocks < 2 * one_block, peaks


def test_verify_raises_on_a_lost_incidence(cp3_build, monkeypatch):
    cand, _ = cp3_build
    count_incidences = pg3.count_incidences

    def drop_one(frame, keys, counts):
        count_incidences(frame, keys, counts)
        counts[np.argmax(counts)] -= 1

    monkeypatch.setattr(pg3, "count_incidences", drop_one)
    with pytest.raises(gf.InvariantFailed, match="^559 incidences counted for 56 lines of 10 points$"):
        hemisystem.verify(cand)
    # an internal fault, not a usage error the CLI would report as exit 2
    assert not issubclass(gf.InvariantFailed, ValueError)


def test_verify_raises_on_a_wrapped_counter(cp3_build):
    # 257 or 65,537 copies of one generator wrap its points' 8-bit counters;
    # the incidence total then falls short instead of passing as a small count
    cand, _ = cp3_build
    for copies in (2 ** 8, 2 ** 16):
        lines = np.vstack([cand.lines, np.repeat(cand.lines[:1], copies, axis=0)])
        mut = hemisystem.HemisystemCandidate("cp", 3, 1, None, None, lines)
        with pytest.raises(gf.InvariantFailed, match=f"incidences counted for {56 + copies} lines"):
            hemisystem.verify(mut)


def test_complement_is_hemisystem_q17(ft17, ft17_gens, ft17_build, ft17_g1,
                                      ft17_g2, ft17_chords):
    # the two curves' chord sets are disjoint and tile the generator class
    # meeting neither curve, so the full generator set is available and the
    # complement of the verified candidate can be verified exactly
    ctx = ft17.ctx2
    _, _, w = ft17_gens
    chords_m = groups.apply_to_keys(ctx, w, np.asarray(ft17_chords))
    all_gens = (set(map(tuple, ft17_g1.tolist())) | set(ft17_g2)
                | {(int(a), int(b)) for a, b in ft17_chords}
                | {(int(a), int(b)) for a, b in chords_m})
    assert len(all_gens) == (17 ** 3 + 1) * 18
    cand, _ = ft17_build
    comp = sorted(all_gens - cand.key_set())
    comp_cand = hemisystem.HemisystemCandidate(
        "ft", 17, 1, None, None, np.asarray(comp, dtype=np.int64))
    assert hemisystem.verify(comp_cand, frame=ft17.frame).passed


def test_complement_arithmetic_q17(ft17, ft17_build):
    # each surface point carries q+1 = 18 generators in total and the
    # verified candidate supplies exactly 9, so the complement supplies 9 too
    cand, _ = ft17_build
    ctx = ft17.ctx2
    key_set = cand.key_set()
    surf = oracles.enumerate_surface(ft17.frame)
    rng = random.Random(5)
    for _ in range(5):
        P = pg3.unpack(ctx, int(surf[rng.randrange(len(surf))]))
        pencil = pg3.generators_through(ft17.frame, P)
        assert len(pencil) == 18
        assert sum(1 for k in pencil if k in key_set) == 9


def test_verify_peak_memory_grows_with_points_q17(ft17, ft17_build):
    # one counts row per worker (1,425,060 uint8 = 1.4 MB), the int32 tables
    # and one chunk of 512 lines x 290 points; sorting every incidence took about 0.8 GB
    cand, report = ft17_build
    tracemalloc.start()
    try:
        again = hemisystem.verify(cand, frame=ft17.frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.histogram == report.histogram == {9: 1425060}
    assert peak < 300e6, peak


@pytest.mark.parametrize("family,p,h", [("cp", 3, 1), ("cp", 5, 1), ("cp", 7, 1), ("cp", 3, 2),
                                        ("cp", 11, 1), ("cp", 13, 1), ("ft", 3, 2), ("ft", 17, 1)])
def test_verify_peak_memory_is_within_its_budget(family, p, h, ft17_build):
    # with its frame's tables built inside it, verify's traced peak stays within
    # the bytes _verify_bytes refuses past physical memory (its uint8 counts are
    # a mapping tracemalloc does not see, and are in the budget too)
    if (family, p) == ("ft", 17):
        cand = ft17_build[0]
    elif family == "cp":
        cand = hemisystem.build_cp(p, h)
    else:
        cand = hemisystem.build_ft(p, h, force=True)
    frame = (pg3.cp_frame if family == "cp" else pg3.ft_frame)(cand.ctx2())
    peak, _ = _traced_peak(lambda: hemisystem.verify(cand))
    assert peak <= hemisystem._verify_bytes(frame, 1), peak


def test_verify_threads_match(cp3_build):
    cand, rep1 = cp3_build
    rep4 = hemisystem.verify(cand, threads=4)
    assert rep4.histogram == rep1.histogram and rep4.passed


@pytest.mark.parametrize("threads", [2, 3])
def test_a_worker_fault_is_raised_as_in_process(monkeypatch, threads):
    # the first 7-line block of share 1, counted by a forked child, is a block
    # at 1 worker too; the child that meets it exits 1, and the parent's
    # recount raises the same fault
    cand = hemisystem.build_cp(5)
    share0, share1 = np.array_split(cand.lines, threads)[:2]
    assert len(share0) % 7 == 0
    count_incidences = pg3.count_incidences

    def fault_in_share_1(frame, keys, counts):
        if np.array_equal(keys, share1[:7]):
            raise ValueError("share 1 is off the surface")
        count_incidences(frame, keys, counts)

    monkeypatch.setattr(pg3, "BLOCK_ROWS", 7)
    monkeypatch.setattr(pg3, "count_incidences", fault_in_share_1)
    faults = []
    for n in (1, threads):
        with pytest.raises(ValueError, match="^share 1 is off the surface$") as fault:
            hemisystem.verify(cand, threads=n)
        faults.append((fault.type, str(fault.value)))
    assert faults[0] == faults[1] == (ValueError, "share 1 is off the surface")
    with pytest.raises(ChildProcessError):    # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_verify_at_one_thread_forks_nothing(cp3_build, monkeypatch):
    def no_fork():
        pytest.fail("verify forked at threads=1")

    monkeypatch.setattr(os, "fork", no_fork)
    assert hemisystem.verify(cp3_build[0], threads=1).passed


@pytest.mark.parametrize("family,histogram", [("cp", {3: 3276}),
                                              ("ft", {4: 3600, 5: 52660, 6: 3600})])
def test_verify_report_does_not_depend_on_chunks_or_workers(family, histogram, monkeypatch):
    # one line per chunk, a ragged 7 and the default, each at 1 and 3 workers,
    # on the cp q=5 PASS and the forced ft q=9 FAIL candidate
    if family == "cp":
        cand = hemisystem.build_cp(5)
    else:
        cand = hemisystem.build_ft(3, 2, force=True)
    reports = []
    for chunk in (1, 7, pg3.BLOCK_ROWS):
        monkeypatch.setattr(pg3, "BLOCK_ROWS", chunk)
        for threads in (1, 3):
            reports.append(dataclasses.asdict(hemisystem.verify(cand, threads=threads)))
    assert all(r == reports[0] for r in reports)
    assert reports[0]["histogram"] == histogram
    assert reports[0]["passed"] == (family == "cp")


# ---------------------------------------------------------------------------
# condition diagnostics

def test_condition_checks_types_I_II(ft17, ft17_sets, ft17_build, ft17_chords):
    cand, _ = ft17_build
    ctx = ft17.ctx2
    # restrict to the curve-meeting part of the candidate
    chords = set((int(a), int(b)) for a, b in ft17_chords)
    m_half = [k for k in cand.key_set() if k not in chords]
    surf = oracles.enumerate_surface(ft17.frame)
    rng = random.Random(1)
    rational = oracles.rational_plus(ft17_sets)
    checked = 0
    while checked < 200:
        P = pg3.unpack(ctx, int(surf[rng.randrange(len(surf))]))
        if pg3.pack(ctx, P) in rational:
            continue
        rec = oracles.condition_checks(ft17, m_half, P, ft17_sets)
        if rec["type"] not in (oracles.TYPE_I, oracles.TYPE_II):
            continue
        assert rec["passed"], rec
        checked += 1


def test_condition_checks_type_III_point(ft17, ft17_sets, ft17_build, ft17_chords):
    cand, _ = ft17_build
    ctx = ft17.ctx2
    chords = set((int(a), int(b)) for a, b in ft17_chords)
    m_half = [k for k in cand.key_set() if k not in chords]
    rec = oracles.condition_checks(ft17, m_half, ft17.p_eps(1), ft17_sets)
    assert rec["type"] == oracles.TYPE_III
    assert rec["n_P"] == 10 and rec["in_M"] == 5 and rec["passed"]


def test_condition_checks_curve_point(ft17, ft17_sets, ft17_build, ft17_chords):
    cand, _ = ft17_build
    ctx = ft17.ctx2
    chords = set((int(a), int(b)) for a, b in ft17_chords)
    m_half = [k for k in cand.key_set() if k not in chords]
    Q = pg3.unpack(ctx, int(ft17_sets.delta_plus[0]))
    rec = oracles.condition_checks(ft17, m_half, Q, ft17_sets)
    assert rec["type"] == "CURVE_POINT" and rec["in_M"] == 9 and rec["passed"]


# ---------------------------------------------------------------------------
# files

def _coords_text(ctx, coords) -> str:
    """Four coordinates as a file writes them: base-p digits, constant term
    first, joined by ':', the coordinates joined by ','."""
    return ",".join(":".join(str(c // ctx.p ** i % ctx.p) for i in range(ctx.d))
                    for c in coords)


def _point_text(ctx, packed: int) -> str:
    return _coords_text(ctx, pg3.unpack(ctx, packed))


def _write_body(src, dst, text: bytes, count=None):
    """dst: src's header with count (default: src's own) and the sha256 of
    the body text given."""
    head = src.read_bytes().split(b"\n")[:4]
    if count is None:
        count = int(head[3].split()[0].split(b"=")[1])
    head[3] = f"count={count} sha256={hashlib.sha256(text).hexdigest()}".encode()
    dst.write_bytes(b"\n".join(head) + b"\n" + text)


@pytest.fixture(scope="module")
def cp_built():
    """cp candidates by (p, h), built once per module."""
    cache = {}

    def get(p, h=1):
        if (p, h) not in cache:
            cache[p, h] = hemisystem.build_cp(p, h, force=True)
        return cache[p, h]
    return get


@pytest.mark.parametrize("p, h", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_export_import_roundtrip_cp(cp_built, p, h, tmp_path):
    # q = 9 has four digits per coordinate; p = 11 and 13 have two-character digits
    cand = cp_built(p, h)
    path = tmp_path / "c.hs"
    hemisystem.export(cand, str(path))
    back = hemisystem.import_candidate(str(path))
    assert back.lines.dtype == np.int64 and np.array_equal(back.lines, cand.lines)
    assert (back.family, back.p, back.h, back.eps, back.chi) == ("cp", p, h, None, None)


def _mutants(cand, body: list, k: int) -> dict:
    """One faulty body per rejection branch, each fault on body line k:
    kind -> (body lines, header count, file line to report, message start)."""
    ctx = cand.ctx2()
    a, b = (int(x) for x in cand.lines[k])
    line = body[k].decode()
    first, second = line.split(";")
    pts = sorted(int(x) for x in pg3.line_points(ctx, *pg3.key_points(ctx, (a, b))))
    zero = ",".join([":".join("0" * ctx.d)] * 4)
    doubled = _coords_text(ctx, [ctx.mul(2, c) for c in pg3.unpack(ctx, a)])

    def at(text):
        return body[:k] + [text if isinstance(text, bytes) else text.encode()] + body[k + 1:]

    n, row = len(body), k + 5
    return {
        "separator count": (at(line.replace(":", "", 1)), n, row, "malformed"),
        "empty digit run": (at(line[1:]), n, row, "malformed"),
        "non-digit byte": (at("x" + line[1:]), n, row, "malformed"),
        "invalid utf-8": (at(b"\xff" + body[k][1:]), n, row, "malformed"),
        "leading zero": (at("0" + line), n, row, "malformed"),
        "blank line": (body[:k] + [b""] + body[k:], n, row, "malformed"),
        "digit >= p": (at(str(ctx.p) + line[line.index(":"):]), n, row,
                       "digit out of range"),
        "zero point": (at(f"{zero};{second}"), n, row, "point is zero"),
        "not normalized": (at(f"{doubled};{second}"), n, row, "point is not normalized"),
        "a >= b": (at(f"{second};{first}"), n, row, "key points out of order"),
        "unsorted": (body[:k - 1] + [body[k], body[k - 1]] + body[k + 1:], n, row,
                     "key is not above the previous line's"),
        "non-canonical": (at(f"{first};{_point_text(ctx, pts[2])}"), n, row,
                          "key is not the line's two smallest points"),
        "count": (body, n - 1, 4, f"count={n - 1} but body has {n} lines"),
    }


@pytest.mark.parametrize("kind", ["separator count", "empty digit run", "non-digit byte",
                                  "invalid utf-8", "leading zero", "blank line", "digit >= p",
                                  "zero point", "not normalized", "a >= b", "unsorted",
                                  "non-canonical", "count"])
@pytest.mark.parametrize("p, h, k", [(13, 1, 55), (3, 2, 55),
                                     (13, 1, 2 * pg3.BLOCK_ROWS)])
def test_import_names_the_first_offending_line(cp_built, p, h, k, kind, tmp_path):
    # k = 2 * BLOCK_ROWS (4096) is the first line of the third block of lines
    cand = cp_built(p, h)
    path, bad = tmp_path / "c.hs", tmp_path / "bad.hs"
    hemisystem.export(cand, str(path))
    body = path.read_bytes().split(b"\n")[4:-1]
    lines, count, row, msg = _mutants(cand, body, k)[kind]
    _write_body(path, bad, b"".join(ln + b"\n" for ln in lines), count)
    with pytest.raises(gf.CandidateError, match=f"^line {row}: {re.escape(msg)}"):
        hemisystem.import_candidate(str(bad))


@pytest.mark.parametrize("cut, tail, row", [(1, b"", 60), (0, b"1", 61), (0, b"\n", 61)])
def test_import_rejects_an_unterminated_or_extra_last_line(cp3_build, tmp_path, cut, tail, row):
    # the cp q=3 body has 56 lines, file lines 5 to 60
    path, bad = tmp_path / "c.hs", tmp_path / "bad.hs"
    hemisystem.export(cp3_build[0], str(path))
    body = path.read_bytes().split(b"\n", 4)[4]
    _write_body(path, bad, body[:len(body) - cut] + tail)
    with pytest.raises(gf.CandidateError, match=f"^line {row}: malformed"):
        hemisystem.import_candidate(str(bad))


def test_export_import_roundtrip_q3(cp3_build, tmp_path):
    cand, _ = cp3_build
    path = tmp_path / "h3.hs"
    hemisystem.export(cand, str(path))
    back = hemisystem.import_candidate(str(path))
    assert back.key_set() == cand.key_set()
    assert (back.family, back.p, back.h, back.eps, back.chi) == ("cp", 3, 1, None, None)
    assert hemisystem.verify(back).passed


def test_export_import_roundtrip_q17(ft17_build, tmp_path):
    cand, _ = ft17_build
    path = tmp_path / "h17.hs"
    hemisystem.export(cand, str(path))
    back = hemisystem.import_candidate(str(path))
    assert back.key_set() == cand.key_set()
    assert back.eps == 1 and back.chi == cand.chi


def test_import_checksum_mismatch(cp3_build, tmp_path):
    cand, _ = cp3_build
    path = tmp_path / "h3.hs"
    hemisystem.export(cand, str(path))
    raw = path.read_bytes()
    pos = raw.index(b"\n", raw.index(b"sha256=")) + 2
    flip = b"1" if raw[pos:pos + 1] != b"1" else b"2"
    path.write_bytes(raw[:pos] + flip + raw[pos + 1:])
    with pytest.raises(gf.CandidateError, match="^body checksum does not match header$"):
        hemisystem.import_candidate(str(path))


def test_import_parse_errors(cp3_build, tmp_path):
    cand, _ = cp3_build
    path = tmp_path / "h3.hs"
    hemisystem.export(cand, str(path))
    good = path.read_text().split("\n")

    bad = tmp_path / "bad.hs"
    bad.write_text("#nope\n" + "\n".join(good[1:]))
    with pytest.raises(gf.CandidateError, match="^line 1: bad magic$"):
        hemisystem.import_candidate(str(bad))

    wrong_count = good[:]
    kv = wrong_count[3].replace("count=56", "count=55")
    import hashlib
    body = "\n".join(good[4:])
    digest = hashlib.sha256(body.encode()).hexdigest()
    wrong_count[3] = f"count=55 sha256={digest}"
    bad.write_text("\n".join(wrong_count))
    with pytest.raises(gf.CandidateError, match="^line 4: count=55 but body has 56 lines$"):
        hemisystem.import_candidate(str(bad))


def test_import_rejects_a_non_canonical_key(cp3_build, tmp_path):
    # the last body line's key becomes two other points of its own line, still
    # normalized, increasing and sorted, with the checksum recomputed
    cand, _ = cp3_build
    ctx = cand.ctx2()
    path = tmp_path / "h3.hs"
    hemisystem.export(cand, str(path))
    lines = path.read_text().split("\n")
    last = max(i for i, ln in enumerate(lines) if ln)
    key = (int(cand.lines[-1][0]), int(cand.lines[-1][1]))
    pts = sorted(int(x) for x in pg3.line_points(ctx, *pg3.key_points(ctx, key)))
    assert (pts[0], pts[1]) == key
    lines[last] = f"{_point_text(ctx, pts[0])};{_point_text(ctx, pts[2])}"
    body = "\n".join(lines[4:])
    lines[3] = f"count={len(cand.lines)} sha256={hashlib.sha256(body.encode()).hexdigest()}"
    bad = tmp_path / "bad.hs"
    bad.write_text("\n".join(lines))
    with pytest.raises(gf.CandidateError, match=f"^line {last + 1}: key is not"):
        hemisystem.import_candidate(str(bad))


def test_export_is_sorted_and_deterministic(cp3_build, tmp_path):
    cand, _ = cp3_build
    p1, p2 = tmp_path / "a.hs", tmp_path / "b.hs"
    hemisystem.export(cand, str(p1))
    hemisystem.export(cand, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    body = [ln for ln in p1.read_text().split("\n")[4:] if ln]
    assert len(body) == 56 and len(set(body)) == 56


# ---------------------------------------------------------------------------
# golden candidate files

GOLDEN_SHA256 = {
    3: "fe912ec4075b0790a45815fcd995784c99978c5a7464320f819d9f0d8df8caf3",
    5: "0957327cb059cb16c058c7b0da82bd1f0bcb488ea584a86c33ecf7ad52b67851",
    7: "a2ae3bd886181c5782028be3ae0ddeba793bf9c669e8705f2287d1b859e12248",
}


def _file_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_export_sha256_pinned_cp(p, tmp_path):
    path = tmp_path / f"h{p}.hs"
    hemisystem.export(hemisystem.build_cp(p), str(path))
    assert _file_sha256(path) == GOLDEN_SHA256[p]


def test_export_sha256_pinned_ft17(ft17_build, tmp_path):
    path = tmp_path / "h17.hs"
    hemisystem.export(ft17_build[0], str(path))
    assert _file_sha256(path) == (
        "3d635b144e90f573dacdba2b8facdf063d7bd6e491a26cb09cad42faf1ab7d43")


def test_export_sha256_pinned_ft17_eps_minus(tmp_path):
    path = tmp_path / "h17m.hs"
    hemisystem.export(hemisystem.build_ft(17, 1, -1), str(path))
    assert _file_sha256(path) == (
        "8693e8fdcc55002de0a85c5dc3951b5b834ff140bf626947008625da8480b515")


def _traced_peak(f) -> tuple:
    tracemalloc.start()
    try:
        out = f()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_import_peak_memory_q17(ft17_build, tmp_path):
    # only the file's bytes (1.6 MB) and the keys (0.7 MB) span the body; the
    # rest is what a file of two blocks of lines (one block decoded while the
    # previous block's digits are still held) needs beside its bytes and keys
    cand, _ = ft17_build
    path, two = tmp_path / "h17.hs", tmp_path / "two.hs"
    hemisystem.export(cand, str(path))
    hemisystem.export(dataclasses.replace(cand, lines=cand.lines[:2 * pg3.BLOCK_ROWS]),
                      str(two))
    block, small = _traced_peak(lambda: hemisystem.import_candidate(str(two)))
    block -= two.stat().st_size + small.lines.nbytes
    peak, back = _traced_peak(lambda: hemisystem.import_candidate(str(path)))
    assert np.array_equal(back.lines, cand.lines)
    assert peak < path.stat().st_size + back.lines.nbytes + 1.05 * block, (peak, block)


def test_export_peak_memory_q17(ft17_build, tmp_path):
    # the body is streamed: writing 44,226 lines takes no more than writing one
    # block of them (0.75 MB, mostly the table of coordinate strings)
    cand, _ = ft17_build
    one = dataclasses.replace(cand, lines=cand.lines[:pg3.BLOCK_ROWS])
    block, _ = _traced_peak(lambda: hemisystem.export(one, str(tmp_path / "one.hs")))
    peak, _ = _traced_peak(lambda: hemisystem.export(cand, str(tmp_path / "h17.hs")))
    assert peak < 1.25 * block < 1.5e6, (peak, block)


# one block's workspace: 1 kB for each of pg3.BLOCK_ROWS rows (2 MB); at ft q=17 the
# whole-set temporaries of the chords, the union, the check and the decode ran to 2.5-4.6 MB
BLOCK_WORKSPACE = 2 ** 10 * pg3.BLOCK_ROWS


def _transient(f, held: int = 0) -> int:
    """Bytes f's traced peak takes above what it leaves allocated and held bytes."""
    tracemalloc.start()
    try:
        out = f()                             # its output stays allocated while measured
        live, peak = tracemalloc.get_traced_memory()
        del out
    finally:
        tracemalloc.stop()
    return peak - live - held


@pytest.mark.parametrize("family,p", [("ft", 17), ("cp", 13)])
def test_every_stage_peaks_at_its_output_plus_one_block(family, p, ft17_build, tmp_path):
    # each stage that built a whole-set temporary (the field tables, the chords,
    # the line codes and keys of a union, the generator check and the count, the
    # file decode) peaks at what it leaves allocated plus one block's workspace
    cand = ft17_build[0] if family == "ft" else hemisystem.build_cp(p)
    ctx = cand.ctx2()
    frame = (pg3.ft_frame if family == "ft" else pg3.cp_frame)(ctx)
    frame.zech_rows                           # the frame's tables are no stage here
    chords = curves.ft_imaginary_chords if family == "ft" else curves.cp_imaginary_chords
    path = tmp_path / "c.hs"
    hemisystem.export(cand, str(path))
    over = {"field tables": _transient(lambda: gf.make_field(p, 2)),
            "chords": _transient(lambda: chords(ctx)),
            "union": _transient(lambda: hemisystem._sorted_lines(ctx, cand.lines[::2],
                                                                 cand.lines[1::2])),
            "check and count": _transient(lambda: hemisystem.verify(cand, frame=frame)),
            # import holds the file's bytes while it decodes them
            "decode": _transient(lambda: hemisystem.import_candidate(str(path)),
                                 path.stat().st_size)}
    assert max(over.values()) <= BLOCK_WORKSPACE, over


def test_import_refuses_a_file_whose_digest_slot_was_never_filled(cp3_build, tmp_path):
    # export writes 64 zeros in the digest slot and fills it after the body, so
    # a file cut short before then, whole or not, fails its checksum
    path = tmp_path / "h3.hs"
    hemisystem.export(cp3_build[0], str(path))
    raw = path.read_bytes()
    at = raw.index(b"sha256=") + len("sha256=")
    assert raw[at + 64:at + 65] == b"\n"
    unfilled = raw[:at] + b"0" * 64 + raw[at + 64:]
    for cut in (unfilled, unfilled[:len(unfilled) - 100]):
        path.write_bytes(cut)
        with pytest.raises(gf.CandidateError, match="^body checksum does not match header$"):
            hemisystem.import_candidate(str(path))


def test_pinned_ft17_keys_round_trip_line_codes(ft17, ft17_build):
    for cand in (ft17_build[0], hemisystem.build_ft(17, 1, -1)):
        codes = pg3.line_codes(ft17.ctx2, cand.lines)
        assert (np.diff(codes) > 0).all()
        assert np.array_equal(pg3.code_keys(ft17.ctx2, codes), cand.lines)
