"""Hemisystem candidates: assembly, exhaustive verification, file format.

A candidate is half of the generators of the surface: the orbit part
(one or two half-orbits of curve-meeting generators under the index-2
subgroup) together with all imaginary chords of the curve.  Verification
is exact: every point of every candidate line is counted and the full
incidence histogram must be (q+1)/2 at every one of the (q^3+1)(q^2+1)
surface points.  Each worker adds pg3.count_incidences of its contiguous
share of the keys, pg3.BLOCK_ROWS at a time (as every stage works, so no
workspace grows with q), in place into its own uint8 row of one shared
mapping, so memory grows with the points, not the incidences.  Workers past
the caller are forked (np.add.at holds the GIL); failed children's shares
are recounted in process, in order, to raise the first fault.  The caller
then folds each child's row into its own one pg3.GROUP_SIZE span at a time
and unmaps each folded span, so it never maps a child's whole row.
Repeated lines could wrap a uint8 counter (a point is on q+1 <= 74
distinct ones), making the int64 incidence total fall short.  A size whose arrays and tables
would exceed physical memory, or whose surface indices would not fit an
int32 (q >= 79), is refused with a UsageError first.

Candidate files are written and read by array code, pg3.BLOCK_ROWS lines at
a time.  export streams the body, then writes its sha256 into the header;
import_candidate holds only the file's bytes, matches the body's separators
against the fixed per-line pattern, decodes the digit runs and runs each
check, and a fault names its first offending file line.  build_cp's inert
force and HemisystemCandidate.key_set stay only because the benchmark
harness (perfbench/run.py) calls both.  Only gf and pg3 load
with this module, and the verify command loads no more; a cp construct adds
curves, an ft one groups and numbers too, and hashlib (OpenSSL) loads in the
file functions alone.
"""

from __future__ import annotations

import mmap
import os
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .gf import CandidateError, FieldCtx, UsageError, check, is_prime, make_field
from . import pg3

if TYPE_CHECKING:
    from .curves import FTFrame


@dataclass
class HemisystemCandidate:
    family: str                       # "cp" or "ft"
    p: int
    h: int
    eps: int | None
    chi: int | None
    lines: np.ndarray                 # (n, 2) int64, sorted rows
    provenance: dict = field(default_factory=dict)
    ctx: FieldCtx | None = field(default=None, repr=False, compare=False)   # GF(q^2), if built

    @property
    def q(self) -> int:
        return self.p ** self.h

    def ctx2(self) -> FieldCtx:
        return make_field(self.p, 2 * self.h) if self.ctx is None else self.ctx

    def key_set(self) -> set:
        return {(int(a), int(b)) for a, b in self.lines}


@dataclass
class VerificationReport:
    passed: bool
    line_count: int
    point_count: int
    histogram: dict
    expected_lines: int
    expected_points: int
    expected_incidence: int


def _sorted_lines(ctx: FieldCtx, *parts) -> np.ndarray:
    """Sorted distinct key rows of the union of key arrays, by their line codes."""
    return pg3.code_keys(ctx, pg3.unique(np.concatenate([pg3.line_codes(ctx, p) for p in parts])))


# ---------------------------------------------------------------------------
# seed generator for the ft family

def seed_generator_g0(fr: FTFrame) -> tuple:
    """The seed generator of the Delta-meeting half-orbit.

    Built from v0 = -2(1 - chi*sqrt2) b and t0 = -2(1 + chi*sqrt2) b with
    the frame's chi, the u-component sign fixed by its power relation and
    s forced by s = (t0 - v0^q)^2 / u0^q.  The line always contains
    exactly one of the two tangency points (1, +-sqrt(-2) b, b, 0); which
    one is recorded in the provenance rather than enforced, because the
    labels are pinned by the balance count instead: the half-orbit this
    seed generates meets the plus-side pencil in (q-1)/4 of its (q+1)/2
    members, which is what the half-orbit choice rule keys on.
    Returns (key, quadruple, provenance).
    """
    from . import groups
    ctx = fr.ctx2
    q = fr.q
    m = (q + 1) // 2
    two = 2 % ctx.p
    b = fr.b
    sixteen_b2 = ctx.mul(16 % ctx.p, ctx.mul(b, b))
    chi = fr.chi
    root = fr.sqrt2 if chi == 1 else ctx.neg(fr.sqrt2)       # chi * sqrt2
    v0 = ctx.mul(ctx.neg(two), ctx.mul(ctx.sub(1, root), b))
    t0 = ctx.mul(ctx.neg(two), ctx.mul(ctx.add(1, root), b))
    denom = fr.sqrtm2 if fr.eps == 1 else ctx.neg(fr.sqrtm2)
    base = ctx.mul(ctx.div(ctx.neg(4 % ctx.p), denom),
                   ctx.mul(ctx.sub(two, root), b))
    target = ctx.sub(ctx.frobenius(v0, fr.h), v0)
    u0 = None
    u_sign = None
    for sgn, cand in ((1, base), (-1, ctx.neg(base))):
        if ctx.pow(cand, m) == target:
            u0 = cand
            u_sign = sgn
            break
    check(u0 is not None, "no sign makes u0^((q+1)/2) = v0^q - v0")
    d = ctx.sub(t0, ctx.frobenius(v0, fr.h))
    s0 = ctx.div(ctx.mul(d, d), ctx.frobenius(u0, fr.h))
    quad = (u0, v0, s0, t0)
    checks = [
        groups.quad_relations_hold(fr, quad),
        ctx.mul(ctx.frobenius(u0, fr.h), s0) == sixteen_b2,
        ctx.mul(d, d) == sixteen_b2,
        ctx.add(v0, t0) == ctx.mul(ctx.neg(4 % ctx.p), b),
        ctx.mul(v0, t0) == ctx.mul(ctx.neg(4 % ctx.p), ctx.mul(b, b)),
    ]
    check(all(checks), f"structural checks failed: {checks}")
    key = groups.quad_line(fr, quad)
    A, B = pg3.key_points(ctx, key)
    check(pg3.is_generator(fr.frame, A, B), "seed line is not a generator")
    pts = set(int(x) for x in pg3.line_points(ctx, A, B))
    through = [e for e in (1, -1)
               if pg3.pack_point(ctx, fr.p_eps(e)) in pts]
    check(len(through) == 1, f"seed meets {len(through)} tangency points")
    # the closed-form sign rule picks + exactly when sqrt2 is itself a square
    rule_sign = 1 if fr.chi_q(fr.sqrt2) == 1 else -1
    prov = {"chi_used": chi, "u_sign_matches_rule": u_sign == rule_sign,
            "tangency_point": "plus" if through[0] == 1 else "minus"}
    return key, quad, prov


def count_r_rprime(fr: FTFrame, m1_keys, which_point: str = "plus") -> tuple:
    """Generators of the half-orbit through the tangency point, split (r, r')."""
    eps = 1 if which_point == "plus" else -1
    through = pg3.generators_through(fr.frame, fr.p_eps(eps))
    r = int(pg3.member(pg3.line_codes(fr.ctx2, through), pg3.line_codes(fr.ctx2, m1_keys)).sum())
    return r, (fr.q + 1) // 2 - r


# ---------------------------------------------------------------------------
# builders

def build_cp(p: int, h: int = 1, seed_orbit: str = "plus",
             force: bool = False) -> HemisystemCandidate:
    """Rational-curve hemisystem: a PSL(2,q^2) half-orbit plus all chords.  force
    changes nothing: verify's byte budget, not a guard here, refuses a size."""
    from . import curves
    q = p ** h
    ctx2 = make_field(p, 2 * h)
    frame = pg3.cp_frame(ctx2)
    # the least generator through (0,0,0,1) is <(0,0,0,1), (0,1,x0,0)>
    seed = pg3.generators_through(frame, (0, 0, 0, 1))[0]
    plus, minus = curves.cp_half_orbits(ctx2, pg3.unpack(ctx2, seed[1])[2])
    check(len(plus) == len(minus) == (q + 1) * (q * q + 1) // 2
          and not pg3.member(pg3.line_codes(ctx2, minus), pg3.line_codes(ctx2, plus)).any(),
          "index-2 split failed")
    M = plus if seed_orbit == "plus" else minus
    chords = curves.cp_imaginary_chords(ctx2)
    lines = _sorted_lines(ctx2, M, chords)
    cand = HemisystemCandidate(
        family="cp", p=p, h=h, eps=None, chi=None, lines=lines, ctx=ctx2,
        provenance={"seed": list(seed), "seed_orbit": seed_orbit,
                    "orbit_size": len(M), "chords": int(len(chords))})
    check(len(lines) == frame.num_generators // 2, f"{len(lines)} lines in the candidate")
    return cand


def build_ft(p: int, h: int = 1, eps: int = 1, force: bool = False) -> HemisystemCandidate:
    """Fuhrmann-Torres hemisystem candidate (orbit rule, no verification)."""
    from . import curves
    return _build_ft(p, h, eps, force, curves.ft_frame_setup(p, h, eps))[0]


def m1_half_orbit(fr: FTFrame, key0) -> np.ndarray:
    """Sorted key rows of M1 = H(key0), one image per normal word of H
    (groups.ft_word_images): they must be |H| = q(q-1)(q+1)^2/4 distinct lines."""
    from . import groups
    q = fr.q
    codes = groups.ft_word_images(fr, key0)
    codes.sort()
    check(len(codes) == q * (q - 1) * (q + 1) ** 2 // 4 and (codes[1:] != codes[:-1]).all(),
          f"{len(codes)} words of H give {len(pg3.unique(codes))} lines of M1")
    return pg3.code_keys(fr.ctx2, codes)


def g_orbit(fr: FTFrame, m1) -> np.ndarray:
    """Sorted key rows of G(key0) = M1 u R M1 for M1 = H(key0): H has index 2 in
    G, and R = mat_R(eta), eta = g^(q+1), lies in G outside H."""
    from . import groups
    ctx = fr.ctx2
    R = groups.mat_R(ctx, ctx.pow(ctx.gen, fr.q + 1))
    return _sorted_lines(ctx, m1, groups.apply_to_keys(ctx, R, m1))


def _build_ft(p, h, eps, force, fr: FTFrame) -> tuple:
    """build_ft's candidate and its M2 half-orbit."""
    from . import curves, numbers
    q = p ** h
    if not force and not numbers.condition_B_holds(q, fr.ctx2):
        raise UsageError(
            f"the point-count criterion fails at q={q}; pass force to build anyway")
    key0, _, seed_prov = seed_generator_g0(fr)
    m1 = m1_half_orbit(fr, key0)
    r, rp = count_r_rprime(fr, m1, "plus")
    check(r != rp, f"r = r' = {r}")
    pick_eps = 1 if r < rp else -1
    m2 = curves.m2_half_orbit(fr, pick_eps)
    chords = curves.ft_imaginary_chords(fr.ctx2)
    lines = _sorted_lines(fr.ctx2, m1, m2, chords)
    n_rational = (q ** 3 + q + 2) // 2
    check(len(m1) + len(m2) == (q + 1) * n_rational // 2,
          f"{len(m1)} + {len(m2)} curve-meeting lines")
    cand = HemisystemCandidate(
        family="ft", p=p, h=h, eps=eps, chi=fr.chi, lines=lines, ctx=fr.ctx2,
        provenance={"seed": list(key0), "r": r, "r_prime": rp,
                    "m1_size": len(m1), "m2_size": len(m2),
                    "m2_point": "plus" if pick_eps == 1 else "minus",
                    "chords": int(len(chords)), **seed_prov})
    check(len(lines) == fr.frame.num_generators // 2, f"{len(lines)} lines in the candidate")
    return cand, m2


def build_ft_verified(p: int, h: int = 1, eps: int = 1, force: bool = False,
                      threads: int = 1) -> tuple:
    """Build, verify, and fall back to the other half-orbit on failure.

    Verification is ground truth for the half-orbit choice; the fallback
    outcome is recorded in the provenance.  Returns (candidate, report).
    """
    from . import curves
    fr = curves.ft_frame_setup(p, h, eps)
    cand, m2_old = _build_ft(p, h, eps, force, fr)
    report = verify(cand, threads=threads, frame=fr.frame)
    if report.passed:
        cand.provenance["m2_choice"] = "rule"
        return cand, report
    flipped = "minus" if cand.provenance["m2_point"] == "plus" else "plus"
    m2 = curves.m2_half_orbit(fr, 1 if flipped == "plus" else -1)
    keep = ~pg3.member(pg3.line_codes(fr.ctx2, cand.lines), pg3.line_codes(fr.ctx2, m2_old))
    lines = _sorted_lines(fr.ctx2, cand.lines[keep], m2)
    cand2 = HemisystemCandidate(
        family="ft", p=p, h=h, eps=eps, chi=fr.chi, lines=lines, ctx=fr.ctx2,
        provenance={**cand.provenance, "m2_point": flipped, "m2_choice": "fallback"})
    report2 = verify(cand2, threads=threads, frame=fr.frame)
    if report2.passed:
        return cand2, report2
    cand.provenance["m2_choice"] = "both_failed"
    return cand, report


# ---------------------------------------------------------------------------
# exact verification

def _verify_bytes(frame: pg3.HermitianFrame, workers: int) -> int:
    """Bytes of each worker's uint8 counts and block workspace (256 bytes a block row and
    32 a group point: 1 MB whatever q, 0.58 MB measured), pg3's tables (int16 and int32
    Zech rows, int32 slot and start, int64 fibre and sol_at) and a histogram group's cast."""
    n = frame.ctx.order
    return (workers * (frame.num_points + 256 * pg3.BLOCK_ROWS + 32 * pg3.GROUP_SIZE)
            + 6 * 3 * n * (n - 1) + 4 * (n * n + n) + 8 * (frame.q + 1) * n + 8 * pg3.GROUP_SIZE)


def verify(cand: HemisystemCandidate, threads: int = 1,
           frame: pg3.HermitianFrame | None = None) -> VerificationReport:
    """Exact incidence verification of a candidate line set."""
    if frame is None:
        frame = (pg3.cp_frame if cand.family == "cp" else pg3.ft_frame)(cand.ctx2())
    keys = np.asarray(cand.lines, dtype=np.int64).reshape(-1, 2)
    workers = max(1, min(threads, -(-len(keys) // pg3.BLOCK_ROWS)))
    need = _verify_bytes(frame, workers)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise UsageError(f"verify at q={frame.q} needs {need} bytes of counts and "
                         f"tables, over the {have} bytes of physical memory")
    frame.zech_rows                           # UsageError past int32; built before any fork
    # row w of one shared mapping, at a page-aligned stride, holds the counts of share w,
    # a contiguous run of keys
    stride = -(-frame.num_points // mmap.PAGESIZE) * mmap.PAGESIZE
    shared = mmap.mmap(-1, workers * stride)
    rows = np.frombuffer(shared, np.uint8).reshape(workers, stride)[:, :frame.num_points]
    shares = np.array_split(keys, workers)

    def count(w):
        for lo in range(0, len(shares[w]), block := pg3.BLOCK_ROWS):
            pg3.count_incidences(frame, shares[w][lo:lo + block], rows[w])

    pids = {}
    try:
        for w in range(1, workers):
            pid = os.fork()
            if pid == 0:                      # the child counts its share and never returns
                try:
                    count(w)
                    os._exit(0)
                finally:
                    os._exit(1)
            pids[w] = pid
        count(0)
    except BaseException:
        import signal
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        failed = [w for w, pid in pids.items() if os.waitpid(pid, 0)[1]]
    for w in failed:                          # recount in share order: raises the first fault
        rows[w] = 0
        count(w)
    # fold the children's rows into row 0 a span at a time, unmapping each folded span
    # from this process; bincount casts its input to int64, so spans keep that copy small
    counts, span = rows[0], max(pg3.GROUP_SIZE, mmap.PAGESIZE)
    hist = np.zeros(2 ** 8, dtype=np.int64)
    for lo in range(0, len(counts), span):
        for w in range(1, workers):
            counts[lo:lo + span] += rows[w, lo:lo + span]
            shared.madvise(mmap.MADV_DONTNEED, w * stride + lo, min(span, stride - lo))
        hist += np.bincount(counts[lo:lo + span], minlength=2 ** 8)
    # a wrapped counter (over 255 incidences) can only make the total fall short
    total = int(hist @ np.arange(2 ** 8))
    check(total == len(keys) * (frame.ctx.order + 1),
          f"{total} incidences counted for {len(keys)} lines of {frame.ctx.order + 1} points")
    histogram = {int(v): int(hist[v]) for v in np.flatnonzero(hist[1:]) + 1}
    expected_lines = frame.num_generators // 2
    expected_inc = (frame.q + 1) // 2
    # the histogram leaves out count 0, so it also says every point is covered
    passed = len(keys) == expected_lines and histogram == {expected_inc: frame.num_points}
    return VerificationReport(
        passed=passed, line_count=len(keys), point_count=frame.num_points - int(hist[0]),
        histogram=histogram, expected_lines=expected_lines, expected_points=frame.num_points,
        expected_incidence=expected_inc)


# ---------------------------------------------------------------------------
# candidate files

MAGIC = "#hemis v1"
SIGNS = {"na": None, "+1": 1, "-1": -1}       # eps/chi header tokens
MALFORMED = ("malformed: want 2 points joined by ';', each 4 coordinates joined by "
             "',', each {d} digits joined by ':', then a newline")


def export(cand: HemisystemCandidate, path: str) -> None:
    """Write a candidate file block by block, then its body's sha256 into the header."""
    import hashlib
    ctx = cand.ctx2()
    n, p = ctx.order, ctx.p
    # a rank's base-p digits, most significant first, are the element's digits
    digs = np.arange(n)[:, None] // p ** np.arange(ctx.d - 1, -1, -1) % p
    table = np.array([[":".join(map(str, row)) + sep for sep in ",,,;,,,\n"]
                      for row in digs.tolist()], dtype=object)
    keys = np.asarray(cand.lines, dtype=np.int64).reshape(-1, 2, 1)
    token = {v: k for k, v in SIGNS.items()}
    head = "\n".join([MAGIC, f"family={cand.family} p={cand.p} h={cand.h} "
                             f"eps={token[cand.eps]} chi={token[cand.chi]}",
                      "poly2=" + ",".join(str(c) for c in ctx.poly),
                      f"count={len(keys)} sha256="]).encode()
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        fh.write(head + b"0" * 64 + b"\n")   # no body hashes to 64 zeros: a cut file fails
        for blk in np.split(keys, range(block := pg3.BLOCK_ROWS, len(keys), block)):
            text = "".join(table[(blk // n ** np.arange(3, -1, -1) % n).reshape(-1, 8),
                                 np.arange(8)].ravel().tolist()).encode()
            digest.update(text)
            fh.write(text)
        fh.seek(len(head))
        fh.write(digest.hexdigest().encode())


def _block_digits(blk: np.ndarray, pat: np.ndarray, width: int) -> tuple:
    """Digits (rows, 8d) of a body block's complete lines before its first byte
    off the line pattern pat or off 1 to width digits with no leading 0, and
    that byte's offset (None if there is none)."""
    sep = np.flatnonzero((blk < 48) | (blk > 57))           # every non-digit byte
    start = np.concatenate(([0], sep + 1))[:-1]             # run i is blk[start[i]:sep[i]]
    size = sep - start
    off = np.concatenate([sep[blk[sep] != np.tile(pat, len(sep) // len(pat) + 1)[:len(sep)]][:1],
                          sep[size == 0][:1],
                          start[(size > width) | ((size > 1) & (blk[start] == 48))][:1],
                          [len(blk) - 1] if len(blk) and blk[-1] != 10 else []])
    bad = int(off.min()) if len(off) else None
    rows = len(sep) // len(pat) if bad is None else np.count_nonzero(blk[:bad] == 10)
    st, size = start[:rows * len(pat)], size[:rows * len(pat)]
    val = blk[st] - np.int64(48)                             # every run has a first digit
    for k in range(1, width):
        more = np.flatnonzero(size > k)
        val[more] = val[more] * 10 + (blk[st[more] + k] - 48)
    return val.reshape(rows, len(pat)), bad


def _block_keys(ctx: FieldCtx, dig: np.ndarray, prev: np.ndarray) -> tuple:
    """Keys of digit rows (rows, 2, 4, d) before the first that fails a check
    (prev: the key before the block), that row and its message, or (len, None)."""
    rank = dig @ ctx.p ** np.arange(ctx.d - 1, -1, -1)               # (rows, 2, 4)
    keys = rank @ ctx.order ** np.arange(3, -1, -1)                  # (rows, 2)
    lead = np.take_along_axis(rank, (rank != 0).argmax(axis=2)[..., None], axis=2)
    before = np.concatenate([prev[None], keys[:-1]])
    checks = [((dig < ctx.p).all(axis=(1, 2, 3)), "digit out of range"),
              ((rank != 0).any(axis=2).all(axis=1), "point is zero"),
              ((lead == ctx.rank_np[1]).all(axis=(1, 2)), "point is not normalized"),
              (keys[:, 0] < keys[:, 1], "key points out of order"),
              # (a, b) > (a', b') lexicographically iff 2 sgn(a - a') + sgn(b - b') > 0
              (np.sign(keys - before) @ [2, 1] > 0, "key is not above the previous line's")]
    row, why = len(dig), None
    for ok, msg in checks:
        bad = np.flatnonzero(~ok[:row])
        if len(bad):
            row, why = int(bad[0]), msg
    elem = dig[:row] @ ctx.p ** np.arange(ctx.d)
    bad = np.flatnonzero(~pg3.is_rref_key(elem[:, 0], elem[:, 1]))
    if len(bad):
        row, why = int(bad[0]), "key is not the line's two smallest points"
    return keys[:row], row, why


def import_candidate(path: str) -> HemisystemCandidate:
    """Read a candidate file, rejecting any fault with a CandidateError that names
    its first offending file line, or else the body's sha256 mismatch."""
    import hashlib
    with open(path, "rb") as fh:
        data = fh.read()
    at = m.end() if (m := re.match(rb"(?:[^\n]*\n){4}", data)) else len(data)   # 4 lines
    head = [x.decode("utf-8", "replace") for x in data[:at].split(b"\n")[:4]]
    body = np.frombuffer(data, dtype=np.uint8, offset=at)                       # no copy
    if len(head) < 4 or head[0] != MAGIC:
        raise CandidateError("line 1: bad magic")
    try:
        kv = dict(part.split("=", 1) for part in head[1].split())
        family, p, h = kv["family"], int(kv["p"]), int(kv["h"])
        eps, chi = SIGNS[kv["eps"]], SIGNS[kv["chi"]]
    except (KeyError, ValueError):
        raise CandidateError("line 2: bad header")
    # packed points must fit an int64: p^(8h) < 2^63, so h < 8 as p >= 3
    if (family not in ("cp", "ft") or p == 2 or not is_prime(p) or not 1 <= h < 8
            or p ** (8 * h) >= 2 ** 63):
        raise CandidateError(f"line 2: family={family} p={p} h={h}: want cp or ft over an "
                             "odd prime power with 64-bit packed points")
    if not re.fullmatch("poly2=[0-9]+(,[0-9]+)*", head[2]):
        raise CandidateError("line 3: bad poly2")
    poly2 = tuple(int(c) for c in head[2][len("poly2="):].split(","))
    line4 = re.fullmatch("count=([0-9]+) sha256=([0-9a-f]+)", head[3])
    if not line4:
        raise CandidateError("line 4: bad count/checksum header")
    count, digest = int(line4[1]), line4[2]
    if hashlib.sha256(body).hexdigest() != digest:
        raise CandidateError("body checksum does not match header")
    ctx = make_field(p, 2 * h)
    if ctx.poly != poly2:
        raise CandidateError(f"line 3: non-canonical polynomial {poly2}")
    pat = np.frombuffer("".join(":" * (ctx.d - 1) + s for s in ",,,;,,,\n").encode(), np.uint8)
    block, cuts, rows = pg3.BLOCK_ROWS, [0], 0   # cuts after every block-th newline
    for lo in range(0, len(body), pg3.GROUP_SIZE):
        nl = lo + np.flatnonzero(body[lo:lo + pg3.GROUP_SIZE] == 10)
        cuts.extend((nl[(-rows - 1) % block::block] + 1).tolist())
        rows += len(nl)
    cuts = sorted({*cuts, len(body)})
    lines = np.empty((rows, 2), dtype=np.int64)
    for b, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
        first = min(b * block, rows)
        dig, bad = _block_digits(body[lo:hi], pat, len(str(p - 1)))
        prev = lines[first - 1] if first else np.array([-1, -1])
        keys, row, why = _block_keys(ctx, dig.reshape(-1, 2, 4, ctx.d), prev)
        lines[first:first + row] = keys
        if why or bad is not None:
            raise CandidateError(f"line {5 + first + row}: {why or MALFORMED.format(d=ctx.d)}")
    if len(lines) != count:
        raise CandidateError(f"line 4: count={count} but body has {len(lines)} lines")
    return HemisystemCandidate(family=family, p=p, h=h, eps=eps, chi=chi, lines=lines,
                               provenance={"imported_from": path}, ctx=ctx)
