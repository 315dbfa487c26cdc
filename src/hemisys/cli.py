"""Command-line front end.

Subcommands: construct, verify, survey, primes, eccount, diagnose.
Exit codes: 0 success / completed report, 1 verification failure
(gf.CandidateError: a candidate that is no hemisystem), 2 usage or
configuration error (gf.UsageError, or a path that cannot be opened),
3 internal error (gf.InvariantFailed or any other exception, with its
traceback on stderr).  Stdout is deterministic for fixed inputs; timing
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from . import curves, groups, hemisystem, numbers
from .gf import CandidateError, UsageError


def _emit(report: dict, fmt: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True) + "\n")
    elif "rows" in report and "columns" in report:
        cols, sep = report["columns"], "," if fmt == "csv" else "  "
        out.write(sep.join(cols) + "\n")
        for row in report["rows"]:
            out.write(sep.join(str(row[c]) for c in cols) + "\n")
    elif fmt == "csv":
        out.write("key,value\n" + "".join(f"{k},{report[k]}\n" for k in sorted(report)))
    else:
        out.write("".join(f"{k} = {report[k]}\n" for k in sorted(report)))


def _hist_str(h: dict) -> str:
    return ";".join(f"{k}:{v}" for k, v in sorted(h.items()))


def cmd_construct(args) -> int:
    t0 = time.perf_counter()
    if args.family == "cp":
        cand = hemisystem.build_cp(args.p, args.h, seed_orbit=args.seed_orbit)
        report = hemisystem.verify(cand, threads=args.threads)
    else:
        cand, report = hemisystem.build_ft_verified(
            args.p, args.h, eps=args.eps, force=args.force, threads=args.threads)
    if args.out:
        hemisystem.export(cand, args.out)
    payload = {
        "family": cand.family, "p": cand.p, "h": cand.h, "q": cand.q,
        "lines": int(report.line_count), "expected_lines": report.expected_lines,
        "points": int(report.point_count), "expected_points": report.expected_points,
        "incidence": report.expected_incidence,
        "histogram": _hist_str(report.histogram),
        "passed": report.passed,
        "out": args.out or "",
    }
    for k in ("r", "r_prime", "m1_size", "m2_size", "m2_point", "m2_choice",
              "chords", "orbit_size", "seed_orbit", "chi_used", "tangency_point"):
        if k in cand.provenance:
            payload[k] = cand.provenance[k]
    _emit(payload, args.format)
    print(f"construct: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    cand = hemisystem.import_candidate(args.file)
    report = hemisystem.verify(cand, threads=args.threads)
    payload = {
        "file": args.file, "family": cand.family, "p": cand.p, "h": cand.h,
        "lines": int(report.line_count), "expected_lines": report.expected_lines,
        "points": int(report.point_count), "expected_points": report.expected_points,
        "histogram": _hist_str(report.histogram),
        "passed": report.passed,
    }
    _emit(payload, args.format)
    print(f"verify: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


def q_list(text: str) -> list:
    return [int(x) for x in text.split(",")]


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"{n} is not positive")
    return n


def _survey_list(args):
    if args.q_list:
        return args.q_list
    return [q for q in range(5, args.q_max + 1)
            if q % 4 == 1 and numbers.prime_power(q)]


def cmd_survey(args) -> int:
    qs = _survey_list(args)
    rows = numbers.survey(qs)
    report = {
        "columns": ["q", "N_E3", "conditionB", "p_mod8", "q_square"],
        "rows": [{"q": r.q, "N_E3": r.N_E3,
                  "conditionB": str(r.condition_B).lower(),
                  "p_mod8": r.p_mod_8,
                  "q_square": str(r.q_square).lower()} for r in rows],
    }
    _emit(report, args.format)
    return 0


def cmd_primes(args) -> int:
    ps = numbers.search_primes(args.max)
    report = {"columns": ["n", "p"],
              "rows": [{"n": i + 1, "p": p} for i, p in enumerate(ps)]}
    _emit(report, args.format)
    return 0


def cmd_eccount(args) -> int:
    q = args.p ** args.h
    ctx = numbers._field_of_order(q)
    n_e3 = numbers.count_E3(ctx)
    omega = next(x for x in ctx.elements_by_rank() if x and not ctx.is_square(x))
    rec = numbers.count_C3_C4(ctx, omega)
    payload = {
        "q": q, "N_E3": n_e3, "N_C3": rec.N_C3, "N_C4": rec.N_C4,
        "n_q": rec.n_q, "two_square": rec.two_square,
        "conditionB": n_e3 in (q - 1, q + 3),
        "identities_ok": rec.identities_ok(), "hasse_ok": rec.hasse_ok(),
    }
    if args.h == 1 and args.p % 4 == 1:
        gd = numbers.gauss_alpha1(args.p)
        payload["alpha1"] = gd.alpha1
        payload["alpha2"] = gd.alpha2
        payload["count_from_alpha1"] = args.p + 1 - 2 * gd.alpha1
    _emit(payload, args.format)
    return 0


def cmd_diagnose(args) -> int:
    t0 = time.perf_counter()
    fr = curves.ft_frame_setup(args.p, args.h, eps=args.eps)
    sets = curves.ft_point_sets(fr.ctx2)
    groups.ft_group_gens(fr)                  # raises unless the generators preserve the form
    key0, _, prov = hemisystem.seed_generator_g0(fr)
    m1 = hemisystem.m1_half_orbit(fr, key0)
    g1 = hemisystem.g_orbit(fr, m1)
    r, rp = hemisystem.count_r_rprime(fr, m1, "plus")
    m2 = curves.m2_half_orbit(fr, 1)
    ctxq = numbers._field_of_order(fr.q)
    omega_small = next(x for x in range(1, fr.q) if not ctxq.is_square(x % fr.q))
    rec = numbers.count_C3_C4(ctxq, omega_small)
    quad_ok = groups.quadruple_action_check(fr, args.samples, seed=0)
    q = fr.q
    payload = {
        "p": args.p, "h": args.h, "q": q, "eps": fr.eps, "chi": fr.chi,
        "r": r, "r_prime": rp, "n_q": rec.n_q,
        "two_r_prime_minus_1": 2 * rp - 1,
        "N_E3": rec.N_E3, "conditionB": rec.N_E3 in (q - 1, q + 3),
        "m1_size": len(m1), "g1_size": len(g1),
        "m2_size": len(m2), "g2_size": (q + 1) ** 2,
        "omega_points": len(sets.omega),
        "delta_plus": len(sets.delta_plus), "delta_minus": len(sets.delta_minus),
        "quad_action_ok": quad_ok,
        "seed_tangency": prov["tangency_point"],
        "u_sign_matches_rule": prov["u_sign_matches_rule"],
    }
    _emit(payload, args.format)
    print(f"diagnose: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hemisys",
        description="Hemisystems of the Hermitian surface from embedded maximal curves")
    ap.add_argument("--threads", type=int, default=1, metavar="N")
    ap.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS, metavar="N")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build and verify a hemisystem",
                       parents=[common])
    c.add_argument("--family", choices=("cp", "ft"), required=True)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--h", type=positive_int, default=1)
    c.add_argument("--eps", type=int, choices=(1, -1), default=1)
    c.add_argument("--force", action="store_true")
    c.add_argument("--seed-orbit", choices=("plus", "minus"), default="plus")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", parents=[common], help="verify a candidate file")
    v.add_argument("file")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("survey", parents=[common], help="feasibility survey over q = 1 mod 4")
    grp = s.add_mutually_exclusive_group(required=True)
    grp.add_argument("--q-list", type=q_list, default=None)
    grp.add_argument("--q-max", type=int, default=None)
    s.set_defaults(func=cmd_survey)

    pr = sub.add_parser("primes", parents=[common], help="primes of the form 1 + 16 n^2")
    pr.add_argument("--max", type=int, required=True)
    pr.set_defaults(func=cmd_primes)

    e = sub.add_parser("eccount", parents=[common], help="point counts of the feasibility curves")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--h", type=positive_int, default=1)
    e.set_defaults(func=cmd_eccount)

    d = sub.add_parser("diagnose", parents=[common], help="orbit sizes, balance counts, action checks")
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--h", type=positive_int, default=1)
    d.add_argument("--eps", type=int, choices=(1, -1), default=1)
    d.add_argument("--samples", type=positive_int, default=1000)
    d.set_defaults(func=cmd_diagnose)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    if args.threads < 1 or args.threads > 1 and args.command not in ("construct", "verify"):
        print("error: --threads must be >= 1, and 1 outside construct and verify", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CandidateError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (UsageError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as e:                # or a path the user must correct
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
