#!/usr/bin/env python3
"""hemisys benchmark: the `hemisys` CLI as a user runs it, plus a traced run.

Run from the root of a checkout (numpy is the only dependency; the
program is imported from ./src, nothing needs installing):

    python3 perfbench/run.py --workload ft17 --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

  ft17      construct --family ft --p 17, eps picked by the seed
  verify17  verify h17.hs at --threads 1 and 2; set-up writes h17.hs
  sweep     cp constructs at q = 3..13, the ft q=9 FAIL path and the verify
            of a one-line mutant of cp q=13 chosen by the seed

Load is a closed loop: one client runs one CLI invocation at a time, each
in a fresh process, passes repeating until --seconds have elapsed.  Every
invocation is checked against perfbench/golden.json (exit code, stdout
sha256, candidate-file sha256, report fields); a mismatch counts as a
failed operation.  With --trace 1 the same operations run in this process,
alternately untraced and traced until --seconds have elapsed, then once
more for memory peaks, and the per-layer metrics are printed.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (name -> value and unit, names and units from BENCHMARK.json).
"""

from time import perf_counter

T_START = perf_counter()

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())["ops"]
RUN_DEADLINE_S = 170          # a run must end within 180 s


def import_program():
    """Import hemisys from this checkout's src/, never from anywhere else."""
    if not (SRC / "hemisys" / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'hemisys'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import hemisys
    from hemisys import cli, curves, gf, groups, hemisystem, numbers, pg3
    if Path(hemisys.__file__).resolve().parent != SRC / "hemisys":
        sys.exit(f"perfbench: hemisys imported from {hemisys.__file__}, not {SRC}")
    return [gf, pg3, curves, groups, hemisystem, numbers, cli]


@dataclasses.dataclass
class Op:
    """One CLI invocation, run with the work directory as its cwd."""
    key: str                  # golden.json entry, unless expect is given
    argv: list
    out: str | None = None    # candidate file the invocation writes
    expect: dict | None = None

    def expected(self) -> dict:
        return self.expect if self.expect is not None else GOLDEN[self.key]


def sha256_file(path) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def report_fields(stdout: bytes) -> dict:
    """The `key = value` lines of a text-format report."""
    pairs = (line.split(" = ", 1) for line in stdout.decode(errors="replace").splitlines())
    return {p[0]: p[1] for p in pairs if len(p) == 2}


def op_ok(op: Op, code: int, stdout: bytes, workdir: Path) -> bool:
    exp = op.expected()
    if code != exp["exit"]:
        return False
    if "stdout" in exp and hashlib.sha256(stdout).hexdigest() != exp["stdout"]:
        return False
    if op.out is not None and sha256_file(workdir / op.out) != exp["file"]:
        return False
    fields = report_fields(stdout)
    return all(fields.get(k) == v for k, v in exp.get("fields", {}).items())


def run_cli(op: Op, workdir: Path, env: dict) -> tuple:
    """Run one invocation in a fresh process; returns (wall seconds, passed)."""
    if op.out is not None:
        (workdir / op.out).unlink(missing_ok=True)
    timeout = max(1.0, RUN_DEADLINE_S - (perf_counter() - T_START))
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "hemisys.cli", *op.argv], cwd=workdir,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return perf_counter() - start, False
    return perf_counter() - start, op_ok(op, proc.returncode, stdout, workdir)


def run_inprocess(op: Op, workdir: Path, cli, tracer=None) -> tuple:
    """Run one invocation through cli.main in this process (traced run)."""
    if op.out is not None:
        (workdir / op.out).unlink(missing_ok=True)
    buf = io.StringIO()
    span = tracer.span("op:" + op.key) if tracer else contextlib.nullcontext()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            with span:
                try:
                    code = cli.main(op.argv)
                except Exception:
                    # the console script exits 1 on an uncaught exception too
                    code = 1
                    print(traceback.format_exc(), file=sys.__stderr__)
            elapsed = perf_counter() - start
    finally:
        os.chdir(cwd)
    return elapsed, op_ok(op, code, buf.getvalue().encode(), workdir)


# ---------------------------------------------------------------------------
# workloads: set-up writes the inputs into workdir and returns the operations
# plus the outcome of its own checks against the pinned hashes

def eps_tag(seed: int) -> tuple:
    eps = random.Random(seed).choice((1, -1))
    return eps, f"eps{eps:+d}"


def setup_ft17(seed: int, workdir: Path) -> tuple:
    eps, tag = eps_tag(seed)
    return [Op(f"ft17/{tag}", ["construct", "--family", "ft", "--p", "17", "--eps", str(eps),
                               "--out", "ft17.hs"], out="ft17.hs")], []


def setup_verify17(seed: int, workdir: Path) -> tuple:
    from hemisys import hemisystem
    eps, tag = eps_tag(seed)
    hemisystem.export(hemisystem.build_ft(17, 1, eps), str(workdir / "h17.hs"))
    pinned = sha256_file(workdir / "h17.hs") == GOLDEN[f"ft17/{tag}"]["file"]
    return [Op(f"verify17/{tag}/t{n}", ["verify", "--threads", str(n), "h17.hs"])
            for n in (1, 2)], [pinned]


SWEEP_CP = ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1))   # q = 3, 5, 7, 9, 11, 13


def cp_op(p: int, h: int) -> Op:
    name = f"cp{p ** h}"
    return Op(f"sweep/{name}", ["construct", "--family", "cp", "--p", str(p), "--h", str(h),
                                "--force", "--out", f"{name}.hs"], out=f"{name}.hs")


FT9_OP = Op("sweep/ft9", ["construct", "--family", "ft", "--p", "3", "--h", "2", "--force",
                          "--out", "ft9.hs"], out="ft9.hs")


def write_mutant(cand, rng: random.Random, path: Path) -> dict:
    """Swap one line L of cand for a generator L' outside it; returns the verify expectation.

    The expected histogram is counted here from the point sets of L and L':
    points of L only lose one incidence, points of L' only gain one.
    """
    import numpy as np
    from hemisys import hemisystem, pg3
    ctx = cand.ctx2()
    frame = pg3.cp_frame(ctx)
    keys = cand.key_set()
    lines = sorted(keys)
    dropped = lines[rng.randrange(len(lines))]
    through = lines[rng.randrange(len(lines))]
    pts = pg3.line_points(ctx, *pg3.key_points(ctx, through))
    P = pg3.unpack(ctx, int(pts[rng.randrange(len(pts))]))
    added = rng.choice([g for g in pg3.generators_through(frame, P) if g not in keys])
    mutant = sorted((keys - {dropped}) | {added})
    hemisystem.export(dataclasses.replace(cand, lines=np.asarray(mutant).reshape(-1, 2)),
                      str(path))
    on_l = set(pg3.line_points(ctx, *pg3.key_points(ctx, dropped)).tolist())
    on_m = set(pg3.line_points(ctx, *pg3.key_points(ctx, added)).tolist())
    k = (cand.q + 1) // 2
    lost, gained = len(on_l - on_m), len(on_m - on_l)
    hist = {k - 1: lost, k: frame.num_points - lost - gained, k + 1: gained}
    return {"exit": 1, "fields": {
        "histogram": ";".join(f"{v}:{n}" for v, n in sorted(hist.items())),
        "lines": str(len(mutant)), "passed": "False"}}


def setup_sweep(seed: int, workdir: Path) -> tuple:
    from hemisys import hemisystem
    cand = hemisystem.build_cp(13, force=True)
    hemisystem.export(cand, str(workdir / "cp13_base.hs"))
    pinned = sha256_file(workdir / "cp13_base.hs") == GOLDEN["sweep/cp13"]["file"]
    expect = write_mutant(cand, random.Random(seed), workdir / "mutant.hs")
    mutant = Op("sweep/mutant", ["verify", "mutant.hs"], expect=expect)
    return [cp_op(p, h) for p, h in SWEEP_CP] + [FT9_OP, mutant], [pinned]


def setup_tiny(seed: int, workdir: Path) -> tuple:
    """Seconds-long workload for perfbench/selftest.py: cp q=3 and the ft q=9 FAIL path."""
    from hemisys import hemisystem
    hemisystem.export(hemisystem.build_cp(3), str(workdir / "cp3_in.hs"))
    pinned = sha256_file(workdir / "cp3_in.hs") == GOLDEN["sweep/cp3"]["file"]
    return [cp_op(3, 1), FT9_OP, Op("tiny/verify_cp3", ["verify", "cp3_in.hs"])], [pinned]


SETUPS = {"ft17": setup_ft17, "verify17": setup_verify17, "sweep": setup_sweep,
          "tiny": setup_tiny}


# ---------------------------------------------------------------------------
# runs

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def repeat_passes(seconds: float, one_pass) -> list:
    """Call one_pass() until about `seconds` have elapsed; returns its results.

    A further pass starts only if it is expected to end nearer the deadline
    than not, so a run measures about `seconds`, not up to one pass more.
    """
    results = []
    start = perf_counter()
    while not results or (perf_counter() - start) * (1 + 0.5 / len(results)) < seconds:
        results.append(one_pass())
    return results


def timed_passes(ops, workdir: Path, env: dict, seconds: float) -> tuple:
    """Closed loop of CLI passes; end-to-end metrics without setup_s."""
    passes = repeat_passes(seconds, lambda: [run_cli(op, workdir, env) for op in ops])
    per_op = [statistics.median(t for t, _ in runs) for runs in zip(*passes)]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {"pass_s": statistics.median(sum(t for t, _ in p) for p in passes),
               "slowest_op_s": max(per_op),
               "peak_rss_mb": peak_kb / 1024}
    failed = sum(not ok for p in passes for _, ok in p)
    return metrics, len(ops) * len(passes), failed


def traced_passes(ops, workdir: Path, seconds: float, modules) -> tuple:
    """Pairs of untraced and traced in-process passes, then one pass for
    memory peaks; per-layer metrics per pass."""
    from tracer import MEMORY_SPANS, Tracer, summarise
    cli = modules[-1]

    def run_pass(tracer=None):
        if tracer is None:
            return [run_inprocess(op, workdir, cli) for op in ops]
        tracer.install()
        try:
            return [run_inprocess(op, workdir, cli, tracer) for op in ops]
        finally:
            tracer.uninstall()

    timing, memory = Tracer(modules), Tracer(modules, MEMORY_SPANS)
    pairs = repeat_passes(seconds, lambda: (run_pass(), run_pass(timing)))
    memory_pass = run_pass(memory)
    metrics = summarise(timing, memory, "op:", len(pairs))
    untraced_s, traced_s = (statistics.median(sum(t for t, _ in p[i]) for p in pairs)
                            for i in (0, 1))
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    runs = [r for u, t in pairs for r in u + t] + memory_pass
    return metrics, len(runs), sum(not ok for _, ok in runs)


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    modules = import_program()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        env = cli_env()
        # One set-up loads the program in a fresh interpreter, as every
        # invocation does, then writes and checks the workload's inputs.  It
        # is repeated (up to 5 times, while under 4 s in total) and the median
        # counted, so a cheap set-up is not dominated by one-off noise.
        reps, checks = [], []
        while len(reps) < 5 and sum(reps) < 4.0:
            start = perf_counter()
            load = subprocess.run([sys.executable, "-c", "import hemisys.cli"], env=env)
            ops, rep_checks = SETUPS[workload](seed, workdir)
            reps.append(perf_counter() - start)
            checks += [load.returncode == 0] + rep_checks
        if trace:
            metrics, attempted, failed = traced_passes(ops, workdir, seconds, modules)
            metrics["failed_ops_frac"] = (failed + checks.count(False)) / (attempted + len(checks))
            wanted = spec["per_layer"]
        else:
            metrics, attempted, failed = timed_passes(ops, workdir, env, seconds)
            metrics["setup_s"] = statistics.median(reps)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += len(checks)
    failed += checks.count(False)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
