#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny size; takes a few seconds.

    python3 perfbench/selftest.py

Runs run.py on the `tiny` workload (cp q=3, the ft q=9 FAIL path and a
verify of cp q=3) untraced and traced, and checks that every metric named
in BENCHMARK.json is printed with its unit and that no operation failed.
Then flips one digit of the verify input and checks that the harness
counts that operation as failed instead of crashing.  Exits 1 on any
problem.
"""

import json
import shutil
import subprocess
import sys
import tempfile

import run


def printed_result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "tiny",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def metric_problems(result: dict, wanted: list, label: str) -> list:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    got = result["metrics"]
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None or entry.get("unit") != m["unit"] \
                or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: metric {m['name']} missing or without unit {m['unit']}")
    return problems


def corrupted_input_problems() -> list:
    run.import_program()
    run.WORK_ROOT.mkdir(exist_ok=True)
    workdir = run.Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))
    try:
        ops, _ = run.setup_tiny(0, workdir)
        path = workdir / "cp3_in.hs"
        lines = path.read_text().split("\n")
        body = lines[4]                       # first generator line after the header
        i = next(j for j, c in enumerate(body) if c.isdigit())
        lines[4] = body[:i] + str((int(body[i]) + 1) % 3) + body[i + 1:]
        path.write_text("\n".join(lines))
        _, attempted, failed = run.timed_passes(ops, workdir, run.cli_env(), 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if (attempted, failed) != (len(ops), 1):
        return [f"corrupted input: {failed} of {attempted} operations failed, expected 1"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = (metric_problems(printed_result(0), spec["end_to_end"], "trace 0")
                + metric_problems(printed_result(1), spec["per_layer"], "trace 1")
                + corrupted_input_problems())
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
