#!/usr/bin/env python3
"""Re-pin perfbench/golden.json from the program in this checkout.

    python3 perfbench/pin.py --source "<commit the outputs were taken from>"

Runs every pinned operation once (both eps values where the seed picks
one) and records its exit code, stdout sha256, candidate-file sha256 and
the report fields in PINNED_FIELDS.  Pin only from a commit whose outputs
are known to be right: the benchmark counts every later deviation as a
failed operation.
"""

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile

import run

PINNED_FIELDS = ("histogram", "passed", "m2_choice")


def record(op, workdir, env) -> dict:
    proc = subprocess.run([sys.executable, "-m", "hemisys.cli", *op.argv], cwd=workdir,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    fields = run.report_fields(proc.stdout)
    entry = {"exit": proc.returncode, "stdout": hashlib.sha256(proc.stdout).hexdigest(),
             "fields": {k: fields[k] for k in PINNED_FIELDS if k in fields}}
    if op.out is not None:
        entry["file"] = run.sha256_file(workdir / op.out)
    run.GOLDEN[op.key] = entry
    print(op.key, entry["exit"], entry["fields"], file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description="re-pin perfbench/golden.json")
    ap.add_argument("--source", required=True)
    args = ap.parse_args()
    run.import_program()
    env = run.cli_env()
    seed_of_eps = {run.eps_tag(seed)[0]: seed for seed in range(16)}
    run.GOLDEN.clear()
    run.WORK_ROOT.mkdir(exist_ok=True)
    workdir = run.Path(tempfile.mkdtemp(prefix="pin-", dir=run.WORK_ROOT))
    try:
        # order matters: the verify17 and sweep set-ups check their inputs
        # against the ft17 and cp13 entries pinned before them
        for seed in seed_of_eps.values():
            for op in run.setup_ft17(seed, workdir)[0]:
                record(op, workdir, env)
        for p, h in run.SWEEP_CP:
            record(run.cp_op(p, h), workdir, env)
        record(run.FT9_OP, workdir, env)
        for seed in seed_of_eps.values():
            for op in run.setup_verify17(seed, workdir)[0]:
                record(op, workdir, env)
        record(run.setup_tiny(0, workdir)[0][-1], workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {"source": args.source, "ops": dict(sorted(run.GOLDEN.items()))}
    (run.BENCH_DIR / "golden.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
