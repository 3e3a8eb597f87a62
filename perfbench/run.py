"""dmchain benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Each repetition of the workload runs in
a fresh interpreter (``worker.py``) with one BLAS thread; repetitions
follow one another until ``--seconds`` have passed, and at least two run.
The first repetition's output is checked against ``checks.py``, and every
repetition must produce byte-identical output.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics (medians
over the repetitions) with ``--trace 0``, the per-layer metrics of the
traced repetitions with ``--trace 1``, named and in the units of
BENCHMARK.json.  Results and traces are written to ``perfbench/out/``.
See README.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("figures", "protocol", "features")
MIN_REPS = 2
DEADLINE_S = 170.0          # a run must end within 180 s


def run_rep(args, env, check, deadline):
    clock = time.CLOCK_MONOTONIC
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--check", str(int(check)),
           "--outdir", str(OUT),
           "--spawned-at", repr(time.clock_gettime(clock))]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("perfbench: repetition exceeded the time limit")
    if proc.returncode != 0 or not out.strip():
        sys.exit("perfbench: worker exited with code %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "dmchain" / "__init__.py").is_file():
        sys.exit("perfbench: no dmchain sources under %s" % (ROOT / "src"))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               VECLIB_MAXIMUM_THREADS="1", NUMEXPR_NUM_THREADS="1")

    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
        reps.append(run_rep(args, env, check=not reps, deadline=deadline))

    failures = list(reps[0]["failures"])
    if len({r["digest"] for r in reps}) > 1:
        failures.append("outputs differ between repetitions")
    if args.trace:
        for r in reps:
            r["layers"]["cli.import_s"] = r["import_s"]
        reps[0]["layers"]["check.oracle_max_rel_dev"] = reps[0]["oracle_max_rel_dev"]
        metrics = {m["name"]: {"value": statistics.median(
                       r["layers"][m["name"]] for r in reps
                       if m["name"] in r["layers"]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": statistics.median(r[m["name"]] for r in reps),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, failures=failures, repetitions=reps)
    with open(OUT / ("result-%s-seed%d-trace%d.json"
                     % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    for message in failures:
        print("perfbench: check failed: %s" % message, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
