"""One repetition of a workload, in a fresh interpreter.

Started by ``run.py``.  It imports the CLI and evaluates one ``state``
point, as every ``dmchain`` invocation must; set-up time runs from the
parent's ``--spawned-at`` stamp (CLOCK_MONOTONIC, shared by all processes)
to the end of that point.  It then runs the job and times it, either
traced (``--trace 1``) or under the speed probe (``--trace 0``), which
rescales both times to reference host speed; it checks the output
(``--check 1``) and prints one JSON line with the figures of this
repetition.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import warnings


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("figures", "protocol", "features"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    return ap.parse_args()


def main():
    args = parse_args()
    t0 = time.perf_counter()
    import dmchain.cli
    import_s = time.perf_counter() - t0
    with contextlib.redirect_stdout(io.StringIO()):
        if dmchain.cli.main(["state", "--J", "0.3", "--gamma", "0.5"]) != 0:
            sys.exit("dmchain state failed")
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    import numpy as np
    import workloads
    import speed

    # The library warns freely (nudged grid points, non-convergence); the
    # benchmark counts outcomes instead of printing warnings.
    warnings.simplefilter("ignore")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    scratch = tempfile.mkdtemp(prefix="job-", dir=args.outdir)
    try:
        job = workloads.JOBS[args.workload]
        if tracer:
            tracer.active = True
        else:
            # Only untraced: the probe's pauses would land inside the spans.
            probe = speed.SpeedProbe()
            probe.start()
        t0 = time.perf_counter()
        attempted, failed, output = job(args.seed, scratch)
        wall = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.active = False
            chunk_s = speed.REF_CHUNK_S
        else:
            wall, chunk_s = probe.stop()
        result = {
            "raw_setup_s": setup_s,
            "raw_wall_s": wall,
            "chunk_s": chunk_s,
            "setup_s": speed.rescale(setup_s, chunk_s),
            "wall_s": speed.rescale(wall, chunk_s),
            "import_s": import_s,
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failed": failed,
            "digest": workloads.digest(args.workload, output),
            "failures": [],
        }
        if args.check:
            import checks
            failures, worst = checks.CHECKS[args.workload](
                output, np.random.default_rng(args.seed))
            result["failures"] = failures
            result["oracle_max_rel_dev"] = worst
        if tracer:
            result["layers"] = tracer.metrics()
            tracer.save(os.path.join(args.outdir, "trace-%s-seed%d.npz"
                                     % (args.workload, args.seed)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
