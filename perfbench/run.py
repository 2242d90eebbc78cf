"""Benchmark entry point.

    python3 perfbench/run.py --workload memorize --seed 1 --seconds 25 --trace 0

Run from the repository root. One run is one process: it sets up the
workload several times, repeats whole rounds of the workload until
--seconds have passed, checks the outputs, and prints one JSON object as
the last line of standard output. With --trace 0 it reports the
end-to-end metrics; with --trace 1 the per-layer metrics from spans.
Results and traces go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["memorize", "rct-generate", "rct-pipeline"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("PFXLM_THREADS",)},
    }


def main(argv=None) -> int:
    t_start = perf_counter()
    args = parse_args(argv)
    # one BLAS thread, set before numpy loads its BLAS; generation threads
    # fall back to the program's default
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PFXLM_THREADS", None)

    src = ROOT / "src"
    if not (src / "prefixlm" / "__init__.py").is_file():
        print(f"error: no prefixlm package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import prefixlm
    if Path(prefixlm.__file__).resolve().parent != src / "prefixlm":
        print(f"error: imported prefixlm from {prefixlm.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    cls = {"memorize": workloads.Memorize, "rct-generate": workloads.RctGenerate,
           "rct-pipeline": workloads.RctPipeline}[args.workload]
    rec = tracing.Recorder(trace=bool(args.trace))
    tracing.install(rec)
    import_s = perf_counter() - t_start

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()
            rec.phase = f"setup:{k}"
            t0 = perf_counter()
            wl = cls(args.seed, workdir, rec)
            wl.setup()
            setup_times.append(perf_counter() - t0)

        rounds, walls = [], []
        started = perf_counter()
        while not rounds or perf_counter() - started < args.seconds:
            # the program leaves each training example's tape in a reference
            # cycle; collecting before a round keeps one round's garbage out
            # of the next, so peak memory does not depend on the round count
            gc.collect()
            rec.phase = f"round:{len(rounds)}"
            t0 = perf_counter()
            rounds.append(wl.run_round(len(rounds)))
            walls.append(perf_counter() - t0)
        rec.phase = None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = wl.check(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    detail = {}
    if args.trace:
        metrics = tracing.layer_metrics(rec.spans, walls)
        metrics["trace.wall_s"] = (statistics.median(walls), "s")
        detail["self_s_per_round"] = tracing.self_times(rec.spans, len(walls))
        rec.write(results / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "train_tokens_per_s": (statistics.median(rec.step_rates), "tok/s"),
            "gen_tokens_per_s": (
                statistics.median(n / s for s, n in rec.generating.values()), "tok/s"),
        }
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment(np)
    detail.update(result, env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, rounds=len(rounds),
                  round_walls=walls, setup_times=setup_times, import_s=import_s,
                  generating=rec.generating,
                  problems=problems)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
