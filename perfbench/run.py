"""sho-spectra benchmark.

    python3 perfbench/run.py --workload hankel --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout.  Every pass of a workload runs in a
fresh interpreter (perfbench/worker.py) so that per-process memos never
carry from one pass to the next.  Passes repeat until --seconds of timed
work is done (at least one).  Set-up is sampled in extra interpreters as
well and reported as a median.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
one untraced and one traced pass plus the single-BLAS-thread baseline and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("hankel", "box")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child(mode: str, args, workdir: Path, deadline: float, threads: int) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for a {mode} run")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run did not finish within {remaining:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} run exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _print_tasks(result: dict, label: str):
    for task in result["tasks"]:
        state = "ok" if not task["problems"] else "FAILED: " + " | ".join(task["problems"])
        print(f"  {label} {task['name']:<32} {task['seconds']:9.4f} s  {state}")


def _counts(passes) -> tuple:
    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(1 for p in passes for t in p["tasks"] if t["problems"])
    return attempted, failed


def measure(args, workdir: Path, deadline: float, threads: int) -> tuple:
    """Untraced passes until args.seconds of timed work, plus set-up samples."""
    passes = []
    while not passes or sum(p["wall_s"] for p in passes) < args.seconds:
        if passes and time.monotonic() + 1.5 * passes[-1]["wall_s"] > deadline:
            break
        passes.append(_child("pass", args, workdir, deadline, threads))
        _print_tasks(passes[-1], f"pass {len(passes)}")
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child("setup", args, workdir, deadline, threads)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "headline_s": statistics.median(p["headline_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, metrics


def traced(args, workdir: Path, deadline: float, threads: int) -> tuple:
    """One untraced pass, one traced pass and the BLAS thread baseline."""
    plain = _child("pass", args, workdir, deadline, threads)
    _print_tasks(plain, "untraced")
    run = _child("trace", args, workdir, deadline, threads)
    _print_tasks(run, "traced  ")
    if run["absent"]:
        print(f"  absent from the program, not traced: {', '.join(run['absent'])}")
    threaded = _child("probe", args, workdir, deadline, threads)
    single = _child("probe", args, workdir, deadline, 1)
    metrics = dict(run["layers"])
    metrics["trace.wall_s"] = run["wall_s"]
    metrics["trace.overhead_s"] = run["wall_s"] - plain["wall_s"]
    for key in ("svd_2048", "dtheta_2048"):
        metrics[f"lapack.thread_speedup.{key}"] = single[f"{key}_s"] / threaded[f"{key}_s"]
        print(f"  probe {key}: {threaded[f'{key}_s']:.4f} s with {threads} BLAS threads, "
              f"{single[f'{key}_s']:.4f} s with 1")
    metrics["lapack.thread_speedup"] = (
        (single["svd_2048_s"] + single["dtheta_2048_s"])
        / (threaded["svd_2048_s"] + threaded["dtheta_2048_s"]))
    return [plain, run], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sho-spectra benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sho_spectra" / "__init__.py").is_file():
        print(f"error: no sho_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    threads = len(os.sched_getaffinity(0))
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = WORKDIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.trace:
            passes, values = traced(args, workdir, deadline, threads)
        else:
            passes, values = measure(args, workdir, deadline, threads)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = _counts(passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es), BLAS threads {threads}, input redraws {passes[0]['redraws']}")
    print(f"machine {json.dumps(passes[0]['machine'], sort_keys=True)}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<48} {values[m['name']]:.6g} {m['unit']}")
    print(f"  {'error_rate':<48} {failed / attempted:.6g} 1 ({failed} of {attempted} tasks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
