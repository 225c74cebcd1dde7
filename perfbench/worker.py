"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --mode pass --workload hankel --seed 1 --workdir DIR

Modes:
  setup  import sho_spectra and build the seeded inputs, nothing else;
  pass   setup, then run every task of the workload once under the timer,
         then check every output outside the timed region;
  trace  as pass, with the per-layer tracer installed around the tasks;
  probe  time the N = 2048 one-jump SVD and the N = 2048 dtheta rung once
         (the caller picks the BLAS thread count through the environment).

The last line of standard output is one JSON object with the results.
"""

import time

_T0 = time.perf_counter()   # setup_s counts from here: imports plus input build

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import traceback


def _blas_facts() -> dict:
    """Vendor, version and thread count of each BLAS loaded in this process."""
    import numpy as np
    import scipy

    libs = []
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                libs.append({"library": os.path.basename(path),
                             "config": get_config().decode(), "threads": get_threads()})
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_vendor": blas.get("name"),
            "blas_version": blas.get("version"), "blas_libraries": libs,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def _probe(seed: int) -> dict:
    import numpy as np
    from sho_spectra import dtheta as dth, sho
    from sho_spectra.scattering1d import LatticeModel

    rng = np.random.default_rng(seed)
    T = sho.assemble_sho_circle(sho.sawtooth_symbol([(0.0, rng.uniform(0.6, 1.4))]), 2048)
    pair = dth.BoxPair(2048, LatticeModel.single_site(2.0))
    theta = dth.StepFunction(((0.0, 1.0),))
    t0 = time.perf_counter()
    T.eigenvalues("svd")
    t1 = time.perf_counter()
    D, _ = dth.dtheta_matrix(pair, theta)
    np.linalg.eigvalsh(D)
    t2 = time.perf_counter()
    return {"svd_2048_s": t1 - t0, "dtheta_2048_s": t2 - t1, "machine": _blas_facts()}


def _run_pass(workload: str, seed: int, workdir: str, trace: bool) -> dict:
    from workloads import build

    inputs, tasks = build(workload, seed, workdir)
    setup_s = time.perf_counter() - _T0
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}")
        tracer.install()
    results = []
    wall0 = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            out, error = task.run(), None
        except Exception:       # a failing task counts in error_rate; the rest still run
            out, error = None, traceback.format_exc(limit=3)
        results.append((task, time.perf_counter() - t0, out, error))
    wall_s = time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    report = []
    for task, seconds, out, error in results:
        problems = [error] if error else []
        if not error:
            try:
                problems = task.check(out)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        report.append({"name": task.name, "seconds": seconds, "headline": task.headline,
                       "problems": problems})
    payload = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
               "headline_s": sum(r["seconds"] for r in report if r["headline"]),
               "tasks": report, "redraws": inputs.redraws, "machine": _blas_facts()}
    if tracer is not None:
        payload["layers"] = tracer.metrics(wall_s)
        payload["absent"] = tracer.absent
        tracer.write(os.path.join(os.path.dirname(os.path.abspath(workdir)),
                                  f"spans-{workload}-seed{seed}.json"))
    return payload


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "pass", "trace", "probe"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    if args.mode == "probe":
        payload = _probe(args.seed)
    elif args.mode == "setup":
        from workloads import build

        inputs, _ = build(args.workload, args.seed, args.workdir)
        payload = {"setup_s": time.perf_counter() - _T0, "redraws": inputs.redraws}
    else:
        payload = _run_pass(args.workload, args.seed, args.workdir, args.mode == "trace")
    sys.stdout.flush()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
