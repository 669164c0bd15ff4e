"""qmlab benchmark: wall time from inputs to verdicts, per workload.

    python3 bench/run.py --workload report_suite --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; qmlab is imported from ``src/``.
Workloads (see ``workloads.py``): report_suite, roundtrip, egorov.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median pass
time), ``setup_s`` (median over fresh processes of imports, input generation
and config parsing) and ``peak_rss_mb`` (peak resident memory of the process
through its first pass); ``fail_ratio`` is printed beside them
and carried by ``attempted``/``failed``.  With ``--trace 1`` it runs one
untraced pass, then traced passes, and reports the per-layer metrics of
``tracer.py``; spans are written to ``bench/results/``.  The last stdout line
is the JSON result.

``--record-reference`` runs every input variant once (of ``--workload`` only,
if given) and rewrites ``reference.json``; do that only at a commit whose
outputs are the reference.
"""

import os
import sys
import time

_T_START = time.perf_counter()

# Cap BLAS/OpenMP threads before NumPy loads; QML_THREADS is read by qmlab and
# discarded, so it is left unset.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
_QML_THREADS_GIVEN = os.environ.pop("QML_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
SETUP_PROBES = 3


def _import_library():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "qmlab", "__init__.py")):
        sys.exit(f"bench: no qmlab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import qmlab
    if os.path.dirname(os.path.abspath(qmlab.__file__)) != os.path.join(SRC, "qmlab"):
        sys.exit(f"bench: qmlab imported from {qmlab.__file__}, not from {SRC}")
    import workloads
    return workloads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas_threads": BLAS_THREADS,
        "QML_THREADS": "unset" if _QML_THREADS_GIVEN is None else
                       f"unset (was {_QML_THREADS_GIVEN!r})",
    }


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes: interpreter start to parsed inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _more_passes(wl, experiments, reference, results, deadline, tracer=None):
    """Append passes while the next one is due to end by the deadline.

    A traced run makes at least one traced pass after its untraced first one.
    """
    while ((tracer is not None and len(results) == 1)
           or time.perf_counter() + results[-1].wall_s <= deadline):
        if tracer is not None:
            tracer.pass_id = len(results)
        results.append(wl.run_pass(experiments, reference, results[0]))


def record_reference(wl, only: str | None) -> None:
    ref = wl.load_reference() if only else {}
    for workload in (only,) if only else wl.WORKLOADS:
        for exp in wl.all_variants(workload, os.path.join(RESULTS, "reference")):
            print(f"recording {workload}: {exp.key}", flush=True)
            out = exp.judge(exp.execute())
            if out.problems:
                sys.exit(f"bench: {exp.key} fails its own checks: {out.problems}")
            ref[exp.key] = out.values
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("report_suite", "roundtrip", "egorov"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    wl = _import_library()
    if args.record_reference:
        record_reference(wl, args.workload)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    inputs = wl.choose_inputs(args.workload, args.seed)
    experiments = wl.build(args.workload, inputs, os.path.join(RESULTS, args.workload))
    if args.setup_probe:
        print(time.perf_counter() - _T_START)
        return 0

    setup_times = [] if args.trace else measure_setup(args)
    os.makedirs(RESULTS, exist_ok=True)
    reference = wl.load_reference()
    env = environment()

    deadline = time.perf_counter() + args.seconds
    results = [wl.run_pass(experiments, reference, None)]
    # Later passes can raise the peak only through allocator reuse, by an
    # amount that depends on how many passes fit, so it is read here.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        from tracer import PER_LAYER_METRICS, Tracer, median_metrics
        tracer = Tracer()
        tracer.install()
        try:
            _more_passes(wl, experiments, reference, results, deadline, tracer)
        finally:
            tracer.uninstall()
        traced = range(1, len(results))
        metrics = median_metrics([tracer.pass_metrics(p) for p in traced])
        metrics["tracer.overhead"] = (statistics.median(results[p].wall_s for p in traced)
                                      / results[0].wall_s)
        units = {k: v[0] for k, v in PER_LAYER_METRICS.items()}
        computed = {k for k, v in PER_LAYER_METRICS.items() if v[2]}
        tracer.dump(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed, "inputs": repr(inputs),
                     "env": env, "walls": [r.wall_s for r in results], "metrics": metrics})
    else:
        _more_passes(wl, experiments, reference, results, deadline)
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in results),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        computed = set()

    attempted = len(experiments) * len(results)
    failed = sum(len(r.failures) for r in results)

    print(f"workload {args.workload}, seed {args.seed}, inputs {inputs}, trace {args.trace}: "
          f"{len(results)} passes of {len(experiments)} experiments, closed loop, one client")
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    if not args.trace:
        print(f"pass walls (s): {' '.join(f'{r.wall_s:.3f}' for r in results)}; "
              f"setup probes (s): {' '.join(f'{t:.3f}' for t in setup_times)}")
        for exp in experiments:
            t = statistics.median(r.times[exp.key] for r in results)
            print(f"  median {t:8.3f} s  {exp.key}")
    for i, r in enumerate(results):
        for key, problems in r.failures.items():
            for p in problems:
                print(f"FAILED pass {i} {key}: {p}")
    for name, value in metrics.items():
        label = " (computed from array sizes)" if name in computed else ""
        print(f"  {name:32s} {value:>16.6g} {units[name]}{label}")
    print(f"  {'fail_ratio':32s} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
