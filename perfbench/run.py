"""graphquant benchmark: one workload, one seed, one run.

Run from the root of a graphquant checkout:

    python3 perfbench/run.py --workload sis-campaign --seed 7 --seconds 35 --trace 0

The benchmark imports graphquant from `src/` of the current directory,
builds the workload's inputs from the seed, runs the workload's operation
back to back for about `--seconds` seconds, checks every output, and prints
`perfbench ...` lines followed, as the last line, by one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end metrics; with `--trace 1` they are the per-layer
metrics of a traced run. See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3     # input builds per run; setup_s uses their median
OVERRUN = 1.1         # start no operation expected to end after OVERRUN * --seconds
TAIL_BEYOND = 10      # the tail percentile has at least this many calls beyond it
WORKLOADS = ("sis-campaign", "adjust-campaign", "oneshot-quantify")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's self-test")
    p.add_argument("--reference", type=Path, default=BENCH_DIR / "reference",
                   help="directory of reference outputs")
    p.add_argument("--write-reference", type=Path, metavar="DIR",
                   help="write this seed's reference outputs to DIR and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_graphquant(root: Path):
    """Import graphquant from `src/` under the checkout root, and only from there."""
    src = root / "src"
    if not (src / "graphquant" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no graphquant sources under {src}")
    sys.path.insert(0, str(src))
    import graphquant
    import graphquant.cli  # noqa: F401
    if Path(graphquant.__file__).resolve().parent != (src / "graphquant").resolve():
        raise SystemExit(f"perfbench: graphquant was imported from {graphquant.__file__}")


def blas_info() -> dict:
    """The BLAS numpy uses, and its thread count where OpenBLAS reports it."""
    import ctypes

    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(workload, args) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    blas = blas_info()
    return {"workload": args.workload, "seed": args.seed, "size": args.size,
            "default_seed": workload.DEFAULT_SEED, "held_out_seed": workload.HELD_OUT_SEED,
            "nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads_le_nproc": blas["threads"] is None or blas["threads"] <= nproc}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND values beyond it; the maximum (percentile 100) when there
    are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def say(kind: str, payload) -> None:
    print(f"perfbench {kind} {json.dumps(payload, sort_keys=True)}", flush=True)


def run(args) -> int:
    root = Path.cwd()
    import_graphquant(root)
    import_s = time.perf_counter() - PROCESS_START

    import tracing
    import workloads

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        wl = workloads.make(args.workload, args.seed, args.size, workdir)
        env = environment(workloads, args)
        say("env", env)
        if args.write_reference:
            args.write_reference.mkdir(parents=True, exist_ok=True)
            wl.build_inputs()
            say("reference-written", str(wl.write_reference(args.write_reference)))
            return 0

        builds = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.build_inputs()
            builds.append(time.perf_counter() - t)
        t = time.perf_counter()
        wl.warm_up()
        warm_s = time.perf_counter() - t
        setup_s = import_s + statistics.median(builds) + warm_s

        reference = wl.load_reference(args.reference)
        ref_md5, ref_outputs = reference if reference else (None, None)

        tracer = tracing.Tracer()
        results, traced_flags = [], []
        min_ops = max(wl.min_ops, 2 if args.trace else 1)
        begin = time.perf_counter()
        while True:
            i = len(results)
            traced = bool(args.trace) and i % 2 == 1
            if traced:
                with tracer.installed(), tracer.span(tracing.OP_SPAN, "bench"):
                    result = wl.run_op(i)
            else:
                result = wl.run_op(i)
            results.append(result)
            traced_flags.append(traced)
            elapsed = time.perf_counter() - begin
            typical = statistics.median(r.wall_s for r in results)
            if len(results) >= min_ops and elapsed + typical > OVERRUN * args.seconds:
                break

        attempted = sum(r.attempted for r in results)
        failed = sum(wl.failures(r, ref_outputs) for r in results)
        md5 = wl.results_md5(results)
        say("check", {"attempted": attempted, "failed": failed,
                      "failed_frac": {"value": failed / attempted, "unit": "ratio",
                                      "base": attempted},
                      "results_md5": md5, "reference_md5": ref_md5,
                      "byte_identical": md5 == ref_md5 if ref_md5 else None,
                      "reference_compared": ref_outputs is not None,
                      "tolerance_abs": workloads.ATOL,
                      "operations": len(results),
                      "measured_s": round(time.perf_counter() - begin, 3)})

        if args.trace:
            metrics = trace_metrics(tracing, tracer, results, traced_flags, env, out_dir)
        else:
            metrics = end_to_end(wl, results, setup_s)
        for name, (value, unit) in metrics.items():
            print(f"perfbench metric {name} {value!r} {unit}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(wl, results, setup_s) -> dict:
    call_ms = wl.call_ms(results)
    tail_ms, tail_pct = tail(call_ms)
    say("latency", {"calls": len(call_ms), "tail_percentile": tail_pct, "call": wl.call})
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"campaign_s": (wl.campaign_s(results), "s"),
            "quantify_p50_ms": (statistics.median(call_ms), "ms"),
            "quantify_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
            "setup_s": (setup_s, "s")}


def trace_metrics(tracing, tracer, results, traced_flags, env, out_dir) -> dict:
    metrics, unmeasured = tracing.layer_metrics(tracer)
    traced = [r.wall_s for r, t in zip(results, traced_flags) if t]
    untraced = [r.wall_s for r, t in zip(results, traced_flags) if not t]
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    shares = tracing.layer_shares(tracer)
    trace_file = out_dir / f"trace-{env['workload']}-{env['size']}-seed{env['seed']}.json"
    trace_file.write_text(json.dumps({
        "env": env, "layer_shares": shares, "unmeasured": tracer.unmeasured + unmeasured,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": tracing.spans_json(tracer)}))
    say("trace", {"traced_ops": len(traced), "untraced_ops": len(untraced),
                  "traced_median_s": statistics.median(traced),
                  "untraced_median_s": statistics.median(untraced),
                  "layer_shares": {k: round(v, 4) for k, v in shares.items()},
                  "unmeasured_boundaries": tracer.unmeasured,
                  "unmeasured_metrics": unmeasured, "spans": len(tracer.spans),
                  "file": str(trace_file.relative_to(Path.cwd()))})
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - report and fail without a result line
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
