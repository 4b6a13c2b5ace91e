#!/usr/bin/env python3
"""expalign benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run it from the root of a checkout; it imports expalign from ``src/``. The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, times in units of a reference
kernel timed next to them (see end_to_end); with ``--trace 1`` the per-layer
metrics of a traced run, in ms as measured, whose spans go to
``perfbench/out/``. The lines before it record the environment and a report
with the times as measured, sample counts, tail percentiles, the error rate
and any failed checks. ``--workload all`` runs every workload
in its own process and prints a table.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("train-desk", "train-wide", "oracle")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "EXPALIGN_THREADS")

END_TO_END = {  # name -> unit
    "step_ms_p50": "ms", "step_ms_tail": "ms", "seed_s": "s", "final_accuracy": "fraction",
    "verify_s_p50": "s", "verify_s_tail": "s", "fd_forwards_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB",
}
SPAN_LAYERS = (
    "eah.head.p3", "eah.head.p4", "eah.head.p5",
    "gradients.objective_with_gradients", "gradients.forward", "gradients.backward",
    "gradients.coerce_inputs", "gradients.fused_maps", "gaco.gaco_forward",
    "semantic.pooled_logits", "semantic.infonce_multi_positive",
    "fusion.fuse_down", "fusion.fuse_up", "fusion.fuse_down_adjoint", "fusion.fuse_up_adjoint",
    "gradients.objective_fd_gradients",
    "verify.group.fusion", "verify.group.eah", "verify.group.sem", "verify.group.gaco",
    "verify.group.gibbs", "verify.group.mil", "verify.group.grad",
    "variational.minimize_free_energy_numeric",
    "synth.generate_scene", "synth.localization_accuracy",
)
COUNT_LAYERS = {  # name -> unit
    "gradients.fd.forwards": "count", "semantic.topk.useful_ratio": "ratio", "gaco.regions": "count",
    "verify.checks.failed": "count", "variational.minimize_free_energy_numeric.iters": "count",
    "trace.overhead_pct": "%",
}


def cap_threads():
    """Cap BLAS and verify-pool threads at the cores this process may use.

    Runs before numpy is imported, and only changes this process and its children."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            n = 0
        os.environ[var] = str(nproc if n <= 0 else min(n, nproc))
    return nproc


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import expalign
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import expalign from {src}: {exc}")
    if Path(expalign.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: expalign imported from {expalign.__file__}, not from {src}")


def environment(nproc):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
        "nproc": nproc, "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def tail(samples):
    """The highest of p50, p75, p90, p99 and p99.9 with at least ten samples
    beyond it, by nearest rank: (value, percentile, sample count).

    With fewer than twenty samples no percentile qualifies and the maximum is given."""
    xs = sorted(samples)
    n = len(xs)
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return xs[rank - 1], pct, n
    return xs[-1], 100.0, n


def launch_s(args):
    """Seconds from launching a fresh interpreter with ``args`` until it prints the time."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) - start


def setup_probe(workload, seed):
    """Seconds from launching a fresh interpreter until it has imported expalign
    and built the workload's inputs, and the seconds of a reference launch made
    just before it that only imports numpy.

    Launch times drift by up to 1.8x over minutes on a shared host, and the
    reference kernel does not follow them; their ratio to the reference launch
    does (over twelve blocks of nine launches: spread 0.03, as measured 0.32).
    An untimed set-up launch goes first, so that neither timed launch is the
    one that reads files the host has dropped from its cache since the last."""
    probe = [str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    launch_s(probe)
    reference = launch_s(["-c", "import time, numpy; print(time.monotonic())"])
    return launch_s(probe), reference


def time_metrics(samples):
    """The timing metrics of one set of samples, and the tail percentiles used."""
    step_tail, step_pct, step_n = tail(samples["step_ms"])
    verify_tail, verify_pct, verify_n = tail(samples["verify_s"])
    values = {
        "step_ms_p50": statistics.median(samples["step_ms"]),
        "step_ms_tail": step_tail,
        "seed_s": statistics.fmean(samples["seed_s"]),
        "verify_s_p50": statistics.median(samples["verify_s"]),
        "verify_s_tail": verify_tail,
        "fd_forwards_per_s": statistics.median(samples["fd_forwards_per_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
    }
    tails = {"step_ms_tail": {"percentile": step_pct, "samples": step_n},
             "verify_s_tail": {"percentile": verify_pct, "samples": verify_n}}
    return values, tails


def end_to_end(run):
    """End-to-end metrics. Times come from samples each divided by the reference
    kernel's time measured next to it (rates are multiplied): a time of 1 ms
    means as long as that kernel, at whatever speed the host ran it. The shared
    host's speed drifts by up to 1.7x over seconds to minutes; the ratio moves
    by about a tenth of that. Set-up time is scaled by a reference launch
    instead (see setup_probe). The report keeps the times as measured."""
    values, tails = time_metrics(run.scaled)
    measured, _ = time_metrics(run.samples)
    values["final_accuracy"] = run.final_accuracy
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {"measured": measured, "reference_ms": statistics.median(run.samples["reference_ms"]),
              **tails, "fd_forwards_per_s": {"samples": len(run.samples["fd_forwards_per_s"])}}
    if "directional_error" in run.samples:
        errs = run.samples["directional_error"]
        detail["directional_error"] = {"median": statistics.median(errs), "max": max(errs)}
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}, detail


def per_layer(run):
    from tracing import kind_calls, kind_total, span_ms
    tr = run.tracer
    durations = span_ms(tr)
    values = {}
    for name in SPAN_LAYERS:
        if name not in durations:
            raise RuntimeError(f"traced run made no call to {name}")
        values[f"{name}.ms"] = (durations[name], "ms")
    recorded = lambda name: [v for n, v, _ in tr.counts() if n == name]
    counts = {
        "gradients.fd.forwards": int(statistics.median(recorded("gradients.fd.forwards"))),
        "semantic.topk.useful_ratio": kind_total(tr, "topk.k", "step") / kind_total(tr, "topk.cells", "step"),
        "gaco.regions": kind_total(tr, "gaco.regions", "step")
                        / kind_calls(tr, "gradients.objective_with_gradients", "step"),
        "verify.checks.failed": int(sum(recorded("verify.checks.failed"))),
        "variational.minimize_free_energy_numeric.iters": statistics.median(
            recorded("variational.minimize_free_energy_numeric.iters")),
        "trace.overhead_pct": 100.0 * (statistics.median(run.traced_steps)
                                       / statistics.median(run.untraced_steps) - 1.0),
    }
    values.update({k: (v, COUNT_LAYERS[k]) for k, v in counts.items()})
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_workload(args, nproc):
    import jobs
    from tracing import Tracer

    env = environment(nproc)
    print(json.dumps({"env": env}), flush=True)
    if args.trace:
        run = jobs.Run(tracer=Tracer())
    else:
        run = jobs.Run(setup_probe=lambda: setup_probe(args.workload, args.seed))
    if run.tracer is not None:
        run.tracer.install()
    try:
        with run.op("setup:0"):
            inputs = jobs.build_inputs(args.workload, args.seed)
        if args.workload == "oracle":
            jobs.oracle_workload(run, inputs, args.seed, args.seconds)
        else:
            jobs.train_workload(run, args.workload, inputs, args.seed, args.seconds)
    finally:
        if run.tracer is not None:
            run.tracer.remove()

    if args.trace:
        metrics, detail = per_layer(run), {}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        run.tracer.write(path, env)
        detail["spans"] = {"file": str(path.relative_to(ROOT)), "count": run.tracer.span_count()}
    else:
        metrics, detail = end_to_end(run)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "error_rate": run.failed / run.attempted,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "samples": {k: len(v) for k, v in run.samples.items()},
              "detail": detail, "failed_checks": run.problems}
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)


def run_all(args):
    """Every workload in its own process, then one table."""
    results, status = {}, 0
    for workload in WORKLOADS:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            print(f"{workload}: exited with {out.returncode}")
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
        report = next(json.loads(l)["report"] for l in lines if l.startswith('{"report"'))
        results[workload]["metrics"]["error_rate"] = {"value": report["error_rate"], "unit": "fraction"}
    names = sorted({m for r in results.values() for m in r["metrics"]}, key=lambda m: (m.count("."), m))
    print(f"{'metric':52s} {'unit':>9s} " + " ".join(f"{w:>14s}" for w in results))
    for m in names:
        cells = []
        for r in results.values():
            v = r["metrics"].get(m)
            cells.append(f"{v['value']:14.6g}" if v else f"{'-':>14s}")
        unit = next(r["metrics"][m]["unit"] for r in results.values() if m in r["metrics"])
        print(f"{m:52s} {unit:>9s} " + " ".join(cells))
    for w, r in results.items():
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        status = status or int(not r["correct"])
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed, at least 0")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be at least 0")

    nproc = cap_threads()
    import_library()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        import jobs
        jobs.build_inputs(args.workload, args.seed)
        print(time.monotonic())
        return 0
    run_workload(args, nproc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
