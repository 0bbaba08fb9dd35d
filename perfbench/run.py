"""padlab benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload border-tinyvgg-pc --seed 0 --seconds 35 --trace 0

Run from the root of a padlab checkout; the code measured is the checkout's
`src/padlab`.  With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are
reported, as times normalised by the calibration kernel (see calib.py); with
``--trace 1`` the per-layer ones, from a run that alternates untraced and
traced repetitions.  Human-readable lines come first; the last
line of stdout is the JSON result.  Scratch files go to ``.perfbench/``.
"""

import os
import time

# The BLAS pool is pinned before numpy loads.  One thread stays at or under
# nproc on any machine, and on a 2-core box two spinning OpenBLAS workers lose
# about 4x throughput whenever another process wants a core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_TIMEOUT_S = 120
# The first repetition in a process runs 5-25% slower than later ones, so a
# median needs at least three: with two it is their mean.
MIN_REPS = 3
MIN_UNITS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def bootstrap():
    """Put the checkout's src/ first on sys.path, or exit non-zero."""
    if not (SRC / "padlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'padlab'} not found; run from a padlab checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import padlab
    if not Path(padlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported padlab from {padlab.__file__}, not {SRC}")


def machine() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS)}


def probe(args, kind) -> tuple[float, float]:
    """Seconds from spawning a fresh process to its first training step (or
    to the start of the suite): wall, and normalised by kernel `kind`."""
    from perfbench import calib
    before = calib.kernel_s(kind)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {first!r}")
    return ready, calib.normalized(ready, before, calib.kernel_s(kind))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def run_reps(w, tally, args, run_dir, tracer):
    """Repeat the workload until --seconds have passed and MIN_REPS have run,
    alternating untraced and traced repetitions, starting untraced.  Returns
    the untraced and the traced repetitions and the wrap targets that could
    not be found.
    """
    from perfbench import layers
    untraced, traced = [], []
    missing = []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(untraced) + len(traced) < MIN_REPS):
        trace_this = len(untraced) > len(traced)
        try:
            if trace_this:
                missing = layers.install(tracer)
                try:
                    with tracer.span("bench.rep"):
                        rep = w.rep(tally, run_dir)
                finally:
                    tracer.uninstall()
            else:
                rep = w.rep(tally, run_dir)
        except Exception:
            traceback.print_exc()
            tally.fail("repetition raised")
            break
        reps = traced if trace_this else untraced
        first = (untraced + traced)[0] if untraced or traced else rep
        tally.check(f"outputs repeat across repetitions {rep.outputs}",
                    rep.outputs == first.outputs)
        reps.append(rep)
    return untraced, traced, missing


def timed_units(w, tally, seconds):
    """Run cycles of one primary unit and `w.secondary_repeats` secondary
    units for `seconds` (and at least MIN_UNITS of each).  Each unit is
    bracketed by the calibration kernel that `w.calibration` names for it;
    consecutive units of the same kind share the kernel timing between them.
    Returns {metric: [(wall s, normalised s)]}.
    """
    from perfbench import calib
    units = {"primary_s": w.primary_unit, "secondary_s": w.secondary_unit}
    cycle = ["primary_s"] + ["secondary_s"] * w.secondary_repeats
    times = {name: [] for name in units}
    first = {}
    last = {}  # kernel timings taken since the previous unit ended
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or min(map(len, times.values())) < MIN_UNITS):
        for name in cycle:
            kind = w.calibration[name]
            before = last[kind] if kind in last else calib.kernel_s(kind)
            try:
                elapsed, outputs = units[name](tally)
            except Exception:
                traceback.print_exc()
                tally.fail(f"{name} unit raised")
                return times
            after = calib.kernel_s(kind)
            last = {kind: after}
            times[name].append((elapsed, calib.normalized(elapsed, before, after)))
            tally.check(f"{name} unit outputs repeat {outputs}",
                        outputs == first.setdefault(name, outputs))
    return times


def end_to_end(w, args, tally, run_dir):
    """One untimed repetition checks the whole pipeline and warms up; peak
    RSS is read after it, as one invocation pays it.  Then the setup probes
    and the timed units."""
    w.prepare()
    try:
        rep = w.rep(tally, run_dir)
    except Exception:
        traceback.print_exc()
        tally.fail("repetition raised")
        return {}, {}, []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = {"setup_s": [probe(args, w.calibration["setup_s"])
                         for _ in range(w.setup_probes)]}
    times.update(timed_units(w, tally, args.seconds))
    metrics = {name: median([norm for _, norm in pairs]) for name, pairs in times.items()}
    metrics["peak_rss_mb"] = peak_rss_mb
    samples = {name: [list(pair) for pair in pairs] for name, pairs in times.items()}
    return metrics, samples, [rep]


def per_layer(w, args, tally, run_dir, out_dir):
    from perfbench import layers, spans
    tracer = spans.Tracer()
    missing = layers.install(tracer)
    try:
        with tracer.span("bench.setup"):
            w.prepare()
    finally:
        tracer.uninstall()
    untraced, traced, rep_missing = run_reps(w, tally, args, run_dir, tracer)
    if not traced:
        return {}, {}, untraced
    for what, ok in layers.coverage_checks(
            tracer.spans, missing + rep_missing, w.expected_counts(), w.model):
        tally.check(f"trace coverage: {what}", ok)
    macs = layers.conv_macs(w.model) if w.model is not None else None
    metrics = layers.layer_metrics(tracer.spans, macs)
    metrics["checkpoint.bytes"] = median([r.checkpoint_bytes for r in traced])
    plain = median([r.primary_s for r in untraced])
    metrics["trace.overhead_pct"] = 100.0 * (
        median([r.primary_s for r in traced]) / plain - 1.0)
    spans.write_spans(tracer.spans,
                      out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    samples = {"untraced_primary_s": [r.primary_s for r in untraced],
               "traced_primary_s": [r.primary_s for r in traced]}
    return metrics, samples, untraced + traced


def user_view(workload, metrics, tally) -> dict:
    """The end-to-end figures under the names a padlab user knows, at the
    calibration kernel's reference speed."""
    from perfbench import workloads
    view = {}
    if workload == "analysis":
        view["gradcheck_s"] = (metrics["primary_s"], "s")
        view["tables_s"] = (metrics["secondary_s"], "s")
    else:
        view["train_img_per_s"] = (workloads.TRAIN_CHUNK / metrics["primary_s"], "img/s")
        view["eval_img_per_s"] = (workloads.EVAL_CHUNK / metrics["secondary_s"], "img/s")
    view["setup_s"] = (metrics["setup_s"], "s")
    view["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    view["error_rate"] = (tally.failed / max(tally.attempted, 1), "ratio")
    return view


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    from perfbench import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        w.probe_setup()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = ROOT / ".perfbench"
    run_dir = out_dir / f"runs-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    tally = workloads.Tally()
    try:
        if args.trace:
            metrics, samples, reps = per_layer(w, args, tally, run_dir, out_dir)
        else:
            metrics, samples, reps = end_to_end(w, args, tally, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    info = machine()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} repetitions={len(reps)}")
    print(f"machine {json.dumps(info)}")
    if not args.trace:
        print(f"primary   = {w.primary}")
        print(f"secondary = {w.secondary}")
        if metrics:
            for name, (value, unit) in user_view(args.workload, metrics, tally).items():
                print(f"  {name:<16} {value:12.4f} {unit}")
        for name, pairs in samples.items():
            print(f"  {name:<16} {median([wall for wall, _ in pairs]):12.4f} s wall "
                  f"(median of {len(pairs)})")
    else:
        for name in sorted(metrics):
            print(f"  {name:<40} {metrics[name]:14.4f}")
    outputs = reps[0].outputs if reps else {}
    print(f"outputs {json.dumps(outputs, sort_keys=True)}")
    for what in tally.failures:
        print(f"FAILED {what}")

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        tally.fail(f"metrics not produced: {missing}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }
    record = dict(result, machine=info, samples=samples, outputs=outputs,
                  failures=tally.failures, workload=args.workload, seed=args.seed)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
