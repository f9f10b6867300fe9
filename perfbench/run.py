#!/usr/bin/env python3
"""Benchmark of viscofem: time to solution, set-up, march, step latency
and memory on three workloads, and a traced run for per-layer numbers.

Run from the root of the repository:

    python3 perfbench/run.py --workload relax --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

A run repeats the workload, in this one process, until the next
repetition would end after ``--seconds`` (at least three repetitions,
five when traced), and checks every repetition's outputs. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics and the tracing overhead, and writes the spans to
``.perfbench_out/``. ``--workload all`` runs each
workload in a fresh child process and prints every metric of every
workload. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("manufactured", "relax", "seal")
MIN_REPS = 3
# BLAS and OpenMP pools are pinned to one thread: the box has two cores,
# and the package itself is single-process
THREAD_PINS = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
# upper bound on one child run of --workload all
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
        "commit": git_commit(),
    }


def repeat(run_rep, seconds, min_reps):
    """Call ``run_rep(i)`` until the next call would likely end after
    ``seconds``; at least ``min_reps`` calls."""
    start = perf_counter()
    reps, walls = [], []
    while True:
        tic = perf_counter()
        reps.append(run_rep(len(reps)))
        walls.append(perf_counter() - tic)
        elapsed = perf_counter() - start
        if len(reps) >= min_reps and elapsed + statistics.median(walls) > seconds:
            return reps


def one_rep(workloads, name, case, reference, tracer=None):
    # free the previous repetition's reference cycles before this one starts
    gc.collect()
    rep = workloads.Rep(tracer)
    _, run = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as tmp:
        try:
            run(case, rep, Path(tmp), reference)
        except Exception:
            traceback.print_exc()
            rep.failures.append("raised " + traceback.format_exc().splitlines()[-1])
    for failure in rep.failures:
        print(f"gate failed: {failure}", file=sys.stderr)
    return rep


def end_to_end(reps, rss_mb):
    """The six end-to-end metrics over the repetitions that completed,
    with a note on their samples. Times are scaled by each repetition's
    ``speed_scale`` to seconds of the reference host in its fast state;
    the note gives the measured (unscaled) figure."""
    done = [r for r in reps if "post" in r.phases]
    n = len(done)
    scales = [r.speed_scale for r in done]

    def phase_median(name):
        scaled = statistics.median(r.phases[name] * k for r, k in zip(done, scales))
        raw = statistics.median(r.phases[name] for r in done)
        return scaled, "s", f"median of {n} reps; measured {raw:.4g} s"

    def step_quantiles(factors):
        # each step's median over the repetitions: a step that is slow in
        # one repetition only, because the host was, does not reach the tail
        steps = [statistics.median(col) for col in
                 zip(*([s * k for s in r.steps] for r, k in zip(done, factors)))]
        return (1e3 * statistics.median(steps),
                1e3 * statistics.quantiles(steps, n=10, method="inclusive")[8])

    n_steps = len(done[0].steps)
    if any(len(r.steps) != n_steps for r in done):
        raise ValueError("repetitions ran different numbers of steps")
    p50, p90 = step_quantiles(scales)
    raw50, raw90 = step_quantiles([1.0] * n)
    step_note = f"{n_steps} steps, each the median of {n} reps"
    wall = statistics.median(r.wall * k for r, k in zip(done, scales))
    raw_wall = statistics.median(r.wall for r in done)
    return {
        "wall_s": (wall, "s", f"median of {n} reps; measured {raw_wall:.4g} s"),
        "setup_s": phase_median("setup"),
        "march_s": phase_median("march"),
        "step_ms_p50": (p50, "ms", f"{step_note}; measured {raw50:.4g} ms"),
        "step_ms_p90": (p90, "ms", f"{step_note}; measured {raw90:.4g} ms"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss after the first rep"),
    }


def per_layer(tracer, reps, runs):
    """Per-layer metrics: times are medians over the traced repetitions;
    counts must repeat exactly between them. ``runs`` holds each
    repetition's trace run id, None when it ran untraced."""
    import tracing

    ok = [(rep, run) for rep, run in zip(reps, runs) if "post" in rep.phases]
    traced = [(rep, run) for rep, run in ok if run is not None]
    per_run = [tracer.layer_metrics(run) for _, run in traced]
    out = {}
    for metric in per_run[0]:
        unit = tracing.LAYER_METRICS.get(metric, ("count",))[0]
        values = [m[metric] for m in per_run]
        if not tracing.is_exact(metric):
            out[metric] = (statistics.median(values), unit, f"median of {len(values)} traced reps")
            continue
        if len(set(values)) > 1:
            traced[-1][0].failures.append(f"count {metric} varies between runs: {values}")
        out[metric] = (values[0], unit, f"exact in {len(values)} traced reps")
    traced_wall = statistics.median(rep.wall for rep, _ in traced)
    base = statistics.median(rep.wall for rep, run in ok if run is None and rep is not reps[0])
    out["trace.overhead_pct"] = (
        100.0 * (traced_wall - base) / base, "%",
        f"traced wall {traced_wall:.4f} s vs untraced {base:.4f} s",
    )
    return out


def measure(args):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    case_type, _ = workloads.WORKLOADS[args.workload]
    case = case_type.for_seed(args.seed)
    print(f"case: {case}")
    OUT.mkdir(exist_ok=True)
    if not args.trace:
        rss = []

        def plain_rep(i):
            rep = one_rep(workloads, args.workload, case, reference)
            if i == 0:
                # what one fresh run of the scenario holds at its peak; later
                # repetitions only add allocator fragmentation
                rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            return rep

        reps = repeat(plain_rep, args.seconds, MIN_REPS)
        measured = reps
    else:
        import tracing

        tracer = tracing.Tracer()
        runs = []

        def traced_rep(i):
            # even repetitions run untraced; the first also warms up and is
            # left out of the overhead
            if i % 2 == 0:
                runs.append(None)
                return one_rep(workloads, args.workload, case, reference)
            tracer.run = i
            runs.append(i)
            tracer.install()
            try:
                return one_rep(workloads, args.workload, case, reference, tracer)
            finally:
                tracer.uninstall()

        reps = repeat(traced_rep, args.seconds, 5)
        measured = [rep for rep, run in zip(reps, runs) if run is not None]
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(spans)
        print(f"spans: {spans.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    print("rep walls (s): " + " ".join(f"{r.wall:.3f}" for r in reps))
    if not any("post" in r.phases for r in measured):
        print("error: no measured repetition completed", file=sys.stderr)
        return None
    metrics = per_layer(tracer, reps, runs) if args.trace else end_to_end(reps, rss[0])
    failed = sum(1 for r in reps if r.failures)
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def print_table(title, result):
    print(f"{title}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"  {name:30s} {value:>16.6g} {unit:6s} {note}")


def as_json(result):
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_all(args):
    """Each workload in a fresh child process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)
    if not (ROOT / "src" / "viscofem" / "__init__.py").is_file():
        print(f"error: no viscofem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print("record: " + json.dumps(run_record(args)))
    result = measure(args)
    if result is None:
        return 1
    print_table(f"{args.workload} (seed {args.seed}, trace {args.trace})", result)
    print(as_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
