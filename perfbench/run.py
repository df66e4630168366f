"""Benchmark of the rcg toolkit: one workload per run, metrics as JSON.

    python3 perfbench/run.py --workload explicit|verify|exact --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The seed only shuffles the op order.  With
`--trace 0` the ops run as a user runs them (`python -m rcg.cli` children
for explicit and verify, library calls for exact) and the last line of
stdout carries the end-to-end metrics.  With `--trace 1` the same ops run in
this process, once untraced and once with spans around every call into the
layers, and the last line carries the per-layer metrics.  The line before
it is a record of the environment, sample counts and every failure.  See
perfbench/README.md for why each workload and metric was chosen.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracing import COUNTERS, LAYERS, TIMED, Tracer

ROOT = workloads.ROOT
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
BLAS_THREADS = 1
IMPORT_SAMPLES = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


def hygiene() -> None:
    """One client, one BLAS thread, no budget override, src on the path.

    The matrices here have at most a few thousand rows, too small for a
    second BLAS thread to pay off: with two, `rcg verify --q 4 --g 1` took
    0.32 s instead of 0.25 s on a 2-vCPU VM, most of it in starting OpenBLAS.
    """
    os.environ.pop("CORONA_VERTEX_BUDGET", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))


def setup(name, workdir):
    """All a run does before its first op: environment, imports, ops, references."""
    hygiene()
    if not (ROOT / "src" / "rcg" / "cli.py").is_file():
        raise SystemExit(f"no rcg sources under {ROOT / 'src'}; run from a checkout")
    workload = workloads.WORKLOADS[name](workdir)
    workload.prepare()
    return workload


def fresh_setup_seconds(workload) -> float:
    """`setup` in a fresh interpreter, where nothing is imported or cached yet."""
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
        "import run; t = run.time.monotonic(); "
        f"run.setup({workload.name!r}, run.Path({str(workload.workdir)!r})); "
        "print(run.time.monotonic() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def import_seconds() -> list[float]:
    """A fresh interpreter's `import rcg.cli`, paid by every CLI op."""
    code = "import time; t = time.perf_counter(); import rcg.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=workloads.child_env(),
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def pass_count(workload, seconds, least) -> int:
    """Whole passes that fit in `seconds`, and at least `least`.

    The count never comes from a clock, so every run of a workload measures
    the same multiset of ops whatever the seed or the machine's speed.
    """
    return max(least, int(seconds // workload.pass_s))


def run_passes(workload, rng, passes, in_process, tracer=None, first_id=0):
    """Whole passes over the ops, each in a fresh shuffle of the seeded `rng`."""
    outcomes = []
    for _ in range(passes):
        order = list(workload.ops)
        rng.shuffle(order)
        for op in order:
            op_id = first_id + len(outcomes)
            outcomes.append((op, workload.run(op, in_process, tracer, op_id)))
    return outcomes


def latency_summary(outcomes) -> dict:
    """Median and the highest percentile with >= 10 samples beyond it.

    Below 21 samples no percentile above the median has ten samples beyond
    it, so the tail falls back to the median.  Above, the tail is the
    Harrell-Davis estimate at that percentile; the record also gives the
    single order statistic there (`tail_sample_s`).
    """
    times = sorted(o.seconds for _, o in outcomes)
    n = len(times)
    if n > 2 * TAIL_BEYOND:
        percentile = 100.0 * (n - TAIL_BEYOND) / n
        tail, sample = harrell_davis(times, percentile / 100), times[n - TAIL_BEYOND - 1]
    else:
        percentile = 50.0
        tail = sample = statistics.median(times)
    return {
        "samples": n,
        "p50_s": statistics.median(times),
        "tail_s": tail,
        "tail_sample_s": sample,
        "tail_percentile": percentile,
        "ops_per_s": n / sum(times),
    }


def harrell_davis(sorted_times, p) -> float:
    """Harrell-Davis estimate of the p-quantile of `sorted_times`.

    A mean of every order statistic, weighted by the Beta((n+1)p, (n+1)(1-p))
    probability of its rank interval.  Where few ops are slow, as on verify,
    the single order statistic at the tail is one op's sample and carries
    that sample's share of the host's noise; over ten seeds its quartile
    spread was 0.24 of the median on verify, and the estimate's 0.06.
    """
    import numpy as np

    n = len(sorted_times)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    x = np.linspace(0.0, 1.0, 100_001)
    with np.errstate(divide="ignore"):  # log(0) at the ends, where the density is 0
        log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, x, cdf / cdf[-1]))
    return float(weights @ np.asarray(sorted_times))


def failure_record(outcomes) -> dict:
    """Failures by op and error; those not in KNOWN_DEFECTS are unknown."""
    failures = Counter()
    for op, outcome in outcomes:
        if outcome.failed:
            error = "wrong output" if outcome.wrong else outcome.error
            failures[(op.name, error)] += 1
    listed = []
    for (name, error), count in sorted(failures.items()):
        known_error, defect = workloads.KNOWN_DEFECTS.get(name, (None, None))
        listed.append({"op": name, "error": error, "count": count,
                       "known_defect": defect if error == known_error else None})
    return {
        "failed_ratio": sum(failures.values()) / len(outcomes),
        "unknown_failures": sum(f["count"] for f in listed if f["known_defect"] is None),
        "failures": listed,
    }


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload, args, setup_s):
    setup = [setup_s]
    passes = pass_count(workload, args.seconds, workload.min_passes)
    outcomes = run_passes(workload, random.Random(args.seed), passes, workload.in_process_only)
    setup += [fresh_setup_seconds(workload) for _ in range(SETUP_SAMPLES - 1)]
    summary = latency_summary(outcomes)
    if workload.in_process_only:
        import resource

        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = max(o.rss_kib for _, o in outcomes)
    failed = sum(o.failed for _, o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": summary["ops_per_s"],
        "op_p50_ms": summary["p50_s"] * 1e3,
        "op_tail_ms": summary["tail_s"] * 1e3,
        "peak_rss_mib": rss_kib / 1024,
        "ok_ratio": (len(outcomes) - failed) / len(outcomes),
    }
    record = {"passes": passes, "setup_samples_s": setup, **summary, **failure_record(outcomes)}
    return outcomes, metrics, record


def traced(workload, args):
    """Untraced and traced passes in this process, alternating; per-pass layer metrics.

    Half of `seconds` goes to each kind.  Alternating them spreads drift in
    the machine's speed evenly over both, so their rate difference is the
    tracing overhead.
    """
    import rcg.cli  # noqa: F401  imported before the first timed op, as in setup

    rng = random.Random(args.seed)
    passes = pass_count(workload, args.seconds / 2, 1)
    tracer = Tracer()
    plain, outcomes = [], []
    for _ in range(passes):
        plain += run_passes(workload, rng, 1, in_process=True)
        tracer.install()
        try:
            outcomes += run_passes(workload, rng, 1, True, tracer, len(outcomes))
        finally:
            tracer.uninstall()
    plain_rate = latency_summary(plain)["ops_per_s"]
    traced_rate = latency_summary(outcomes)["ops_per_s"]
    metrics = {name: value / passes for name, value in tracer.layer_metrics().items()}
    metrics["cli.import_s"] = statistics.median(import_seconds())
    metrics["cli.bytes_out"] = sum(o.bytes_out for _, o in outcomes) / passes
    metrics["cli.timeouts"] = sum(o.timed_out for _, o in outcomes) / passes
    metrics["trace.overhead_ops_per_s"] = traced_rate - plain_rate
    timed = {f"{layer}.{fn}_s": metrics[f"{layer}.{fn}_s"] for layer in LAYERS for fn in TIMED[layer]}
    op_seconds = sum(o.seconds for _, o in outcomes) / passes
    record = {
        "passes": passes,
        "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "spans": sum(s is not None for s in tracer.spans),
        "op_s_per_pass": op_seconds,
        "largest_function_time": max(timed, key=timed.get),
        "formulas_spectra_self_share": (metrics["formulas.self_s"] + metrics["spectra.self_s"]) / op_seconds,
        **failure_record(plain + outcomes),
    }
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
    return plain + outcomes, metrics, record


def per_layer_units():
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for layer in LAYERS:
        units.update({f"{layer}.{fn}_s": "s" for fn in TIMED[layer]})
        units.update({f"{layer}.{c}": "count" for c in COUNTERS[layer]})
        if layer != "cli":
            units[f"{layer}.errors"] = "count"
    units.update({"cli.import_s": "s", "cli.bytes_out": "bytes", "cli.timeouts": "count",
                  "trace.overhead_ops_per_s": "1/s"})
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        start = time.monotonic()
        workload = setup(args.workload, workdir)
        setup_s = time.monotonic() - start
        if args.trace:
            outcomes, metrics, record = traced(workload, args)
        else:
            outcomes, metrics, record = end_to_end(workload, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **record, "environment": environment()}
    result = {
        "correct": record["unknown_failures"] == 0 and not any(o.wrong for _, o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for _, o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    latencies = [[op.name, round(o.seconds, 6)] for op, o in outcomes]
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result, "latencies_s": latencies}) + "\n"
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
