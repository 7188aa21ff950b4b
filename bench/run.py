"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload toy-global --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: lrsprune is imported from ``src/``,
in this process, with one BLAS thread. The load is a closed loop: one client
runs compression jobs back to back, with no worker threads or processes.

``--trace 0`` measures the end-to-end metrics. Job times are reported in
units of a fixed reference kernel timed just before and after each job
(``reference.py``), because the host's speed drifts by up to 1.5x over
minutes; the absolute seconds are printed and recorded as well.
``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics from the traced
ones, plus the tracing overhead; its job times are never end-to-end numbers.
Every job passes the correctness gate, the first job is repeated at the end
and must reproduce its outputs byte for byte, and in a traced run every
pipeline run's pool must cost more than its budget. A failure of any check
makes the run exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(machine stamp, sample counts, output digest, layer-to-metric mapping) goes
to ``.bench_out/<workload>-seed<seed>-trace<0|1>.json``, and a traced run's
spans to ``.bench_out/<workload>.spans.json.gz``.
"""

import os

# before numpy is imported, anywhere
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5  # setup_s takes the median of this many warm-up set-ups
TAIL_BEYOND = 10  # job_s_tail has at least this many jobs beyond it


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _tail(times):
    """(value, percentile, jobs beyond) of the highest percentile with at least
    TAIL_BEYOND jobs beyond it; below 2 * TAIL_BEYOND jobs, half the jobs."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def _machine(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


class Run:
    """One workload measured for a fixed time: jobs, outcomes and failures."""

    def __init__(self, workload, tracer, check):
        self.workload = workload
        self.tracer = tracer
        self.check = check
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def job(self, label, stream, index, traced=False, deep=False, tag=""):
        """Prepare, execute (timed) and gate one job.

        Returns (inputs, seconds, outcome); outcome is None when the job failed.
        """
        self.attempted += 1
        inputs = None
        try:
            inputs = self.workload.prepare(stream, index, tag)
            start = time.perf_counter()
            if traced:
                raw = self.tracer.traced_job(self.attempted, self.workload.execute, inputs)
            else:
                raw = self.workload.execute(inputs)
            seconds = time.perf_counter() - start
            outcome = self.workload.collect(inputs, raw, deep)
            problems = self.check(outcome)
        except Exception:  # a job that raises is a failed job; keep measuring
            self.failures.append((label, [traceback.format_exc()]))
            return inputs, None, None
        if problems:
            self.failures.append((label, problems))
            return inputs, seconds, None
        return inputs, seconds, outcome


def measure(args, spec, import_s):
    import numpy as np

    from gate import check
    from layers import MOVES, cost_over_budget_by_job, layer_metrics
    from reference import reference_s
    from spans import Tracer
    from workloads import JOB_STREAM, REPEAT_TAG, SETUP_STREAM, WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](workdir, args.seed)
        construct_s = time.perf_counter() - start
        run = Run(workload, Tracer(), check)

        setup_times = []
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs, _, _ = run.job(f"setup {k}", SETUP_STREAM, k)
            setup_times.append(time.perf_counter() - start)
            workload.discard(inputs)
        setup_s = import_s + construct_s + statistics.median(setup_times)

        measured = []  # (traced, wall seconds, loop index) of each passing job
        refs = []  # reference kernel seconds before loop index i, and after the last
        dense = 0
        losses, budget_use, thresholds = [], [], []
        first = None
        index = 0
        deadline = time.perf_counter() + args.seconds
        min_jobs = 2 if args.trace else 1
        while index < min_jobs or time.perf_counter() < deadline:
            traced = bool(args.trace) and index % 2 == 1
            deep = workload.deep_jobs is None or index < workload.deep_jobs
            refs.append(reference_s())
            inputs, seconds, outcome = run.job(
                f"job {index}", JOB_STREAM, index, traced=traced, deep=deep
            )
            if outcome is not None:
                measured.append((traced, seconds, index))
                if not traced:
                    dense += outcome.dense_params
                losses.append(outcome.final_loss)
                budget_use.append(outcome.used_cost / outcome.budget)
                if outcome.threshold_loss is not None:
                    thresholds.append(outcome.threshold_loss)
                if index == 0:
                    first = outcome.digest
            if inputs is not None:
                workload.discard(inputs)
            index += 1
        refs.append(reference_s())

        _, _, repeat = run.job("repeat of job 0", JOB_STREAM, 0, tag=REPEAT_TAG)
        if first is not None and repeat is not None and repeat.digest != first:
            run.failures.append(("repeat of job 0", ["outputs differ from job 0's"]))

        binding = {}
        if args.trace:
            spans = run.tracer.spans()
            binding = cost_over_budget_by_job(spans)
            for job_id, ratios in sorted(binding.items()):
                if min(ratios) <= 1.0:
                    run.failures.append(
                        (f"traced job {job_id}", [f"pool cost over budget {min(ratios)!r} <= 1"])
                    )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [t for traced, t, _ in measured if not traced]
    traced_times = [t for traced, t, _ in measured if traced]
    # each job's wall time over the mean reference time just before and after it
    rel = [t / (0.5 * (refs[i] + refs[i + 1])) for traced, t, i in measured if not traced]
    if not untraced or not losses:
        return run, None, {}

    tail_s, _, _ = _tail(untraced)
    rel_tail, tail_pct, tail_beyond = _tail(rel)
    absolute = {
        "job_s_p50": statistics.median(untraced),
        "job_s_tail": tail_s,
        "dense_params_per_s": dense / sum(untraced),
        "reference_s_p50": statistics.median(refs),
    }
    metrics = {
        "job_rel_p50": statistics.median(rel),
        "job_rel_tail": rel_tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_loss_p50": statistics.median(losses),
        "budget_use_p50": statistics.median(budget_use),
        "threshold_loss_p50": statistics.median(thresholds) if thresholds else float("nan"),
    }
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, jobs back to back, no worker threads or processes",
        "machine": _machine(np),
        "jobs": {"untraced": len(untraced), "traced": len(traced_times)},
        "tail_percentile": tail_pct,
        "tail_jobs_beyond": tail_beyond,
        "absolute": absolute,
        "threshold_loss_jobs": len(thresholds),
        "setup_times_s": setup_times,
        "job_times_s": {"untraced": untraced, "traced": traced_times},
        "reference_times_s": refs,
        "import_s": import_s,
        "attempted": run.attempted,
        "error_rate": len(run.failures) / run.attempted,
        "output_sha256_job0": first,
        "layer_moves": MOVES,
    }
    if args.trace:
        metrics = layer_metrics(spans, len(traced_times))
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(untraced) - 1.0
            if traced_times
            else float("nan")
        )
        record["trace_absent"] = run.tracer.absent
        record["cost_over_budget_by_job"] = binding
        run.tracer.write(OUT / f"{args.workload}.spans.json.gz")
    record["metrics"] = metrics
    return run, record, metrics


def main(argv=None) -> int:
    args = _args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "lrsprune" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no lrsprune sources under src/ or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import lrsprune  # noqa: F401  (timed: importing the package is part of set-up)

    import_s = time.perf_counter() - start

    run, record, metrics = measure(args, spec, import_s)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for label, problems in run.failures:
        for problem in problems:
            print(f"FAILED {args.workload} seed {args.seed} {label}: {problem}", file=sys.stderr)
    if record is None or missing:
        print(f"error: no result; missing metrics {missing}", file=sys.stderr)
        return 1

    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    m = record["machine"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {record['load']}; "
        f"nproc={m['nproc']} python {m['python']} numpy {m['numpy']} {m['blas']} "
        f"threads={m['blas_threads']}"
    )
    print(
        f"# jobs untraced={record['jobs']['untraced']} traced={record['jobs']['traced']} "
        f"attempted={run.attempted} error_rate={record['error_rate']!r} "
        f"tail=p{record['tail_percentile']:.1f} ({record['tail_jobs_beyond']} jobs beyond) "
        f"sha256(job 0)={record['output_sha256_job0']}"
    )
    print("# " + " ".join(f"{k}={v!r}" for k, v in record["absolute"].items()))
    if args.trace and record["trace_absent"]:
        print(f"# absent from this build, not traced: {', '.join(record['trace_absent'])}")
    for entry in wanted:
        print(f"{entry['name']} = {metrics[entry['name']]!r} {entry['unit']} ({entry['better']} is better)")
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {
                    e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in wanted
                },
            }
        )
    )
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
