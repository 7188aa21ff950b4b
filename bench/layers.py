"""Per-layer metrics from the traced run's spans, and what each should move.

Every metric is a per-job figure over the traced jobs, except the ratios,
``rpca.residual_max`` (the largest final residual of any decompose call) and
``pool.cost_over_budget`` (the smallest over all pipeline runs). Layers are named after the modules of ``src/lrsprune``;
``oracle`` is reference code that only tests call, so it is not measured.
"""

from __future__ import annotations

from collections import defaultdict

# layer -> the end-to-end metrics its per-layer metrics should move, on which
# workload, in which direction if the layer gets cheaper or better
MOVES = {
    "linalg": [
        ("job_s_p50", "stack256-global", "down"),
        ("dense_params_per_s", "stack256-global", "up"),
        ("job_s_p50", "toy-global", "barely"),
    ],
    "rpca": [
        ("job_s_p50", "stack256-global", "down"),
        ("job_s_p50", "toy-seq-ablate", "down (reuse_ratio up)"),
    ],
    "pool": [
        ("peak_rss_mb", "stack256-global", "down"),
        ("job_s_p50", "stack256-global", "down"),
    ],
    "allocator": [
        ("job_s_p50", "toy-global", "down"),
        ("job_s_p50", "toy-seq-ablate", "down"),
        ("job_s_p50", "stack256-global", "barely"),
    ],
    "calibration": [("job_s_p50", "toy-global", "down")],
    "pipeline": [("job_s_p50", "toy-global", "down")],
    "matio": [("job_s_p50", "toy-global", "slightly down")],
    "cli": [("job_s_p50", "toy-global", "down")],
    "trace": [],
}

STAGE1 = {"rpca.decompose", "pool.build_pool"}
REPORT_LOSS = {"calibration.factorize", "calibration.loss_with_masks", "calibration.forward_loss"}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list, jobs: int) -> dict:
    """Per-layer metrics over ``jobs`` traced jobs, keyed by metric name."""
    dur = [s[2] - s[1] for s in spans]
    children = defaultdict(list)
    by_name = defaultdict(list)
    for k, s in enumerate(spans):
        by_name[s[0]].append(k)
        if s[3] >= 0:
            children[s[3]].append(k)

    def total(name):
        return sum(dur[k] for k in by_name[name])

    def count(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum(spans[k][5][key] for k in by_name[name])

    def under(k, name):
        k = spans[k][3]
        while k >= 0:
            if spans[k][0] == name:
                return True
            k = spans[k][3]
        return False

    def per_job(x):
        return _ratio(x, jobs)

    runs = by_name["pipeline.run"]
    loss_evals = attr_sum("pipeline.run", "loss_evals")
    stage2 = sum(
        dur[r] - sum(dur[c] for c in children[r] if spans[c][0] in STAGE1 | REPORT_LOSS)
        for r in runs
    )
    run_self = sum(dur[r] - sum(dur[c] for c in children[r]) for r in runs)
    project_in_step = sum(
        dur[c]
        for r in by_name["allocator.reinforce_step"]
        for c in children[r]
        if spans[c][0] == "allocator.project_to_budget"
    )
    decomposes = by_name["rpca.decompose"]
    distinct = {(spans[k][4], spans[k][5]["layer"], spans[k][5]["lam"]) for k in decomposes}
    iters = attr_sum("rpca.decompose", "iterations")
    svd_in_decompose = sum(1 for k in by_name["linalg.svd"] if under(k, "rpca.decompose"))
    evaluator_reconstructs = sum(
        1 for k in by_name["calibration.reconstruct"] if spans[spans[k][3]][0] == "pipeline.run"
    )
    cost_over_budget = [r for ratios in cost_over_budget_by_job(spans).values() for r in ratios]

    return {
        "linalg.svd_calls": per_job(count("linalg.svd")),
        "linalg.svd_s": per_job(total("linalg.svd")),
        "linalg.svd_flops_computed": per_job(attr_sum("linalg.svd", "flops")),
        "rpca.decompose_calls": per_job(count("rpca.decompose")),
        "rpca.decompose_s": per_job(total("rpca.decompose")),
        "rpca.admm_iters": per_job(iters),
        "rpca.svd_per_iter": _ratio(svd_in_decompose, iters),
        "rpca.reuse_ratio": _ratio(len(distinct), len(decomposes)),
        "rpca.residual_max": max((spans[k][5]["residual"] for k in decomposes), default=0.0),
        "pool.build_s": per_job(total("pool.build_pool")),
        "pool.candidates": per_job(attr_sum("pool.build_pool", "candidates")),
        "pool.cost_over_budget": min(cost_over_budget, default=0.0),
        "allocator.steps": per_job(count("allocator.reinforce_step")),
        "allocator.reinforce_self_s": per_job(total("allocator.reinforce_step") - project_in_step),
        "allocator.project_calls": per_job(count("allocator.project_to_budget")),
        "allocator.project_s": per_job(total("allocator.project_to_budget")),
        "allocator.finalize_s": per_job(total("allocator.finalize_masks")),
        "calibration.loss_evals": per_job(loss_evals),
        "calibration.reconstruct_calls": per_job(count("calibration.reconstruct")),
        "calibration.reconstruct_s": per_job(total("calibration.reconstruct")),
        "calibration.reconstruct_per_eval": _ratio(evaluator_reconstructs, loss_evals),
        "calibration.report_loss_s": per_job(sum(total(n) for n in REPORT_LOSS)),
        "pipeline.stage1_s": per_job(sum(total(n) for n in STAGE1)),
        "pipeline.stage2_s": per_job(stage2),
        "pipeline.baseline_s": per_job(total("pipeline.baseline")),
        "pipeline.stage2_s_per_eval": _ratio(stage2, loss_evals),
        "pipeline.self_s": per_job(run_self),
        "matio.read_s": per_job(total("matio.read_matrix")),
        "matio.write_s": per_job(total("matio.write_matrix")),
        "matio.bytes_written": per_job(attr_sum("matio.write_matrix", "bytes")),
        "cli.format_report_s": per_job(total("cli.format_report")),
        "cli.report_bytes": per_job(attr_sum("cli.format_report", "bytes")),
    }


def cost_over_budget_by_job(spans: list) -> dict:
    """Job id -> total pool cost over budget of each pipeline run in that job.

    Only runs with traced pool builds count: when a refactor removes the
    traced name, binding is reported unchecked rather than failed.
    """
    cost = defaultdict(int)
    for s in spans:
        if s[0] == "pool.build_pool" and s[3] >= 0:
            cost[s[3]] += s[5]["total_cost"]
    out = defaultdict(list)
    for k, s in enumerate(spans):
        if s[0] == "pipeline.run" and k in cost:
            out[s[4]].append(_ratio(cost[k], s[5]["budget"]))
    return dict(out)
