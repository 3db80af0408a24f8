"""spavg benchmark: real `spavg` subcommands, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from anywhere inside a checkout that holds src/spavg; the package is
imported from src, not installed. Each repetition runs one subcommand
through spavg.cli.main in a fresh single-threaded process (child.py) and
checks its outputs against the references under perfbench/refs. A run
repeats while another repetition fits in S seconds, at least MIN_REPS
times. Times are scaled to a fixed machine speed with a probe timed around
each subcommand (child.probe_seconds, PROBE_REF_S).

--trace 0 prints the end-to-end metrics: wall_s, setup_s, peak_rss_mb and
completed_frac (1 - failed_frac). --trace 1 alternates untraced and traced
repetitions; a traced one wraps each layer's public functions (tracing.py)
and the run prints the per-layer metrics. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. Work files go to
.perfbench-work/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import compare
import tracing
from workloads import WORKLOADS, Workload, master_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")
WORK = os.path.join(ROOT, ".perfbench-work")
MIN_REPS = 2
# A run starts no repetition it could not finish inside this many seconds.
RUN_LIMIT_S = 160.0
# Relative slack allowed between the summed self times and the traced wall.
SELF_SUM_RTOL = 1e-6
# Reported times are scaled to a machine on which child.probe_seconds()
# takes this long: a run's mean time is multiplied by PROBE_REF_S over the
# mean of the probes taken just before and just after each subcommand.
PROBE_REF_S = 0.2
TIME_UNITS = ("s", "us")


@dataclasses.dataclass
class Rep:
    exit_code: int | None
    jobs: int
    failed: int
    problems: list[str]
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    probe_s: tuple[float, ...] = ()
    versions: dict | None = None
    spans_path: str | None = None


def speed_scale(reps: list[Rep]) -> float:
    probes = [p for rep in reps for p in rep.probe_s]
    return PROBE_REF_S / statistics.fmean(probes) if probes else 1.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = SRC
    return env


def run_rep(
    workload: Workload,
    seed: int,
    rep_dir: str,
    ref_dir: str | None,
    traced: bool = False,
    timeout: float = RUN_LIMIT_S,
) -> Rep:
    """One subcommand in a fresh process; ref_dir None skips the output check."""
    os.makedirs(rep_dir)
    config_path = os.path.join(rep_dir, "experiment.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text())
    out_dir = os.path.join(rep_dir, "out")
    result_path = os.path.join(rep_dir, "result.json")
    spec = {
        "command": workload.command,
        "config": config_path,
        "seed": seed,
        "out": out_dir,
        "result": result_path,
    }
    if traced:
        spec["spans"] = os.path.join(rep_dir, "spans.json")
        spec["run_id"] = f"{workload.name}-seed{seed}-{os.path.basename(rep_dir)}"
    spec_path = os.path.join(rep_dir, "spec.json")
    with open(os.path.join(rep_dir, "stderr.txt"), "w", encoding="utf-8") as log:
        spec["spawned"] = time.monotonic()
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        try:
            subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                timeout=timeout,
                check=True,
            )
        except subprocess.TimeoutExpired:
            return Rep(None, 1, 1, [f"no result within {timeout:.0f} s"])
        except subprocess.CalledProcessError as exc:
            return Rep(None, 1, 1, [f"child exited with {exc.returncode}; see {log.name}"])
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    problems = []
    exit_code = result["exit_code"]
    if exit_code not in (0, 1):
        problems.append(result.get("error") or f"spavg {workload.command} exited with {exit_code}")
    elif ref_dir is not None:
        if not os.path.isdir(ref_dir):
            problems.append(f"no reference outputs at {ref_dir}")
        elif workload.exact:
            problems.extend(compare.compare_outputs(ref_dir, out_dir))
        else:
            problems.extend(compare.check_estimator(ref_dir, out_dir, result["replicas"]))
    jobs = result["jobs"]
    return Rep(
        exit_code=exit_code,
        jobs=jobs,
        # Exit 3, an exception or outputs that miss the reference fail every job.
        failed=jobs if problems else 0,
        problems=problems,
        setup_s=result["setup_s"],
        wall_s=result["wall_s"],
        cpu_s=result["cpu_s"],
        peak_rss_mb=result["peak_rss_mb"],
        probe_s=tuple(result["probe_s"]),
        versions=result["versions"],
        spans_path=spec.get("spans"),
    )


def reference_dir(workload: Workload, seed: int, refs: str = REFS) -> str:
    return os.path.join(refs, workload.name, f"seed{master_seed(seed):02d}")


def machine() -> dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, refs: str = REFS
) -> dict:
    """Repeat the workload for `seconds` and summarize; see the module docstring."""
    run_dir = os.path.join(WORK, f"{workload.name}-seed{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    ref_dir = reference_dir(workload, seed, refs)
    started = time.monotonic()
    plain: list[Rep] = []
    traced: list[Rep] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        trace_this = trace and len(traced) < len(plain)
        rep = run_rep(
            workload,
            master_seed(seed),
            os.path.join(run_dir, f"rep{len(plain) + len(traced):02d}"),
            ref_dir,
            traced=trace_this,
            timeout=max(1.0, RUN_LIMIT_S - elapsed),
        )
        (traced if trace_this else plain).append(rep)
        if rep.problems:
            break
        longest = max(longest, time.monotonic() - started - elapsed)
        elapsed = time.monotonic() - started
        enough = bool(traced) if trace else len(plain) >= MIN_REPS
        if enough and elapsed + longest > seconds or elapsed + 1.5 * longest > RUN_LIMIT_S:
            break

    reps = plain + traced
    problems = [p for rep in reps for p in rep.problems]
    attempted = sum(rep.jobs for rep in reps)
    failed = sum(rep.failed for rep in reps)
    metrics: dict[str, tuple[float, str]] = {}
    unscaled: dict[str, float] = {}
    if not trace:
        # Means, not medians: the host's speed switches within a repetition,
        # and pooling every repetition and probe of the run averages it out.
        unscaled = {
            "wall_s": statistics.fmean(r.wall_s for r in plain),
            "setup_s": statistics.fmean(r.setup_s for r in plain),
        }
        scale = speed_scale(plain)
        metrics = {
            "wall_s": (unscaled["wall_s"] * scale, "s"),
            "setup_s": (unscaled["setup_s"] * scale, "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in plain), "MB"),
            "completed_frac": (1.0 - failed / attempted, "ratio"),
        }
    elif not traced:
        problems.append(f"no traced repetition fitted in {RUN_LIMIT_S:g} s")
    elif not problems:
        metrics, trace_problems = layer_breakdown(plain, traced)
        problems.extend(trace_problems)
    versions = next((rep.versions for rep in reps if rep.versions), {})
    summary = {
        "workload": workload.name,
        "seed": seed,
        "master_seed": master_seed(seed),
        "trace": int(trace),
        "environment": {**machine(), **versions},
        "repetitions": [dataclasses.asdict(rep) for rep in reps],
        "problems": problems,
        "failed_frac": failed / attempted,
        "unscaled": unscaled,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def layer_breakdown(plain: list[Rep], traced: list[Rep]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced repetitions, exact counts checked."""
    problems = []
    per_rep = []
    for rep in traced:
        with open(rep.spans_path, encoding="utf-8") as fh:
            summary = tracing.summarize(json.load(fh)["spans"])
        self_sum = sum(summary[name]["self_s"] for name in tracing.SPAN_NAMES)
        wall = summary["trace"]["wall_s"]
        if abs(self_sum - wall) > SELF_SUM_RTOL * wall:
            problems.append(f"self times add up to {self_sum!r} s, traced wall is {wall!r} s")
        metrics = tracing.layer_metrics(summary)
        metrics["experiments.cpu_s"] = (rep.cpu_s, "s")
        metrics = {
            name: (value * speed_scale([rep]) if unit in TIME_UNITS else value, unit)
            for name, (value, unit) in metrics.items()
        }
        plain_wall = statistics.fmean(r.wall_s for r in plain) * speed_scale(plain)
        metrics["trace.overhead_frac"] = (rep.wall_s * speed_scale([rep]) / plain_wall - 1.0, "frac")
        per_rep.append(metrics)
    merged = {}
    for name, (value, unit) in per_rep[0].items():
        values = [m[name][0] for m in per_rep]
        if unit == "count":
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced runs: {values}")
            merged[name] = (values[0], unit)
        else:
            merged[name] = (statistics.median(values), unit)
    return merged, problems


def print_summary(summary: dict) -> None:
    env = summary["environment"]
    print(
        f"# {summary['workload']} seed={summary['seed']} (master_seed {summary['master_seed']}) "
        f"trace={summary['trace']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
        + " ".join(f"{k}={env[k]}" for k in ("python", "numpy", "scipy") if k in env)
    )
    for i, rep in enumerate(summary["repetitions"]):
        kind = "traced" if rep["spans_path"] else "plain"
        print(
            f"#   rep {i} {kind}: exit={rep['exit_code']} setup_s={rep['setup_s']:.4f} "
            f"wall_s={rep['wall_s']:.4f} probe_s={list(rep['probe_s'])} "
            f"peak_rss_mb={rep['peak_rss_mb']:.1f} "
            f"jobs={rep['jobs']} failed={rep['failed']}"
        )
    for problem in summary["problems"]:
        print(f"#   PROBLEM: {problem}")
    for name, metric in summary["result"]["metrics"].items():
        unscaled = summary["unscaled"].get(name)
        note = f" (unscaled {unscaled!r})" if unscaled is not None else ""
        print(f"#   {name} = {metric['value']!r} {metric['unit']}{note}")
    print(f"#   failed_frac = {summary['failed_frac']!r} ratio")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spavg", "cli.py")):
        print(f"error: no spavg package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_summary(summary)
        summaries.append(summary)
    if args.workload != "all":
        print(json.dumps(summaries[0]["result"]))
        return 0
    results = [s["result"] for s in summaries]
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    f"{s['workload']}/{name}": metric
                    for s in summaries
                    for name, metric in s["result"]["metrics"].items()
                },
            }
        )
    )
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
