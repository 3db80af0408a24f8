"""One spavg subcommand in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py SPEC.json

SPEC.json holds: command, config, seed, out, result, spawned (the parent's
time.monotonic() just before it started this process, a clock shared by
every process on the machine) and, for a traced run, spans and run_id. The
child imports spavg, numpy and scipy and loads the config (set-up), then
calls spavg.cli.main as the command line would (wall), with a speed probe
just before and just after, and writes its timings, probe times, exit code,
job count, peak memory and library versions to the result file. run.py
starts it with PYTHONPATH=src and one BLAS thread.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback

PROBE_CALLS = 10000


def probe_seconds(calls: int = PROBE_CALLS) -> float:
    """Time a fixed loop of n = 64 banded solves, spavg's fast micro step call.

    run.py divides by the median probe time of a run to take the machine's
    speed, which drifts on a shared host, out of the reported times.
    """
    import numpy
    from scipy.linalg import cho_solve_banded, cholesky_banded

    ab = numpy.zeros((2, 64))
    ab[0, 1:] = -1.0
    ab[1, :] = 3.0
    factor = (cholesky_banded(ab), False)
    y = numpy.ones(64)
    for _ in range(100):
        y = cho_solve_banded(factor, y + 0.1)
    started = time.perf_counter()
    for _ in range(calls):
        y = cho_solve_banded(factor, y + 0.1)
    return time.perf_counter() - started


def job_count(command: str, config) -> int:
    """(epsilon, replica) jobs the subcommand runs for this config."""
    epsilons = set(config.epsilon_grid)
    if command == "diagnose":
        epsilons.add(config.diag_epsilon)
    return len(epsilons) * config.replicas


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import numpy
    import scipy
    import scipy.linalg  # the bulk of the import time

    import spavg.cli
    from spavg.config import load_config

    config = load_config(spec["config"])
    setup_s = time.monotonic() - spec["spawned"]

    tracer = None
    if spec.get("spans"):
        import tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)

    argv = [
        spec["command"],
        "--config", spec["config"],
        "--seed", str(spec["seed"]),
        "--out", spec["out"],
    ]
    result = {
        "setup_s": setup_s,
        "jobs": job_count(spec["command"], config),
        "replicas": config.replicas,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    probes = [probe_seconds()]
    cpu_start = time.process_time()
    started = time.perf_counter()
    try:
        if tracer is None:
            result["exit_code"] = spavg.cli.main(argv)
        else:
            result["exit_code"] = tracer.run_root(spavg.cli.main, argv)
    except Exception:  # reported as a failed run, with its traceback
        result["exit_code"] = None
        result["error"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - started
    result["cpu_s"] = time.process_time() - cpu_start
    probes.append(probe_seconds())
    result["probe_s"] = probes
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
