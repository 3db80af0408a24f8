"""The benchmark's workloads: one spavg subcommand and the config keys it
sets on top of the defaults.

Every workload is closed-loop with one client: the harness runs one
subcommand at a time, each in a fresh single-threaded process. The workload
seed selects the master seed of the run, reduced modulo REFERENCE_SEEDS so
that every seed has committed reference outputs (see make_refs.py).
"""

from __future__ import annotations

import dataclasses

REFERENCE_SEEDS = 16


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: tuple[tuple[str, str], ...]
    why: str
    # True: values must agree with the reference to rounding level.
    # False: the estimator workload, checked statistically (see compare.py).
    exact: bool = True

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "converge-burgers",
            "converge",
            (("replicas", "3"),),
            "reference experiment; the fast micro loop in simulate_coupled dominates, "
            "no Newton solve and no estimator",
        ),
        Workload(
            "converge-plaplace",
            "converge",
            (("slow_kind", "p_laplace"), ("replicas", "2"), ("T", "0.5")),
            "damped Newton solves in the coupled and averaged slow steps dominate",
        ),
        Workload(
            "converge-estimator",
            "converge",
            (
                ("fast_kind", "smooth_bounded"),
                ("b", "0.5"),
                ("fbar_source", "estimator"),
                ("fbar_replicas", "2"),
                ("replicas", "4"),
                ("T", "0.03125"),
                # Weaker slow noise: the trust-region refreshes follow the
                # deterministic decay of the slow path, so the refresh count,
                # which sets this workload's cost, varies little with the seed.
                ("g1_amplitude", "0.02"),
            ),
            "the memoized fbar estimator dominates; the only smooth_bounded fast path",
            exact=False,
        ),
        Workload(
            "diagnose-burgers",
            "diagnose",
            # Without epsilon = 0.01, which alone took over half the micro
            # steps, a repetition is short enough for a run to take a median.
            (("epsilon_grid", "0.1, 0.05, 0.02"), ("replicas", "2")),
            "block-anchored noise replays of build_auxiliary and fresh coupled runs",
        ),
    )
}


def master_seed(seed: int) -> int:
    """The master seed a workload seed runs with; the same seed, the same inputs."""
    return seed % REFERENCE_SEEDS
