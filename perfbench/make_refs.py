"""Regenerate the committed reference outputs under perfbench/refs.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs each workload once per master seed 0 .. REFERENCE_SEEDS - 1 and keeps
its CSVs and report, with the wall_time_s column removed so the references
are bit-reproducible. Only regenerate them when the program's answer is
meant to change.
"""

from __future__ import annotations

import os
import shutil
import sys

from compare import SKIP_COLUMNS
from run import REFS, WORK, run_rep
from workloads import REFERENCE_SEEDS, WORKLOADS


def strip_columns(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in SKIP_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(",".join(row[i] for i in keep) + "\n" for row in rows))


def main(names: list[str]) -> int:
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in range(REFERENCE_SEEDS):
            rep_dir = os.path.join(WORK, "refs", f"{name}-seed{seed}")
            shutil.rmtree(rep_dir, ignore_errors=True)
            rep = run_rep(workload, seed, rep_dir, ref_dir=None)
            if rep.problems:
                print(f"{name} seed {seed}: {rep.problems}", file=sys.stderr)
                return 1
            target = os.path.join(REFS, name, f"seed{seed:02d}")
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(os.path.join(rep_dir, "out"), target)
            for file_name in os.listdir(target):
                if file_name.endswith(".csv"):
                    strip_columns(os.path.join(target, file_name))
            print(f"{name} seed {seed}: exit {rep.exit_code}, wall {rep.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
