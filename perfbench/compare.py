"""Check a run's output files against the committed reference outputs.

Every file in the reference directory must be present in the output
directory (extra output files are allowed). CSVs are compared cell by cell:
text cells exactly, numbers to a relative tolerance of CSV_RTOL, which
admits a reordered or batched computation agreeing to ~1e-12 but nothing a
change of scheme or of random draws would produce. The `wall_time_s` column
is skipped. Report lines are compared token by token: text and integers
exactly, so every PASS/FAIL verdict must match, and each other printed
number to one unit of its last printed digit.

The estimator workload is checked statistically instead (`check_estimator`):
complete, finite rows at the same epsilons, and each error_mean within
ESTIMATOR_SIGMAS combined standard errors of the reference. Its verdict is
not compared.
"""

from __future__ import annotations

import csv
import math
import os
import re

CSV_RTOL = 1e-7
SKIP_COLUMNS = ("wall_time_s",)
ESTIMATOR_SIGMAS = 5.0
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            {k: v for k, v in row.items() if k not in SKIP_COLUMNS}
            for row in csv.DictReader(fh)
        ]


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def compare_csv(ref_path: str, out_path: str) -> list[str]:
    name = os.path.basename(ref_path)
    ref, out = _read_csv(ref_path), _read_csv(out_path)
    if len(ref) != len(out):
        return [f"{name}: {len(out)} rows, reference has {len(ref)}"]
    problems = []
    for i, (r, o) in enumerate(zip(ref, out)):
        if r.keys() != o.keys():
            problems.append(f"{name} row {i}: columns {list(o)} != {list(r)}")
            continue
        for key, want in r.items():
            got = o[key]
            a, b = _float(want), _float(got)
            same = want == got if a is None or b is None else _close(a, b, CSV_RTOL)
            if not same:
                problems.append(f"{name} row {i} {key}: {got} != reference {want}")
    return problems


def _last_digit_unit(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def compare_report_line(want: str, got: str) -> bool:
    if _NUMBER.split(want) != _NUMBER.split(got):
        return False
    want_numbers, got_numbers = _NUMBER.findall(want), _NUMBER.findall(got)
    if len(want_numbers) != len(got_numbers):
        return False
    for a, b in zip(want_numbers, got_numbers):
        if not any(c in a + b for c in ".eE"):
            if a != b:  # integers: replica counts, mode numbers
                return False
            continue
        unit = max(_last_digit_unit(a), _last_digit_unit(b))
        if abs(float(a) - float(b)) > 1.001 * unit:
            return False
    return True


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def compare_report(ref_path: str, out_path: str) -> list[str]:
    name = os.path.basename(ref_path)
    ref, out = _read_lines(ref_path), _read_lines(out_path)
    if len(ref) != len(out):
        return [f"{name}: {len(out)} lines, reference has {len(ref)}"]
    return [
        f"{name} line {i}: {got!r} != reference {want!r}"
        for i, (want, got) in enumerate(zip(ref, out))
        if not compare_report_line(want, got)
    ]


def compare_outputs(ref_dir: str, out_dir: str) -> list[str]:
    """Problems found comparing every reference file; empty when all match."""
    problems = []
    for name in sorted(os.listdir(ref_dir)):
        ref_path, out_path = os.path.join(ref_dir, name), os.path.join(out_dir, name)
        if not os.path.isfile(out_path):
            problems.append(f"{name}: missing from the output")
        elif name.endswith(".csv"):
            problems.extend(compare_csv(ref_path, out_path))
        else:
            problems.extend(compare_report(ref_path, out_path))
    return problems


def check_estimator(ref_dir: str, out_dir: str, replicas: int) -> list[str]:
    """Statistical check of the estimator workload's convergence outputs."""
    out_csv = os.path.join(out_dir, "convergence.csv")
    out_report = os.path.join(out_dir, "convergence_report.txt")
    for path in (out_csv, out_report):
        if not os.path.isfile(path):
            return [f"{os.path.basename(path)}: missing from the output"]
    ref = _read_csv(os.path.join(ref_dir, "convergence.csv"))
    out = _read_csv(out_csv)
    if len(ref) != len(out):
        return [f"convergence.csv: {len(out)} rows, reference has {len(ref)}"]
    problems = []
    for i, (r, o) in enumerate(zip(ref, out)):
        if int(o["replicas"]) != replicas:
            problems.append(f"convergence.csv row {i}: {o['replicas']} of {replicas} replicas")
        for key in ("epsilon", "delta"):
            if not _close(float(o[key]), float(r[key]), CSV_RTOL):
                problems.append(f"convergence.csv row {i} {key}: {o[key]} != {r[key]}")
        mean, stderr = float(o["error_mean"]), float(o["error_stderr"])
        if not (math.isfinite(mean) and math.isfinite(stderr) and mean > 0.0):
            problems.append(f"convergence.csv row {i}: non-finite error {mean} +/- {stderr}")
            continue
        ref_mean, ref_stderr = float(r["error_mean"]), float(r["error_stderr"])
        limit = ESTIMATOR_SIGMAS * math.hypot(stderr, ref_stderr)
        if abs(mean - ref_mean) > limit:
            problems.append(
                f"convergence.csv row {i}: error_mean {mean:.6e} is more than "
                f"{ESTIMATOR_SIGMAS:g} standard errors from the reference {ref_mean:.6e}"
            )
    lines = _read_lines(out_report)
    rows = [line for line in lines if line.startswith("epsilon=")]
    if len(rows) != len(ref) or any("INVALID" in line for line in rows):
        problems.append("convergence_report.txt: missing or invalid epsilon rows")
    if not lines or not lines[-1].startswith("overall: "):
        problems.append("convergence_report.txt: no overall verdict line")
    return problems
