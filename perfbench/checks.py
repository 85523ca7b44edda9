"""Output checks of one benchmark invocation; any problem fails the invocation.

    python3 checks.py OUT_DIR [--study] [--read-back] [--reference WORKLOAD]

run.py runs this as a child process with the checkout's `src` on PYTHONPATH.
It prints one JSON object: the problems found, the seconds spent reading
saved snapshots back, and the SHA-256 of every CSV under OUT_DIR.  With
--reference, the key report scalars are compared with that workload's
entry in reference.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from rarewave.euler2d import total_mass
from rarewave.snapshot_io import read_planes, read_snapshot

# round-off tolerance for the reference scalars of the default seed
REL_TOL = 1e-8
ABS_TOL = 1e-11
RESIDUAL_COLUMNS = ("commutation_y", "commutation_z", "structure_kappa",
                    "structure_that1", "structure_that2", "structure_chi")


def key_scalars(report: dict) -> dict:
    """The report scalars compared with the seed commit's values."""
    out = {"x2_variation": report["x2_variation"],
           "mass_drift_final": report["mass_drift"][-1],
           "ray_u_drift": report["ray_u_drift"]}
    for col, name in enumerate(RESIDUAL_COLUMNS, start=1):
        vals = [row[col] for row in report["residuals"] if not math.isnan(row[col])]
        out[f"max_{name}"] = max(vals) if vals else math.nan
    rows = report["energies"]
    t_final = max(r[0] for r in rows)
    u_widest = max(r[1] for r in rows)
    for r in rows:
        if r[0] == t_final and r[1] == u_widest:
            out[f"E+Ebar[{r[2]},n={r[3]}]"] = r[4] + r[5]
    gron = report["gronwall_fit"]
    for k in ("A", "B", "max_ratio"):
        out[f"gronwall_{k}"] = gron.get(k, math.nan)
    return out


def report_problems(name: str, report: dict) -> list:
    """Checks that hold for every seed."""
    problems = [f"{name}: data predicate {p[0]} failed" for p in report["data_predicates"]
                if not p[3]]
    if report["gronwall_fit"].get("passed") is not True:
        problems.append(f"{name}: gronwall_fit did not pass: {report['gronwall_fit']}")
    bad = [r for r in report["energies"]
           if any(v != "" and not math.isfinite(v) for v in r[4:])]
    if bad:
        problems.append(f"{name}: {len(bad)} energy rows hold NaN or inf, first {bad[0]}")
    return problems


def reference_problems(name: str, report: dict, reference: dict) -> list:
    got = key_scalars(report)
    problems = []
    for key, want in reference.items():
        have = got.get(key)
        if have is None:
            problems.append(f"{name}: reference scalar {key} missing from the report")
        elif not (math.isnan(want) and math.isnan(have)) and not math.isclose(
                have, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{name}: {key} = {have!r}, reference {want!r}")
    return problems


def csv_digests(out_dir: Path) -> dict:
    """{relative path: SHA-256} of every CSV under out_dir."""
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*.csv"))}


def read_back_problems(member_dir: Path) -> list:
    """Read every saved snapshot and the final foliation planes back.

    Each snapshot's total mass must match its conservation.csv row.
    """
    with (member_dir / "conservation.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    mass_at = {float(r[0]): float(r[1]) for r in rows}
    files = sorted(member_dir.glob("*.rwl"))
    snaps = [f for f in files if f.name != "foliation_final.rwl"]
    problems = []
    if len(snaps) != len(mass_at):
        problems.append(f"{member_dir.name}: {len(snaps)} snapshots saved, "
                        f"{len(mass_at)} conservation rows")
    bad = []
    for f in snaps:
        s = read_snapshot(f)
        want = mass_at.get(s.time, math.nan)
        if not math.isclose(total_mass(s), want, rel_tol=1e-12):
            bad.append(f"{f.name} (t={s.time!r}): total_mass {total_mass(s)!r}, "
                       f"conservation.csv {want!r}")
    if bad:
        problems.append(f"{member_dir.name}: {len(bad)} snapshots disagree with "
                        f"conservation.csv, first {bad[0]}")
    meta, planes = read_planes(member_dir / "foliation_final.rwl")
    if meta["t"] != max(mass_at, default=math.nan):
        problems.append(f"foliation_final.rwl: t={meta['t']!r} is not the final time")
    if "u" not in planes or not all(np.isfinite(a).all() for a in planes.values()):
        problems.append(f"foliation_final.rwl: planes {sorted(planes)} lack u or hold NaN")
    return problems


def check_output(out_dir: Path, study: bool, read_back: bool, reference) -> dict:
    if study:
        doc = json.loads((out_dir / "study.json").read_text())
        reports = dict(zip(doc["members"], doc["reports"]))
        problems = [f"study failure: {f}" for f in doc["failures"]]
    else:
        reports = {"run": json.loads((out_dir / "report.json").read_text())}
        problems = []
    reports = {name: r for name, r in reports.items() if r is not None}
    for name, report in reports.items():
        problems += report_problems(name, report)
        if reference is not None:
            problems += reference_problems(name, report, reference[name])
        if study and report.get("cached") is not True:
            problems.append(f"{name}: second pass was not served from the run cache")
    read_s = 0.0
    if read_back:
        t0 = time.perf_counter()
        for name in reports:
            problems += read_back_problems(out_dir / name)
        read_s = time.perf_counter() - t0
    return {"problems": problems, "read_s": read_s, "digests": csv_digests(out_dir)}


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--study", action="store_true")
    parser.add_argument("--read-back", action="store_true")
    parser.add_argument("--reference")
    args = parser.parse_args(argv)
    reference = None
    if args.reference:
        path = Path(__file__).resolve().parent / "reference.json"
        reference = json.loads(path.read_text())[args.reference]
    try:
        result = check_output(args.out_dir, args.study, args.read_back, reference)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        result = {"problems": [f"unreadable output: {exc!r}"], "read_s": 0.0, "digests": {}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
