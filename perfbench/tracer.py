"""Span recording for the traced benchmark run, and the per-layer summary.

The child side (`Recorder`) patches the public functions of each rarewave
layer where their callers look them up, and records one span per call:
id, parent span, name, start, end, the process's RSS high-water mark at the
end, and an optional key.  Spans stay in memory and are written to
`spans-<pid>.json` when the process ends; a forked study worker writes its
own file each time its outermost span closes.  Untraced runs never import
this module.

The parent side (`summarise`) reads those files and derives the per-layer
metrics.  A wrapped name that no longer exists is reported as missing and
its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import time
from collections import defaultdict
from pathlib import Path

GEOMETRY = ("evolve_u", "frame_fields", "sign_monitors", "second_frame",
            "commutation_residual_y", "commutation_residual_z",
            "structure_residuals", "trace_characteristics")
ENERGY_KERNELS = ("semi_lagrangian", "bilinear_sample", "extract_level_curve",
                  "apply_frame_derivative", "check_data_predicates")


def _sl_key(args):
    # semi_lagrangian(f0, f1, a1, a2, t0, t1, grid): the (t0, t1) snapshot pair
    return [args[4], args[5]]


# (span name, module, attribute path): the attribute is patched in that module,
# which is where the callers of the function look it up
TARGETS = (
    [("cli.main", "rarewave.cli", "main"),
     ("harness.run_single", "rarewave.cli", "run_single"),
     ("harness.run_single", "rarewave.harness", "run_single"),
     ("harness.run_study", "rarewave.cli", "run_study"),
     ("euler2d.init", "rarewave.harness", "init_perturbed_rarefaction"),
     ("euler2d.run", "rarewave.harness", "run"),
     ("euler2d.step", "rarewave.euler2d", "step"),
     ("gas.sound_speed", "rarewave.euler2d", "sound_speed"),
     ("energies.report", "rarewave.energies", "EnergyAnalysis.report"),
     ("snapshot_io.write_snapshot", "rarewave.harness", "write_snapshot"),
     ("snapshot_io.write_planes", "rarewave.harness", "write_planes")]
    + [(f"geometry.{fn}", "rarewave.geometry", fn) for fn in GEOMETRY]
    + [(f"energies.{fn}", "rarewave.energies", fn) for fn in ENERGY_KERNELS])

KEYS = {"energies.semi_lagrangian": _sl_key}


class Recorder:
    """Records spans of the wrapped calls made in this process."""

    def __init__(self, out_dir: Path, run_id: str):
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self.missing: list = []
        self._start_record()
        self.main_pid = self.pid

    def _start_record(self):
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.next_id = 0

    def install(self):
        """Patch every target; names that no longer resolve go to `missing`."""
        for name, module, path in TARGETS:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, fn, KEYS.get(name)))

    def _wrap(self, name, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                # a forked pool worker inherits the parent's record: start afresh
                self._start_record()
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                try:
                    tag = key(args) if key else None
                except (IndexError, TypeError):
                    tag = None
                self.spans.append([sid, parent, name, t0, t1,
                                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, tag])
                if not self.stack and self.pid != self.main_pid:
                    self.dump()
        return wrapper

    def dump(self):
        path = self.out_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"run_id": self.run_id, "pid": self.pid,
                                   "missing": self.missing, "spans": self.spans}))
        os.replace(tmp, path)


def summarise(trace_dir: Path, cells: int) -> tuple:
    """(per-layer metrics without units, missing names) from the span files.

    `cells` is n1*n2 of the workload grid.  Busy time is the summed span
    duration of a name; self time is a span's duration minus the time its
    direct child spans cover.  Run ids are `pass1`/`pass2`; the second pass
    of a study is the cache-hit pass.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    rss_kib = defaultdict(int)
    cache_hit = 0.0
    sl_pairs = set()
    missing = set()
    files = sorted(Path(trace_dir).glob("spans-*.json"))
    for n_file, rec in enumerate(json.loads(f.read_text()) for f in files):
        missing.update(rec["missing"])
        spans = {s[0]: s for s in rec["spans"]}
        child_time = defaultdict(float)
        for sid, parent, name, t0, t1, rss, tag in spans.values():
            if parent is not None:
                child_time[parent] += t1 - t0
        for sid, parent, name, t0, t1, rss, tag in spans.values():
            busy[name] += t1 - t0
            calls[name] += 1
            rss_kib[name] = max(rss_kib[name], rss)
            if name == "harness.run_single" and rec["run_id"] == "pass2":
                cache_hit += t1 - t0
            if tag is not None:
                # distinct pairs are counted per run: walk up to the run's span
                scope = parent
                while scope is not None and spans[scope][2] != "harness.run_single":
                    scope = spans[scope][1]
                sl_pairs.add((n_file, scope, *tag))
        for sid, s in spans.items():
            self_time[s[2]] += s[4] - s[3] - child_time[sid]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "euler2d.run_s": busy["euler2d.run"],
        "euler2d.step_calls": calls["euler2d.step"],
        "euler2d.step_ms": 1e3 * ratio(busy["euler2d.step"], calls["euler2d.step"]),
        "euler2d.cell_steps_per_s": ratio(cells * calls["euler2d.step"], busy["euler2d.run"]),
        "euler2d.init_s": busy["euler2d.init"],
        "euler2d.run_rss_mib": rss_kib["euler2d.run"] / 1024.0,
        "gas.sound_speed_calls": calls["gas.sound_speed"],
        "gas.sound_speed_s": busy["gas.sound_speed"],
    }
    for fn in GEOMETRY:
        m[f"geometry.{fn}_s"] = busy[f"geometry.{fn}"]
        m[f"geometry.{fn}_calls"] = calls[f"geometry.{fn}"]
    m["geometry.evolve_u_rss_mib"] = rss_kib["geometry.evolve_u"] / 1024.0
    m["energies.report_s"] = busy["energies.report"]
    m["energies.self_s"] = self_time["energies.report"]
    for fn in ENERGY_KERNELS:
        m[f"energies.{fn}_s"] = busy[f"energies.{fn}"]
        m[f"energies.{fn}_calls"] = calls[f"energies.{fn}"]
    m["energies.sl_reuse_ratio"] = ratio(len(sl_pairs), calls["energies.semi_lagrangian"])
    m["energies.report_rss_mib"] = rss_kib["energies.report"] / 1024.0
    m["harness.run_single_s"] = busy["harness.run_single"]
    m["harness.self_s"] = self_time["harness.run_single"]
    m["harness.study_s"] = busy["harness.run_study"]
    m["harness.cache_hit_s"] = cache_hit
    m["snapshot_io.write_s"] = busy["snapshot_io.write_snapshot"] + busy["snapshot_io.write_planes"]
    m["snapshot_io.files_written"] = (calls["snapshot_io.write_snapshot"]
                                      + calls["snapshot_io.write_planes"])
    return m, sorted(missing)
