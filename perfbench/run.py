"""rarewave benchmark: end-to-end timing of the CLI, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the package is imported from its
`src` directory and scratch output goes to `.perfbench_out/`.  Every
invocation is a fresh `python3 perfbench/invoke.py` process running the
public `rarewave run` / `rarewave study` entry point, timed with os.wait4
so that CPU time and peak RSS cover the process and the workers it reaped.

--trace 0 first takes set-up samples, then repeats workload invocations
while they fit in --seconds (at least one), checks the outputs of each, and
reports the medians of the end-to-end metrics.  --trace 1 makes one
untraced and one traced invocation and reports the per-layer metrics of
tracer.py.  The last line of standard output is the JSON result; the lines
before it give each metric with its quartiles and sample count, and the
provenance of the run.  See NOTES.md for why the workloads are these.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
DIGESTS = WORK / "csv_digests.json"
DEFAULT_SEED = 2024  # the config default; reference.json holds its scalars
SETUP_SAMPLES = 8
RUN_LIMIT_S = 170.0  # every child is killed once the run has taken this long
MIB = 1024.0  # ru_maxrss is in KiB on Linux


@dataclass(frozen=True)
class Workload:
    n1: int
    n2: int
    snapshots: int
    orders: int
    u_levels: int
    save_snapshots: str
    workers: int = 1
    ladder: str = ""  # epsilon ladder of a study; empty for a single run

    @property
    def passes(self) -> int:
        # a study is run twice: the second pass must come from the run cache
        return 2 if self.ladder else 1

    def config(self, seed: int) -> str:
        sections = {
            "grid": {"n1": self.n1, "n2": self.n2},
            "time": {"delta": 0.1, "t_star": 1.0},
            "band": {"u_star": 1.5, "u_lo": 0.3, "u_glue": 1.9},
            "perturbation": {"epsilon": 0.01, "seed": seed},
            "solver": {"snapshots": self.snapshots},
            "analysis": {"orders": self.orders, "u_levels": self.u_levels,
                         "save_snapshots": self.save_snapshots, "workers": self.workers},
        }
        return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       for name, keys in sections.items())

    def cli_args(self, cfg: Path, out: Path) -> list:
        if self.ladder:
            return ["study", "epsilon_scaling", str(cfg), "--ladder", self.ladder,
                    "--out", str(out)]
        return ["run", str(cfg), "--out", str(out)]


WORKLOADS = {
    "single_512": Workload(512, 128, snapshots=21, orders=1, u_levels=4,
                           save_snapshots="none"),
    "eps_study_dense": Workload(256, 128, snapshots=81, orders=0, u_levels=2,
                                save_snapshots="all", workers=2, ladder="0.01,0.005"),
}


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S:.0f} s")


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_kib: int
    setup: float


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def spawn(args: list, log: Path, mark: Path, deadline: float) -> Proc:
    """Run `python3 args...` in its own process group and wait for it."""
    mark.unlink(missing_ok=True)
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, *map(str, args)], child_env(),
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                           (os.POSIX_SPAWN_DUP2, fd, 2)],
                             setpgroup=0)
    finally:
        os.close(fd)
    signal.setitimer(signal.ITIMER_REAL, max(deadline - t0, 0.001))
    try:
        _, status, ru = os.wait4(pid, 0)
        t1 = time.monotonic()
    except RunTimeout:
        _kill_group(pid)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    setup = float(mark.read_text()) - t0 if mark.exists() else float("nan")
    return Proc(os.waitstatus_to_exitcode(status), t1 - t0,
                ru.ru_utime + ru.ru_stime, ru.ru_maxrss, setup)


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    os.waitpid(pgid, 0)
    for _ in range(500):  # orphaned pool workers are reaped by init
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Bench:
    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.wl = WORKLOADS[name]
        self.work = WORK / f"{name}-seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cfg = self.work / "workload.cfg"
        self.cfg.write_text(self.wl.config(seed))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.source = source_digest()
        self.digests = None  # CSV digests of the first checked invocation
        self.setups: list = []
        self.attempted = 0
        self.failed = 0

    def _child(self, extra: list, log: str) -> Proc:
        args = [HERE / "invoke.py", "--config", self.cfg, "--mark", self.work / "mark", *extra]
        return spawn(args, self.work / log, self.work / "mark", self.deadline)

    def setup_only(self) -> float:
        p = self._child(["--setup-only"], "setup.log")
        if p.code != 0:
            raise SystemExit(f"set-up failed, see {self.work / 'setup.log'}")
        return p.setup

    def invoke(self, tag: str, trace_dir: Path | None = None) -> dict:
        """One workload invocation: all passes, then the output checks."""
        out = self.work / tag
        shutil.rmtree(out, ignore_errors=True)
        procs = []
        for k in range(1, self.wl.passes + 1):
            extra = ["--trace", trace_dir, "--run-id", f"pass{k}"] if trace_dir else []
            procs.append(self._child([*extra, "--", *self.wl.cli_args(self.cfg, out)],
                                     f"{tag}-pass{k}.log"))
        self.setups += [p.setup for p in procs if not math.isnan(p.setup)]
        problems, read_s = self.check(out, procs)
        bytes_written = sum(f.stat().st_size for f in out.rglob("*.rwl"))
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        self.failed += bool(problems)
        for p in problems:
            print(f"FAILED {tag}: {p}")
        return {"wall_s": sum(p.wall for p in procs), "cpu_s": sum(p.cpu for p in procs),
                "peak_rss_mib": max(p.rss_kib for p in procs) / MIB,
                "read_s": read_s, "bytes_written": bytes_written}

    def check(self, out: Path, procs: list) -> tuple:
        """(problems, seconds spent reading saved snapshots back).

        The checks run in a child process, so that this process never holds
        a report or a snapshot: Linux folds the parent's RSS high-water mark
        into the ru_maxrss of every child it spawns afterwards.
        """
        problems = [f"pass {k} exited with {p.code}, see {self.work}"
                    for k, p in enumerate(procs, start=1) if p.code != 0]
        if problems:
            return problems, 0.0
        cmd = [sys.executable, str(HERE / "checks.py"), str(out)]
        if self.wl.ladder:
            cmd.append("--study")
        if self.wl.save_snapshots == "all":
            cmd.append("--read-back")
        if self.seed == DEFAULT_SEED:
            cmd += ["--reference", self.name]
        try:
            done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                                  timeout=max(self.deadline - time.monotonic(), 0.001))
        except subprocess.TimeoutExpired:
            raise RunTimeout(f"run exceeded {RUN_LIMIT_S:.0f} s") from None
        if done.returncode != 0:
            return [f"output check crashed: {done.stderr.strip()[-2000:]}"], 0.0
        result = json.loads(done.stdout)
        problems = result["problems"]
        if self.digests is None:
            self.digests = result["digests"]
            problems += self._check_stored_digests(result["digests"])
        else:
            problems += digest_problems(result["digests"], self.digests,
                                        "the first invocation of this run")
        return problems, result["read_s"]

    def _check_stored_digests(self, digests: dict) -> list:
        """Compare with, or record, the CSV digests of earlier runs of this code and seed."""
        key = f"{self.source}:{self.name}:{self.seed}"
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        if key in stored:
            return digest_problems(digests, stored[key], "an earlier run")
        stored[key] = digests
        tmp = DIGESTS.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1))
        os.replace(tmp, DIGESTS)
        return []


def digest_problems(digests: dict, expected: dict, against: str) -> list:
    if digests == expected:
        return []
    differ = sorted(k for k in digests.keys() | expected.keys()
                    if digests.get(k) != expected.get(k))
    return [f"CSV bytes differ from {against}: {', '.join(differ)}"]


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "rarewave").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def provenance(bench: Bench) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {"workload": bench.name, "seed": bench.seed, "git_commit": commit,
            "source_sha256_16": bench.source, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": importlib.metadata.version("numpy"),
            "config": bench.wl.config(bench.seed), "cli": bench.wl.cli_args(
                Path("workload.cfg"), Path("out")), "passes": bench.wl.passes}


def spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} q3 {q3:.4g} n={len(values)}"


UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_mib", "MiB"),
         ("_calls", "count"), ("files_written", "count"), ("bytes_written", "B"),
         ("_ratio", "ratio"), ("_speedup", "ratio"), ("_s", "s"))


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS if name.endswith(suffix))


def timed(bench: Bench, seconds: float) -> dict:
    bench.setup_only()  # untimed: fills the page cache and writes the bytecode cache
    start = time.monotonic()
    # set-up samples before and after the invocations see more of the machine's
    # slow and fast phases than a burst would
    setups = [bench.setup_only() for _ in range(SETUP_SAMPLES // 2)]
    runs, took = [], []
    while True:
        t0 = time.monotonic()
        runs.append(bench.invoke(f"inv{len(runs)}"))
        took.append(time.monotonic() - t0)  # the invocation and its output checks
        # the run ends within `seconds`, set-up samples after the invocations included
        rest = statistics.median(took) + (SETUP_SAMPLES // 2 + 1) * statistics.median(setups)
        if time.monotonic() - start + rest > seconds:
            break
    setups += [bench.setup_only() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    samples = {k: [r[k] for r in runs] for k in ("wall_s", "cpu_s", "peak_rss_mib")}
    samples["setup_s"] = setups + bench.setups
    print(f"workload {bench.name}: {len(runs)} invocations of {bench.wl.passes} "
          f"process(es), {len(samples['setup_s'])} set-up samples")
    metrics = {}
    for name, vals in samples.items():
        metrics[name] = statistics.median(vals)
        print(f"  {name:16s} {metrics[name]:12.4f} {unit_of(name):5s} median, {spread(vals)}")
    print(f"  {'failed_fraction':16s} {bench.failed / bench.attempted:12.4f} ratio "
          f"({bench.failed} of {bench.attempted})")
    return metrics


def traced(bench: Bench) -> dict:
    bench.setup_only()
    plain = bench.invoke("untraced")
    trace_dir = bench.work / "trace"
    trace_dir.mkdir()
    spans = bench.invoke("traced", trace_dir)
    metrics, missing = tracer.summarise(trace_dir, bench.wl.n1 * bench.wl.n2)
    metrics["harness.parallel_speedup"] = plain["cpu_s"] / plain["wall_s"]
    metrics["snapshot_io.bytes_written"] = spans["bytes_written"]
    metrics["snapshot_io.read_s"] = spans["read_s"]
    metrics["trace.overhead_s"] = spans["wall_s"] - plain["wall_s"]
    print(f"workload {bench.name}: traced wall {spans['wall_s']:.3f} s, "
          f"untraced wall {plain['wall_s']:.3f} s")
    if bench.wl.workers > 1:
        print(f"  study members run in {bench.wl.workers} forked pool workers, which "
              "inherit the wrappers and write their own span files")
    if missing:
        print(f"  missing wrapped names (their metrics read 0): {', '.join(missing)}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit_of(name)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "rarewave" / "__init__.py").is_file():
        print(f"no rarewave sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    bench = Bench(args.workload, args.seed)
    try:
        metrics = traced(bench) if args.trace else timed(bench, args.seconds)
    except RunTimeout as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(provenance(bench)))
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
