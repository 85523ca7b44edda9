"""Experiment orchestration: configuration, single runs, studies, reports.

Configs are flat key=value text under [section] headers.  A single run
simulates the perturbed expansion-wave problem, reconstructs the front
foliation, and measures residuals, sign monitors, scaling quantities and
energies; studies aggregate runs over resolution, amplitude or start-time
ladders into JSON/CSV reports with gnuplot-ready data files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from queue import Queue
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import energies as en
from . import geometry as geo
# `run` is unused here but re-exported: the benchmark tracer patches it in this module
from .euler2d import (FlowField, Grid, PerturbationMode, PerturbationSpec, SolverConfig,  # noqa: F401
                      check_fan_strip, clamped_fan_profile, init_perturbed_rarefaction,
                      iter_run, run, total_mass)
from .gas import PolytropicGas, density_from_sound_speed
from .snapshot_io import write_csv, write_planes, write_snapshot

__all__ = [
    "ConfigError",
    "RunConfig",
    "StudySpec",
    "STUDY_KINDS",
    "TABLES",
    "parse_config",
    "run_single",
    "run_study",
    "emit_plots",
    "table_records",
]


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending line when known."""


# each snapshot gets a partner this many cell-crossing times later, so that
# two-time derivatives refine with the grid
PAIR_CELLS = 4
# the Riemann invariants whose energies a run measures, in report order
PSIS = ("wbar", "w", "psi2")


@dataclass
class RunConfig:
    # gas / background fan
    gamma: float = 2.0
    k0: float = 0.5
    v0: float = 0.0
    c0: float = 1.0
    # grid
    n1: int = 1024
    n2: int = 128
    x1_min: float = -2.4
    x1_max: float = 2.2
    # time window
    delta: float = 0.05
    t_star: float = 1.0
    # tracked band and data glue; u_lo excludes the front-corner layer that
    # the first-order solver smears into the foliation history
    u_star: float = 1.5
    u_lo: float = 0.3
    u_glue: float = 1.9
    # perturbation; k1 = 0 selects the plateau profile
    epsilon: float = 0.01
    seed: int = 2024
    modes: Tuple[Tuple[int, int, float], ...] = ((0, 1, 1.0), (0, 2, 0.5))
    strip_lo: float = -0.35
    strip_hi: float = 1.95
    # solver
    cfl: float = 0.45
    snapshots: int = 21
    # analysis
    orders: int = 1
    u_levels: int = 4
    save_snapshots: str = "ends"  # none | ends | all
    workers: int = 1
    # output
    out_dir: str = "runs"

    def validate(self):
        if self.c0 <= 0.0:
            raise ConfigError("c0 must be positive")
        if self.v0 + self.c0 <= 0.0:
            raise ConfigError("fan head speed v0 + c0 must be positive")
        if self.delta <= 0.0:
            raise ConfigError("delta must be positive")
        # the gas, grid, fan strip, perturbation and solver objects check their own fields
        try:
            self.gas()
            grid = self.grid()
            check_fan_strip(grid, self.delta, self.v0 + self.c0, self.u_glue)
            self.perturbation()
            SolverConfig(cfl=self.cfl)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.delta < 4.0 * grid.dx1 / (self.v0 + self.c0):
            raise ConfigError(
                f"delta = {self.delta} under-resolves the fan: needs at least "
                f"4*dx1/(v0+c0) = {4.0 * grid.dx1 / (self.v0 + self.c0):.4g}")
        if not self.delta < self.t_star <= 1.0:
            raise ConfigError("need delta < t_star <= 1")
        vacuum = (self.gamma + 1.0) / (self.gamma - 1.0) * self.c0
        if not 0.0 < self.u_star <= vacuum:
            raise ConfigError(
                f"u_star = {self.u_star} outside (0, vacuum bound {vacuum:.4g}]")
        if not self.u_star < self.u_glue < vacuum:
            raise ConfigError(
                f"u_glue = {self.u_glue} must lie in (u_star, vacuum bound {vacuum:.4g})")
        if not 0.0 <= self.u_lo < self.u_star:
            raise ConfigError("u_lo must lie in [0, u_star)")
        if self.snapshots < 2:
            raise ConfigError("need at least 2 snapshots")
        first = self.ladder()[0][0]
        if first < self.delta:
            raise ConfigError(f"the snapshot ladder starts at t = {first:.4g}, before "
                              f"delta = {self.delta}: a partner time precedes the start")
        if not (self.x1_min < self.strip_lo and self.strip_hi < self.x1_max):
            raise ConfigError("perturbation strip must sit inside the x1 domain")
        if self.orders < 0 or self.orders > en.ORDER_CAP:
            raise ConfigError(f"orders must lie in [0, {en.ORDER_CAP}]")
        if self.u_levels < 1:
            raise ConfigError("u_levels must be at least 1")
        if self.save_snapshots not in ("none", "ends", "all"):
            raise ConfigError(f"unknown save_snapshots {self.save_snapshots!r}")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        return self

    def gas(self) -> PolytropicGas:
        return PolytropicGas(self.gamma, self.k0)

    def grid(self) -> Grid:
        return Grid(self.n1, self.n2, self.x1_min, self.x1_max)

    def perturbation(self) -> PerturbationSpec:
        rng = np.random.default_rng(self.seed)
        modes = tuple(
            PerturbationMode(k1=k1, k2=k2, amplitude=amp,
                             phase=float(rng.uniform(0.0, 2.0 * math.pi)))
            for (k1, k2, amp) in self.modes)
        return PerturbationSpec(epsilon=self.epsilon, modes=modes,
                                strip=(self.strip_lo, self.strip_hi))

    def base_times(self) -> np.ndarray:
        # geometric spacing: the flow scales like 1/t near the start time, so
        # uniform snapshot gaps would under-resolve the early foliation
        ratio = self.t_star / self.delta
        return self.delta * ratio ** (np.arange(self.snapshots) / (self.snapshots - 1.0))

    def ladder(self):
        """(all snapshot times, base indices, partner indices).

        Each base time gets a partner PAIR_CELLS cell-crossing times later
        (earlier for the final time); near-coincident points are merged.
        """
        base = self.base_times()
        gap = PAIR_CELLS * self.grid().dx1 / (self.v0 + self.c0)
        pts = list(base)
        for t in base:
            pts.append(t + gap if t + gap <= self.t_star + 1e-12 else t - gap)
        pts = sorted(pts)
        merged = [pts[0]]
        for p in pts[1:]:
            if p - merged[-1] > 0.05 * gap:
                merged.append(p)
        merged = np.asarray(merged)

        def locate(t):
            return int(np.argmin(np.abs(merged - t)))

        base_idx = [locate(t) for t in base]
        pair_idx = [locate(t + gap if t + gap <= self.t_star + 1e-12 else t - gap)
                    for t in base]
        return merged, base_idx, pair_idx

    def solver(self) -> SolverConfig:
        times, _, _ = self.ladder()
        return SolverConfig(cfl=self.cfl, snapshot_times=tuple(times))

    def content_hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class StudySpec:
    kind: str  # a key of STUDY_KINDS
    ladder: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ConfigError(f"unknown study kind {self.kind!r}")
        if STUDY_KINDS[self.kind] is not None and len(self.ladder) < 2:
            raise ConfigError(f"{self.kind} study needs a ladder of at least 2 values")
        if not all(map(math.isfinite, self.ladder)):
            raise ConfigError(f"ladder values must be finite: {self.ladder}")


# ---------------------------------------------------------------------------
# config text parsing

# each section's keys; a key names the RunConfig field it sets, whose
# default's type gives the type of its value
_SECTIONS = {
    "gas": ("gamma", "k0"),
    "fan": ("v0", "c0"),
    "grid": ("n1", "n2", "x1_min", "x1_max"),
    "time": ("delta", "t_star"),
    "band": ("u_star", "u_lo", "u_glue"),
    "perturbation": ("epsilon", "seed", "modes", "strip_lo", "strip_hi"),
    "solver": ("cfl", "snapshots"),
    "analysis": ("orders", "u_levels", "save_snapshots", "workers"),
    "output": ("dir",),
}
_FIELD_OF_KEY = {"dir": "out_dir"}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _parse_modes(text: str):
    modes = []
    for part in text.split(","):
        bits = part.strip().split(":")
        if len(bits) != 3:
            raise ValueError(f"mode {part!r} is not k1:k2:amplitude")
        modes.append((int(bits[0]), int(bits[1]), _finite(bits[2])))
    return tuple(modes)


# the parser of a config value, by the type of its field's default
_PARSERS = {float: _finite, int: int, str: str, tuple: _parse_modes}


def parse_config(text: str) -> RunConfig:
    """Parse key=value sections into a validated RunConfig."""
    values: Dict[str, object] = {}
    given_on: Dict[str, int] = {}  # the line of each value
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _SECTIONS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        name = _FIELD_OF_KEY.get(key, key)
        if name in given_on:
            raise ConfigError(f"line {lineno}: {key} is given twice, first on line "
                              f"{given_on[name]}")
        given_on[name] = lineno
        try:
            values[name] = _PARSERS[type(getattr(RunConfig, name))](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return RunConfig(**values).validate()


# ---------------------------------------------------------------------------
# single run

def _x2_variation(s: FlowField, worst: float) -> float:
    """worst, raised to the largest x2 variation of a conserved plane of s."""
    q = s.q[:, 1:-1]
    d = q - q[..., :1]
    return max(worst, float(np.max(np.abs(d, out=d))))


def _l1_fan_error(cfg: RunConfig, snapshot: FlowField) -> float:
    gas, grid = snapshot.gas, snapshot.grid
    X1, _ = grid.mesh()
    _, c_exact = clamped_fan_profile(gas, cfg.v0, cfg.c0, cfg.u_glue, X1, snapshot.time)
    rho_exact = density_from_sound_speed(gas, c_exact)
    return float(np.sum(np.abs(snapshot.rho - rho_exact))) * grid.dx1 * grid.dx2


def _source_digest() -> str:
    """SHA-256 of the package's Python sources."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_single(cfg: RunConfig, out_dir: Optional[Path] = None, *,
               concurrent_runs: int = 1) -> dict:
    """Simulate, reconstruct the foliation, measure everything, write reports.

    Returns the report dict; also persists report.json, CSV tables and a
    MANIFEST under out_dir (skipping the work when a completed manifest
    with the same config hash, package version, source digest and numpy
    version is already present).  concurrent_runs is the number of runs the
    calling process tree runs at once (a pooled study passes its pool size);
    it only decides where the flow solve runs (`_solve_plan`).
    """
    cfg.validate()
    key = {"config_hash": cfg.content_hash(), "version": __version__,
           "source_sha256": _source_digest(), "numpy": np.__version__}
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir) / f"run-{key['config_hash']}"
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "MANIFEST.json"
    report_path = out / "report.json"
    manifest = _read_json(manifest_path) or {}
    if manifest.get("status") == "completed" and all(manifest.get(k) == v for k, v in key.items()):
        report = _read_json(report_path)
        if report is not None:
            report["cached"] = True
            return report
    solve = _solve_plan(concurrent_runs)
    _write_json(manifest_path, {"status": "running", **key, "solve": solve})
    try:
        report = _run_single_inner(cfg, out, key["config_hash"], solve["process"])
    except Exception as exc:
        _write_json(manifest_path, {"status": "failed", **key, "solve": solve,
                                    "error": repr(exc)})
        raise
    _write_json(report_path, report, indent=1)
    _write_json(manifest_path, {"status": "completed", **key, "solve": solve})
    return report


def _read_json(path: Path):
    """Parsed contents of a JSON file, or None when it is missing or unreadable
    (for instance truncated by a killed run)."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _write_json(path: Path, obj, indent: Optional[int] = None) -> None:
    """Write JSON to a temporary file and rename it over path, so a killed
    run never leaves a truncated file behind."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, indent=indent))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# the flow solve: inline, or ahead of the run in a forked child

def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _solve_plan(concurrent_runs: int) -> dict:
    """Where a run's flow solve runs, and the CPU count that decided it.

    The solve runs ahead of the run in a forked child when the usable CPUs
    are at least twice the runs this process tree runs at once, so that the
    child has a core of its own; a child per member of a pool that already
    fills the cores costs more wall time than it saves.
    """
    cpus = _usable_cpus()
    forked = (cpus >= 2 * concurrent_runs
              and "fork" in multiprocessing.get_all_start_methods()
              and not multiprocessing.current_process().daemon)  # daemons may not fork
    return {"process": "forked" if forked else "inline", "cpus": cpus}


# snapshots that the forked solve queues for its sender thread beyond the one
# being sent; with one, the solve no longer waits on the pipe (four measured
# the same)
SEND_AHEAD = 1


def _send_snapshots(conn, parent_end, field0: FlowField, solver: SolverConfig) -> None:
    """Body of the forked solve: for each snapshot of iter_run, its time and
    boundary mass flux, then the raw bytes of its padded state q, written on
    the pipe's descriptor outside the connection's framing; after the last,
    None.  A solver error is sent in place of the rest.

    A sender thread sends them from a queue of SEND_AHEAD snapshots, so the
    solve goes on while the run is busy; a queued snapshot is a buffer that
    the solve never writes again.
    """
    # with the inherited read end closed, a send fails once the parent has
    # gone (killed, say), instead of blocking forever
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends this process
    queue = Queue(SEND_AHEAD)
    gone = threading.Event()
    sender = threading.Thread(target=_send_queued, args=(conn, queue, gone), daemon=True)
    sender.start()
    try:
        for s in iter_run(field0, solver):
            queue.put(s)
            if gone.is_set():  # nobody reads the rest
                return
        last = None
    except Exception as exc:
        last = exc
    queue.put(last)
    sender.join()


def _send_queued(conn, queue: Queue, gone: threading.Event) -> None:
    """Sender thread of `_send_snapshots`: sends the queued snapshots in
    order, then the None or solver error that ends the queue.  Once the
    pipe is broken it sets gone and takes the rest unsent, so that the solve
    never blocks on a full queue."""
    item = queue.get()
    try:
        while isinstance(item, FlowField):
            conn.send((item.time, item.boundary_mass_flux))
            view = memoryview(item.q).cast("B")
            while view:  # a pipe takes a write in parts
                view = view[os.write(conn.fileno(), view):]
            item = queue.get()
        conn.send(item)
    except BrokenPipeError:
        gone.set()
        while isinstance(item, FlowField):
            item = queue.get()


def _received_snapshots(conn, child, gas: PolytropicGas, grid: Grid) -> Iterator[FlowField]:
    """The snapshots `_send_snapshots` sends, each read straight into one
    fresh padded (3, n1+2, n2) buffer, ghost rows included; a solver error is
    raised at the point of the stream where the solve stopped."""
    while True:
        try:
            msg = conn.recv()
            if isinstance(msg, tuple):
                q = np.empty((3, grid.n1 + 2, grid.n2))
                view = memoryview(q).cast("B")
                while view:
                    got = os.readv(conn.fileno(), [view])
                    if not got:  # the child died within the state
                        raise EOFError
                    view = view[got:]
        except (EOFError, OSError):  # OSError: the child died within a message
            child.join()
            raise RuntimeError(f"the solver process ended with exit code {child.exitcode} "
                               "before sending every snapshot") from None
        if msg is None:
            return
        if isinstance(msg, BaseException):
            raise msg
        time, boundary_mass_flux = msg
        yield FlowField(gas, grid, time, q, boundary_mass_flux)


@contextlib.contextmanager
def _snapshots(field0: FlowField, solver: SolverConfig, process: str):
    """The snapshot stream of iter_run(field0, solver), solved in this
    process ("inline") or in a forked child ("forked").

    The child's sender thread sends from a queue of SEND_AHEAD snapshots.
    While the parent reads nothing, the child finishes at most SEND_AHEAD + 2
    snapshots beyond those that the pipe holds whole: one being sent, the
    queued ones and one waiting to be queued.  The parent reads one at a
    time.  The child is ended on every exit from the block, an exception
    included, before that exception leaves the block.  Neither
    path keeps field0 past the first snapshot: an inline solve holds it until
    its first step, and a forked one keeps its gas and grid alone.
    """
    if process == "inline":
        stream = iter_run(field0, solver)
        del field0
        yield stream
        return
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_snapshots, args=(child_end, conn, field0, solver),
                        name="rarewave-solve", daemon=True)
    child.start()  # which drops its args
    child_end.close()
    gas, grid = field0.gas, field0.grid
    del field0
    try:
        yield _received_snapshots(conn, child, gas, grid)
    finally:
        child.terminate()
        child.join()
        conn.close()


class Table(NamedTuple):
    csv: Optional[str]  # its CSV file; None for a table that only report.json holds
    columns: Tuple[str, ...]
    in_report: bool = True  # whether report.json holds it, under its name


# every table of a run, in report order, each row a list in column order; only
# the code that builds a row places values by position, every reader finds a
# column by name (`table_records`)
TABLES = {
    "conservation": Table("conservation.csv", ("t", "mass", "boundary_outflow", "drift"),
                          in_report=False),
    "kappa_stats": Table("kappa_stats.csv", ("t", "max_kappa_over_t_dev", "max_mu_identity_dev")),
    "frame_stats": Table("frame_stats.csv",
                         ("t", "max_that1p1", "max_that2", "max_chi", "max_zeta", "max_eta")),
    "monitors": Table("monitors.csv", ("t", "min_L_mu", "max_L_mu", "min_T_wbar", "max_T_wbar",
                                       "min_Lbar_wbar", "max_Lbar_wbar")),
    "second_frame_stats": Table("second_frame.csv", ("t", "max_yt", "max_zt", "max_y", "max_z")),
    "residuals": Table("residuals.csv", ("t", "commutation_y", "commutation_z", "structure_kappa",
                                         "structure_that1", "structure_that2", "structure_chi")),
    "data_predicates": Table(None, tuple(f.name for f in dataclasses.fields(en.PredicateLine))),
    "energies": Table("energies.csv", tuple(f.name for f in dataclasses.fields(en.EnergyRow))),
}


def table_records(report: dict, table: str) -> List[dict]:
    """A run report's table (empty if it lacks it) as {column: value} dicts."""
    return [dict(zip(TABLES[table].columns, row)) for row in report.get(table, [])]


def _band_stats(sl: geo.Slice):
    """The kappa_stats and frame_stats rows of a base slice's band, from a frame
    that holds its band rows and one more row each side, which the x1
    derivative of mu in the torsion eta reads; none when the band is empty."""
    if not np.any(sl.band):
        return ()
    wide = sl.grid.around(*sl.band_rows, 1)
    geo.check_rows(wide.lo, wide.hi, sl.grid, sl.time, "the band statistics")
    m, c = sl.band, sl.c
    zeta, eta = geo.torsions(sl)

    def row(*values):
        return [sl.time, *(float(np.max(np.abs(a))) for a in values)]

    return (row(sl.kappa[m] / sl.time - 1.0, sl.mu[m] - c[m] * sl.kappa[m]),
            row(sl.that1[m] + 1.0, sl.that2[m], sl.chi[m], zeta[m], eta[m]))


def _pair_rows(pair: geo.PairDiagnostics, bases: Sequence[geo.Slice]):
    """Sign-monitor, second-frame and residual rows of the evaluator's slice
    pair, one per base slice in bases (each one of the pair's slices); none
    when bases or the band of the pair's first slice is empty."""
    m, grid = pair.s0.band, pair.grid
    if not (bases and np.any(m)):
        return

    def max_abs(a, sel, rec, what):
        return float(np.max(np.abs(geo.band_values(a, sel, grid, rec.time, what))))

    mon = pair.sign_monitors(m)
    structure = [max_abs(res, sel, pair.s0, f"structure residual {name}")
                 if np.any(sel := m & ok) else float("nan")
                 for name, (res, ok) in pair.structure_residuals().items()]
    del pair.generator  # frees its eight planes: the commutation residuals do not use it
    commutation = [max_abs(pair.commutation_residual_y(), m, pair.s0, "commutation residual y"),
                   max_abs(pair.commutation_residual_z(), m, pair.s0, "commutation residual z")]
    for rb in bases:
        frame = geo.second_frame(rb)
        yscale = [rb.time, *(max_abs(a, rb.band, rb, "second frame")
                             for a in (frame.yt, frame.zt, frame.y, frame.z))]
        yield ([rb.time, *mon["L_mu"], *mon["T_wbar"], *mon["Lbar_wbar"]], yscale,
               [rb.time, *commutation, *structure])


def _forward_pair(base: geo.Slice, partner: geo.Slice, rows: Grid) -> geo.PairDiagnostics:
    """The evaluator of a forward pair on rows, the base's window: the
    partner is framed without its band, which nothing reads and which may
    reach past rows."""
    unbanded = geo.Slice(partner)
    unbanded.u = partner.u
    return geo.PairDiagnostics(geo.frame_fields(base, rows), geo.frame_fields(unbanded, rows))


def _run_single_inner(cfg: RunConfig, out: Path, config_hash: str, process: str) -> dict:
    """One pass over the slices in time order, the solve running `process`
    (see `_snapshots`).

    Each slice's record (a `geometry.Slice` foliated by u: v1, v2, c, u and
    the band mask) and the rows its band results read are formed as the
    solve reaches it and serve every consumer: rays, band statistics,
    predicates and the one `PairDiagnostics` of each slice pair it closes,
    which the energies and the pair diagnostics share.  The record is framed
    (`geometry.frame_fields`) on the rows that are read: a pair on its band
    window, slice 0 for the predicates and the final foliation file on the
    whole grid.  The band statistics of a base slice read slice 0's frame or
    slice k's frame of the pair (k - 1, k); the rays read the records of
    slices k - 1 and k on the rows they reach.  The snapshot itself serves only the bookkeeping
    and the file of its own iteration, so it is not kept.  A record is
    dropped once the last slice that closes a pair with it has formed that
    pair; only scalars are kept across the run.

    A forward pair (k0, k1), k1 > k0 + 1, is a (base, partner) pair whose
    base entries all have k0 as their base: it reads slice k0's band alone,
    so its window is the hull of k0's read rows plus the halo, fixed once
    k0's energy pair (k0, k0 + 1) is done.  A record that then waits only for
    forward pairs is `cut` to the rows their frames read, and slice k1 is
    framed on that window without its band, which nothing reads.  Every
    other pair's window holds the read rows of both its slices.
    """
    gas, grid = cfg.gas(), cfg.grid()
    ladder, base_idx, pair_idx = cfg.ladder()
    last = len(ladder) - 1
    # the run's distinct slice pairs by later slice: closes[k1][k0] lists the base
    # entries whose diagnostics use (k0, k1); the energies use every (k - 1, k)
    closes: Dict[int, Dict[int, List[int]]] = {k: {k - 1: []} for k in range(1, last + 1)}
    for j, (kb, kp) in enumerate(zip(base_idx, pair_idx)):
        closes[max(kb, kp)].setdefault(min(kb, kp), []).append(j)
    # the last slice that closes a pair with each earlier slice
    last_use = {k0: k1 for k1, pairs in closes.items() for k0 in pairs}
    # the slices k1 > k0 + 1 that close a pair with k0, and the forward pairs among them
    later: Dict[int, List[int]] = {}
    for k1, pairs in closes.items():
        for k0 in pairs:
            if k1 > k0 + 1:
                later.setdefault(k0, []).append(k1)
    forward = {(k0, k1) for k0, k1s in later.items() for k1 in k1s
               if all(base_idx[j] == k0 for j in closes[k1][k0])}
    seeds_u = np.linspace(cfg.u_lo + 0.1, cfg.u_star - 0.1, 5)
    x1_seed = ((cfg.v0 + cfg.c0) - seeds_u) * cfg.delta
    x2_seed = np.full_like(x1_seed, math.pi)
    u_values = list(np.linspace(cfg.u_star / cfg.u_levels, cfg.u_star, cfg.u_levels))
    orders = list(range(cfg.orders + 1))
    energy_args = dict(psis=PSIS, orders=orders, u_values=u_values, u_min=cfg.u_lo)

    field0 = init_perturbed_rarefaction(gas, grid, cfg.delta, (cfg.v0, cfg.c0),
                                        cfg.perturbation(), u_glue=cfg.u_glue)
    u_init = (cfg.v0 + cfg.c0) - grid.mesh()[0] / cfg.delta

    window: Dict[int, geo.Slice] = {}
    reads: Dict[int, Tuple[int, int]] = {}  # the rows that each record's band results read
    ahead: Dict[Tuple[int, int], Grid] = {}  # the window of each forward pair, once fixed
    tables: Dict[str, list] = {name: [] for name in TABLES}

    def band_stats(k: int, sl: geo.Slice):
        """Pointwise foliation statistics over the tracked band at base times,
        from sl, a frame of slice k."""
        if k in base_idx:
            stats = _band_stats(sl)
            for _ in range(base_idx.count(k)):  # merged base times share a slice
                for name, row in zip(("kappa_stats", "frame_stats"), stats):
                    tables[name].append(row)
    times, energy_slices, pair_rows = [], [], {}
    x2_variation = 0.0
    with _snapshots(field0, cfg.solver(), process) as snapshots:
        del field0  # the stream holds it until slice 0's iteration ends
        # the level set reads each unframed slice as the loop forms it, so that
        # the loop, not the slice, holds the snapshot
        arrived: List[geo.Slice] = []
        level_set = geo.iter_evolve_u(iter(arrived.pop, None), u_init, cfl=cfg.cfl)
        for k, s in enumerate(snapshots):
            arrived.append(geo.Slice(s))
            flow, u = next(level_set)
            if k == last:
                level_set.close()  # its scratch and the previous slice's planes go
            rec = window[k] = geo.foliate(flow, u, geo.band_mask(u, cfg.u_lo, cfg.u_star))
            reads[k] = en.read_rows(rec, cfg.u_lo, u_values)
            times.append(rec.time)

            # conservation and symmetry bookkeeping, initial-slice predicates, and
            # the ray-traced cross-check of the level-set transport: u along a few
            # generator rays seeded across the band should stay constant
            x2_variation = _x2_variation(s, x2_variation)
            mass = total_mass(s)
            if k == 0:
                mass0 = mass
                rays = geo.RayTrace(rec, x1_seed, x2_seed)
                sl = geo.frame_fields(rec, grid)
                predicate_lines = en.check_data_predicates(sl, cfg.epsilon, cfg.delta, cfg.u_star)
                band_stats(k, sl)
                del sl
            else:
                rays.advance(rec)
            tables["conservation"].append([s.time, mass, s.boundary_mass_flux,
                                           mass + s.boundary_mass_flux - mass0])

            # one evaluator per pair closing here serves the energies of slice k-1 (and of
            # k at the end), then each (base, partner) pair mapping to it, which spans a few
            # cell-crossing times so that the two-time derivatives refine with the grid; it
            # sees both slices framed on the rows of their band window alone
            for k0, js in closes.get(k, {}).items():
                if (k0, k) in forward:
                    pair = _forward_pair(window[k0], rec, ahead.pop((k0, k)))
                else:
                    rows = en.band_window(window[k0], rec.time, (reads[k0], reads[k]), orders)
                    pair = geo.PairDiagnostics(geo.frame_fields(window[k0], rows),
                                               geo.frame_fields(rec, rows))
                s0, s1 = pair.slices
                if k0 == k - 1:
                    band_stats(k, s1)  # its window holds the band and more rows each side
                    for side in ((0, 1) if k == last else (0,)):
                        energy_slices.append(en.energies_of_slice(
                            pair, side, reads[(k0, k)[side]], **energy_args))
                pair_rows.update(zip(js, _pair_rows(pair, [s0 if base_idx[j] == k0 else s1
                                                           for j in js])))
                del pair, s0, s1  # their planes must not outlive the pair into the next slice
            for k0 in closes.get(k, {}):
                if last_use[k0] == k:
                    del window[k0], reads[k0]
            # slice k - 1's energy pair is done: its forward pairs' windows are fixed,
            # and a record that waits for nothing else keeps only the rows they frame
            kb = k - 1
            for k1 in later.get(kb, ()):
                if (kb, k1) in forward:
                    ahead[kb, k1] = en.band_window(window[kb], ladder[k1], (reads[kb],), orders)
            if kb in later and all((kb, k1) in ahead for k1 in later[kb]):
                fixed = [ahead[kb, k1].rows for k1 in later[kb]]
                window[kb].cut(grid.around(min(r.start for r in fixed), max(r.stop for r in fixed),
                                           geo.FRAME_DEPTH))

            if cfg.save_snapshots == "all" or (cfg.save_snapshots == "ends" and k in (0, last)):
                write_snapshot(s, out / f"snapshot_t{s.time:.4f}.rwl")
            if k == last:
                l1_fan_error = _l1_fan_error(cfg, s) if cfg.epsilon == 0.0 else None
                if cfg.save_snapshots != "none":
                    sl = geo.frame_fields(rec, grid)
                    zeta, eta = geo.torsions(sl)
                    write_planes(grid, sl.time, gas,
                                 {"u": sl.u, "kappa": sl.kappa, "mu": sl.mu,
                                  "that1": sl.that1, "that2": sl.that2, "chi": sl.chi,
                                  "zeta": zeta, "eta": eta},
                                 out / "foliation_final.rwl")

    for j in sorted(pair_rows):
        for name, row in zip(("monitors", "second_frame_stats", "residuals"), pair_rows[j]):
            tables[name].append(row)
    tables["data_predicates"] = [list(dataclasses.astuple(p)) for p in predicate_lines]
    energy_report = en.EnergyReport.from_slices(energy_slices, times, base_idx)
    tables["energies"] = [["" if v is None else v for v in dataclasses.astuple(r)]
                          for r in energy_report.rows]  # a row without rings leaves them ""

    u_along = np.stack(rays.u_along)
    report: dict = {
        "config": dataclasses.asdict(cfg),
        "config_hash": config_hash,
        "times": [times[k] for k in base_idx],
        "cached": False,
        "x2_variation": x2_variation,
        "mass_drift": [r["drift"] for r in table_records(tables, "conservation")],
        "l1_fan_error_final": l1_fan_error,
        "ray_u_drift": float(np.max(np.abs(u_along - u_along[0]))),
    }
    for name, table in TABLES.items():
        if table.csv is not None:
            write_csv(out / table.csv, table.columns, tables[name])
        if table.in_report:
            report[name] = tables[name]
    # measured growth-lemma instance at order 0 for w (fit + verdict)
    report["gronwall_fit"] = _measured_gronwall(cfg, energy_report, report["times"])
    return report


def _measured_gronwall(cfg: RunConfig, energy_report: en.EnergyReport, times) -> dict:
    """Fit hypothesis constants to the measured order-0 outgoing data for w."""
    u_vals = sorted({r.u for r in energy_report.rows})
    if len(u_vals) < 2 or cfg.epsilon == 0.0:
        return {"fitted": False}
    u_lattice = np.array([0.0] + u_vals)
    E = np.zeros((len(times), len(u_lattice)))
    F = np.zeros_like(E)
    for r in energy_report.rows:
        if r.psi != "w" or r.n != 0 or not np.isfinite(r.F):
            continue
        k = int(np.argmin(np.abs(np.asarray(times) - r.t)))
        j = int(np.argmin(np.abs(u_lattice - r.u)))
        E[k, j] = r.E
        F[k, j] = r.F
    try:
        inst = en.fit_gronwall_constants(E, F, np.asarray(times), u_lattice)
        verdict = en.gronwall_verify(inst)
        return {"fitted": True, "A": inst.A, "B": inst.B, "C": inst.C,
                "max_ratio": verdict.max_ratio, "passed": verdict.passed}
    except en.GronwallHypothesisError as exc:
        return {"fitted": True, "passed": False, "error": str(exc)}


# ---------------------------------------------------------------------------
# studies

def _member_config(cfg: RunConfig, kind: str, value: float) -> RunConfig:
    """The validated config of the member of a kind's study at a ladder value."""
    name = STUDY_KINDS[kind][0]
    typed = type(getattr(RunConfig, name))(value)  # the default's type: n1 is an int
    if typed != value:
        raise ConfigError(f"ladder value {value:g} is not a valid {name}")
    return dataclasses.replace(cfg, **{name: typed}).validate()


def _run_member(args):
    cfg, out_dir, concurrent_runs = args
    return run_single(cfg, out_dir=Path(out_dir), concurrent_runs=concurrent_runs)


def run_study(spec: StudySpec, cfg: RunConfig, out_dir: Optional[Path] = None) -> dict:
    """Execute the study members and aggregate their reports.

    Every member config is validated before any member runs; failures of
    individual runs are recorded and the study continues.
    """
    cfg.validate()
    kind = STUDY_KINDS[spec.kind]
    members = [(spec.kind, cfg)] if kind is None else [
        (f"{spec.kind}-{v:g}", _member_config(cfg, spec.kind, v)) for v in spec.ladder]
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir) / f"study-{spec.kind}"
    out.mkdir(parents=True, exist_ok=True)

    jobs = [(mc, str(out / name), min(cfg.workers, len(members))) for name, mc in members]
    results: List[Optional[dict]] = [None] * len(jobs)
    failures: List[str] = []
    with contextlib.ExitStack() as stack:
        if cfg.workers > 1:  # every member is submitted before the first result is read
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=cfg.workers))
            calls = [pool.submit(_run_member, j).result for j in jobs]
        else:
            calls = [functools.partial(_run_member, j) for j in jobs]
        for i, call in enumerate(calls):
            try:
                results[i] = call()
            except Exception as exc:
                failures.append(f"{members[i][0]}: {exc!r}")

    study = {"kind": spec.kind, "ladder": list(spec.ladder), "failures": failures,
             "members": [m[0] for m in members],
             "reports": [r for r in results]}
    if kind is not None and all(r is not None for r in results):
        study[spec.kind] = _null_nonfinite(kind[1](results))
    _write_json(out / "study.json", study, indent=1)
    emit_plots(study, out)
    return study


def _null_nonfinite(metrics: Dict[str, list]) -> Dict[str, list]:
    """A study metric block with each NaN or inf as None, which JSON writes as
    null: json.dumps would write bare NaN tokens that strict parsers reject."""
    return {name: [v if not isinstance(v, float) or math.isfinite(v) else None for v in vals]
            for name, vals in metrics.items()}


def _late_max(report: dict, table: str, column: str) -> float:
    """Max of the finite values of a report column at t >= 2*delta, or NaN if none."""
    vals = [r[column] for r in table_records(report, table)
            if r["t"] >= 2.0 * report["config"]["delta"] and math.isfinite(r[column])]
    return float(max(vals)) if vals else float("nan")


def _convergence_metrics(results: Sequence[dict]) -> dict:
    """Fan-error and residual ratios between consecutive resolutions."""
    out = {"n1": [r["config"]["n1"] for r in results]}
    errs = [r["l1_fan_error_final"] for r in results]
    if all(e is not None for e in errs):
        out["l1_fan_error"] = errs
        out["l1_ratios"] = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    for name in ("commutation_y", "commutation_z", "structure_kappa", "structure_that1",
                 "structure_that2"):
        vals = [_late_max(r, "residuals", name) for r in results]
        out[name] = vals
        out[name + "_ratios"] = _ratios(vals)
    return out


def _ratios(vals: Sequence[float]) -> List[float]:
    return [vals[i] / vals[i + 1] if vals[i + 1] else float("nan")
            for i in range(len(vals) - 1)]


def _at_largest(records: List[dict], column: str) -> List[dict]:
    """The records at the largest value of a column, in row order: of the
    energy records, the final time ("t") or the widest band ("u")."""
    top = max(r[column] for r in records)
    return [r for r in records if r[column] == top]


def _energy_at(report: dict, psi: str, n: int, ring: bool = False) -> float:
    """Energy at the final time and widest band from a report's rows."""
    for r in _at_largest(_at_largest(table_records(report, "energies"), "t"), "u"):
        if r["psi"] == psi and r["n"] == n:
            if ring:
                return float(r["E0ring"]) if r["E0ring"] != "" else float("nan")
            return r["E"] + r["Ebar"]
    return float("nan")


def _epsilon_metrics(results: Sequence[dict]) -> dict:
    quantities = {
        "max_that1p1": lambda r: _late_max(r, "frame_stats", "max_that1p1"),
        "max_that2": lambda r: _late_max(r, "frame_stats", "max_that2"),
        "E0_w": lambda r: _energy_at(r, "w", 0),
        "E0_psi2": lambda r: _energy_at(r, "psi2", 0),
        "E0ring_wbar": lambda r: _energy_at(r, "wbar", 0, ring=True),
        "E1_wbar": lambda r: _energy_at(r, "wbar", 1),
        "E1_w": lambda r: _energy_at(r, "w", 1),
        "E1_psi2": lambda r: _energy_at(r, "psi2", 1),
        "max_yt": lambda r: _late_max(r, "second_frame_stats", "max_yt"),
    }
    out = {"epsilon": [r["config"]["epsilon"] for r in results]}
    for name, fn in quantities.items():
        vals = [fn(r) for r in results]
        out[name] = vals
        out[name + "_ratios"] = _ratios(vals)
    return out


def _delta_metrics(results: Sequence[dict]) -> dict:
    out = {"delta": [r["config"]["delta"] for r in results]}
    out["max_kappa_dev"] = [_late_max(r, "kappa_stats", "max_kappa_over_t_dev") for r in results]
    out["E0_w_over_eps2t2"] = []
    for r in results:
        eps, t = r["config"]["epsilon"], r["times"][-1]
        e = _energy_at(r, "w", 0)
        out["E0_w_over_eps2t2"].append(e / (eps ** 2 * t ** 2) if eps > 0 else float("nan"))
    return out


# each study kind: the RunConfig field its ladder sets and the metrics of its
# members' reports; None for the kind whose one member is the config itself
STUDY_KINDS = {
    "single": None,
    "convergence": ("n1", _convergence_metrics),
    "epsilon_scaling": ("epsilon", _epsilon_metrics),
    "delta_robustness": ("delta", _delta_metrics),
}


# ---------------------------------------------------------------------------
# plot-data emission

def slope_fit(xs, ys) -> dict:
    """Least-squares slope of log(y) vs log(x) with its R**2."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    good = (xs > 0) & (ys > 0)
    if good.sum() < 2:
        return {"slope": float("nan"), "r2": float("nan")}
    lx, ly = np.log(xs[good]), np.log(ys[good])
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(np.sum((ly - pred) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(coef[0]), "r2": r2}


def emit_plots(report: dict, out_dir) -> List[Path]:
    """Write gnuplot-ready two-column data files for a run or study report."""
    out = Path(out_dir)
    written: List[Path] = []

    def emit(path: Path, points):
        if not points:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for x, y in points:
                fh.write(f"{x:.17g} {y:.17g}\n")
        written.append(path)

    def emit_run(run_report: dict, prefix: Path):
        """Write a run's data files; return its (t, E + Ebar) points of w at
        order 0 on the widest band, if it has energies."""
        rows = table_records(run_report, "energies")
        series = {}
        if rows:
            widest = _at_largest(rows, "u")
            for psi in PSIS:
                for n in sorted({r["n"] for r in rows}):
                    pts = series[psi, n] = [(r["t"], r["E"] + r["Ebar"]) for r in widest
                                            if r["psi"] == psi and r["n"] == n]
                    if any(e > 0 for _, e in pts):
                        emit(prefix / f"energy_{psi}_n{n}.dat", pts)
            emit(prefix / "flux_vs_u.dat", [(r["u"], r["F"]) for r in _at_largest(rows, "t")
                                             if r["psi"] == "w" and r["n"] == 0])
        for table, column, name in (("kappa_stats", "max_kappa_over_t_dev", "kappa_profile.dat"),
                                    ("monitors", "min_L_mu", "sign_monitors.dat"),
                                    ("residuals", "commutation_y", "residuals.dat")):
            emit(prefix / name, [(r["t"], r[column]) for r in table_records(run_report, table)])
        return series.get(("w", 0))

    if "reports" in report:
        fits = {}
        for name, sub in zip(report["members"], report["reports"]):
            pts = emit_run(sub, out / name) if sub is not None else None
            if pts:
                fits[name] = slope_fit(*zip(*pts))
        _write_json(out / "slope_fits.json", fits, indent=1)
        written.append(out / "slope_fits.json")
    else:
        emit_run(report, out)
    return written
