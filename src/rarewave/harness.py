"""Experiment orchestration: configuration, single runs, studies, reports.

Configs are flat key=value text under [section] headers.  A single run
simulates the perturbed expansion-wave problem, reconstructs the front
foliation, and measures residuals, sign monitors, scaling quantities and
energies; studies aggregate runs over resolution, amplitude or start-time
ladders into JSON/CSV reports with gnuplot-ready data files.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import energies as en
from . import geometry as geo
# `run` is unused here but re-exported: the benchmark tracer patches it in this module
from .euler2d import (FlowField, Grid, PerturbationMode, PerturbationSpec, SolverConfig,  # noqa: F401
                      clamped_fan_profile, init_perturbed_rarefaction, iter_run, run,
                      total_mass)
from .gas import PolytropicGas, density_from_sound_speed
from .snapshot_io import write_csv, write_planes, write_snapshot

__all__ = [
    "ConfigError",
    "RunConfig",
    "StudySpec",
    "parse_config",
    "default_config",
    "run_single",
    "run_study",
    "emit_plots",
]


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending line when known."""


# each snapshot gets a partner this many cell-crossing times later, so that
# two-time derivatives refine with the grid
PAIR_CELLS = 4


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
        # the gas, grid, perturbation and solver objects check their own fields
        try:
            self.gas()
            dx1 = self.grid().dx1
            self.perturbation()
            SolverConfig(cfl=self.cfl)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.c0 <= 0.0:
            raise ConfigError("c0 must be positive")
        if self.v0 + self.c0 <= 0.0:
            raise ConfigError("fan head speed v0 + c0 must be positive")
        if self.delta <= 0.0:
            raise ConfigError("delta must be positive")
        if self.delta < 4.0 * dx1 / (self.v0 + self.c0):
            raise ConfigError(
                f"delta = {self.delta} under-resolves the fan: needs at least "
                f"4*dx1/(v0+c0) = {4.0 * dx1 / (self.v0 + self.c0):.4g}")
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
    kind: str  # single | convergence | epsilon_scaling | delta_robustness
    ladder: Tuple[float, ...] = ()

    def __post_init__(self):
        kinds = ("single", "convergence", "epsilon_scaling", "delta_robustness")
        if self.kind not in kinds:
            raise ConfigError(f"unknown study kind {self.kind!r}")
        if self.kind != "single" and len(self.ladder) < 2:
            raise ConfigError(f"{self.kind} study needs a ladder of at least 2 values")


# ---------------------------------------------------------------------------
# config text parsing

_SECTIONS = {
    "gas": {"gamma": float, "k0": float},
    "fan": {"v0": float, "c0": float},
    "grid": {"n1": int, "n2": int, "x1_min": float, "x1_max": float},
    "time": {"delta": float, "t_star": float},
    "band": {"u_star": float, "u_lo": float, "u_glue": float},
    "perturbation": {"epsilon": float, "seed": int, "modes": "modes",
                     "strip_lo": float, "strip_hi": float},
    "solver": {"cfl": float, "snapshots": int},
    "analysis": {"orders": int, "u_levels": int, "save_snapshots": str, "workers": int},
    "output": {"dir": "out_dir"},
}


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


def parse_config(text: str) -> RunConfig:
    """Parse key=value sections into a validated RunConfig."""
    values: Dict[str, object] = {}
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
        spec = _SECTIONS[section]
        if key not in spec:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        kind = spec[key]
        try:
            if kind is float:
                values[key] = _finite(val)
            elif kind is int:
                values[key] = int(val)
            elif kind is str:
                values[key] = val
            elif kind == "modes":
                values["modes"] = _parse_modes(val)
            elif kind == "out_dir":
                values["out_dir"] = val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return RunConfig(**values).validate()


def default_config() -> RunConfig:
    return RunConfig().validate()


# ---------------------------------------------------------------------------
# single run

def _x2_variation(s: FlowField, worst: float) -> float:
    """worst, raised to the largest x2 variation of a conserved plane of s."""
    for a in (s.rho, s.m1, s.m2):
        worst = max(worst, float(np.max(np.abs(a - a[:, :1]))))
    return worst


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
    with the same config hash, package version and source digest is
    already present).  concurrent_runs is the number of runs the calling
    process tree runs at once (a pooled study passes its pool size); it
    only decides where the flow solve runs (`_solve_plan`).
    """
    cfg.validate()
    key = {"config_hash": cfg.content_hash(), "version": __version__,
           "source_sha256": _source_digest()}
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
# the flow solve: inline, or one slice ahead in a forked child

def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _solve_plan(concurrent_runs: int) -> dict:
    """Where a run's flow solve runs, and the CPU count that decided it.

    The solve runs one slice ahead in a forked child when the usable CPUs
    are at least twice the runs this process tree runs at once, so that the
    child has a core of its own; a child per member of a pool that already
    fills the cores costs more wall time than it saves.
    """
    cpus = _usable_cpus()
    forked = (cpus >= 2 * concurrent_runs
              and "fork" in multiprocessing.get_all_start_methods()
              and not multiprocessing.current_process().daemon)  # daemons may not fork
    return {"process": "forked" if forked else "inline", "cpus": cpus}


def _send_snapshots(conn, parent_end, field0: FlowField, solver: SolverConfig) -> None:
    """Body of the forked solve: for each snapshot of iter_run, its time and
    boundary mass flux, then its rho, m1 and m2 planes as raw bytes; after
    the last, None.  A solver error is sent in place of the rest."""
    # with the inherited read end closed, a send fails once the parent has
    # gone (killed, say), instead of blocking forever
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends this process
    try:
        for s in iter_run(field0, solver):
            conn.send((s.time, s.boundary_mass_flux))
            for plane in (s.rho, s.m1, s.m2):
                conn.send_bytes(np.ascontiguousarray(plane))
        conn.send(None)
    except BrokenPipeError:  # nobody reads the rest
        return
    except Exception as exc:
        conn.send(exc)


def _received_snapshots(conn, child, field0: FlowField) -> Iterator[FlowField]:
    """The snapshots `_send_snapshots` sends, each over one fresh (3, n1, n2)
    buffer with copies of field0's frozen ghosts; a solver error is raised
    at the point of the stream where the solve stopped."""
    grid = field0.grid
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            child.join()
            raise RuntimeError(f"the solver process ended with exit code {child.exitcode} "
                               "before sending every snapshot") from None
        if msg is None:
            return
        if isinstance(msg, BaseException):
            raise msg
        time, boundary_mass_flux = msg
        planes = np.empty((3, grid.n1, grid.n2))
        for plane in planes:  # into a flat byte view: the receive counts bytes
            conn.recv_bytes_into(plane.reshape(-1).view(np.uint8))
        s = FlowField(field0.gas, grid, time, *planes,
                      field0.ghost_lo.copy(), field0.ghost_hi.copy())
        s.boundary_mass_flux = boundary_mass_flux
        yield s


@contextlib.contextmanager
def _snapshots(field0: FlowField, solver: SolverConfig, process: str):
    """The snapshot stream of iter_run(field0, solver), solved in this
    process ("inline") or in a forked child ("forked").

    The child blocks on the pipe until the parent reads, so it runs at most
    about one snapshot ahead.  It is ended on every exit from the block,
    an exception included, before that exception leaves the block.
    """
    if process == "inline":
        yield iter_run(field0, solver)
        return
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_snapshots, args=(child_end, conn, field0, solver),
                        name="rarewave-solve", daemon=True)
    child.start()
    child_end.close()
    try:
        yield _received_snapshots(conn, child, field0)
    finally:
        child.terminate()
        child.join()
        conn.close()


class _Slice:
    """One time slice of a run, held while a consumer still needs it.

    It stands in for its snapshot in the analysis functions, which read
    gas, grid, time, v1, v2, c and invariants() from it; the three planes
    are computed once, here.  `form_foliation` adds the foliation (which
    holds u), the band mask and the rows its band results read; `on` alone
    restricts a slice to the rows of a window.
    """

    invariants = FlowField.invariants

    def __init__(self, snapshot: FlowField):
        self.snapshot = snapshot
        self.gas, self.grid, self.time = snapshot.gas, snapshot.grid, snapshot.time
        self.v1, self.v2, self.c = snapshot.v1, snapshot.v2, snapshot.c
        self.foliation: Optional[geo.Foliation] = None
        self.band: Optional[np.ndarray] = None
        self.read_rows = (0, 0)

    def form_foliation(self, u: np.ndarray, u_lo: float, u_star: float,
                       u_values: Sequence[float]) -> None:
        """The foliation of u, the band mask {u_lo <= u <= u_star} and the
        rows that the energies over the bands up to each of u_values read."""
        self.foliation = geo.frame_fields(self, u, check_band=(u_lo, u_star))
        self.band = geo.band_mask(u, u_lo, u_star)
        self.read_rows = en._read_rows(self.foliation, u_lo, u_values)

    def on(self, grid: Grid) -> "_Slice":
        """This slice on the rows of grid, a window of its grid that must
        hold every row of its band; planes, band and foliation are views."""
        band_rows = np.flatnonzero(self.band.any(axis=1))
        if band_rows.size:
            geo.check_rows(band_rows[0], band_rows[-1] + 1, grid, self.time, "the band mask")
        rows = grid.rows
        view = copy.copy(self)
        view.grid = grid
        view.v1, view.v2, view.c = self.v1[rows], self.v2[rows], self.c[rows]
        view.band, view.foliation = self.band[rows], self.foliation.restricted(grid)
        return view


def _band_rows(rec: _Slice):
    """kappa and frame statistics over the band of a base slice, or None
    when the band is empty."""
    m, fol, c = rec.band, rec.foliation, rec.c
    if not np.any(m):
        return None
    return ([rec.time,
             float(np.max(np.abs(fol.kappa[m] / rec.time - 1.0))),
             float(np.max(np.abs(fol.mu[m] - c[m] * fol.kappa[m])))],
            [rec.time,
             float(np.max(np.abs(fol.that1[m] + 1.0))),
             float(np.max(np.abs(fol.that2[m]))),
             float(np.max(np.abs(fol.chi[m]))),
             float(np.max(np.abs(fol.zeta[m]))),
             float(np.max(np.abs(fol.eta[m])))])


def _pair_rows(pair: geo.PairDiagnostics, bases: Sequence[_Slice]):
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


def _run_single_inner(cfg: RunConfig, out: Path, config_hash: str, process: str) -> dict:
    """One pass over the slices in time order, the solve running `process`
    (see `_snapshots`).

    Each slice's record (snapshot, u, foliation) is formed as the solve
    reaches it and serves every consumer: rays, band statistics, predicates,
    bookkeeping and the one `PairDiagnostics` of each slice pair it closes,
    which the energies and the pair diagnostics share.  A record is dropped
    once the last pair reaching back to it has passed, so at most (largest
    base-to-partner index gap + 1) records are alive; only scalars are kept
    across the run.
    """
    gas, grid = cfg.gas(), cfg.grid()
    ladder, base_idx, pair_idx = cfg.ladder()
    last = len(ladder) - 1
    # the run's distinct slice pairs by later slice: closes[k1][k0] lists the base
    # entries whose diagnostics use (k0, k1); the energies use every (k - 1, k)
    closes: Dict[int, Dict[int, List[int]]] = {k: {k - 1: []} for k in range(1, last + 1)}
    for j, (kb, kp) in enumerate(zip(base_idx, pair_idx)):
        closes[max(kb, kp)].setdefault(min(kb, kp), []).append(j)
    lookahead = max(k1 - k0 for k1, pairs in closes.items() for k0 in pairs)
    seeds_u = np.linspace(cfg.u_lo + 0.1, cfg.u_star - 0.1, 5)
    x1_seed = ((cfg.v0 + cfg.c0) - seeds_u) * cfg.delta
    x2_seed = np.full_like(x1_seed, math.pi)
    u_values = list(np.linspace(cfg.u_star / cfg.u_levels, cfg.u_star, cfg.u_levels))
    orders = list(range(cfg.orders + 1))
    energy_args = dict(psis=("wbar", "w", "psi2"), orders=orders, u_values=u_values, u_min=cfg.u_lo)

    field0 = init_perturbed_rarefaction(gas, grid, cfg.delta, (cfg.v0, cfg.c0),
                                        cfg.perturbation(), u_glue=cfg.u_glue)
    u_init = (cfg.v0 + cfg.c0) - grid.mesh()[0] / cfg.delta

    window: Dict[int, _Slice] = {}
    times, conservation, kappa_rows, frame_rows, energy_slices = [], [], [], [], []
    pair_rows = {}
    x2_variation = 0.0
    with _snapshots(field0, cfg.solver(), process) as snapshots:
        records = geo.iter_evolve_u(map(_Slice, snapshots), u_init, cfl=cfg.cfl)
        for k, (rec, u) in enumerate(records):
            rec.form_foliation(u, cfg.u_lo, cfg.u_star, u_values)
            window[k] = rec
            s = rec.snapshot
            times.append(rec.time)

            # conservation and symmetry bookkeeping, initial-slice predicates, and
            # the ray-traced cross-check of the level-set transport: u along a few
            # generator rays seeded across the band should stay constant
            x2_variation = _x2_variation(s, x2_variation)
            mass = total_mass(s)
            if k == 0:
                mass0 = mass
                predicate_lines = en.check_data_predicates(rec, rec.foliation, cfg.epsilon,
                                                           cfg.delta, cfg.u_star)
                rays = geo.RayTrace(rec, rec.foliation, x1_seed, x2_seed)
            else:
                rays.advance(rec, rec.foliation)
            conservation.append([s.time, mass, s.boundary_mass_flux,
                                 mass + s.boundary_mass_flux - mass0])

            # pointwise foliation statistics over the tracked band at base times
            for _ in range(base_idx.count(k)):  # merged base times share a slice
                rows = _band_rows(rec)
                if rows is not None:
                    kappa_rows.append(rows[0])
                    frame_rows.append(rows[1])

            # one evaluator per pair closing here serves the energies of slice k-1 (and of
            # k at the end), then each (base, partner) pair mapping to it, which spans a few
            # cell-crossing times so that the two-time derivatives refine with the grid; it
            # sees both slices only on the rows of their band window
            for k0, js in closes.get(k, {}).items():
                r0 = window[k0]
                rows = en.band_window(r0, rec, r0.foliation, (r0.read_rows, rec.read_rows), orders)
                s0, s1 = r0.on(rows), rec.on(rows)
                pair = geo.PairDiagnostics(s0, s1, s0.foliation, s1.foliation)
                if k0 == k - 1:
                    for side in ((0, 1) if k == last else (0,)):
                        energy_slices.append(en.energies_of_slice(
                            pair, side, (r0, rec)[side].read_rows, **energy_args))
                pair_rows.update(zip(js, _pair_rows(pair, [s0 if base_idx[j] == k0 else s1
                                                           for j in js])))
                del pair, s0, s1  # their planes must not outlive the pair into the next slice

            if cfg.save_snapshots == "all" or (cfg.save_snapshots == "ends" and k in (0, last)):
                write_snapshot(s, out / f"snapshot_t{s.time:.4f}.rwl")
            if k == last:
                l1_fan_error = _l1_fan_error(cfg, s) if cfg.epsilon == 0.0 else None
                if cfg.save_snapshots != "none":
                    fol = rec.foliation
                    write_planes(grid, fol.time, gas,
                                 {"u": fol.u, "kappa": fol.kappa, "mu": fol.mu,
                                  "that1": fol.that1, "that2": fol.that2, "chi": fol.chi,
                                  "zeta": fol.zeta, "eta": fol.eta},
                                 out / "foliation_final.rwl")
            window.pop(k - lookahead, None)

    report: dict = {
        "config": dataclasses.asdict(cfg),
        "config_hash": config_hash,
        "times": [times[k] for k in base_idx],
        "cached": False,
        "x2_variation": x2_variation,
        "mass_drift": [row[3] for row in conservation],
    }
    write_csv(out / "conservation.csv", ["t", "mass", "boundary_outflow", "drift"], conservation)
    report["l1_fan_error_final"] = l1_fan_error
    u_along = np.stack(rays.u_along)
    report["ray_u_drift"] = float(np.max(np.abs(u_along - u_along[0])))

    report["kappa_stats"] = kappa_rows
    report["frame_stats"] = frame_rows
    write_csv(out / "kappa_stats.csv", ["t", "max_kappa_over_t_dev", "max_mu_identity_dev"],
              kappa_rows)
    write_csv(out / "frame_stats.csv",
              ["t", "max_that1p1", "max_that2", "max_chi", "max_zeta", "max_eta"], frame_rows)

    monitor_rows, yscale_rows, residual_rows = (
        [pair_rows[j][i] for j in sorted(pair_rows)] for i in range(3))
    report["monitors"] = monitor_rows
    report["second_frame_stats"] = yscale_rows
    report["residuals"] = residual_rows
    write_csv(out / "monitors.csv",
              ["t", "min_L_mu", "max_L_mu", "min_T_wbar", "max_T_wbar",
               "min_Lbar_wbar", "max_Lbar_wbar"], monitor_rows)
    write_csv(out / "second_frame.csv",
              ["t", "max_yt", "max_zt", "max_y", "max_z"], yscale_rows)
    write_csv(out / "residuals.csv",
              ["t", "commutation_y", "commutation_z", "structure_kappa",
               "structure_that1", "structure_that2", "structure_chi"], residual_rows)

    report["data_predicates"] = [[p.name, p.measured, p.scale, p.passed]
                                 for p in predicate_lines]

    # energies
    energy_report = en.EnergyReport.from_slices(energy_slices, times, base_idx, cfg.epsilon)
    energy_rows = [[r.t, r.u, r.psi, r.n, r.E, r.Ebar, r.F, r.Fbar,
                    r.E0ring if r.E0ring is not None else "",
                    r.F0ring if r.F0ring is not None else ""]
                   for r in energy_report.rows]
    report["energies"] = energy_rows
    write_csv(out / "energies.csv",
              ["t", "u", "psi", "n", "E", "Ebar", "F", "Fbar", "E0ring", "F0ring"],
              energy_rows)

    # measured growth-lemma instance at order 0 for w (fit + verdict)
    report["gronwall_fit"] = _measured_gronwall(cfg, energy_report, [times[k] for k in base_idx])
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
    if kind == "convergence":
        return dataclasses.replace(cfg, n1=int(value))
    if kind == "epsilon_scaling":
        return dataclasses.replace(cfg, epsilon=float(value))
    if kind == "delta_robustness":
        return dataclasses.replace(cfg, delta=float(value))
    return cfg


def _run_member(args):
    cfg, out_dir, concurrent_runs = args
    return run_single(cfg, out_dir=Path(out_dir), concurrent_runs=concurrent_runs)


def run_study(spec: StudySpec, cfg: RunConfig, out_dir: Optional[Path] = None) -> dict:
    """Execute the study members and aggregate their reports.

    Failures of individual members are recorded and the study continues.
    """
    cfg.validate()
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir) / f"study-{spec.kind}"
    out.mkdir(parents=True, exist_ok=True)
    members = [("single", cfg)] if spec.kind == "single" else [
        (f"{spec.kind}-{v:g}", _member_config(cfg, spec.kind, v)) for v in spec.ladder]

    jobs = [(mc, str(out / name), min(cfg.workers, len(members))) for name, mc in members]
    results: List[Optional[dict]] = [None] * len(jobs)
    failures: List[str] = []
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futs = [pool.submit(_run_member, j) for j in jobs]
            for i, f in enumerate(futs):
                try:
                    results[i] = f.result()
                except Exception as exc:
                    failures.append(f"{members[i][0]}: {exc!r}")
    else:
        for i, j in enumerate(jobs):
            try:
                results[i] = _run_member(j)
            except Exception as exc:
                failures.append(f"{members[i][0]}: {exc!r}")

    study = {"kind": spec.kind, "ladder": list(spec.ladder), "failures": failures,
             "members": [m[0] for m in members],
             "reports": [r for r in results]}
    if spec.kind == "convergence" and all(r is not None for r in results):
        study["convergence"] = _null_nonfinite(_convergence_metrics(results))
    if spec.kind == "epsilon_scaling" and all(r is not None for r in results):
        study["epsilon_scaling"] = _null_nonfinite(_epsilon_metrics(results, spec.ladder))
    if spec.kind == "delta_robustness" and all(r is not None for r in results):
        study["delta_robustness"] = _null_nonfinite(_delta_metrics(results))
    _write_json(out / "study.json", study, indent=1)
    emit_plots(study, out)
    return study


def _null_nonfinite(metrics: Dict[str, list]) -> Dict[str, list]:
    """A study metric block with each NaN or inf as None, which JSON writes as
    null: json.dumps would write bare NaN tokens that strict parsers reject."""
    return {name: [v if not isinstance(v, float) or math.isfinite(v) else None for v in vals]
            for name, vals in metrics.items()}


def _final_residual(report: dict, col: int) -> float:
    rows = report["residuals"]
    vals = [r[col] for r in rows if r[0] >= 2.0 * report["config"]["delta"]
            and np.isfinite(r[col])]
    return float(np.max(vals)) if vals else float("nan")


def _convergence_metrics(results: Sequence[dict]) -> dict:
    """Fan-error and residual ratios between consecutive resolutions."""
    out = {"n1": [r["config"]["n1"] for r in results]}
    errs = [r["l1_fan_error_final"] for r in results]
    if all(e is not None for e in errs):
        out["l1_fan_error"] = errs
        out["l1_ratios"] = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    names = {"commutation_y": 1, "commutation_z": 2, "structure_kappa": 3,
             "structure_that1": 4, "structure_that2": 5}
    for name, col in names.items():
        vals = [_final_residual(r, col) for r in results]
        out[name] = vals
        out[name + "_ratios"] = _ratios(vals)
    return out


def _ratios(vals: Sequence[float]) -> List[float]:
    return [vals[i] / vals[i + 1] if vals[i + 1] else float("nan")
            for i in range(len(vals) - 1)]


def _late_max(report: dict, table: str, col: int) -> float:
    """Max of a report table column over the rows at t >= 2*delta."""
    return float(np.max([row[col] for row in report[table]
                         if row[0] >= 2 * report["config"]["delta"]]))


def _energy_at(report: dict, psi: str, n: int, ring: bool = False) -> float:
    """Energy at the final time and widest band from a report's rows."""
    rows = report["energies"]
    best_t = max(r[0] for r in rows)
    best_u = max(r[1] for r in rows)
    for r in rows:
        if r[0] == best_t and r[1] == best_u and r[2] == psi and r[3] == n:
            if ring:
                return float(r[8]) if r[8] != "" else float("nan")
            return float(r[4]) + float(r[5])
    return float("nan")


def _epsilon_metrics(results: Sequence[dict], ladder) -> dict:
    quantities = {
        "max_that1p1": lambda r: _late_max(r, "frame_stats", 1),
        "max_that2": lambda r: _late_max(r, "frame_stats", 2),
        "E0_w": lambda r: _energy_at(r, "w", 0),
        "E0_psi2": lambda r: _energy_at(r, "psi2", 0),
        "E0ring_wbar": lambda r: _energy_at(r, "wbar", 0, ring=True),
        "E1_wbar": lambda r: _energy_at(r, "wbar", 1),
        "E1_w": lambda r: _energy_at(r, "w", 1),
        "E1_psi2": lambda r: _energy_at(r, "psi2", 1),
        "max_yt": lambda r: _late_max(r, "second_frame_stats", 1),
    }
    out = {"epsilon": list(ladder)}
    for name, fn in quantities.items():
        vals = [fn(r) for r in results]
        out[name] = vals
        out[name + "_ratios"] = _ratios(vals)
    return out


def _delta_metrics(results: Sequence[dict]) -> dict:
    out = {"delta": [r["config"]["delta"] for r in results]}
    out["max_kappa_dev"] = [_late_max(r, "kappa_stats", 1) for r in results]
    out["E0_w_over_eps2t2"] = []
    for r in results:
        eps, t = r["config"]["epsilon"], r["times"][-1]
        e = _energy_at(r, "w", 0)
        out["E0_w_over_eps2t2"].append(e / (eps ** 2 * t ** 2) if eps > 0 else float("nan"))
    return out


# ---------------------------------------------------------------------------
# plot-data emission

def _two_column(path: Path, xs, ys):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for x, y in zip(xs, ys):
            fh.write(f"{x:.17g} {y:.17g}\n")


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

    def emit_run(run_report: dict, prefix: Path):
        rows = run_report.get("energies", [])
        if rows:
            best_u = max(r[1] for r in rows)
            for psi in ("wbar", "w", "psi2"):
                for n in sorted({r[3] for r in rows}):
                    pts = [(r[0], r[4] + r[5]) for r in rows
                           if r[2] == psi and r[3] == n and r[1] == best_u]
                    if pts and any(p[1] > 0 for p in pts):
                        p = prefix / f"energy_{psi}_n{n}.dat"
                        _two_column(p, [q[0] for q in pts], [q[1] for q in pts])
                        written.append(p)
            pts = [(r[1], r[6]) for r in rows
                   if r[2] == "w" and r[3] == 0 and r[0] == max(q[0] for q in rows)]
            if pts:
                p = prefix / "flux_vs_u.dat"
                _two_column(p, [q[0] for q in pts], [q[1] for q in pts])
                written.append(p)
        for table, name in (("kappa_stats", "kappa_profile.dat"),
                            ("monitors", "sign_monitors.dat"), ("residuals", "residuals.dat")):
            if run_report.get(table):
                p = prefix / name
                _two_column(p, [r[0] for r in run_report[table]],
                            [r[1] for r in run_report[table]])
                written.append(p)

    if "reports" in report:
        fits = {}
        for name, sub in zip(report["members"], report["reports"]):
            if sub is None:
                continue
            emit_run(sub, out / name)
            rows = [r for r in sub.get("energies", []) if r[2] == "w" and r[3] == 0]
            if rows:
                best_u = max(r[1] for r in rows)
                ts = [r[0] for r in rows if r[1] == best_u]
                es = [r[4] + r[5] for r in rows if r[1] == best_u]
                fits[name] = slope_fit(ts, es)
        _write_json(out / "slope_fits.json", fits, indent=1)
        written.append(out / "slope_fits.json")
    else:
        emit_run(report, out)
    return written
