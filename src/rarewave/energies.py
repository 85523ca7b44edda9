"""Weighted energies and fluxes of the front foliation, and the growth-lemma verifier.

Slice energies are integrals over the band {u_min <= u <= u_max} of one time
slice; integrals in the front-adapted coordinates are rewritten through the
Cartesian area element, which contributes a 1/kappa Jacobian.  Fluxes are
time integrals of line integrals along extracted level curves of u.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .euler2d import Grid, diagonal_rhs
from .geometry import (PAIR_DEPTH, BilinearStencil, PairDiagnostics, Slice, check_rows,
                       directional_derivative, stencil_reach)
from .riemann1d import NumericalError
# re-exported: the benchmark tracer patches these two names in this module
from .geometry import bilinear_sample, semi_lagrangian  # noqa: F401

__all__ = [
    "FrameDerivativeOp",
    "EnergyRow",
    "EnergyReport",
    "GronwallInstance",
    "GronwallHypothesisError",
    "GronwallVerdict",
    "region_weights",
    "LevelCurve",
    "extract_level_curve",
    "apply_frame_derivative",
    "words_of_order",
    "energies_of_slice",
    "read_rows",
    "band_window",
    "EnergyAnalysis",
    "PredicateLine",
    "check_data_predicates",
    "predicate_window",
    "gronwall_verify",
    "fit_gronwall_constants",
]

ORDER_CAP = 3
A_INFLATION = 1.05  # factor on the least A that meets the hypothesis, in fit_gronwall_constants


# ---------------------------------------------------------------------------
# quadrature over the tracked band

def _cell_span(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Linearized variation of u across each cell."""
    du = np.abs(grid.d1(u)) * grid.dx1 + np.abs(grid.d2(u)) * grid.dx2
    return np.maximum(du, 1e-300)


def _band_weights(u: np.ndarray, du: np.ndarray, u_min: float, u_max: float,
                  grid: Grid) -> np.ndarray:
    f_hi = np.clip(0.5 + (u_max - u) / du, 0.0, 1.0)
    f_lo = np.clip(0.5 + (u - u_min) / du, 0.0, 1.0)
    return f_hi * f_lo * (grid.dx1 * grid.dx2)


def region_weights(u: np.ndarray, u_min: float, u_max: float, grid: Grid) -> np.ndarray:
    """Cell area weights for the region {u_min <= u <= u_max}.

    Partial cells are weighted by the inside fraction of the linearized u,
    which keeps the quadrature monotone in u_max.
    """
    return _band_weights(u, _cell_span(u, grid), u_min, u_max, grid)


def read_rows(sl: Slice, u_min: float, u_values: Sequence[float]) -> Tuple[int, int]:
    """Rows [lo, hi) that the band results of a foliated slice on its whole
    grid read: the hull of the rows with a nonzero `region_weights` cell at
    the largest u value and of the rows that the level curve of each u value
    crosses or samples; (0, 0) when none.

    The weights are formed only on candidate rows and the one row each side
    that their x1 derivative reads.  A cell's span is at most twice the range
    R of u over its row and the rows either side, so a row holds a nonzero
    weight only if its values come within 2R of [u_min, u_max].

    The squares between rows r and r+1 cross a level exactly when u in the
    two rows lies on both sides of it; the curve's sampling stencil then
    reads rows r-1 to r+2.
    """
    u, grid = sl.u, sl.grid
    lo_u, hi_u = u.min(axis=1), u.max(axis=1)
    if np.isnan(lo_u).any():
        raise NumericalError(f"u is NaN at t={sl.time:.6g}, row "
                             f"{np.flatnonzero(np.isnan(lo_u))[0]}")
    u_max = max(u_values)
    # twice the range of u over each row and the rows either side, at least
    # the floor of `_cell_span`; one that is not a number keeps its row
    lo3, hi3 = np.pad(lo_u, 1, mode="edge"), np.pad(hi_u, 1, mode="edge")
    span = np.maximum(2.0 * (np.maximum(np.maximum(hi3[:-2], hi3[1:-1]), hi3[2:])
                             - np.minimum(np.minimum(lo3[:-2], lo3[1:-1]), lo3[2:])), 1e-300)
    rows = []
    candidates = np.flatnonzero(~((hi_u + span < u_min) | (lo_u - span > u_max)))
    if candidates.size:
        lo, hi = int(candidates[0]), int(candidates[-1]) + 1
        wide = grid.around(lo, hi, 1)
        weights = region_weights(u[wide.rows], u_min, u_max, wide)[lo - wide.lo:hi - wide.lo]
        held = lo + np.flatnonzero(weights.any(axis=1))
        rows = [held[0], held[-1]] if held.size else []
    for level in u_values:
        crossed = np.flatnonzero((np.minimum(lo_u[:-1], lo_u[1:]) < level)
                                 & (np.maximum(hi_u[:-1], hi_u[1:]) >= level))
        if crossed.size:
            rows += [max(crossed[0] - 1, 0), min(crossed[-1] + 2, grid.n1 - 1)]
    return (int(min(rows)), int(max(rows)) + 1) if rows else (0, 0)


def band_window(s0: Slice, t1: float, read_rows: Sequence[Tuple[int, int]],
                orders: Sequence[int]) -> Grid:
    """The rows on which the evaluator of the pair of the foliated slice s0 and
    a slice at the later time t1 forms its planes: those that the band
    results of the slices whose `read_rows` are read_rows read.  For both
    slices, these are the energies of either over the bands
    {u_min <= u <= u_value}, the pair diagnostics over s0's band and the
    later slice's band statistics; for s0 alone, the pair diagnostics of a
    long pair, which read s0's band alone, whichever slice is the base.

    It is the hull of read_rows plus a halo: one row per x1 derivative
    chained before a band row is read (the T letters of a word and the
    gradient, or `PAIR_DEPTH`), plus the `stencil_reach` of the pair's flow
    stencils.  Returns the slices' grid when no row is read.
    """
    grid = s0.grid
    hulls = [h for h in read_rows if h[0] < h[1]]
    if not hulls:
        return grid
    lo, hi = min(h[0] for h in hulls), max(h[1] for h in hulls)
    halo = (max(max(orders) + 1, PAIR_DEPTH)
            + stencil_reach(s0, t1, slice(lo, hi)))
    return grid.around(lo, hi, halo)


def _outgoing_density(kappa, c, l_psi, x_psi):
    """kappa (L psi)^2 / c^2 + kappa (X psi)^2."""
    return kappa * (l_psi / c) ** 2 + kappa * x_psi ** 2


def _incoming_density(kappa, c, l_psi, x_psi, t_psi):
    """[(Lbar psi)^2 + kappa^2 (X psi)^2] / kappa with Lbar = (kappa/c) L + 2 T,
    T = kappa That.grad."""
    lbar = (kappa / c) * l_psi + 2.0 * t_psi
    return (lbar ** 2 + kappa ** 2 * x_psi ** 2) / kappa


def _flux_densities(kappa, c, l_psi, x_psi):
    """Outgoing and incoming flux densities kappa (L psi)^2 / c and c kappa (X psi)^2."""
    return kappa / c * l_psi ** 2, c * kappa * x_psi ** 2


# ---------------------------------------------------------------------------
# level-curve extraction and line integrals

@dataclass
class LevelCurve:
    """Segment midpoints and lengths of one extracted level curve, with the
    bilinear stencil at the midpoints."""

    mid_x1: np.ndarray
    mid_x2: np.ndarray
    lengths: np.ndarray
    stencil: BilinearStencil

    def integral(self, g: np.ndarray) -> float:
        """Line integral of the cell-centered field g along the curve."""
        return float(np.sum(self.lengths * self.stencil(g)))


def extract_level_curve(u: np.ndarray, level: float, grid: Grid) -> LevelCurve:
    """Marching-squares geometry of {u = level} on the cell-center lattice.

    x2 wraps periodically; each grid square crossed twice contributes one
    straight segment, saddle squares are split by the center value.  Only
    squares whose corners disagree on u < level are evaluated; segments come
    in row-major square order, the saddle squares' pairs after the rest.
    u holds the rows of grid, which may be a window of a grid: the squares
    are those between its rows.
    """
    below = u < level
    below_r = np.roll(below, -1, axis=1)
    r, cl = np.nonzero((below[:-1] != below[1:]) | (below[1:] != below_r[1:])
                       | (below_r[1:] != below_r[:-1]))
    cr = np.mod(cl + 1, grid.n2)
    A, B, C, D = u[r, cl], u[r + 1, cl], u[r + 1, cr], u[r, cr]
    x1 = grid.x1[grid.rows][r]
    x2 = grid.x2[cl]
    dx1, dx2 = grid.dx1, grid.dx2

    def cross(p, q):
        flag = (p < level) != (q < level)
        denom = np.where(q != p, q - p, 1.0)
        frac = np.clip((level - p) / denom, 0.0, 1.0)
        return flag, frac

    f0_flag, f0 = cross(A, B)
    f1_flag, f1 = cross(B, C)
    f2_flag, f2 = cross(D, C)
    f3_flag, f3 = cross(A, D)
    ex = np.stack([x1 + f0 * dx1, x1 + dx1, x1 + f2 * dx1, x1])
    ey = np.stack([x2, x2 + f1 * dx2, x2 + dx2, x2 + f3 * dx2])
    flags = np.stack([f0_flag, f1_flag, f2_flag, f3_flag])
    two = flags.sum(axis=0) == 2

    # squares crossed twice: one segment from the first to the last crossed edge
    sel = flags[:, two]
    e1, e2, sq = [np.argmax(sel, axis=0)], [3 - np.argmax(sel[::-1], axis=0)], [np.flatnonzero(two)]
    # saddle squares: two segments each, paired by the center value
    saddle = np.flatnonzero(~two)
    center = 0.25 * (A[saddle] + B[saddle] + C[saddle] + D[saddle])
    split = ((center < level) == (B[saddle] < level))[:, None]
    e1.append(np.where(split, [0, 2], [0, 1]).ravel())
    e2.append(np.where(split, [1, 3], [3, 2]).ravel())
    sq.append(np.repeat(saddle, 2))
    e1, e2, sq = (np.concatenate(a) for a in (e1, e2, sq))

    ax, ay, bx, by = ex[e1, sq], ey[e1, sq], ex[e2, sq], ey[e2, sq]
    dy = np.abs(ay - by)
    dy = np.minimum(dy, 2.0 * math.pi - dy)
    lengths = np.hypot(ax - bx, dy)
    # saddle segments keep math.hypot's rounding, which differs from np.hypot's in the last bit
    n_two = int(two.sum())
    lengths[n_two:] = [math.hypot(a, b) for a, b in zip((ax - bx)[n_two:].tolist(),
                                                        dy[n_two:].tolist())]
    mid_x1 = 0.5 * (ax + bx)
    mid_x2 = np.mod(0.5 * (ay + by), 2.0 * math.pi)
    return LevelCurve(mid_x1, mid_x2, lengths, BilinearStencil(mid_x1, mid_x2, grid))


# ---------------------------------------------------------------------------
# frame-derivative words

@dataclass(frozen=True)
class FrameDerivativeOp:
    """A word over the commutator letters "X" (tangential d2) and
    "T" (normal -t d1); innermost letter first."""

    word: Tuple[str, ...]

    def __post_init__(self):
        if len(self.word) > ORDER_CAP:
            raise ValueError(f"derivative order capped at {ORDER_CAP}")
        if any(ch not in ("X", "T") for ch in self.word):
            raise ValueError(f"word letters must be 'X' or 'T': {self.word}")


def words_of_order(n: int) -> List[FrameDerivativeOp]:
    return [FrameDerivativeOp(w) for w in itertools.product("XT", repeat=n)]


def apply_frame_derivative(op: FrameDerivativeOp, fields: Sequence[np.ndarray],
                           times: Sequence[float], grid: Grid):
    """Apply the word to a field sequence (innermost letter first).

    Returns (derived sequence, valid mask); each normal application costs
    one stencil column at the x1 edges of the grid, recorded in the mask.
    The fields and the mask hold the rows of grid, which may be a window.
    """
    out = [np.asarray(f) for f in fields]
    erode = 0
    for letter in op.word:
        if letter == "X":
            out = [grid.d2(f) for f in out]
        else:
            out = [-t * grid.d1(f) for f, t in zip(out, times)]
            erode += 1
    rows = np.arange(grid.n1)[grid.rows, None]
    valid = np.repeat((rows >= erode) & (rows < grid.n1 - erode), grid.n2, axis=1)
    return out, valid


# ---------------------------------------------------------------------------
# per-run analysis bundle

@dataclass
class EnergyRow:
    t: float
    u: float
    psi: str
    n: int
    E: float
    Ebar: float
    F: float
    Fbar: float
    E0ring: Optional[float] = None
    F0ring: Optional[float] = None


@dataclass
class EnergyReport:
    rows: List[EnergyRow] = field(default_factory=list)

    @classmethod
    def from_slices(cls, slices: Sequence[Dict[Tuple[str, int, float], np.ndarray]],
                    times: Sequence[float], t_indices: Sequence[int]) -> "EnergyReport":
        """Rows at the slices t_indices from the `energies_of_slice` results
        of every slice in time order: the energies as they are, the fluxes
        as running trapezoid time integrals of their line integrals."""
        ts = np.asarray(times)
        rep = cls()
        for psi, n, u in slices[0]:
            series = np.stack([s[psi, n, u] for s in slices])  # (time, energy, column)
            energy = series[:, :, 0]
            flux = _cum_trapezoid(series[:, :, 1], ts, axis=0)
            for k in t_indices:
                e, f = energy[k].tolist(), flux[k].tolist()
                row = EnergyRow(times[k], u, psi, n, e[0], e[1], f[0], f[1])
                if len(e) == 3:
                    row.E0ring, row.F0ring = e[2], f[2]
                rep.rows.append(row)
        return rep


def energies_of_slice(pair: PairDiagnostics, side: int, read_rows: Tuple[int, int],
                      psis: Sequence[str], orders: Sequence[int], u_values: Sequence[float],
                      u_min: float) -> Dict[Tuple[str, int, float], np.ndarray]:
    """Energies and flux line integrals of one framed time slice.

    pair evaluates the slice's generator pair, and the slice is its s0
    (side 0) or s1 (side 1).  The pair's invariants and generator flow
    stencil, c, and the band weights and level curve (with its sampling
    stencil) of each requested u are shared by every invariant, word and band.
    The pair's planes hold the rows of its grid; read_rows (the slice's
    `read_rows`) must be among them, and a band result that reads a NaN
    raises NumericalError naming the time and row.  The frame derivatives,
    the generator derivative and the gradient are taken on the pair's grid,
    whose halo they read; every density is formed on read_rows alone.

    For each (psi, n, u) the array has one row per energy: outgoing
    (E, F), incoming (Ebar, Fbar) and, for wbar at n = 0 only, the
    special (E0ring, F0ring).  Column 0 is the energy over the band
    {u_min <= u' <= u}, column 1 the line integral of its flux density
    along {u' = u}.  An order sums its words in `words_of_order` order.

    Fields entering the order >= 1 energies and the special
    tangential-stencil energy of wbar are reduced to their x2-fluctuation
    parts.  The removed x2-mean parts vanish in the
    continuum to the quadratic order in the perturbation amplitude, but at
    finite resolution they carry the x2-independent background error of the
    underlying 1D profile, which would otherwise mask the amplitude scaling
    these energies exist to measure.
    """
    grid, sl = pair.grid, pair.slices[side]
    times = (pair.s0.time, pair.s1.time)
    invariants, flow = pair.invariants, pair.generator
    lo, hi = read_rows
    check_rows(lo, hi, grid, sl.time, "the band")
    # the products of a band area are written into a zero plane of the whole
    # grid, so that its sum adds the same terms in the same order however
    # many rows the window holds; outside [lo, hi) every product is +0
    whole = np.zeros((grid.n1, grid.n2))
    read = slice(lo - grid.rows.start, hi - grid.rows.start)
    # a level curve crosses two rows at least, so fewer read rows sample none
    read_grid = grid.window(lo, hi) if hi - lo >= 2 else grid
    u, kappa, c, that1, that2 = (a[read] for a in (sl.u, sl.kappa, sl.c, sl.that1, sl.that2))
    xhat = (that2, -that1)  # the unit tangent, as `Slice.xhat1` and `xhat2` turn the normal
    du = _cell_span(sl.u, grid)[read]
    bands = [(_band_weights(u, du, u_min, level, grid), extract_level_curve(u, level, read_grid))
             for level in u_values]
    del du

    def nan_at(row):
        return NumericalError(f"a band energy is NaN at t={sl.time:.6g}, row {row}, of the "
                              f"rows {grid.rows.start}..{grid.rows.stop - 1} it is formed on")

    def area(w, density):
        np.multiply(w, density, out=whole[lo:hi])
        total = float(np.sum(whole))
        if math.isnan(total):
            raise nan_at(lo + np.flatnonzero(np.isnan(whole[lo:hi]).any(axis=1))[0])
        return 0.5 * total

    def line(curve, density):
        total = curve.integral(density)
        if math.isnan(total):
            k = np.flatnonzero(np.isnan(curve.stencil(density)))[0]
            raise nan_at(int((curve.mid_x1[k] - grid.x1[0]) // grid.dx1))
        return total

    def word(idx, n, op):
        """[[E, F], [Ebar, Fbar]] of one word of invariant idx over each band,
        with [E0ring, F0ring] after them for the order-0 word of wbar; its
        planes go when it returns."""
        fields, valid = apply_frame_derivative(op, [inv[idx] for inv in invariants],
                                               times, grid)
        if n >= 1:
            fields = [_project(f) for f in fields]
        lpsi = flow.derivative(*fields)[read]
        ok = (valid[read] & flow.valid[read]).astype(float)
        # grad f is taken once, for Xhat f and T f = kappa That.grad f
        grad = [d[read] for d in grid.grad(fields[side])]
        del fields, valid
        xpsi = directional_derivative(grad, *xhat)
        tpsi = kappa * directional_derivative(grad, that1, that2)
        int_e = _outgoing_density(kappa, c, lpsi, xpsi) * ok
        int_ebar = _incoming_density(kappa, c, lpsi, xpsi, tpsi) * ok
        g_f, g_fbar = _flux_densities(kappa, c, lpsi, xpsi)
        results = [[[area(w, int_e), line(curve, g_f)], [area(w, int_ebar), line(curve, g_fbar)]]
                   for w, curve in bands]
        if idx or n:
            return results
        # special energy of wbar: the outgoing energy of the single order-0
        # word, with d2 in place of Xhat and L projected
        del xpsi, tpsi, int_e, int_ebar, g_f, g_fbar
        lfluct = _project(lpsi)
        int_ring = _outgoing_density(kappa, c, lfluct, grad[1]) * ok
        g_ring_l, g_ring_x = _flux_densities(kappa, c, lfluct, grad[1])
        return [r + [[area(w, int_ring), line(curve, g_ring_l + g_ring_x)]]
                for r, (w, curve) in zip(results, bands)]

    out = {}
    for psi in psis:
        idx = ("wbar", "w", "psi2").index(psi)
        for n in orders:
            sums = [np.zeros((2, 2)) for _ in u_values]
            for op in words_of_order(n):
                results = word(idx, n, op)
                for acc, r in zip(sums, results):
                    acc += r[:2]
            if idx == 0 and n == 0:  # the special energy's rows, of the single word
                sums = [np.vstack([acc, r[2]]) for acc, r in zip(sums, results)]
            out.update(((psi, n, level), acc) for level, acc in zip(u_values, sums))
    return out


class EnergyAnalysis:
    """Energies and fluxes of a sequence of framed slices.

    Generator derivatives use the forward slice pair at each time
    (backward at the final time).  A report evaluates one time slice at a
    time with `energies_of_slice`; only the scalar energies and flux line
    integrals are kept across slices.
    """

    def __init__(self, slices: Sequence[Slice], u_min: float):
        if len(slices) < 2:
            raise ValueError("need at least two slices for time derivatives")
        self.slices = list(slices)
        self.times = [s.time for s in slices]
        self.u_min = u_min

    def slice_energies(self, k: int, psis: Sequence[str], orders: Sequence[int],
                       u_values: Sequence[float]) -> Dict[Tuple[str, int, float], np.ndarray]:
        """`energies_of_slice` of time slice k."""
        k0 = k if k + 1 < len(self.slices) else k - 1
        pair = PairDiagnostics(*self.slices[k0:k0 + 2])
        rows = read_rows(self.slices[k], self.u_min, u_values)
        return energies_of_slice(pair, k - k0, rows, psis, orders, u_values, self.u_min)

    def report(self, psis: Sequence[str], orders: Sequence[int], t_indices: Sequence[int],
               u_values: Sequence[float]) -> EnergyReport:
        slices = [self.slice_energies(k, psis, orders, u_values) for k in range(len(self.times))]
        return EnergyReport.from_slices(slices, self.times, t_indices)


def _project(a: np.ndarray) -> np.ndarray:
    """x2-fluctuation part of a field."""
    return a - a.mean(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# initial-slice predicates

@dataclass
class PredicateLine:
    name: str
    measured: float
    scale: float
    passed: bool


def _eroded_band(sl: Slice, delta: float, u_star: float) -> Tuple[np.ndarray, Tuple[int, int]]:
    """The mask, on the rows of sl.grid, of the band {pad <= u <= u_star - pad}
    that the data predicates measure, and the hull [lo, hi) of its rows in
    the whole grid's rows ((0, 0) when it is empty).  The band is eroded by
    pad, two cell widths, at both u-edges so the corner stencils of the
    clamped profile stay out of the sup."""
    pad = 2.0 * sl.grid.dx1 / max(sl.time, delta)
    mask = (sl.u >= pad) & (sl.u <= u_star - pad)
    rows = sl.grid.rows.start + np.flatnonzero(mask.any(axis=1))
    return mask, (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)


def predicate_window(sl: Slice, delta: float, u_star: float) -> Grid:
    """The rows on which the initial slice sl, foliated on its whole grid, is
    framed for `check_data_predicates` and its band statistics: the hull of
    the eroded band's rows and of its band rows, widened by the one row that
    their x1 derivatives read; its grid when both are empty."""
    hulls = [h for h in (_eroded_band(sl, delta, u_star)[1], sl.band_rows) if h[0] < h[1]]
    if not hulls:
        return sl.grid
    return sl.grid.around(min(h[0] for h in hulls), max(h[1] for h in hulls), 1)


def check_data_predicates(sl: Slice, epsilon: float, delta: float,
                          u_star: float) -> List[PredicateLine]:
    """Measure the smallness predicates of the framed initial slice over the
    eroded band (`_eroded_band`).

    Each line reports the measured sup-norm, its expected scale, and a pass
    flag tested against 10 * (scale + discretization floor).  The slice may
    be framed on a window (`predicate_window`); one that lacks a row of the
    eroded band or the row past it that its x1 derivatives read raises
    NumericalError naming the time and the row.
    """
    gas, grid = sl.gas, sl.grid
    g = gas.gamma
    cap = 10.0
    mask, (lo, hi) = _eroded_band(sl, delta, u_star)
    if lo == hi:
        raise ValueError("eroded band is empty; grid too coarse for this delta")
    wide = grid.around(lo, hi, 1)
    check_rows(wide.lo, wide.hi, grid, sl.time, "the eroded band of the data predicates")
    floor = grid.dx1

    def sup(a):
        return float(np.max(np.abs(a[mask])))

    lines: List[PredicateLine] = []
    wbar, w, psi2 = sl.invariants()
    grads = {name: grid.grad(arr) for name, arr in (("wbar", wbar), ("w", w), ("psi2", psi2))}
    c = sl.c
    shift1 = -c * (sl.that1 + 1.0)
    shift2 = -c * sl.that2
    for name, grad in grads.items():
        # generator derivative from the diagonal system: no time differencing
        lpsi = diagonal_rhs(name, c, wbar, w, psi2, grid) + shift1 * grad[0] + shift2 * grad[1]
        xpsi = directional_derivative(grad, sl.xhat1, sl.xhat2)
        v = sup(lpsi)
        lines.append(PredicateLine(f"sup|L {name}|", v, epsilon, v <= cap * (epsilon + floor)))
        v = sup(xpsi)
        lines.append(PredicateLine(f"sup|Xhat {name}|", v, epsilon, v <= cap * (epsilon + floor)))

    scale_td = epsilon * delta
    tder = {name: sl.kappa * directional_derivative(grad, sl.that1, sl.that2)
            for name, grad in grads.items()}
    for name in ("w", "psi2"):
        v = sup(tder[name])
        lines.append(PredicateLine(f"sup|T {name}|", v, scale_td,
                                   v <= cap * (scale_td + floor * delta)))
    anomaly = sup(tder["wbar"] + 2.0 / (g + 1.0))
    lines.append(PredicateLine("sup|T wbar + 2/(gamma+1)|", anomaly, scale_td,
                               anomaly <= cap * (scale_td + floor)))

    kdev = sup(sl.kappa / delta - 1.0)
    lines.append(PredicateLine("sup|kappa/delta - 1|", kdev, scale_td,
                               kdev <= cap * (scale_td + floor / delta)))
    t2 = sup(sl.that2)
    lines.append(PredicateLine("sup|That2|", t2, scale_td, t2 <= cap * (scale_td + floor)))
    t1 = sup(sl.that1 + 1.0)
    lines.append(PredicateLine("sup|That1 + 1|", t1, (epsilon * delta) ** 2,
                               t1 <= cap * ((epsilon * delta) ** 2 + floor ** 2 + t2 ** 2)))

    u_expect = 0.5 * (g + 1.0) / (g - 1.0)
    lines.append(PredicateLine("u_star vs half-vacuum-width", u_star, u_expect, True))
    return lines


# ---------------------------------------------------------------------------
# refined growth lemma

class GronwallHypothesisError(ValueError):
    """The discrete hypothesis inequality fails at some lattice point."""


@dataclass
class GronwallInstance:
    """Constants and (E, F) samples on a (t, u) lattice with u[0] = 0."""

    A: float
    B: float
    C: float
    t: np.ndarray
    u: np.ndarray
    E: np.ndarray  # shape (len(t), len(u))
    F: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.E = np.asarray(self.E, dtype=float)
        self.F = np.asarray(self.F, dtype=float)
        if self.A <= 0 or self.B <= 0 or self.C <= 0:
            raise ValueError("constants A, B, C must be positive")
        if self.u[0] != 0.0:
            raise ValueError("u lattice must start at 0")
        if self.E.shape != (len(self.t), len(self.u)) or self.F.shape != self.E.shape:
            raise ValueError("E/F shapes do not match the lattice")
        if np.any(self.E < 0) or np.any(self.F < 0):
            raise ValueError("E and F must be non-negative")


@dataclass
class GronwallVerdict:
    max_ratio: float
    passed: bool


def _cum_trapezoid(y: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    dx = np.diff(x)
    shape = [1] * y.ndim
    shape[axis] = len(dx)
    mids = 0.5 * (np.take(y, range(1, y.shape[axis]), axis=axis)
                  + np.take(y, range(0, y.shape[axis] - 1), axis=axis))
    out = np.zeros_like(y)
    idx = [slice(None)] * y.ndim
    idx[axis] = slice(1, None)
    out[tuple(idx)] = np.cumsum(mids * dx.reshape(shape), axis=axis)
    return out


def gronwall_verify(inst: GronwallInstance) -> GronwallVerdict:
    """Check the hypothesis inequality discretely, then the quadratic conclusion.

    Hypothesis (trapezoid integrals):

        E + F <= [A t^2 + B int_0^u F du' + C int_{t0}^t E/t' dt'] (1 + slack),

    requires exp(B u_max) C <= 1.  The slack covers the trapezoid error of
    the lattice: 0.75 * (max du + max dt) + 1e-12, from the widest u and t
    steps.  The conclusion ratio is max (E+F) / (3 A exp(Bu) t^2); the
    verdict passes when it is <= 1 + slack.
    """
    t, u = inst.t, inst.u
    du = float(np.max(np.diff(u))) if len(u) > 1 else 0.0
    dt = float(np.max(np.diff(t))) if len(t) > 1 else 0.0
    slack = 0.75 * (du + dt) + 1e-12
    if math.exp(inst.B * u[-1]) * inst.C > 1.0 + 1e-12:
        raise GronwallHypothesisError(
            f"exp(B u*) C = {math.exp(inst.B * u[-1]) * inst.C:.4g} exceeds 1")
    int_f = _cum_trapezoid(inst.F, u, axis=1)
    int_e = _cum_trapezoid(inst.E / t[:, None], t, axis=0)
    rhs = inst.A * t[:, None] ** 2 + inst.B * int_f + inst.C * int_e
    lhs = inst.E + inst.F
    bad = lhs > rhs * (1.0 + slack) + 1e-300
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise GronwallHypothesisError(
            f"hypothesis fails at (t={t[i]:.6g}, u={u[j]:.6g}): "
            f"E+F={lhs[i, j]:.6g} > rhs={rhs[i, j]:.6g}")
    bound = 3.0 * inst.A * np.exp(inst.B * u)[None, :] * t[:, None] ** 2
    ratio = float(np.max(lhs / bound))
    return GronwallVerdict(max_ratio=ratio, passed=ratio <= 1.0 + slack)


def fit_gronwall_constants(E: np.ndarray, F: np.ndarray, t: np.ndarray,
                           u: np.ndarray) -> GronwallInstance:
    """Least-squares (A, B, C) for measured lattices, then inflate A until the
    hypothesis holds everywhere.  Used to report measured growth constants."""
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    E = np.asarray(E, dtype=float)
    F = np.asarray(F, dtype=float)
    int_f = _cum_trapezoid(F, u, axis=1)
    int_e = _cum_trapezoid(E / t[:, None], t, axis=0)
    lhs = (E + F).ravel()
    M = np.stack([np.broadcast_to(t[:, None] ** 2, E.shape).ravel(),
                  int_f.ravel(), int_e.ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(M, lhs, rcond=None)
    A, B, C = [max(float(x), 1e-12) for x in coef]
    if math.exp(B * u[-1]) * C > 1.0:
        C = 0.999 / math.exp(B * u[-1])
    rhs_bc = B * int_f + C * int_e
    with np.errstate(divide="ignore", invalid="ignore"):
        need = (E + F - rhs_bc) / np.broadcast_to(t[:, None] ** 2, E.shape)
    A = max(A, float(np.nanmax(need))) * A_INFLATION
    return GronwallInstance(A=A, B=B, C=C, t=t, u=u, E=E, F=F)
