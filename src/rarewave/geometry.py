"""Characteristic foliation and null-frame diagnostics for simulated flows.

The characteristic function u is transported as a level-set field solving

    du/dt + v . grad(u) - c |grad(u)| = 0,

so its level curves are the discrete rarefaction fronts.  From u we build
the front-adapted frame (unit normal, unit tangent, foliation densities
kappa = 1/|grad u| and mu = c*kappa, expansion chi, torsions zeta and eta)
and, from Cartesian stencils alone, the transverse-speed gradients of the
fixed second frame together with their commutation and propagation
residuals.
"""

from __future__ import annotations

import copy
import math
import mmap
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .euler2d import FlowField, Grid, _flat, advective_derivative, diagonal_rhs
from .gas import enthalpy
from .riemann1d import NumericalError

__all__ = [
    "Slice",
    "SecondFrame",
    "DegenerateFoliationError",
    "evolve_u",
    "iter_evolve_u",
    "foliate",
    "unit_normal",
    "frame_fields",
    "FRAME_DEPTH",
    "torsions",
    "second_frame",
    "advective_derivative",
    "directional_derivative",
    "generator_velocity",
    "BilinearStencil",
    "FlowStencil",
    "PairDiagnostics",
    "PAIR_DEPTH",
    "stencil_reach",
    "band_values",
    "check_rows",
    "bilinear_sample",
    "semi_lagrangian",
    "commutation_residual_y",
    "commutation_residual_z",
    "structure_residuals",
    "sign_monitors",
    "band_mask",
    "trace_characteristics",
    "RayTrace",
]

GRAD_FLOOR = 1e-8

# x1 derivatives chained in a frame: grad u for the normal, then grad Xhat for chi
FRAME_DEPTH = 2

# x1 derivatives chained before a pair diagnostic reads a band row: T(wbar) and
# then the advective derivative's d1 in the z commutation residual, and the
# nested directional derivatives of the chi structure residual
PAIR_DEPTH = 2


class DegenerateFoliationError(RuntimeError):
    """The level-set gradient collapsed inside the tracked band."""


class Slice:
    """One time slice of a flow: its gas, grid and time and its v1, v2 and c
    planes, each computed once from the field it is built from (any object
    with the FlowField attributes gas, grid, time, v1, v2 and c).

    Every analysis function reads a slice in place of its field,
    invariants() included.  `foliate` adds u and the band mask with the hull
    [lo, hi) of its rows, which is what a run keeps of a slice.
    `frame_fields` frames such a slice on rows of its grid: it adds kappa,
    mu, the unit normal (that1, that2), the expansion chi and the tangential
    derivatives xhat_v1, xhat_v2 and xhat_c of the flow, the planes that the
    pair diagnostics and energies read (`torsions` derives zeta and eta), and
    restricts every plane to those rows.

    Its planes hold the rows of its grid: the whole grid's, or those of a
    `RowWindow` once `cut` to it.  band_rows stays in the whole grid's rows.
    """

    invariants = FlowField.invariants
    band: Optional[np.ndarray] = None  # an unfoliated slice, or one foliated without a band
    band_rows = (0, 0)

    def __init__(self, field):
        self.gas, self.grid, self.time = field.gas, field.grid, field.time
        self.v1, self.v2, self.c = field.v1, field.v2, field.c

    # the unit tangent is the normal turned by -90 degrees; negation is exact
    @property
    def xhat1(self) -> np.ndarray:
        return self.that2

    @property
    def xhat2(self) -> np.ndarray:
        return -self.that1

    def cut(self, grid: Grid) -> None:
        """Keep only the rows of grid, a window of the rows this slice holds:
        each plane becomes a copy of those rows, so that its whole plane can
        go.  A row it does not hold raises NumericalError naming the time and
        the row.

        Each copy has an anonymous mapping of its own: a cut record lives for
        many slices, and on the heap its rows would keep the heap from
        shrinking over the whole planes freed meanwhile.
        """
        rows = _held(self, grid)
        for name, a in list(vars(self).items()):
            if isinstance(a, np.ndarray):
                kept = a[rows]
                held = np.frombuffer(mmap.mmap(-1, kept.nbytes), a.dtype).reshape(kept.shape)
                held[...] = kept
                setattr(self, name, held)
        self.grid = grid


def _held(sl: Slice, grid: Grid) -> slice:
    """The rows of grid as indices into the planes of sl, which hold the rows
    of sl.grid; NumericalError naming the time and the row when sl lacks one."""
    check_rows(grid.rows.start, grid.rows.stop, sl.grid, sl.time, "a plane of the slice")
    start = sl.grid.rows.start
    return slice(grid.rows.start - start, grid.rows.stop - start)


@dataclass
class SecondFrame:
    """Cartesian-frame transverse gradients of the flow at one time.

    y  = d(v1+c)/dx2,            yt = y / t
    z  = 1 - t * d(v1+c)/dx1,    zt = z / t
    chi = d(v2)/dx2,             eta = -t * d(v2)/dx1
    """

    time: float
    y: np.ndarray
    z: np.ndarray
    yt: np.ndarray
    zt: np.ndarray
    chi: np.ndarray
    eta: np.ndarray


def band_mask(u: np.ndarray, u_lo: float, u_hi: float) -> np.ndarray:
    return (u >= u_lo) & (u <= u_hi)


def _eno(up, s, dx, back, fwd, work):
    """Second-order ENO one-sided differences along a raveled line.

    up holds m + 4*s values: m cells with two ghost cells before and after,
    neighbours s apart.  The second differences (m + 2s), their adjacent
    minmod pairs (m + s) and the first differences (m + s) are written into
    the rows of work (3, >= m + 2s) once; the m backward and forward
    differences written into back and fwd are shifted ranges of them.
    """
    m = back.size
    d2, lim, tmp = work[0, :m + 2 * s], work[1, :m + s], work[2, :m + s]
    np.multiply(up[s:m + 3 * s], 2.0, out=d2)
    np.subtract(up[2 * s:], d2, out=d2)
    d2 += up[:m + 2 * s]
    d2 /= dx ** 2
    # branch-free minmod: max(min(a, b), 0) + min(max(a, b), 0)
    np.minimum(d2[:m + s], d2[s:], out=lim)
    np.maximum(lim, 0.0, out=lim)
    np.maximum(d2[:m + s], d2[s:], out=tmp)
    np.minimum(tmp, 0.0, out=tmp)
    lim += tmp
    lim *= 0.5 * dx
    d1 = np.subtract(up[2 * s:m + 3 * s], up[s:m + 2 * s], out=work[0, :m + s])
    d1 /= dx
    np.add(d1[:m], lim[:m], out=back)
    np.subtract(d1[s:], lim[s:], out=fwd)


def _one_sided(g, dx, axis, back, fwd, work):
    """ENO one-sided differences (backward, forward) of u along one axis.

    u is held in the interior rows of g (n1+4, n2); back and fwd (n1, n2)
    receive the result and work (3, (n1+2)*n2) is scratch.  Along x1 the two
    ghost rows on each side of g are filled first, and the stencils are
    shifted ranges of the raveled g.  Along x2 they are shifted ranges of the
    raveled u, so the two columns at each end of a row pair with the
    neighbouring row; those are then overwritten with the differences of a
    window of their periodic partners.
    """
    n2 = g.shape[1]
    if axis == 0:
        # odd reflections about the edge rows: linear extrapolation keeps
        # linear profiles exact
        np.subtract(2.0 * g[2], g[4:2:-1], out=g[:2])
        np.subtract(2.0 * g[-3], g[-4:-6:-1], out=g[-2:])
        _eno(_flat(g), n2, dx, _flat(back), _flat(fwd), work)
        return
    u = g[2:-2]
    _eno(_flat(u), 1, dx, _flat(back)[2:-2], _flat(fwd)[2:-2], work)
    window = u.take(np.r_[n2 - 4:n2, :4], axis=1)
    wback, wfwd = np.empty((2,) + window.shape)
    _eno(_flat(window), 1, dx, _flat(wback)[2:-2], _flat(wfwd)[2:-2], work)
    wrap = [n2 - 2, n2 - 1, 0, 1]
    back[:, wrap] = wback[:, 2:6]
    fwd[:, wrap] = wfwd[:, 2:6]


def _hamiltonian(g, ends, w, grid, diff, work):
    """Godunov upwind discretization of v.grad(u) - c|grad(u)|.

    u is held in g as for _one_sided.  v1, v2 and c are mixed from the planes
    (v1, v2, c) of ends[0] and ends[1] with weights 1 - w and w.  diff
    (4, n1, n2) and work are scratch; the result is a view into work.
    """
    bx, fx, by, fy = diff
    _one_sided(g, grid.dx1, 0, bx, fx, work)
    _one_sided(g, grid.dx2, 1, by, fy, work)
    adv, term, coef = (row[:bx.size].reshape(bx.shape) for row in work)

    def mix(k):
        np.multiply(ends[0][k], 1.0 - w, out=coef)
        np.multiply(ends[1][k], w, out=term)
        return np.add(coef, term, out=coef)

    v1 = mix(0)
    np.maximum(v1, 0.0, out=adv)
    adv *= bx
    np.minimum(v1, 0.0, out=term)
    term *= fx
    adv += term
    v2 = mix(1)
    for upwind, d in ((np.maximum, by), (np.minimum, fy)):
        upwind(v2, 0.0, out=term)
        term *= d
        adv += term
    # contracting-front branch of the Godunov Hamiltonian (speed -c < 0)
    grad = np.minimum(bx, 0.0, out=bx)
    np.square(grad, out=grad)
    for clip, d in ((np.maximum, fx), (np.minimum, by), (np.maximum, fy)):
        clip(d, 0.0, out=d)
        np.square(d, out=d)
        grad += d
    np.sqrt(grad, out=grad)
    grad *= mix(2)
    adv -= grad
    return adv


def evolve_u(snapshots: Sequence[FlowField], u_init: np.ndarray,
             cfl: float = 0.45) -> List[np.ndarray]:
    """Transport the characteristic function through the snapshot sequence.

    Between consecutive snapshots the velocity and sound-speed fields are
    interpolated linearly in time and u is advanced with forward-Euler
    substeps at the given CFL number.  Returns u at every snapshot time;
    a non-finite velocity or sound speed in a snapshot raises NumericalError.
    """
    return [u for _, u in iter_evolve_u(snapshots, u_init, cfl)]


def iter_evolve_u(fields: Iterable[FlowField], u_init: np.ndarray,
                  cfl: float = 0.45) -> Iterator[Tuple[FlowField, np.ndarray]]:
    """`evolve_u` over a stream: yields each field with u at its time.

    Fields are read one at a time, and each field's v1, v2 and c once; any
    object with the FlowField attributes time, grid, v1, v2 and c will do.
    """
    fields = iter(fields)
    s0 = next(fields, None)
    if s0 is None:
        raise ValueError("need at least one snapshot")
    grid = s0.grid
    n1, n2 = grid.n1, grid.n2
    if u_init.shape != (n1, n2):
        raise ValueError("u_init shape does not match the grid")
    yield s0, u_init.copy()
    # scratch of the stream: u lives in the interior rows of g
    g = np.empty((n1 + 4, n2))
    u = g[2:-2]
    u[...] = u_init
    diff = np.empty((4, n1, n2))
    work = np.empty((3, (n1 + 2) * n2))
    # each field's (v1, v2, c) planes serve both of its intervals
    start = (s0.v1, s0.v2, s0.c)
    for s1 in fields:
        t0, t1 = s0.time, s1.time
        end = (s1.v1, s1.v2, s1.c)
        # np.maximum propagates a NaN maximum, where the builtin max may drop it
        speed = np.maximum(np.max(np.abs(start[0]) + start[2]), np.max(np.abs(end[0]) + end[2]))
        speed2 = np.maximum(np.max(np.abs(start[1]) + start[2]), np.max(np.abs(end[1]) + end[2]))
        if not (np.isfinite(speed) and np.isfinite(speed2)):
            for s, (v1, v2, c) in ((s0, start), (s1, end)):
                bad = ~np.isfinite(np.abs(v1) + np.abs(v2) + c)
                if np.any(bad):
                    i, j = np.argwhere(bad)[0]
                    raise NumericalError(
                        f"non-finite flow at t={s.time:.6g} while transporting u over "
                        f"[{t0:.6g}, {t1:.6g}], first at (i={i}, j={j})")
        dt_max = cfl / (speed / grid.dx1 + speed2 / grid.dx2)
        nsub = max(1, int(math.ceil((t1 - t0) / dt_max)))
        dt = (t1 - t0) / nsub
        for m in range(nsub):
            h = _hamiltonian(g, (start, end), (m + 0.5) / nsub, grid, diff, work)
            h *= dt
            u -= h
        yield s1, u.copy()
        s0, start = s1, end


def foliate(field, u: np.ndarray, band: Optional[np.ndarray]) -> Slice:
    """The slice of field (a `Slice` or any field it is built from) foliated by
    u, with the band mask band (None for no band) and the hull of its rows.

    The slice keeps u and the band mask themselves, not copies, and shares
    the flow planes of a `Slice` field.  A collapsed gradient inside the band
    mask raises DegenerateFoliationError naming the time and the first
    collapsed cell.
    """
    sl = Slice(field)
    sl.u = u
    if band is None:
        return sl
    sl.band = band
    rows = np.flatnonzero(band.any(axis=1))
    if rows.size:
        lo, hi = sl.band_rows = int(rows[0]), int(rows[-1]) + 1
        wide = sl.grid.around(lo, hi, 1)
        gnorm = unit_normal(sl, wide)[0][lo - wide.lo:hi - wide.lo]
        collapsed = band[lo:hi] & (gnorm < GRAD_FLOOR)
        if np.any(collapsed):
            i, j = np.argwhere(collapsed)[0]
            raise DegenerateFoliationError(
                f"|grad u| < {GRAD_FLOOR} inside the tracked band at t={sl.time:.6g}, "
                f"first at (i={lo + i}, j={j})")
    return sl


def unit_normal(sl: Slice, grid: Grid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|grad u| and the unit normal grad u / max(|grad u|, GRAD_FLOOR) of a
    foliated slice on the rows of grid, its grid or a `RowWindow` of it: the
    one rule for the normal of the frame, of the band's gradient check, of
    the stencil reach and of the rays.  Like every x1 derivative on a
    window, they are NaN on a window edge inside the grid, so a caller
    widens the rows it reads by one.
    """
    du1, du2 = grid.grad(sl.u[_held(sl, grid)])
    gnorm = np.hypot(du1, du2)
    safe = np.maximum(gnorm, GRAD_FLOOR)
    return gnorm, du1 / safe, du2 / safe


def frame_fields(sl: Slice, grid: Grid) -> Slice:
    """The foliated slice sl framed on the rows of grid, a window of the rows
    sl holds that must hold every row of its band.

    kappa = 1/|grad u|, mu = c*kappa, unit normal along grad(u), unit
    tangent its rotation, and the tangential derivatives of the flow and the
    expansion chi from centered stencils.  Each is formed on the rows of
    grid widened by FRAME_DEPTH, so it holds the bits of the whole grid's
    frame; on a slice `cut` to fewer rows, a row that the widening would
    need past them makes the values near it NaN, as at any window edge.
    Every plane of the framed slice, the band mask among them, is a view of
    grid's rows.
    """
    check_rows(*sl.band_rows, grid, sl.time, "the band mask")
    rows = _held(sl, grid)
    lo, hi = grid.rows.start, grid.rows.stop
    held = sl.grid.rows
    wide = sl.grid.window(max(lo - FRAME_DEPTH, held.start), min(hi + FRAME_DEPTH, held.stop))
    gnorm, that1, that2 = unit_normal(sl, wide)
    kappa = 1.0 / np.maximum(gnorm, GRAD_FLOOR)
    xhat1, xhat2 = that2, -that1
    v1, v2, c = (a[_held(sl, wide)] for a in (sl.v1, sl.v2, sl.c))
    mu = c * kappa
    # psi_i = -v^i, so Xhat(psi_i) = -Xhat(v^i)
    xv1, xv2, xc, xx1, xx2 = (directional_derivative(wide.grad(a), xhat1, xhat2)
                              for a in (v1, v2, c, xhat1, xhat2))
    chi = (xhat1 * xv1 + xhat2 * xv2) - c * xhat2 * xx1 + c * xhat1 * xx2
    framed = copy.copy(sl)
    framed.grid = grid
    for name, a in vars(sl).items():
        if isinstance(a, np.ndarray):
            setattr(framed, name, a[rows])
    inner = slice(lo - wide.lo, hi - wide.lo)
    (framed.kappa, framed.mu, framed.that1, framed.that2, framed.chi, framed.xhat_v1,
     framed.xhat_v2, framed.xhat_c) = (a[inner] for a in (kappa, mu, that1, that2, chi,
                                                          xv1, xv2, xc))
    return framed


def torsions(sl: Slice) -> Tuple[np.ndarray, np.ndarray]:
    """The torsions (zeta, eta) of a framed slice on its grid:

        zeta = -kappa * (Xhat(c) - That . Xhat(v)),   eta = zeta + Xhat(mu).

    No pair diagnostic reads them, so they are derived on demand instead of
    held.
    """
    zeta = -sl.kappa * (-(sl.that1 * sl.xhat_v1 + sl.that2 * sl.xhat_v2) + sl.xhat_c)
    return zeta, zeta + directional_derivative(sl.grid.grad(sl.mu), sl.xhat1, sl.xhat2)


def second_frame(field: FlowField) -> SecondFrame:
    """Transverse gradients of the maximal characteristic speed and of v2."""
    if field.time <= 0.0:
        raise ValueError("second frame requires t > 0")
    return _second_frame(field.time, field.v1 + field.c, field.v2, field.grid)


def _second_frame(t: float, speed: np.ndarray, v2: np.ndarray, grid: Grid) -> SecondFrame:
    """Second-frame gradients from the time, v1+c and v2."""
    y = grid.d2(speed)
    z = 1.0 - t * grid.d1(speed)
    chi = grid.d2(v2)
    eta = -t * grid.d1(v2)
    return SecondFrame(t, y, z, y / t, z / t, chi, eta)


def directional_derivative(grad: Tuple[np.ndarray, np.ndarray], e1, e2) -> np.ndarray:
    """Derivative of f along the direction (e1, e2) from grad = `Grid.grad(f)`:
    e1 d1(f) + e2 d2(f).  Every frame derivative of a plane is this rule."""
    return e1 * grad[0] + e2 * grad[1]


def generator_velocity(sl: Slice, that1: np.ndarray, that2: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Velocity v - c*That of the front generator of slice sl with the unit
    normal (that1, that2) on the rows of its planes."""
    c = sl.c
    return sl.v1 - c * that1, sl.v2 - c * that2


class BilinearStencil:
    """Bilinear interpolation stencil of a point set on the cell-center
    lattice, periodic in x2, clamped in x1.

    Holds the four flat corner indices into a raveled field on the rows of
    grid (a grid or a `RowWindow` of one) and the weights fi, 1 - fi, fj,
    1 - fj, so one stencil samples any number of fields; `inside` marks the
    points whose x1-cell needed no clamping.  Cells and clamping are those of
    the whole grid; a point with a corner row outside a window's rows
    samples as NaN.
    """

    def __init__(self, x1p: np.ndarray, x2p: np.ndarray, grid: Grid):
        s = (x1p - grid.x1[0]) / grid.dx1
        i_floor = np.floor(s)
        self.inside = (i_floor >= 0) & (i_floor <= grid.n1 - 2)
        i0 = np.clip(i_floor.astype(int), 0, grid.n1 - 2)
        fi = np.clip(s - i0, 0.0, 1.0)
        r = x2p / grid.dx2 - 0.5
        j0 = np.floor(r).astype(int)
        fj = r - j0
        j0 = np.mod(j0, grid.n2)
        j1 = np.mod(j0 + 1, grid.n2)
        lo, hi = grid.rows.start, grid.rows.stop
        row0 = (i0 - lo) * grid.n2
        row1 = row0 + grid.n2
        self.corners = (row0 + j0, row1 + j0, row0 + j1, row1 + j1)
        self.fi, self.gi, self.fj, self.gj = fi, 1 - fi, fj, 1 - fj
        self.outside = np.flatnonzero((i0 < lo) | (i0 + 2 > hi))

    def __call__(self, f: np.ndarray) -> np.ndarray:
        """Sample the cell-centered field f at the stencil's points."""
        flat = f.ravel()
        c00, c10, c01, c11 = self.corners
        fi, gi, fj, gj = self.fi, self.gi, self.fj, self.gj
        # f00 * gi * gj + f10 * fi * gj + f01 * gi * fj + f11 * fi * fj, in that order;
        # the corner indices are in range but for the points outside, which read NaN
        out, term = np.empty(fi.shape), np.empty(fi.shape)
        np.take(flat, c00, out=out, mode="clip")
        out *= gi
        out *= gj
        for corner, wi, wj in ((c10, fi, gj), (c01, gi, fj), (c11, fi, fj)):
            np.take(flat, corner, out=term, mode="clip")
            term *= wi
            term *= wj
            out += term
        out.flat[self.outside] = np.nan
        return out


class FlowStencil:
    """End points of the forward integral curves of (a1, a2) over dt from
    every cell center of the rows of grid, and their bilinear stencil.

    `derivative` differences a field pair along these curves; `valid`
    masks the cells whose curve leaves the x1 range.
    """

    def __init__(self, a1, a2, dt: float, grid: Grid):
        rows = grid.rows
        shape = (rows.stop - rows.start, grid.n2)
        self.dt = dt
        self.end = BilinearStencil(grid.x1[rows, None] + np.broadcast_to(a1, shape) * dt,
                                   grid.x2[None, :] + np.broadcast_to(a2, shape) * dt, grid)
        self.valid = self.end.inside

    def derivative(self, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
        """(f1 at the curve end points - f0) / dt."""
        return (self.end(f1) - f0) / self.dt


def bilinear_sample(f: np.ndarray, x1p: np.ndarray, x2p: np.ndarray, grid: Grid) -> np.ndarray:
    """Bilinear interpolation of a cell-centered field, periodic in x2,
    clamped in x1."""
    return BilinearStencil(x1p, x2p, grid)(f)


def semi_lagrangian(f0: np.ndarray, f1: np.ndarray, a1, a2, t0: float, t1: float,
                    grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """Derivative of f along the flow of (a1, a2) by two-time differencing.

    Follows the forward integral curve from each cell center and reads f1
    there by bilinear interpolation (periodic in x2).  Returns (derivative,
    valid mask); cells whose curve leaves the x1 range are masked out.
    """
    flow = FlowStencil(a1, a2, t1 - t0, grid)
    return flow.derivative(f0, f1), flow.valid


def band_values(a: np.ndarray, sel: np.ndarray, grid: Grid, time: float, what: str) -> np.ndarray:
    """a[sel]: the values of a plane on the rows of grid that a band result
    reads.  A NaN among them raises NumericalError naming the time and the
    row; it is a value that needs rows past a window, or a NaN of the flow."""
    vals = a[sel]
    if np.isnan(vals).any():
        row = grid.rows.start + int(np.argwhere(np.isnan(a) & sel)[0][0])
        raise NumericalError(f"{what} is NaN at t={time:.6g}, row {row}, of the rows "
                             f"{grid.rows.start}..{grid.rows.stop - 1} it is formed on")
    return vals


def check_rows(lo: int, hi: int, grid: Grid, time: float, what: str) -> None:
    """Raise NumericalError naming the time and the row when the rows
    [lo, hi) that a result needs are not all rows of grid."""
    rows = grid.rows
    if lo < hi and (lo < rows.start or hi > rows.stop):
        row = lo if lo < rows.start else hi - 1
        raise NumericalError(f"{what} at t={time:.6g} needs row {row}, outside the rows "
                             f"{rows.start}..{rows.stop - 1} it is formed on")


def stencil_reach(s0: Slice, t1: float, rows: slice) -> int:
    """x1 rows that the flow stencils of a pair of s0 and a slice at the later
    time t1 reach from the cells of rows: ceil(max|a1| dt / dx1) + 2 (the
    second corner row, and rounding), for the larger of the front generator
    v - c*That and the characteristic (v1 + c, v2) of `sign_monitors`.  The
    two are applied side by side, never one to the output of the other.  s0
    is a foliated slice on its whole grid; its normal is formed on rows and
    one more each side."""
    v1, c = s0.v1[rows], s0.c[rows]
    wide = s0.grid.around(rows.start, rows.stop, 1)
    that1 = unit_normal(s0, wide)[1][rows.start - wide.lo:rows.stop - wide.lo]
    speed = max(np.max(np.abs(v1 - c * that1)), np.max(np.abs(v1 + c)))
    cells = speed * (t1 - s0.time) / s0.grid.dx1
    if not np.isfinite(cells):
        raise NumericalError(f"non-finite flow speed at t={s0.time:.6g} in the rows "
                             f"{rows.start}..{rows.stop - 1}")
    return math.ceil(cells) + 2


class PairDiagnostics:
    """Commutation residuals, structure residuals and sign monitors of one
    slice pair (s0, s1) in time order.  The structure residuals and the sign
    monitors read the frame planes of framed slices (`frame_fields`); the
    commutation residuals read only the flow, of any fields.

    Every plane is formed on the rows of the slices' grid: a whole grid, or
    a `RowWindow` of the rows a caller reads plus a halo (a run frames its
    slices on `energies.band_window` with `frame_fields`).  Planes and
    masks that methods take or return hold those rows; a value that would
    need rows past a window is NaN.

    What several of them share is formed once, on first use: the invariants
    of both slices, X(wbar) and T(wbar), the midpoint fields of the
    commutation identities and the flow stencil of the front generator.
    """

    def __init__(self, s0: Slice, s1: Slice, use_euler_rhs: bool = True):
        self.s0, self.s1 = self.slices = s0, s1
        self.use_euler_rhs = use_euler_rhs
        self.grid = s0.grid
        self.t = 0.5 * (s0.time + s1.time)

    @cached_property
    def invariants(self):
        """(wbar, w, psi2) of s0 and of s1."""
        return self.s0.invariants(), self.s1.invariants()

    @cached_property
    def xwbar(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """X(wbar) = d2(wbar) on s0, on s1 and their mean."""
        xwbar0, xwbar1 = (self.grid.d2(inv[0]) for inv in self.invariants)
        return xwbar0, xwbar1, 0.5 * (xwbar0 + xwbar1)

    @cached_property
    def twbar0(self) -> np.ndarray:
        """T(wbar) = -t d1(wbar) on s0."""
        return -self.s0.time * self.grid.d1(self.invariants[0][0])

    @cached_property
    def midpoint(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, SecondFrame]:
        """v1+c, v2, the inner L(wbar) and the second frame at the midpoint
        time; L(wbar) is its Euler-equation value c*X(psi2)/2, which needs no
        time differencing, with use_euler_rhs, else the advective derivative."""
        (s0, s1), grid = self.slices, self.grid
        c = 0.5 * (s0.c + s1.c)
        speed = 0.5 * (s0.v1 + s1.v1) + c
        v2 = 0.5 * (s0.v2 + s1.v2)
        inv0, inv1 = self.invariants
        if self.use_euler_rhs:
            wbar_m, w_m, psi2_m = (0.5 * (a + b) for a, b in zip(inv0, inv1))
            lwbar = diagonal_rhs("wbar", c, wbar_m, w_m, psi2_m, grid)
        else:
            lwbar = advective_derivative(inv0[0], inv1[0], speed, v2, s0.time, s1.time, grid)
        frame = _second_frame(self.t, 0.5 * (s0.v1 + s0.c + s1.v1 + s1.c), v2, grid)
        return speed, v2, lwbar, frame

    @cached_property
    def generator(self) -> FlowStencil:
        """Flow stencil of the front generator of s0 over the pair."""
        s0, s1 = self.slices
        return FlowStencil(*generator_velocity(s0, s0.that1, s0.that2), s1.time - s0.time,
                           self.grid)

    def commutation_residual_y(self) -> np.ndarray:
        """Residual of the transverse commutation identity for y/t,
        yt * T(wbar) = L(X(wbar)) - X(L(wbar)) + chi * X(wbar), with the frame
        operators T = -t d1, X = d2 and L the advective derivative along (v1+c, v2)."""
        s0, s1, grid = self.s0, self.s1, self.grid
        speed, v2, lwbar, frame = self.midpoint
        xwbar0, xwbar1, xwbar_m = self.xwbar
        l_xwbar = advective_derivative(xwbar0, xwbar1, speed, v2, s0.time, s1.time, grid)
        x_lwbar = grid.d2(lwbar)
        (wbar0, _, _), (wbar1, _, _) = self.invariants
        twbar = -self.t * grid.d1(0.5 * (wbar0 + wbar1))
        return frame.yt * twbar - (l_xwbar - x_lwbar + frame.chi * xwbar_m)

    def commutation_residual_z(self) -> np.ndarray:
        """Residual of the normal commutation identity for z/t,
        zt * T(wbar) = L(T(wbar)) - T(L(wbar)) + eta * X(wbar)."""
        s0, s1, grid = self.s0, self.s1, self.grid
        speed, v2, lwbar, frame = self.midpoint
        twbar0 = self.twbar0
        twbar1 = -s1.time * grid.d1(self.invariants[1][0])
        l_twbar = advective_derivative(twbar0, twbar1, speed, v2, s0.time, s1.time, grid)
        t_lwbar = -self.t * grid.d1(lwbar)
        twbar_m = 0.5 * (twbar0 + twbar1)
        return frame.zt * twbar_m - (l_twbar - t_lwbar + frame.eta * self.xwbar[2])

    def structure_residuals(self) -> dict:
        """Propagation-equation residuals along the front generator.

        Derivatives along the generator (velocity v - c*normal) are two-time
        semi-Lagrangian differences over its stencil.  Returns a dict of
        (residual, valid-mask) pairs, all sharing one mask:

            kappa:  L(kappa) - (m + e*kappa),
                    m = -(gamma+1)/(gamma-1) * T(c),  e = -c^{-1} That^i L(v^i)
            that1, that2:  L(That^k) - (That^j Xhat(psi_j) + Xhat(c)) Xhat^k
            chi (leading order):  L(chi) + (gamma+1)/2 * Xhat(Xhat(h))

        The Xhat derivatives of the flow are those kept in s0.
        """
        (s0, s1), grid = self.slices, self.grid
        g, c0 = s0.gas.gamma, s0.c
        ld, valid = self.generator.derivative, self.generator.valid

        def xhat(f):
            return directional_derivative(grid.grad(f), s0.xhat1, s0.xhat2)

        m_coef = -(g + 1.0) / (g - 1.0) * (
            s0.kappa * directional_derivative(grid.grad(c0), s0.that1, s0.that2))
        e_coef = -(s0.that1 * ld(s0.v1, s1.v1) + s0.that2 * ld(s0.v2, s1.v2)) / c0
        drive = -(s0.that1 * s0.xhat_v1 + s0.that2 * s0.xhat_v2) + s0.xhat_c
        return {"kappa": (ld(s0.kappa, s1.kappa) - (m_coef + e_coef * s0.kappa), valid),
                "that1": (ld(s0.that1, s1.that1) - drive * s0.xhat1, valid),
                "that2": (ld(s0.that2, s1.that2) - drive * s0.xhat2, valid),
                "chi": (ld(s0.chi, s1.chi)
                        + 0.5 * (g + 1.0) * xhat(xhat(enthalpy(s0.gas, c0))), valid)}

    def sign_monitors(self, mask: np.ndarray) -> dict:
        """Extrema over the tracked band of the coercivity quantities: L(mu) along
        the generator, T(wbar) = -t d1(wbar) and the incoming-null derivative
        2*T(wbar) + (t/c) L(wbar)."""
        s0, s1 = self.slices
        (wbar0, _, _), (wbar1, _, _) = self.invariants
        l_wbar, m_w = semi_lagrangian(wbar0, wbar1, s0.v1 + s0.c, s0.v2, s0.time, s1.time,
                                      self.grid)
        lbar_wbar = 2.0 * self.twbar0 + s0.time / s0.c * l_wbar
        l_mu = self.generator.derivative(s0.mu, s1.mu)

        def mm(name, a, sel):
            vals = band_values(a, sel, self.grid, s0.time, name)
            if vals.size == 0:
                raise ValueError("tracked band is empty")
            return float(vals.min()), float(vals.max())

        return {"L_mu": mm("L_mu", l_mu, mask & self.generator.valid),
                "T_wbar": mm("T_wbar", self.twbar0, mask),
                "Lbar_wbar": mm("Lbar_wbar", lbar_wbar, mask & m_w)}


def commutation_residual_y(s0: FlowField, s1: FlowField, use_euler_rhs: bool = True) -> np.ndarray:
    """`PairDiagnostics.commutation_residual_y` of the pair (s0, s1)."""
    return PairDiagnostics(s0, s1, use_euler_rhs=use_euler_rhs).commutation_residual_y()


def commutation_residual_z(s0: FlowField, s1: FlowField, use_euler_rhs: bool = True) -> np.ndarray:
    """`PairDiagnostics.commutation_residual_z` of the pair (s0, s1)."""
    return PairDiagnostics(s0, s1, use_euler_rhs=use_euler_rhs).commutation_residual_z()


def structure_residuals(s0: Slice, s1: Slice):
    """`PairDiagnostics.structure_residuals` of the framed pair (s0, s1)."""
    return PairDiagnostics(s0, s1).structure_residuals()


def trace_characteristics(slices: Sequence[Slice], x1_start: np.ndarray,
                          x2_start: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate sample rays of the front generator v - c*normal through
    foliated slices on their whole grid.

    Returns the ray positions (n_times, n_rays, 2) and u sampled along them;
    see RayTrace.
    """
    rays = RayTrace(slices[0], x1_start, x2_start)
    for sl in slices[1:]:
        rays.advance(sl)
    return np.stack(rays.positions), np.stack(rays.u_along)


class RayTrace:
    """Sample rays of the front generator v - c*normal, one slice at a time.

    Cross-validation for the level-set transport: the characteristic value u
    interpolated along each ray should stay constant.  Each slice interval
    takes 8 midpoint substeps.  A slice is a foliated slice on its whole
    grid, whose normal `unit_normal` forms.  `positions` ((n_rays, 2) each)
    and `u_along` gain one entry per slice; of the flow only the generator
    velocity of the latest slice is kept.
    """

    def __init__(self, sl: Slice, x1_start: np.ndarray, x2_start: np.ndarray):
        self.x1 = np.asarray(x1_start, dtype=float).copy()
        self.x2 = np.asarray(x2_start, dtype=float).copy()
        self.positions: List[np.ndarray] = []
        self.u_along: List[np.ndarray] = []
        self._sample(sl, generator_velocity(sl, *unit_normal(sl, sl.grid)[1:]))

    def _sample(self, sl: Slice, velocity):
        self.time, self.velocity = sl.time, velocity
        self.positions.append(np.stack([self.x1, self.x2], axis=-1))
        self.u_along.append(bilinear_sample(sl.u, self.x1, self.x2, sl.grid))

    def advance(self, sl: Slice):
        """Integrate the rays to the next slice and sample u there."""
        substeps = 8
        grid = sl.grid
        x1, x2 = self.x1, self.x2
        velocity = generator_velocity(sl, *unit_normal(sl, grid)[1:])
        (a10, a20), (a11, a21) = self.velocity, velocity
        dt = (sl.time - self.time) / substeps
        for m in range(substeps):
            w = (m + 0.5) / substeps
            at = BilinearStencil(x1, x2, grid)
            v1 = (1.0 - w) * at(a10) + w * at(a11)
            v2 = (1.0 - w) * at(a20) + w * at(a21)
            x1 = x1 + dt * v1
            x2 = np.mod(x2 + dt * v2, 2.0 * math.pi)
        self.x1, self.x2 = x1, x2
        self._sample(sl, velocity)


def sign_monitors(s0: Slice, s1: Slice, mask: np.ndarray) -> dict:
    """`PairDiagnostics.sign_monitors` of the framed pair (s0, s1) over mask."""
    return PairDiagnostics(s0, s1).sign_monitors(mask)
