"""Pointwise geometry of special Lagrangian patches in C³ ≅ R⁶.

A patch is a parametrized immersion F: U ⊂ R³ → R⁶.  It is Lagrangian when
ω₀ vanishes on every tangent plane and special Lagrangian when Im Υ₀ vanishes
there as well.  At a point of a special Lagrangian patch the second
fundamental form, read through J in an adapted orthonormal tangent frame,
is a traceless symmetric cubic; that cubic is the pointwise invariant the
:mod:`slag3.cubics` machinery classifies.

All residuals are dimensionless: symplectic pairings are normalized by
tangent-vector norms, the volume-form defect by the tangent 3-volume, and
first-derivative compatibility defects (Codazzi, Gauss) are reported as
plain Frobenius norms of the offending tensors.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ambient import apply_j, upsilon0
from .cubics import (
    _SECONDS as _CLASSIFY_SECONDS,
    _SYM3,
    HarmonicCubic,
    NormalFormResult,
    _cubic_errors,
    _full,
    _gather,
    _pullback,
    _rowdot,
    _slot_permutations,
    _trace_vectors,
    _traceless,
    classify,
)

__all__ = [
    "GeometryError",
    "RankDeficientError",
    "NotLagrangianError",
    "TraceResidualError",
    "FrameAlignmentError",
    "StepTooSmallError",
    "ImmersionPatch",
    "AdaptedFrame",
    "PointReport",
    "FRAME_TOL",
    "grid_axes",
    "jacobian",
    "hessian",
    "validate_derivatives",
    "lagrangian_residual",
    "special_residual",
    "adapted_frame",
    "fundamental_cubic",
    "point_report",
    "sweep",
    "reports_to_csv",
    "codazzi_gauss_residual",
    "transform_patch",
    "scale_patch",
]

log = logging.getLogger(__name__)

_EPS = np.finfo(float).eps
_FD_STEP_1 = _EPS ** (1.0 / 3.0)   # first-derivative central differences
_FD_STEP_2 = _EPS ** 0.25          # direct second differences
FRAME_TOL = 1e-6                   # Lagrangian residual admitted by frames
_RANK_TOL = 1e-8                   # singular-value ratio for immersion rank
_JAC_RTOL = 1e-6                   # analytic-vs-FD jacobian deviation admitted
_GRID_INSET = 0.05                 # share of each domain side left off grids
_TRACE_FAIL = 1e-3                 # relative trace residual that aborts
_ROUNDOFF_SHARE = 1e-6             # largest roundoff floor, per unit ‖h‖²
_CSV_FIELDS = (["u1", "u2", "u3"]
               + [f"x{i}" for i in range(1, 7)]
               + ["lag_res", "im_res", "trace_res"]
               + [f"c{i}" for i in range(1, 11)]
               + ["type", "r", "s"])


class GeometryError(ValueError):
    """Base class for patch-geometry failures."""


class RankDeficientError(GeometryError):
    """Jacobian is numerically rank-deficient at the requested point."""


class NotLagrangianError(GeometryError):
    """Symplectic residual too large for frame/cubic extraction."""


class TraceResidualError(GeometryError):
    """Raw cubic trace residual too large; derivatives are inconsistent."""


class FrameAlignmentError(GeometryError):
    """Neighboring adapted frames could not be aligned for differencing."""


class StepTooSmallError(GeometryError):
    """Finite-difference residual grows under step halving (cancellation)."""


@dataclass(frozen=True)
class ImmersionPatch:
    """Parametrized 3-fold patch F: U ⊂ R³ → R⁶.

    The maps broadcast over leading axes: ``eval`` maps parameter points
    (..., 3) to positions (..., 6); ``jac`` and ``hess``, when given, are
    the analytic derivative maps to (..., 6, 3) and (..., 6, 3, 3).  Each
    output row depends on its own point alone, byte for byte.  Missing
    derivatives fall back to central finite differences with steps
    eps^(1/3)·(1+|u|) and eps^(1/4)·(1+|u|).  ``eval`` serves positions and
    that fallback only: frames, cubics and the Codazzi–Gauss audit read
    ``jac`` and ``hess`` alone.  This module calls each map with one (n, 3)
    stack (a point is a stack of one), so a map that raises fails every
    node of that call.  The gallery's maps compute in C³ on the (n, 3)
    stack of their points, and `gallery._patch` alone makes their outputs
    real, so a bare point (3,) rounds as a one-row stack (1, 3); a map that
    computes on 0-d operands may not, since numpy's complex arithmetic
    there is not its array loop.
    """

    name: str
    params: dict = field(default_factory=dict)
    domain: tuple = (((-1.0, 1.0),) * 3)
    eval: callable = None
    jac: callable = None
    hess: callable = None

    def __post_init__(self):
        if self.eval is None:
            raise ValueError("an immersion patch needs an eval map")
        if len(self.domain) != 3 or not all(
                -math.inf < lo < hi < math.inf for lo, hi in self.domain):
            raise ValueError("domain must be three finite nonempty "
                             "intervals")  # NaN fails too


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal oriented tangent frame (e1, e2, e3) at a patch point."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    position: np.ndarray

    def matrix(self):
        """Frame vectors as the columns of a (6,3) array."""
        return np.stack([self.e1, self.e2, self.e3], axis=1)


@dataclass(frozen=True)
class PointReport:
    """Everything the sweep records at one grid node."""

    u: np.ndarray
    position: np.ndarray = None
    lag_res: float = math.nan
    im_res: float = math.nan
    trace_res: float = math.nan
    cubic: HarmonicCubic = None
    nf: NormalFormResult = None
    error: str = None


class _Nodes:
    """A stack of parameter points (n, 3) and its open rows.  A failed row
    is closed, its exception kept in ``errors``; per-row results are arrays
    over all n rows, filled at the open ones.  A row with a non-finite
    coordinate is closed before any map runs."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float).reshape(-1, 3)
        self.open = np.arange(len(self.u))
        self.errors = [None] * len(self.u)
        self.fail(~np.isfinite(self.u).all(1), lambda i: GeometryError(
            f"parameter point {self.u[i]} is not finite"))

    def fail(self, bad, error):
        """Close the open rows set in the mask `bad`, row i with error(i);
        nothing to do when no row is bad."""
        if not bad.any():
            return
        for i in self.open[bad]:
            self.errors[i] = error(i)
        self.open = self.open[~bad]

    def spread(self, values):
        """Values of the open rows (m, ...) as an array over all rows.  While
        every row is open that is the values themselves, uncopied when they
        are C-contiguous, the layout the general path gives."""
        if len(self.open) == len(self.u):
            return np.ascontiguousarray(values)
        out = np.full((len(self.u),) + values.shape[1:], np.nan, values.dtype)
        out[self.open] = values
        return out

    def call(self, fn, shape, what, kind=GeometryError):
        """fn on the stack of open rows (not called when none is open) over
        all rows; a row with a non-finite entry is closed with `kind`."""
        if not len(self.open):
            return np.full((len(self.u),) + shape, np.nan)
        x = np.asarray(fn(self.u[self.open]), dtype=float)
        bad = ~np.isfinite(x).reshape(len(x), -1).all(axis=1)
        x = self.spread(x)
        self.fail(bad, lambda i: kind(
            f"{what} has non-finite entries at {self.u[i]}"))
        return x


def _strict(stage, patch, u):
    """stage(patch, nodes) on u; the first failed row raises its error."""
    nodes = _Nodes(u)
    out = stage(patch, nodes)
    for exc in filter(None, nodes.errors):
        raise exc
    return out


def _step(base, u):
    """FD steps base·(1 + |u|) per row of u, |u| rounded as for one point."""
    return base * (1.0 + np.sqrt(_rowdot(u, u)))


def _central(fn, u, h):
    """Central differences (n, ..., 3) of fn along the three axes at the rows
    of u (n, 3), steps h (n,), from one call on the 6n stencil points."""
    du = h[:, None, None] * np.eye(3)                  # row a: h·e_a
    f = np.asarray(fn(np.concatenate([u[:, None] + du, u[:, None] - du], 1)
                      .reshape(-1, 3)), dtype=float)
    f = f.reshape((len(u), 2, 3) + f.shape[1:])
    two_h = (2.0 * h).reshape((-1, 1) + (1,) * (f.ndim - 3))
    return np.moveaxis((f[:, 0] - f[:, 1]) / two_h, 1, -1)


_PAIRS = np.triu_indices(3, 1)  # the pairs i < j of three indices: (i's, j's)


def _second_differences(fn, u, s):
    """Second differences (n, 3, 3, ...) of fn at the rows of u (n, 3),
    steps s (n,), from one call on the 19n points u, u ± s·e_a and
    u ± s·e_a ± s·e_b (a < b)."""
    d = s[:, None, None] * np.eye(3)
    plus, minus = u[:, None] + d, u[:, None] - d
    mixed = [x[:, a] + sign * d[:, b] for a, b in zip(*_PAIRS)
             for x in (plus, minus) for sign in (1.0, -1.0)]
    x = np.concatenate([u[:, None], plus, minus, np.stack(mixed, 1)], 1)
    f = np.asarray(fn(x.reshape(-1, 3)), dtype=float)
    f = f.reshape((len(s), 19) + f.shape[1:])
    s = s.reshape((-1,) + (1,) * (f.ndim - 2))
    f0, fp, fm = f[:, 0], f[:, 1:4], f[:, 4:7]
    second = np.empty((f.shape[0], 3, 3) + f.shape[2:])
    for a in range(3):
        second[:, a, a] = (fp[:, a] - 2.0 * f0 + fm[:, a]) / s**2
    for k, (a, b) in enumerate(zip(*_PAIRS)):
        pp, pm, mp, mm = (f[:, 7 + 4 * k + j] for j in range(4))
        second[:, a, b] = second[:, b, a] = (pp - pm - mp + mm) / (4.0 * s**2)
    return second


def jacobian(patch: ImmersionPatch, u):
    """dF at u: (6, 3) at a point (3,), (n, 6, 3) on a stack (n, 3);
    analytic when the patch provides it, else central FD, with the stencil
    of the whole stack in one ``eval`` call."""
    x = np.asarray(u, dtype=float).reshape(-1, 3)
    t = (patch.jac(x) if patch.jac is not None
         else _central(patch.eval, x, _step(_FD_STEP_1, x)))
    return np.asarray(t, dtype=float).reshape(np.shape(u)[:-1] + (6, 3))


def hessian(patch: ImmersionPatch, u):
    """D²F at u, (6,3,3) at a point or (n, 6, 3, 3) on a stack, symmetrized
    in the two parameter slots.  Preference order: analytic hessian; central
    differences of an analytic jacobian; direct second differences of eval,
    each stencil covering the whole stack in one map call."""
    x = np.asarray(u, dtype=float).reshape(-1, 3)
    if patch.hess is None and patch.jac is None:
        s = _step(_FD_STEP_2, x)
        h = np.moveaxis(_second_differences(patch.eval, x, s), -1, 1)
    else:
        h = np.asarray(patch.hess(x) if patch.hess is not None else _central(
            patch.jac, x, _step(_FD_STEP_1, x)), dtype=float)  # FD slot last
        h = 0.5 * (h + np.swapaxes(h, -1, -2))
    return h.reshape(np.shape(u)[:-1] + (6, 3, 3))


def validate_derivatives(patch: ImmersionPatch, n=20, seed=0):
    """Check an analytic jacobian against central FD at random interior points.

    Returns the worst relative deviation; raises GeometryError unless it is
    finite and at most 1e-6, so a NaN map value fails the check.
    """
    if patch.jac is None:
        return 0.0
    lo, hi = np.array(patch.domain).T
    u = lo + (hi - lo) * (_GRID_INSET + (1 - 2 * _GRID_INSET)
                          * np.random.default_rng(seed).random((n, 3)))
    jf = _central(patch.eval, u, _step(_FD_STEP_1, u))
    worst = float(np.max(np.linalg.norm(jacobian(patch, u) - jf, axis=(1, 2))
                         / np.maximum(1.0, np.linalg.norm(jf, axis=(1, 2)))))
    if not worst <= _JAC_RTOL:  # a NaN deviation fails too
        raise GeometryError(
            f"analytic jacobian of {patch.name!r} deviates from finite "
            f"differences by {worst:.3e}")
    return worst


def _checked_jacobian(patch, nodes):
    """Jacobians (n, 6, 3) from one call on the open rows; a row is closed
    as rank-deficient when an entry is not finite (before any SVD) or when
    sigma_3 <= _RANK_TOL * sigma_1, the zero jacobian included."""
    t = nodes.call(lambda x: jacobian(patch, x), (6, 3),
                   f"jacobian of {patch.name!r}", RankDeficientError)
    sv = nodes.spread(np.linalg.svd(t[nodes.open], compute_uv=False))
    nodes.fail(sv[nodes.open, -1] <= _RANK_TOL * sv[nodes.open, 0],
               lambda i: RankDeficientError(
                   f"jacobian of {patch.name!r} is rank-deficient at "
                   f"{nodes.u[i]} (singular values {sv[i]})"))
    return t


def _norm(x, axis=None):
    """np.linalg.norm(x, axis=axis) of a real array, computed as that
    function computes it, without its argument handling: along an axis,
    the square root of the sum of squares; over all entries, a float, the
    square root of one dot of the entries in memory order."""
    if axis is not None:
        return np.sqrt((x * x).sum(axis=axis))
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _pairing_residual(t):
    """Worst normalized pairing |ω₀(t_a, t_b)| / (|t_a||t_b|) of two columns
    of each matrix of t (m, 6, 3).  The residual is homogeneous of degree 0,
    so each matrix is first scaled by the power of two that brings its
    largest entry into [0.5, 1): exact, and safe from over- and underflow."""
    t = np.ldexp(t, -np.frexp(np.abs(t).max(axis=(1, 2)))[1][:, None, None])
    pair = apply_j(np.swapaxes(t, 1, 2)) @ t   # pair[a, b] = ω₀(t_a, t_b)
    norms = _norm(t, axis=1)
    a, b = _PAIRS
    return np.max(np.abs(pair[:, a, b]) / (norms[:, a] * norms[:, b]), axis=1)


def _frames(t):
    """(frames e, preimages v with t v = e, Υ₀ of the Gram–Schmidt frames)
    of full-rank jacobians t (m, 6, 3).  Gram–Schmidt is t = q·r with the
    signs of diag(r) moved into q; the last two legs are swapped (P) when
    Re Υ₀(q) < 0.  So v = r⁻¹·diag(signs)·P, and Υ₀(t)/√det(tᵀt) = ±Υ₀(q).
    """
    q, r = np.linalg.qr(t)
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs = np.where(signs == 0.0, 1.0, signs)[:, None, :]
    q = q * signs                           # classical GS: e1 along t1, etc.
    ups = upsilon0(q[..., 0], q[..., 1], q[..., 2])
    swap = (ups.real < 0.0)[:, None, None]
    v = np.linalg.inv(r) * signs
    return (np.where(swap, q[..., [0, 2, 1]], q),
            np.where(swap, v[..., [0, 2, 1]], v), ups)


def lagrangian_residual(patch: ImmersionPatch, u):
    """Worst normalized symplectic pairing of two tangent vectors at u."""
    return float(_pairing_residual(_strict(_checked_jacobian, patch, u))[0])


def special_residual(patch: ImmersionPatch, u):
    """(|Im Υ₀|, sign of Re Υ₀) of the Gram–Schmidt frame of the tangent
    vectors at u: Υ₀ of the tangent vectors over their 3-volume."""
    ups = _frames(_strict(_checked_jacobian, patch, u))[2][0]
    return float(abs(ups.imag)), float(np.sign(ups.real))


def _checked_frame(patch, nodes):
    """(jacobians, frames e, preimages v, Lagrangian residuals, Υ₀ of the
    frames) over all rows, from one jacobian call on the open rows.  A row
    is closed when its jacobian fails the rank check or its Lagrangian
    residual exceeds FRAME_TOL."""
    t = _checked_jacobian(patch, nodes)
    lag = nodes.spread(_pairing_residual(t[nodes.open]))
    nodes.fail(lag[nodes.open] > FRAME_TOL, lambda i: NotLagrangianError(
        f"Lagrangian residual {lag[i]:.3e} at {nodes.u[i]} exceeds "
        f"{FRAME_TOL:.1e}"))
    return (t, *map(nodes.spread, _frames(t[nodes.open])), lag)


def _positions(patch, nodes):
    return nodes.call(patch.eval, (6,), f"position of {patch.name!r}")


def adapted_frame(patch: ImmersionPatch, u):
    """Orthonormal tangent frame with Re Υ₀(e1,e2,e3) > 0 at a Lagrangian point.

    Gram–Schmidt of the jacobian columns; the last two legs are swapped when
    the holomorphic volume of the frame has negative real part.  Points whose
    Lagrangian residual exceeds FRAME_TOL are rejected.
    """
    e = _strict(_checked_frame, patch, u)[1]
    return AdaptedFrame(*e[0].T, position=_strict(_positions, patch, u)[0])


_SYM4 = _slot_permutations(4)  # (24, 81)


def _symmetrize(t, table):
    """Symmetric parts (n, 3^k) of flat tensors t (n, 3^k), table _SYM3 or
    _SYM4: one gather of every slot transpose and one sum over them, which
    adds the transposes left to right in the table's row order."""
    return np.take(t, table, axis=1).sum(axis=1) / len(table)


def _cubic_at(patch, nodes):
    """(jacobians, hessians, frames e, preimages v, Υ₀ of the frames,
    Lagrangian and raw trace residuals, cubic coefficient rows) over all
    rows, from one jacobian and one hessian call; h_ijk = g₀(D²F(v_j, v_k),
    J e_i) is two stacked matrix products.  A row is closed when its frame
    fails, its hessian is not finite, its cubic norm overflows or its trace
    residual exceeds 1e-3 of the cubic norm; a closed row's coefficients
    are zero.  Callers wrap a row in a HarmonicCubic only where they return
    one.  The raw tensor is symmetrized through the (6, 27) table _SYM3
    (_symmetrize): its six slot transposes, summed left to right in
    _slot_permutations order."""
    t, e, v, ups, lag = _checked_frame(patch, nodes)
    h2 = nodes.call(lambda x: hessian(patch, x), (6, 3, 3),
                    f"hessian of {patch.name!r}")
    rows = nodes.open
    je = apply_j(np.swapaxes(e[rows], 1, 2))           # row i: J e_i
    w = np.swapaxes(v[rows], 1, 2)[:, None] @ h2[rows] @ v[rows][:, None]
    a = (je @ w.reshape(-1, 6, 9)).reshape(-1, 27)  # J e_i · vᵀ D²F v
    s = _symmetrize(a, _SYM3)
    raw = _gather(s.reshape(-1, 3, 3, 3))
    trace = nodes.spread(_norm(_trace_vectors(raw), axis=1))
    scale = nodes.spread(_norm(s, axis=1))
    coeffs = nodes.spread(_traceless(raw))
    nodes.fail(~np.isfinite(scale[rows]), lambda i: GeometryError(
        f"cubic of {patch.name!r} overflows at {nodes.u[i]}"))
    nodes.fail(trace[nodes.open] > _TRACE_FAIL * scale[nodes.open] + 1e-12,
               lambda i: TraceResidualError(
                   f"raw cubic trace residual {trace[i]:.3e} exceeds "
                   f"{_TRACE_FAIL:.0e} of the cubic norm {scale[i]:.3e}"))
    out = np.zeros_like(coeffs)
    out[nodes.open] = coeffs[nodes.open]
    return t, h2, e, v, ups, lag, trace, out


def fundamental_cubic(patch: ImmersionPatch, u):
    """Second fundamental form at u as a traceless cubic in the adapted frame.

    h_ijk = g₀(D²F(v_j, v_k), J e_i) with v_a the jacobian preimages of the
    frame legs; the raw tensor is symmetrized and trace-projected.  Returns
    (cubic, frame, raw trace residual).  The raw trace residual is the norm
    of the trace vector before projection — for a genuinely minimal patch it
    is pure numerical noise, and a value above 1e-3 of the cubic norm aborts.
    """
    _, _, e, _, _, _, trace, coeffs = _strict(_cubic_at, patch, u)
    return HarmonicCubic(coeffs[0]), AdaptedFrame(
        *e[0].T, position=_strict(_positions, patch, u)[0]), float(trace[0])


def point_report(patch: ImmersionPatch, u):
    """Full residual/cubic/classification record at a parameter point.

    The Lagrangian and special residuals are read off the one jacobian that
    the frame and the cubic are built from; frames admit a Lagrangian
    residual up to FRAME_TOL, and the cubic is classified at the default
    symmetry tolerance of :func:`slag3.cubics.classify`.

    `u` is one point (3,), which gives one PointReport, or a stack (n, 3),
    which gives a list of n, each equal to the report of its row alone.
    Each patch map is called once on the stack of nodes still open (eval
    twice: positions, then frame origins), and all cubics go to one
    `classify` call.  The node cubics are checked for admissibility in one
    stacked pass (the check HarmonicCubic runs), and only the rows that pass
    are wrapped.  A node whose position, derivatives, cubic or census fail
    carries the error message; a map that raises fails every node of that
    call.
    """
    nodes = _Nodes(u)
    cubics = {}
    try:
        position = _positions(patch, nodes)
        _, _, _, _, ups, lag, trace, coeffs = _cubic_at(patch, nodes)
        checks = dict(zip(nodes.open.tolist(),
                          _cubic_errors(coeffs[nodes.open])))
        nodes.fail(np.array([checks[i] is not None for i in checks], bool),
                   checks.__getitem__)
        for i in nodes.open.tolist():
            h = cubics[i] = object.__new__(HarmonicCubic)  # checked above
            object.__setattr__(h, "coeffs", coeffs[i])
        _positions(patch, nodes)  # the frame origins, as fundamental_cubic
    except ValueError as exc:  # GeometryError and CensusError are too
        nodes.fail(np.ones(len(nodes.open), bool), lambda i: exc)
    done = list(nodes.open)
    fits = dict(zip(done, classify([cubics[i] for i in done])))
    reports = []
    for i, x in enumerate(nodes.u):
        nf = fits.get(i, nodes.errors[i])
        reports.append(
            _failed(x, nf) if isinstance(nf, ValueError) else PointReport(
                u=x, position=position[i], lag_res=float(lag[i]),
                im_res=float(abs(ups[i].imag)), trace_res=float(trace[i]),
                cubic=cubics[i], nf=nf))
    return reports[0] if np.ndim(u) == 1 else reports


def _failed(u, exc):
    return PointReport(u=u, error=f"{type(exc).__name__}: {exc}")


def grid_axes(domain, counts):
    """Per-axis node coordinates: `counts` nodes, inset by 5% of the side at
    each end; a count of 1 is the side's midpoint.  `counts` must hold one
    positive integer per side of `domain`, else ValueError."""
    counts = tuple(counts)
    if len(counts) != len(domain) or not all(
            isinstance(n, (int, np.integer)) and not isinstance(n, bool)
            and n > 0 for n in counts):
        raise ValueError(f"counts must be one positive integer per side of "
                         f"the {len(domain)}-sided domain, got {counts!r}")
    axes = []
    for (lo, hi), n in zip(domain, counts):
        pad = _GRID_INSET * (hi - lo)
        if n == 1:
            axes.append(np.array([0.5 * (lo + hi)]))
        else:
            axes.append(np.linspace(lo + pad, hi - pad, n))
    return axes


def sweep(patch: ImmersionPatch, counts):
    """One PointReport per node of the `grid_axes` grid, in row-major order.

    Nodes where a precondition fails (rank, Lagrangian residual, trace
    residual, classification census) carry the error message instead of data.
    The whole node stack goes to one `point_report` call, so the axis
    searches of the node cubics run in chunks of up to
    `slag3.cubics._AXIS_CHUNK` cubics.  Each call emits one DEBUG record
    through the module logger, whose ``sweep`` attribute holds the node
    count, the seconds spent in derivatives and cubics (the rest of the
    call), in the axis search and in the normal-form fit, and the error
    counts by class.
    """
    nodes = np.array(list(itertools.product(*grid_axes(patch.domain, counts))),
                     dtype=float).reshape(-1, 3)
    before = dict(_CLASSIFY_SECONDS)
    t0 = time.perf_counter()
    reports = point_report(patch, nodes)
    total = time.perf_counter() - t0
    if log.isEnabledFor(logging.DEBUG):
        search, fit = (_CLASSIFY_SECONDS[k] - before[k]
                       for k in ("axis_search", "fit"))
        stats = {"nodes": len(nodes), "derivatives_s": total - search - fit,
                 "axis_search_s": search, "fit_s": fit,
                 "errors": dict(collections.Counter(
                     r.error.split(":", 1)[0] for r in reports if r.error))}
        log.debug("sweep of %s: %s", patch.name, stats,
                  extra={"sweep": stats})
    return reports


def _fmt(x):
    return "%.17g" % float(x)


def reports_to_csv(reports) -> str:
    """Render sweep output as CSV (fixed column set, one row per node)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_FIELDS)
    for rep in reports:
        row = [_fmt(x) for x in rep.u]
        if rep.error is not None:
            row += [""] * 19 + [f"error: {rep.error}", "", ""]
        else:
            row += [_fmt(x) for x in rep.position]
            row += [_fmt(rep.lag_res), _fmt(rep.im_res), _fmt(rep.trace_res)]
            row += [_fmt(c) for c in rep.cubic.coeffs]
            row += [rep.nf.type.value, _fmt(rep.nf.r), _fmt(rep.nf.s)]
        w.writerow(row)
    return buf.getvalue()


# --- first-order compatibility (Codazzi and Gauss) residuals ---------------

_GAUSS_SIGN = -1.0  # fixed once by the calibration test on harvey_lawson_so3(1)


def _curvature(g0, dg, ddg):
    """Coordinate curvature tensors R_kabcd of metrics g0 (k, 3, 3) from
    their first (dg[k, a] = ∂_a g) and second (ddg[k, a, b]) derivatives."""
    ginv = np.linalg.inv(g0)
    # Γ^e_ab from first derivatives of the metric; the index shuffles are
    # transposed views (dg[k, a, d, b] is dg.transpose(0, 1, 3, 2)[k, a, b, d])
    gam = 0.5 * np.einsum("ked,kabd->keab", ginv, dg.transpose(0, 1, 3, 2)
                          + dg.transpose(0, 3, 1, 2)
                          - dg.transpose(0, 2, 3, 1))
    quad = np.einsum("kef,keac,kfbd->kabcd", g0, gam, gam)
    riem = 0.5 * (ddg.transpose(0, 1, 3, 2, 4)
                  + ddg.transpose(0, 3, 1, 4, 2)
                  - ddg.transpose(0, 1, 3, 4, 2)
                  - ddg.transpose(0, 3, 1, 2, 4))
    riem += quad - quad.transpose(0, 1, 2, 4, 3)
    return riem


# the six neighbour offsets of a unit step, in order +e_1, -e_1, +e_2, ...
_NEIGHBOURS = np.stack([np.eye(3), -np.eye(3)], axis=1)


def _frame_derivative(patch, u, steps):
    """(h, v, t, D²F, ∇h, curvature) at u: the cubic tensor h, the frame
    legs' preimages v, the jacobian and hessian at u, and per step the frame
    derivative ∇h and the frame curvature, each (k, 3, 3, 3, 3).

    One map stage serves all steps: u and its neighbours u ± step·e_a as
    one cubic stack.  ∇h along the frame legs is Σ_a v_al·∂_a h, ∂_a h the
    central difference of the neighbours' cubics pulled back to u's frame;
    ∂_a g_bc = D²F(a, b)·t_c + t_b·D²F(a, c) at every row in closed form,
    ∂∂g its central difference.  Errors are raised in stack order."""
    x, s = np.asarray(u, dtype=float), np.array(steps, dtype=float)
    d = s[:, None, None, None] * _NEIGHBOURS  # step-major
    nodes = _Nodes(np.concatenate([x[None], (x + d).reshape(-1, 3)]))
    t, hess, e, v, _, _, _, coeffs = _cubic_at(patch, nodes)
    if nodes.errors[0] is not None:
        raise nodes.errors[0]
    uu, sv, vt = np.linalg.svd(np.swapaxes(e[nodes.open], 1, 2) @ e[0])
    rot, sv = nodes.spread(uu @ vt), nodes.spread(sv)
    nodes.fail((sv[nodes.open, -1] < 0.5)
               | (np.linalg.det(rot[nodes.open]) < 0.0),
               lambda i: FrameAlignmentError(
                   f"adapted frames at {nodes.u[i]} rotate too far for "
                   f"differencing (singular values {sv[i]})"))
    for exc in filter(None, nodes.errors):
        raise exc
    dg = np.einsum("rxab,rxc->rabc", hess, t)  # dg[r, a] = ∂_a g at row r
    dg += np.swapaxes(dg, -1, -2)
    # ∂_a of the pulled-back cubics and of ∂g: central differences per step
    f = np.concatenate([_full(_pullback(coeffs[1:], rot[1:])), dg[1:]], 1)
    f = f.reshape(len(s), 3, 2, 54)
    f = (f[:, :, 0] - f[:, :, 1]) / (2.0 * s).reshape(-1, 1, 1)
    grad = v[0].T @ f[..., :27]
    ddg = f[..., 27:].reshape(-1, 3, 3, 3, 3)
    riem = _curvature(t[:1].transpose(0, 2, 1) @ t[:1], dg[:1],
                      0.5 * (ddg + np.swapaxes(ddg, 1, 2)))
    # R_abcd v_ai v_bj v_ck v_dl: each product contracts the leading slot
    for _ in range(4):
        riem = np.swapaxes(riem.reshape(len(s), 3, -1), 1, 2) @ v[0]
    return (HarmonicCubic(coeffs[0]).tensor, v[0], t[0], hess[0],
            grad.reshape(-1, 3, 3, 3, 3), riem.reshape(-1, 3, 3, 3, 3))


def _compat_residuals(patch, u, steps):
    """((codazzi, gauss, floors), ...) per step size in `steps`: the
    Frobenius residuals and the roundoff floor of each.  All steps share
    `_frame_derivative`'s one map stage (1 ``jac`` and 1 ``hess`` call) and
    its error order; a Codazzi floor above 1e-6·‖h‖² raises
    StepTooSmallError.

    ∇h is symmetrized through the (24, 81) table _SYM4 (_symmetrize): its
    24 slot transposes, summed left to right in _slot_permutations
    order.  The scalar norms are np.linalg.norm's own arithmetic (_norm).
    """
    h, v, t, hess, grad, riem = _frame_derivative(patch, u, steps)
    # Codazzi: ∇h must be symmetric in all four slots
    grad = grad.reshape(len(steps), 81)
    codazzi = grad - _symmetrize(grad, _SYM4)
    # Gauss: the intrinsic curvature must equal the quadratic expression in h
    quad_h = np.einsum("mik,mjl->ijkl", h, h) - np.einsum("mil,mjk->ijkl", h, h)

    # Roundoff floors in frame units: the noise of `hessian`'s branch (eps,
    # eps^(2/3) or eps^(1/2)) times the differenced values over the step.
    # ∇h differences cubics (‖h‖), carried by v; a curvature entry is half
    # of four differences of ∂g (2‖D²F‖‖t‖), carried by v⁴.  Roundoff above
    # _ROUNDOFF_SHARE of ‖h‖² is not negligible, so it excuses no growth.
    h_noise = _EPS if patch.hess is not None else _EPS / (
        _FD_STEP_1 if patch.jac is not None else _FD_STEP_2 ** 2)
    hh = float((h * h).sum())
    cap = _ROUNDOFF_SHARE * hh
    nv = _norm(v)
    unit = h_noise * np.array([math.sqrt(hh) * nv,
                               4.0 * nv**4 * _norm(hess) * _norm(t)])
    floors = unit / np.array(steps, dtype=float)[:, None]
    if floors[:, 0].max() > cap:
        raise StepTooSmallError(
            f"codazzi roundoff floor {floors[:, 0].max():.3e} exceeds "
            f"{_ROUNDOFF_SHARE:.0e}·‖h‖²; step {min(steps):.1e} is too small")
    return tuple((_norm(c), _norm(r), tuple(np.minimum(f, cap).tolist()))
                 for c, r, f in zip(codazzi, riem - _GAUSS_SIGN * quad_h,
                                    floors))


def codazzi_gauss_residual(patch: ImmersionPatch, u, step=1e-3):
    """First-order compatibility residuals (codazzi, gauss) at u.

    codazzi: Frobenius norm of the non-totally-symmetric part of the frame
    derivative of the fundamental cubic. gauss: Frobenius norm of the
    difference between the finite-difference intrinsic curvature and the
    quadratic cubic expression it must equal.  Both are recomputed at half
    the step.  StepTooSmallError is raised when a residual grows under
    halving by more than its roundoff floor (at most 1e-6·‖h‖²), or when the
    Codazzi floor exceeds 1e-6·‖h‖², since the Gauss roundoff grows only as
    1/step and halving alone would not catch it.

    `step` is in parameter units and must be finite and positive
    (ValueError otherwise).  One map stage serves both steps: u and
    its neighbours u ± step·e_a, u ± step/2·e_a as one cubic stack, one
    ``jac`` and one ``hess`` call, which give the metric's derivatives in
    closed form.  A degenerate point (a non-finite or rank-deficient
    jacobian, a non-finite hessian) raises its typed GeometryError, u first,
    then the neighbours, instead of yielding a meaningless residual.

    The audit reads ``jac`` and ``hess`` alone; it evaluates F only through
    the finite-difference fallback of a patch without an analytic ``jac``.
    """
    step = float(step)
    if not 0.0 < step < math.inf:  # NaN fails too
        raise ValueError(f"step must be finite and positive, got {step!r}")
    (*full, _), (*half, floors) = _compat_residuals(patch, u,
                                                    (step, 0.5 * step))
    for name, f, h, floor in zip(("codazzi", "gauss"), full, half, floors):
        # truncation-dominated residuals shrink ~4x under halving; growth
        # beyond the roundoff floor means the step is cancellation-limited
        if h > 1.6 * f + floor:
            raise StepTooSmallError(
                f"{name} residual grows under step halving "
                f"({f:.3e} -> {h:.3e}); step {step:.1e} is too small")
    return tuple(full)


# --- patch transformations for invariance checks ----------------------------

def transform_patch(patch: ImmersionPatch, rot6, translation=None):
    """Compose a patch with a rigid motion x -> rot6 @ x + translation; each
    row is moved by matrix products of its own rows alone.  ValueError
    unless rot6 is a finite real 6x6 matrix with orthogonality residual
    ||rot6^T rot6 - I|| within 1e-9, as Rotation3, and translation a finite
    real 6-vector."""
    if np.iscomplexobj(rot6) or np.iscomplexobj(translation):
        raise ValueError("rot6 and translation must be real")
    r = np.asarray(rot6, dtype=float)
    tau = np.zeros(6) if translation is None else np.asarray(translation,
                                                             dtype=float)
    if r.shape != (6, 6) or not np.isfinite(r).all():
        raise ValueError("rot6 must be a finite 6x6 matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail
        ortho = np.linalg.norm(r.T @ r - np.eye(6))
    if not ortho <= 1e-9:  # NaN fails too
        raise ValueError(f"rot6 is not a rigid motion (orthogonality "
                         f"residual {ortho:.3e})")
    if tau.shape != (6,) or not np.isfinite(tau).all():
        raise ValueError("translation must be a finite 6-vector")

    def hs(u):
        h = np.asarray(patch.hess(u))
        return (r @ h.reshape(h.shape[:-2] + (9,))).reshape(h.shape)

    return ImmersionPatch(
        name=f"{patch.name}|moved", params=patch.params, domain=patch.domain,
        eval=lambda u: (r @ np.expand_dims(patch.eval(u), -1))[..., 0] + tau,
        jac=None if patch.jac is None else (lambda u: r @ patch.jac(u)),
        hess=None if patch.hess is None else hs)


def scale_patch(patch: ImmersionPatch, factor: float):
    """Dilate a patch about the origin; the cubic scales by 1/factor.
    ValueError unless factor is finite and nonzero (a negative one also
    reflects through the origin)."""
    lam = float(factor)
    if not (math.isfinite(lam) and lam != 0.0):
        raise ValueError(f"factor must be finite and nonzero, got {lam!r}")
    jac = None if patch.jac is None else (lambda u: lam * patch.jac(u))
    hess = None if patch.hess is None else (lambda u: lam * patch.hess(u))
    return ImmersionPatch(name=f"{patch.name}|x{lam:g}", params=patch.params,
                          domain=patch.domain,
                          eval=lambda u: lam * patch.eval(u),
                          jac=jac, hess=hess)
