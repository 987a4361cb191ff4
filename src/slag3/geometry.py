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

from .ambient import apply_j, omega0, upsilon0
from .cubics import (
    _SECONDS as _CLASSIFY_SECONDS,
    HarmonicCubic,
    NormalFormResult,
    _gather,
    classify,
    project_traceless,
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

    ``eval`` maps a parameter point (3,) to a position (6,). ``jac`` and
    ``hess``, when given, are the analytic derivative maps u -> (6,3) and
    u -> (6,3,3); missing derivatives fall back to central finite
    differences with steps eps^(1/3)·(1+|u|) and eps^(1/4)·(1+|u|).
    ``eval`` serves positions and that fallback only: frames, cubics and
    the Codazzi–Gauss audit read ``jac`` and ``hess`` alone.
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
        if len(self.domain) != 3 or any(lo >= hi for lo, hi in self.domain):
            raise ValueError("domain must be three nonempty intervals")


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


def _step1(u):
    return _FD_STEP_1 * (1.0 + float(np.linalg.norm(u)))


def jacobian(patch: ImmersionPatch, u):
    """dF at u, (6,3); analytic when the patch provides it, else central FD."""
    u = np.asarray(u, dtype=float)
    if patch.jac is not None:
        return np.asarray(patch.jac(u), dtype=float)
    h = _step1(u)
    cols = []
    for a in range(3):
        du = np.zeros(3)
        du[a] = h
        cols.append((patch.eval(u + du) - patch.eval(u - du)) / (2.0 * h))
    return np.stack(cols, axis=1)


def hessian(patch: ImmersionPatch, u):
    """D²F at u, (6,3,3), symmetrized in the two parameter slots.

    Preference order: analytic hessian; central differences of an analytic
    jacobian; direct second differences of eval.
    """
    u = np.asarray(u, dtype=float)
    if patch.hess is not None:
        h = np.asarray(patch.hess(u), dtype=float)
        return 0.5 * (h + h.transpose(0, 2, 1))
    if patch.jac is not None:
        s = _step1(u)
        cols = []
        for a in range(3):
            du = np.zeros(3)
            du[a] = s
            cols.append((np.asarray(patch.jac(u + du), dtype=float)
                         - np.asarray(patch.jac(u - du), dtype=float))
                        / (2.0 * s))
        h = np.stack(cols, axis=2)          # (6, 3, 3), last index = FD slot
        return 0.5 * (h + h.transpose(0, 2, 1))
    s = _FD_STEP_2 * (1.0 + float(np.linalg.norm(u)))
    f0 = patch.eval(u)
    h = np.empty((6, 3, 3))
    for a in range(3):
        da = np.zeros(3)
        da[a] = s
        h[:, a, a] = (patch.eval(u + da) - 2.0 * f0 + patch.eval(u - da)) / s**2
        for b in range(a + 1, 3):
            db = np.zeros(3)
            db[b] = s
            mixed = (patch.eval(u + da + db) - patch.eval(u + da - db)
                     - patch.eval(u - da + db) + patch.eval(u - da - db))
            h[:, a, b] = h[:, b, a] = mixed / (4.0 * s**2)
    return h


def _interior_points(domain, n, rng):
    lo = np.array([d[0] for d in domain])
    hi = np.array([d[1] for d in domain])
    span = hi - lo
    return lo + span * (_GRID_INSET
                        + (1 - 2 * _GRID_INSET) * rng.random((n, 3)))


def validate_derivatives(patch: ImmersionPatch, n=20, seed=0):
    """Check an analytic jacobian against central FD at random interior points.

    Returns the worst relative deviation; raises GeometryError above 1e-6.
    """
    if patch.jac is None:
        return 0.0
    rng = np.random.default_rng(seed)
    fd_patch = ImmersionPatch(name=patch.name, params=patch.params,
                              domain=patch.domain, eval=patch.eval)
    worst = 0.0
    for u in _interior_points(patch.domain, n, rng):
        ja = jacobian(patch, u)
        jf = jacobian(fd_patch, u)
        dev = np.linalg.norm(ja - jf) / max(1.0, np.linalg.norm(jf))
        worst = max(worst, dev)
    if worst > _JAC_RTOL:
        raise GeometryError(
            f"analytic jacobian of {patch.name!r} deviates from finite "
            f"differences by {worst:.3e}")
    return worst


def _checked_jacobian(patch, u):
    """Jacobian at u, rejected as rank-deficient when an entry is not
    finite (before any SVD) or when sigma_3 <= _RANK_TOL * sigma_1, which
    includes the zero jacobian."""
    t = jacobian(patch, u)
    if not np.isfinite(t).all():
        raise RankDeficientError(
            f"jacobian of {patch.name!r} has non-finite entries at {u}")
    sv = np.linalg.svd(t, compute_uv=False)
    if sv[-1] <= _RANK_TOL * sv[0]:
        raise RankDeficientError(
            f"jacobian of {patch.name!r} is rank-deficient at {u} "
            f"(singular values {sv})")
    return t


def _pairing_residual(t):
    jt = apply_j(t.T).T                     # J applied to each column
    pair = jt.T @ t                         # pair[a,b] = ω₀(t_a, t_b)
    norms = np.linalg.norm(t, axis=0)
    res = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            res = max(res, abs(pair[a, b]) / (norms[a] * norms[b]))
    return float(res)


def lagrangian_residual(patch: ImmersionPatch, u):
    """Worst normalized symplectic pairing of two tangent vectors at u."""
    t = _checked_jacobian(patch, np.asarray(u, dtype=float))
    return _pairing_residual(t)


def _volume_residual(t):
    ups = upsilon0(t[:, 0], t[:, 1], t[:, 2])
    vol = math.sqrt(max(np.linalg.det(t.T @ t), 0.0))
    return abs(ups.imag) / vol, float(np.sign(ups.real))


def special_residual(patch: ImmersionPatch, u):
    """(|Im Υ₀| of the tangent frame / tangent 3-volume, sign of Re Υ₀)."""
    return _volume_residual(
        _checked_jacobian(patch, np.asarray(u, dtype=float)))


def _checked_frame(patch, u):
    """(jacobian, frame matrix (6,3), Lagrangian residual) at u from one
    jacobian call.

    The jacobian passes the rank check and the Lagrangian check against
    FRAME_TOL; the frame is its oriented Gram–Schmidt frame.
    """
    t = _checked_jacobian(patch, u)
    res = _pairing_residual(t)
    if res > FRAME_TOL:
        raise NotLagrangianError(
            f"Lagrangian residual {res:.3e} at {u} exceeds {FRAME_TOL:.1e}")
    q, r = np.linalg.qr(t)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs                           # classical GS: e1 along t1, etc.
    if upsilon0(q[:, 0], q[:, 1], q[:, 2]).real < 0.0:
        q = q[:, [0, 2, 1]]
    return t, q, res


def _frame_at(patch, u, e):
    """AdaptedFrame with the legs of the frame matrix e, placed at F(u)."""
    return AdaptedFrame(e1=e[:, 0], e2=e[:, 1], e3=e[:, 2],
                        position=np.asarray(patch.eval(u), dtype=float))


def adapted_frame(patch: ImmersionPatch, u):
    """Orthonormal tangent frame with Re Υ₀(e1,e2,e3) > 0 at a Lagrangian point.

    Gram–Schmidt of the jacobian columns; the last two legs are swapped when
    the holomorphic volume of the frame has negative real part.  Points whose
    Lagrangian residual exceeds FRAME_TOL are rejected.
    """
    u = np.asarray(u, dtype=float)
    return _frame_at(patch, u, _checked_frame(patch, u)[1])


def _cubic_from_derivatives(t, h2, e):
    """Cubic, raw trace residual and the jacobian preimages of the frame
    legs (3, 3) from jacobian/hessian/frame matrix."""
    v = np.linalg.lstsq(t, e, rcond=None)[0]     # preimages: t @ v[:,a] = e_a
    je = apply_j(e.T).T
    a = np.tensordot(je, v.T @ h2 @ v, axes=(0, 0))
    s = (a + a.transpose(0, 2, 1) + a.transpose(1, 0, 2) + a.transpose(1, 2, 0)
         + a.transpose(2, 0, 1) + a.transpose(2, 1, 0)) / 6.0
    trace_res = float(np.linalg.norm(np.einsum("iik->k", s)))
    scale = float(np.linalg.norm(s))
    if trace_res > _TRACE_FAIL * scale + 1e-12:
        raise TraceResidualError(
            f"raw cubic trace residual {trace_res:.3e} exceeds "
            f"{_TRACE_FAIL:.0e} of the cubic norm {scale:.3e}")
    return project_traceless(_gather(s)), trace_res, v


def _cubic_at(patch, u):
    """(jacobian, Lagrangian residual, cubic, frame, raw trace residual)
    from one checked jacobian."""
    t, e, lag_res = _checked_frame(patch, u)
    frame = _frame_at(patch, u, e)
    cubic, trace_res, _ = _cubic_from_derivatives(t, hessian(patch, u), e)
    return t, lag_res, cubic, frame, trace_res


def fundamental_cubic(patch: ImmersionPatch, u):
    """Second fundamental form at u as a traceless cubic in the adapted frame.

    h_ijk = g₀(D²F(v_j, v_k), J e_i) with v_a the jacobian preimages of the
    frame legs; the raw tensor is symmetrized and trace-projected.  Returns
    (cubic, frame, raw trace residual).  The raw trace residual is the norm
    of the trace vector before projection — for a genuinely minimal patch it
    is pure numerical noise, and a value above 1e-3 of the cubic norm aborts.
    """
    return _cubic_at(patch, np.asarray(u, dtype=float))[2:]


def point_report(patch: ImmersionPatch, u):
    """Full residual/cubic/classification record at a parameter point.

    The Lagrangian and special residuals are read off the one jacobian that
    the frame and the cubic are built from; frames admit a Lagrangian
    residual up to FRAME_TOL, and the cubic is classified at the default
    symmetry tolerance of :func:`slag3.cubics.classify`.

    `u` is one point (3,), which gives one PointReport, or a stack of
    points (n, 3), which gives a list of n, each equal to the report of its
    row alone.  The cubics of all nodes go to one `classify` call, so their
    axis searches are refined together; a node whose derivatives, cubic or
    census fail carries the error message, and the other nodes classify.
    """
    nodes = np.asarray(u, dtype=float)
    reports = []
    done = []  # (index, fields) of the nodes that reach the classification
    for x in nodes.reshape(-1, 3):
        try:
            position = np.asarray(patch.eval(x), dtype=float)
            t, lag_res, cubic, _, trace_res = _cubic_at(patch, x)
            done.append((len(reports), dict(
                u=x, position=position, lag_res=lag_res,
                im_res=_volume_residual(t)[0], trace_res=trace_res,
                cubic=cubic)))
            reports.append(None)
        except ValueError as exc:  # GeometryError and CensusError are too
            reports.append(_failed(x, exc))
    fits = classify([fields["cubic"] for _, fields in done])
    for (i, fields), nf in zip(done, fits):
        reports[i] = (_failed(fields["u"], nf) if isinstance(nf, ValueError)
                      else PointReport(nf=nf, **fields))
    return reports[0] if nodes.ndim == 1 else reports


def _failed(u, exc):
    return PointReport(u=u, error=f"{type(exc).__name__}: {exc}")


def grid_axes(domain, counts):
    """Per-axis node coordinates: `counts` nodes, inset by 5% of the side at
    each end; a count of 1 is the side's midpoint."""
    axes = []
    for (lo, hi), n in zip(domain, counts):
        n = int(n)
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
    searches of the node cubics run in chunks of up to 16 cubics.  Each call
    emits one DEBUG record through the module logger, whose ``sweep``
    attribute holds the node count, the seconds spent in derivatives and
    cubics (the rest of the call), in the axis search and in the normal-form
    fit, and the error counts by class.
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
# contraction order of riem_frame, fixed so it is not planned on every call
_RIEM_PATH = ["einsum_path", (0, 1), (0, 3), (0, 2), (0, 1)]


def _aligned_cubic(patch, u, e0):
    """Cubic at u expressed in the frame best aligned with the frame e0."""
    t, e, _ = _checked_frame(patch, u)
    cubic, _, _ = _cubic_from_derivatives(t, hessian(patch, u), e)
    m = e.T @ e0
    uu, sv, vt = np.linalg.svd(m)
    rot = uu @ vt
    if sv[-1] < 0.5 or np.linalg.det(rot) < 0.0:
        raise FrameAlignmentError(
            f"adapted frames at {u} rotate too far for differencing "
            f"(singular values {sv})")
    return np.einsum("abc,ai,bj,ck->ijk", cubic.tensor, rot, rot, rot)


def _metric(patch, u):
    t = jacobian(patch, u)
    return t.T @ t


def _curvature_param(patch, u, step):
    """Coordinate curvature tensor R_abcd of the induced metric at u by FD."""
    s = float(step)
    g0 = _metric(patch, u)
    gp = np.empty((3, 3, 3))
    gm = np.empty((3, 3, 3))
    for a in range(3):
        da = np.zeros(3)
        da[a] = s
        gp[a] = _metric(patch, u + da)
        gm[a] = _metric(patch, u - da)
    dg = (gp - gm) / (2.0 * s)                       # dg[a] = ∂_a g
    ddg = np.empty((3, 3, 3, 3))                     # ddg[a,b] = ∂_a ∂_b g
    for a in range(3):
        ddg[a, a] = (gp[a] - 2.0 * g0 + gm[a]) / s**2
        for b in range(a + 1, 3):
            da = np.zeros(3)
            da[a] = s
            db = np.zeros(3)
            db[b] = s
            mixed = (_metric(patch, u + da + db) - _metric(patch, u + da - db)
                     - _metric(patch, u - da + db) + _metric(patch, u - da - db))
            ddg[a, b] = ddg[b, a] = mixed / (4.0 * s**2)
    ginv = np.linalg.inv(g0)
    # Γ^e_ab from first derivatives of the metric
    gam = 0.5 * np.einsum("ed,abd->eab", ginv,
                          np.einsum("adb->abd", dg) + np.einsum("bda->abd", dg)
                          - np.einsum("dab->abd", dg))
    quad = np.einsum("ef,eac,fbd->abcd", g0, gam, gam)
    riem = 0.5 * (np.einsum("acbd->abcd", ddg) + np.einsum("bdac->abcd", ddg)
                  - np.einsum("adbc->abcd", ddg) - np.einsum("bcad->abcd", ddg))
    riem += quad - np.einsum("abdc->abcd", quad)
    return riem


def _compat_residuals(patch, u, step):
    """(codazzi, gauss, floors): the Frobenius residuals at one step size
    and, for each, the roundoff floor of its stencil at that step."""
    u = np.asarray(u, dtype=float)
    t0, e0, _ = _checked_frame(patch, u)
    cubic0, _, v = _cubic_from_derivatives(t0, hessian(patch, u), e0)

    # Codazzi: the frame derivative ∇h, differenced along the frame legs with
    # neighbor cubics pulled back through the closest frame rotation, must be
    # symmetric in all four slots.
    grad = np.empty((3, 3, 3, 3))
    for l in range(3):
        hp = _aligned_cubic(patch, u + step * v[:, l], e0)
        hm = _aligned_cubic(patch, u - step * v[:, l], e0)
        grad[l] = (hp - hm) / (2.0 * step)
    sym = np.zeros_like(grad)
    for perm in itertools.permutations(range(4)):
        sym += grad.transpose(perm)
    sym /= 24.0
    codazzi = float(np.linalg.norm(grad - sym))

    # Gauss: intrinsic curvature against the quadratic expression in h.
    riem = _curvature_param(patch, u, step)
    riem_frame = np.einsum("abcd,ai,bj,ck,dl->ijkl", riem, v, v, v, v,
                           optimize=_RIEM_PATH)
    h = cubic0.tensor
    quad_h = np.einsum("mik,mjl->ijkl", h, h) - np.einsum("mil,mjk->ijkl", h, h)
    gauss = float(np.linalg.norm(riem_frame - _GAUSS_SIGN * quad_h))

    # Roundoff floors: relative noise times the differenced values times the
    # stencil's absolute weights, in frame units.  ∇h differences cubics
    # (‖h‖, the noise of `hessian`'s branch: eps, eps^(2/3) or eps^(1/2))
    # with weights 1/step; each curvature entry is half of four second
    # differences of g (‖g‖, eps) with weights 4/step², carried to the frame
    # by v⁴.  Both residuals are curvatures; roundoff above _ROUNDOFF_SHARE
    # of ‖h‖² is no longer negligible, so it excuses no growth.
    h_noise = _EPS if patch.hess is not None else _EPS / (
        _FD_STEP_1 if patch.jac is not None else _FD_STEP_2 ** 2)
    hh = float(np.sum(h * h))
    cap = _ROUNDOFF_SHARE * hh
    roundoff = (h_noise * math.sqrt(hh) / step,
                8.0 * _EPS * np.linalg.norm(t0.T @ t0)
                * np.linalg.norm(v) ** 4 / step**2)
    return codazzi, gauss, tuple(float(min(r, cap)) for r in roundoff)


def codazzi_gauss_residual(patch: ImmersionPatch, u, step=1e-3):
    """First-order compatibility residuals (codazzi, gauss) at u.

    codazzi: Frobenius norm of the non-totally-symmetric part of the frame
    derivative of the fundamental cubic. gauss: Frobenius norm of the
    difference between the finite-difference intrinsic curvature and the
    quadratic cubic expression it must equal.  Both are recomputed at half
    the step; a residual that grows under halving by more than its
    stencil's roundoff floor (at most 1e-6·‖h‖²) means the step is in the
    cancellation regime and raises StepTooSmallError.

    The audit reads ``jac`` and ``hess`` alone; it evaluates F only through
    the finite-difference fallback of a patch without an analytic ``jac``.
    """
    *full, _ = _compat_residuals(patch, u, float(step))
    *half, floors = _compat_residuals(patch, u, 0.5 * float(step))
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
    """Compose a patch with a rigid motion x -> rot6 @ x + translation."""
    r = np.asarray(rot6, dtype=float)
    tau = np.zeros(6) if translation is None else np.asarray(translation,
                                                             dtype=float)
    jac = None if patch.jac is None else (lambda u: r @ patch.jac(u))
    hess = None if patch.hess is None else (
        lambda u: np.einsum("xy,yab->xab", r, patch.hess(u)))
    return ImmersionPatch(name=f"{patch.name}|moved", params=patch.params,
                          domain=patch.domain,
                          eval=lambda u: r @ patch.eval(u) + tau,
                          jac=jac, hess=hess)


def scale_patch(patch: ImmersionPatch, factor: float):
    """Dilate a patch about the origin; the cubic scales by 1/factor."""
    lam = float(factor)
    jac = None if patch.jac is None else (lambda u: lam * patch.jac(u))
    hess = None if patch.hess is None else (lambda u: lam * patch.hess(u))
    return ImmersionPatch(name=f"{patch.name}|x{lam:g}", params=patch.params,
                          domain=patch.domain,
                          eval=lambda u: lam * patch.eval(u),
                          jac=jac, hess=hess)
