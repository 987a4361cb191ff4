"""Reconstruction of immersions from a closed moving-frame system.

The six-function order-2-symmetric system of :mod:`slag3.structure_laws`,
scalars (r, s, t1, t2, t3, u1) coupled to a position/frame pair
(x, e1, e2, e3) in C^3, is integrated over a chart box by the canonical-path
construction: the state is carried by RK4 from the origin along axis 1,
then axis 2, then axis 3.  Because the tautological coframe w is not
closed, the chart's coordinate directions are not the frame directions
away from the integration spine; the integrator therefore carries the
coframe-component matrix V (V[k][a] = w_k applied to the a-th coordinate
direction) in a triangular gauge — V(:,3) is the third dual vector
everywhere, V(:,2) on the axis-3 = 0 face, V(:,1) on the spine — and
transports the remaining columns with the coframe structure law.  The
resulting field is audited for flatness by :func:`path_independence`:
the construction enforces the system only along the path hierarchy, so
re-checking every chart direction at every interior node is a genuine
consistency test that fails loudly when a coefficient law is corrupted.
The immersion patch and the stabilizer census read the stored nodes
alone, with second derivatives from the audit's 4th-order stencil.
"""

from __future__ import annotations

__all__ = [
    "IntegrationError",
    "FlatnessError",
    "StructureStateZ2",
    "Z2Field",
    "IntegrationReport",
    "FoliationResult",
    "z2_integrate",
    "path_independence",
    "z2_foliation_check",
    "rk4_convergence_exponent",
]

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ambient import apply_j, to_complex, from_complex
from .structure_laws import (
    Z2_STATE_NAMES,
    z2_auxiliary,
    z2_scalar_rates,
    z2_coframe_rates,
    z2_connection,
    z2_second_form,
)
from . import geometry


class IntegrationError(ValueError):
    """State blow-up, profile crossing, or invalid integration input."""


class FlatnessError(IntegrationError):
    """Path-independence audit exceeded its threshold."""


# ---------------------------------------------------------------------------
# Packed state of the order-2-symmetric system.
#
# One node is a flat 36-vector: position x (6), frame rows e1, e2, e3
# (18), scalars (r, s, t1, t2, t3, u1) (6), then the transported coframe
# columns V(:,1) and V(:,2) (3 + 3).  V(:,3) is the constant third dual
# vector by the triangular gauge and is never stored.

_X = slice(0, 6)
_EE = slice(6, 24)
_Q = slice(24, 30)
_V1 = slice(30, 33)
_V2 = slice(33, 36)
# flat positions of the scalars r, s and t1
_R, _S, _T1 = (_Q.start + Z2_STATE_NAMES.index(n) for n in ("r", "s", "t1"))
_W3 = np.array([0.0, 0.0, 1.0])

_R_BOUNDS = (1e-6, 1e6)
_SPLIT_TOL = 1e-8


def _two_form(t, a, b):
    """Contraction sum_{i<j} T_k[ij] (a_i b_j - a_j b_i), shape (..., 3);
    ``t`` is the coframe law's output, its axes (k, pair) leading."""
    p12 = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    p13 = a[..., 0] * b[..., 2] - a[..., 2] * b[..., 0]
    p23 = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    return np.moveaxis(t[:, 0] * p12 + t[:, 1] * p13 + t[:, 2] * p23, 0, -1)


def _z2_rhs(y, axis):
    """Derivative of the packed state along one chart direction.

    ``axis`` selects the chart direction; the 1-form values driving the
    flow are the stored coframe column for that direction (the triangular
    gauge freezes a column along its own direction, so the transported
    columns evolve by the coframe structure law).  Each coefficient law is
    evaluated once, as one array with the law's axes leading.
    """
    y = np.asarray(y, dtype=float)
    lead = y.shape[:-1]
    ee = y[..., _EE].reshape(lead + (3, 6))
    q = np.moveaxis(y[..., _Q], -1, 0)
    v1 = y[..., _V1]
    v2 = y[..., _V2]
    w = (v1, v2, np.broadcast_to(_W3, lead + (3,)))[axis]

    alpha = np.einsum("kjm...,...m->...kj", np.asarray(z2_connection(q)), w)
    beta = np.einsum("kjm...,...m->...kj", np.asarray(z2_second_form(q)), w)
    out = np.empty_like(y)
    out[..., _X] = np.einsum("...m,...mx->...x", w, ee)
    edot = (np.einsum("...kj,...kx->...jx", alpha, ee)
            + np.einsum("...kj,...kx->...jx", beta, apply_j(ee)))
    out[..., _EE] = edot.reshape(lead + (18,))
    out[..., _Q] = np.einsum("qm...,...m->...q",
                             np.asarray(z2_scalar_rates(q)), w)
    t = np.asarray(z2_coframe_rates(q))
    out[..., _V1] = 0.0 if axis == 0 else _two_form(t, w, v1)
    out[..., _V2] = 0.0 if axis in (0, 1) else _two_form(t, w, v2)
    return out


def _check_state(y):
    y = np.asarray(y)
    if not np.all(np.isfinite(y)):
        raise IntegrationError("non-finite state during integration")
    r = np.abs(y[..., _R])
    s = np.abs(y[..., _S])
    lo, hi = _R_BOUNDS
    if np.any(r < lo) or np.any(r > hi) or np.any(s < lo) or np.any(s > hi):
        raise IntegrationError(
            "state blow-up: r or s left [%g, %g]" % _R_BOUNDS)
    if np.any(np.abs(y[..., _R] - y[..., _S]) < _SPLIT_TOL):
        raise IntegrationError("profile crossing: |r - s| below 1e-8")


def _frame_unitary(y):
    """Complexified frame rows as a (..., 3, 3) matrix."""
    ee = np.asarray(y)[..., _EE].reshape(np.asarray(y).shape[:-1] + (3, 6))
    return to_complex(ee)


def _renormalize(y):
    """Snap the frame to the nearest complex-unitary one; report the drift."""
    y = np.array(y, copy=True)
    u = _frame_unitary(y)
    gram = u @ np.conj(np.swapaxes(u, -1, -2))
    drift = float(np.linalg.norm(gram - np.eye(3), axis=(-2, -1)).max())
    uu, _, vh = np.linalg.svd(u)
    y[..., _EE] = from_complex(uu @ vh).reshape(y.shape[:-1] + (18,))
    return y, drift


_RENORM_EVERY = 10


def _rk4(f, y, h):
    """One classical RK4 step of the autonomous y' = f(y) from y, step h."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(y, axis, h, n, counter):
    """March ``n`` RK4 steps of size ``h``; yields each stored step.

    ``counter`` is a mutable [step_count, max_drift] pair shared across
    legs so the frame renormalization schedule is global.
    """
    out = []
    for _ in range(n):
        y = _rk4(lambda z: _z2_rhs(z, axis), y, h)
        counter[0] += 1
        if counter[0] % _RENORM_EVERY == 0:
            y, drift = _renormalize(y)
            counter[1] = max(counter[1], drift)
        _check_state(y)
        out.append(y)
    return out


# ---------------------------------------------------------------------------
# Field, state, and report containers.


@dataclass(frozen=True)
class StructureStateZ2:
    """One node of the order-2-symmetric system: position, frame, scalars."""

    x: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    r: float
    s: float
    t1: float
    t2: float
    t3: float
    u1: float

    def auxiliary(self):
        """The eliminated auxiliaries (u2, u3) at this node."""
        return z2_auxiliary((self.r, self.s, self.t1,
                             self.t2, self.t3, self.u1))


def _unpack_state(y) -> StructureStateZ2:
    y = np.asarray(y, dtype=float)
    e1, e2, e3 = (row.copy() for row in y[_EE].reshape(3, 6))
    return StructureStateZ2(x=y[_X].copy(), e1=e1, e2=e2, e3=e3,
                            **dict(zip(Z2_STATE_NAMES, y[_Q].tolist())))


@dataclass
class Z2Field:
    """Canonical-path integrated grid of the order-2-symmetric system.

    ``data[i, j, k]`` is the packed 36-vector at chart point
    (axes[0][i], axes[1][j], axes[2][k]); the chart origin carries the
    initial state.
    """

    axes: tuple
    data: np.ndarray
    step: float
    init: tuple

    @property
    def shape(self):
        return self.data.shape[:3]

    @property
    def center(self):
        return tuple((n - 1) // 2 for n in self.shape)

    def node_state(self, index) -> StructureStateZ2:
        i, j, k = index
        return _unpack_state(self.data[i, j, k])


@dataclass(frozen=True)
class IntegrationReport:
    """Audit summary of one reconstruction run."""

    loop_residual: float
    slag_res: float
    trace_rel: float
    type_census: dict
    frame_drift: float


class FoliationResult(NamedTuple):
    """Leaf audit: 3-plane wobble (radians) and quadric-fit residual."""

    plane_variation: float
    quadric_residual: float


# ---------------------------------------------------------------------------
# Reconstruction.


def _validate_init(init):
    init = tuple(float(v) for v in init)
    if len(init) != 6:
        raise IntegrationError("init must be six scalars (r, s, t1, t2, t3, u1)")
    if not all(map(math.isfinite, init)):
        raise IntegrationError("init has a non-finite entry")
    r, s = init[0], init[1]
    if r <= 0.0 or s <= 0.0:
        raise IntegrationError("initial r and s must be positive")
    if r == s:
        raise IntegrationError("initial r and s must differ")
    return init


def _initial_node(init):
    y = np.zeros(36)
    y[_EE] = np.eye(3, 6).reshape(-1)  # adapted frame of the flat 3-plane
    y[_Q] = init
    y[_V1] = np.array([1.0, 0.0, 0.0])
    y[_V2] = np.array([0.0, 1.0, 0.0])
    return y


def _reconstruct(init, extents, step):
    init = _validate_init(init)
    step = float(step)
    if not 0.0 < step < math.inf:  # NaN fails too
        raise IntegrationError("step must be finite and positive")
    extents = tuple(float(e) for e in extents)
    if len(extents) != 3 or not all(0.0 <= e < math.inf for e in extents):
        raise IntegrationError("extents must be three finite nonnegative "
                               "lengths")
    n = [int(round(e / (2.0 * step))) for e in extents]
    shape = tuple(2 * m + 1 for m in n)
    data = np.empty(shape + (36,))
    counter = [0, 0.0]
    data[tuple(n)] = _initial_node(init)
    for axis in range(3):
        # the slab filled so far: whole along the earlier axes, centred on
        # this one and the later ones
        slab = [slice(None)] * axis + n[axis:]
        base = data[tuple(slab)]
        for sign in (1, -1):
            ys = _march(base.reshape(-1, 36), axis, sign * step, n[axis],
                        counter)
            for i, y in enumerate(ys, start=1):
                slab[axis] = n[axis] + sign * i
                data[tuple(slab)] = y.reshape(base.shape)

    axes = tuple(np.arange(-m, m + 1) * step for m in n)
    return Z2Field(axes=axes, data=data, step=step, init=init), counter[1]


_CENSUS_COUNTS = (3, 3, 3)  # census nodes per axis
_LOOP_TOL = 1e-3            # path-independence residual admitted
_NODE_TOL = 1e-9            # off-node distance admitted, in steps


def _field_patch(fld: Z2Field) -> geometry.ImmersionPatch:
    """Immersion patch of the stored nodes two or more in from every face:
    ``eval`` the stored position, ``jac`` ee.T @ [V1 V2 W3], ``hess`` the
    symmetrized `_d4` of that jac along each chart axis, taken once over
    those nodes.  The maps look a stack of points (..., 3) up as one index
    array; any other point of the domain (the chart box) raises
    :class:`IntegrationError`."""
    shape = np.array(fld.shape)
    if shape.min() < 5:
        raise IntegrationError("the patch needs at least 5 nodes along "
                               "each axis, got %s" % (fld.shape,))
    data = fld.data
    ee = data[..., _EE].reshape(fld.shape + (3, 6))
    v = np.stack([data[..., _V1], data[..., _V2],
                  np.broadcast_to(_W3, fld.shape + (3,))], axis=-1)
    jacs = np.swapaxes(ee, -1, -2) @ v  # ee.T @ [V1 V2 W3] at every node
    # last index: stencil axis; node (2, 2, 2) is the first entry of hs
    hs = np.stack([_interior(_interior(_d4(jacs, a, fld.step), (a + 1) % 3),
                             (a + 2) % 3) for a in range(3)], axis=-1)
    hs = 0.5 * (hs + np.swapaxes(hs, -1, -2))

    def node(u):
        """Index arrays of the stored nodes at the points u (..., 3)."""
        with np.errstate(over="ignore", invalid="ignore"):  # judged below
            k = np.asarray(u, dtype=float) / fld.step
            near = np.rint(k)
            idx = near + fld.center
            stored = (np.isfinite(k) & (np.abs(k - near) <= _NODE_TOL)
                      & (idx >= 2) & (idx <= shape - 3)).all(axis=-1)
        if not stored.all():
            raise IntegrationError(
                "%s is not a stored node two or more in from every face"
                % (np.asarray(u)[~stored][0],))
        return tuple(np.moveaxis(idx.astype(int), -1, 0))  # in range: exact

    return geometry.ImmersionPatch(
        name="z2_reconstruction",
        params={"init": fld.init, "step": fld.step},
        domain=tuple((ax[0], ax[-1]) for ax in fld.axes),
        eval=lambda u: data[node(u)][..., _X], jac=lambda u: jacs[node(u)],
        hess=lambda u: hs[tuple(i - 2 for i in node(u))])


def z2_integrate(init, extents=(0.2, 0.2, 0.2), step=1e-2):
    """Integrate the six-function system over a chart box around the origin.

    Returns ``(field, patch, report)``: the node field, the immersion patch
    of its stored nodes two or more in from every face (see
    :func:`_field_patch`), and the audit report, whose stabilizer census
    classifies the cubic at three nodes per axis spread evenly over those.
    Raises :class:`FlatnessError` when the path-independence residual
    exceeds 1e-3, and :class:`IntegrationError` on state blow-up, an r = s
    crossing, a box with fewer than 5 nodes along an axis, or a census
    node that fails its point report.
    """
    fld, drift = _reconstruct(init, extents, step)
    patch = _field_patch(fld)
    loop = path_independence(fld)
    if loop > _LOOP_TOL:
        raise FlatnessError(
            "path-independence residual %.3e exceeds %.3e" % (loop, _LOOP_TOL))
    picks = [np.unique(np.rint(np.linspace(2, n - 3, c)).astype(int))
             for n, c in zip(fld.shape, _CENSUS_COUNTS)]
    reports = geometry.point_report(patch, np.array(
        [[ax[i] for ax, i in zip(fld.axes, idx)]
         for idx in itertools.product(*picks)]))
    for rep in reports:
        if rep.error is not None:
            raise IntegrationError(
                "census failed at %s: %s" % (tuple(rep.u), rep.error))
    report = IntegrationReport(
        loop_residual=loop,
        slag_res=max(max(r.lag_res, r.im_res) for r in reports),
        trace_rel=max(r.trace_res / r.cubic.norm() for r in reports),
        type_census=dict(Counter(r.nf.type for r in reports)),
        frame_drift=drift)
    return fld, patch, report


# ---------------------------------------------------------------------------
# Flatness audit.


def _d4(arr, axis, h):
    """Interior 4th-order first derivative along one grid axis."""
    sl = [slice(None)] * arr.ndim

    def take(off):
        s = list(sl)
        n = arr.shape[axis]
        s[axis] = slice(2 + off, n - 2 + off)
        return arr[tuple(s)]

    return (take(-2) - 8.0 * take(-1) + 8.0 * take(1) - take(2)) / (12.0 * h)


def _interior(arr, axis):
    s = [slice(None)] * arr.ndim
    s[axis] = slice(2, arr.shape[axis] - 2)
    return arr[tuple(s)]


def path_independence(fld) -> float:
    """Max pointwise residual of the full system over the stored field.

    The canonical-path construction enforces the flow equations only along
    its path hierarchy; here the 4th-order stencil derivative of every
    stored quantity is compared against the pointwise law in *all* chart
    directions (plus the antisymmetrized coframe-compatibility law for the
    transported columns, which is gauge-free).  Exact solutions of a flat
    system satisfy every one of these identities, so the residual measures
    integration error — it collapses at O(step^4) — while a corrupted
    coefficient law leaves an O(1) defect.
    """
    data = fld.data
    shape = fld.shape
    defect = 0.0
    for axis in range(3):
        if shape[axis] < 5:
            continue
        rhs = _z2_rhs(data, axis)[..., :30]
        num = _d4(data[..., :30], axis, fld.step)
        defect = max(defect, float(np.abs(num - _interior(rhs, axis)).max()))
    cols = {0: data[..., _V1], 1: data[..., _V2],
            2: np.broadcast_to(_W3, shape + (3,))}
    t = np.asarray(z2_coframe_rates(np.moveaxis(data[..., _Q], -1, 0)))
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if shape[a] < 5 or shape[b] < 5:
            continue
        da = _interior(_d4(cols[b], a, fld.step), b)
        db = _interior(_d4(cols[a], b, fld.step), a)
        expr = _interior(_interior(_two_form(t, cols[a], cols[b]), a), b)
        defect = max(defect, float(np.abs(da - db - expr).max()))
    return defect


def rk4_convergence_exponent(extents=(0.2, 0.2, 0.2)) -> float:
    """Observed order of the path-independence residual under step halving,
    from 1e-2 to 5e-3, at the init (1, 2, 0.1, 0.1, -0.2, 0.3)."""
    init = (1.0, 2.0, 0.1, 0.1, -0.2, 0.3)
    r1, r2 = (path_independence(_reconstruct(init, extents, h)[0])
              for h in (1e-2, 5e-3))
    return math.log2(r1 / r2)


# ---------------------------------------------------------------------------
# Foliation audit.


def _leaf_mesh(y0, spans, counts, step):
    """Mesh of one leaf of the first coframe component's kernel.

    The kernel distribution is spanned by the second and third frame
    directions; its leaves are swept by composing the two constant-1-form
    flows w = (0, 1, 0) and w = (0, 0, 1) from the start state.  Both are
    chart marches: with V(:,2) set to (0, 1, 0) at the start, the gauge
    freezes it along chart axis 1, and V(:,3) is the constant W3 along
    chart axis 2, so marching axis 1, then axis 2, is exactly the pair of
    flows.  The counts are odd, the start the centre node, and each side of
    a line is one _march of m equal substeps outward from the start, every
    m-th state a node: m is the fewest substeps per node gap that are at
    most `step` long, the ratio rounded to 9 digits first, so that a gap of
    two steps takes two.  Returns packed states (counts[0], counts[1], 36).
    """

    def flow_line(ys, axis, span, count):
        half = count // 2
        m = math.ceil(round(span / (half * step), 9))
        h = span / (half * m)
        plus, minus = (_march(ys, axis, sign * h, half * m, [0, 0.0])[m - 1::m]
                       for sign in (1.0, -1.0))
        return np.stack(minus[::-1] + [ys] + plus)

    start = np.array(y0, dtype=float)
    start[_V2] = (0.0, 1.0, 0.0)
    rows = flow_line(start[None, :], 1, spans[0], counts[0])[:, 0, :]
    mesh = flow_line(rows, 2, spans[1], counts[1])  # (n3, n2, 36)
    return np.swapaxes(mesh, 0, 1)


def _leaf_planes(mesh):
    """Orthonormal bases (..., 6, 3) of the transported 3-plane field."""
    lead = mesh.shape[:-1]
    ee = mesh[..., _EE].reshape(lead + (3, 6))
    t1 = mesh[..., _T1]
    last = apply_j(ee[..., 0, :]) - t1[..., None] * ee[..., 0, :]
    span = np.stack([ee[..., 1, :], ee[..., 2, :], last], axis=-1)
    q, _ = np.linalg.qr(span)
    return q


_LEAF_SPANS = (0.08, 0.08)  # half-widths of a traced leaf's mesh
_LEAF_COUNTS = (9, 9)       # its nodes per direction
_LEAF_STARTS = 5            # leaves traced per audit


def z2_foliation_check(fld: Z2Field) -> FoliationResult:
    """Audit the leaves transverse to the first coframe component.

    Along each traced leaf the 3-plane spanned by (e2, e3, Je1 - t1 e1)
    should stay constant, and the leaf's points should fill a quadric
    surface inside that plane.  Returns the maximal principal angle of
    the plane field (radians) and the worst quadric-fit residual (total
    least squares on diameter-scaled coordinates, plus any off-plane
    drift), both over up to five leaves seeded from field nodes, each a
    9 x 9 mesh of half-width 0.08.
    """
    c = fld.center
    seeds = [c]
    for axis in range(3):
        off = fld.shape[axis] // 4
        if off:
            for sign in (1, -1):
                idx = list(c)
                idx[axis] += sign * off
                seeds.append(tuple(idx))
    seeds = seeds[:_LEAF_STARTS]
    plane_var = 0.0
    quad_res = 0.0
    for idx in seeds:
        mesh = _leaf_mesh(fld.data[idx], _LEAF_SPANS, _LEAF_COUNTS, fld.step)
        planes = _leaf_planes(mesh)
        q0 = planes[_LEAF_COUNTS[0] // 2, _LEAF_COUNTS[1] // 2]
        overlaps = np.einsum("xa,ijxb->ijab", q0, planes)
        sv = np.linalg.svd(overlaps, compute_uv=False)
        angles = np.arccos(np.clip(sv, -1.0, 1.0))
        plane_var = max(plane_var, float(angles.max()))

        pts = mesh[..., _X].reshape(-1, 6)
        centered = pts - pts.mean(axis=0)
        diam = 2.0 * float(np.linalg.norm(centered, axis=1).max())
        xi = centered @ q0 / diam
        off_plane = centered - (centered @ q0) @ q0.T
        off_res = float(np.linalg.norm(off_plane, axis=1).max()) / diam
        ones = np.ones(len(xi))
        design = np.column_stack([
            ones, xi[:, 0], xi[:, 1], xi[:, 2],
            xi[:, 0] ** 2, xi[:, 1] ** 2, xi[:, 2] ** 2,
            xi[:, 0] * xi[:, 1], xi[:, 0] * xi[:, 2], xi[:, 1] * xi[:, 2]])
        sigma = np.linalg.svd(design, compute_uv=False)
        quad_res = max(quad_res, float(sigma[-1]) / math.sqrt(len(xi)),
                       off_res)
    return FoliationResult(plane_variation=plane_var,
                           quadric_residual=quad_res)
