"""Algebra and SO(3)-orbit classification of traceless ternary cubics.

Conventions (load-bearing, used across the package):

* A cubic is stored by its 10 independent tensor entries ``h_ijk`` for
  ``1 <= i <= j <= k <= 3`` in lexicographic order
  (111, 112, 113, 122, 123, 133, 222, 223, 233, 333).
* The associated polynomial is the sum over all 27 index triples,
  ``p(x) = sum_ijk h_ijk x_i x_j x_k``; the inner product and norm are the
  27-triple contractions ``<h, g> = sum_ijk h_ijk g_ijk``.
* Rotations act by pullback: ``rotate(h, R)`` is the cubic ``x -> h(R x)``,
  so ``rotate(rotate(h, R1), R2) = rotate(h, R1 @ R2)``.
* For a unit axis ``w``, the orthogonal splitting of the 7-dimensional
  harmonic space under rotations about ``w`` has components
  ``c0`` (axial), ``c1, c2, c3`` (complex); the complex structure is chosen
  so that pulling back by a rotation through ``alpha`` about ``w``
  multiplies ``c_k`` by ``exp(i k alpha)``.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "TAU_ZERO",
    "TAU_AXIS",
    "TAU_FIT",
    "LEX_TRIPLES",
    "MULTIPLICITY",
    "HarmonicCubic",
    "Rotation3",
    "AxisDecomposition",
    "StabilizerType",
    "NormalFormResult",
    "SymmetryAxes",
    "CensusError",
    "project_traceless",
    "evaluate_and_gradient",
    "rotate",
    "invariants",
    "axis_decompose",
    "find_symmetry_axes",
    "classify",
    "singular_directions",
    "is_reducible",
    "divide_by_linear",
    "normal_form",
    "transport_rotation",
]

log = logging.getLogger(__name__)

TAU_ZERO = 1e-9    # absolute: below this norm a cubic counts as zero
TAU_AXIS = 1e-6    # relative: axis residual acceptance
TAU_FIT = 1e-6     # relative: normal-form fit residual
_TAU_TRACE = 1e-8  # relative: trace residual admitted by the constructor

LEX_TRIPLES = ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
               (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3))
MULTIPLICITY = np.array([1, 3, 3, 3, 6, 3, 1, 3, 3, 1], dtype=float)

# scatter (27 x 10) filling the full symmetric tensor from the independent
# entries, and the flat positions recovering them
_SCATTER = np.zeros((27, 10))
_IDX10 = np.empty(10, dtype=int)
for _col, (_i, _j, _k) in enumerate(LEX_TRIPLES):
    for _p in {(_i, _j, _k), (_i, _k, _j), (_j, _i, _k), (_j, _k, _i),
               (_k, _i, _j), (_k, _j, _i)}:
        _SCATTER[(_p[0] - 1) * 9 + (_p[1] - 1) * 3 + (_p[2] - 1), _col] = 1.0
    _IDX10[_col] = (_i - 1) * 9 + (_j - 1) * 3 + (_k - 1)


def _full(c):
    """Full symmetric (3,3,3) array from the 10 independent entries."""
    return (_SCATTER @ np.asarray(c, dtype=float)).reshape(3, 3, 3)


def _gather(t):
    return t.reshape(27)[_IDX10]


def _rot10(c, m):
    """Pullback coefficients of x -> h(m x), on raw arrays (hot path)."""
    t = _full(c)
    t = np.tensordot(t, m, axes=([0], [0]))    # (j, k, i)
    t = np.tensordot(t, m, axes=([0], [0]))    # (k, i, j)
    t = np.tensordot(t, m, axes=([0], [0]))    # (i, j, k)
    return _gather(t)


@dataclass(frozen=True)
class HarmonicCubic:
    """Traceless symmetric cubic tensor on R^3 (10 independent entries)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (10,):
            raise ValueError("expected 10 independent coefficients")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite cubic coefficients")
        object.__setattr__(self, "coeffs", c)
        tr = np.abs(self.trace_vector())
        # relative bound with an absolute roundoff floor, so differences of
        # nearly equal admissible cubics stay admissible
        if tr.max() > _TAU_TRACE * self.norm() + 1e-13:
            raise ValueError(
                "coefficients violate the trace condition; route raw "
                "tensors through project_traceless")

    @property
    def tensor(self):
        """Full symmetric (3,3,3) array."""
        return _full(self.coeffs)

    def trace_vector(self):
        """v_k = sum_i h_iik, zero for an admissible cubic."""
        return np.einsum("iik->k", self.tensor)

    def norm(self) -> float:
        return math.sqrt(self.inner(self))

    def inner(self, other: "HarmonicCubic") -> float:
        return float(np.dot(MULTIPLICITY * self.coeffs, other.coeffs))

    def to_json_dict(self):
        return {"coeffs": [float(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, obj) -> "HarmonicCubic":
        return cls(np.asarray(obj["coeffs"], dtype=float))

    @classmethod
    def zero(cls) -> "HarmonicCubic":
        return cls(np.zeros(10))

    def __add__(self, other):
        return HarmonicCubic(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return HarmonicCubic(self.coeffs - other.coeffs)

    def scaled(self, factor: float) -> "HarmonicCubic":
        return HarmonicCubic(self.coeffs * float(factor))


@dataclass(frozen=True)
class Rotation3:
    """Proper rotation of R^3."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise ValueError("rotation must be a finite 3x3 matrix")
        ortho = np.linalg.norm(m.T @ m - np.eye(3))
        if ortho > 1e-9 or abs(np.linalg.det(m) - 1.0) > 1e-9:
            raise ValueError(
                f"matrix is not a proper rotation (orthogonality residual "
                f"{ortho:.3e})")
        object.__setattr__(self, "entries", m)

    @classmethod
    def identity(cls) -> "Rotation3":
        return cls(np.eye(3))

    @classmethod
    def about_axis(cls, axis, angle: float) -> "Rotation3":
        """Right-handed rotation through `angle` about the unit vector `axis`."""
        a = np.asarray(axis, dtype=float)
        a = a / np.linalg.norm(a)
        k = np.array([[0.0, -a[2], a[1]],
                      [a[2], 0.0, -a[0]],
                      [-a[1], a[0], 0.0]])
        m = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
        return cls(m)

    def compose(self, other: "Rotation3") -> "Rotation3":
        return Rotation3(self.entries @ other.entries)

    def transpose(self) -> "Rotation3":
        return Rotation3(self.entries.T)


class StabilizerType(Enum):
    FULL = "Full"
    CIRCLE = "Circle"
    A4 = "A4"
    S3 = "S3"
    Z3 = "Z3"
    Z2 = "Z2"
    TRIVIAL = "Trivial"


@dataclass(frozen=True)
class AxisDecomposition:
    axis: np.ndarray
    c0: float
    c1: complex
    c2: complex
    c3: complex


@dataclass(frozen=True)
class SymmetryAxes:
    """Axes found for each rotational-symmetry condition.

    Each entry is (unit axis, residual), the residual being the value of the
    defining functional (order-2: |c1|^2 + |c3|^2; order-3: |c1|^2 + |c2|^2;
    circle: the sum of all three).  Axes satisfying the circle condition are
    listed only under `circle`.
    """

    order2: tuple
    order3: tuple
    circle: tuple


@dataclass(frozen=True)
class NormalFormResult:
    type: StabilizerType
    rotation: Rotation3
    r: float
    s: float
    residual: float
    dist_s_minus_r: float | None = None
    dist_s_minus_rsqrt2: float | None = None

    def to_json_dict(self):
        return {
            "type": self.type.value,
            "rotation": [float(v) for v in self.rotation.entries.ravel()],
            "r": self.r,
            "s": self.s,
            "residual": self.residual,
            "dist_s_minus_r": self.dist_s_minus_r,
            "dist_s_minus_rsqrt2": self.dist_s_minus_rsqrt2,
        }


class CensusError(ValueError):
    """Axis census matches no stabilizer pattern; carries the census."""

    def __init__(self, message, census):
        super().__init__(message)
        self.census = census


# ---------------------------------------------------------------------------
# canonical axis-aligned basis (axis = z), exact coefficients

_P0 = np.array([0, 0, -1, 0, 0, 0, 0, -1, 0, 2.0])          # z(2z^2-3x^2-3y^2)
_Q1A = np.array([-1, 0, 0, -1 / 3, 0, 4 / 3, 0, 0, 0, 0.0])  # x(4z^2-x^2-y^2)
_Q1B = np.array([0, -1 / 3, 0, 0, 0, 0, -1, 0, 4 / 3, 0.0])  # y(4z^2-x^2-y^2)
_Q2A = np.array([0, 0, 1 / 3, 0, 0, 0, 0, -1 / 3, 0, 0.0])   # (x^2-y^2)z
_Q2B = np.array([0, 0, 0, 0, 1 / 6, 0, 0, 0, 0, 0.0])        # xyz
_Q3A = np.array([1, 0, 0, -1, 0, 0, 0, 0, 0, 0.0])           # x^3-3xy^2
_Q3B = np.array([0, 1, 0, 0, 0, 0, -1, 0, 0, 0.0])           # 3x^2y-y^3

_NORM_P0 = math.sqrt(10.0)
_NORM_Q1 = math.sqrt(20.0 / 3.0)
_NORM_Q2A = math.sqrt(2.0 / 3.0)
_NORM_Q2B = math.sqrt(1.0 / 6.0)
_NORM_Q3 = 2.0

# rows: the orthonormalized basis contracted against MULTIPLICITY, so that
# _BASIS7 @ coeffs = (c0, Re c1, -Im c1, Re c2, -Im c2, Re c3, -Im c3)
_BASIS7 = np.stack([
    _P0 / _NORM_P0, _Q1A / _NORM_Q1, _Q1B / _NORM_Q1,
    _Q2A / _NORM_Q2A, _Q2B / _NORM_Q2B, _Q3A / _NORM_Q3, _Q3B / _NORM_Q3,
]) * MULTIPLICITY


def normal_form(tag: StabilizerType, r: float, s: float) -> HarmonicCubic:
    """Canonical representative cubic for a stabilizer type.

    Circle: r * z(2z^2-3x^2-3y^2); A4: 6s * xyz; S3: s * (x^3-3xy^2);
    Z2: Circle part + 6s * xyz; Z3: Circle part + s * (x^3-3xy^2);
    Full and Trivial have no normal form and map to the zero cubic.
    """
    c = np.zeros(10)
    if tag in (StabilizerType.CIRCLE, StabilizerType.Z2, StabilizerType.Z3):
        c += r * _P0
    if tag in (StabilizerType.A4, StabilizerType.Z2):
        c[4] += s
    if tag in (StabilizerType.S3, StabilizerType.Z3):
        c += s * _Q3A
    return HarmonicCubic(c)


def project_traceless(t) -> HarmonicCubic:
    """Project a raw symmetric tensor (10 entries) onto the traceless part.

    h'_ijk = h_ijk - (d_ij v_k + d_jk v_i + d_ki v_j)/5 with v_k = sum_i h_iik;
    idempotent, and exact for already-traceless input.
    """
    c = np.asarray(t, dtype=float)
    if c.shape != (10,) or not np.all(np.isfinite(c)):
        raise ValueError("expected 10 finite tensor entries")
    full = _full(c)
    v = np.einsum("iik->k", full)
    eye = np.eye(3)
    corr = (np.einsum("ij,k->ijk", eye, v) + np.einsum("jk,i->ijk", eye, v)
            + np.einsum("ki,j->ijk", eye, v)) / 5.0
    return HarmonicCubic(_gather(full - corr))


def evaluate_and_gradient(h: HarmonicCubic, x):
    """Value h(x) = h_ijk x_i x_j x_k and gradient (3 h_ijk x_j x_k)."""
    x = np.asarray(x, dtype=float)
    t = h.tensor
    g = 3.0 * ((t @ x) @ x)
    val = float(np.dot(g, x)) / 3.0
    return val, g


def rotate(h: HarmonicCubic, R: Rotation3) -> HarmonicCubic:
    """Pullback h'(x) = h(R x); an isometry of the cubic inner product."""
    if not isinstance(R, Rotation3):
        R = Rotation3(np.asarray(R, dtype=float))
    return HarmonicCubic(_rot10(h.coeffs, R.entries))


def invariants(h: HarmonicCubic):
    """Rotation invariants (I2, I4): squared norm and tr(M^2) with
    M_pq = sum_ij h_ijp h_ijq."""
    t = h.tensor
    i2 = h.inner(h)
    m = np.einsum("ijp,ijq->pq", t, t)
    i4 = float(np.trace(m @ m))
    return i2, i4


def _transport_matrices(ws):
    """transport_rotation for the direction of each row of ws (n, 3), as raw
    (n, 3, 3) matrices; rows need not be unit (hot path)."""
    ws = np.asarray(ws, dtype=float)
    ws = ws / np.linalg.norm(ws, axis=1, keepdims=True)
    flip = ws[:, 2] < -0.5
    wf = np.where(flip[:, None], -ws, ws)
    w0, w1, w2 = wf[:, 0], wf[:, 1], wf[:, 2]
    d = 1.0 + w2
    out = np.empty((len(ws), 3, 3))
    out[:, 0, 0] = 1.0 - w0 * w0 / d
    out[:, 0, 1] = out[:, 1, 0] = -w0 * w1 / d
    out[:, 0, 2] = w0
    out[:, 1, 1] = 1.0 - w1 * w1 / d
    out[:, 1, 2] = w1
    out[:, 2, 0] = -w0
    out[:, 2, 1] = -w1
    out[:, 2, 2] = w2
    # antipodal composition with the half-turn about x negates columns y, z
    out[flip, :, 1] *= -1.0
    out[flip, :, 2] *= -1.0
    return out


def transport_rotation(w) -> Rotation3:
    """Minimal geodesic rotation carrying the z-axis to the unit vector w.

    Near the antipode the geodesic degenerates; there the transport is the
    fixed half-turn about x composed with the stable geodesic to -w.
    """
    w = np.asarray(w, dtype=float)
    if np.linalg.norm(w) < 1e-12:
        raise ValueError("zero-length axis")
    return Rotation3(_transport_matrices(w[None])[0])


def _components7(c):
    """(c0, c1, c2, c3) about the z-axis from raw coefficients."""
    v = _BASIS7 @ c
    return v[0], complex(v[1], -v[2]), complex(v[3], -v[4]), complex(v[5], -v[6])


def axis_decompose(h: HarmonicCubic, w) -> AxisDecomposition:
    """Decompose h into rotation-isotypic components about the axis w.

    The bases are the canonical polynomials transported from the z-axis by
    the minimal geodesic rotation; the transport choice affects only the
    phases of c1..c3, never their magnitudes.
    """
    w = np.asarray(w, dtype=float)
    n = np.linalg.norm(w)
    if n < 1e-12:
        raise ValueError("zero-length axis")
    if abs(n - 1.0) > 1e-9:
        raise ValueError("axis must be a unit vector")
    c0, c1, c2, c3 = _components7(
        _rot10(h.coeffs, _transport_matrices(w[None])[0]))
    return AxisDecomposition(axis=w, c0=c0, c1=c1, c2=c2, c3=c3)


# ---------------------------------------------------------------------------
# axis search: Maxwell-point seeds polished by lockstep Gauss-Newton

# coefficient (ascending powers of zeta) of x, y, z on the null curve
# (1 - zeta^2, i(1 + zeta^2), 2 zeta); row k of _SEXTIC @ coeffs is the
# zeta^k coefficient of the binary sextic p(zeta) = h(null curve)
_NULL_CURVE = np.array([[1.0, 0.0, -1.0], [1j, 0.0, 1j], [0.0, 2.0, 0.0]])
_SEXTIC = np.stack([
    m * np.convolve(np.convolve(_NULL_CURVE[i - 1], _NULL_CURVE[j - 1]),
                    _NULL_CURVE[k - 1])
    for m, (i, j, k) in zip(MULTIPLICITY, LEX_TRIPLES)], axis=1)


def _maxwell_directions(c):
    """Unit Maxwell directions v1, v2, v3 (3, 3) of raw coefficients c.

    By Sylvester's theorem the six roots of the sextic, as points of
    S^2 = CP^1, are three antipodal pairs +-v_i, and every rotation fixing
    the cubic permutes them.  The root zeta is the point
    (-2 Re zeta, -2 Im zeta, 1 - |zeta|^2) / (1 + |zeta|^2), read through
    1/zeta when |zeta| > 1; a degree lost to vanishing leading coefficients
    is a root at infinity, the pole -z.  Pairs are matched closest first and
    one vector per pair is kept.
    """
    roots = np.roots((_SEXTIC @ c)[::-1])
    far = np.abs(roots) > 1.0
    z = roots.copy()
    z[far] = 1.0 / roots[far]
    sign = np.where(far, -1.0, 1.0)
    d = 1.0 + np.abs(z) ** 2
    pts = np.stack([-2.0 * z.real / d, -2.0 * sign * z.imag / d,
                    sign * (2.0 / d - 1.0)], axis=1)
    pts = np.vstack([pts, np.tile([0.0, 0.0, -1.0], (6 - len(pts), 1))])
    gap = np.linalg.norm(pts[:, None] + pts[None], axis=2)
    free = np.ones(6, dtype=bool)
    out = []
    for i, j in zip(*np.unravel_index(np.argsort(gap, axis=None), gap.shape)):
        if i != j and free[i] and free[j]:
            free[i] = free[j] = False
            out.append(pts[i] - pts[j])
    out = np.array(out)
    return out / np.linalg.norm(out, axis=1, keepdims=True)


# 0/1 masks over the rows of _BASIS7 (c0, Re/Im c1, Re/Im c2, Re/Im c3)
# selecting the components whose joint zeros a search looks for: the
# gradient (c0, c1), and (rows of _CONDITION_MASKS) the circle, order-2 and
# order-3 conditions
_GRADIENT = np.array([1, 1, 1, 0, 0, 0, 0.0])
_CONDITION_MASKS = np.array([[0, 1, 1, 1, 1, 1, 1],
                             [0, 1, 1, 0, 0, 1, 1],
                             [0, 1, 1, 1, 1, 0, 0.0]])

# seed candidates from the Maxwell directions (v1, v2, v3): rows 0-12 of
# _SEED_SUMS are v_i, v_i +- v_j and v1 +- v2 +- v3, rows 13-15 the normals
# v_i x v_j.  A circle axis is a v_i, an order-2 axis one of v_i or
# v_i +- v_j, an order-3 axis one of v_i or v1 +- v2 +- v3; both finite
# orders also seed the normals, because S3's Maxwell directions are coplanar
# and its order-3 axis is their common normal.
_SEED_SUMS = np.vstack([np.eye(3),
                        [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1],
                         [0, 1, 1], [0, 1, -1]],
                        [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]])
_SEED_ROWS = np.r_[0:3, 0:9, 13:16, 0:3, 9:16]
_SEED_KIND = np.repeat(np.arange(3), [3, 12, 10])  # row of _CONDITION_MASKS


def _axis_seeds(v):
    """(unit seed axes (n, 3), condition index (n,)) for all three symmetry
    conditions from the Maxwell directions v."""
    cands = np.vstack([_SEED_SUMS @ v, np.cross(v, v[[1, 2, 0]])])
    seeds = cands[_SEED_ROWS]
    n = np.linalg.norm(seeds, axis=1)
    keep = n > 1e-12
    return seeds[keep] / n[keep, None], _SEED_KIND[keep]


def _pullback_many(tloc, rmats):
    """Coefficient pullbacks: tloc (n,3,3,3) by rmats (n,L,3,3) -> (n,L,10)."""
    u = np.einsum("nabc,nlai->nlbci", tloc, rmats)
    u = np.einsum("nlbci,nlbj->nlcij", u, rmats)
    u = np.einsum("nlcij,nlck->nlijk", u, rmats)
    return u.reshape(u.shape[0], u.shape[1], 27)[:, :, _IDX10]


# The finite-difference stencil lives in a chart recentred after every step,
# so its five transports are fixed; precompute their exact coefficient
# pullback operators composed with the projection onto all seven components.
_REFINE_STEP = 1e-6
_STENCIL = _transport_matrices(
    [[0.0, 0.0, 1.0], [_REFINE_STEP, 0.0, 1.0], [-_REFINE_STEP, 0.0, 1.0],
     [0.0, _REFINE_STEP, 1.0], [0.0, -_REFINE_STEP, 1.0]])
_P_STEN = np.stack([np.stack([_rot10(e, t) for e in np.eye(10)], axis=1)
                    for t in _STENCIL])
_STEN_OP = np.einsum("mj,sji->smi", _BASIS7, _P_STEN)


def _refine_axes(h, seeds, mask, max_iter=60):
    """Damped Gauss-Newton zero search, run from all seeds in lockstep on the
    sphere, of the components each seed's row of mask (n, 7) selects.

    Each seed carries its own chart, recentred after every accepted step so
    the transport underlying the component phases stays smooth; basins that
    stop descending are retired early.  Only the union of the masked rows is
    projected; a masked-out row adds exact zeros, so every seed's sums are
    those of its own components.  Returns (axes (n,3), functional (n,)).
    """
    cols = np.flatnonzero(np.any(mask, axis=0))
    mask = mask[:, cols]
    basis_t = _BASIS7[cols].T
    sten = _STEN_OP[:, cols]
    n = len(seeds)
    base = _transport_matrices(seeds)
    cloc = _pullback_many(np.broadcast_to(h.tensor, (n, 3, 3, 3)),
                          base[:, None])[:, 0, :]
    fval = ((cloc @ basis_t * mask) ** 2).sum(1)
    f0 = fval.copy()
    lams = 0.5 ** np.arange(8)
    active = np.arange(n)
    for it in range(max_iter):
        keep = fval[active] > 1e-30
        if it >= 2:
            keep &= fval[active] <= 0.5 ** it * f0[active]
        active = active[keep]
        if not len(active):
            break
        comps = (np.einsum("smi,ni->nsm", sten, cloc[active])
                 * mask[active, None])
        fvec = comps[:, 0, :]
        fval[active] = (fvec ** 2).sum(1)
        j1 = (comps[:, 1] - comps[:, 2]) / (2 * _REFINE_STEP)
        j2 = (comps[:, 3] - comps[:, 4]) / (2 * _REFINE_STEP)
        a11 = (j1 * j1).sum(1)
        a12 = (j1 * j2).sum(1)
        a22 = (j2 * j2).sum(1)
        b1 = (j1 * fvec).sum(1)
        b2 = (j2 * fvec).sum(1)
        det = a11 * a22 - a12 * a12
        good = np.isfinite(det) & (det > 1e-200 * np.maximum(a11 * a22,
                                                             1e-300))
        active = active[good]
        if not len(active):
            break
        inv = 1.0 / det[good]
        delta = np.stack(
            [-(a22[good] * b1[good] - a12[good] * b2[good]) * inv,
             -(a11[good] * b2[good] - a12[good] * b1[good]) * inv], axis=1)
        delta = np.clip(delta, -1.0, 1.0)  # keep trials inside the chart
        m = len(active)
        tloc = (cloc[active] @ _SCATTER.T).reshape(m, 3, 3, 3)
        pts = np.ones((m, len(lams), 3))  # chart point (xi0, xi1) at z = 1
        pts[:, :, :2] = delta[:, None, :] * lams[None, :, None]
        rmats = _transport_matrices(pts.reshape(-1, 3)).reshape(
            m, len(lams), 3, 3)
        trials = _pullback_many(tloc, rmats)
        tvals = ((trials @ basis_t * mask[active, None]) ** 2).sum(-1)
        improving = tvals < fval[active, None]
        pick = np.argmax(improving, axis=1)  # first (largest) improving lam
        stepn = np.linalg.norm(delta, axis=1) * lams[pick]
        cont = improving.any(axis=1) & (stepn > 1e-14)
        sel = np.flatnonzero(cont)
        if len(sel):
            ai = active[sel]
            base[ai] = base[ai] @ rmats[sel, pick[sel]]
            cloc[ai] = trials[sel, pick[sel]]
            fval[ai] = tvals[sel, pick[sel]]
        active = active[sel]
    return base[:, :, 2], fval


def _canonical_sign(w):
    for v in w:
        if abs(v) > 1e-8:
            return w if v > 0 else -w
    return w


def _dedupe(cands, ang_tol=1e-4):
    """Antipodal canonicalization + angular merge, best residual kept."""
    out = []
    held = np.empty((len(cands), 3))
    for w, res in sorted(cands, key=lambda p: p[1]):
        w = _canonical_sign(np.asarray(w))
        if out:
            d2 = np.minimum(((held[:len(out)] - w) ** 2).sum(1),
                            ((held[:len(out)] + w) ** 2).sum(1))
            if d2.min() < ang_tol * ang_tol:
                continue
        held[len(out)] = w
        out.append((w, res))
    out.sort(key=lambda p: tuple(np.round(p[0], 9)))
    return out


def _fibonacci_sphere(n):
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


_LATTICE = _fibonacci_sphere(2000)  # singular_directions' scan points


def _seed_points(lattice, fvals, n_basins, min_sep=0.15):
    # prefilter to the best few hundred lattice points, then greedily pick
    # value-ordered representatives separated by min_sep (antipodally aware)
    k = min(len(fvals), 320)
    cand = np.argpartition(fvals, k - 1)[:k]
    cand = cand[np.argsort(fvals[cand])]
    pts = lattice[cand]
    gram = pts @ pts.T
    d2min = 2.0 - 2.0 * np.abs(gram)  # min of |w-u|^2, |w+u|^2
    ok = np.ones(k, dtype=bool)
    seeds = []
    for i in range(k):
        if not ok[i]:
            continue
        seeds.append(pts[i])
        if len(seeds) >= n_basins:
            break
        ok &= d2min[i] >= min_sep * min_sep
    return seeds


def find_symmetry_axes(h: HarmonicCubic, tol: float = TAU_AXIS) -> SymmetryAxes:
    """Locate all axes whose rotational components vanish.

    order-2 condition: c1 = c3 = 0; order-3: c1 = c2 = 0; circle: all of
    c1, c2, c3 = 0.  The candidates are built from the cubic's Maxwell
    directions, which every symmetry permutes, and all three conditions are
    polished in one lockstep refine.  Residual threshold is tol * ||h||;
    axes meeting the circle condition are removed from the order-2/order-3
    lists.
    """
    norm = h.norm()
    if norm <= TAU_ZERO:
        raise ValueError("cubic is numerically zero; axes are undefined")
    threshold = tol * norm
    seeds, kind = _axis_seeds(_maxwell_directions(h.coeffs))
    axes, final = _refine_axes(h, seeds, _CONDITION_MASKS[kind])
    found = ([], [], [])
    for i in range(len(seeds)):
        if final[i] <= threshold:
            found[kind[i]].append((axes[i], float(final[i])))
        else:
            log.debug("axis seed %s rejected: functional %.3e above %.3e",
                      np.round(seeds[i], 4), final[i], threshold)
    circle, order2, order3 = (_dedupe(f) for f in found)

    def drop_circle(lst):
        keep = []
        for w, res in lst:
            if any(min(np.linalg.norm(w - u), np.linalg.norm(w + u)) < 1e-4
                   for u, _ in circle):
                continue
            keep.append((w, res))
        return tuple(keep)

    return SymmetryAxes(order2=drop_circle(order2),
                        order3=drop_circle(order3),
                        circle=tuple(circle))


# ---------------------------------------------------------------------------
# classification

def _phase_rotation(k, current, target):
    """Rotation about z multiplying c_k by exp(i k alpha) to reach `target`."""
    alpha = (target - np.angle(current)) / k
    return Rotation3.about_axis([0.0, 0.0, 1.0], alpha)


_FLIP_Z = Rotation3(np.diag([1.0, -1.0, -1.0]))  # half-turn about x


def _fit_residual(h, R, tag, r, s):
    """Norm of rotate(h, R) minus the normal form, on raw coefficients, so
    no absolute trace floor applies to the difference."""
    d = _rot10(h.coeffs, R.entries) - normal_form(tag, r, s).coeffs
    return math.sqrt(float(np.dot(MULTIPLICITY * d, d)))


def _fit_circle(h, axis):
    R = transport_rotation(axis)
    c0 = _components7(_rot10(h.coeffs, R.entries))[0]
    r = c0 / _NORM_P0
    if r < 0:
        R = R.compose(_FLIP_Z)
        r = -r
    resid = _fit_residual(h, R, StabilizerType.CIRCLE, r, 0.0)
    return NormalFormResult(StabilizerType.CIRCLE, R, float(r), 0.0, resid)


def _fit_s3(h, order3_axis):
    R = transport_rotation(order3_axis)
    c3 = _components7(_rot10(h.coeffs, R.entries))[3]
    R = R.compose(_phase_rotation(3, c3, 0.0))
    s = abs(c3) / 2.0
    resid = _fit_residual(h, R, StabilizerType.S3, 0.0, s)
    return NormalFormResult(StabilizerType.S3, R, 0.0, float(s), resid)


def _fit_a4(h, order2_axes):
    w1 = order2_axes[0][0]
    w2 = order2_axes[1][0]
    w2 = w2 - np.dot(w1, w2) * w1
    w2 /= np.linalg.norm(w2)
    R = Rotation3(np.column_stack([w1, w2, np.cross(w1, w2)]))
    c2 = _components7(_rot10(h.coeffs, R.entries))[2]
    # target phase -pi/2: xyz component positive, (x^2-y^2)z component zero
    R = R.compose(_phase_rotation(2, c2, -math.pi / 2.0))
    s = abs(c2) / math.sqrt(6.0)
    resid = _fit_residual(h, R, StabilizerType.A4, 0.0, s)
    return NormalFormResult(StabilizerType.A4, R, 0.0, float(s), resid)


def _fit_z2(h, axis):
    R = transport_rotation(axis)
    c0 = _components7(_rot10(h.coeffs, R.entries))[0]
    r = c0 / _NORM_P0
    if r < 0:
        R = R.compose(_FLIP_Z)
        r = -r
    c2 = _components7(_rot10(h.coeffs, R.entries))[2]
    R = R.compose(_phase_rotation(2, c2, -math.pi / 2.0))
    s = abs(c2) / math.sqrt(6.0)
    resid = _fit_residual(h, R, StabilizerType.Z2, r, s)
    return NormalFormResult(StabilizerType.Z2, R, float(r), float(s), resid,
                            dist_s_minus_r=float(abs(s - r)))


def _fit_z3(h, axis):
    R = transport_rotation(axis)
    c0 = _components7(_rot10(h.coeffs, R.entries))[0]
    r = c0 / _NORM_P0
    if r < 0:
        R = R.compose(_FLIP_Z)
        r = -r
    c3 = _components7(_rot10(h.coeffs, R.entries))[3]
    R = R.compose(_phase_rotation(3, c3, 0.0))
    s = abs(c3) / 2.0
    resid = _fit_residual(h, R, StabilizerType.Z3, r, s)
    return NormalFormResult(
        StabilizerType.Z3, R, float(r), float(s), resid,
        dist_s_minus_rsqrt2=float(abs(s - r * math.sqrt(2.0))))


def classify(h: HarmonicCubic, tol: float = 1e-6) -> NormalFormResult:
    """Stabilizer type and normal form of a cubic under rotations.

    Decision tree: zero norm -> Full; a circle axis -> Circle; otherwise the
    census of order-2/order-3 axes selects the type (3+4 -> A4, 3+1 -> S3,
    0+1 -> Z3, 1+0 -> Z2, none -> Trivial).  Z2 fits with |s - r| and Z3
    fits with |s - r*sqrt(2)| within tol * ||h|| collapse to S3 / A4.
    """
    norm = h.norm()
    if norm <= TAU_ZERO:
        return NormalFormResult(StabilizerType.FULL, Rotation3.identity(),
                                0.0, 0.0, float(norm))
    axes = find_symmetry_axes(h, tol=TAU_AXIS)
    if axes.circle:
        return _fit_circle(h, axes.circle[0][0])
    n2, n3 = len(axes.order2), len(axes.order3)
    if (n2, n3) == (0, 0):
        return NormalFormResult(StabilizerType.TRIVIAL, Rotation3.identity(),
                                0.0, 0.0, 0.0)
    if (n2, n3) == (3, 4):
        return _fit_a4(h, axes.order2)
    if (n2, n3) == (3, 1):
        return _fit_s3(h, axes.order3[0][0])
    if (n2, n3) in ((1, 0), (0, 1)):
        if n2:
            fit, field = _fit_z2(h, axes.order2[0][0]), "dist_s_minus_r"
        else:
            fit, field = _fit_z3(h, axes.order3[0][0]), "dist_s_minus_rsqrt2"
        dist = getattr(fit, field)
        if dist > tol * norm:
            return fit
        # on the collapse line the cubic is S3 (from Z2) or A4 (from Z3);
        # re-search with a threshold loose enough for the symmetry broken
        # by a distance of `dist`
        loose = find_symmetry_axes(
            h, tol=max(TAU_AXIS, 100.0 * (dist / norm) ** 2))
        if n2 and loose.order3:
            collapsed = _fit_s3(h, loose.order3[0][0])
        elif n3 and len(loose.order2) >= 2:
            collapsed = _fit_a4(h, loose.order2)
        elif n2:
            collapsed = NormalFormResult(StabilizerType.S3, fit.rotation,
                                         0.0, norm / 2.0, fit.residual)
        else:
            collapsed = NormalFormResult(StabilizerType.A4, fit.rotation,
                                         0.0, norm / math.sqrt(6.0),
                                         fit.residual)
        return dataclasses.replace(collapsed, **{field: dist})
    raise CensusError(
        f"axis census ({n2} order-2, {n3} order-3) matches no stabilizer "
        f"pattern",
        census={"order2": axes.order2, "order3": axes.order3,
                "circle": axes.circle})


def singular_directions(h: HarmonicCubic, tol: float = 1e-6):
    """Projective directions in which the cubic's gradient vanishes.

    Returns at most three unit vectors w (first nonzero coordinate positive)
    with ||grad h(w)|| <= tol * ||h||.  The gradient vanishes at w exactly
    when the components c0 and c1 about w do, so the lockstep axis refiner
    searches for those zeros from the best basins of a sphere scan.
    """
    norm = h.norm()
    if norm <= TAU_ZERO:
        raise ValueError("cubic is numerically zero")
    t = h.tensor
    g = 3.0 * np.einsum("pjk,nj,nk->np", t, _LATTICE, _LATTICE)
    fvals = np.einsum("np,np->n", g, g)
    seeds = np.array(_seed_points(_LATTICE, fvals, 40))
    axes, _ = _refine_axes(h, seeds, np.broadcast_to(_GRADIENT,
                                                     (len(seeds), 7)))
    grads = 3.0 * np.einsum("pjk,nj,nk->np", t, axes, axes)
    res = np.linalg.norm(grads, axis=1)
    found = _dedupe([(w, r) for w, r in zip(axes, res) if r <= tol * norm])
    return [w for w, _ in found[:3]]


def is_reducible(h: HarmonicCubic, tol: float = 1e-6):
    """Whether a linear form divides the cubic; returns (flag, form or None).

    A cubic is divisible by a linear form exactly when it has an order-2
    (or circle) symmetry axis.  The factor returned is the coordinate of the
    distinguished axis after normal-form alignment, pulled back to the input
    frame: the z-coordinate for Circle/Z2/A4 forms, the x-coordinate for S3.
    """
    norm = h.norm()
    if norm <= TAU_ZERO:
        raise ValueError("cubic is numerically zero")
    fit = classify(h, tol=tol)
    m = fit.rotation.entries
    if fit.type in (StabilizerType.CIRCLE, StabilizerType.Z2,
                    StabilizerType.A4):
        return True, m[:, 2].copy()
    if fit.type is StabilizerType.S3:
        return True, m[:, 0].copy()
    return False, None


def divide_by_linear(h: HarmonicCubic, ell):
    """Least-squares quotient of the cubic by the linear form ell . x.

    Returns (quadratic coefficients as a symmetric 3x3, remainder norm);
    the remainder vanishes exactly when the form divides the cubic.
    """
    ell = np.asarray(ell, dtype=float)
    # columns: symmetrized products ell (x) E_pq over the 6 independent E_pq
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    cols = []
    for p, q in pairs:
        e = np.zeros((3, 3))
        e[p, q] = e[q, p] = 1.0
        prod = (np.einsum("i,jk->ijk", ell, e)
                + np.einsum("j,ik->ijk", ell, e)
                + np.einsum("k,ij->ijk", ell, e)) / 3.0
        cols.append(prod.reshape(-1))
    a = np.stack(cols, axis=1)
    b = h.tensor.reshape(-1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = np.linalg.norm(a @ sol - b)
    quad = np.zeros((3, 3))
    for (p, q), v in zip(pairs, sol):
        quad[p, q] = quad[q, p] = v
    return quad, float(resid)
