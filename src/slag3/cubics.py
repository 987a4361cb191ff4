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
* The axis search runs on coefficient rows scaled to unit norm, so its
  arithmetic does not depend on the cubic's scale; the residuals it reports
  in ``SymmetryAxes`` are scaled back, in the units of (tol * ||h||)^2.
  Only seeds within reach of an acceptable axis, a starting functional of
  at most 100 * tol^(2/3) on the unit-norm rows (``_reach``), are polished.
* Every pullback of a cubic by a rotation goes through ``_pullback``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "TAU_ZERO",
    "TAU_AXIS",
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
    "normal_form",
    "transport_rotation",
]

log = logging.getLogger(__name__)

TAU_ZERO = 1e-9    # absolute: below this norm a cubic counts as zero
TAU_AXIS = 1e-6    # relative: norm of the components a symmetry forbids
_TAU_TRACE = 1e-8  # relative: trace residual admitted by the constructor
_TAU_GRAD = 1e-6   # relative: gradient norm of a singular direction
_MERGE_ANGLE = 1e-4  # directions closer than this (radians) are one
_AXIS_CHUNK = 64     # cubics whose axis searches run together; bounds their
                     # arrays.  classify on the 320 cubics of an hl_cone
                     # sweep (2-core x86 VM): 28.3 ms and 0.62 MB
                     # tracemalloc peak at 16, 21.6 ms and 1.66 MB at 64,
                     # 20.3 ms and 6.6 MB in one chunk; peak RSS of the
                     # seed-1 sweep benchmark: 45.5 MB at 16, 46.1 at 64,
                     # 49.3 at 128, 50.7 in one chunk
_CONE_SIGMA = 1e-12  # sigma_3 / sigma_1 of the slice matrix of an exact cone
_OVERFLOW = "cubic norm overflows: its squared norm is not finite"

# cumulative wall seconds of classify's two stages, read by geometry.sweep
_SECONDS = {"axis_search": 0.0, "fit": 0.0}

LEX_TRIPLES = ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
               (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3))
MULTIPLICITY = np.array([1, 3, 3, 3, 6, 3, 1, 3, 3, 1], dtype=float)

# the independent entry that each flat position of the full symmetric
# tensor repeats, and the flat positions recovering the entries
_IDX27 = np.empty(27, dtype=int)
_IDX10 = np.empty(10, dtype=int)
for _col, (_i, _j, _k) in enumerate(LEX_TRIPLES):
    for _p in {(_i, _j, _k), (_i, _k, _j), (_j, _i, _k), (_j, _k, _i),
               (_k, _i, _j), (_k, _j, _i)}:
        _IDX27[(_p[0] - 1) * 9 + (_p[1] - 1) * 3 + (_p[2] - 1)] = _col
    _IDX10[_col] = (_i - 1) * 9 + (_j - 1) * 3 + (_k - 1)


def _full(c):
    """Full symmetric (..., 3, 3, 3) arrays from the 10 independent entries
    (..., 10); -0 entries are stored as +0."""
    return (c[..., _IDX27] + 0.0).reshape(c.shape[:-1] + (3, 3, 3))


def _gather(t):
    """The 10 independent entries (..., 10) of full tensors (..., 3, 3, 3)."""
    return t.reshape(t.shape[:-3] + (27,))[..., _IDX10]


# v_k = sum_i h_iik as a (3, 10) map of the coefficients, and the (10, 3)
# map from v to the trace part (d_ij v_k + d_jk v_i + d_ki v_j) / 5
_TRACE = np.einsum("niik->kn", _full(np.eye(10)))
_TRACE_PART = _gather(np.einsum("ij,nk->nijk", np.eye(3), np.eye(3))
                      + np.einsum("jk,ni->nijk", np.eye(3), np.eye(3))
                      + np.einsum("ki,nj->nijk", np.eye(3), np.eye(3))).T / 5.0


def _trace_vectors(cs):
    """Trace vectors (..., 3) of the coefficient rows cs (..., 10), each as
    its own (3, 10) @ (10, 1) product, so a row's rounding does not depend
    on its stack."""
    return np.matmul(_TRACE, cs[..., :, None])[..., 0]


def _pullback(cs, ms):
    """Pullback coefficients (n, 10) of x -> h(m x) for the coefficient rows
    cs (n, 10) by the matrices ms (n, 3, 3) or one (3, 3), on raw arrays
    (hot path).

    Each leg is contracted as one stacked (9, 3) @ (3, 3) product of a
    contiguous operand, the BLAS call a tensordot makes for one cubic, so a
    row's result does not depend on the others.
    """
    t = _full(cs)
    # legs (i, j, k) -> (j, k, i') -> (k, i', j') -> (i', j', k')
    for _ in range(3):
        t = np.matmul(np.ascontiguousarray(
            t.reshape(-1, 3, 9).transpose(0, 2, 1)), ms)
    return t.reshape(-1, 27)[:, _IDX10]


def _rowdot(a, b):
    """Dot products of matching rows of a and b (..., n), each with np.dot's
    rounding: numpy runs a (1, n) @ (n, 1) product through the same BLAS
    dot, while a sum of products rounds differently."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _cubic_errors(cs):
    """Per row of the stack cs (n, ...): None for an admissible cubic (10
    finite coefficients whose trace vector is within _TAU_TRACE of its
    norm), else the ValueError that HarmonicCubic raises for it."""
    if cs.shape[1:] != (10,):
        return [ValueError("expected 10 independent coefficients")
                for _ in range(len(cs))]
    finite = np.isfinite(cs).all(axis=1)
    if not finite.all():
        cs = np.where(finite[:, None], cs, 0.0)
    with np.errstate(over="ignore"):  # inf, which classify rejects
        sq = _rowdot(MULTIPLICITY * cs, cs)
    # relative bound with an absolute roundoff floor, so differences of
    # nearly equal admissible cubics stay admissible
    traceful = (np.abs(_trace_vectors(cs)).max(axis=1)
                > _TAU_TRACE * np.sqrt(sq) + 1e-13)
    return [ValueError("non-finite cubic coefficients") if not ok
            else ValueError("coefficients violate the trace condition; "
                            "route raw tensors through project_traceless")
            if bad else None
            for ok, bad in zip(finite.tolist(), traceful.tolist())]


@dataclass(frozen=True)
class HarmonicCubic:
    """Traceless symmetric cubic tensor on R^3 (10 independent entries)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        fail = _cubic_errors(c[None])[0]
        if fail is not None:
            raise fail
        object.__setattr__(self, "coeffs", c)

    @property
    def tensor(self):
        """Full symmetric (3,3,3) array."""
        return _full(self.coeffs)

    def trace_vector(self):
        """v_k = sum_i h_iik, zero for an admissible cubic."""
        return _trace_vectors(self.coeffs)

    def norm(self) -> float:
        return math.sqrt(self.inner(self))

    def inner(self, other: "HarmonicCubic") -> float:
        with np.errstate(over="ignore"):  # inf, which classify rejects
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
        if m.shape != (3, 3):
            raise ValueError("rotation must be a finite 3x3 matrix")
        fail = _rotation_errors(m[None])[0]
        if fail is not None:
            raise fail
        object.__setattr__(self, "entries", m)

    @classmethod
    def identity(cls) -> "Rotation3":
        return cls(np.eye(3))

    @classmethod
    def about_axis(cls, axis, angle: float) -> "Rotation3":
        """Right-handed rotation through `angle` about the unit vector `axis`."""
        a = np.asarray(axis, dtype=float)
        k = _cross_matrix(a / np.linalg.norm(a))
        m = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
        return cls(m)

    def compose(self, other: "Rotation3") -> "Rotation3":
        return Rotation3(self.entries @ other.entries)

    def transpose(self) -> "Rotation3":
        return Rotation3(self.entries.T)


def _cross_matrix(a):
    """Matrix of w -> a x w."""
    return np.array([[0.0, -a[2], a[1]],
                     [a[2], 0.0, -a[0]],
                     [-a[1], a[0], 0.0]])


def _rotation_errors(ms):
    """Per matrix of the stack ms (n, 3, 3): None for a finite proper
    rotation (orthogonality residual and det - 1 within 1e-9), else the
    ValueError that Rotation3 raises for it."""
    finite = np.isfinite(ms).all(axis=(1, 2))
    ms = np.where(finite[:, None, None], ms, 0.0)
    gram = (np.matmul(ms.transpose(0, 2, 1), ms) - np.eye(3)).reshape(-1, 9)
    ortho = np.sqrt(_rowdot(gram, gram))
    det = np.linalg.det(ms)
    return [ValueError("rotation must be a finite 3x3 matrix") if not ok
            else ValueError(f"matrix is not a proper rotation (orthogonality "
                            f"residual {o:.3e})")
            if o > 1e-9 or abs(d - 1.0) > 1e-9 else None
            for ok, o, d in zip(finite, ortho, det)]


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
    defining squared functional (order-2: |c1|^2 + |c3|^2; order-3:
    |c1|^2 + |c2|^2; circle: the sum of all three), at most (tol * ||h||)^2
    for the search's `tol`, so in the units of ||h||^2.  Axes satisfying the
    circle condition are listed only under `circle`.
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
    return HarmonicCubic(_normal_coeffs(tag, np.array([r]), np.array([s]))[0])


def _normal_coeffs(tag, r, s):
    """Coefficient rows (n, 10) of the normal forms of type tag at the
    parameters r, s (n,)."""
    c = np.zeros((len(r), 10))
    if tag in (StabilizerType.CIRCLE, StabilizerType.Z2, StabilizerType.Z3):
        c += r[:, None] * _P0
    if tag in (StabilizerType.A4, StabilizerType.Z2):
        c[:, 4] += s
    if tag in (StabilizerType.S3, StabilizerType.Z3):
        c += s[:, None] * _Q3A
    return c


def project_traceless(t) -> HarmonicCubic:
    """Project a raw symmetric tensor (10 entries) onto the traceless part.

    h'_ijk = h_ijk - (d_ij v_k + d_jk v_i + d_ki v_j)/5 with v_k = sum_i h_iik;
    idempotent, and exact for already-traceless input.
    """
    c = np.asarray(t, dtype=float)
    if c.shape != (10,) or not np.all(np.isfinite(c)):
        raise ValueError("expected 10 finite tensor entries")
    return HarmonicCubic(_traceless(c))


def _traceless(cs):
    """Unchecked project_traceless of raw entries (..., 10), row by row; a
    row with zero trace vector comes back unchanged."""
    return cs - np.matmul(_TRACE_PART, _trace_vectors(cs)[..., None])[..., 0]


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
    return HarmonicCubic(_pullback(h.coeffs[None], R.entries)[0])


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


def _components(cs, ms):
    """Rows (n, 7) of _BASIS7 components (c0, Re c1, -Im c1, ...) about the
    z-axis of the pullbacks of cs (n, 10) by ms (n, 3, 3).  Stacked as
    (7, 10) @ (10, 1) products, each row is the matrix-vector product of
    one cubic."""
    return np.matmul(_BASIS7, _pullback(cs, ms)[:, :, None])[:, :, 0]


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
    v = _components(h.coeffs[None], _transport_matrices(w[None]))[0]
    return AxisDecomposition(axis=w, c0=v[0], c1=complex(v[1], -v[2]),
                             c2=complex(v[3], -v[4]), c3=complex(v[5], -v[6]))


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


# _TOUCHES[i] flags the 36 pairs (i', j') of six points with i in {i', j'}
_TOUCHES = np.array([(np.arange(36) // 6 == i) | (np.arange(36) % 6 == i)
                     for i in range(6)])


def _maxwell_directions(cs):
    """Unit Maxwell directions v1, v2, v3 (n, 3, 3) of the coefficient rows
    cs (n, 10).

    By Sylvester's theorem the six roots of the sextic, as points of
    S^2 = CP^1, are three antipodal pairs +-v_i, and every rotation fixing
    the cubic permutes them.  The root zeta is the point
    (-2 Re zeta, -2 Im zeta, 1 - |zeta|^2) / (1 + |zeta|^2), read through
    1/zeta when |zeta| > 1; a degree lost to vanishing leading coefficients
    is a root at infinity, the pole -z.  Pairs are matched closest first and
    one vector per pair is kept.

    The roots are those of np.roots: the sextics of equal trimmed degree
    share one eigvals call on their stacked companion matrices, and vanishing
    trailing coefficients are roots at zero.  Closest first is the order of
    np.argsort over the 36 gaps of a cubic, whose ties (i, j) / (j, i) fix
    each vector's sign, so each round takes the free pair of lowest rank.
    """
    n = len(cs)
    at = np.arange(n)[:, None]
    # descending powers; a (7, 10) @ (10, 1) product per cubic, as
    # (n, 10) @ (10, 7) rounds differently
    poly = np.matmul(_SEXTIC, cs[:, :, None])[:, ::-1, 0]
    live = poly != 0
    lead = np.argmax(live, axis=1)
    size = 7 - lead - np.argmax(live[:, ::-1], axis=1)  # trimmed length
    roots = np.zeros((n, 6), dtype=complex)  # then zeros, then poles
    for k in set(size[size > 1].tolist()):
        rows = np.flatnonzero(size == k)
        p = poly[rows[:, None], lead[rows, None] + np.arange(k)]
        comp = np.repeat(np.eye(k - 1, k=-1, dtype=complex)[None], len(rows),
                         axis=0)
        comp[:, 0] = -p[:, 1:] / p[:, :1]
        roots[rows, :k - 1] = np.linalg.eigvals(comp)
    far = np.abs(roots) > 1.0
    z = roots.copy()
    z[far] = 1.0 / roots[far]
    sign = np.where(far, -1.0, 1.0)
    d = 1.0 + np.abs(z) ** 2
    pts = np.stack([-2.0 * z.real / d, -2.0 * sign * z.imag / d,
                    sign * (2.0 / d - 1.0)], axis=2)
    pts[np.arange(6) >= 6 - lead[:, None]] = [0.0, 0.0, -1.0]
    gap = np.linalg.norm(pts[:, :, None] + pts[:, None], axis=3)
    rank = np.empty((n, 36), dtype=int)
    rank[at, np.argsort(gap.reshape(n, 36), axis=1)] = np.arange(36)
    rank[:, ::7] = 36  # the pairs (i, i)
    pairs = np.empty((n, 3), dtype=int)
    for v in range(3):
        pairs[:, v] = np.argmin(rank, axis=1)
        i, j = np.divmod(pairs[:, v], 6)
        rank[_TOUCHES[i] | _TOUCHES[j]] = 36
    i, j = np.divmod(pairs, 6)
    out = pts[at, i] - pts[at, j]
    return out / np.linalg.norm(out, axis=2, keepdims=True)


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
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def _axis_seeds(v):
    """(unit seed axes (k, 3), condition index (k,), owning cubic (k,)) for
    all three symmetry conditions from the Maxwell directions v (n, 3, 3),
    cubic by cubic."""
    w = v[:, _NEXT]  # the normals v_i x v_(i+1), computed as np.cross does
    cands = np.concatenate([np.matmul(_SEED_SUMS, v),
                            v[..., _NEXT] * w[..., _PREV]
                            - v[..., _PREV] * w[..., _NEXT]], axis=1)
    seeds = cands[:, _SEED_ROWS]
    n = np.linalg.norm(seeds, axis=2)
    keep = n > 1e-12
    owner, row = np.nonzero(keep)
    return seeds[keep] / n[keep, None], _SEED_KIND[row], owner


def _generator(a):
    """Coefficient map (10, 10) of d/d eps at 0 of the pullback by I + eps a.
    That pullback is cubic in eps, so the five-point rule
    (-P(2) + 8 P(1) - 8 P(-1) + P(-2)) / 12 gives it exactly."""
    p2, p1, m1, m2 = (_pullback(np.eye(10), np.eye(3) + e * a).T
                      for e in (2.0, 1.0, -1.0, -2.0))
    return (8.0 * (p1 - m1) - p2 + m2) / 12.0


# Each seed's chart is recentred after every step, so the components and
# their derivatives along the chart coordinates (xi0, xi1), whose so(3)
# generators are the first-order terms of _transport_matrices((xi0, xi1, 1)),
# are fixed linear maps of the chart's coefficient rows: _REFINE_OP stacks
# the projection onto all seven components and its composition with each
# generator.
_REFINE_OP = np.stack([_BASIS7] + [_BASIS7 @ _generator(_cross_matrix(a))
                                   for a in ([0.0, 1.0, 0.0],
                                             [-1.0, 0.0, 0.0])])
_REFINE_ITERS = 60
_REFINE_FLOOR = 1e-30  # a seed retires at this functional of a unit cubic
_LINE_STEPS = 0.5 ** np.arange(8)  # line-search step lengths, full step first


def _reach(tol):
    """Largest starting functional (unit-norm rows) of a seed that can reach
    an axis accepted at `tol`: 100 * tol^(2/3), 1 (no pruning) at 1e-3.

    Within tol * ||h|| of Circle the triple Maxwell root splits by about
    tol^(1/3) rad, so the best seed of the axis starts at a functional near
    tol^(2/3).  The best seed of every accepted axis started at most
    7 * tol^(2/3) (tol = 1e-6, 1e-4, 1e-2; near-Circle, near-collapse, exact
    and Gaussian cubics, the worst Circle plus a c3 term)."""
    return 100.0 * (tol * tol) ** (1.0 / 3.0)


def _functional(c, basis, mask):
    """Masked squared components of the coefficient rows c (..., 10), each
    row projected onto the rows of basis (k, 10) as its own (k, 10) @ (10, 1)
    product, as in _components."""
    comps = np.matmul(basis, c[..., :, None])[..., 0]
    return ((comps * mask) ** 2).sum(-1)


def _trials(cloc, delta, lams, mask, basis):
    """Line-search trials of the steps lams * delta from each seed's chart,
    whose coefficient rows are cloc (m, 10): (rotations (m, L, 3, 3),
    pulled-back coefficients (m, L, 10), masked functionals (m, L)).  Each
    row is repeated once per step length and pulled back by its trial
    rotation in one _pullback call."""
    m, L = len(cloc), len(lams)
    pts = np.ones((m, L, 3))  # chart point (xi0, xi1) at z = 1
    pts[:, :, :2] = delta[:, None, :] * lams[None, :, None]
    rmats = _transport_matrices(pts.reshape(-1, 3))
    trials = _pullback(np.repeat(cloc, L, axis=0), rmats).reshape(m, L, 10)
    return (rmats.reshape(m, L, 3, 3), trials,
            _functional(trials, basis, mask[:, None]))


def _refine_axes(cs, seeds, mask, reach):
    """Damped Gauss-Newton zero search, run from all seeds in lockstep on the
    sphere, of the components each seed's row of mask (n, 7) selects.

    Seed i searches the cubic with coefficient rows cs[i] (n, 10), scaled to
    unit norm, and retires once its functional is at most _REFINE_FLOOR, so
    the search is scale-free and the seeds of many cubics march together,
    each with the arithmetic it has alone.  A seed starting above `reach`
    (_reach: an acceptable axis has a seed within about tol^(2/3)) retires
    before the first step with its starting functional, which the census
    rejects.  Each seed carries its own chart, recentred after every
    accepted step so the transport underlying the component phases stays
    smooth, and the Gauss-Newton jacobian is exact: the chart's generator
    maps of _REFINE_OP.  Basins that stop descending are retired early.  The
    line search pulls back the full step first and the seven halvings only
    for the seeds where it does not improve; the first improving step is
    taken.
    Only the union of the masked rows is projected; a masked-out row adds
    exact zeros, so every seed's sums are those of its own components.
    Returns (axes (n, 3), functional (n,) of the unit-norm rows).
    """
    cols = np.flatnonzero(np.any(mask, axis=0))
    mask = mask[:, cols]
    basis = _BASIS7[cols]
    op = _REFINE_OP[:, cols]
    n = len(seeds)
    base = _transport_matrices(seeds)
    cs = cs / np.sqrt(_rowdot(MULTIPLICITY * cs, cs))[:, None]
    cloc = _pullback(cs, base)
    fval = _functional(cloc, basis, mask)
    f0 = fval.copy()
    active = np.flatnonzero(fval <= reach)
    for it in range(_REFINE_ITERS):
        keep = fval[active] > _REFINE_FLOOR
        if it >= 2:
            keep &= fval[active] <= 0.5 ** it * f0[active]
        active = active[keep]
        if not len(active):
            break
        comps = (np.einsum("smi,ni->nsm", op, cloc[active])
                 * mask[active, None])
        fvec, j1, j2 = comps[:, 0], comps[:, 1], comps[:, 2]
        fval[active] = (fvec ** 2).sum(1)
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
        rmat, trial, tval = (a[:, 0] for a in _trials(
            cloc[active], delta, _LINE_STEPS[:1], mask[active], basis))
        lam = np.ones(len(active))
        ok = tval < fval[active]
        short = np.flatnonzero(~ok)
        if len(short):
            rs, ts, vs = _trials(cloc[active[short]], delta[short],
                                 _LINE_STEPS[1:], mask[active[short]], basis)
            improving = vs < fval[active[short], None]
            pick = np.argmax(improving, axis=1)  # first (largest) improving
            at = np.arange(len(short))
            rmat[short] = rs[at, pick]
            trial[short] = ts[at, pick]
            tval[short] = vs[at, pick]
            lam[short] = _LINE_STEPS[1:][pick]
            ok[short] = improving.any(axis=1)
        stepn = np.linalg.norm(delta, axis=1) * lam
        sel = np.flatnonzero(ok & (stepn > 1e-14))
        if len(sel):
            ai = active[sel]
            base[ai] = base[ai] @ rmat[sel]
            cloc[ai] = trial[sel]
            fval[ai] = tval[sel]
        active = active[sel]
    return base[:, :, 2], fval


_LEAD_WEIGHTS = np.array([4.0, 2.0, 1.0])


def _antipodal_gap(a, b):
    """Distances min(|a - b|, |a + b|) (...) between the axes a and b
    (..., 3), each standing for the line it spans."""
    return np.sqrt(np.minimum(((a - b) ** 2).sum(-1),
                              ((a + b) ** 2).sum(-1)))


def _dedupe(axes, res, groups=None):
    """Antipodal canonicalization and angular merge of candidate axes
    (n, 3) with residuals (n,) within each group (n,) (default: one).

    Each axis is signed so that its first coordinate above 1e-8 in modulus
    is positive.  Taken by increasing residual (ties in input order), an
    axis is dropped when its distance to a kept axis of its group, the
    smaller over +-, is below _MERGE_ANGLE.  That greedy pass is
    solved on one pairwise distance matrix per group, repeated on the last
    kept set until it is stable (the greedy result is its only fixed
    point).  Returns (indices of the kept axes, by group, each group's in
    the order of the coordinates rounded to 9 digits, ties by residual;
    canonical axes (n, 3)).
    """
    axes = np.asarray(axes, dtype=float).reshape(-1, 3)
    n = len(axes)
    if not n:
        return np.zeros(0, dtype=int), axes
    # the sign of the first coordinate above 1e-8 outweighs the other two
    lead = (np.sign(axes) * (np.abs(axes) > 1e-8)) @ _LEAD_WEIGHTS
    axes = np.where(lead[:, None] < 0, -axes, axes)
    groups = np.zeros(n, dtype=int) if groups is None else groups
    order = np.lexsort((res, groups))
    g = groups[order]
    pos = np.arange(n) - np.searchsorted(g, g)  # place within the group
    held = np.zeros((g[-1] + 1, pos.max() + 1, 3))
    held[g, pos] = axes[order]
    valid = np.zeros(held.shape[:2], dtype=bool)
    valid[g, pos] = True
    close = ((_antipodal_gap(held[:, :, None], held[:, None]) < _MERGE_ANGLE)
             & valid[:, None]
             & np.tri(held.shape[1], k=-1, dtype=bool))
    keep = valid
    while True:
        nxt = valid & ~(close & keep[:, None]).any(axis=2)
        if (nxt == keep).all():
            break
        keep = nxt
    kept = order[keep[g, pos]]
    x, y, z = axes[kept].round(9).T
    return kept[np.lexsort((z, y, x, groups[kept]))], axes


# orthonormal basis (5, 9) of the traceless symmetric 3x3 matrices
_TRACELESS = np.array([
    [1, 0, 0, 0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, -2],
    [0, 1, 0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 0.0]]) / np.sqrt([[2], [6], [2], [2], [2]])


def _singular_seeds(t):
    """At most seven seed directions (n, 3) for the gradient zeros of the
    cubic with full tensor t.

    The slices A_p = t[p] are traceless, so grad h(w)_p = 3 tr(A_p w w^T)
    vanishes exactly when w w^T - I/3 is orthogonal to all three.  Unless h
    is a cone, that orthogonal complement among the traceless symmetric
    matrices is a pencil Y(theta), and its members of the form
    a (w w^T - I/3) are those with a repeated eigenvalue: the zeros of the
    binary sextic tr(Y^2)^3 - 54 det(Y)^2 in (cos theta, sin theta).  Seven
    samples give the sextic's harmonics exp(2ik theta), |k| <= 3, exactly;
    each root yields the eigenvector of the simple (largest in modulus)
    eigenvalue of Y.  A cone cubic adds the kernel of c -> t(c, ., .).  An
    exact cone (sigma_3 <= _CONE_SIGMA * sigma_1) is a harmonic binary cubic
    in the plane orthogonal to that kernel, whose gradient vanishes only on
    the kernel, so its vertex is returned alone.
    """
    u, sv, vh = np.linalg.svd(t.reshape(3, 9) @ _TRACELESS.T)
    if sv[2] <= _CONE_SIGMA * sv[0]:
        return u[:, 2][None]
    y1, y2 = (vh[3:] @ _TRACELESS).reshape(2, 3, 3)

    def pencil(theta):
        return (np.cos(theta)[:, None, None] * y1
                + np.sin(theta)[:, None, None] * y2)

    ys = pencil(np.arange(7) * math.pi / 7.0)
    disc = (np.trace(ys @ ys, axis1=1, axis2=2) ** 3
            - 54.0 * np.linalg.det(ys) ** 2)
    harm = np.fft.fft(disc)  # 7 x (harmonic k mod 7)
    roots = np.roots(harm[[3, 2, 1, 0, 6, 5, 4]])
    vals, vecs = np.linalg.eigh(pencil(np.angle(roots) / 2.0))
    pick = np.argmax(np.abs(vals), axis=1)
    return np.vstack([vecs[np.arange(len(roots)), :, pick], u[:, 2]])


def _census(sq, tol, seeds, kind, owner, axes, final):
    """SymmetryAxes of each cubic of a chunk, with squared norms sq, from
    the refined seeds of all of them (seed i of condition kind[i] belongs
    to cubic owner[i]).

    An axis is accepted when its squared functional is at most
    (tol * ||h||)^2.  One _dedupe call merges the accepted axes of every
    cubic and condition, and one array test removes the order-2/order-3
    axes within _MERGE_ANGLE of a circle axis of their cubic.
    """
    threshold = np.array([(tol * math.sqrt(q)) ** 2 for q in sq])[owner]
    hit = final <= threshold
    if log.isEnabledFor(logging.DEBUG):
        for i in np.flatnonzero(~hit):
            log.debug("axis seed %s rejected: functional %.3e above %.3e",
                      np.round(seeds[i], 4), final[i], threshold[i])
    hit = np.flatnonzero(hit)
    groups = owner[hit] * 3 + kind[hit]  # kinds: circle, order-2, order-3
    kept, ws = _dedupe(axes[hit], final[hit], groups)
    ws, res, groups = ws[kept], final[hit][kept], groups[kept]
    circle = groups % 3 == 0
    if circle.any():
        near = ((_antipodal_gap(ws[:, None], ws[circle]) < _MERGE_ANGLE)
                & (groups[:, None] // 3 == groups[circle] // 3))
        stay = circle | ~near.any(axis=1)
        ws, res, groups = ws[stay], res[stay], groups[stay]
    found = [([], [], []) for _ in sq]
    for g, w, r in zip(groups.tolist(), ws, res.tolist()):
        found[g // 3][g % 3].append((w, r))
    return [SymmetryAxes(order2=tuple(o2), order3=tuple(o3),
                         circle=tuple(c)) for c, o2, o3 in found]


def _symmetry_axes(cs, sq, tol):
    """SymmetryAxes of each nonzero cubic with coefficient rows cs (n, 10)
    and squared norms sq (n,).

    The cubics go in chunks of _AXIS_CHUNK, and each step runs once per
    chunk: one stacked root-finding call gives the Maxwell directions of
    all its cubics (_maxwell_directions), one pass builds their seeds
    (_axis_seeds), one lockstep refine polishes the seeds within _reach(tol)
    together (_refine_axes), and one census merges the accepted axes
    (_census).  The refine works on unit-norm rows; its functional is
    multiplied by ||h||^2 before the census, so the census and the residuals
    it reports keep the cubic's own units.
    """
    out = []
    for lo in range(0, len(cs), _AXIS_CHUNK):
        c, q = cs[lo:lo + _AXIS_CHUNK], sq[lo:lo + _AXIS_CHUNK]
        seeds, kind, owner = _axis_seeds(_maxwell_directions(c))
        axes, final = _refine_axes(c[owner], seeds, _CONDITION_MASKS[kind],
                                   _reach(tol))
        out += _census(q, tol, seeds, kind, owner, axes, final * q[owner])
    return out


def _checked_norm(h):
    """||h||, or the ValueError of a zero or overflowing cubic."""
    norm = h.norm()
    if norm <= TAU_ZERO:
        raise ValueError("cubic is numerically zero")
    if norm == math.inf:
        raise ValueError(_OVERFLOW)
    return norm


def find_symmetry_axes(h: HarmonicCubic, tol: float = TAU_AXIS) -> SymmetryAxes:
    """Locate all axes whose rotational components vanish.

    order-2 condition: c1 = c3 = 0; order-3: c1 = c2 = 0; circle: all of
    c1, c2, c3 = 0.  The candidates are built from the cubic's Maxwell
    directions, which every symmetry permutes, and all three conditions are
    polished in one lockstep refine.  An axis is accepted when its squared
    functional is at most (tol * ||h||)^2, i.e. when the components the
    symmetry forbids have norm at most tol * ||h||, so the census is
    invariant under dilation; axes meeting the circle condition are removed
    from the order-2/order-3 lists.  Only seeds starting within
    100 * tol^(2/3) * ||h||^2 are polished: near Circle the Maxwell roots
    split by about tol^(1/3) rad, so an acceptable axis has a seed within
    about tol^(2/3) (_reach).  A zero or overflowing norm raises ValueError.
    """
    _checked_norm(h)
    return _symmetry_axes(h.coeffs[None], np.array([h.inner(h)]), tol)[0]


# ---------------------------------------------------------------------------
# classification

_FLIP_Z = np.diag([1.0, -1.0, -1.0])  # half-turn about x
# the turn about z through alpha is I + sin(alpha) K + (1 - cos(alpha)) K^2,
# as Rotation3.about_axis builds it
_TURN_K = _cross_matrix([0.0, 0.0, 1.0])
_TURN_K2 = _TURN_K @ _TURN_K

# per type: (axial part r, phase order k (0: none), target phase of c_k,
# |c_k| per unit s)
_FITS = {
    StabilizerType.CIRCLE: (True, 0, 0.0, 1.0),
    StabilizerType.S3: (False, 3, 0.0, 2.0),
    StabilizerType.A4: (False, 2, -math.pi / 2.0, math.sqrt(6.0)),
    StabilizerType.Z2: (True, 2, -math.pi / 2.0, math.sqrt(6.0)),
    StabilizerType.Z3: (True, 3, 0.0, 2.0),
}
# per type with a collapse line s = slope * r: (NormalFormResult field, slope)
_COLLAPSE = {StabilizerType.Z2: ("dist_s_minus_r", 1.0),
             StabilizerType.Z3: ("dist_s_minus_rsqrt2", math.sqrt(2.0))}
# axis census (order-2, order-3) of the types with one distinguished axis
_CENSUS = {(3, 1): StabilizerType.S3, (1, 0): StabilizerType.Z2,
           (0, 1): StabilizerType.Z3}


def _fit(tag, cs, frames):
    """Normal forms of type `tag` of the cubics cs (n, 10) from frames
    (n, 3, 3) whose z-columns are the type's distinguished axes: flip z so
    that r >= 0 (types with an axial part), then turn about z, which
    multiplies c_k by exp(i k alpha), until c_k has its target phase (types
    with one).  The target phase -pi/2 of c2 makes the xyz component
    positive and the (x^2-y^2)z component zero.  The residual is taken on
    raw coefficients, so no absolute trace floor applies to the difference.
    Returns (rotations (n, 3, 3), r, s, residual (n,)), each row with the
    rounding of its cubic alone."""
    axial, k, target, per_s = _FITS[tag]
    r = s = np.zeros(len(cs))
    if axial:
        r = _components(cs, frames)[:, 0] / _NORM_P0
        flip = r < 0
        frames = np.where(flip[:, None, None], np.matmul(frames, _FLIP_Z),
                          frames)
        r = np.where(flip, -r, r)
    if k:
        comps = _components(cs, frames)
        re, im = comps[:, 2 * k - 1], -comps[:, 2 * k]
        alpha = ((target - np.arctan2(im, re)) / k).tolist()
        sin = np.array([math.sin(a) for a in alpha])[:, None, None]
        cos = np.array([math.cos(a) for a in alpha])[:, None, None]
        frames = np.matmul(frames, np.eye(3) + sin * _TURN_K
                           + (1.0 - cos) * _TURN_K2)
        s = np.hypot(re, im) / per_s
    d = _pullback(cs, frames) - _normal_coeffs(tag, r, s)
    return frames, r, s, np.sqrt(_rowdot(MULTIPLICITY * d, d))


def _a4_frames(w1, w2):
    """Frames (n, 3, 3) of two order-2 axes (n, 3) each, the second
    orthogonalized, and their cross product."""
    w2 = w2 - _rowdot(w1, w2)[:, None] * w1
    w2 = w2 / np.sqrt(_rowdot(w2, w2))[:, None]
    return np.stack([w1, w2, np.cross(w1, w2)], axis=2)


def _classify_axes(cs, found):
    """NormalFormResult of each nonzero cubic, with coefficient rows cs
    (n, 10), from its axis census found[i], or in its place the ValueError
    of its fit (a CensusError when the census matches no stabilizer
    pattern).  The cubics of one type are fitted together, and their
    rotations are checked in one pass."""
    out = [None] * len(found)
    plans = {}  # type -> (cubic indices, distinguished axis or A4 axis pair)
    for i, axes in enumerate(found):
        n2, n3 = len(axes.order2), len(axes.order3)
        if axes.circle:
            tag, axis = StabilizerType.CIRCLE, axes.circle[0][0]
        elif (n2, n3) == (0, 0):
            tag, axis = StabilizerType.TRIVIAL, None
        elif (n2, n3) == (3, 4):
            tag, axis = StabilizerType.A4, (axes.order2[0][0],
                                            axes.order2[1][0])
        elif (n2, n3) in _CENSUS:
            # the distinguished axis is the order-3 one where there is one
            tag, axis = _CENSUS[n2, n3], (axes.order3 or axes.order2)[0][0]
        else:
            out[i] = CensusError(
                f"axis census ({n2} order-2, {n3} order-3) matches no "
                f"stabilizer pattern",
                census={"order2": axes.order2, "order3": axes.order3,
                        "circle": axes.circle})
            continue
        plans.setdefault(tag, []).append((i, axis))
    for tag, plan in plans.items():
        idx, axis = (list(x) for x in zip(*plan))
        if tag is StabilizerType.TRIVIAL:
            zero = np.zeros(len(idx))
            fit = np.tile(np.eye(3), (len(idx), 1, 1)), zero, zero, zero
        else:
            frames = (_a4_frames(np.array([w for w, _ in axis]),
                                 np.array([w for _, w in axis]))
                      if tag is StabilizerType.A4
                      else _transport_matrices(axis))
            fit = _fit(tag, cs[idx], frames)
        collapse = _COLLAPSE.get(tag)
        for i, m, fail, r, s, res in zip(idx, fit[0], _rotation_errors(fit[0]),
                                         *(a.tolist() for a in fit[1:])):
            if fail is not None:
                out[i] = fail
                continue
            rot = object.__new__(Rotation3)  # checked above: no __post_init__
            object.__setattr__(rot, "entries", m)
            dist = {} if collapse is None else {
                collapse[0]: abs(s - r * collapse[1])}
            out[i] = NormalFormResult(tag, rot, r, s, res, **dist)
    return out


def classify(h, tol: float = TAU_AXIS):
    """Stabilizer type and normal form of a cubic under rotations.

    Decision tree: zero norm -> Full; a circle axis -> Circle; otherwise the
    census of order-2/order-3 axes selects the type (3+4 -> A4, 3+1 -> S3,
    0+1 -> Z3, 1+0 -> Z2, none -> Trivial).  `tol` is the one symmetry
    tolerance: an axis counts when its components that the symmetry forbids
    have norm at most tol * ||h||, so a cubic within that distance of a
    collapse line (Z2 with s = r, Z3 with s = r*sqrt(2)) has the larger
    census of S3 / A4 and is classified so.  Z2 and Z3 fits report their
    distance to the collapse line.

    `h` is one HarmonicCubic or a sequence of them.  A sequence gives a
    list, one entry per cubic, equal to classify on that cubic alone: its
    NormalFormResult, or the ValueError it raises alone (a CensusError when
    the census matches no stabilizer pattern), returned in its place so that
    one failed census leaves the other cubics classified; a cubic whose
    squared norm overflows gets a ValueError.  Every step runs on arrays:
    the axis search in chunks of up to _AXIS_CHUNK cubics (see
    _symmetry_axes), then the normal-form fit once per stabilizer type over
    all cubics of that type, with one check of their rotations.  A single
    cubic is a chunk of one.
    """
    hs = [h] if isinstance(h, HarmonicCubic) else list(h)
    cs = np.array([g.coeffs for g in hs]).reshape(-1, 10)
    with np.errstate(over="ignore"):  # an overflowing cubic is reported
        sq = _rowdot(MULTIPLICITY * cs, cs)  # each as HarmonicCubic.inner
    norms = np.sqrt(sq)
    live = np.flatnonzero((norms > TAU_ZERO) & (sq < math.inf))
    out = [ValueError(_OVERFLOW) if norm == math.inf
           else None if norm > TAU_ZERO else NormalFormResult(
               StabilizerType.FULL, Rotation3.identity(), 0.0, 0.0, norm)
           for norm in norms.tolist()]
    cs = cs[live]
    t0 = time.perf_counter()
    found = _symmetry_axes(cs, sq[live], tol)
    t1 = time.perf_counter()
    for i, fit in zip(live, _classify_axes(cs, found)):
        out[i] = fit
    _SECONDS["axis_search"] += t1 - t0
    _SECONDS["fit"] += time.perf_counter() - t1
    if isinstance(h, HarmonicCubic):
        if isinstance(out[0], ValueError):
            raise out[0]
        return out[0]
    return out


def singular_directions(h: HarmonicCubic):
    """Projective directions in which the cubic's gradient vanishes.

    Returns at most three unit vectors w (first nonzero coordinate positive)
    with ||grad h(w)|| <= 1e-6 * ||h||.  The seeds are algebraic (see
    _singular_seeds): the members with a repeated eigenvalue of the pencil
    orthogonal to the cubic's traceless slices, at the roots of a binary
    sextic, plus the kernel direction of a cone.  The gradient vanishes at
    w exactly when the components c0 and c1 about w do, and the lockstep
    axis refiner polishes those zeros from the seeds within _reach(1e-6)
    = 1e-2.  The pencil seeds are nearly exact (every direction of 3455
    cubics had one starting at most 2.3e-13), so this retires only seeds far
    from any zero.  A zero or overflowing norm raises ValueError.
    """
    norm = _checked_norm(h)
    t = h.tensor
    seeds = _singular_seeds(t)
    n = len(seeds)
    axes, _ = _refine_axes(np.broadcast_to(h.coeffs, (n, 10)), seeds,
                           np.broadcast_to(_GRADIENT, (n, 7)),
                           _reach(_TAU_GRAD))
    grads = 3.0 * np.einsum("pjk,nj,nk->np", t, axes, axes)
    res = np.linalg.norm(grads, axis=1)
    hit = res <= _TAU_GRAD * norm
    kept, ws = _dedupe(axes[hit], res[hit])
    return list(ws[kept[:3]])
