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
* ``classify`` decides a cubic in closed form where it can (``_certify``):
  every symmetry axis is an eigenvector of M_pq = h_ijp h_ijq, and Circle,
  S3, Z3, Z2 and Trivial are read off the components about M's
  well-separated eigenvectors.  A4 has M = I / 3, so its axes are read off
  the fourth-order operator X -> sum_m H_m X H_m, H_m = h(., ., e_m),
  instead.  Only the cubics it declines reach the axis search: a cubic
  whose M has eigenvalues too close to read the axes the decision needs,
  and one whose forbidden components lie in the band around tol.
  ``find_symmetry_axes`` always searches.
* The axis search normalizes each cubic once and runs on its unit-norm
  rows, so its arithmetic does not depend on the cubic's scale; the
  residuals it reports in ``SymmetryAxes`` are scaled back, in the units of
  (tol * ||h||)^2.  Each seed's starting functional is screened in closed
  form (``_screen``), and only the seeds within reach of an acceptable
  axis, a starting functional of at most 100 * tol^(2/3) on the unit-norm
  rows (``_reach``), go to the refiner and are polished.  The refiner
  serves the axis search alone: ``singular_directions`` takes its
  directions in closed form, from the simple roots of the derivative of a
  discriminant sextic (``_singular_seeds``), and searches nothing.
* Every pullback of a cubic by a rotation goes through ``_pullback``.
* Every index table derives from ``_slot_permutations``: the orbits of its
  degree-3 table ``_SYM3`` give ``LEX_TRIPLES``, ``MULTIPLICITY`` and the
  gather/scatter maps between the 10 entries and the 27 flat positions.
"""

from __future__ import annotations

import itertools
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
_NON_FINITE = "non-finite cubic coefficients"
_TRACEFUL = ("coefficients violate the trace condition; route raw tensors "
             "through project_traceless")

# cumulative wall seconds of classify's two stages and counts of the cubics
# its certificate decided and searched, read by geometry.sweep
_STATS = {"axis_search_s": 0.0, "fit_s": 0.0, "certified": 0, "searched": 0}


def _slot_permutations(k):
    """(k!, 3^k) table: row p lists the flat source entry of each entry of
    a (3,)*k tensor's transpose by the p-th slot permutation, in the order
    of itertools.permutations."""
    flat = np.arange(3 ** k).reshape((3,) * k)
    return np.array([flat.transpose(p).ravel()
                     for p in itertools.permutations(range(k))])


_SYM3 = _slot_permutations(3)  # (6, 27)
# the least flat position of each orbit of _SYM3 is its sorted index triple:
# _IDX10 recovers the independent entries, _IDX27 is the entry that each
# flat position repeats, and MULTIPLICITY counts the orbit
_IDX10, _IDX27 = np.unique(_SYM3.min(0), return_inverse=True)
MULTIPLICITY = np.bincount(_IDX27).astype(float)
LEX_TRIPLES = tuple(map(tuple, (np.column_stack(
    np.unravel_index(_IDX10, (3, 3, 3))) + 1).tolist()))


# _IDX27 with each flat position (i, j, k) read as (j, k, i): the entries of
# a full tensor's (9, 3) matrix that contracts its first leg
_JKI = _IDX27.reshape(3, 9).T.ravel()


def _full(c):
    """Full symmetric (..., 3, 3, 3) arrays from the 10 independent entries
    (..., 10); -0 entries are stored as +0."""
    return (c[..., _IDX27] + 0.0).reshape(c.shape[:-1] + (3, 3, 3))


def _gather(t):
    """The 10 independent entries (..., 10) of full tensors (..., 3, 3, 3)."""
    return t.reshape(t.shape[:-3] + (27,))[..., _IDX10]


# v_k = sum_i h_iik as a (3, 10) map of the coefficients, and the (10, 3)
# map from v to the trace part (d_ij v_k + d_jk v_i + d_ki v_j) / 5: 3/5 of
# the trace map's adjoint under the cubic inner product
_TRACE = np.einsum("niik->kn", _full(np.eye(10)))
_TRACE_PART = 3 * _TRACE.T / MULTIPLICITY[:, None] / 5


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
    row's result does not depend on the others.  The first operand is
    gathered from cs in its (j, k, i) order (_JKI).
    """
    t = (cs[..., _JKI] + 0.0).reshape(-1, 9, 3)  # -0 entries as +0
    # legs (i, j, k) -> (j, k, i') -> (k, i', j') -> (i', j', k')
    for _ in range(2):
        t = np.ascontiguousarray(
            np.matmul(t, ms).reshape(-1, 3, 9).transpose(0, 2, 1))
    return np.matmul(t, ms).reshape(-1, 27)[:, _IDX10]


def _rowdot(a, b):
    """Dot products of matching rows of a and b (..., n), each with np.dot's
    rounding: numpy runs a (1, n) @ (n, 1) product through the same BLAS
    dot, while a sum of products rounds differently.  A stack of one row
    (1, n) takes np.dot(a, b[0]), the same BLAS dot without matmul's
    stacking."""
    if a.shape[:-1] == (1,):
        return np.dot(a, b[0])
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _cubic_errors(cs):
    """Per row of the stack cs (n, ...): None for an admissible cubic (10
    finite coefficients whose trace vector is within _TAU_TRACE of its
    norm), else the ValueError that HarmonicCubic raises for it.

    A stack of one row, the constructor's, takes the same two products and
    compares their Python floats: a finite squared norm needs no finiteness
    check, since a NaN or infinite coefficient makes it NaN or inf."""
    if cs.shape[1:] != (10,):
        return [ValueError("expected 10 independent coefficients")
                for _ in range(len(cs))]
    if len(cs) == 1:
        with np.errstate(over="ignore"):  # inf, which classify rejects
            sq = float(_rowdot(MULTIPLICITY * cs, cs)[0])
        if not (sq < math.inf or np.isfinite(cs).all()):
            return [ValueError(_NON_FINITE)]
        trace = max(map(abs, _trace_vectors(cs)[0].tolist()))
        return [ValueError(_TRACEFUL)
                if trace > _TAU_TRACE * math.sqrt(sq) + 1e-13 else None]
    finite = np.isfinite(cs).all(axis=1)
    if not finite.all():
        cs = np.where(finite[:, None], cs, 0.0)
    with np.errstate(over="ignore"):  # inf, which classify rejects
        sq = _rowdot(MULTIPLICITY * cs, cs)
    # relative bound with an absolute roundoff floor, so differences of
    # nearly equal admissible cubics stay admissible
    traceful = (np.abs(_trace_vectors(cs)).max(axis=1)
                > _TAU_TRACE * np.sqrt(sq) + 1e-13)
    return [ValueError(_NON_FINITE) if not ok
            else ValueError(_TRACEFUL) if bad else None
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
        _, a = _checked_axis(axis)
        k = _cross_matrix(a / np.linalg.norm(a))
        m = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
        return cls(m)

    def compose(self, other: "Rotation3") -> "Rotation3":
        return Rotation3(self.entries @ other.entries)

    def transpose(self) -> "Rotation3":
        return Rotation3(self.entries.T)


def _checked_axis(w, unit=False):
    """(w as a float array, w scaled by the power of two that brings its
    largest entry into [0.5, 1)) for an axis argument w.  The scaling is
    exact, so the scaled row points along w bit for bit and squares without
    overflow at any finite size.  ValueError: "axis must be a 3-vector" for
    another shape, "zero-length axis" for a norm below 1e-12; then, with
    `unit`, "axis must be a unit vector" for a norm off 1 by more than
    1e-9, and else "axis must be finite" for a non-finite entry (NaN fails
    both)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    n = math.hypot(*w)  # inf past the float range, and no warning
    if n < 1e-12:
        raise ValueError("zero-length axis")
    if unit and not abs(n - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError("axis must be a unit vector")
    if not np.isfinite(w).all():
        raise ValueError("axis must be finite")
    return w, np.ldexp(w, -np.frexp(np.abs(w).max())[1])


_EYE3 = np.eye(3)


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
    gram = (np.matmul(ms.transpose(0, 2, 1), ms) - _EYE3).reshape(-1, 9)
    ortho = np.sqrt(_rowdot(gram, gram))
    det = np.linalg.det(ms)
    return [ValueError("rotation must be a finite 3x3 matrix") if not ok
            else ValueError(f"matrix is not a proper rotation (orthogonality "
                            f"residual {o:.3e})")
            if o > 1e-9 or abs(d - 1.0) > 1e-9 else None
            for ok, o, d in zip(finite.tolist(), ortho.tolist(),
                                det.tolist())]


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
    Full and Trivial have no normal form and map to the zero cubic.  A4 is
    Z2 at r = 0, and is fitted as Z2 is, about one of its order-2 axes.
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
    ws = ws / np.sqrt((ws * ws).sum(1, keepdims=True))  # as np.linalg.norm
    x, y, z = ws.T
    # rows near the antipode are flipped; composing their transport with the
    # half-turn about x negates its columns y, z, so the z-column is ws
    sign = np.where(z < -0.5, -1.0, 1.0)
    w0, w1, w2 = ws.T * sign
    d = 1.0 + w2
    m01 = -w0 * w1 / d
    return np.array([1.0 - w0 * w0 / d, m01 * sign, x,
                     m01, (1.0 - w1 * w1 / d) * sign, y,
                     -w0, -y, z]).T.reshape(-1, 3, 3)


def transport_rotation(w) -> Rotation3:
    """Minimal geodesic rotation carrying the z-axis to the unit vector w.

    Near the antipode the geodesic degenerates; there the transport is the
    fixed half-turn about x composed with the stable geodesic to -w.
    """
    _, w = _checked_axis(w)
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
    w, _ = _checked_axis(w, unit=True)
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


# the 15 pairs (_PAIR_I, _PAIR_J), i < j, of six points in the order of
# their flat index 6 i + j; _ON[p] (6,) flags the two points of pair p and
# _CLASH[p] (15,) the pairs sharing a point with p.  _THIRD[p, q] is the
# pair of the two points that the disjoint pairs p and q leave (0 where
# they share one), and _ENDS[p, q] (2, 3) the points i and j of the pairs
# p, q and _THIRD[p, q]
_PAIR_I, _PAIR_J = np.triu_indices(6, 1)
_ON = np.eye(6, dtype=bool)[np.c_[_PAIR_I, _PAIR_J]].any(axis=1)
_CLASH = (_ON[:, None] & _ON[None]).any(axis=2)
_THIRD = (_ON == ~(_ON[:, None, None] | _ON[None, :, None])
          ).all(axis=3).argmax(axis=2)
_ENDS = np.stack([*np.indices((15, 15)), _THIRD], axis=-1)  # pair indices
_ENDS = np.stack([_PAIR_I[_ENDS], _PAIR_J[_ENDS]], axis=2)  # their points
# the shift part (1, k - 1, k - 1) of a companion matrix of a polynomial of
# trimmed length k (2..7): ones on the subdiagonal
_SHIFTS = {k: np.eye(k - 1, k=-1, dtype=complex)[None] for k in range(2, 8)}
_SIX = np.arange(6)  # root slots; a sextic of degree 6 - l has l poles last
_POLE = np.array([0.0, 0.0, -1.0])  # the root at infinity, the point -z
_END_ROUNDING = 8.0 * np.finfo(float).eps  # see _sextic_roots


def _sextic_roots(poly):
    """Roots (n, 6) of the sextics with descending coefficient rows poly
    (n, 7), and the number (n,) of each row's roots at infinity.  A
    quintic passes padded with a leading zero, which counts as one root at
    infinity.

    A leading or trailing coefficient of modulus at most _END_ROUNDING
    = 8 eps times the row's largest counts as zero, and the rule is applied
    from each end inwards: l leading zeros are l roots at infinity, which
    fill the last l slots with 0, and trailing zeros are roots at 0, placed
    after the finite roots.  The finite roots are the eigenvalues of the
    companion matrix of the trimmed row, as np.roots forms it, and the rows
    trimmed to the same slice share one eigvals call on their stacked
    companion matrices.  Where the rule trims exact zeros only, the first
    6 - l roots of a row are np.roots' of it, bit for bit.

    8 eps is a rounding level, six times the largest measured: over 2000
    Haar round trips R, R^T each of z^3 - 3zy^2, xyz and the Circle and Z2
    normal forms, whose Maxwell points lie on +-z, the end coefficients of
    the Maxwell sextic stayed within 1.3 eps of the largest (0.47 eps for
    z^3 - 3zy^2), and within 0.19 eps at the adapted frames of the
    product_square and product_hyperbolic sweeps.  Left in, such
    coefficients put the Maxwell directions of z^3 - 3zy^2 up to 1.4e-6 off
    (median 7.5e-8 over 20 round trips).  A root trimmed by the rule lies
    within about 16 eps * max|p| / |p_1| rad of its pole, p_1 being the
    coefficient next to the end.
    """
    mag = np.abs(poly)
    live = mag > _END_ROUNDING * mag.max(1, keepdims=True)
    lead = live.argmax(1)
    span = 8 * lead + 7 - live[:, ::-1].argmax(1)  # 8 a + b: slice a:b
    roots = np.zeros((len(poly), 6), dtype=complex)
    for key in set(span.tolist()):
        a, b = divmod(key, 8)
        if b - a > 1:
            rows = (span == key).nonzero()[0]
            p = poly[rows, a:b]
            comp = _SHIFTS[b - a].repeat(len(rows), 0)
            np.divide(p[:, 1:], -p[:, :1], out=comp[:, 0])
            roots[rows, :b - a - 1] = np.linalg.eigvals(comp)
    return roots, lead


def _maxwell_directions(cs):
    """Unit Maxwell directions v1, v2, v3 (n, 3, 3) of the coefficient rows
    cs (n, 10).

    By Sylvester's theorem the six roots of the sextic, as points of
    S^2 = CP^1, are three antipodal pairs +-v_i, and every rotation fixing
    the cubic permutes them.  The root zeta is the point
    (-2 Re zeta, -2 Im zeta, 1 - |zeta|^2) / (1 + |zeta|^2), read through
    1/zeta when |zeta| > 1; a root at infinity is the pole -z.

    The roots are _sextic_roots': an end coefficient at rounding level is
    a root exactly at 0 or infinity, so a Maxwell point on +-z, which the
    sweep's adapted frames produce, comes out exact.  The points p_i are
    paired closest first: each of two rounds takes the free pair (i, j),
    i < j, of least gap |p_i + p_j|, ties to the lowest flat index
    6 i + j, and the third pair is the two points left (_ENDS); the pair's
    vector is p_i - p_j.  Directions of one cubic within _MERGE_ANGLE of
    each other (_near) are one multiple root that eigvals split, by about
    eps^(1/3) for a triple one.  So where two are, each direction of the
    cubic is replaced by the normalized sum of those within _MERGE_ANGLE
    of it, every term signed to agree with it, which is exact to rounding.
    """
    n = len(cs)
    # descending powers; a (7, 10) @ (10, 1) product per cubic, as
    # (n, 10) @ (10, 7) rounds differently
    roots, lead = _sextic_roots(
        np.matmul(_SEXTIC, cs[:, :, None])[:, ::-1, 0])
    far = np.abs(roots) > 1.0
    z = roots.copy()
    np.divide(1.0, roots, out=z, where=far)
    sign = np.where(far, -1.0, 1.0)
    d = 1.0 + np.abs(z) ** 2
    pts = np.empty((n, 6, 3))
    pts[..., 0] = -2.0 * z.real / d
    pts[..., 1] = -2.0 * sign * z.imag / d
    pts[..., 2] = sign * (2.0 / d - 1.0)
    pts[_SIX + lead[:, None] >= 6] = _POLE
    gap = pts[:, _PAIR_I] + pts[:, _PAIR_J]
    gap = np.sqrt((gap * gap).sum(2))  # as np.linalg.norm
    first = gap.argmin(1)
    gap[_CLASH[first]] = np.inf
    ends = pts[np.arange(n)[:, None, None], _ENDS[first, gap.argmin(1)]]
    out = ends[:, 0] - ends[:, 1]
    v = out / np.sqrt((out * out).sum(2, keepdims=True))
    close = _near(v)
    split = (close.sum((1, 2)) > 3).nonzero()[0]  # a pair off the diagonal
    if len(split):
        vs = v[split]
        sign = np.where(np.matmul(vs, vs.transpose(0, 2, 1)) < 0, -1.0, 1.0)
        out = ((sign * close[split])[..., None] * vs[:, None]).sum(2)
        v[split] = out / np.sqrt((out * out).sum(2, keepdims=True))
    return v


# 0/1 masks over the rows of _BASIS7 (c0, Re/Im c1, Re/Im c2, Re/Im c3)
# selecting the components whose joint zeros the axis search looks for:
# (rows of _CONDITION_MASKS) the circle, order-2 and order-3 conditions
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
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a, b):
    """Cross products of the last axes of a and b (..., 3), computed as
    np.cross does, without its per-call set-up."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


# the squared components |c0|^2, |c1|^2, |c2|^2, |c3|^2 of a unit cubic about
# a unit axis w as rows of weights of (1, A^2, |g|^2, ||M||^2), where
# M = h(w, ., .), g = M w and A = g.w; |c3|^2 is the rest of the unit norm
_SCREEN_PARTS = np.array([[0, 2.5, 0, 0], [0, -3.75, 3.75, 0],
                          [0, 1.5, -6, 3], [1, -0.25, 2.25, -3.0]])
# the weights of the functional of each seed row: its condition's masked sum
_SCREEN_COEF = (_CONDITION_MASKS[:, [0, 1, 3, 5]] @ _SCREEN_PARTS)[_SEED_KIND]
_SCREEN_SLACK = 1e-6  # relative and absolute slack of the screen's cut
# the column of a weight row (1, A^2, |g|^2, ||M||^2) that weighs each of
# the nine entries of M and the three of g
_QUAD_COLS = np.repeat([3, 2], (9, 3))


def _screen(units, axes, coef):
    """Functionals (n, m) sum_j coef[:, j] * (1, A^2, |g|^2, ||M||^2)_j about
    the unit axes (n, m, 3) of the cubics with unit-norm coefficient rows
    units (n, 10): with coef = mask @ _SCREEN_PARTS, the masked sum of the
    squared components about each axis, in closed form.

    The closed form assumes tr M = 0: on unit rows it matches _components
    to about 1e-15 when traceless and 2.5e-8 at the trace residual the
    constructor admits, well inside the screen's slack _SCREEN_SLACK.  Few
    array calls, since a single cubic's search pays for each: M is one
    matmul over each cubic's stack of axes, and ||M||^2 and |g|^2 come
    from one weighted einsum."""
    n, m = axes.shape[:2]
    mw = np.matmul(axes, _full(units).reshape(n, 3, 9))
    g = np.einsum("nmjk,nmj->nmk", mw.reshape(n, m, 3, 3), axes)
    a = np.einsum("nmi,nmi->nm", g, axes)
    z = np.concatenate([mw, g], axis=-1)
    quad = np.einsum("nmi,nmi,mi->nm", z, z, coef[:, _QUAD_COLS])
    return coef[:, 0] + coef[:, 1] * (a * a) + quad


def _axis_seeds(v, units):
    """(unit seed axes (k, 3), condition index (k,), owning cubic (k,),
    starting functional (k,) by the closed-form screen) for all three
    symmetry conditions from the Maxwell directions v (n, 3, 3) of the
    cubics with unit-norm coefficient rows units (n, 10), cubic by
    cubic."""
    cands = np.concatenate([np.matmul(_SEED_SUMS, v),
                            _cross(v, v[:, _NEXT])], axis=1)  # v_i x v_(i+1)
    seeds = np.ascontiguousarray(cands[:, _SEED_ROWS])
    n = np.sqrt((seeds * seeds).sum(2))  # as np.linalg.norm
    keep = n > 1e-12
    owner, row = keep.nonzero()
    seeds = seeds / np.where(keep, n, 1.0)[..., None]
    screened = _screen(units, seeds, _SCREEN_COEF)
    return seeds[keep], _SEED_KIND[row], owner, screened[keep]


def _generator(a):
    """Coefficient map (10, 10) of d/d eps at 0 of the pullback by I + eps a:
    the contraction h(a ., ., .) summed over the three slots."""
    leg = np.einsum("nljk,li->nijk", _full(np.eye(10)), a)
    return _gather(leg + leg.transpose(0, 2, 1, 3)
                   + leg.transpose(0, 2, 3, 1)).T


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
# the slices of _REFINE_OP's (f, j1, j2) whose products give the normal
# equations' entries j1.j1, j1.j2, j2.j2, j1.f, j2.f
_GN_LEFT, _GN_RIGHT = np.array([1, 1, 2, 1, 2]), np.array([1, 2, 2, 0, 0])
# a seed retires at this functional of a unit cubic: the rounding level
# _functional reaches there, at most 1.7e-30 at the exact axes of
# Haar-rotated normal forms of every type (2000 rotations each, scales
# 10^[-3, 3]), and 16 decades below the acceptance level
# (TAU_AXIS * ||h||)^2.  At 1e-30 some 7000 seeds of the seed-1 classify and
# sweep pools started above it and took a Gauss-Newton iteration to retire,
# none of them moving; at 1e-27 three seed-2 Z2 fits changed
_REFINE_FLOOR = 1e-28


def _reach(tol):
    """Largest starting functional (unit-norm rows) of a seed that can reach
    an axis accepted at `tol`: 100 * tol^(2/3), 1 (no pruning) at 1e-3.
    The axis search's cut, its only use: singular directions come in closed
    form and are not refined.

    Within tol * ||h|| of Circle the triple Maxwell root splits by about
    tol^(1/3) rad, so the best seed of the axis starts at a functional near
    tol^(2/3).  On an exact Circle the split is eigvals' rounding, about
    eps^(1/3) ~ 1e-5 rad, below _MERGE_ANGLE, and _maxwell_directions
    merges it away: those seeds start at the axis to rounding.  Only a
    cubic within about 1e-13 * ||h|| of Circle splits by less than the
    merge angle (measured: at most 8.2e-5 rad at 1e-13, 1.5e-4 at 1e-12).
    The best seed of every accepted axis started at most
    7 * tol^(2/3) (tol = 1e-6, 1e-4, 1e-2; near-Circle, near-collapse, exact
    and Gaussian cubics, the worst Circle plus a c3 term)."""
    return 100.0 * (tol * tol) ** (1.0 / 3.0)


def _functional(c, mask):
    """Squared components of the coefficient rows c (..., 10) summed under
    the 0/1 masks (..., 7), each row projected onto all of _BASIS7 as its
    own (7, 10) @ (10, 1) product, as in _components."""
    comps = np.matmul(_BASIS7, c[..., :, None])[..., 0]
    return ((comps * mask) ** 2).sum(-1)


def _refine_axes(units, seeds, mask, reach):
    """Gauss-Newton zero search, run from all seeds in lockstep on the
    sphere, of the components each seed's row of mask (n, 7) selects.

    Seed i searches the cubic with unit-norm coefficient rows units[i]
    (n, 10) and retires once its functional is at most _REFINE_FLOOR
    (rounding on unit rows), so the search is scale-free and the seeds of
    many cubics march together, each with the arithmetic it has alone; a
    seed starting at or below the floor comes back bit for bit.  Its one
    caller is the axis search (_symmetry_axes), which passes only the seeds
    its closed-form screen (_screen) puts in reach.  A seed starting
    above `reach` (_reach: an acceptable axis has a seed within about
    tol^(2/3)) retires before the first step with its starting functional,
    which the census rejects.  Each seed carries its own chart, recentred
    after every accepted step so the transport underlying the component
    phases stays smooth, and the Gauss-Newton jacobian is exact: the
    chart's generator maps of _REFINE_OP.  Every iteration takes the full
    step, clipped to the chart's unit square; a seed keeps it when it
    lowers the functional and retires otherwise.  A seed with a singular
    normal matrix or a step under 1e-14 retires before its trial step is
    evaluated.  Basins that stop descending are retired early.  Every
    functional the search compares or returns is _functional's, so a seed
    returns at most its starting functional, exactly.
    Every seed projects onto all seven rows of _BASIS7 (and of each slice
    of _REFINE_OP), whatever its mask; a masked-out row adds exact zeros,
    so every seed's sums are those of its own components.
    Returns (axes (n, 3), functional (n,) of the unit-norm rows).
    """
    base = _transport_matrices(seeds)
    cloc = _pullback(units, base)
    fval = _functional(cloc, mask)
    f0 = fval.copy()
    active = (fval <= reach).nonzero()[0]
    for it in range(_REFINE_ITERS):
        fa = fval[active]
        keep = fa > _REFINE_FLOOR
        if it >= 2:
            keep &= fa <= 0.5 ** it * f0[active]
        active = active[keep]
        if not len(active):
            break
        comps = (np.einsum("smi,ni->nsm", _REFINE_OP, cloc[active])
                 * mask[active, None])
        # slices (f, j1, j2): j1.j1, j1.j2, j2.j2, j1.f, j2.f, each summed
        # over its own row of seven
        a11, a12, a22, b1, b2 = (comps[:, _GN_LEFT]
                                 * comps[:, _GN_RIGHT]).sum(2).T
        det = a11 * a22 - a12 * a12
        good = np.isfinite(det) & (det > 1e-200 * np.maximum(a11 * a22,
                                                             1e-300))
        inv = 1.0 / np.where(good, det, 1.0)
        delta = np.array([-(a22 * b1 - a12 * b2) * inv,
                          -(a11 * b2 - a12 * b1) * inv]).T
        # keep the step inside the chart
        delta = np.minimum(np.maximum(delta, -1.0), 1.0)
        stepn = np.sqrt((delta * delta).sum(1))  # as np.linalg.norm
        # a seed without a usable step retires before its trial
        live = good & (stepn > 1e-14)
        active, delta = active[live], delta[live]
        if not len(active):
            break
        pts = np.ones((len(active), 3))  # chart point (xi0, xi1) at z = 1
        pts[:, :2] = delta
        rmat = _transport_matrices(pts)
        trial = _pullback(cloc[active], rmat)
        tval = _functional(trial, mask[active])
        sel = (tval < fval[active]).nonzero()[0]
        if len(sel):
            ai = active[sel]
            base[ai] = base[ai] @ rmat[sel]
            cloc[ai] = trial[sel]
            fval[ai] = tval[sel]
        active = active[sel]
    return base[:, :, 2], fval


_LEAD_WEIGHTS = np.array([4.0, 2.0, 1.0])


def _signed(axes):
    """The axes (n, 3), each signed so that its first coordinate above 1e-8
    in modulus is positive."""
    # the sign of the first coordinate above 1e-8 outweighs the other two
    lead = (np.sign(axes) * (np.abs(axes) > 1e-8)) @ _LEAD_WEIGHTS
    return np.where(lead[:, None] < 0, -axes, axes)


def _near(a, pick=slice(None)):
    """Whether the lines spanned by the axes a (..., m, 3) and by the axes
    b = a[..., pick, :] (..., p, 3) are within _MERGE_ANGLE, (..., m, p),
    from one Gram product: the distance min(|a - b|, |a + b|) squared is
    |a|^2 + |b|^2 - 2 |a.b|."""
    b = a[..., pick, :]
    gram = np.matmul(a, np.swapaxes(b, -1, -2))
    sa = (a * a).sum(-1)
    return (sa[..., :, None] + sa[..., None, pick] - 2.0 * np.abs(gram)
            < _MERGE_ANGLE * _MERGE_ANGLE)


def _dedupe(axes, res, groups=None):
    """Antipodal canonicalization and angular merge of candidate axes
    (n, 3) with residuals (n,) within each group (n,) (default: one).

    Each axis is signed so that its first coordinate above 1e-8 in modulus
    is positive.  Taken by increasing residual (ties in input order), an
    axis is dropped when its distance to a kept axis of its group, the
    smaller over +-, is below _MERGE_ANGLE.  The distances come from one
    Gram product per group (_near), and the greedy pass is solved on them,
    repeated on the last kept set until it is stable (the greedy result is
    its only fixed point).  Returns (indices of the kept axes, by group,
    each group's in the order of the coordinates rounded to 9 digits, ties
    by residual; canonical axes (n, 3)).
    """
    axes = np.asarray(axes, dtype=float).reshape(-1, 3)
    n = len(axes)
    if not n:
        return np.zeros(0, dtype=int), axes
    axes = _signed(axes)
    if groups is None:  # one group: its axes by residual fill every slot
        order = res.argsort(kind="stable")
        held, valid, place = axes[order][None], True, 0
    else:
        order = np.lexsort((res, groups))
        g = groups[order]
        pos = np.arange(n) - g.searchsorted(g)  # place within the group
        held = np.zeros((g[-1] + 1, pos.max() + 1, 3))
        held[g, pos] = axes[order]
        valid = np.zeros(held.shape[:2], dtype=bool)
        valid[g, pos] = True
        place = g, pos
    # an earlier slot j < i of the group within _MERGE_ANGLE; an empty slot
    # is never kept, so it needs no mask
    slot = np.arange(held.shape[1])
    close = _near(held) & (slot[:, None] > slot)
    # the first pass from keep = valid; an axis without a close earlier one
    # stays in every pass
    keep = valid & ~close.any(2)
    while True:
        nxt = valid & ~(close & keep[:, None]).any(2)
        if (nxt == keep).all():
            break
        keep = nxt
    kept = order[keep[place]]
    return kept[_listing(axes[kept], None if groups is None
                         else groups[kept])], axes


def _listing(axes, groups=None):
    """The order (n,) in which the census lists the signed axes (n, 3): by
    group (n,) when given, then by the coordinates rounded to 9 digits, x
    first; a stable sort, so ties keep their input order."""
    x, y, z = axes.round(9).T
    return np.lexsort((z, y, x) if groups is None else (z, y, x, groups))


# orthonormal basis (5, 9) of the traceless symmetric 3x3 matrices
_TRACELESS = np.array([
    [1, 0, 0, 0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0, -2],
    [0, 1, 0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 0.0]]) / np.sqrt([[2], [6], [2], [2], [2]])
# the pencil's seven samples theta = j pi / 7, as (7, 1, 1) factors, and the
# slots of np.fft.fft's output holding the harmonics exp(2ik theta) of the
# sampled sextic, k = 3 .. -3: its coefficients in descending powers
_PENCIL_COS = np.cos(np.arange(7) * math.pi / 7.0)[:, None, None]
_PENCIL_SIN = np.sin(np.arange(7) * math.pi / 7.0)[:, None, None]
_HARMONICS = np.array([3, 2, 1, 0, 6, 5, 4])
_DERIVATIVE = np.arange(6.0, 0.0, -1.0)  # d/dzeta of descending powers 6..1


def _singular_seeds(t):
    """At most six seed directions (n, 3) for the gradient zeros of the
    cubic with full tensor t.

    The slices A_p = t[p] are traceless, so grad h(w)_p = 3 tr(A_p w w^T)
    vanishes exactly when w w^T - I/3 is orthogonal to all three.  Unless h
    is a cone, that orthogonal complement among the traceless symmetric
    matrices is a pencil Y(theta), and its members of the form
    a (w w^T - I/3) are those with a repeated eigenvalue: the zeros of the
    binary sextic p = tr(Y^2)^3 - 54 det(Y)^2 in (cos theta, sin theta).
    Seven samples give p's harmonics exp(2ik theta), |k| <= 3, exactly, and
    read in zeta = exp(2i theta) they are the descending coefficients
    c_0 .. c_6 of a polynomial in zeta.  p is twice the discriminant of Y's
    characteristic cubic, so p >= 0 for every real theta, and each gradient
    zero is a double root of p: a companion matrix splits it by about
    sqrt(eps), while it is a simple root of p', which gives it to rounding.
    So the seeds are at the roots of p', the row
    (0, 6 c_0, 5 c_1, .., c_5), taken by _sextic_roots, those at infinity
    dropped; each yields the eigenvector of the simple (largest in modulus)
    eigenvalue of Y.  A root of p' that is no root of p yields a seed whose
    gradient does not vanish, which singular_directions drops.  A cone
    cubic adds the kernel of c -> t(c, ., .).  An exact cone
    (sigma_3 <= _CONE_SIGMA * sigma_1) is a harmonic binary cubic in the
    plane orthogonal to that kernel, whose gradient vanishes only on the
    kernel, so its vertex is returned alone.
    """
    u, sv, vh = np.linalg.svd(t.reshape(3, 9) @ _TRACELESS.T)
    if sv[2] <= _CONE_SIGMA * sv[0]:
        return u[:, 2][None]
    y1, y2 = (vh[3:] @ _TRACELESS).reshape(2, 3, 3)
    ys = _PENCIL_COS * y1 + _PENCIL_SIN * y2
    disc = ((ys @ ys).trace(axis1=1, axis2=2) ** 3
            - 54.0 * np.linalg.det(ys) ** 2)
    c = np.fft.fft(disc)[_HARMONICS]
    roots, poles = _sextic_roots(np.r_[0.0, _DERIVATIVE * c[:6]][None])
    roots = roots[0, :6 - poles[0]]
    theta = np.arctan2(roots.imag, roots.real) / 2.0  # as np.angle
    vals, vecs = np.linalg.eigh(np.cos(theta)[:, None, None] * y1
                                + np.sin(theta)[:, None, None] * y2)
    seeds = np.empty((len(theta) + 1, 3))
    seeds[:-1] = vecs[_SIX[:len(theta)], :, np.abs(vals).argmax(1)]
    seeds[-1] = u[:, 2]
    return seeds


def _census(sq, tol, seeds, kind, owner, axes, final):
    """SymmetryAxes of each cubic of a chunk, with squared norms sq, from
    the refined seeds of all of them (seed i of condition kind[i] belongs
    to cubic owner[i]).

    An axis is accepted when its squared functional is at most
    (tol * ||h||)^2.  A seed the screen left out of reach carries its
    screened functional, which is what the debug log of its rejection
    shows.  One _dedupe call merges the accepted axes of every cubic and
    condition, and one Gram test (_near) removes the order-2/order-3 axes
    within _MERGE_ANGLE of a circle axis of their cubic.
    """
    threshold = ((tol * np.sqrt(sq)) ** 2)[owner]
    hit = final <= threshold
    if log.isEnabledFor(logging.DEBUG):
        for i in np.flatnonzero(~hit):
            log.debug("axis seed %s rejected: functional %.3e above %.3e",
                      np.round(seeds[i], 4), final[i], threshold[i])
    hit = hit.nonzero()[0]
    groups = owner[hit] * 3 + kind[hit]  # kinds: circle, order-2, order-3
    res = final[hit]
    kept, ws = _dedupe(axes[hit], res, groups)
    ws, res, groups = ws[kept], res[kept], groups[kept]
    circle = groups % 3 == 0
    if circle.any():
        cubic = groups // 3
        near = _near(ws, circle) & (cubic[:, None] == cubic[circle])
        stay = circle | ~near.any(1)
        ws, res, groups = ws[stay], res[stay], groups[stay]
    found = [([], [], []) for _ in sq]
    for g, w, r in zip(groups.tolist(), ws, res.tolist()):
        found[g // 3][g % 3].append((w, r))
    return [SymmetryAxes(order2=tuple(o2), order3=tuple(o3),
                         circle=tuple(c)) for c, o2, o3 in found]


def _check_tol(tol):
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _symmetry_axes(cs, sq, tol):
    """SymmetryAxes of each nonzero cubic with coefficient rows cs (n, 10)
    and squared norms sq (n,).

    The cubics go in chunks of _AXIS_CHUNK, each normalized once, and each
    step runs once per chunk: one stacked root-finding call gives the
    Maxwell directions of all its cubics (_maxwell_directions), and one
    pass builds their seeds with each seed's starting functional on the
    unit-norm rows in closed form (_axis_seeds, _screen).  Only the seeds
    the screen puts within _reach(tol), with the slack _SCREEN_SLACK, go to
    one lockstep refine (_refine_axes; none when no seed is in reach),
    whose exact starting functional still decides which seeds it polishes.
    The others keep their seed and screened functional, and one census
    merges the accepted axes (_census).  Every functional is multiplied by
    ||h||^2 before the census, so the census and the residuals it reports
    keep the cubic's own units.
    """
    _check_tol(tol)
    out = []
    reach = _reach(tol)
    cut = reach * (1.0 + _SCREEN_SLACK) + _SCREEN_SLACK
    for lo in range(0, len(cs), _AXIS_CHUNK):
        c, q = cs[lo:lo + _AXIS_CHUNK], sq[lo:lo + _AXIS_CHUNK]
        units = c / np.sqrt(q)[:, None]
        seeds, kind, owner, final = _axis_seeds(_maxwell_directions(c), units)
        axes = seeds.copy()
        live = (final <= cut).nonzero()[0]
        if len(live):
            axes[live], final[live] = _refine_axes(
                units[owner[live]], seeds[live],
                _CONDITION_MASKS[kind[live]], reach)
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
    about tol^(2/3) (_reach).  Each seed's starting functional is taken in
    closed form on the unit-norm cubic (_screen), and the refiner sees
    only the seeds in reach.  A zero or overflowing norm, or a tol that is
    not finite and positive, raises ValueError.
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

# per type: (axial part r, phase order k, target phase of c_k, |c_k| per
# unit s); k also names the axis list _AXIS_LISTS[k] the normal form is
# about: circle (k = 0), order2 (Z2, and A4 = Z2 at r = 0) or order3 (S3, Z3)
_FITS = {
    StabilizerType.CIRCLE: (True, 0, 0.0, 1.0),
    StabilizerType.S3: (False, 3, 0.0, 2.0),
    StabilizerType.A4: (False, 2, -math.pi / 2.0, math.sqrt(6.0)),
    StabilizerType.Z2: (True, 2, -math.pi / 2.0, math.sqrt(6.0)),
    StabilizerType.Z3: (True, 3, 0.0, 2.0),
}
_AXIS_LISTS = ("circle", None, "order2", "order3")
# per type with a collapse line s = slope * r: (NormalFormResult field, slope)
_COLLAPSE = {StabilizerType.Z2: ("dist_s_minus_r", 1.0),
             StabilizerType.Z3: ("dist_s_minus_rsqrt2", math.sqrt(2.0))}
# axis census (order-2, order-3) of every type without a circle axis
_CENSUS = {(0, 0): StabilizerType.TRIVIAL, (3, 4): StabilizerType.A4,
           (3, 1): StabilizerType.S3, (1, 0): StabilizerType.Z2,
           (0, 1): StabilizerType.Z3}


def _fit(tag, cs, frames):
    """Normal forms of type `tag` of the cubics cs (n, 10) from frames
    (n, 3, 3) whose z-columns are axes of the type's list _AXIS_LISTS[k]:
    flip z so that r >= 0 (types with an axial part), then turn about z,
    which multiplies c_k by exp(i k alpha), until c_k has its target phase
    (types with one).  The target phase -pi/2 of c2 makes the xyz component
    positive and the (x^2-y^2)z component zero, so for A4 it turns the
    other two order-2 axes onto x and y.  The components are taken once,
    and again for the rows whose z flipped (negating them by the flip's
    sign pattern would differ in the sign of exact zeros, and so turn the
    phase of an exact normal form by pi).  The residual is taken on raw
    coefficients, so no absolute trace floor applies to the difference.
    Returns (rotations (n, 3, 3), r, s, residual (n,)), each row with the
    rounding of its cubic alone."""
    axial, k, target, per_s = _FITS[tag]
    r = s = np.zeros(len(cs))
    comps = _components(cs, frames)
    if axial:
        r = comps[:, 0] / _NORM_P0
        flip = r < 0
        frames = np.where(flip[:, None, None], np.matmul(frames, _FLIP_Z),
                          frames)
        r = np.where(flip, -r, r)
        if k and flip.any():
            comps[flip] = _components(cs[flip], frames[flip])
    if k:
        re, im = comps[:, 2 * k - 1], -comps[:, 2 * k]
        alpha = ((target - np.arctan2(im, re)) / k).tolist()
        turn = np.array([(math.sin(a), 1.0 - math.cos(a)) for a in alpha])
        frames = np.matmul(frames, _EYE3 + turn[:, :1, None] * _TURN_K
                           + turn[:, 1:, None] * _TURN_K2)
        s = np.hypot(re, im) / per_s
    d = _pullback(cs, frames) - _normal_coeffs(tag, r, s)
    return frames, r, s, np.sqrt(_rowdot(MULTIPLICITY * d, d))


def _census_plans(found):
    """(type, fit axis) of each cubic from its axis census found[i], or
    (CensusError, None) when the census matches no stabilizer pattern.  The
    type is Circle at a circle axis, else _CENSUS's entry; the fit axis is
    the first of the list its phase order k names (None for Trivial)."""
    plans = []
    for axes in found:
        n2, n3 = len(axes.order2), len(axes.order3)
        tag = (StabilizerType.CIRCLE if axes.circle
               else _CENSUS.get((n2, n3)))
        if tag is None:
            plans.append((CensusError(
                f"axis census ({n2} order-2, {n3} order-3) matches no "
                f"stabilizer pattern",
                census={"order2": axes.order2, "order3": axes.order3,
                        "circle": axes.circle}), None))
        elif tag is StabilizerType.TRIVIAL:
            plans.append((tag, None))
        else:
            about = _AXIS_LISTS[_FITS[tag][1]]
            plans.append((tag, getattr(axes, about)[0][0]))
    return plans


def _normal_forms(cs, plans):
    """NormalFormResult of each nonzero cubic, with coefficient rows cs
    (n, 10), from its plan (type, unit axis of the type's list
    _AXIS_LISTS[k]), or in its place the plan's CensusError or the
    ValueError of its fit.  The cubics of one type are fitted together
    (_fit), their rotations checked once."""
    out = [None] * len(plans)
    groups = {}  # type -> cubic indices
    for i, (tag, _) in enumerate(plans):
        if isinstance(tag, ValueError):
            out[i] = tag
        else:
            groups.setdefault(tag, []).append(i)
    for tag, idx in groups.items():
        if tag is StabilizerType.TRIVIAL:
            zero = np.zeros(len(idx))
            fit = _EYE3[None].repeat(len(idx), 0), zero, zero, zero
        else:
            fit = _fit(tag, cs[idx], _transport_matrices(
                [plans[i][1] for i in idx]))
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


# ---------------------------------------------------------------------------
# closed-form certificate: the strata from the eigenframe of M, A4 from Psi

# A rotation fixing h fixes M_pq = h_ijp h_ijq, so every symmetry axis is an
# eigenvector of M, and a stable one where its eigenvalue is simple.  The
# strata the certificate decides; the first five with the components each
# forbids about its axis as 0/1 masks over the rows of _BASIS7 (c0, Re/Im
# c1, Re/Im c2, Re/Im c3).
_STRATA = (StabilizerType.CIRCLE, StabilizerType.S3, StabilizerType.Z3,
           StabilizerType.Z2, StabilizerType.A4, StabilizerType.TRIVIAL)
_CIRCLE, _S3, _Z3, _Z2, _A4, _TRIVIAL = range(6)
_AXIAL = np.eye(7)[0]
_FORBIDDEN = np.stack([_CONDITION_MASKS[0], _CONDITION_MASKS[2] + _AXIAL,
                       _CONDITION_MASKS[2], _CONDITION_MASKS[1],
                       _CONDITION_MASKS[1] + _AXIAL])
# _BASIS7 components about the coordinate axes x, y, z, stacked (21, 10):
# about axis a, those about z of the pullback by the cyclic turn that
# carries z to axis a
_AXIS_TABLE = np.concatenate([
    _BASIS7 @ _pullback(np.eye(10), np.roll(_EYE3, a + 1, axis=0)).T
    for a in range(3)])
# A4 acts irreducibly on R^3, so M = I / 3 on an A4 cubic and no covariant
# matrix of h finds its axes.  The fourth-order operator Psi = sum_m
# H_m (x) H_m, H_m = h(., ., e_m), acting on symmetric matrices as
# X -> sum_m H_m X H_m, does.  With G = a a^T from the (9, 3) slice matrix
# a (G[ij, kl] = sum_m h_ijm h_klm), Psi[ik, jl] = G[ij, lk], and its
# (5, 5) matrix on the traceless symmetric basis T_a = _TRACELESS[a] is
# sum T_a[i, l] G[ij, kl] T_b[j, k]: the row G.ravel() @ _PSI.
_PSI = np.einsum("ail,bjk->ijklab", *[_TRACELESS.reshape(5, 3, 3)] * 2
                 ).reshape(81, 25)
# An eigenvector is trusted when its eigenvalue is at least _GAP from the
# other two (tr M = 1 on unit rows).  A functional f (unit rows) is a clear
# pass at f <= tol^2 / _MARGIN and a clear fail at f >= _MARGIN * tol^2.
# Within tol of h, M moves by at most 2 tol + tol^2 (spectral norm), so a
# symmetry axis within tol lies within about 2 tol / _GAP rad of a trusted
# eigenvector; the components of a unit cubic change by at most 3 per rad,
# so its functional there is at most (tol (1 + 6 / _GAP))^2 = (61 tol)^2,
# below the clear fail (100 tol)^2.
# A cubic within tol of Circle, S3, Z3 or A4 has M within 2 tol + tol^2 of
# a matrix with a repeated eigenvalue (M = I / 3 for A4), so one of its
# gaps is at most 4 tol + 2 tol^2, under _GAP for every tol the
# certificate runs at (_MARGIN tol^2 < 1, tol < 0.01).  Hence:
# * Trivial: where all three gaps are at least _GAP, only a Z2 axis can lie
#   within tol, at a trusted eigenvector with functional at most
#   (61 tol)^2; a clear Z2 fail about all three leaves the census (0, 0).
# * A4 is read where lmax - lmin < _GAP.  On a unit A4 cubic Psi has
#   eigenvalue -1/6 twice and +1/6 three times, a spectral gap of 1/3: the
#   -1/6 eigenspace holds the traceless matrices diagonal in the A4 frame.
#   Of two orthonormal ones, D1 and D2, one has its consecutive eigenvalues
#   at least sqrt(2) sin(pi / 12) = 0.366 apart, in any frame, and its
#   eigenvectors are the three order-2 axes.
_GAP = 0.1
_MARGIN = 1e4
# _EXCLUDES[s, r]: the rule of stratum r (Circle, S3, Z3, Z2) needs stratum
# s a clear fail about every eigenvector.  Circle needs nothing, S3 needs
# Circle out, Z3 needs S3 and Z2 out (Z2 out: Circle out), Z2 needs Z3 out
# (Z3 out: S3 out).
_EXCLUDES = np.zeros((5, 4), dtype=bool)
_EXCLUDES[[_CIRCLE, _S3, _Z2, _Z3], [_S3, _Z3, _Z3, _Z2]] = True
# the gaps (l1 - l0, l2 - l1) on either side of each eigenvalue of M
_NEIGHBOUR_GAPS = np.array([[0, 0], [0, 1], [1, 1]])


def _frame_functionals(units, frames, masks):
    """Squared _BASIS7 components of the cubics with unit-norm rows units
    (n, 10) about each column of frames (n, 3, 3), summed under the 0/1
    masks (7, k) or one mask (7,): (n, 3, k) or (n, 3).  The components of
    the pullback h(E x) about the coordinate axes (_AXIS_TABLE) are those
    of h about E's columns, and E and -E give negated pullbacks, so the
    squares do not depend on E's orientation; one small matrix product per
    cubic."""
    comps = np.matmul(_AXIS_TABLE, _pullback(units, frames)[:, :, None])
    return np.matmul((comps * comps).reshape(len(units), 3, 7), masks)


def _psi_frames(a):
    """The frames (m, 3, 3) that Psi reads off the cubics with slice
    matrices a (m, 9, 3): the eigenframe of the one of Psi's two lowest
    eigenvectors, as a 3 x 3 matrix, whose eigenvalues lie further apart.
    On an A4 cubic its columns are the three order-2 axes.  Each product
    is one small matrix product per cubic, so each row's answer is that of
    its cubic alone."""
    m = len(a)
    g = np.matmul(a, a.transpose(0, 2, 1)).reshape(m, 1, 81)
    _, vecs = np.linalg.eigh(np.matmul(g, _PSI).reshape(m, 5, 5))
    d = np.matmul(vecs[:, :, :2].transpose(0, 2, 1), _TRACELESS)
    vals, frames = np.linalg.eigh(d.reshape(m, 2, 3, 3))
    # on unit traceless D with eigenvalues v0 <= v1 <= v2 the smaller gap,
    # (sqrt(2 - 3 v1^2) - 3 |v1|) / 2, falls as |v1| grows
    mid = np.abs(vals[:, :, 1])
    return np.where((mid[:, 1] < mid[:, 0])[:, None, None], frames[:, 1],
                    frames[:, 0])


def _a4_axes(units, a, tol):
    """(whether the A4 rule holds (m,), the fit axis (k, 3) of each of the k
    cubics where it holds) of the cubics with unit-norm coefficient rows
    units (m, 10) and slice matrices a (m, 9, 3): the A4 functional is a
    clear pass about all three columns of the frame _psi_frames reads, and
    the fit axis is the signed column listed first (_listing), the order-2
    axis the axis search's census lists first."""
    frame = _psi_frames(a)
    f = _frame_functionals(units, frame, _FORBIDDEN[_A4])
    ok = (f <= tol * tol / _MARGIN).all(1)
    axes = _signed(frame[ok].transpose(0, 2, 1).reshape(-1, 3))
    return ok, axes[_listing(axes, np.arange(len(axes)) // 3)[::3]]


def _eigenframe_rules(units, vecs, apart, tol):
    """(index into _STRATA, -1 where no rule holds; fit axis) of the cubics
    with unit-norm rows units (n, 10) and eigenframes vecs (n, 3, 3) of M,
    by the rules of _certify on M's trusted eigenvectors; apart (n, 2)
    tells whether each gap l1 - l0, l2 - l1 is at least _GAP."""
    n = len(units)
    f = _frame_functionals(units, vecs, _FORBIDDEN.T)  # (n, 3, stratum)
    trusted = apart[:, _NEIGHBOUR_GAPS].all(2)[:, :, None]
    clear = trusted & (f <= tol * tol / _MARGIN)
    fail = ~trusted | (f >= _MARGIN * tol * tol)  # what is not read fails
    out, whole = fail.all(1), apart.all(1)  # (n, stratum), (n,)
    kind = np.where(whole & out[:, _Z2], _TRIVIAL, -1)
    if not clear.any():  # every other rule needs a clear pass
        return kind, _signed(vecs[:, :, 0])
    rule = clear[:, :, :_A4].any(1) & ~np.matmul(~out, _EXCLUDES)
    # exactly one clear pass, which A4 fails clearly (pass and fail exclude
    # each other), and the other two a clear fail
    rule[:, _Z2] &= (whole & (fail[:, :, _Z2].sum(1) == 2)
                     & ((clear[:, :, _Z2] & fail[:, :, _A4]).sum(1) == 1))
    hit, first = rule.any(1), rule.argmax(1)
    rows = np.arange(n)
    k = clear[rows, :, first].argmax(1)  # 0 where no rule holds
    return np.where(hit, first, kind), _signed(vecs[rows, :, k])


def _certify(units, tol):
    """(index into _STRATA (n,), -1 where the certificate declines; the
    unit fit axis (n, 3), signed as _dedupe signs, of no use on a Trivial
    or declined row) of the cubics with unit-norm coefficient rows units
    (n, 10), in closed form.

    One eigh of M per cubic gives the eigenframe E, and the squared
    components about its columns summed under _FORBIDDEN
    (_frame_functionals) give each stratum's functional about each
    eigenvector.
    Only trusted eigenvectors are read, and the most symmetric stratum is
    decided first:

    * Circle: a clear pass;
    * S3: a clear pass, Circle a clear fail about every trusted eigenvector;
    * Z3: a clear pass, with S3, Circle and Z2 a clear fail about every
      trusted eigenvector (an order-2 axis in the eigenplane orthogonal to
      the Z3 axis would need |c0| small, which S3's clear fail excludes);
    * Z2: all three eigenvectors trusted, exactly one clear pass, the other
      two a clear fail, Z3 a clear fail about all three and A4 a clear fail
      about the passing one;
    * Trivial: no rule above, all three eigenvectors trusted and Z2 a clear
      fail about all three.

    A cubic with lmax - lmin < _GAP goes to the A4 rule instead (_a4_axes):
    the A4 functional a clear pass about all three axes of the frame read
    off Psi.  Anything else (an untrusted eigenvector a rule needs, a
    functional between the two margins) is declined, and so is every cubic
    when _MARGIN tol^2 >= 1, where no functional can fail clearly.  Every
    step is a row-wise array operation (the products as one small matrix
    product per cubic), so each row's answer is that of its cubic alone."""
    n = len(units)
    a = _full(units).reshape(n, 9, 3)
    vals, vecs = np.linalg.eigh(np.matmul(a.transpose(0, 2, 1), a))
    if _MARGIN * tol * tol >= 1.0:  # nothing to decide
        return np.full(n, -1), vecs[:, :, 0]
    apart = vals[:, 1:] - vals[:, :-1] >= _GAP  # (n, 2): l1 - l0, l2 - l1
    if apart.any():
        kind, axes = _eigenframe_rules(units, vecs, apart, tol)
    else:
        kind, axes = np.full(n, -1), vecs[:, :, 0].copy()
    near = (vals[:, 2] - vals[:, 0] < _GAP).nonzero()[0]
    if len(near):  # the A4 rule's rows, none of them decided above
        ok, w = _a4_axes(units[near], a[near], tol)
        kind[near[ok]], axes[near[ok]] = _A4, w
    return kind, axes


def classify(h, tol: float = TAU_AXIS):
    """Stabilizer type and normal form of a cubic under rotations.

    Decision path: zero norm -> Full; then the closed-form certificate
    (_certify), which reads the eigenframe of M_pq = h_ijp h_ijq and
    decides Circle, S3, Z3 or Z2 about an eigenvector where the forbidden
    components are clearly zero there and every competing stratum clearly
    absent, Trivial where M's eigenvalues are all well apart and none of
    its eigenvectors comes near an order-2 axis, and A4, where M is nearly
    isotropic, about the frame of a fourth-order operator built from h's
    slices; every other cubic (a near-degenerate M that is not A4, the
    band around tol) goes to the axis search, where a circle axis ->
    Circle and otherwise the census of order-2/order-3 axes selects the
    type from one table (3+4 -> A4, 3+1 -> S3, 0+1 -> Z3, 1+0 -> Z2,
    none -> Trivial).  Where the certificate decides, the search would
    give the same type.
    The type's phase order k names the axis its normal form is about: the
    circle axis (k = 0), an order-2 (k = 2: Z2, A4) or an order-3 axis
    (k = 3: S3, Z3).  `tol` is the one symmetry tolerance: an axis counts
    when its components that the symmetry forbids have norm at most
    tol * ||h||, so a cubic within that distance of a collapse line (Z2
    with s = r, Z3 with s = r*sqrt(2)) has the larger census of S3 / A4 and
    is classified so.  Z2 and Z3 fits report their distance to the collapse
    line.  A tol that is not finite and positive raises ValueError, for a
    sequence too.

    `h` is one HarmonicCubic or a sequence of them.  A sequence gives a
    list, one entry per cubic, equal to classify on that cubic alone: its
    NormalFormResult, or the ValueError it raises alone (a CensusError when
    the census matches no stabilizer pattern), returned in its place so that
    one failed census leaves the other cubics classified; a cubic whose
    squared norm overflows gets a ValueError.  Every step runs on arrays:
    the certificate over all cubics at once, the axis search of the cubics
    it declines in chunks of up to _AXIS_CHUNK cubics (see _symmetry_axes),
    then the normal-form fit once per stabilizer type over all cubics of
    that type, with one check of their rotations.  A single cubic is a
    chunk of one.
    """
    _check_tol(tol)
    hs = [h] if isinstance(h, HarmonicCubic) else list(h)
    cs = np.array([g.coeffs for g in hs]).reshape(-1, 10)
    with np.errstate(over="ignore"):  # an overflowing cubic is reported
        sq = _rowdot(MULTIPLICITY * cs, cs)  # each as HarmonicCubic.inner
    norms = np.sqrt(sq)
    live = ((norms > TAU_ZERO) & (sq < math.inf)).nonzero()[0]
    out = [ValueError(_OVERFLOW) if norm == math.inf
           else None if norm > TAU_ZERO else NormalFormResult(
               StabilizerType.FULL, Rotation3.identity(), 0.0, 0.0, norm)
           for norm in norms.tolist()]
    cs, sq = cs[live], sq[live]
    t0 = time.perf_counter()
    kind, axes = _certify(cs / np.sqrt(sq)[:, None], tol)
    plans = [(_STRATA[k], w) if k >= 0 else None
             for k, w in zip(kind.tolist(), axes)]
    open_ = (kind < 0).nonzero()[0]
    if len(open_):
        for i, plan in zip(open_, _census_plans(
                _symmetry_axes(cs[open_], sq[open_], tol))):
            plans[i] = plan
    t1 = time.perf_counter()
    for i, fit in zip(live, _normal_forms(cs, plans)):
        out[i] = fit
    _STATS["axis_search_s"] += t1 - t0
    _STATS["fit_s"] += time.perf_counter() - t1
    _STATS["searched"] += len(open_)
    _STATS["certified"] += len(cs) - len(open_)
    if isinstance(h, HarmonicCubic):
        if isinstance(out[0], ValueError):
            raise out[0]
        return out[0]
    return out


def singular_directions(h: HarmonicCubic):
    """Projective directions in which the cubic's gradient vanishes.

    Returns at most three unit vectors w (each signed so that its first
    coordinate above 1e-8 in modulus is positive, as _dedupe does) with
    ||grad h(w)|| <= 1e-6 * ||h||.  The candidates are algebraic and need
    no search (see _singular_seeds): the members with a repeated eigenvalue
    of the pencil orthogonal to the cubic's traceless slices, at the simple
    roots of the derivative of a binary sextic, plus the kernel direction
    of a cone.  The roots come from the same companion-matrix solve as the
    Maxwell directions' (_sextic_roots).  The gradient is taken once at
    every candidate, the candidates within the tolerance are kept, and
    those within _MERGE_ANGLE of each other are one (_dedupe).  A zero or
    overflowing norm raises ValueError.
    """
    norm = _checked_norm(h)
    t = h.tensor
    axes = _singular_seeds(t)
    grads = 3.0 * np.einsum("pjk,nj,nk->np", t, axes, axes)
    res = np.sqrt((grads * grads).sum(1))  # as np.linalg.norm
    hit = (res <= _TAU_GRAD * norm).nonzero()[0]
    if not len(hit):
        return []
    kept, ws = _dedupe(axes[hit], res[hit])
    return list(ws[kept[:3]])
