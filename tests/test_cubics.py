"""Tests for the cubic-algebra layer: types, decomposition, classification."""

import collections
import itertools
import json
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slag3 import cubics, gallery, geometry
from slag3.cubics import (
    LEX_TRIPLES,
    AxisDecomposition,
    HarmonicCubic,
    Rotation3,
    StabilizerType,
    axis_decompose,
    classify,
    evaluate_and_gradient,
    find_symmetry_axes,
    invariants,
    normal_form,
    project_traceless,
    rotate,
    singular_directions,
    transport_rotation,
)

ST = StabilizerType

# canonical cubics, written out in the lexicographic coefficient order
# (111,112,113,122,123,133,222,223,233,333)
P0 = HarmonicCubic(np.array([0, 0, -1, 0, 0, 0, 0, -1, 0, 2.0]))   # z(2z^2-3x^2-3y^2)
XYZ6 = HarmonicCubic(np.array([0, 0, 0, 0, 1.0, 0, 0, 0, 0, 0]))   # 6xyz
CUBE3 = HarmonicCubic(np.array([1.0, 0, 0, -1, 0, 0, 0, 0, 0, 0])) # x^3-3xy^2


def n_family(r, s):
    """r*z(2z^2-3x^2-3y^2) + 6s*xyz."""
    c = r * P0.coeffs.copy()
    c[4] += s
    return HarmonicCubic(c)


def m_family(r, s):
    """r*z(2z^2-3x^2-3y^2) + s*(x^3-3xy^2)."""
    return HarmonicCubic(r * P0.coeffs + s * CUBE3.coeffs)


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return Rotation3(np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]))


def random_cubic(rng):
    return project_traceless(rng.normal(size=10))


# the seven canonical representatives plus the two boundary collapses
CORPUS = [
    ("zero", HarmonicCubic.zero(), ST.FULL, 0.0, 0.0),
    ("axial", P0, ST.CIRCLE, 1.0, 0.0),
    ("xyz", XYZ6, ST.A4, 0.0, 1.0),
    ("cube", CUBE3, ST.S3, 0.0, 1.0),
    ("n12", n_family(1.0, 2.0), ST.Z2, 1.0, 2.0),
    ("m13", m_family(1.0, 3.0), ST.Z3, 1.0, 3.0),
    ("random", random_cubic(np.random.default_rng(20240811)), ST.TRIVIAL,
     0.0, 0.0),
    ("n11", n_family(1.0, 1.0), ST.S3, 0.0, 2.0),
    ("m1r2", m_family(1.0, math.sqrt(2.0)), ST.A4, 0.0, math.sqrt(3.0)),
]


# number of singular directions of each corpus cubic (n(1, 2) has the two
# equator lines at sin(2 theta) = 1/2, the collapses count as S3 and A4)
SINGULAR_COUNT = {"axial": 0, "xyz": 3, "cube": 1, "n12": 2, "m13": 0,
                  "random": 0, "n11": 1, "m1r2": 3}


def poly_value(h, x):
    """Oracle: brute-force sum of h_ijk x_i x_j x_k over all 27 triples."""
    t = h.tensor
    return sum(t[i, j, k] * x[i] * x[j] * x[k]
               for i, j, k in itertools.product(range(3), repeat=3))


# ---------------------------------------------------------------------------
# index tables of the coefficient order


def five_point_generator(a):
    """Reference for cubics._generator: the pullback by I + eps a is cubic
    in eps, so the five-point rule (-P(2) + 8 P(1) - 8 P(-1) + P(-2)) / 12
    gives its derivative at 0 exactly."""
    p2, p1, m1, m2 = (cubics._pullback(np.eye(10), np.eye(3) + e * a).T
                      for e in (2.0, 1.0, -1.0, -2.0))
    return (8.0 * (p1 - m1) - p2 + m2) / 12.0


class TestIndexTables:
    """The tables derived from the slot permutations against their written
    out values and the formulations they replace."""

    def test_coefficient_order_and_multiplicities(self):
        assert LEX_TRIPLES == ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2),
                               (1, 2, 3), (1, 3, 3), (2, 2, 2), (2, 2, 3),
                               (2, 3, 3), (3, 3, 3))
        assert all(type(i) is int for t in LEX_TRIPLES for i in t)
        assert cubics.MULTIPLICITY.dtype == float
        assert cubics.MULTIPLICITY.tolist() == [1, 3, 3, 3, 6, 3, 1, 3, 3, 1]

    def test_flat_positions_equal_the_permutation_set_loop(self):
        idx27 = np.empty(27, dtype=int)
        idx10 = np.empty(10, dtype=int)
        for col, (i, j, k) in enumerate(LEX_TRIPLES):
            for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j),
                      (k, j, i)}:
                idx27[(p[0] - 1) * 9 + (p[1] - 1) * 3 + (p[2] - 1)] = col
            idx10[col] = (i - 1) * 9 + (j - 1) * 3 + (k - 1)
        for table, ref in ((cubics._IDX27, idx27), (cubics._IDX10, idx10)):
            assert table.dtype == ref.dtype
            assert np.array_equal(table, ref)

    def test_trace_part_equals_the_delta_sum(self):
        eye = np.eye(3)
        ref = cubics._gather(np.einsum("ij,nk->nijk", eye, eye)
                             + np.einsum("jk,ni->nijk", eye, eye)
                             + np.einsum("ki,nj->nijk", eye, eye)).T / 5.0
        assert cubics._TRACE_PART.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# construction and validation


SHAPE_ERROR = "^expected 10 independent coefficients$"
FINITE_ERROR = "^non-finite cubic coefficients$"
TRACE_ERROR = ("^coefficients violate the trace condition; route raw "
               "tensors through project_traceless$")


class TestHarmonicCubic:
    @pytest.mark.parametrize("coeffs", [np.zeros(9), np.zeros((1, 10)),
                                        np.zeros((2, 5)), 1.0])
    def test_rejects_wrong_shape(self, coeffs):
        with pytest.raises(ValueError, match=SHAPE_ERROR):
            HarmonicCubic(coeffs)

    def test_rejects_nonfinite(self):
        c = np.zeros(10)
        c[0] = np.nan
        with pytest.raises(ValueError, match=FINITE_ERROR):
            HarmonicCubic(c)

    def test_rejects_traceful(self):
        c = np.zeros(10)
        c[0] = 1.0  # x^3 alone has trace (1,0,0)
        with pytest.raises(ValueError, match=TRACE_ERROR):
            HarmonicCubic(c)

    def test_stacked_check_gives_each_row_its_constructor_error(self):
        rng = np.random.default_rng(11)
        rows = []
        for k in range(60):
            c = random_cubic(rng).coeffs * 10.0 ** rng.uniform(-12.0, 12.0)
            norm = math.sqrt(float(np.dot(cubics.MULTIPLICITY * c, c)))
            if k % 4 == 1:  # x^3 term on either side of the trace bound
                c[0] += (1e-8 * norm + 1e-13) * (0.999 if k % 8 == 1
                                                 else 1.001)
            elif k % 4 == 2:
                c[rng.integers(10)] = rng.choice((np.nan, np.inf, -np.inf))
            rows.append(c)
        errors = cubics._cubic_errors(np.array(rows))
        assert len(errors) == len(rows)
        for c, error in zip(rows, errors):
            try:
                HarmonicCubic(c)
            except ValueError as exc:
                assert type(error) is ValueError and str(error) == str(exc)
            else:
                assert error is None
        kinds = collections.Counter(
            str(error).split(";")[0] for error in errors if error is not None)
        assert kinds == {"non-finite cubic coefficients": 15,
                         "coefficients violate the trace condition": 7}
        assert cubics._cubic_errors(np.zeros((0, 10))) == []
        for error in cubics._cubic_errors(np.zeros((3, 9))):
            assert str(error) == "expected 10 independent coefficients"

    @pytest.mark.parametrize("n", [3, 9, 10])
    def test_one_row_dot_is_the_stacked_dot(self, n):
        # a stack of one row takes np.dot, the others one matmul per row:
        # the same BLAS dot, so the same bytes
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2000, n)) * 10.0 ** rng.uniform(-150, 150,
                                                             (2000, 1))
        b = rng.normal(size=(2000, n)) * 10.0 ** rng.uniform(-150, 150,
                                                             (2000, 1))
        stacked = cubics._rowdot(a, b)
        for i in range(len(a)):
            one = cubics._rowdot(a[i:i + 1], b[i:i + 1])
            assert one.shape == (1,)
            assert one.tobytes() == stacked[i:i + 1].tobytes()

    def test_norm_matches_27_triple_sum(self):
        rng = np.random.default_rng(0)
        h = random_cubic(rng)
        brute = math.sqrt(sum(
            h.tensor[i, j, k] ** 2
            for i, j, k in itertools.product(range(3), repeat=3)))
        assert h.norm() == pytest.approx(brute, rel=1e-14)

    def test_json_round_trip(self):
        h = n_family(1.0, 2.0)
        again = HarmonicCubic.from_json_dict(h.to_json_dict())
        assert np.array_equal(again.coeffs, h.coeffs)


class TestRotation3:
    def test_rejects_non_orthogonal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            Rotation3(bad)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Rotation3(np.diag([1.0, 1.0, -1.0]))

    def test_about_axis_half_turn(self):
        R = Rotation3.about_axis([1.0, 0.0, 0.0], math.pi)
        assert np.allclose(R.entries, np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_compose_is_matrix_product(self):
        rng = np.random.default_rng(1)
        a, b = random_rotation(rng), random_rotation(rng)
        assert np.allclose(a.compose(b).entries, a.entries @ b.entries)

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 4), (1, 3, 3)])
    def test_rejects_a_matrix_that_is_not_3x3(self, shape):
        with pytest.raises(ValueError, match="finite 3x3 matrix"):
            Rotation3(np.ones(shape))

    @pytest.mark.parametrize("axis, match", [
        ([0.0, 0.0, 0.0], "zero-length axis"),
        ([math.nan, 0.0, 1.0], "axis must be finite"),
        ([math.inf, 0.0, 0.0], "axis must be finite")])
    def test_about_axis_rejects_a_degenerate_axis_without_warning(
            self, axis, match):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match=match):
                Rotation3.about_axis(axis, 0.3)


# ---------------------------------------------------------------------------
# project_traceless


class TestProjectTraceless:
    def test_traceless_input_unchanged(self):
        out = project_traceless(XYZ6.coeffs)
        assert np.array_equal(out.coeffs, XYZ6.coeffs)

    def test_x_cubed_projects_to_zero_trace(self):
        c = np.zeros(10)
        c[0] = 1.0
        out = project_traceless(c)
        assert np.max(np.abs(out.trace_vector())) < 1e-15

    def test_idempotent_on_random_input(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=10)
        once = project_traceless(t)
        twice = project_traceless(once.coeffs)
        assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-15

    def test_rejects_nonfinite(self):
        c = np.zeros(10)
        c[3] = np.inf
        with pytest.raises(ValueError):
            project_traceless(c)


# ---------------------------------------------------------------------------
# evaluate_and_gradient


class TestEvaluateAndGradient:
    def test_xyz_at_ones(self):
        value, grad = evaluate_and_gradient(XYZ6, [1.0, 1.0, 1.0])
        assert value == pytest.approx(6.0, abs=1e-14)
        assert np.allclose(grad, [6.0, 6.0, 6.0], atol=1e-14)

    def test_any_cubic_at_origin(self):
        value, grad = evaluate_and_gradient(n_family(1.0, 2.0), np.zeros(3))
        assert value == 0.0
        assert np.array_equal(grad, np.zeros(3))

    def test_cube_at_z_axis(self):
        value, grad = evaluate_and_gradient(CUBE3, [0.0, 0.0, 1.0])
        assert value == 0.0
        assert np.allclose(grad, np.zeros(3), atol=1e-15)

    def test_value_matches_brute_force(self):
        rng = np.random.default_rng(3)
        h = random_cubic(rng)
        x = rng.normal(size=3)
        value, _ = evaluate_and_gradient(h, x)
        assert value == pytest.approx(poly_value(h, x), rel=1e-13)

    def test_euler_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            h = random_cubic(rng)
            x = rng.normal(size=3)
            value, grad = evaluate_and_gradient(h, x)
            assert np.dot(grad, x) == pytest.approx(3.0 * value, rel=1e-12)


# ---------------------------------------------------------------------------
# rotate


class TestRotate:
    def test_identity_fixes(self):
        h = n_family(1.0, 2.0)
        out = rotate(h, Rotation3.identity())
        assert np.allclose(out.coeffs, h.coeffs, atol=1e-15)

    def test_axial_cubic_flips_under_half_turn_about_x(self):
        R = Rotation3.about_axis([1.0, 0.0, 0.0], math.pi)
        out = rotate(P0, R)
        assert np.allclose(out.coeffs, -P0.coeffs, atol=1e-14)

    def test_xyz_flips_under_quarter_turn_about_z(self):
        R = Rotation3.about_axis([0.0, 0.0, 1.0], math.pi / 2)
        out = rotate(XYZ6, R)
        assert np.allclose(out.coeffs, -XYZ6.coeffs, atol=1e-14)

    def test_is_isometry(self):
        rng = np.random.default_rng(5)
        h = random_cubic(rng)
        R = random_rotation(rng)
        assert rotate(h, R).norm() == pytest.approx(h.norm(), rel=1e-12)

    def test_pullback_composition(self):
        rng = np.random.default_rng(6)
        h = random_cubic(rng)
        r1, r2 = random_rotation(rng), random_rotation(rng)
        lhs = rotate(rotate(h, r1), r2)
        rhs = rotate(h, r1.compose(r2))
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)

    def test_matches_polynomial_substitution(self):
        rng = np.random.default_rng(7)
        h = random_cubic(rng)
        R = random_rotation(rng)
        x = rng.normal(size=3)
        rotated_value, _ = evaluate_and_gradient(rotate(h, R), x)
        direct_value, _ = evaluate_and_gradient(h, R.entries @ x)
        assert rotated_value == pytest.approx(direct_value, rel=1e-12)

    def test_rejects_invalid_rotation(self):
        bad = np.eye(3)
        bad[1, 2] = 1e-5
        with pytest.raises(ValueError):
            rotate(XYZ6, bad)


# ---------------------------------------------------------------------------
# invariants


class TestInvariants:
    def test_zero_cubic(self):
        assert invariants(HarmonicCubic.zero()) == (0.0, 0.0)

    def test_xyz_quadratic_invariant(self):
        # oracle: direct 27-triple contraction of the full tensor with itself
        brute = sum(XYZ6.tensor[i, j, k] ** 2
                    for i, j, k in itertools.product(range(3), repeat=3))
        assert brute == pytest.approx(6.0, abs=1e-15)
        i2, _ = invariants(XYZ6)
        assert i2 == pytest.approx(6.0, rel=1e-14)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = random_cubic(rng)
            R = random_rotation(rng)
            i2, i4 = invariants(h)
            j2, j4 = invariants(rotate(h, R))
            assert j2 == pytest.approx(i2, rel=1e-10)
            assert j4 == pytest.approx(i4, rel=1e-10)

    def test_quartic_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            i2, i4 = invariants(random_cubic(rng))
            assert 0.0 <= i4 <= i2 ** 2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# axis_decompose


class TestAxisDecompose:
    Z = np.array([0.0, 0.0, 1.0])

    def test_axial_cubic_about_z(self):
        d = axis_decompose(P0, self.Z)
        assert abs(d.c0) > 1.0
        assert abs(d.c1) < 1e-14 and abs(d.c2) < 1e-14 and abs(d.c3) < 1e-14

    def test_xyz_about_z_is_pure_second_mode(self):
        d = axis_decompose(XYZ6, self.Z)
        assert abs(d.c0) < 1e-14 and abs(d.c1) < 1e-14
        assert abs(d.c2) == pytest.approx(math.sqrt(6.0), rel=1e-14)
        assert abs(d.c3) < 1e-14

    def test_cube_about_z_is_pure_third_mode(self):
        d = axis_decompose(CUBE3, self.Z)
        assert abs(d.c0) < 1e-14 and abs(d.c1) < 1e-14 and abs(d.c2) < 1e-14
        assert abs(d.c3) == pytest.approx(2.0, rel=1e-14)

    def test_parseval(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            h = random_cubic(rng)
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            d = axis_decompose(h, w)
            total = d.c0 ** 2 + abs(d.c1) ** 2 + abs(d.c2) ** 2 + abs(d.c3) ** 2
            assert total == pytest.approx(h.norm() ** 2, rel=1e-10)

    def test_phase_rotation_quarter_turn(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            h = random_cubic(rng)
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            alpha = math.pi / 2
            before = axis_decompose(h, w)
            after = axis_decompose(rotate(h, Rotation3.about_axis(w, alpha)), w)
            for k in (1, 2, 3):
                expected = np.exp(1j * k * alpha) * getattr(before, f"c{k}")
                assert abs(getattr(after, f"c{k}") - expected) < 1e-10 * h.norm()
            assert after.c0 == pytest.approx(before.c0, abs=1e-12 * h.norm())

    def test_rejects_zero_axis(self):
        with pytest.raises(ValueError):
            axis_decompose(XYZ6, np.zeros(3))

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            axis_decompose(XYZ6, np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("axis", [[math.nan, 0.0, 0.0],
                                      [0.0, math.nan, 1.0],
                                      [math.inf, 0.0, 0.0]])
    def test_rejects_non_finite_axis(self, axis):
        with pytest.raises(ValueError, match="unit vector"):
            axis_decompose(XYZ6, np.array(axis))

    def test_transport_rotation_carries_z_to_axis(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            R = transport_rotation(w)
            assert np.allclose(R.entries @ self.Z, w, atol=1e-12)

    def test_transport_rotation_rejects_a_zero_vector(self):
        with pytest.raises(ValueError, match="zero-length axis"):
            transport_rotation(np.zeros(3))

    @pytest.mark.parametrize("axis", [[math.inf, 0.0, 0.0],
                                      [math.nan, 0.0, 1.0],
                                      [0.0, -math.inf, math.nan]])
    def test_transport_rotation_rejects_a_non_finite_axis(self, axis):
        with pytest.raises(ValueError, match="^axis must be finite$"):
            transport_rotation(np.array(axis))

    @pytest.mark.parametrize("axis", [[1.0, 0.0], [[0.0, 0.0, 1.0]],
                                      [1.0, 0.0, 0.0, 0.0]])
    def test_every_axis_argument_rejects_a_shape_other_than_3(self, axis):
        # the shape is checked first: a 4-vector must not give a rotation
        # from three of its entries, nor a (1, 3) row an IndexError or a
        # RuntimeWarning
        for f in (transport_rotation, lambda a: Rotation3.about_axis(a, 0.3),
                  lambda a: axis_decompose(XYZ6, a)):
            with pytest.raises(ValueError, match="^axis must be a 3-vector$"):
                f(axis)

    def test_a_finite_axis_of_any_size_gives_its_directions_rotation(self):
        # the norm is taken without overflow and the rows are scaled by a
        # power of two, which is exact: an axis whose squared norm
        # overflows (from about 1.3e154), or whose norm is past the float
        # range, gives the rotations of its direction bit for bit, without
        # a warning, as do axes of ordinary size under a power-of-two scale
        rng = np.random.default_rng(63)
        pairs = [([1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
                 ([0.0, 0.0, 1e200], [0.0, 0.0, 1.0]),
                 ([1.5 * 2.0 ** 1023] * 3, [1.5] * 3)]
        for w in [np.eye(3)[2]] + [rng.normal(size=3) for _ in range(20)]:
            pairs += [(np.ldexp(w, k), w) for k in (-30, 520, 1000)]
        with np.errstate(all="raise"):
            for big, w in pairs:
                for f in (transport_rotation,
                          lambda a: Rotation3.about_axis(a, 0.3)):
                    assert f(big).entries.tobytes() == f(w).entries.tobytes()


# ---------------------------------------------------------------------------
# find_symmetry_axes


def axis_set(entries):
    return {tuple(np.round(w, 6)) for w, _ in entries}


def maxwell_reference(c):
    """Maxwell directions of one cubic, computed one at a time: np.roots of
    the sextic whose end coefficients at rounding level are set to zero,
    a greedy walk over the pairs i < j in stable sorted order of their
    gaps, and, when two directions are within the merge angle, each
    direction replaced by the normalized sum of those within the merge
    angle of it, each signed to agree with it."""
    p = (cubics._SEXTIC @ c)[::-1]
    small = np.abs(p) <= cubics._END_ROUNDING * np.abs(p).max()
    for ends in (range(7), range(6, -1, -1)):
        for i in ends:
            if not small[i]:
                break
            p[i] = 0.0
    roots = np.roots(p)
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
    order = np.argsort(gap, axis=None, kind="stable")
    for i, j in zip(*np.unravel_index(order, gap.shape)):
        if i < j and free[i] and free[j]:
            free[i] = free[j] = False
            out.append(pts[i] - pts[j])
    out = np.array(out)
    out = out / np.linalg.norm(out, axis=1, keepdims=True)
    tol = cubics._MERGE_ANGLE ** 2
    close = [[b for b in out if min(((a - b) ** 2).sum(), ((a + b) ** 2).sum())
              < tol] for a in out]
    if all(len(near) == 1 for near in close):
        return out
    merged = []
    for a, near in zip(out, close):
        w = sum((-b if a @ b < 0 else b) for b in near)
        merged.append(w / np.sqrt((w * w).sum()))
    return np.array(merged)


class TestFindSymmetryAxes:
    def test_stacked_maxwell_directions_equal_one_at_a_time(self):
        # exact forms lose sextic degree (the Circle sextic is one monomial);
        # round trips R, R^T leave their end coefficients at rounding level,
        # and rotated Circle forms split their triple roots; every vector
        # must match bit for bit, signs included
        rng = np.random.default_rng(5)
        hs = [h.scaled(lam) for _, h, kind, _, _ in CORPUS
              if kind is not ST.FULL for lam in (1.0, -3.0, 1e-7)]
        hs += [rotate(random_cubic(rng).scaled(10.0 ** rng.uniform(-8, 8)),
                      random_rotation(rng)) for _ in range(40)]
        hs += [rotate(h, random_rotation(rng)) for _, h, kind, _, _ in CORPUS
               if kind is not ST.FULL]
        for _, h, kind, _, _ in CORPUS:
            if kind is not ST.FULL:
                R = random_rotation(rng)
                hs.append(rotate(rotate(h, R), R.transpose()))
        stacked = cubics._maxwell_directions(np.array([h.coeffs for h in hs]))
        for h, v in zip(hs, stacked):
            assert v.tobytes() == maxwell_reference(h.coeffs).tobytes()

    def test_stacked_sextic_roots_equal_np_roots_of_the_trimmed_rows(self):
        # rows with exact and rounding-level zeros at either end, stacked:
        # each row's finite roots, then its roots at zero, are np.roots' of
        # the row with those ends set to zero, bit for bit, and its l roots
        # at infinity leave the last l slots 0
        rng = np.random.default_rng(47)
        cases = [(lo, hi, tiny) for lo in range(3) for hi in range(3)
                 for tiny in (0.0, 1e-17)]
        rows = rng.normal(size=(len(cases), 7)) * (1.0 + 0j)
        rows += 1j * rng.normal(size=rows.shape)
        for p, (lo, hi, tiny) in zip(rows, cases):
            p[:lo] *= tiny
            p[7 - hi:] *= tiny
        roots, poles = cubics._sextic_roots(rows)
        for p, r, l, (lo, hi, _) in zip(rows, roots, poles, cases):
            assert l == lo
            trimmed = p.copy()
            trimmed[:lo] = trimmed[7 - hi:] = 0.0
            assert r[:6 - lo].tobytes() == np.roots(trimmed).tobytes()
            assert not r[6 - lo:].any()

    def test_maxwell_points_on_the_poles_are_exact(self):
        # z^3 - 3zy^2 has Maxwell directions z and (0, -+sqrt(3)/2, 1/2); a
        # round trip R, R^T leaves its sextic's end coefficients at rounding
        # level, which eigvals alone turned into errors up to 1.4e-6
        h = HarmonicCubic(np.array([0, 0, 0, 0, 0, 0, 0, -1.0, 0, 1.0]))
        r = math.sqrt(3.0) / 2.0
        expected = np.array([[0.0, 0.0, 1.0], [0.0, -r, 0.5], [0.0, r, 0.5]])
        rng = np.random.default_rng(41)
        for _ in range(20):
            R = random_rotation(rng)
            moved = rotate(rotate(h, R), R.transpose())
            v = cubics._maxwell_directions(moved.coeffs[None])[0]
            for w in expected:
                assert min(np.abs(v - w).max(1).min(),
                           np.abs(v + w).max(1).min()) <= 1e-14

    def test_circle_directions_are_its_axis(self):
        # the Circle sextic's triple roots split by about eps^(1/3) under
        # eigvals (up to 8.5e-6); the merged directions are the axis
        rng = np.random.default_rng(43)
        for _ in range(20):
            R = random_rotation(rng)
            axis = R.entries[2]  # h(R x) has its axis at x = R^T z
            moved = rotate(P0.scaled(rng.uniform(0.1, 10.0)), R)
            v = cubics._maxwell_directions(moved.coeffs[None])[0]
            assert np.minimum(np.abs(v - axis).max(1),
                              np.abs(v + axis).max(1)).max() <= 1e-13

    def test_xyz_has_cube_axes(self):
        axes = find_symmetry_axes(XYZ6)
        assert axis_set(axes.order2) == {
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
        e = round(1 / math.sqrt(3.0), 6)
        assert axis_set(axes.order3) == {
            (e, e, e), (e, e, -e), (e, -e, e), (e, -e, -e)}
        assert axes.circle == ()

    def test_cube_has_triangle_axes(self):
        axes = find_symmetry_axes(CUBE3)
        assert axis_set(axes.order3) == {(0.0, 0.0, 1.0)}
        expected2 = {(1.0, 0.0, 0.0),
                     (round(0.5, 6), round(math.sqrt(3) / 2, 6), 0.0),
                     (round(0.5, 6), round(-math.sqrt(3) / 2, 6), -0.0)}
        got = axis_set(axes.order2)
        assert len(got) == 3
        for w in got:
            assert min(np.linalg.norm(np.array(w) - np.array(e))
                       for e in expected2) < 1e-5
        assert axes.circle == ()

    def test_axial_cubic_has_circle_axis(self):
        axes = find_symmetry_axes(P0)
        assert axis_set(axes.circle) == {(0.0, 0.0, 1.0)}
        assert axes.order2 == () and axes.order3 == ()

    def test_residuals_below_threshold(self):
        h = rotate(n_family(1.0, 2.0),
                   Rotation3.about_axis([1.0, 2.0, -1.0], 0.8))
        axes = find_symmetry_axes(h)
        for w, res in axes.order2 + axes.order3 + axes.circle:
            assert res <= 1e-6 * h.norm()

    def test_axes_canonical_sign(self):
        h = rotate(XYZ6, Rotation3.about_axis([2.0, 1.0, 1.0], 0.9))
        axes = find_symmetry_axes(h)
        for w, _ in axes.order2 + axes.order3:
            first = w[np.flatnonzero(np.abs(w) > 1e-8)[0]]
            assert first > 0

    def test_rejects_zero_cubic(self):
        with pytest.raises(ValueError):
            find_symmetry_axes(HarmonicCubic.zero())

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            find_symmetry_axes(n_family(1.0, 2.0), tol=tol)

    def test_one_lockstep_refine_per_search(self, monkeypatch):
        # each axis search polishes its seeds in at most one call of the
        # refiner: the circle, order-2 and order-3 seeds the screen puts in
        # reach together (none when no seed is); singular_directions takes
        # its directions in closed form and never calls it
        calls = []
        refine = cubics._refine_axes

        def counted(*args, **kwargs):
            calls.append(1)
            return refine(*args, **kwargs)

        monkeypatch.setattr(cubics, "_refine_axes", counted)
        h = rotate(m_family(1.0, 3.0),
                   Rotation3.about_axis([1.0, 2.0, -1.0], 0.8))
        find_symmetry_axes(h)
        assert len(calls) == 1
        singular_directions(h)
        assert len(calls) == 1
        # classify decides from the one census of its single search, also
        # for cubics near a collapse line
        assert classify(h).type is ST.Z3
        assert len(calls) == 2
        near = rotate(n_family(1.0, 1.0 + 1e-7),
                      Rotation3.about_axis([1.0, 2.0, -1.0], 0.8))
        assert classify(near).type is ST.S3
        assert len(calls) == 3
        rng = np.random.default_rng(41)
        for g in [c[1] for c in CORPUS if c[2] is not ST.FULL] + [
                random_cubic(rng) for _ in range(20)]:
            before = len(calls)
            singular_directions(g)
            assert len(calls) == before

    def test_the_reach_changes_no_census(self, monkeypatch):
        # retiring the seeds beyond the reach before the first step keeps
        # every type, census count and singular-direction count of a refine
        # that polishes every seed
        rng = np.random.default_rng(23)
        hs = [h for _, h, kind, _, _ in CORPUS if kind is not ST.FULL]
        hs += [rotate(h, random_rotation(rng)) for h in hs]
        hs += [random_cubic(rng) for _ in range(200)]
        cs = np.array([h.coeffs for h in hs])
        sq = np.array([h.inner(h) for h in hs])

        def answers():
            return ([fit.type for fit in classify(hs)],
                    [(len(a.order2), len(a.order3), len(a.circle))
                     for a in cubics._symmetry_axes(cs, sq, cubics.TAU_AXIS)],
                    [len(singular_directions(h)) for h in hs])

        pruned = answers()
        monkeypatch.setattr(cubics, "_reach", lambda tol: math.inf)
        assert answers() == pruned
        assert len(set(pruned[0])) == 6

    @pytest.mark.parametrize("trace", [0.0, 0.9 * cubics._TAU_TRACE],
                             ids=["traceless", "at_trace_bound"])
    def test_screen_is_the_closed_form_of_the_components(self, trace):
        # the screen's squared components about random unit axes against
        # _components under every condition mask.
        # Measured on 20000 rows: 2e-15 when traceless; 2.4e-8 at 0.9 of
        # the admitted trace residual, where the closed form's tr M = 0
        # no longer holds, still far inside the screen's slack
        rng = np.random.default_rng(31)
        cs = np.array([random_cubic(rng).coeffs for _ in range(2000)])
        cs /= np.sqrt(cubics._rowdot(cubics.MULTIPLICITY * cs, cs))[:, None]
        v = rng.normal(size=(len(cs), 3))
        v *= trace / np.abs(v).max(axis=1, keepdims=True)
        cs += (cubics._TRACE_PART @ v[:, :, None])[:, :, 0]
        for c in cs[:20]:
            HarmonicCubic(c)  # admissible
        units = cs / np.sqrt(
            cubics._rowdot(cubics.MULTIPLICITY * cs, cs))[:, None]
        w = rng.normal(size=(len(cs), 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        comps = cubics._components(units, cubics._transport_matrices(w))
        bound = 1e-14 if trace == 0.0 else 1e-7
        assert bound <= 0.1 * cubics._SCREEN_SLACK
        for mask in cubics._CONDITION_MASKS:
            exact = (comps ** 2) @ mask
            closed = cubics._screen(units, w[:, None], (
                mask[[0, 1, 3, 5]] @ cubics._SCREEN_PARTS)[None])[:, 0]
            assert np.max(np.abs(closed - exact)) <= bound

    def test_screening_changes_no_census(self, monkeypatch):
        # a screen that puts every seed in reach hands all of them to the
        # refiner, whose exact starting functional then retires the ones
        # beyond the reach: every fit is the same bit for bit, and so are
        # the census and singular-direction counts; Circle within 0.99 tol
        # is the case whose best seed starts farthest out (_reach)
        rng = np.random.default_rng(29)
        hs = [h for _, h, kind, _, _ in CORPUS if kind is not ST.FULL]
        hs += [rotate(h, random_rotation(rng)) for h in hs]
        hs += [random_cubic(rng) for _ in range(200)]
        unit = cubics._BASIS7 / cubics.MULTIPLICITY
        for _ in range(10):
            p = HarmonicCubic(rng.normal(size=6) @ unit[1:])
            hs.append(rotate(P0 + p.scaled(0.99e-6 * P0.norm() / p.norm()),
                             random_rotation(rng)))
        cs = np.array([h.coeffs for h in hs])
        sq = np.array([h.inner(h) for h in hs])

        def answers():
            return (classify(hs),
                    [(len(a.order2), len(a.order3), len(a.circle))
                     for a in cubics._symmetry_axes(cs, sq, cubics.TAU_AXIS)],
                    [len(singular_directions(h)) for h in hs])

        screened = answers()
        monkeypatch.setattr(cubics, "_screen", lambda units, axes, coef:
                            np.zeros(axes.shape[:-1]))
        every = answers()
        assert all(same_fit(a, b) for a, b in zip(screened[0], every[0]))
        assert screened[1:] == every[1:]
        assert len({fit.type for fit in screened[0]}) == 6

    def test_refined_functional_never_exceeds_the_start(self):
        # a seed moves only on a step that lowers its functional, and every
        # functional comes from _functional, so every seed returns at most
        # its starting functional, exactly
        rng = np.random.default_rng(37)
        hs = [h for _, h, kind, _, _ in CORPUS if kind is not ST.FULL]
        hs += [rotate(h, random_rotation(rng)) for h in hs]
        hs += [random_cubic(rng) for _ in range(100)]
        cs = np.array([h.coeffs for h in hs])
        units = cs / np.sqrt(np.array([h.inner(h) for h in hs]))[:, None]
        seeds, kind, owner, _ = cubics._axis_seeds(
            cubics._maxwell_directions(cs), units)
        args = (units[owner], seeds, cubics._CONDITION_MASKS[kind])
        _, start = cubics._refine_axes(*args, -1.0)  # nothing in reach
        axes, final = cubics._refine_axes(*args, math.inf)
        assert np.all(final <= start)
        moved = np.any(axes != cubics._transport_matrices(seeds)[:, :, 2],
                       axis=1)
        assert np.all(final[moved] < start[moved])
        assert 0.5 * len(seeds) < moved.sum() < len(seeds)

    def test_refining_a_stack_equals_each_seed_alone(self):
        # seeds retire from the lockstep stack (before their trial step when
        # it is unusable), so each seed's search must not depend on the
        # others: the stack's axes and functionals equal each seed's own
        rng = np.random.default_rng(39)
        hs = [h for _, h, kind, _, _ in CORPUS if kind is not ST.FULL]
        hs += [rotate(h, random_rotation(rng)) for h in hs]
        hs += [random_cubic(rng) for _ in range(20)]
        cs = np.array([h.coeffs for h in hs])
        units = cs / np.sqrt(np.array([h.inner(h) for h in hs]))[:, None]
        seeds, kind, owner, _ = cubics._axis_seeds(
            cubics._maxwell_directions(cs), units)
        masks = cubics._CONDITION_MASKS[kind]
        axes, final = cubics._refine_axes(units[owner], seeds, masks,
                                          math.inf)
        for i in range(0, len(seeds), 3):
            one = cubics._refine_axes(units[owner[i:i + 1]], seeds[i:i + 1],
                                      masks[i:i + 1], math.inf)
            assert one[0].tobytes() == axes[i:i + 1].tobytes()
            assert one[1].tobytes() == final[i:i + 1].tobytes()

    def test_a_seed_whose_full_step_does_not_descend_retires_in_place(self):
        # the first node of the z3_family sweep, searched for an order-3
        # axis from (1, 1, 0)/sqrt2: the full Gauss-Newton step raises the
        # functional by 10% (a half step would lower it to 16%), so the
        # seed retires before its first step, with its seed axis and its
        # starting functional
        entry = gallery.default_gallery()["z3_family"]
        h = geometry.sweep(entry.patch, entry.default_counts)[0].cubic
        units = (h.coeffs / h.norm())[None]
        seed = np.array([[1.0, 1.0, 0.0]]) / math.sqrt(2.0)
        mask = cubics._CONDITION_MASKS[[2]]
        axes, final = cubics._refine_axes(units, seed, mask, 1.0)
        _, start = cubics._refine_axes(units, seed, mask, -1.0)
        assert np.array_equal(axes, cubics._transport_matrices(seed)[:, :, 2])
        assert final[0] == start[0]
        assert 0.4 < start[0] < 0.5

    def test_exact_normal_forms_start_at_the_floor_and_stay(self):
        # every axis of a Haar-rotated exact normal form, under its own
        # mask, at scales 10^[-3, 3]: the functional of the unit-norm rows
        # is rounding there (at most 1.7e-30 over 2000 rotations of each),
        # at or below _REFINE_FLOOR,
        # so the refiner hands every such seed back bit for bit with its
        # starting functional.  The floor stays 16 decades below the
        # acceptance level (TAU_AXIS * ||h||)^2
        assert cubics._REFINE_FLOOR <= 1e-16 * cubics.TAU_AXIS ** 2
        e = np.eye(3)
        cond = cubics._CONDITION_MASKS
        corners = np.array(list(itertools.product((1.0, -1.0), repeat=2)))
        tetra = np.c_[corners, np.ones(4)] / math.sqrt(3.0)
        third = np.array([[math.cos(a), math.sin(a), 0.0]
                          for a in (0.0, 2.0 * math.pi / 3.0,
                                    4.0 * math.pi / 3.0)])
        forms = [  # (cubic, [(axes, mask)])
            (P0, [(e[2:], cond[0])]),
            (XYZ6, [(e, cond[1]), (tetra, cond[2])]),
            (CUBE3, [(third, cond[1]), (e[2:], cond[2])]),
            (n_family(1.0, 2.0), [(e[2:], cond[1])]),
            (m_family(1.0, 3.0), [(e[2:], cond[2])]),
        ]
        rng = np.random.default_rng(43)
        units, seeds, masks = [], [], []
        for h, axes in forms:
            for _ in range(40):
                R = random_rotation(rng)
                g = rotate(h.scaled(rng.choice((1.0, -1.0))
                                    * 10.0 ** rng.uniform(-3.0, 3.0)), R)
                for ws, mask in axes:
                    seeds += list(ws @ R.entries)  # R^T w: axes of h(R x)
                    units += [g.coeffs / g.norm()] * len(ws)
                    masks += [mask] * len(ws)
        units, seeds, masks = map(np.array, (units, seeds, masks))
        _, start = cubics._refine_axes(units, seeds, masks, -1.0)
        assert start.max() <= cubics._REFINE_FLOOR
        axes, final = cubics._refine_axes(units, seeds, masks, math.inf)
        assert axes.tobytes() == cubics._transport_matrices(
            seeds)[:, :, 2].tobytes()
        assert final.tobytes() == start.tobytes()

    def test_census_logs_each_rejected_seed_at_debug(self, caplog):
        # 6xyz has cube axes only: its circle seeds all fail, and each
        # rejection is one DEBUG record with its functional and threshold
        with caplog.at_level(logging.DEBUG, logger="slag3.cubics"):
            find_symmetry_axes(XYZ6)
        rejected = [r.getMessage() for r in caplog.records
                    if r.name == "slag3.cubics"
                    and r.getMessage().startswith("axis seed")]
        assert rejected
        assert all("rejected: functional" in m and " above " in m
                   for m in rejected)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="slag3.cubics"):
            find_symmetry_axes(XYZ6)
        assert not caplog.records

    def test_refiner_jacobian_is_the_exact_chart_derivative(self):
        # slice 0 projects onto the components; slices 1 and 2 are their
        # derivatives along the chart coordinates xi0 and xi1, equal to a
        # central difference through the transports of (+-eps, 0, 1) and
        # (0, +-eps, 1), and byte for byte to the five-point rule on the
        # pullbacks by I + eps A with the chart's generator A
        op = cubics._REFINE_OP
        assert np.array_equal(op[0], cubics._BASIS7)
        eps = 1e-6
        eye = np.eye(10)
        for slot, (d, a) in enumerate(((np.array([1.0, 0.0]), [0.0, 1.0, 0.0]),
                                       (np.array([0.0, 1.0]), [-1.0, 0.0, 0.0])),
                                      start=1):
            plus, minus = cubics._transport_matrices(
                [np.r_[eps * d, 1.0], np.r_[-eps * d, 1.0]])
            diff = (cubics._pullback(eye, plus)
                    - cubics._pullback(eye, minus)).T / (2.0 * eps)
            assert np.max(np.abs(op[slot] - cubics._BASIS7 @ diff)) <= 1e-10
            exact = cubics._BASIS7 @ five_point_generator(
                cubics._cross_matrix(a))
            assert op[slot].tobytes() == exact.tobytes()


# ---------------------------------------------------------------------------
# classify


class TestClassify:
    @pytest.mark.parametrize("name,h,expected,r,s",
                             CORPUS, ids=[c[0] for c in CORPUS])
    def test_corpus(self, name, h, expected, r, s):
        fit = classify(h)
        assert fit.type is expected
        if expected not in (ST.FULL, ST.TRIVIAL):
            assert fit.r == pytest.approx(r, abs=1e-6)
            assert fit.s == pytest.approx(s, abs=1e-6)
            assert fit.residual <= 1e-6 * h.norm()

    @pytest.mark.parametrize("name,h,expected,r,s",
                             [c for c in CORPUS if c[2] not in
                              (ST.FULL, ST.TRIVIAL)],
                             ids=[c[0] for c in CORPUS if c[2] not in
                                  (ST.FULL, ST.TRIVIAL)])
    def test_rotation_carries_to_normal_form(self, name, h, expected, r, s):
        fit = classify(h)
        target = normal_form(fit.type, fit.r, fit.s)
        diff = rotate(h, fit.rotation) - target
        assert diff.norm() <= 1e-6 * h.norm()

    def test_boundary_distances_reported(self):
        z2 = classify(n_family(1.0, 2.0))
        assert z2.dist_s_minus_r == pytest.approx(1.0, abs=1e-9)
        z3 = classify(m_family(1.0, 3.0))
        assert z3.dist_s_minus_rsqrt2 == pytest.approx(3.0 - math.sqrt(2.0),
                                                       abs=1e-9)

    def test_json_dict_carries_every_field(self):
        fit = classify(n_family(1.0, 2.0))
        out = fit.to_json_dict()
        assert json.loads(json.dumps(out)) == out
        assert out["type"] == fit.type.value == "Z2"
        assert out["rotation"] == fit.rotation.entries.ravel().tolist()
        assert (out["r"], out["s"], out["residual"]) == (fit.r, fit.s,
                                                         fit.residual)
        assert out["dist_s_minus_r"] == fit.dist_s_minus_r
        assert out["dist_s_minus_rsqrt2"] == fit.dist_s_minus_rsqrt2

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        # the threshold is (tol * ||h||)^2: NaN would call the Z2 form
        # Trivial and -1 would call it Circle
        with pytest.raises(ValueError, match="tol must be finite"):
            classify(n_family(1.0, 2.0), tol=tol)
        with pytest.raises(ValueError, match="tol must be finite"):
            classify([n_family(1.0, 2.0), HarmonicCubic.zero()], tol=tol)
        with pytest.raises(ValueError, match="tol must be finite"):
            classify([HarmonicCubic.zero()], tol=tol)

    def test_runtime_under_one_second(self):
        import time
        for _, h, _, _, _ in CORPUS:
            start = time.perf_counter()
            classify(h)
            assert time.perf_counter() - start < 1.0


class TestClassifyProperties:
    def test_orbit_invariance(self):
        rng = np.random.default_rng(13)
        for name, h, expected, _, _ in CORPUS:
            if expected is ST.FULL:
                continue
            ref = classify(h)
            scale = h.norm()
            for _ in range(200):
                fit = classify(rotate(h, random_rotation(rng)))
                assert fit.type is expected, name
                assert abs(fit.r - ref.r) <= 1e-6 * scale
                assert abs(fit.s - ref.s) <= 1e-6 * scale

    def test_sign_invariance(self):
        for name, h, expected, _, _ in CORPUS:
            flipped = classify(HarmonicCubic(-h.coeffs))
            assert flipped.type is expected, name

    def test_near_collapse_lines(self):
        # n(1, 1 +- d) and m(1, sqrt2 +- d) have nearly double Maxwell
        # directions; the type and (r, s) must not depend on the orientation
        rng = np.random.default_rng(17)
        for d in [10.0 ** -k for k in range(3, 10)]:
            for h in (n_family(1.0, 1.0 + d), n_family(1.0, 1.0 - d),
                      m_family(1.0, math.sqrt(2.0) + d),
                      m_family(1.0, math.sqrt(2.0) - d)):
                ref = classify(h)
                scale = h.norm()
                for _ in range(20):
                    fit = classify(rotate(h, random_rotation(rng)))
                    assert fit.type is ref.type, (d, ref.type)
                    assert abs(fit.r - ref.r) <= 1e-6 * scale
                    assert abs(fit.s - ref.s) <= 1e-6 * scale

    def test_near_collapse_keeps_the_one_axis_type(self):
        # 1e-3 from a collapse line is far outside tol * ||h||, so the axes
        # that S3 / A4 would add are no symmetry axes
        R = Rotation3.about_axis([1.0, 2.0, -1.0], 0.8)
        near = rotate(n_family(1.0, 1.001), R)
        z2 = classify(near)
        assert z2.type is ST.Z2
        assert z2.r == pytest.approx(1.0, abs=1e-9)
        assert z2.s == pytest.approx(1.001, abs=1e-9)
        # a tolerance above the distance admits the collapsed symmetry
        assert classify(near, tol=1e-2).type is ST.S3
        z3 = classify(rotate(m_family(1.0, math.sqrt(2.0) + 1e-3), R))
        assert z3.type is ST.Z3
        assert z3.r == pytest.approx(1.0, abs=1e-9)
        assert z3.s == pytest.approx(math.sqrt(2.0) + 1e-3, abs=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=st.sampled_from([c for c in CORPUS if c[2] is not ST.FULL]),
           seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 150.0),
           sign=st.sampled_from((1.0, -1.0)))
    def test_dilation_rotation_sign_invariance(self, case, seed, exponent,
                                               sign):
        name, h, expected, r, s = case
        lam = 10.0 ** exponent
        moved = rotate(h.scaled(sign * lam),
                       random_rotation(np.random.default_rng(seed)))
        fit = classify(moved)
        assert fit.type is expected, name
        bound = 1e-6 * lam * h.norm()
        assert abs(fit.r - lam * r) <= bound, name
        assert abs(fit.s - lam * s) <= bound, name

    @pytest.mark.parametrize("name", ["xyz", "m1r2"])
    def test_a4_is_fitted_as_z2_at_r_zero_about_an_order2_axis(self, name):
        # A4's normal form is Z2's at r = 0, and the fit takes Z2's turn
        # about z: the first order-2 axis goes to z, the other two to x, y
        _, h, _, _, s = next(c for c in CORPUS if c[0] == name)
        rng = np.random.default_rng(29)
        moved = [rotate(h.scaled(rng.choice((-1.0, 1.0))
                                 * 10.0 ** rng.uniform(-3.0, 3.0)),
                        random_rotation(rng)) for _ in range(24)]
        for g, seq in zip(moved, classify(moved)):
            fit, norm = classify(g), g.norm()
            assert same_fit(seq, fit)
            assert fit.type is ST.A4 and fit.r == 0.0
            assert fit.s == pytest.approx(s * norm / h.norm(), rel=1e-12)
            assert fit.residual <= 1e-12 * norm
            # raw coefficients: the difference need not pass the trace check
            d = (rotate(g, fit.rotation).coeffs
                 - normal_form(ST.A4, 0.0, fit.s).coeffs)
            assert math.sqrt(cubics.MULTIPLICITY @ (d * d)) <= 1e-12 * norm
            z = fit.rotation.entries[:, 2]
            assert min(np.linalg.norm(z - w)
                       for w, _ in find_symmetry_axes(g).order2) <= 1e-12

    def test_scale_equivariance(self):
        for lam in (0.37, 5.0):
            for name, h, expected, _, _ in CORPUS:
                if expected is ST.FULL:
                    continue
                ref = classify(h)
                fit = classify(h.scaled(lam))
                assert fit.type is expected, name
                assert fit.r == pytest.approx(lam * ref.r, abs=1e-6 * lam)
                assert fit.s == pytest.approx(lam * ref.s, abs=1e-6 * lam)

    def test_a_norm_of_1e150_gives_the_unit_scale_answer(self):
        # the axis search runs on unit-norm rows, so neither classify nor
        # singular_directions overflows (warnings are errors in this suite)
        h = rotate(normal_form(ST.Z2, 1.0, 2.0),
                   Rotation3.about_axis([1.0, 2.0, -1.0], 0.8))
        big = h.scaled(1e150)
        fit = classify(big)
        assert fit.type is ST.Z2
        assert fit.r == pytest.approx(1e150, rel=1e-12)
        assert fit.s == pytest.approx(2e150, rel=1e-12)
        dirs, ref = singular_directions(big), singular_directions(h)
        assert len(dirs) == len(ref) == 2
        for d, w in zip(dirs, ref):
            assert np.linalg.norm(d - w) < 1e-12

    @pytest.mark.parametrize("lam", [1e154, 1e200])
    def test_an_overflowing_norm_raises(self, lam):
        # the squared norm is inf: a typed error, not Trivial or a third
        # singular direction
        h = rotate(normal_form(ST.Z2, 1.0, 2.0),
                   Rotation3.about_axis([1.0, 2.0, -1.0], 0.8))
        big = h.scaled(lam)
        for entry in (classify, singular_directions, find_symmetry_axes):
            with pytest.raises(ValueError, match="norm overflows"):
                entry(big)
        fits = classify([big, h])
        assert type(fits[0]) is ValueError
        assert "norm overflows" in str(fits[0])
        assert same_fit(fits[1], classify(h))

    @pytest.mark.parametrize("tol", [1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("modes", [(1, 2), (3, 4), (5, 6),
                                       (1, 2, 3, 4, 5, 6)],
                             ids=["c1", "c2", "c3", "random"])
    def test_circle_within_tol_stays_circle(self, tol, modes):
        # Circle plus a non-axial term of norm 0.99 tol ||h||: the best seed
        # of the axis starts at a functional near tol^(2/3), well within the
        # reach 100 tol^(2/3)
        rng = np.random.default_rng(int(1e6 * tol) + len(modes))
        unit = cubics._BASIS7 / cubics.MULTIPLICITY  # orthonormal components
        for _ in range(10):
            p = HarmonicCubic(rng.normal(size=len(modes)) @ unit[list(modes)])
            h = P0 + p.scaled(0.99 * tol * P0.norm() / p.norm())
            fit = classify(rotate(h, random_rotation(rng)), tol=tol)
            assert fit.type is ST.CIRCLE


def same_fit(a, b):
    """Bit-for-bit equality of two NormalFormResults."""
    return (a.type is b.type
            and a.rotation.entries.tobytes() == b.rotation.entries.tobytes()
            and (a.r, a.s, a.residual, a.dist_s_minus_r,
                 a.dist_s_minus_rsqrt2)
            == (b.r, b.s, b.residual, b.dist_s_minus_r,
                b.dist_s_minus_rsqrt2))


# a refine chunk small enough that short sequences cross several boundaries
SMALL_CHUNK = 4


class TestClassifyBatch:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(17, 40),
           zero_at=st.integers(0, 39))
    def test_sequence_equals_one_call_per_cubic(self, seed, count, zero_at):
        # every type, one zero cubic, scales 10^[-8, 8], over several
        # refine chunks (shrunk to SMALL_CHUNK so the sequence stays short)
        rng = np.random.default_rng(seed)
        typed = [c for c in CORPUS if c[2] is not ST.FULL]
        hs = [rotate(typed[i % len(typed)][1].scaled(
                  rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 8.0)),
                  random_rotation(rng))
              for i in range(count)]
        hs[zero_at % count] = HarmonicCubic.zero()
        assert count > 4 * SMALL_CHUNK
        with mock.patch.object(cubics, "_AXIS_CHUNK", SMALL_CHUNK):
            fits = classify(hs)
        assert isinstance(fits, list) and len(fits) == count
        assert {f.type for f in fits} == set(ST)
        for h, fit in zip(hs, fits):
            assert same_fit(fit, classify(h))

    def test_failed_census_stays_with_its_cubic(self, monkeypatch):
        hs = [rotate(h, Rotation3.about_axis([1.0, 2.0, 0.5], 0.3))
              for _, h, expected, _, _ in CORPUS if expected is not ST.FULL]
        alone = [classify(h) for h in hs]
        real = cubics._symmetry_axes

        def census_fails_on_third(cs, sq, tol):
            # two order-2 axes alone match no stabilizer pattern
            return [cubics.SymmetryAxes(order2=axes.order2[:2], order3=(),
                                        circle=())
                    if np.array_equal(c, hs[2].coeffs) else axes
                    for c, axes in zip(cs, real(cs, sq, tol))]

        monkeypatch.setattr(cubics, "_symmetry_axes", census_fails_on_third)
        fits = classify(hs)
        assert isinstance(fits[2], cubics.CensusError)
        assert len(fits[2].census["order2"]) == 2
        for i, fit in enumerate(fits):
            if i != 2:
                assert same_fit(fit, alone[i])
        with pytest.raises(cubics.CensusError,
                           match=r"\(2 order-2, 0 order-3\) matches no"):
            classify(hs[2])

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(picks=st.lists(st.tuples(st.integers(0, 15),
                                    st.integers(0, 2 ** 32 - 1),
                                    st.floats(-8.0, 8.0),
                                    st.sampled_from((1.0, -1.0))),
                          min_size=17, max_size=34))
    def test_chunks_mix_exact_forms_and_random_cubics(self, picks):
        # the exact unrotated forms (and the zero cubic) have sextics that
        # lose leading or trailing coefficients; the rest are rotated random
        # cubics, and the sequence crosses several chunk boundaries
        exact = [h for _, h, kind, _, _ in CORPUS if kind is not ST.TRIVIAL]
        hs = []
        for pick, seed, exponent, sign in picks:
            lam = sign * 10.0 ** exponent
            if pick < len(exact):
                hs.append(exact[pick].scaled(lam))
            else:
                rng = np.random.default_rng(seed)
                hs.append(rotate(random_cubic(rng).scaled(lam),
                                 random_rotation(rng)))
        assert len(hs) > 4 * SMALL_CHUNK
        with mock.patch.object(cubics, "_AXIS_CHUNK", SMALL_CHUNK):
            fits = classify(hs)
        for h, fit in zip(hs, fits):
            try:
                alone = classify(h)
            except ValueError as exc:
                assert type(fit) is type(exc) and str(fit) == str(exc)
                continue
            assert same_fit(fit, alone)
            m = fit.rotation.entries
            assert np.linalg.norm(m.T @ m - np.eye(3)) <= 1e-9
            assert abs(np.linalg.det(m) - 1.0) <= 1e-9

    def test_empty_sequence(self):
        assert classify([]) == []


class TestDedupe:
    """The merge of candidate axes that find_symmetry_axes and
    singular_directions share."""

    def test_antipodes_merge_with_canonical_sign(self):
        w = np.array([0.0, -0.6, 0.8])
        kept, axes = cubics._dedupe(np.array([w, -w]), np.array([2.0, 1.0]))
        assert list(kept) == [1]
        assert np.array_equal(axes[1], [0.0, 0.6, -0.8])

    @pytest.mark.parametrize("factor,count", [(0.999, 1), (1.001, 2)])
    def test_merge_angle_boundary(self, factor, count):
        d = factor * cubics._MERGE_ANGLE
        kept, _ = cubics._dedupe(np.array([[1.0, 0.0, 0.0], [1.0, d, 0.0]]),
                                 np.array([1.0, 2.0]))
        assert len(kept) == count

    def test_lowest_residual_wins(self):
        near = np.array([[1.0, 0.0, 0.0], [1.0, 1e-6, 0.0],
                         [-1.0, 0.0, 2e-6]])
        kept, _ = cubics._dedupe(near, np.array([3.0, 1.0, 2.0]))
        assert list(kept) == [1]

    def test_a_dropped_axis_does_not_drop_others(self):
        # a - b and b - c are within the merge angle, a - c is not: b goes
        # with a, and c stays, being close only to the dropped b
        d = 0.6 * cubics._MERGE_ANGLE
        chain = np.array([[1.0, 0.0, 0.0], [1.0, d, 0.0], [1.0, 2 * d, 0.0]])
        kept, _ = cubics._dedupe(chain, np.array([1.0, 2.0, 3.0]))
        assert list(kept) == [0, 2]

    def test_output_in_rounded_coordinate_order(self):
        axes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.6, 0.8, 0.0]])
        kept, out = cubics._dedupe(axes, np.array([1.0, 2.0, 3.0, 4.0]))
        assert list(kept) == [0, 2, 3, 1]
        keys = [tuple(np.round(out[i], 9)) for i in kept]
        assert keys == sorted(keys)

    def test_groups_merge_apart(self):
        w = np.array([[0.0, 0.0, 1.0]] * 3)
        kept, _ = cubics._dedupe(w, np.array([1.0, 2.0, 3.0]),
                                 np.array([1, 0, 1]))
        assert list(kept) == [1, 0]

    def test_empty(self):
        kept, axes = cubics._dedupe(np.zeros((0, 3)), np.zeros(0))
        assert kept.shape == (0,) and axes.shape == (0, 3)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), clusters=st.integers(1, 4),
           size=st.integers(1, 12))
    def test_equals_the_greedy_loop(self, seed, clusters, size):
        # clusters of candidates spread over about the merge angle, so that
        # chains occur, with random signs and tied residuals
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(clusters, 3))
        axes = (centers[rng.integers(0, clusters, size)]
                / np.linalg.norm(centers, axis=1).max()
                + rng.normal(size=(size, 3)) * cubics._MERGE_ANGLE)
        axes *= rng.choice((-1.0, 1.0), size=(size, 1))
        res = rng.integers(0, 4, size).astype(float)
        groups = rng.integers(0, 2, size)
        kept, out = cubics._dedupe(axes, res, groups)
        expected = []
        for g in (0, 1):
            expected += dedupe_reference(axes[groups == g], res[groups == g])
        assert [(out[i].tobytes(), res[i]) for i in kept] == [
            (w.tobytes(), r) for w, r in expected]
        # without groups, all candidates are one group
        kept, out = cubics._dedupe(axes, res)
        assert [(out[i].tobytes(), res[i]) for i in kept] == [
            (w.tobytes(), r) for w, r in dedupe_reference(axes, res)]


def dedupe_reference(axes, res):
    """The merge of _dedupe, one candidate at a time."""
    held = []
    for w, r in sorted(zip(axes, res), key=lambda p: p[1]):
        for v in w:
            if abs(v) > 1e-8:
                w = w if v > 0 else -w
                break
        if all(min(((u - w) ** 2).sum(), ((u + w) ** 2).sum())
               >= cubics._MERGE_ANGLE * cubics._MERGE_ANGLE for u, _ in held):
            held.append((w, r))
    return sorted(held, key=lambda p: tuple(np.round(p[0], 9)))


# ---------------------------------------------------------------------------
# singular_directions


# the components c0 and c1 about an axis w, which vanish exactly when the
# gradient does at w: a Gauss-Newton reference for its zeros
GRADIENT_MASK = np.array([[1, 1, 1, 0, 0, 0, 0.0]])


def refuse_to_refine(*args):
    raise AssertionError("singular_directions called the refiner")


def near_collapse(rng, k, sign, family, copies):
    """Haar rotations of n(1, 1 + d) or m(1, sqrt2 (1 + d)), d = sign 10^-k:
    within d of the collapses to S3 and A4."""
    d = sign * 10.0 ** -k
    h = (n_family(1.0, 1.0 + d) if family == "n"
         else m_family(1.0, math.sqrt(2.0) * (1.0 + d)))
    return [rotate(h, random_rotation(rng)) for _ in range(copies)]


class TestSingularDirections:
    def test_z2_lines_in_closed_form_to_rounding(self):
        # on n(r, s), s > r, the gradient vanishes only on the two lines of
        # z = 0 at sin(2 phi) = r/s.  The roots of the sextic's derivative
        # give them to rounding over Haar rotations, signs and scales
        # 10^[-3, 3]; measured: at most 1.3e-13 at s/r = 1.001, where the
        # lines are 0.09 rad apart, and 2e-15 from s/r = 1.1
        rng = np.random.default_rng(53)
        ratios = np.r_[1.001, 1.01, 1.1,
                       10.0 ** rng.uniform(math.log10(1.001), 4.0, 300)]
        for q in ratios:
            r = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
            R = random_rotation(rng)
            dirs = singular_directions(rotate(n_family(r, q * r), R))
            assert len(dirs) == 2
            phi = 0.5 * math.asin(1.0 / q)
            for a in (phi, 0.5 * math.pi - phi):
                w = R.entries.T @ np.array([math.cos(a), math.sin(a), 0.0])
                err = min(min(np.linalg.norm(d - w), np.linalg.norm(d + w))
                          for d in dirs)
                assert err <= (1e-14 if q >= 1.1 else 1e-12), q

    def test_every_direction_is_a_gauss_newton_fixed_point(self):
        # a Gauss-Newton search for the zeros of c0 and c1 started at each
        # returned direction leaves it where it is (measured: at most
        # 4.5e-16).  Within about 1e-4 of a collapse line the two lines
        # nearly meet, the functional is flat to rounding there, and the
        # search drifts (1e-12 at n(1, 1 + 1e-4)), so it is no reference
        rng = np.random.default_rng(57)
        hs = [h for _, h, kind, _, _ in CORPUS if kind is not ST.FULL]
        hs += [rotate(h.scaled(10.0 ** rng.uniform(-3.0, 3.0)),
                      random_rotation(rng)) for h in hs for _ in range(5)]
        hs += [rotate(n_family(1.0, q), random_rotation(rng))
               for q in 10.0 ** rng.uniform(math.log10(1.1), 4.0, 50)]
        count = 0
        for h in hs:
            for w in singular_directions(h):
                axes, _ = cubics._refine_axes((h.coeffs / h.norm())[None],
                                              w[None], GRADIENT_MASK,
                                              math.inf)
                assert min(np.linalg.norm(axes[0] - w),
                           np.linalg.norm(axes[0] + w)) <= 1e-14
                count += 1
        assert count > 100

    @pytest.mark.parametrize("case", ["cube", "xyz", "axial",
                                      "corpus_rotated", "gaussian",
                                      "near_collapse"])
    def test_exact_forms_take_no_refine(self, monkeypatch, case):
        # singular_directions searches nothing: its directions come in
        # closed form, on exact forms, their Haar rotations at scales
        # 10^[-3, 3], Gaussian cubics and cubics near the collapse lines
        rng = np.random.default_rng(59)
        cases = {
            "cube": lambda: [(CUBE3, 1)],
            "xyz": lambda: [(XYZ6, 3)],
            "axial": lambda: [(P0, 0)],
            "corpus_rotated": lambda: [
                (rotate(h.scaled(10.0 ** rng.uniform(-3.0, 3.0)),
                        random_rotation(rng)), SINGULAR_COUNT[name])
                for name, h, kind, _, _ in CORPUS if kind is not ST.FULL
                for _ in range(5)],
            "gaussian": lambda: [(random_cubic(rng), 0) for _ in range(200)],
            "near_collapse": lambda: [
                (h, None) for k in range(2, 11) for sign in (1.0, -1.0)
                for h in near_collapse(rng, k, sign, "n", 2)],
        }
        monkeypatch.setattr(cubics, "_refine_axes", refuse_to_refine)
        for h, count in cases[case]():
            dirs = singular_directions(h)
            assert count is None or len(dirs) == count

    @pytest.mark.parametrize("k", range(2, 11))
    def test_counts_near_the_collapse_lines(self, k):
        # pinned per d = 10^-k over Haar rotations.  The exact counts are
        # 2 on n(1, 1 + d), 0 on n(1, 1 - d) and on the Z3 cubics
        # m(1, sqrt2 (1 +- d)).  Within about 1e-6 of the collapse the
        # tolerance ||grad h|| <= 1e-6 ||h|| also admits near-zeros: the
        # saddle (1, 1, 0)/sqrt2 between the two lines of n(1, 1 +- d), and
        # the three axes of the A4 collapse on m.  Below 1e-8 the two lines
        # of n(1, 1 + d) are within the merge angle and come back as one
        rng = np.random.default_rng(61)
        plus = 2 if k <= 5 or k == 8 else 3 if k <= 7 else 1
        near = 0 if k <= 5 else 1
        expected = {("n", 1.0): plus, ("n", -1.0): near,
                    ("m", 1.0): 3 * near, ("m", -1.0): 3 * near}
        for (family, sign), count in expected.items():
            for h in near_collapse(rng, k, sign, family, 6):
                assert len(singular_directions(h)) == count, (family, sign)

    def test_xyz_coordinate_axes(self):
        dirs = singular_directions(XYZ6)
        got = {tuple(np.round(w, 6)) for w in dirs}
        assert got == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}

    def test_cube_z_axis_only(self):
        dirs = singular_directions(CUBE3)
        assert len(dirs) == 1
        assert np.allclose(dirs[0], [0.0, 0.0, 1.0], atol=1e-8)

    def test_axial_cubic_none(self):
        # oracle: a dense sphere scan keeps the gradient norm far from zero
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(100_000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        grads = 3.0 * np.einsum("pjk,nj,nk->np", P0.tensor, pts, pts)
        assert np.linalg.norm(grads, axis=1).min() > 1.0
        assert singular_directions(P0) == []

    def test_gradient_small_at_results(self):
        h = rotate(XYZ6, Rotation3.about_axis([1.0, 1.0, 0.0], 1.2))
        for w in singular_directions(h):
            _, grad = evaluate_and_gradient(h, w)
            assert np.linalg.norm(grad) <= 1e-6 * h.norm()

    def test_count_at_most_three_and_three_implies_special(self):
        rng = np.random.default_rng(15)
        for name, h, expected, _, _ in CORPUS:
            if expected is ST.FULL:
                continue
            dirs = singular_directions(h)
            assert len(dirs) <= 3
            if len(dirs) == 3:
                assert expected in (ST.A4, ST.S3, ST.FULL), name
        for _ in range(5):
            h = random_cubic(rng)
            assert len(singular_directions(h)) <= 3

    def test_z2_two_lines_in_the_equator(self):
        # on n(1, s) the gradient vanishes only in z = 0, where
        # -3(x^2 + y^2) + 6s xy = 0: the lines at sin(2 theta) = 1/s
        rng = np.random.default_rng(18)
        assert singular_directions(n_family(1.0, 0.5)) == []
        for s in (1.5, 3.0):
            theta = 0.5 * math.asin(1.0 / s)
            lines = [np.array([math.cos(a), math.sin(a), 0.0])
                     for a in (theta, 0.5 * math.pi - theta)]
            for _ in range(5):
                R = random_rotation(rng)
                dirs = singular_directions(rotate(n_family(1.0, s), R))
                assert len(dirs) == 2
                for line in lines:
                    w = R.entries.T @ line
                    assert min(min(np.linalg.norm(d - w),
                                   np.linalg.norm(d + w))
                               for d in dirs) < 1e-6

    def test_circle_type_has_no_singular_direction(self):
        h = rotate(P0.scaled(2.5), Rotation3.about_axis([1.0, 0.0, 1.0], 0.7))
        assert singular_directions(h) == []

    def test_count_holds_at_small_scale(self):
        # the tolerance is relative to ||h||, so a degenerate singular
        # point still counts at ||h|| ~ 1e-8
        assert len(singular_directions(CUBE3.scaled(1e-8))) == 1
        R = Rotation3.about_axis([1.0, 2.0, -1.0], 0.8)
        assert len(singular_directions(rotate(n_family(1.0, 1.0), R)
                                       .scaled(1e-8))) == 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(collapse=st.booleans(), r=st.floats(0.2, 5.0),
           seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 8.0),
           sign=st.sampled_from((1.0, -1.0)))
    def test_exact_cone_returns_its_vertex_alone(self, collapse, r, seed,
                                                 exponent, sign):
        # S3 and its collapse n(r, r) are cones: one seed, the vertex
        h = n_family(r, r) if collapse else CUBE3.scaled(r)
        h = rotate(h.scaled(sign * 10.0 ** exponent),
                   random_rotation(np.random.default_rng(seed)))
        assert len(cubics._singular_seeds(h.tensor)) == 1
        dirs = singular_directions(h)
        assert len(dirs) == 1
        _, grad = evaluate_and_gradient(h, dirs[0])
        assert np.linalg.norm(grad) <= 1e-12 * h.norm()

    def test_near_cone_takes_the_pencil(self):
        # 1e-3 from the collapse line the slice matrix is far from rank 2,
        # so the pencil seeds run and the counts stay 2 (s > r) and 0
        for s, count in ((1.001, 2), (0.999, 0)):
            h = rotate(n_family(1.0, s),
                       Rotation3.about_axis([1.0, 2.0, -1.0], 0.8))
            assert len(cubics._singular_seeds(h.tensor)) > 1
            assert len(singular_directions(h)) == count

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=st.sampled_from([c for c in CORPUS if c[2] is not ST.FULL]),
           seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-8.0, 150.0),
           sign=st.sampled_from((1.0, -1.0)))
    def test_rotation_sign_dilation_equivariance(self, case, seed, exponent,
                                                 sign):
        name, h, _, _, _ = case
        R = random_rotation(np.random.default_rng(seed))
        moved = rotate(h.scaled(sign * 10.0 ** exponent), R)
        ref = singular_directions(h)
        dirs = singular_directions(moved)
        assert len(ref) == len(dirs) == SINGULAR_COUNT[name], name
        # h(R x) is singular at x exactly when h is singular at R x
        for w in ref:
            v = R.entries.T @ w
            assert min(min(np.linalg.norm(d - v), np.linalg.norm(d + v))
                       for d in dirs) < 1e-6, name

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_ratio=st.floats(-1.0, 1.0),
           phase2=st.floats(0.0, 2.0 * math.pi),
           phase3=st.floats(0.0, 2.0 * math.pi))
    def test_nodal_cubic_has_its_node_only(self, seed, log_ratio, phase2,
                                           phase3):
        # c2 and c3 about z, no c0 or c1: a nodal cubic with its node at z
        rho2 = 10.0 ** log_ratio
        c = (rho2 * math.cos(phase2) * cubics._Q2A / cubics._NORM_Q2A
             + rho2 * math.sin(phase2) * cubics._Q2B / cubics._NORM_Q2B
             + math.cos(phase3) * cubics._Q3A / cubics._NORM_Q3
             + math.sin(phase3) * cubics._Q3B / cubics._NORM_Q3)
        R = random_rotation(np.random.default_rng(seed))
        h = rotate(HarmonicCubic(c), R.transpose())  # node at R z
        w = R.entries[:, 2]
        dirs = singular_directions(h)
        assert len(dirs) == 1
        assert min(np.linalg.norm(dirs[0] - w),
                   np.linalg.norm(dirs[0] + w)) < 1e-8


# ---------------------------------------------------------------------------
# linear factors, read from the normal-form fit


def _divide_by_linear_reference(h, ell):
    """The quotient system built column by column, as sym(ell (x) E_pq)."""
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    cols = []
    for p, q in pairs:
        e = np.zeros((3, 3))
        e[p, q] = e[q, p] = 1.0
        prod = (np.einsum("i,jk->ijk", ell, e) + np.einsum("j,ik->ijk", ell, e)
                + np.einsum("k,ij->ijk", ell, e)) / 3.0
        cols.append(prod.reshape(-1))
    a = np.stack(cols, axis=1)
    b = h.tensor.reshape(-1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    quad = np.zeros((3, 3))
    for (p, q), v in zip(pairs, sol):
        quad[p, q] = quad[q, p] = v
    return quad, float(np.linalg.norm(a @ sol - b))


# the normal-form coordinate that divides each reducible type: z for Circle,
# Z2 and A4 (z(2z^2-3x^2-3y^2), 6xyz), x for S3 (x(x^2-3y^2))
_FACTOR_COLUMN = {ST.CIRCLE: 2, ST.Z2: 2, ST.A4: 2, ST.S3: 0}


def test_fit_holds_a_linear_factor_exactly_when_an_order2_axis_exists():
    # a cubic is reducible exactly when it has an order-2 or circle axis;
    # then the fit's rotation carries the factor as one of its columns
    rng = np.random.default_rng(16)
    for name, h, expected, _, _ in CORPUS:
        if expected is ST.FULL:
            continue
        for _ in range(3):
            hr = rotate(h, random_rotation(rng))
            fit = classify(hr)
            axes = find_symmetry_axes(hr)
            has_axis = bool(axes.order2 or axes.circle)
            assert (fit.type in _FACTOR_COLUMN) == has_axis, name
            if has_axis:
                ell = fit.rotation.entries[:, _FACTOR_COLUMN[fit.type]]
                _, remainder = _divide_by_linear_reference(hr, ell)
                assert remainder <= 1e-6 * hr.norm(), name


def test_z3_normal_form_has_no_factor_z():
    _, remainder = _divide_by_linear_reference(m_family(1.0, 3.0),
                                               np.array([0.0, 0.0, 1.0]))
    assert remainder > 1e-2
