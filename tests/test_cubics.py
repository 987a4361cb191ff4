"""Tests for the cubic-algebra layer: types, decomposition, classification."""

import collections
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slag3 import cubics
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

    def test_transport_rotation_carries_z_to_axis(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            R = transport_rotation(w)
            assert np.allclose(R.entries @ self.Z, w, atol=1e-12)


# ---------------------------------------------------------------------------
# find_symmetry_axes


def axis_set(entries):
    return {tuple(np.round(w, 6)) for w, _ in entries}


def maxwell_reference(c):
    """Maxwell directions of one cubic, computed one at a time: np.roots and
    a greedy walk over the argsorted gaps."""
    roots = np.roots((cubics._SEXTIC @ c)[::-1])
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


class TestFindSymmetryAxes:
    def test_stacked_maxwell_directions_equal_one_at_a_time(self):
        # exact forms lose sextic degree (the Circle sextic is one monomial);
        # every vector must match bit for bit, signs included
        rng = np.random.default_rng(5)
        hs = [h.scaled(lam) for _, h, kind, _, _ in CORPUS
              if kind is not ST.FULL for lam in (1.0, -3.0, 1e-7)]
        hs += [rotate(random_cubic(rng).scaled(10.0 ** rng.uniform(-8, 8)),
                      random_rotation(rng)) for _ in range(40)]
        hs += [rotate(h, random_rotation(rng)) for _, h, kind, _, _ in CORPUS
               if kind is not ST.FULL]
        stacked = cubics._maxwell_directions(np.array([h.coeffs for h in hs]))
        for h, v in zip(hs, stacked):
            assert v.tobytes() == maxwell_reference(h.coeffs).tobytes()

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

    def test_one_lockstep_refine_per_search(self, monkeypatch):
        # each search polishes all of its seeds in one call of the refiner:
        # the circle, order-2 and order-3 seeds together, or the gradient
        # seeds
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
        assert len(calls) == 2
        # classify decides from the one census of its single search, also
        # for cubics near a collapse line
        assert classify(h).type is ST.Z3
        assert len(calls) == 3
        near = rotate(n_family(1.0, 1.0 + 1e-7),
                      Rotation3.about_axis([1.0, 2.0, -1.0], 0.8))
        assert classify(near).type is ST.S3
        assert len(calls) == 4

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

    def test_refiner_jacobian_is_the_exact_chart_derivative(self):
        # slice 0 projects onto the components; slices 1 and 2 are their
        # derivatives along the chart coordinates xi0 and xi1, equal to a
        # central difference through the transports of (+-eps, 0, 1) and
        # (0, +-eps, 1), and to the contraction 3 h(A ., ., .) with the
        # chart's generator A, summed over the three legs
        op = cubics._REFINE_OP
        assert np.array_equal(op[0], cubics._BASIS7)
        eps = 1e-6
        eye = np.eye(10)
        full = cubics._full(eye)
        for slot, (d, a) in enumerate(((np.array([1.0, 0.0]), [0.0, 1.0, 0.0]),
                                       (np.array([0.0, 1.0]), [-1.0, 0.0, 0.0])),
                                      start=1):
            plus, minus = cubics._transport_matrices(
                [np.r_[eps * d, 1.0], np.r_[-eps * d, 1.0]])
            diff = (cubics._pullback(eye, plus)
                    - cubics._pullback(eye, minus)).T / (2.0 * eps)
            assert np.max(np.abs(op[slot] - cubics._BASIS7 @ diff)) <= 1e-10
            gen = cubics._cross_matrix(a)
            leg = np.einsum("nljk,li->nijk", full, gen)
            direct = (leg + leg.transpose(0, 2, 1, 3)
                      + leg.transpose(0, 2, 3, 1))
            exact = cubics._BASIS7 @ cubics._gather(direct).T
            assert np.max(np.abs(op[slot] - exact)) <= 1e-14


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


class TestSingularDirections:
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
        # the refiner's retire floor is relative to ||h||^2, so seeds near
        # a degenerate singular point still converge at ||h|| ~ 1e-8
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
