"""Tests for the explicit special Lagrangian families."""

import math

import numpy as np
import pytest

from slag3 import gallery as gal, geometry as geo
from slag3.ambient import from_complex
from slag3.cubics import StabilizerType, classify


E1 = np.zeros(6)
E1[0] = 1.0


def probe(patch, frac=(0.45, 0.55, 0.4)):
    return np.array([lo + f * (hi - lo)
                     for (lo, hi), f in zip(patch.domain, frac)])


def classify_at(patch, u):
    cubic, _, _ = geo.fundamental_cubic(patch, u)
    return classify(cubic)


def warped_torus():
    """Unit torus with non-Clifford radii: Legendrian fails, not minimal."""
    w = np.array([1.0, 1.3, 0.6])
    w = w / np.linalg.norm(w)

    def ev(th):
        return w * np.exp(1j * np.array([th[0], th[1], -(th[0] + th[1])]))

    def jc(th):
        z = ev(th)
        return 1j * np.stack([z * np.array([1.0, 0.0, -1.0]),
                              z * np.array([0.0, 1.0, -1.0])]).T

    return gal.LegendrianSurface(name="warped_torus", eval=ev, jac=jc)


def off_sphere():
    """Surface whose point lies off the unit sphere."""
    return gal.LegendrianSurface(
        name="bad", eval=lambda th: np.array([1.1, 0.0, 0.0], complex),
        jac=lambda th: np.array([[1j, 0], [0, 1j], [0, 0]], complex))


class TestDerivativeContracts:
    @pytest.mark.parametrize("name", sorted(gal.default_gallery()))
    def test_analytic_jacobians_match_finite_differences(self, name):
        entry = gal.default_gallery()[name]
        assert geo.validate_derivatives(entry.patch, n=20, seed=2) <= 1e-6


class TestHarveyLawsonSo3:
    def test_waist_radius(self):
        for c in (0.7, 1.0, 2.0):
            patch = gal.harvey_lawson_so3(c)
            pos = patch.eval(np.array([-math.pi / 6.0, 0.9, 2.0]))
            assert np.linalg.norm(pos) == pytest.approx(c, rel=1e-13)

    def test_branch_is_enforced(self):
        patch = gal.harvey_lawson_so3(1.0)
        for gamma in (0.1, 0.0, -math.pi / 3.0, -1.5):
            with pytest.raises(ValueError):
                patch.eval(np.array([gamma, 1.0, 1.0]))

    def test_invalid_waist_rejected(self):
        with pytest.raises(ValueError):
            gal.harvey_lawson_so3(0.0)
        with pytest.raises(ValueError):
            gal.harvey_lawson_so3(-1.0)

    def test_circle_type_across_branch(self):
        patch = gal.harvey_lawson_so3(1.0)
        for gamma in (-0.9, -0.5, -0.2):
            nf = classify_at(patch, np.array([gamma, 1.2, 0.8]))
            assert nf.type == StabilizerType.CIRCLE
            assert nf.r > 0.0


class TestProducts:
    def test_zero_curve_is_flat(self):
        nf = classify_at(gal.product_curve("zero"), np.array([0.3, 0.7, 0.6]))
        assert nf.type == StabilizerType.FULL

    def test_square_curve_is_austere(self):
        patch = gal.product_curve("square")
        for frac in ((0.3, 0.4, 0.6), (0.7, 0.8, 0.2)):
            nf = classify_at(patch, probe(patch, frac))
            assert nf.type == StabilizerType.S3
            assert nf.r == pytest.approx(0.0, abs=1e-9)

    def test_hyperbolic_through_pinned_point(self):
        patch = gal.product_curve("hyperbolic", c=1.0)
        pos = patch.eval(np.zeros(3))
        assert np.allclose(pos, [0, 1, 0, 0, 0, 0], atol=1e-15)
        nf = classify_at(patch, probe(patch))
        assert nf.type == StabilizerType.S3

    def test_hyperbolic_needs_positive_branch(self):
        with pytest.raises(ValueError):
            gal.product_curve("hyperbolic", c=-2.0)

    def test_custom_holomorphic_curve(self):
        patch = gal.product_curve(f=lambda w: w ** 3,
                                  df=lambda w: 3 * w * w,
                                  d2f=lambda w: 6 * w)
        assert geo.validate_derivatives(patch, n=10, seed=3) <= 1e-6
        assert classify_at(patch, probe(patch)).type == StabilizerType.S3

    def test_incomplete_custom_curve_rejected(self):
        with pytest.raises(ValueError):
            gal.product_curve(f=lambda w: w)
        with pytest.raises(ValueError):
            gal.product_curve("no_such_preset")


class TestHlCone:
    def test_pinned_point(self):
        pos = gal.hl_cone().eval(np.array([math.sqrt(3.0), 0.0, 0.0]))
        assert np.allclose(pos, [1, 1, 1, 0, 0, 0], atol=1e-15)

    def test_exact_homogeneity(self):
        patch = gal.hl_cone()
        u = np.array([0.8, 1.3, 2.1])
        doubled = patch.eval(np.array([2 * u[0], u[1], u[2]]))
        assert np.array_equal(doubled, 2.0 * patch.eval(u))

    def test_apex_rejected(self):
        with pytest.raises(ValueError):
            gal.hl_cone().eval(np.array([0.0, 1.0, 1.0]))

    def test_austere_type(self):
        patch = gal.hl_cone()
        nf = classify_at(patch, probe(patch))
        assert nf.type == StabilizerType.S3


class TestLLambda:
    def test_third_radius_balances_weights(self):
        patch = gal.l_lambda(1.0, 1.0, -2.0)
        pos = patch.eval(np.array([0.0, 1.0, 1.0]))
        z = pos[:3] + 1j * pos[3:]
        assert abs(z[2]) == pytest.approx(1.0, rel=1e-13)
        # all three phases sit at pi/6 when t = 0
        assert np.allclose(np.angle(z), math.pi / 6.0, atol=1e-13)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            gal.l_lambda(1.0, 1.0, -1.5)      # does not sum to zero
        with pytest.raises(ValueError):
            gal.l_lambda(1.0, -0.5, -0.5)     # middle weight not positive
        with pytest.raises(ValueError):
            gal.l_lambda(1.0, 2.0, -3.0)      # weights out of order

    def test_austere_type(self):
        patch = gal.l_lambda(2.0, 1.0, -3.0)
        assert geo.validate_derivatives(patch, n=10, seed=4) <= 1e-6
        nf = classify_at(patch, probe(patch))
        assert nf.type == StabilizerType.S3


class TestLegendrianSurfaces:
    def test_clifford_is_legendrian(self):
        theta_res, psi_res = gal.legendrian_residual(gal.clifford_link())
        assert theta_res <= 1e-10 and psi_res <= 1e-10

    def test_clifford_metric_oracle(self):
        g = gal.clifford_link().metric((0.7, 1.9))
        assert np.allclose(g, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-14)

    def test_great_sphere_is_exactly_legendrian(self):
        theta_res, psi_res = gal.legendrian_residual(gal.great_sphere())
        assert theta_res == 0.0 and psi_res == 0.0

    def test_flat_torus_control_fails_contact(self):
        theta_res, _ = gal.legendrian_residual(gal.flat_torus())
        assert theta_res > 0.1

    def test_unit_sphere_enforced(self):
        with pytest.raises(ValueError):
            gal.legendrian_residual(off_sphere())


class TestTwistedCone:
    def test_closed_form_loop_audit(self):
        res = gal.legendrian_loop_residual(gal.clifford_link(), E1)
        assert res <= 1e-8

    def test_non_minimal_surface_rejected(self):
        with pytest.raises(ValueError):
            gal.twisted_cone(warped_torus(), E1)

    def test_zero_height_is_plain_cone(self):
        patch = gal.twisted_cone(gal.clifford_link(), np.zeros(6))
        th = np.array([1.0, 2.0])
        x = np.concatenate([gal.clifford_link().eval(th).real,
                            gal.clifford_link().eval(th).imag])
        assert np.allclose(patch.eval(np.array([1.3, *th])), 1.3 * x,
                           atol=1e-15)

    def test_map_matches_scalar_simpson_reference(self):
        # F = b(θ) + t·x(θ), with b the composite Simpson integral of the
        # scalar β along (a0, b0) -> (θ1, b0) -> (θ1, θ2), 150 intervals a leg
        s = gal.clifford_link()
        patch = gal.twisted_cone(s, E1)
        (a0, a1), (b0, b1) = s.domain
        n = 150
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0

        def leg(row, start, stop, point):
            frames = [gal._surface_frame(s, point(v))
                      for v in np.linspace(start, stop, n + 1)]
            vals = np.stack([gal._beta(E1, f)[row] for f in frames])
            return (stop - start) / (3.0 * n) * np.einsum("s,s...->...", w,
                                                          vals)

        points = [(0.6, a0, b0), (1.3, a0, 0.4 * b1), (0.9, 0.7 * a1, b0),
                  (1.1, 0.3 * a1, 0.8 * b1), (1.6, a1, b1)]
        for t, th1, th2 in points:
            ref = (leg(0, a0, th1, lambda v: (v, b0))
                   + leg(1, b0, th2, lambda v: (th1, v))
                   + t * from_complex(s.eval((th1, th2))))
            got = patch.eval(np.array([t, th1, th2]))
            assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)

    def test_off_sphere_surface_rejected(self):
        with pytest.raises(ValueError, match="unit sphere"):
            gal.twisted_cone(off_sphere(), E1)

    def test_direction_shape_checked(self):
        with pytest.raises(ValueError):
            gal.twisted_cone(gal.clifford_link(), np.array([1.0, 0.0, 0.0]))

    def test_austere_type(self):
        patch = gal.twisted_cone(gal.clifford_link(), E1)
        for frac in ((0.3, 0.5, 0.3), (0.7, 0.2, 0.8)):
            nf = classify_at(patch, probe(patch, frac))
            assert nf.type == StabilizerType.S3


class TestZ3Family:
    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            gal.z3_family(gal.clifford_link(), 0.0)

    def test_branch_is_enforced(self):
        patch = gal.z3_family(gal.clifford_link(), 1.0)
        with pytest.raises(ValueError):
            patch.eval(np.array([0.2, 1.0, 1.0]))

    def test_order3_type_both_signs(self):
        for c in (1.0, -1.0):
            patch = gal.z3_family(gal.clifford_link(), c)
            nf = classify_at(patch, probe(patch))
            assert nf.type == StabilizerType.Z3
            assert nf.r > 0.0 and nf.s > 0.0

    def test_cone_slice_limit(self):
        # toward gamma -> 0 the axial part dies off: the limit slice is the
        # plain cone, whose cubic is austere
        patch = gal.z3_family(gal.clifford_link(), 1.0)
        ratios = []
        for gamma in (-0.5, -0.35, -0.2, -0.1, -0.06):
            nf = classify_at(patch, np.array([gamma, 1.1, 0.9]))
            assert nf.type == StabilizerType.Z3
            ratios.append(nf.r / nf.s)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.3
        cone_nf = classify_at(gal.hl_cone(), np.array([1.0, 1.1, 0.9]))
        assert cone_nf.type == StabilizerType.S3


class TestDefaultGallery:
    def test_registry_contents(self):
        entries = gal.default_gallery()
        assert set(entries) == {
            "plane", "harvey_lawson_so3", "product_square",
            "product_hyperbolic", "hl_cone", "l_lambda", "twisted_cone",
            "z3_family"}
        for entry in entries.values():
            assert len(entry.default_counts) == 3

    @pytest.mark.parametrize("name", sorted(gal.default_gallery()))
    def test_expected_type_at_probe(self, name):
        entry = gal.default_gallery()[name]
        nf = classify_at(entry.patch, probe(entry.patch))
        assert nf.type == entry.expected_type

    @pytest.mark.parametrize("name", sorted(gal.default_gallery()))
    def test_residuals_at_probes(self, name):
        entry = gal.default_gallery()[name]
        rng = np.random.default_rng(12)
        for _ in range(3):
            u = np.array([lo + (0.05 + 0.9 * rng.random()) * (hi - lo)
                          for lo, hi in entry.patch.domain])
            assert geo.lagrangian_residual(entry.patch, u) <= 1e-6
            im_res, _ = geo.special_residual(entry.patch, u)
            assert im_res <= 1e-6
