"""Tests for the explicit special Lagrangian families."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from slag3 import gallery as gal, geometry as geo
from slag3.ambient import from_complex, su3_real_matrix
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
        th = np.asarray(th, dtype=float)
        return w * np.exp(1j * np.stack(
            [th[..., 0], th[..., 1], -(th[..., 0] + th[..., 1])], axis=-1))

    def jc(th):
        z = ev(th)
        return 1j * np.stack([z * np.array([1.0, 0.0, -1.0]),
                              z * np.array([0.0, 1.0, -1.0])], axis=-1)

    return gal.LegendrianSurface(name="warped_torus", eval=ev, jac=jc)


def off_sphere():
    """Surface whose point lies off the unit sphere."""
    point = np.array([1.1, 0.0, 0.0], complex)
    tangents = np.array([[1j, 0], [0, 1j], [0, 0]], complex)
    return gal.LegendrianSurface(
        name="bad",
        eval=lambda th: np.broadcast_to(point, np.shape(th)[:-1] + (3,)),
        jac=lambda th: np.broadcast_to(tangents, np.shape(th)[:-1] + (3, 2)))


class TestDerivativeContracts:
    @pytest.mark.parametrize("name", sorted(gal.default_gallery()))
    def test_analytic_jacobians_match_finite_differences(self, name):
        entry = gal.default_gallery()[name]
        assert geo.validate_derivatives(entry.patch, n=20, seed=2) <= 1e-6

    @pytest.mark.parametrize("name", sorted(
        name for name, entry in gal.default_gallery().items()
        if entry.patch.hess is not None))
    def test_analytic_hessians_match_differences_of_the_jacobian(self, name):
        """The whole of D²F, normal part included, against central
        differences of the analytic jacobian, Richardson-extrapolated
        (4·D(h/2) − D(h))/3, at random interior points."""
        patch = gal.default_gallery()[name].patch
        lo, hi = np.array(patch.domain).T
        u = lo + (hi - lo) * (0.05 + 0.9 * np.random.default_rng(4)
                              .random((8, 3)))

        def central(steps):   # [n, i, a, b] = ∂_b of jac[n, i, a]
            return np.stack([(patch.jac(u + d) - patch.jac(u - d)) / (2 * h)
                             for h, d in zip(steps, np.diag(steps))], -1)

        steps = 2.5e-4 * (hi - lo)
        richardson = (4.0 * central(steps / 2) - central(steps)) / 3.0
        hess = patch.hess(u)
        assert hess.shape == (8, 6, 3, 3)
        assert np.max(np.abs(hess - richardson)) <= 1e-9 * np.max(np.abs(hess))


def moved(patch, seed):
    """The patch under a seeded SU(3) motion and translation."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    q = q / np.linalg.det(q) ** (1.0 / 3.0)
    return geo.transform_patch(patch, su3_real_matrix(q), rng.normal(size=6))


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBroadcastContract:
    """A stack of points gives, byte for byte, the rows of calls on stacks of
    one, which `sweep`'s equality with one `point_report` per node rests on.
    A bare point (3,) gives the row of a stack of one: the gallery's maps
    compute on stacks, since numpy's scalar complex arithmetic is not its
    array arithmetic."""

    @pytest.mark.parametrize("motion", [None, 5], ids=["unmoved", "moved"])
    @pytest.mark.parametrize("name", sorted(gal.default_gallery()))
    def test_a_stack_equals_its_rows(self, name, motion):
        patch = gal.default_gallery()[name].patch
        if motion is not None:
            patch = moved(patch, motion)
        rng = np.random.default_rng(13)
        lo, hi = np.array(patch.domain).T
        stack = lo + (hi - lo) * (0.05 + 0.9 * rng.random((11, 3)))
        maps = [patch.eval, patch.jac, patch.hess,
                lambda u: geo.jacobian(patch, u),
                lambda u: geo.hessian(patch, u)]
        for fn in maps:
            if fn is None:
                continue
            out = fn(stack)
            assert out.shape[0] == len(stack)
            for k in range(len(stack)):
                assert same_bytes(out[k], fn(stack[k:k + 1])[0]), (k, fn)

    @pytest.mark.parametrize("name", sorted(gal.default_gallery()))
    def test_a_bare_point_is_a_stack_of_one(self, name):
        patch = gal.default_gallery()[name].patch
        rng = np.random.default_rng(0)
        lo, hi = np.array(patch.domain).T
        for u in lo + (hi - lo) * (0.05 + 0.9 * rng.random((11, 3))):
            for fn in (patch.eval, patch.jac, patch.hess):
                if fn is not None:
                    assert same_bytes(fn(u), fn(u[None])[0]), (u, fn)

    def test_surfaces_broadcast(self):
        rng = np.random.default_rng(14)
        for s in (gal.clifford_link(), gal.great_sphere(), gal.flat_torus()):
            lo, hi = np.array(s.domain).T
            thetas = lo + (hi - lo) * rng.random((2, 5, 2))
            for fn in (s.eval, s.jac, s.metric):
                out = fn(thetas)
                for i, k in np.ndindex(2, 5):
                    one = fn(thetas[i, k:k + 1])[0]
                    assert same_bytes(out[i, k], one), (s.name, fn)

    def test_a_raising_map_fails_every_node_of_its_call(self):
        patch = gal.harvey_lawson_so3(1.0)
        nodes = np.array([[-0.5, 1.0, 1.0], [0.1, 1.0, 1.0],
                          [-0.7, 1.2, 0.8]])
        with pytest.raises(ValueError, match="outside the profile branch"):
            patch.eval(nodes)
        reports = geo.point_report(patch, nodes)
        assert all(r.error == reports[1].error for r in reports)
        assert "outside the profile branch" in reports[1].error


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

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_waist_rejected(self, c):
        with pytest.raises(ValueError, match="waist radius"):
            gal.harvey_lawson_so3(c)

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

    @pytest.mark.parametrize("c", [-2.0, 0.0, math.nan, math.inf])
    def test_hyperbolic_needs_a_finite_positive_branch(self, c):
        with pytest.raises(ValueError, match="branch parameter"):
            gal.product_curve("hyperbolic", c=c)

    def test_custom_holomorphic_curve(self):
        patch = gal.product_curve(f=lambda w: w ** 3,
                                  df=lambda w: 3 * w * w,
                                  d2f=lambda w: 6 * w)
        assert geo.validate_derivatives(patch, n=10, seed=3) <= 1e-6
        assert classify_at(patch, probe(patch)).type == StabilizerType.S3
        assert patch.name == "product_custom"
        assert patch.params == {"kind": "custom"}

    def test_incomplete_custom_curve_rejected(self):
        with pytest.raises(ValueError):
            gal.product_curve(f=lambda w: w)
        with pytest.raises(ValueError):
            gal.product_curve(d2f=lambda w: w)
        with pytest.raises(ValueError):
            gal.product_curve("no_such_preset")
        with pytest.raises(ValueError, match="hyperbolic"):
            gal.product_curve("hyperbolic", f=lambda w: w * w,
                              df=lambda w: 2.0 * w,
                              d2f=lambda w: np.full_like(w, 2.0))


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
        with pytest.raises(ValueError):
            gal.l_lambda(math.inf, 1.0, -math.inf)
        with pytest.raises(ValueError):
            gal.l_lambda(math.nan, 1.0, -1.0)

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

    def test_map_matches_converged_reference(self):
        # F = b(θ) + t·x(θ), with b the integral of the scalar β along
        # (a0, b0) -> (θ1, b0) -> (θ1, θ2); the reference is composite Simpson
        # on 4000 intervals a leg, converged far below the tolerance
        s = gal.clifford_link()
        patch = gal.twisted_cone(s, E1)
        (a0, a1), (b0, b1) = s.domain
        n = 4000
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0

        def leg(row, start, stop, point):
            thetas = np.array([point(v)
                               for v in np.linspace(start, stop, n + 1)])
            vals = gal._betas(E1, gal._surface_frames(s, thetas))[:, row]
            return (stop - start) / (3.0 * n) * np.einsum("s,s...->...", w,
                                                          vals)

        points = [(0.6, a0, b0), (1.3, a0, 0.4 * b1), (0.9, 0.7 * a1, b0),
                  (1.1, 0.3 * a1, 0.8 * b1), (1.6, a1, b1)]
        for t, th1, th2 in points:
            ref = (leg(0, a0, th1, lambda v: (v, b0))
                   + leg(1, b0, th2, lambda v: (th1, v))
                   + t * from_complex(s.eval((th1, th2))))
            got = patch.eval(np.array([t, th1, th2]))
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["eval", "jac"])
    def test_repeated_theta_rows_evaluate_as_single_rows(self, name):
        # eval and jac work once per distinct θ row; a sweep grid repeats
        # each θ once per t, and every row keeps the bytes it has alone
        patch = gal.default_gallery()["twisted_cone"].patch
        fn = getattr(patch, name)
        grid = np.array(list(itertools.product(
            *geo.grid_axes(patch.domain, (4, 3, 3)))))
        grid = np.vstack([grid, grid[::-5], [[1.0, -0.0, 1.0],
                                             [1.0, 0.0, 1.0]]])
        out = fn(grid)
        for k, u in enumerate(grid):
            assert same_bytes(out[k], fn(u[None])[0]), k
        assert same_bytes(fn(grid[7]), fn(grid[7:8])[0])
        assert same_bytes(fn(grid[:36].reshape(4, 9, 3)),
                          out[:36].reshape((4, 9) + out.shape[1:]))

    def test_off_sphere_surface_rejected(self):
        with pytest.raises(ValueError, match="unit sphere"):
            gal.twisted_cone(off_sphere(), E1)

    def test_nan_surface_rejected(self):
        # a NaN point is not within 1e-12 of the unit sphere either
        surface = dataclasses.replace(
            gal.clifford_link(),
            eval=lambda th: np.full(np.shape(th)[:-1] + (3,), np.nan + 0j))
        with pytest.raises(ValueError, match="unit sphere"):
            gal.twisted_cone(surface, E1)

    @pytest.mark.parametrize("t_range", [(math.nan, 1.0), (0.0, math.inf)])
    def test_non_finite_t_range_rejected(self, t_range):
        with pytest.raises(ValueError, match="finite nonempty intervals"):
            gal.twisted_cone(gal.clifford_link(), E1, t_range=t_range)

    def test_direction_shape_checked(self):
        with pytest.raises(ValueError):
            gal.twisted_cone(gal.clifford_link(), np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_direction_rejected(self, value):
        # a NaN direction used to pass the closedness audit and then fail
        # every node with a non-finite position
        avec = E1.copy()
        avec[2] = value
        with pytest.raises(ValueError, match="finite real 6-vector"):
            gal.twisted_cone(gal.clifford_link(), avec)

    def test_a_nan_loop_residual_fails_the_closedness_audit(self,
                                                           monkeypatch):
        monkeypatch.setattr(gal, "legendrian_loop_residual",
                            lambda s, avec: math.nan)
        with pytest.raises(ValueError, match="not closed"):
            gal.twisted_cone(gal.clifford_link(), E1)

    def test_austere_type(self):
        patch = gal.twisted_cone(gal.clifford_link(), E1)
        for frac in ((0.3, 0.5, 0.3), (0.7, 0.2, 0.8)):
            nf = classify_at(patch, probe(patch, frac))
            assert nf.type == StabilizerType.S3


class TestZ3Family:
    @pytest.mark.parametrize("c", [0.0, math.nan, math.inf, -math.inf])
    def test_zero_or_non_finite_constant_rejected(self, c):
        with pytest.raises(ValueError, match="profile constant"):
            gal.z3_family(gal.clifford_link(), c)

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
