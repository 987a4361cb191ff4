"""Tests for the ambient forms and patch-geometry operations."""

import collections
import dataclasses
import functools
import itertools
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slag3 import ambient, cubics, geometry as geo
from slag3.cubics import StabilizerType, classify, invariants
from slag3.gallery import (
    clifford_link,
    default_gallery,
    harvey_lawson_so3,
    hl_cone,
    l_lambda,
    plane,
    product_curve,
    z3_family,
)


def random_su3(rng):
    """Haar-ish random special unitary 3x3 via complex QR."""
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** (1.0 / 3.0)


def graph_patch():
    """Non-Lagrangian graph (u1 + i u2, u2, u3)."""
    return geo.ImmersionPatch(
        name="graph",
        eval=lambda u: np.concatenate(
            [u, u[..., 1:2], np.zeros_like(u[..., :2])], axis=-1))


def potential_graph():
    """Lagrangian but non-minimal graph (u, grad phi), phi = 0.3 u1^2 u2."""
    return geo.ImmersionPatch(
        name="potential_graph",
        eval=lambda u: np.concatenate([u, np.stack(
            [0.6 * u[..., 0] * u[..., 1], 0.3 * u[..., 0] ** 2,
             np.zeros_like(u[..., 0])], axis=-1)], axis=-1))


class TestAmbientForms:
    def test_j_squared_is_minus_identity(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=6)
        assert np.allclose(ambient.apply_j(ambient.apply_j(v)), -v)

    def test_omega_is_j_paired_metric(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 6))
        direct = a[:3] @ b[3:] - a[3:] @ b[:3]
        assert math.isclose(ambient.omega0(a, b), direct, rel_tol=1e-14)
        assert math.isclose(ambient.omega0(a, b),
                            float(ambient.apply_j(a) @ b), rel_tol=1e-14)

    def test_omega_antisymmetric_and_j_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = rng.normal(size=(2, 6))
            assert math.isclose(ambient.omega0(a, b), -ambient.omega0(b, a),
                                rel_tol=0, abs_tol=1e-12)
            assert math.isclose(
                ambient.omega0(ambient.apply_j(a), ambient.apply_j(b)),
                ambient.omega0(a, b), rel_tol=0, abs_tol=1e-12)

    def test_upsilon_on_standard_basis(self):
        e = np.eye(6)
        assert ambient.upsilon0(e[0], e[1], e[2]) == pytest.approx(1.0 + 0j)

    def test_upsilon_su3_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            q = random_su3(rng)
            m = ambient.su3_real_matrix(q)
            a, b, c = rng.normal(size=(3, 6))
            before = ambient.upsilon0(a, b, c)
            after = ambient.upsilon0(m @ a, m @ b, m @ c)
            assert abs(after - before) < 1e-12 * max(1.0, abs(before))

    def test_complex_round_trip(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=6)
        assert np.array_equal(ambient.from_complex(ambient.to_complex(v)), v)

    def test_stacked_upsilon_equals_each_vector(self):
        # one complex matrix from the stacked real legs, byte for byte the
        # volume of each row alone and of the legs made complex one by one
        rng = np.random.default_rng(8)
        a, b, c = rng.normal(size=(3, 50, 6))
        a[0, 3:] = -0.0  # a signed zero imaginary part
        stacked = ambient.upsilon0(a, b, c)
        legs = np.linalg.det(np.stack([ambient.to_complex(x)
                                       for x in (a, b, c)], axis=-1))
        assert stacked.tobytes() == legs.tobytes()
        for i in range(len(a)):
            assert (ambient.upsilon0(a[i], b[i], c[i]).tobytes()
                    == stacked[i].tobytes())


class TestDerivativeFallbacks:
    def poly_patch(self, with_jac=False):
        def ev(u):
            x, y, z = u[..., 0], u[..., 1], u[..., 2]
            return np.stack([x ** 2, y * z, x + z, x * y * z,
                             np.zeros_like(x), z ** 3], axis=-1)

        def jc(u):
            x, y, z = u[..., 0], u[..., 1], u[..., 2]
            o, i = np.zeros_like(x), np.ones_like(x)
            return np.stack([np.stack(row, axis=-1) for row in (
                [2 * x, o, o],
                [o, z, y],
                [i, o, i],
                [y * z, x * z, x * y],
                [o, o, o],
                [o, o, 3 * z ** 2])], axis=-2)

        return geo.ImmersionPatch(name="poly", eval=ev,
                                  jac=jc if with_jac else None)

    def exact_hess(self, u):
        h = np.zeros((6, 3, 3))
        h[0, 0, 0] = 2.0
        h[1, 1, 2] = h[1, 2, 1] = 1.0
        h[3, 0, 1] = h[3, 1, 0] = u[2]
        h[3, 0, 2] = h[3, 2, 0] = u[1]
        h[3, 1, 2] = h[3, 2, 1] = u[0]
        h[5, 2, 2] = 6.0 * u[2]
        return h

    def test_fd_jacobian(self):
        u = np.array([0.3, -0.7, 0.4])
        fd = geo.jacobian(self.poly_patch(), u)
        exact = self.poly_patch(with_jac=True).jac(u)
        assert np.max(np.abs(fd - exact)) < 1e-9

    def test_fd_hessian_direct(self):
        u = np.array([0.3, -0.7, 0.4])
        fd = geo.hessian(self.poly_patch(), u)
        assert np.max(np.abs(fd - self.exact_hess(u))) < 1e-6

    def test_fd_hessian_of_analytic_jacobian(self):
        u = np.array([0.3, -0.7, 0.4])
        fd = geo.hessian(self.poly_patch(with_jac=True), u)
        assert np.max(np.abs(fd - self.exact_hess(u))) < 1e-9

    def test_validate_derivatives_passes_a_patch_without_jac(self):
        # nothing to check: the jacobian is the FD of eval itself
        assert geo.validate_derivatives(self.poly_patch()) == 0.0

    def test_a_patch_needs_an_eval_map(self):
        with pytest.raises(ValueError, match="needs an eval map"):
            geo.ImmersionPatch(name="no_eval", jac=self.poly_patch(True).jac)

    @pytest.mark.parametrize("interval", [
        (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0),
        (1.0, 1.0), (1.0, 0.0)])
    def test_a_domain_interval_must_be_finite_and_nonempty(self, interval):
        with pytest.raises(ValueError, match="finite nonempty intervals"):
            geo.ImmersionPatch(name="bad_domain", eval=self.poly_patch().eval,
                               domain=((0.0, 1.0), interval, (0.0, 1.0)))

    def test_validate_derivatives_accepts_consistent_jacobian(self):
        assert geo.validate_derivatives(self.poly_patch(with_jac=True)) < 1e-8

    def test_validate_derivatives_rejects_wrong_jacobian(self):
        good = self.poly_patch(with_jac=True)
        bad = geo.ImmersionPatch(
            name="bad", domain=good.domain, eval=good.eval,
            jac=lambda u: good.jac(u) + 1e-3)
        with pytest.raises(geo.GeometryError):
            geo.validate_derivatives(bad)

    @pytest.mark.parametrize("name", ["eval", "jac"])
    def test_validate_derivatives_rejects_a_nan(self, name):
        # one NaN row: the first FD stencil point (eval) or the first
        # sample point (jac); a NaN deviation must not pass as small
        patch = hl_cone()
        real = getattr(patch, name)

        def first_row_nan(u):
            value = np.array(real(u), dtype=float)
            value[0] = math.nan
            return value

        with pytest.raises(geo.GeometryError, match="deviates"):
            geo.validate_derivatives(
                dataclasses.replace(patch, **{name: first_row_nan}))


class TestLagrangianResidual:
    def test_plane_is_exact(self):
        res = geo.lagrangian_residual(plane(), np.array([0.2, -0.4, 0.9]))
        assert res <= 1e-14

    def test_cone_at_random_points(self):
        rng = np.random.default_rng(8)
        patch = hl_cone()
        for _ in range(50):
            u = np.array([rng.uniform(lo, hi) for lo, hi in patch.domain])
            assert geo.lagrangian_residual(patch, u) <= 1e-10

    def test_graph_is_far_from_lagrangian(self):
        res = geo.lagrangian_residual(graph_patch(), np.array([0.3, 0.1, -0.2]))
        assert res >= 0.5

    def test_rank_deficiency_raises(self):
        flat = geo.ImmersionPatch(
            name="flat", eval=lambda u: np.concatenate(
                [u[..., :2], np.zeros(np.shape(u)[:-1] + (4,))], axis=-1))
        with pytest.raises(geo.RankDeficientError):
            geo.lagrangian_residual(flat, np.array([0.1, 0.2, 0.3]))


class TestSpecialResidual:
    def test_plane(self):
        im, sign = geo.special_residual(plane(), np.array([0.1, 0.2, 0.3]))
        assert im <= 1e-14
        assert sign == 1.0

    def test_phase_rotated_plane_saturates(self):
        # multiplying R^3 by e^{i pi/6} turns the volume form by pi/2
        rot = ambient.su3_real_matrix(np.exp(1j * math.pi / 6.0) * np.eye(3))
        patch = geo.transform_patch(plane(), rot)
        im, _ = geo.special_residual(patch, np.array([0.1, -0.2, 0.3]))
        assert im == pytest.approx(1.0, abs=1e-12)


class TestAdaptedFrame:
    def test_plane_gives_standard_basis(self):
        frame = geo.adapted_frame(plane(), np.array([0.4, -0.1, 0.8]))
        assert np.allclose(frame.matrix(), np.eye(6)[:, :3], atol=1e-14)

    @pytest.mark.parametrize("patch", [
        harvey_lawson_so3(1.0), hl_cone(), l_lambda(1.0, 1.0, -2.0)])
    def test_orthonormal_and_oriented(self, patch):
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = np.array([rng.uniform(lo, hi) for lo, hi in patch.domain])
            frame = geo.adapted_frame(patch, u)
            m = frame.matrix()
            assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-10
            assert ambient.upsilon0(frame.e1, frame.e2, frame.e3).real > 0.0

    def test_non_lagrangian_rejected(self):
        with pytest.raises(geo.NotLagrangianError):
            geo.adapted_frame(graph_patch(), np.array([0.3, 0.1, -0.2]))


class TestFundamentalCubic:
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_waist_slice_is_circle_with_reciprocal_radius(self, c):
        patch = harvey_lawson_so3(c)
        u = np.array([-math.pi / 6.0, 1.1, 0.7])
        cubic, _, _ = geo.fundamental_cubic(patch, u)
        nf = classify(cubic)
        assert nf.type == StabilizerType.CIRCLE
        assert nf.r == pytest.approx(1.0 / c, abs=1e-9)

    def test_cone_is_s3(self):
        cubic, _, _ = geo.fundamental_cubic(hl_cone(),
                                            np.array([1.1, 1.3, 2.2]))
        nf = classify(cubic)
        assert nf.type == StabilizerType.S3
        assert nf.r == pytest.approx(0.0, abs=1e-9)

    def test_trace_residual_is_tiny_on_analytic_patches(self):
        for patch, u in ((harvey_lawson_so3(1.0), np.array([-0.7, 1.2, 0.8])),
                         (hl_cone(), np.array([0.9, 0.5, 4.0])),
                         (product_curve("square"), np.array([0.1, 0.7, 0.6]))):
            cubic, _, trace_res = geo.fundamental_cubic(patch, u)
            assert trace_res <= 1e-5 * cubic.norm()

    def test_non_minimal_lagrangian_aborts(self):
        with pytest.raises(geo.TraceResidualError):
            geo.fundamental_cubic(potential_graph(), np.array([0.4, 0.3, 0.1]))


class TestSweepAndCsv:
    def test_plane_sweep_is_all_full(self):
        reports = geo.sweep(plane(), (3, 3, 3))
        assert len(reports) == 27
        assert all(r.error is None for r in reports)
        assert all(r.nf.type == StabilizerType.FULL for r in reports)
        assert all(r.lag_res <= 1e-14 and r.im_res <= 1e-14 for r in reports)

    def test_sweep_order_is_row_major(self):
        reports = geo.sweep(plane(), (2, 2, 2))
        u0, u1 = reports[0].u, reports[1].u
        assert u0[0] == u1[0] and u0[1] == u1[1] and u0[2] < u1[2]
        assert reports[4].u[0] > reports[0].u[0]

    def test_failing_nodes_carry_error_markers(self):
        reports = geo.sweep(graph_patch(), (2, 2, 2))
        assert len(reports) == 8
        assert all(r.error is not None for r in reports)
        assert all("NotLagrangian" in r.error for r in reports)

    def test_csv_layout(self):
        reports = geo.sweep(plane(), (2, 2, 2)) + geo.sweep(graph_patch(),
                                                            (1, 1, 1))
        text = geo.reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == ("u1,u2,u3,x1,x2,x3,x4,x5,x6,lag_res,im_res,"
                            "trace_res,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,"
                            "type,r,s")
        assert len(lines) == 10
        assert "error:" in lines[-1]
        # numeric cells round-trip at full precision
        first = lines[1].split(",")
        assert float(first[0]) == reports[0].u[0]

    def test_sweep_keeps_margin_from_domain_edges(self):
        reports = geo.sweep(plane(), (3, 3, 3))
        us = np.array([r.u for r in reports])
        assert us.min() >= -0.901 and us.max() <= 0.901

    def test_grid_axes_inset_five_percent_and_centre_a_single_node(self):
        axes = geo.grid_axes(((0.0, 2.0), (-1.0, 3.0), (1.0, 1.5)), (3, 1, 2))
        assert np.allclose(axes[0], [0.1, 1.0, 1.9], rtol=0, atol=1e-15)
        assert np.array_equal(axes[1], [1.0])
        assert np.allclose(axes[2], [1.025, 1.475], rtol=0, atol=1e-15)
        assert "grid_axes" in geo.__all__

    @pytest.mark.parametrize("counts", [(3, 3), (2, 2, 2, 2), (1.5, 2, 2),
                                        (0, 2, 2), (2, -1, 2), (2, True, 2),
                                        (2.0, 2, 2)])
    def test_grid_axes_and_sweep_reject_malformed_counts(self, counts):
        # one positive integer per side, or no grid: a short tuple used to
        # regroup its nodes into points outside the domain
        patch = hl_cone()
        with pytest.raises(ValueError, match="^counts must be one positive"):
            geo.grid_axes(patch.domain, counts)
        with pytest.raises(ValueError, match="^counts must be one positive"):
            geo.sweep(patch, counts)

    def test_grid_axes_takes_a_count_per_side_of_any_domain(self):
        # a 2-sided domain (legendrian_residual's grid) and numpy integers
        axes = geo.grid_axes(((0.0, 1.0), (0.0, 2.0)), np.array([2, 3]))
        assert [len(a) for a in axes] == [2, 3]


def same_report(a, b):
    """Field-by-field bit equality of two PointReports."""
    def raw(x):
        return None if x is None else np.asarray(x).tobytes()

    if (raw(a.u), raw(a.position), a.error) != (raw(b.u), raw(b.position),
                                                b.error):
        return False
    if a.error is not None:
        return True
    fa, fb = a.nf, b.nf
    return ((a.lag_res, a.im_res, a.trace_res) == (b.lag_res, b.im_res,
                                                   b.trace_res)
            and raw(a.cubic.coeffs) == raw(b.cubic.coeffs)
            and (fa.type, fa.r, fa.s, fa.residual) == (fb.type, fb.r, fb.s,
                                                       fb.residual)
            and raw(fa.rotation.entries) == raw(fb.rotation.entries))


def corrupted_at(patch, bad, corrupt, name="jac"):
    """The patch whose map `name` returns corrupt(value) at the parameter
    point `bad`, in any row of a stack."""
    real = getattr(patch, name)

    def corrupted(u):
        value = real(u)
        at = np.all(u == bad, axis=-1).reshape(
            np.shape(u)[:-1] + (1,) * (value.ndim - np.ndim(u) + 1))
        return np.where(at, corrupt(value), value)

    return dataclasses.replace(patch, **{name: corrupted})


def rank_deficient_at(patch, bad):
    """The patch with a rank-1 jacobian at the parameter point `bad`."""
    return corrupted_at(patch, bad, lambda t: t[..., [0, 0, 0]])


class TestBatchSweep:
    @pytest.mark.parametrize("name", list(default_gallery()))
    def test_sweep_equals_one_point_report_per_node(self, name):
        patch = default_gallery()[name].patch
        counts = (1, 1, 1) if name == "plane" else (2, 2, 3)
        reports = geo.sweep(patch, counts)
        nodes = [r.u for r in reports]
        assert len(reports) == int(np.prod(counts))
        for node, report in zip(nodes, reports):
            assert same_report(report, geo.point_report(patch, node)), node

    def test_point_report_on_a_stack_equals_each_row(self):
        patch = hl_cone()
        nodes = np.array([[0.3, 1.1, 2.0], [0.5, 2.0, 1.0]])
        stacked = geo.point_report(patch, nodes)
        assert isinstance(stacked, list) and len(stacked) == 2
        for node, report in zip(nodes, stacked):
            assert isinstance(geo.point_report(patch, node), geo.PointReport)
            assert same_report(report, geo.point_report(patch, node))

    def test_a_failing_node_leaves_the_others_classified(self, monkeypatch):
        patch = hl_cone()
        good = geo.sweep(patch, (2, 2, 2))
        # a hessian 1e-7 off at node 5 puts its cubic in the certificate's
        # band, so that node alone reaches the axis search, which finds S3
        shaken = corrupted_at(patch, good[5].u, lambda t: t * (
            1.0 + 1e-7 * np.arange(t.shape[-1])), name="hess")
        before = dict(cubics._STATS)
        assert geo.sweep(shaken, (2, 2, 2))[5].nf.type is StabilizerType.S3
        assert [cubics._STATS[k] - before[k]
                for k in ("certified", "searched")] == [7, 1]
        broken = rank_deficient_at(shaken, good[1].u)
        real = cubics._symmetry_axes
        census_cubic = geo.point_report(shaken, good[5].u).cubic.coeffs

        def census_fails_at_node_5(cs, sq, tol):
            # two order-2 axes alone match no stabilizer pattern
            return [cubics.SymmetryAxes(order2=axes.order2[:2], order3=(),
                                        circle=())
                    if np.array_equal(c, census_cubic) else axes
                    for c, axes in zip(cs, real(cs, sq, tol))]

        monkeypatch.setattr(cubics, "_symmetry_axes", census_fails_at_node_5)
        reports = geo.sweep(broken, (2, 2, 2))
        assert reports[1].error.startswith("RankDeficientError:")
        assert reports[5].error == (
            "CensusError: axis census (2 order-2, 0 order-3) matches no "
            "stabilizer pattern")
        for i, (report, ref) in enumerate(zip(reports, good)):
            if i not in (1, 5):
                assert report.nf.type is StabilizerType.S3
                assert same_report(report, ref)

    @pytest.mark.parametrize("corrupt", [
        lambda t: np.zeros_like(t),
        lambda t: np.where(np.arange(18).reshape(6, 3) == 7, math.nan, t),
        lambda t: np.where(np.arange(18).reshape(6, 3) == 7, math.inf, t),
        lambda t: np.where(np.arange(18).reshape(6, 3) == 7, -math.inf, t)],
        ids=["zero", "nan", "inf", "-inf"])
    def test_a_degenerate_jacobian_fails_its_node_alone(self, corrupt):
        patch = hl_cone()
        good = geo.sweep(patch, (2, 2, 2))
        reports = geo.sweep(corrupted_at(patch, good[3].u, corrupt),
                            (2, 2, 2))
        assert len(reports) == len(good)
        assert reports[3].error.startswith("RankDeficientError:")
        for i, (report, ref) in enumerate(zip(reports, good)):
            if i != 3:
                assert same_report(report, ref)

    @pytest.mark.parametrize("value", [math.nan, math.inf],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("name", [
        name for name, entry in default_gallery().items()
        if entry.patch.hess is not None])
    def test_a_non_finite_hessian_fails_its_node_alone(self, name, value):
        patch = default_gallery()[name].patch
        good = geo.sweep(patch, (2, 2, 2))
        broken = corrupted_at(patch, good[3].u,
                              lambda h: np.full_like(h, value), "hess")
        reports = geo.sweep(broken, (2, 2, 2))
        assert reports[3].error.startswith(
            f"GeometryError: hessian of {patch.name!r} has non-finite entries")
        for i, (report, ref) in enumerate(zip(reports, good)):
            if i != 3:
                assert same_report(report, ref)

    def test_a_non_finite_position_fails_its_node_alone(self):
        patch = default_gallery()["twisted_cone"].patch
        good = geo.sweep(patch, (2, 2, 2))
        broken = corrupted_at(patch, good[5].u,
                              lambda x: np.full_like(x, math.nan), "eval")
        reports = geo.sweep(broken, (2, 2, 2))
        assert reports[5].error.startswith(
            "GeometryError: position of 'twisted_cone' has non-finite entries")
        for i, (report, ref) in enumerate(zip(reports, good)):
            if i != 5:
                assert same_report(report, ref)

    @pytest.mark.parametrize("spoil,message", [
        (lambda c: c + np.abs(c).max() * np.eye(10)[0],
         "coefficients violate the trace condition; route raw tensors "
         "through project_traceless"),
        (lambda c: np.where(np.arange(10) == 4, math.nan, c),
         "non-finite cubic coefficients")], ids=["traceful", "nan"])
    def test_an_inadmissible_node_cubic_fails_its_node_alone(
            self, monkeypatch, spoil, message):
        patch = hl_cone()
        good = geo.sweep(patch, (2, 2, 2))
        real = geo._cubic_at

        def spoiled_at_node_3(patch, nodes):
            *out, coeffs = real(patch, nodes)
            coeffs[3] = spoil(coeffs[3])
            return (*out, coeffs)

        monkeypatch.setattr(geo, "_cubic_at", spoiled_at_node_3)
        reports = geo.sweep(patch, (2, 2, 2))
        assert reports[3].error == f"ValueError: {message}"
        for i, (report, ref) in enumerate(zip(reports, good)):
            if i != 3:
                assert report.nf.type is StabilizerType.S3
                assert same_report(report, ref)

    @pytest.mark.parametrize("moved", [False, True], ids=["still", "moved"])
    @pytest.mark.parametrize("name", list(default_gallery()))
    def test_sweep_node_cubics_are_the_fundamental_cubics(self, name, moved):
        patch = default_gallery()[name].patch
        if moved:
            rng = np.random.default_rng(31)
            patch = geo.transform_patch(
                patch, ambient.su3_real_matrix(random_su3(rng)),
                rng.normal(size=6))
        reports = geo.sweep(patch, (2, 2, 3))
        assert all(report.error is None for report in reports)
        for report in reports:
            h, _, _ = geo.fundamental_cubic(patch, report.u)
            assert h.coeffs.tobytes() == report.cubic.coeffs.tobytes()

    def test_sweep_logs_one_timing_record(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="slag3.geometry"):
            geo.sweep(hl_cone(), (2, 1, 2))
            geo.sweep(graph_patch(), (2, 2, 2))
        records = [r for r in caplog.records if r.name == "slag3.geometry"]
        assert len(records) == 2
        cone, graph = (r.sweep for r in records)
        assert cone["nodes"] == 4 and cone["errors"] == {}
        assert graph["nodes"] == 8
        assert graph["errors"] == {"NotLagrangianError": 8}
        for stats in (cone, graph):
            for key in ("derivatives_s", "axis_search_s", "fit_s"):
                assert stats[key] >= 0.0
        assert cone["axis_search_s"] > 0.0
        assert "hl_cone" in records[0].getMessage()
        # every node cubic of the cone is decided in closed form; the graph
        # has none to classify
        assert (cone["certified"], cone["searched"]) == (4, 0)
        assert (graph["certified"], graph["searched"]) == (0, 0)

    def test_sweep_record_counts_the_nodes_searched(self, caplog):
        # a hessian 1e-7 off at one node puts its cubic in the certificate's
        # band: that node goes to the axis search
        patch = hl_cone()
        nodes = geo.sweep(patch, (2, 1, 2))
        shaken = corrupted_at(patch, nodes[2].u, lambda t: t * (
            1.0 + 1e-7 * np.arange(t.shape[-1])), name="hess")
        with caplog.at_level(logging.DEBUG, logger="slag3.geometry"):
            reports = geo.sweep(shaken, (2, 1, 2))
        (record,) = [r for r in caplog.records if r.name == "slag3.geometry"]
        assert (record.sweep["certified"], record.sweep["searched"]) == (3, 1)
        assert all(r.nf.type is StabilizerType.S3 for r in reports)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("name", list(default_gallery()))
    def test_a_non_finite_point_fails_before_any_map_runs(self, name, axis,
                                                          value):
        # at such a point a map warns (sin, multiply) or, on plane and
        # product_square, returns values that look like residuals
        calls = []

        def counted(fn):
            if fn is None:
                return None

            def call(u):
                calls.append(u)
                return fn(u)
            return call

        patch = default_gallery()[name].patch
        patch = dataclasses.replace(
            patch, eval=counted(patch.eval), jac=counted(patch.jac),
            hess=counted(patch.hess))
        u = np.array([0.5 * (lo + hi) for lo, hi in patch.domain])
        u[axis] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = geo.point_report(patch, u)
            assert report.error.startswith("GeometryError: parameter point")
            assert report.error.endswith("is not finite")
            for audit in (geo.codazzi_gauss_residual, geo.lagrangian_residual,
                          geo.special_residual):
                with pytest.raises(geo.GeometryError, match="is not finite"):
                    audit(patch, u)
        assert calls == []


def permutation_symmetrize(t, table):
    """Reference for geo._symmetrize: the mean of the slot transposes of t
    (n, 3^k), summed left to right in itertools.permutations order."""
    k = round(math.log(t.shape[1], 3))
    x = t.reshape((-1,) + (3,) * k)
    legs = [x.transpose((0,) + tuple(p + 1 for p in perm))
            for perm in itertools.permutations(range(k))]
    return (sum(legs[1:], legs[0]) / len(legs)).reshape(len(t), -1)


class TestAuditKernel:
    """The constant tables, views and shortcuts of the audit's kernel
    against the formulations they replace."""

    @pytest.mark.parametrize("k,table", [(3, "_SYM3"), (4, "_SYM4")])
    def test_symmetrizer_tables_equal_the_permutation_sums(self, k, table):
        rng = np.random.default_rng(41)
        t = rng.normal(size=(40, 3 ** k)) * 10.0 ** rng.integers(
            -200, 200, size=(40, 1))
        t[0] = 0.0
        t[1, ::2] = -0.0
        table = getattr(geo, table)
        assert table.shape == (math.factorial(k), 3 ** k)
        # equal values; a sum of signed zeros may differ in its sign only
        assert np.array_equal(geo._symmetrize(t, table),
                              permutation_symmetrize(t, table))

    def test_curvature_transposes_equal_the_einsum_shuffles(self):
        def reference(g0, dg, ddg):
            ginv = np.linalg.inv(g0)
            gam = 0.5 * np.einsum("ked,kabd->keab", ginv,
                                  np.einsum("kadb->kabd", dg)
                                  + np.einsum("kbda->kabd", dg)
                                  - np.einsum("kdab->kabd", dg))
            quad = np.einsum("kef,keac,kfbd->kabcd", g0, gam, gam)
            riem = 0.5 * (np.einsum("kacbd->kabcd", ddg)
                          + np.einsum("kbdac->kabcd", ddg)
                          - np.einsum("kadbc->kabcd", ddg)
                          - np.einsum("kbcad->kabcd", ddg))
            return riem + (quad - np.einsum("kabdc->kabcd", quad))

        rng = np.random.default_rng(43)
        t = rng.normal(size=(4, 6, 3))
        args = (np.swapaxes(t, 1, 2) @ t, rng.normal(size=(4, 3, 3, 3)),
                rng.normal(size=(4, 3, 3, 3, 3)))
        assert (geo._curvature(*args).tobytes()
                == reference(*args).tobytes())

    def test_frames_leg_swap_equals_take_along_axis(self):
        rng = np.random.default_rng(47)
        t = rng.normal(size=(60, 6, 3))
        e, v, ups = geo._frames(t)
        swap = ups.real < 0.0
        assert 10 < swap.sum() < 50
        q, r = np.linalg.qr(t)
        signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
        signs = np.where(signs == 0.0, 1.0, signs)[:, None, :]
        legs = np.where(swap[:, None, None], [0, 2, 1], [0, 1, 2])
        assert (e.tobytes()
                == np.take_along_axis(q * signs, legs, axis=2).tobytes())
        assert (v.tobytes() == np.take_along_axis(
            np.linalg.inv(r) * signs, legs, axis=2).tobytes())

    def test_nodes_shortcuts_match_the_general_path(self):
        # spread, call and fail on an all-open stack (values uncopied, no
        # bookkeeping) and on the same stack with row 2 closed agree on
        # every open row
        rng = np.random.default_rng(53)
        u = rng.random((5, 3))

        def fn(x):  # non-finite on row 4 alone
            return np.where(x == u[4], np.inf, 2.0 * x)

        stacks = []
        for closed in ([], [2]):
            nodes = geo._Nodes(u)
            nodes.fail(np.isin(nodes.open, closed),
                       lambda i: ValueError(f"row {i}"))
            values = rng.random((len(nodes.open), 2))
            spread = nodes.spread(values)
            assert np.array_equal(spread[nodes.open], values)
            assert np.isnan(spread[closed]).all()
            assert (spread is values) == (not closed)
            strided = nodes.spread(np.asfortranarray(values))
            assert strided.flags.c_contiguous  # as the general path lays out
            assert np.array_equal(strided, spread, equal_nan=True)
            before = (nodes.open.copy(), list(nodes.errors))
            nodes.fail(np.zeros(len(nodes.open), bool), None)  # never called
            assert np.array_equal(nodes.open, before[0])
            assert nodes.errors == before[1]
            stacks.append((nodes, nodes.call(fn, (3,), "fn")))
        (full, x), (part, y) = stacks
        assert np.array_equal(x[part.open], y[part.open])
        assert full.open.tolist() == [0, 1, 2, 3]
        assert part.open.tolist() == [0, 1, 3]
        assert str(full.errors[4]) == str(part.errors[4]) == (
            f"fn has non-finite entries at {u[4]}")
        assert str(part.errors[2]) == "row 2"

    @pytest.mark.parametrize("name", list(default_gallery()))
    def test_audit_equals_the_permutation_reference(self, monkeypatch, name):
        # the residuals at two interior points, byte for byte, with both
        # symmetrizers summed over itertools.permutations
        patch = default_gallery()[name].patch
        lo, hi = np.array(patch.domain).T
        points = [lo + (hi - lo) * np.array(w)
                  for w in ((0.3, 0.45, 0.6), (0.7, 0.55, 0.35))]
        fast = [geo.codazzi_gauss_residual(patch, u) for u in points]
        monkeypatch.setattr(geo, "_symmetrize", permutation_symmetrize)
        slow = [geo.codazzi_gauss_residual(patch, u) for u in points]
        assert np.array(fast).tobytes() == np.array(slow).tobytes()


class TestCodazziGauss:
    def test_plane_is_exact(self):
        cod, gau = geo.codazzi_gauss_residual(plane(),
                                              np.array([0.1, 0.2, -0.3]))
        assert cod <= 1e-14 and gau <= 1e-14

    @pytest.mark.parametrize("patch,u", [
        (harvey_lawson_so3(1.0), np.array([-0.7, 1.2, 0.8])),
        (hl_cone(), np.array([1.1, 1.3, 2.2]))])
    def test_residuals_small_at_millistep(self, patch, u):
        cod, gau = geo.codazzi_gauss_residual(patch, u, step=1e-3)
        assert cod <= 1e-3 and gau <= 1e-3

    def test_halving_decreases_residuals(self):
        patch = harvey_lawson_so3(1.0)
        u = np.array([-0.7, 1.2, 0.8])
        full = geo.codazzi_gauss_residual(patch, u, step=1e-3)
        half = geo.codazzi_gauss_residual(patch, u, step=5e-4)
        assert half[0] < full[0] and half[1] < full[1]

    def test_gauss_sign_is_calibrated(self):
        # flipping the sign of the quadratic cubic term must wreck the match
        patch = harvey_lawson_so3(1.0)
        u = np.array([-0.7, 1.2, 0.8])
        good = geo._compat_residuals(patch, u, (1e-3,))[0][1]
        orig = geo._GAUSS_SIGN
        try:
            geo._GAUSS_SIGN = -orig
            bad = geo._compat_residuals(patch, u, (1e-3,))[0][1]
        finally:
            geo._GAUSS_SIGN = orig
        assert good < 1e-3 < 1.0 < bad

    def test_both_steps_call_each_map_once(self):
        # one stage serves both step sizes: the centre and its coordinate
        # neighbours as one cubic stack, 1 jac and 1 hess call (2 and 1 with
        # a metric stencil of its own, 6 and 4 when every step ran its pass)
        calls = collections.Counter()

        def counted(name, fn):
            def wrapped(u):
                calls[name] += 1
                return fn(u)
            return wrapped

        patch = hl_cone()
        geo.codazzi_gauss_residual(dataclasses.replace(
            patch, jac=counted("jac", patch.jac),
            hess=counted("hess", patch.hess)), np.array([1.1, 1.3, 2.2]))
        assert calls == {"jac": 1, "hess": 1}

    @pytest.mark.parametrize("name", list(default_gallery()))
    def test_one_pass_equals_one_call_per_step(self, name):
        def raw(residuals):
            return np.array([[c, g, *f] for c, g, f in residuals]).tobytes()

        rng = np.random.default_rng(29)
        patch = geo.transform_patch(
            default_gallery()[name].patch,
            ambient.su3_real_matrix(random_su3(rng)), rng.normal(size=6))
        u = np.mean(patch.domain, axis=1)
        both = geo._compat_residuals(patch, u, (1e-3, 0.5 * 1e-3))
        assert raw(both) == raw(geo._compat_residuals(patch, u, (1e-3,))
                                + geo._compat_residuals(patch, u,
                                                        (0.5 * 1e-3,)))

    @pytest.mark.parametrize("map_name,corrupt,kind,match", [
        ("jac", lambda t: np.full_like(t, math.nan), geo.RankDeficientError,
         "non-finite entries"),
        ("jac", np.zeros_like, geo.RankDeficientError, "rank-deficient"),
        ("hess", lambda h: np.full_like(h, math.nan), geo.GeometryError,
         "non-finite entries")], ids=["nan-jac", "zero-jac", "nan-hess"])
    @pytest.mark.parametrize("step", [1e-3, 0.5 * 1e-3], ids=["full", "half"])
    @pytest.mark.parametrize("name", ["hl_cone", "harvey_lawson_so3",
                                      "twisted_cone"])
    def test_a_degenerate_neighbour_raises_naming_it(self, name, step,
                                                     map_name, corrupt, kind,
                                                     match):
        # each coordinate neighbour u ± s·e_a of either step is a row of the
        # one cubic stack; its error is raised with its own point
        patch = default_gallery()[name].patch
        if map_name == "hess" and patch.hess is None:  # FD hessian: a map
            patch = dataclasses.replace(patch,
                                        hess=functools.partial(geo.hessian,
                                                               patch))
        u = np.mean(patch.domain, axis=1)
        for a in range(3):
            for sign in (1.0, -1.0):
                neighbour = u + sign * step * np.eye(3)[a]
                broken = corrupted_at(patch, neighbour, corrupt, map_name)
                with pytest.raises(kind, match=match) as exc:
                    geo.codazzi_gauss_residual(broken, u)
                assert type(exc.value) is kind
                assert str(neighbour) in str(exc.value)

    @pytest.mark.parametrize("corrupt", [
        lambda t: np.full_like(t, math.nan), np.zeros_like],
        ids=["nan", "zero"])
    @pytest.mark.parametrize("name", ["hl_cone", "harvey_lawson_so3",
                                      "twisted_cone"])
    def test_a_degenerate_centre_raises_as_its_cubic_does(self, name,
                                                          corrupt):
        # u is row 0 of the cubic stack, whose errors are raised in row order
        patch = default_gallery()[name].patch
        u = np.mean(patch.domain, axis=1)
        broken = corrupted_at(patch, u, corrupt)
        with pytest.raises(geo.RankDeficientError) as cubic:
            geo.fundamental_cubic(broken, u)
        with pytest.raises(geo.RankDeficientError) as audit:
            geo.codazzi_gauss_residual(broken, u)
        assert str(audit.value) == str(cubic.value)

    @pytest.mark.parametrize("step", [-1e-3, 0.0, math.nan, math.inf])
    def test_a_step_that_is_not_finite_and_positive_raises(self, step):
        # a negative step made the roundoff floors negative and raised a
        # false StepTooSmallError; 0, NaN and inf warned first and then
        # failed on unrelated checks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step must be finite"):
                geo.codazzi_gauss_residual(hl_cone(), (1.0, 0.7, 1.9), step)

    @pytest.mark.parametrize("lam", [1.0, 700.0, 1200.0, 1500.0])
    def test_frames_turning_past_60_degrees_raise_frame_alignment(self, lam):
        # harvey_lawson_so3 under u -> c + diag(1, lam, lam)(u - c): one
        # audit step turns the tangent 3-plane by lam times as much.  The
        # audit aligns each neighbour's frame to u's by the polar factor of
        # their (3, 3) product, whose singular values are the cosines of the
        # principal angles between the two tangent planes, and fails below
        # cos 60° = 0.5 (cosines 1, 0.77, 0.36 and 0.07 here).  A frame that
        # only turns within one tangent plane, as on a flat 3-plane, aligns
        # by a rotation and never fails.
        patch = harvey_lawson_so3(1.0)
        c = np.mean(patch.domain, axis=1)
        d = np.array([1.0, lam, lam])
        moved = geo.ImmersionPatch(
            name="stretched", domain=patch.domain,
            eval=lambda u: patch.eval(c + d * (u - c)),
            jac=lambda u: patch.jac(c + d * (u - c)) * d,
            hess=lambda u: patch.hess(c + d * (u - c)) * d[:, None] * d)
        step = 1e-3
        # the neighbours u ± step·e_a in the audit's order, +e_1 first
        around = c + step * np.stack([np.eye(3), -np.eye(3)], 1).reshape(6, 3)
        q = np.linalg.qr(moved.jac(np.vstack([c, around])))[0]
        cosines = np.array([np.linalg.svd(qn.T @ q[0], compute_uv=False).min()
                            for qn in q[1:]])
        if cosines.min() < 0.5:
            first = around[int(np.argmax(cosines < 0.5))]
            with pytest.raises(geo.FrameAlignmentError,
                               match="rotate too far") as exc:
                geo.codazzi_gauss_residual(moved, c, step)
            assert str(first) in str(exc.value)
        else:
            assert cosines.min() > 0.7
            cod, gau = geo.codazzi_gauss_residual(moved, c, step)
            assert math.isfinite(cod) and math.isfinite(gau)

    def test_cancellation_regime_raises(self):
        # at step 1e-10 (half step 5e-11) the Codazzi roundoff floor
        # eps·‖h‖·‖v‖/step is 9.4e-6, above 1e-6·‖h‖² = 6.8e-6; at 1e-9 the
        # audit is still valid (9.1e-7, 1.5e-7)
        with pytest.raises(geo.StepTooSmallError, match="roundoff floor"):
            geo.codazzi_gauss_residual(harvey_lawson_so3(1.0),
                                       np.array([-0.7, 1.2, 0.8]), step=1e-10)

    def test_roundoff_growth_below_the_stencil_floor_passes(self):
        # hl_cone's metric is quadratic in the radius, so its Gauss residual
        # is pure roundoff and grows 5x under halving (2.9e-9 -> 1.6e-8)
        u = np.array([0.6497080702507638, 5.195321075497304, 3.37605033048794])
        cod, gau = geo.codazzi_gauss_residual(hl_cone(), u)
        assert cod <= 1e-3 and gau <= 1e-3

    def test_deep_cancellation_step_still_raises(self):
        # the Gauss roundoff grows only as 1/step, so the halving test alone
        # would pass it; at step 1e-10 the Codazzi roundoff floor is 1.6e-5,
        # above 1e-6·‖h‖² = 4.7e-6
        u = np.array([0.6497080702507638, 5.195321075497304, 3.37605033048794])
        with pytest.raises(geo.StepTooSmallError, match="roundoff floor"):
            geo.codazzi_gauss_residual(hl_cone(), u, step=1e-10)

    # z3_family's hessian is a central difference of its jacobian, so its
    # cubics carry noise ~eps^(2/3)·‖h‖; at step 1e-4 Codazzi is roundoff
    # and grows 4.7e-8 -> 8.0e-8 under halving, while Gauss still drops 4x
    Z3_NEAR_END = np.array([-0.9443718925099442, 2.4436653767928673,
                            0.8488363754081273])

    def test_finite_difference_hessian_noise_is_below_the_floor(self):
        cod, gau = geo.codazzi_gauss_residual(z3_family(clifford_link(), 1.0),
                                              self.Z3_NEAR_END, step=1e-4)
        assert cod <= 1e-6 and gau <= 1e-3

    def test_finite_difference_hessian_deep_cancellation_still_raises(self):
        with pytest.raises(geo.StepTooSmallError):
            geo.codazzi_gauss_residual(z3_family(clifford_link(), 1.0),
                                       self.Z3_NEAR_END, step=1e-8)

    @pytest.mark.parametrize("patch,u", [
        *[(entry.patch, np.mean(entry.patch.domain, axis=1))
          for entry in default_gallery().values()],
        (harvey_lawson_so3(1.0), np.array([-0.7, 1.2, 0.8])),
        (hl_cone(), np.array([0.6497080702507638, 5.195321075497304,
                              3.37605033048794])),
        (z3_family(clifford_link(), 1.0), Z3_NEAR_END)],
        ids=[*default_gallery(), "hl_so3_pin", "hl_cone_pin", "z3_pin"])
    def test_a_small_step_raises_or_stays_accurate(self, patch, u):
        # no step from 1e-3 down to 1e-13 returns a residual above 1e-3:
        # the audit is accurate or raises StepTooSmallError
        for k in range(3, 14):
            try:
                residuals = geo.codazzi_gauss_residual(patch, u, 10.0 ** -k)
            except geo.StepTooSmallError:
                continue
            assert max(residuals) <= 1e-3, (k, residuals)

    # The ∂g that the audit's curvature reads, in closed form from D²F and
    # t, against Richardson-extrapolated central differences of g = tᵀt
    # (steps 1e-4 and 5e-5), relative to max|t|·max|D²F|.  The largest
    # measured deviation is 2.1e-11 with an analytic hessian and 9.5e-7 with
    # a finite-difference one (z3_family), whose own error it is.
    @pytest.mark.parametrize("fd_hessian", [False, True], ids=["given", "fd"])
    @pytest.mark.parametrize("name", list(default_gallery()))
    def test_the_metric_derivative_is_the_derivative_of_the_metric(
            self, monkeypatch, name, fd_hessian):
        patch = default_gallery()[name].patch
        if fd_hessian:
            patch = dataclasses.replace(patch, hess=None)
        tol = 1e-5 if patch.hess is None else 1e-9
        used, real = [], geo._curvature

        def spy(g0, dg, ddg):
            used.append(dg[0])
            return real(g0, dg, ddg)

        monkeypatch.setattr(geo, "_curvature", spy)

        def central(u, d):  # ∂_a g at u, a leading
            t = geo.jacobian(patch, u + d * np.concatenate([np.eye(3),
                                                            -np.eye(3)]))
            g = np.swapaxes(t, 1, 2) @ t
            return (g[:3] - g[3:]) / (2.0 * d)

        lo, hi = np.array(patch.domain).T
        rng = np.random.default_rng(31)
        for _ in range(4):
            u = lo + (hi - lo) * (0.05 + 0.9 * rng.random(3))
            used.clear()
            geo.codazzi_gauss_residual(patch, u)
            fd = (4.0 * central(u, 5e-5) - central(u, 1e-4)) / 3.0
            scale = (np.abs(geo.jacobian(patch, u[None])).max()
                     * np.abs(geo.hessian(patch, u[None])).max())
            assert np.abs(used[0] - fd).max() <= tol * scale

    @pytest.mark.parametrize("patch,u", [
        (hl_cone(), np.array([1.1, 1.3, 2.2])),
        (default_gallery()["twisted_cone"].patch, np.array([1.1, 2.0, 4.1]))])
    def test_audit_never_evaluates_the_patch_map(self, patch, u):
        def no_eval(u):
            raise AssertionError(f"F evaluated at {u}")

        blind = dataclasses.replace(patch, eval=no_eval)
        assert (geo.codazzi_gauss_residual(blind, u)
                == geo.codazzi_gauss_residual(patch, u))


class TestInvariance:
    @pytest.mark.parametrize("patch,u", [
        (harvey_lawson_so3(1.0), np.array([-0.8, 1.3, 2.1])),
        (hl_cone(), np.array([0.8, 2.3, 1.2]))])
    def test_rigid_motion(self, patch, u):
        rng = np.random.default_rng(11)
        base_cubic, _, _ = geo.fundamental_cubic(patch, u)
        base_nf = classify(base_cubic)
        i2, i4 = invariants(base_cubic)
        for _ in range(3):
            m = ambient.su3_real_matrix(random_su3(rng))
            moved = geo.transform_patch(patch, m, rng.normal(size=6))
            assert geo.lagrangian_residual(moved, u) <= 1e-9
            cubic, _, _ = geo.fundamental_cubic(moved, u)
            nf = classify(cubic)
            assert nf.type == base_nf.type
            assert nf.r == pytest.approx(base_nf.r, abs=1e-9)
            assert nf.s == pytest.approx(base_nf.s, abs=1e-9)
            j2, j4 = invariants(cubic)
            assert j2 == pytest.approx(i2, rel=1e-9)
            assert j4 == pytest.approx(i4, rel=1e-9)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           unit=st.tuples(*[st.floats(0.0, 1.0)] * 3))
    @pytest.mark.parametrize("name", list(default_gallery()))
    def test_audit_is_invariant_under_rigid_motions(self, name, seed, unit):
        # an interior point, kept off each domain side by 5% as in sweeps
        patch = default_gallery()[name].patch
        lo, hi = np.array(patch.domain).T
        u = lo + (hi - lo) * (0.05 + 0.9 * np.array(unit))
        rng = np.random.default_rng(seed)
        moved = geo.transform_patch(
            patch, ambient.su3_real_matrix(random_su3(rng)),
            rng.normal(size=6))
        assert geo.codazzi_gauss_residual(moved, u) == pytest.approx(
            geo.codazzi_gauss_residual(patch, u), rel=0.0, abs=1e-7)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(exponent=st.floats(-6.0, 6.0),
           unit=st.tuples(*[st.floats(0.0, 1.0)] * 3))
    @pytest.mark.parametrize("name", list(default_gallery()))
    def test_audit_is_invariant_under_dilation(self, name, exponent, unit):
        # every offset is in parameter units, so a dilation by λ changes no
        # outcome and scales both residuals (curvatures) by 1/λ²
        patch = default_gallery()[name].patch
        lo, hi = np.array(patch.domain).T
        u = lo + (hi - lo) * (0.05 + 0.9 * np.array(unit))
        lam = 10.0 ** exponent

        def audit(p):
            try:
                return geo.codazzi_gauss_residual(p, u)
            except ValueError as exc:  # GeometryError among them
                return type(exc)

        base, scaled = audit(patch), audit(geo.scale_patch(patch, lam))
        if isinstance(base, type) or isinstance(scaled, type):
            assert scaled == base
        else:
            assert lam ** 2 * np.array(scaled) == pytest.approx(
                np.array(base), rel=0.0, abs=1e-7)

    def test_dilation_scales_cubic_inversely(self):
        patch = harvey_lawson_so3(1.0)
        u = np.array([-0.8, 1.3, 2.1])
        cubic, _, _ = geo.fundamental_cubic(patch, u)
        lam = 2.5
        scaled_cubic, _, _ = geo.fundamental_cubic(geo.scale_patch(patch, lam),
                                                   u)
        assert np.allclose(scaled_cubic.coeffs, cubic.coeffs / lam, atol=1e-12)

    @pytest.mark.parametrize("exponent", [-300, -150, 150, 300])
    def test_residuals_are_scale_free(self, exponent):
        patch = geo.scale_patch(hl_cone(), 10.0 ** exponent)
        u = np.array([1.1, 1.3, 2.2])
        assert geo.lagrangian_residual(patch, u) <= 1e-14
        assert geo.special_residual(patch, u)[0] <= 1e-14
        # the cubic scales by 10^-exponent; at 10^-300 its norm overflows in
        # _cubic_at by design, and every other sweep runs warning-free
        if exponent == -300:
            with np.errstate(over="ignore", invalid="ignore"):
                reports = geo.sweep(patch, (2, 2, 2))
        else:
            reports = geo.sweep(patch, (2, 2, 2))
        for r in reports:
            if exponent == -300:  # the cubic's norm itself overflows
                assert r.error.startswith("GeometryError: cubic of")
            else:
                assert r.error is None
                assert r.lag_res <= 1e-14 and r.im_res <= 1e-14

    def test_dilated_family_matches_other_waist(self):
        # scaling the c=1 family by 2 lands on the c=2 family
        patch = geo.scale_patch(harvey_lawson_so3(1.0), 2.0)
        cubic, _, _ = geo.fundamental_cubic(patch,
                                            np.array([-math.pi / 6, 1.1, 0.7]))
        assert classify(cubic).r == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("rot6,translation,match", [
        (np.eye(3), None, "finite 6x6"),
        (np.full((6, 6), np.nan), None, "finite 6x6"),
        (np.where(np.eye(6) > 0, np.inf, 0.0), None, "finite 6x6"),
        (2.0 * np.eye(6), None, "rigid motion"),
        (1e200 * np.eye(6), None, "rigid motion"),  # its gram overflows
        (np.eye(6) + 1e-6, None, "rigid motion"),
        (np.eye(6, dtype=complex), None, "real"),
        (np.eye(6), np.full(6, np.nan), "translation"),
        (np.eye(6), np.r_[np.inf, np.zeros(5)], "translation"),
        (np.eye(6), np.zeros(3), "translation")])
    def test_transform_patch_rejects_a_malformed_motion_up_front(
            self, rot6, translation, match):
        # unchecked, each one failed later at every node, with a matmul
        # shape error or "non-finite entries", or 2 I was accepted
        with pytest.raises(ValueError, match=match):
            geo.transform_patch(hl_cone(), rot6, translation)

    @pytest.mark.parametrize("factor", [0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_scale_patch_rejects_a_factor_not_finite_and_nonzero(self, factor):
        # unchecked, 0 failed every node with RankDeficientError and NaN or
        # inf with "non-finite entries"; a negative factor stays a dilation
        # composed with the point reflection
        with pytest.raises(ValueError, match="finite and nonzero"):
            geo.scale_patch(hl_cone(), factor)
        u = np.array([1.1, 1.3, 2.2])
        assert geo.lagrangian_residual(geo.scale_patch(hl_cone(), -2.0),
                                       u) <= 1e-14

    def test_parameter_gauge_independence(self):
        # re-parametrizing the patch rotates the cubic but not its class
        patch = hl_cone()
        u = np.array([1.05, 2.2, 1.4])
        rot = np.eye(3)
        ang = 0.37
        rot[1:, 1:] = [[math.cos(ang), -math.sin(ang)],
                       [math.sin(ang), math.cos(ang)]]
        repar = geo.ImmersionPatch(
            name="cone_repar", domain=patch.domain,
            eval=lambda w: patch.eval(u + (w - u) @ rot.T),
            jac=lambda w: patch.jac(u + (w - u) @ rot.T) @ rot)
        base = classify(geo.fundamental_cubic(patch, u)[0])
        other = classify(geo.fundamental_cubic(repar, u)[0])
        assert base.type == other.type
        assert other.r == pytest.approx(base.r, abs=1e-6)
        assert other.s == pytest.approx(base.s, abs=1e-6)
