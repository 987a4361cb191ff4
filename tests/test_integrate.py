"""Tests for the moving-frame integrator's helpers."""

import dataclasses
import itertools

import numpy as np
import pytest

from slag3 import geometry, integrate
from slag3.ambient import from_complex
from slag3.cubics import StabilizerType
from slag3.structure_laws import Z2_STATE_NAMES, z2_auxiliary


def test_renormalize_snaps_frame_to_unitary_and_reports_drift():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(z)
    frame = q + 1e-4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    y = rng.normal(size=36)
    y[integrate._EE] = from_complex(frame).reshape(18)

    out, drift = integrate._renormalize(y)

    u = integrate._frame_unitary(out)
    assert np.allclose(u @ u.conj().T, np.eye(3), rtol=0.0, atol=1e-14)
    assert np.allclose(u, frame, atol=1e-3)
    gram = frame @ frame.conj().T
    assert drift == pytest.approx(np.linalg.norm(gram - np.eye(3)), rel=1e-12)
    assert 1e-5 < drift < 1e-3
    keep = np.ones(36, dtype=bool)
    keep[integrate._EE] = False
    assert np.array_equal(out[keep], y[keep])


def test_field_patch_serves_the_stored_interior_nodes_exactly():
    fld, _ = integrate._reconstruct((1.0, 2.0, 0.1, 0.1, -0.2, 0.3),
                                    (0.2, 0.2, 0.2), 1e-2)
    patch = integrate._field_patch(fld)
    c = fld.center
    last = tuple(n - 3 for n in fld.shape)
    nodes = [c, (2, c[1], c[2]), (last[0], c[1], c[2])]
    nodes += list(itertools.product(*((2, m) for m in last)))
    for idx in nodes:
        y = fld.data[idx]
        u = np.array([fld.axes[a][i] for a, i in enumerate(idx)])
        v = np.column_stack([y[integrate._V1], y[integrate._V2],
                             integrate._W3])
        assert np.array_equal(patch.eval(u), y[integrate._X]), idx
        assert np.array_equal(patch.jac(u),
                              y[integrate._EE].reshape(3, 6).T @ v), idx
        h = patch.hess(u)
        assert h.shape == (6, 3, 3)
        assert np.array_equal(h, h.transpose(0, 2, 1))
    near_face = np.array([fld.axes[0][1], 0.0, 0.0])
    off_grid = np.array([0.5 * fld.step, 0.0, 0.0])
    for u in (near_face, off_grid):
        with pytest.raises(integrate.IntegrationError, match="stored node"):
            patch.jac(u)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, 1e308])
def test_field_patch_rejects_a_non_finite_or_huge_point_without_a_warning(bad):
    # cast to int before the point is judged, a non-finite or huge lattice
    # coordinate warns "invalid value encountered in cast", which under
    # -W error escapes point_report's ValueError handler; 1e308 / step
    # overflows
    fld, _ = integrate._reconstruct((1.0, 2.0, 0.1, 0.1, -0.2, 0.3),
                                    (0.1, 0.1, 0.1), 1e-2)
    patch = integrate._field_patch(fld)
    u = np.array([0.0, bad, 0.0])
    for f in (patch.eval, patch.jac, patch.hess):
        with pytest.raises(integrate.IntegrationError, match="stored node"):
            f(u)
    # point_report closes a non-finite point before any map runs; a finite
    # huge one reaches the maps and fails there
    report = geometry.point_report(patch, u)
    if np.isfinite(bad):
        assert report.error.startswith("IntegrationError: ")
        assert "stored node" in report.error
    else:
        assert report.error.startswith("GeometryError: ")
        assert "is not finite" in report.error


# ---------------------------------------------------------------------------
# the order-2 reconstruction at its default init

Z2_INIT = (1.0, 2.0, 0.1, 0.1, -0.2, 0.3)


@pytest.fixture(scope="module")
def z2_run():
    """(field, patch, report) at the default box and census."""
    return integrate.z2_integrate(Z2_INIT)


def test_z2_integrate_returns_a_flat_field_of_type_z2(z2_run):
    _, _, report = z2_run
    assert report.loop_residual < 1e-4
    assert report.frame_drift < 1e-6
    assert report.slag_res < 1e-8
    assert report.type_census == {StabilizerType.Z2: 27}


def test_node_state_auxiliaries_match_the_law(z2_run):
    fld, _, _ = z2_run
    for idx in (fld.center, (0, 3, fld.shape[2] - 1)):
        state = fld.node_state(idx)
        want = z2_auxiliary(fld.data[idx][24:30])
        assert state.auxiliary() == want


def test_census_normal_forms_match_the_carried_scalars(z2_run):
    fld, patch, _ = z2_run
    picks = (2, fld.center[0], fld.shape[0] - 3)
    assert picks == (2, 10, 18)
    for idx in itertools.product(picks, repeat=3):
        u = np.array([fld.axes[a][i] for a, i in enumerate(idx)])
        nf = geometry.point_report(patch, u).nf
        state = fld.node_state(idx)
        assert abs(nf.r - state.r) <= 1e-5 and abs(nf.s - state.s) <= 1e-5


def test_z2_integrate_rejects_a_box_too_thin_for_the_stencil():
    with pytest.raises(integrate.IntegrationError, match="5 nodes"):
        integrate.z2_integrate(Z2_INIT, extents=(0.02, 0.02, 0.02))


def test_z2_leaves_are_quadrics_in_fixed_three_planes(z2_run):
    fld, _, _ = z2_run
    plane, quadric = integrate.z2_foliation_check(fld)
    assert type(plane) is float and type(quadric) is float
    assert plane < 1e-6
    assert quadric < 1e-8


def test_path_independence_is_the_reported_loop_residual(z2_run):
    fld, _, report = z2_run
    assert integrate.path_independence(fld) == report.loop_residual


@pytest.mark.parametrize("name", Z2_STATE_NAMES)
def test_a_corrupted_stored_scalar_leaves_an_order_one_defect(z2_run, name):
    # one stored scalar shifted by 0.5 at every node keeps its stencil
    # derivatives but not the law they must equal: the defect is O(1)
    # (1.1 to 6.5 over the six), against 2.2e-5 on the integrated field
    fld, _, report = z2_run
    data = fld.data.copy()
    data[..., integrate._Q.start + Z2_STATE_NAMES.index(name)] += 0.5
    defect = integrate.path_independence(dataclasses.replace(fld, data=data))
    assert defect > 0.5 > 1e4 * report.loop_residual


def test_rk4_convergence_exponent_is_fourth_order():
    assert integrate.rk4_convergence_exponent(extents=(0.1, 0.1, 0.1)) > 3.5


def test_corrupted_scalar_law_fails_the_flatness_gate(monkeypatch):
    law = integrate.z2_scalar_rates

    def corrupted(state):
        rows = [list(row) for row in law(state)]
        rows[2][1] = rows[2][1] + 0.5  # dt1 gains a w2 component
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(integrate, "z2_scalar_rates", corrupted)
    with pytest.raises(integrate.FlatnessError):
        integrate.z2_integrate(Z2_INIT)


# ---------------------------------------------------------------------------
# the integration guards

@pytest.mark.parametrize("kwargs,match", [
    ({"init": (1.0, 2.0, 0.1, np.inf, -0.2, 0.3)}, "non-finite"),
    ({"init": (np.nan, 2.0, 0.1, 0.1, -0.2, 0.3)}, "non-finite"),
    ({"step": np.nan}, "step must be finite"),
    ({"step": np.inf}, "step must be finite"),
    ({"extents": (0.2, np.nan, 0.2)}, "extents must be three finite"),
    ({"extents": (0.2, 0.2, np.inf)}, "extents must be three finite")])
def test_z2_integrate_rejects_non_finite_arguments_up_front(kwargs, match):
    # raised before any arithmetic, so without a warning first
    with pytest.raises(integrate.IntegrationError, match=match):
        integrate.z2_integrate(**{"init": Z2_INIT, **kwargs})


@pytest.mark.parametrize("init,match", [
    ((1.0, np.nan, 0.1, 0.1, -0.2, 0.3), "non-finite"),
    ((1.0, 2.0, 50.0, 0.1, -0.2, 0.3), "blow-up"),
    ((1.0, 1.0 + 1e-9, 0.1, 0.1, -0.2, 0.3), "crossing")])
def test_z2_integrate_raises_on_a_bad_state(init, match):
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(integrate.IntegrationError, match=match):
            integrate.z2_integrate(init, extents=(0.02, 0.02, 0.02))


@pytest.mark.parametrize("index,value,match", [
    (30, np.inf, "non-finite"),
    (24, 0.5 * integrate._R_BOUNDS[0], "blow-up"),
    (25, 2.0 * integrate._R_BOUNDS[1], "blow-up"),
    (25, 1.0 + 5e-9, "crossing")])
def test_check_state_rejects_each_bad_node(index, value, match):
    y = np.zeros((2, 36))
    y[:, 24], y[:, 25] = 1.0, 2.0
    integrate._check_state(y)
    y[1, index] = value
    with pytest.raises(integrate.IntegrationError, match=match):
        integrate._check_state(y)
