"""Tests for the moving-frame integrator's helpers."""

import numpy as np
import pytest

from slag3 import integrate
from slag3.ambient import from_complex


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
