"""Output validators for the four workloads.

Each validator returns None when the output passes, or the failure kind:

* ``"wrong_type"`` -- a structural answer contradicts the construction: a
  stabilizer type, or a number of singular directions.  The run reports
  ``correct: false`` when any of these occurs, because a wrong answer came
  back without an error.
* ``"inaccurate"`` -- the structure is right but a number misses its
  tolerance: r or s, a gradient at a singular direction, or a compatibility
  residual.
* an exception class name -- the call, or the sweep node, raised it.
"""

from __future__ import annotations

import numpy as np

from inputs import MULTIPLICITY

RS_RTOL = 1e-6       # r, s against the constructed values
GRAD_RTOL = 1e-6     # |grad h(w)| against |h| at a singular direction
RESIDUAL_MAX = 1e-3  # Codazzi and Gauss residuals, as tests/test_geometry.py

# the exception classes reported as failed.<name>; others are other_error
ERROR_CLASSES = ("ValueError", "CensusError", "RankDeficientError",
                 "NotLagrangianError", "TraceResidualError",
                 "FrameAlignmentError", "StepTooSmallError")
FAILURE_KINDS = ERROR_CLASSES + ("other_error", "wrong_type", "inaccurate")


def error_kind(name: str) -> str:
    """The failure kind for an exception class name."""
    return name if name in ERROR_CLASSES else "other_error"


def check_classify(result, expected_type: str, r: float, s: float):
    """A NormalFormResult against the constructed type and scaled (r, s)."""
    if result.type.value != expected_type:
        return "wrong_type"
    tol = RS_RTOL * max(abs(r), abs(s))
    if abs(result.r - r) > tol or abs(result.s - s) > tol:
        return "inaccurate"
    return None


def check_singular(coeffs, directions, expected_count: int, gradient):
    """Singular directions of the cubic with coefficients `coeffs`.

    `gradient(w)` returns grad h(w); |h| is the norm over all 27 tensor
    entries.
    """
    if len(directions) != expected_count:  # never above 3
        return "wrong_type"
    norm = float(np.sqrt(np.dot(MULTIPLICITY * coeffs, coeffs)))
    for w in directions:
        w = np.asarray(w, dtype=float)
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            return "inaccurate"
        if np.linalg.norm(gradient(w)) > GRAD_RTOL * norm:
            return "inaccurate"
    return None


def check_node(report, expected_type: str):
    """One sweep PointReport against the gallery entry's expected type."""
    if report.error is not None:
        return error_kind(report.error.split(":", 1)[0])
    if report.nf.type.value != expected_type:
        return "wrong_type"
    return None


def check_audit(residuals):
    """(codazzi, gauss) residuals against the bound the geometry tests use."""
    codazzi, gauss = residuals
    if not (codazzi <= RESIDUAL_MAX and gauss <= RESIDUAL_MAX):
        return "inaccurate"
    return None
