"""Coefficient laws of the closed frame systems used by the integrator.

Two exactly-solvable moving-frame systems live here, written as plain
arithmetic.  The circle-symmetric (SO(2)) profile is its rate law and its
closed-form solution.  The order-2-symmetric laws serve both float
evaluation (the RK4 stepping of :mod:`slag3.integrate`) and symbolic
auditing (the closure tests pass sympy symbols through them).

Conventions
-----------
A state is the tuple of scalar invariants of the system.  Every exterior
derivative is expressed against the tautological coframe (w1, w2, w3):

* scalar laws:   dq      = sum_i  G[q][i] * w_i
* coframe laws:  dw_k    = T[k][0] w1^w2 + T[k][1] w1^w3 + T[k][2] w2^w3
* connection:    alpha_ij = sum_k A[i][j][k] * w_k   (antisymmetric in ij)
* shape form:    beta_ij  = sum_k B[i][j][k] * w_k   (symmetric in ij)

The frame/position laws completing the system are
dx = e_i w_i,  de_j = e_k alpha_kj + J e_k beta_kj, with J the complex
structure of C^3.  Closure (d^2 = 0 on every scalar and coframe component,
and the flat structure equations for alpha and beta) is audited symbolically
in the test suite; the laws below pass that audit identically.
"""

from __future__ import annotations

__all__ = [
    "SO2_BRANCH_HALFWIDTH",
    "so2_closed_form",
    "so2_rates",
    "z2_auxiliary",
    "z2_scalar_rates",
    "z2_coframe_rates",
    "z2_connection",
    "z2_second_form",
    "Z2_STATE_NAMES",
]

import math

# ---------------------------------------------------------------------------
# Circle-symmetric (SO(2)) profile: two scalars (r, t) driven by one form w1.
#
# Convention note: the circle-symmetric family below uses the parameter
# placement r^{3/4} = c^{-3/4} cos 3theta, r^{-1/4} t = c^{-3/4} sin 3theta,
# w1 = c dtheta / (cos 3theta)^{4/3}, conserving K = r^{3/2} + r^{-1/2} t^2
# = c^{-3/2}.  The order-3 discrete family (gallery `z3_family`) uses the
# opposite placement, r^{3/4} = c^{3/4} cos 3theta with
# w1 = dtheta / (c (cos 3theta)^{4/3}): the two conventions are exchanged by
# c -> c^{-1/3} together with the scale normalization of the defining plane
# curve (t^3 - 3s^2 t equal to c^3 in the first convention, to c in the
# second).  Each consumer states which placement it uses.

SO2_BRANCH_HALFWIDTH = math.pi / 6.0


def so2_rates(r, t):
    """Arc-length rates (dr/dl, dt/dl) of the circle-symmetric profile.

    dr = -4 r t w1 and dt = (3 r^2 - t^2) w1; motion along the profile axis
    has w1 = dl (arc length).
    """
    return (-4.0 * r * t, 3.0 * r * r - t * t)


def so2_closed_form(c, theta):
    """Closed-form (r, t) of the circle-symmetric profile at angle theta.

    r = c^-1 (cos 3theta)^{4/3}, t = c^-1 (cos 3theta)^{1/3} sin 3theta,
    valid for a finite c > 0 and |theta| < pi/6 (cos 3theta > 0), else
    ValueError; the bound is tested on theta itself, since cos 3theta
    rounds to 6e-17 > 0 at theta = pi/6.  Conserves
    K = r^{3/2} + r^{-1/2} t^2 = c^{-3/2}.
    """
    if not 0.0 < c < math.inf:  # NaN fails too
        raise ValueError("profile constant c must be finite and positive")
    if not abs(theta) < SO2_BRANCH_HALFWIDTH:  # NaN fails too
        raise ValueError("theta outside the open branch (|theta| < pi/6)")
    c3 = math.cos(3.0 * theta)
    r = (c3 ** (4.0 / 3.0)) / c
    t = (c3 ** (1.0 / 3.0)) * math.sin(3.0 * theta) / c
    return r, t


# ---------------------------------------------------------------------------
# Order-2-symmetric system: six scalars (r, s, t1, t2, t3, u1).

Z2_STATE_NAMES = ("r", "s", "t1", "t2", "t3", "u1")


def z2_auxiliary(state):
    """Eliminated auxiliaries (u2, u3) as functions of the six-scalar state."""
    r, s, t1, t2, t3, u1 = state
    u2 = 0.5 * (-2.0 * r * t1 * t1 + r * t2 * t2 - 3.0 * s * t2 * t3
                + r * t3 * t3) - r - s * u1
    u3 = 0.5 * (2.0 * s * t1 * t1 - s * t2 * t2 + 3.0 * r * t2 * t3
                - s * t3 * t3) + s + r * u1
    return u2, u3


def z2_scalar_rates(state):
    """Rows G[q] = (coefficient of w1, w2, w3) in dq, for q in Z2_STATE_NAMES."""
    r, s, t1, t2, t3, u1 = state
    u2, u3 = z2_auxiliary(state)
    dr = (2.0 * (s * s + 2.0 * r * r) * t1,
          2.0 * r * s * t3 + s * s * t2,
          -(2.0 * r * s * t2 + s * s * t3))
    ds = (6.0 * r * s * t1,
          s * (2.0 * s * t3 + r * t2),
          -s * (2.0 * s * t2 + r * t3))
    dt1 = (s * u1 - 3.0 * r * (1.0 + t1 * t1), 0.0 * r, 0.0 * r)
    dt2 = (-3.0 * t1 * (r * t2 - s * t3),
           u2 - 1.5 * r * t2 * t2,
           u3 + 1.5 * s * t2 * t2)
    dt3 = (-3.0 * t1 * (r * t3 - s * t2),
           -(u3 + 1.5 * s * t3 * t3),
           -(u2 - 1.5 * r * t3 * t3))
    du1 = (-2.0 * t1 * (3.0 * r * u1
                        + s * (-t1 * t1 + 2.0 * t2 * t2 + 2.0 * t3 * t3 - 1.0)),
           -u1 * (r * t2 + s * t3)
           + 3.0 * (r * t3 + s * t2) * (1.0 + t1 * t1),
           u1 * (s * t2 + r * t3)
           - 3.0 * (r * t2 + s * t3) * (1.0 + t1 * t1))
    return (dr, ds, dt1, dt2, dt3, du1)


def z2_coframe_rates(state):
    """Rows T[k] = coefficients of (w1^w2, w1^w3, w2^w3) in dw_k."""
    r, s, t1, t2, t3, u1 = state
    dw1 = (s * t3, -s * t2, 0.0 * r)
    dw2 = (-r * t1, s * t1, 0.5 * (r * t3 - s * t2))
    dw3 = (s * t1, -r * t1, 0.5 * (r * t2 - s * t3))
    return (dw1, dw2, dw3)


def z2_connection(state):
    """Levi-Civita connection entries A[i][j] = w-coefficients of alpha_ij."""
    r, s, t1, t2, t3, u1 = state
    z = 0.0 * r
    a23 = (z, 0.5 * (s * t2 - r * t3), 0.5 * (s * t3 - r * t2))
    a31 = (-s * t2, s * t1, -r * t1)
    a12 = (-s * t3, r * t1, -s * t1)
    neg = lambda row: tuple(-x for x in row)
    zero = (z, z, z)
    return (
        (zero, a12, neg(a31)),
        (neg(a12), zero, a23),
        (a31, neg(a23), zero),
    )


def z2_second_form(state):
    """Shape-operator entries B[i][j] = w-coefficients of beta_ij.

    These encode the pointwise cubic r w1(2w1^2 - 3w2^2 - 3w3^2) + 6s w1w2w3
    through beta_ij = h_ijk w_k.
    """
    r, s, t1, t2, t3, u1 = state
    z = 0.0 * r
    b11 = (2.0 * r, z, z)
    b12 = (z, -r, s)
    b13 = (z, s, -r)
    b22 = (-r, z, z)
    b23 = (s, z, z)
    b33 = (-r, z, z)
    return (
        (b11, b12, b13),
        (b12, b22, b23),
        (b13, b23, b33),
    )
