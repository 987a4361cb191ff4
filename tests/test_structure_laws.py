"""The closed-form Circle (SO(2)) profile of structure_laws against its own
conserved quantity and rate law."""

import math

import numpy as np
import pytest

from slag3.structure_laws import (
    SO2_BRANCH_HALFWIDTH,
    so2_closed_form,
    so2_rates,
)

THETAS = np.linspace(-0.95, 0.95, 39) * SO2_BRANCH_HALFWIDTH


@pytest.mark.parametrize("c", [0.7, 1.0, 2.5])
def test_so2_closed_form_conserves_its_invariant(c):
    # K = r^{3/2} + r^{-1/2} t^2 = c^{-3/2} along the whole branch;
    # measured at most 4.4e-16 absolute on this grid
    for theta in THETAS:
        r, t = so2_closed_form(c, theta)
        assert r > 0.0
        assert abs(r ** 1.5 + t * t / math.sqrt(r) - c ** -1.5) <= 1e-15


@pytest.mark.parametrize("c", [0.7, 1.0, 2.5])
def test_so2_closed_form_moves_along_its_rates(c):
    # the closed form solves the rate law pointwise: its theta-tangent, by
    # central differences at step 1e-6, is the arc-length rates
    # (dr/dl, dt/dl) at its point times dl/dtheta = w1/dtheta
    # = c / (cos 3theta)^{4/3}.  The normalized cross product measured at
    # most 1e-10 and the relative error at most 2.6e-10, the differences'
    # rounding and truncation
    h = 1e-6
    for theta in THETAS:
        r, t = so2_closed_form(c, theta)
        tangent = np.subtract(so2_closed_form(c, theta + h),
                              so2_closed_form(c, theta - h)) / (2.0 * h)
        rates = np.array(so2_rates(r, t))
        cross = tangent[0] * rates[1] - tangent[1] * rates[0]
        assert (abs(cross) / (np.linalg.norm(tangent) * np.linalg.norm(rates))
                <= 1e-9)
        # same orientation as well: w1 = c dtheta / (cos 3theta)^{4/3} > 0
        assert tangent @ rates > 0.0
        want = rates * c / math.cos(3.0 * theta) ** (4.0 / 3.0)
        assert (np.linalg.norm(tangent - want) / np.linalg.norm(want)
                <= 1e-9)


@pytest.mark.parametrize("theta", [SO2_BRANCH_HALFWIDTH,
                                   -SO2_BRANCH_HALFWIDTH, 0.6, -1.0,
                                   2.0 * math.pi / 3.0, math.nan])
def test_so2_closed_form_rejects_theta_off_the_branch(theta):
    # at theta = pi/6 itself cos 3theta rounds to 6e-17 > 0, and at
    # 2 pi / 3 it is 1: the bound is on theta
    with pytest.raises(ValueError, match="open branch"):
        so2_closed_form(1.0, theta)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
def test_so2_closed_form_rejects_c_that_is_not_finite_and_positive(c):
    # unchecked, c = 0 divided by zero, c = -1 gave r < 0, NaN gave
    # (nan, nan) and inf gave (0, 0)
    with pytest.raises(ValueError, match="finite and positive"):
        so2_closed_form(c, 0.1)
