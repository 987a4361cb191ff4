"""Explicit special Lagrangian families as ready-made immersion patches.

Every entry provides an analytic jacobian (second derivatives are analytic
where convenient and finite differences of the analytic jacobian elsewhere),
a parameter domain that keeps clear of the family's singular loci, and the
stabilizer type its fundamental cubic must have on the whole default grid.

The cone-with-twist construction builds Lagrangian 3-folds over a minimal
Legendrian surface x: Σ → S⁵ and a linear height b = <a, x>: the R⁶-valued
1-form β = x·★db − b·★dx is closed precisely because b is a first-order
spherical harmonic restricted to Σ, its primitive 𝐛 is found by composite
Simpson integration along axis paths, and X = 𝐛 + t·x is the patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import apply_j, from_complex, to_complex, upsilon0
from .cubics import StabilizerType
from .geometry import ImmersionPatch, grid_axes

__all__ = [
    "GalleryEntry",
    "LegendrianSurface",
    "plane",
    "harvey_lawson_so3",
    "product_curve",
    "hl_cone",
    "l_lambda",
    "clifford_link",
    "great_sphere",
    "flat_torus",
    "legendrian_residual",
    "legendrian_loop_residual",
    "twisted_cone",
    "z3_family",
    "default_gallery",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GalleryEntry:
    """A patch together with its expected cubic type and default grid."""

    patch: ImmersionPatch
    expected_type: StabilizerType
    default_counts: tuple
    notes: str = ""


# --- flat plane --------------------------------------------------------------

def plane() -> ImmersionPatch:
    """The real 3-plane R³ ⊂ C³; totally geodesic, cubic identically zero."""
    zero63 = np.zeros((6, 3))
    zero63[:3, :3] = np.eye(3)

    def ev(u):
        out = np.zeros(6)
        out[:3] = u
        return out

    return ImmersionPatch(
        name="plane", params={},
        domain=((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        eval=ev, jac=lambda u: zero63.copy(),
        hess=lambda u: np.zeros((6, 3, 3)))


# --- the rotationally invariant family over S² -------------------------------

def _branch_rho(c3, gamma):
    """ρ with ρ³·(-sin 3γ) = c3 on the branch where -sign(c3)·sin 3γ > 0."""
    third = math.pi / 3.0
    in_branch = (-third < gamma < 0.0) if c3 > 0.0 else (0.0 < gamma < third)
    p = -math.copysign(1.0, c3) * math.sin(3.0 * gamma)
    if not in_branch or p <= 0.0:
        raise ValueError(f"gamma={gamma} is outside the profile branch")
    amp = abs(c3) ** (1.0 / 3.0)
    rho = amp * p ** (-1.0 / 3.0)
    d_rho = amp * math.copysign(1.0, c3) * math.cos(3.0 * gamma) * p ** (-4.0 / 3.0)
    dd_rho = amp * (3.0 * p ** (-1.0 / 3.0)
                    + 4.0 * math.cos(3.0 * gamma) ** 2 * p ** (-7.0 / 3.0))
    return rho, d_rho, dd_rho


def _sphere_chart(phi, psi):
    sp, cp = math.sin(phi), math.cos(phi)
    ss, cs = math.sin(psi), math.cos(psi)
    n = np.array([cp, sp * cs, sp * ss])
    n_phi = np.array([-sp, cp * cs, cp * ss])
    n_psi = np.array([0.0, -sp * ss, sp * cs])
    n_phiphi = -n
    n_phipsi = np.array([0.0, -cp * ss, cp * cs])
    n_psipsi = np.array([0.0, -sp * cs, -sp * ss])
    return n, n_phi, n_psi, n_phiphi, n_phipsi, n_psipsi


def harvey_lawson_so3(c: float) -> ImmersionPatch:
    """Rotation-invariant family F(γ,φ,ψ) = ρ(γ)·e^{iγ}·n(φ,ψ), ρ³(-sin3γ)=c³.

    n is a unit-sphere chart, the branch is γ ∈ (-π/3, 0), and ρ(-π/6) = c is
    the waist radius.  Every point has a circle-invariant cubic.
    """
    c = float(c)
    if c <= 0.0:
        raise ValueError("the waist radius c must be positive")

    def _w(gamma):
        rho, d1, d2 = _branch_rho(c ** 3, gamma)
        e = complex(math.cos(gamma), math.sin(gamma))
        return rho * e, (d1 + 1j * rho) * e, (d2 + 2j * d1 - rho) * e

    def ev(u):
        w, _, _ = _w(u[0])
        n = _sphere_chart(u[1], u[2])[0]
        return from_complex(w * n)

    def jc(u):
        w, wg, _ = _w(u[0])
        n, n_phi, n_psi = _sphere_chart(u[1], u[2])[:3]
        return from_complex(np.stack([wg * n, w * n_phi, w * n_psi])).T

    def hs(u):
        w, wg, wgg = _w(u[0])
        n, n_phi, n_psi, n_pp, n_pq, n_qq = _sphere_chart(u[1], u[2])
        rows = np.array([[wgg * n, wg * n_phi, wg * n_psi],
                         [wg * n_phi, w * n_pp, w * n_pq],
                         [wg * n_psi, w * n_pq, w * n_qq]])
        return np.moveaxis(from_complex(rows), 2, 0)

    third = math.pi / 3.0
    return ImmersionPatch(
        name="harvey_lawson_so3", params={"c": c},
        domain=((-0.95 * third, -0.05 * third), (0.4, math.pi - 0.4),
                (0.0, _TWO_PI)),
        eval=ev, jac=jc, hess=hs)


# --- products of a line with a plane holomorphic curve -----------------------

_PRODUCT_PRESETS = {
    "zero": (lambda w: 0j, lambda w: 0j, lambda w: 0j),
    "square": (lambda w: w * w, lambda w: 2.0 * w, lambda w: 2.0 + 0j),
}


def _product_from_curve(name, params, domain, curve):
    """Patch (x₁, Re w, -Im w, 0, Re v, Im v) for a holomorphic w ↦ (w, v)."""

    def ev(u):
        w, v = curve(complex(u[1], u[2]))[:2]
        return np.array([u[0], w.real, -w.imag, 0.0, v.real, v.imag])

    def jc(u):
        w, v, dw, dv = curve(complex(u[1], u[2]))
        da = np.array([0.0, dw.real, -dw.imag, 0.0, dv.real, dv.imag])
        db = np.array([0.0, -dw.imag, -dw.real, 0.0, -dv.imag, dv.real])
        out = np.zeros((6, 3))
        out[0, 0] = 1.0
        out[:, 1] = da
        out[:, 2] = db
        return out

    return ImmersionPatch(name=name, params=params, domain=domain,
                          eval=ev, jac=jc)


def product_curve(kind="square", c=1.0, f=None, df=None, d2f=None,
                  domain=None) -> ImmersionPatch:
    """Product of a real line with a plane curve, F = (x₁, Re w, -Im w, 0, Re v, Im v).

    kind "zero" or "square" (or callables f, df, d2f) take v = f(w) on the
    graph w = u₂ + i·u₃; kind "hyperbolic" takes the curve w = c·cosh ζ,
    v = c·sinh ζ parametrized by ζ = u₂ + i·u₃.  Holomorphic v(w) makes the
    product special Lagrangian; f ≡ 0 gives the flat real plane.
    """
    if kind == "hyperbolic":
        c = float(c)
        if c <= 0.0:
            raise ValueError("hyperbolic branch parameter c must be positive")

        def curve(z):
            w = c * np.cosh(z)
            v = c * np.sinh(z)
            return w, v, v, w          # dw/dζ = v, dv/dζ = w

        def hs(u):
            w, v = curve(complex(u[1], u[2]))[:2]
            out = np.zeros((6, 3, 3))
            paa = np.array([0.0, w.real, -w.imag, 0.0, v.real, v.imag])
            pab = np.array([0.0, -w.imag, -w.real, 0.0, -v.imag, v.real])
            out[:, 1, 1] = paa
            out[:, 1, 2] = out[:, 2, 1] = pab
            out[:, 2, 2] = -paa
            return out

        dom = domain or ((-1.0, 1.0), (-0.6, 0.6), (-0.6, 0.6))
        patch = _product_from_curve(
            "product_hyperbolic", {"kind": kind, "c": c}, dom, curve)
        return ImmersionPatch(name=patch.name, params=patch.params,
                              domain=dom, eval=patch.eval, jac=patch.jac,
                              hess=hs)

    if f is None:
        try:
            f, df, d2f = _PRODUCT_PRESETS[kind]
        except KeyError:
            raise ValueError(f"unknown product preset {kind!r}") from None
    elif df is None or d2f is None:
        raise ValueError("a custom curve needs f, df and d2f")

    def curve(z):
        return z, f(z), 1.0 + 0j, df(z)

    def hs(u):
        v2 = d2f(complex(u[1], u[2]))
        out = np.zeros((6, 3, 3))
        paa = np.array([0.0, 0.0, 0.0, 0.0, v2.real, v2.imag])
        pab = np.array([0.0, 0.0, 0.0, 0.0, -v2.imag, v2.real])
        out[:, 1, 1] = paa
        out[:, 1, 2] = out[:, 2, 1] = pab
        out[:, 2, 2] = -paa
        return out

    dom = domain or ((-1.0, 1.0), (0.2, 1.2), (0.15, 1.15))
    patch = _product_from_curve(
        f"product_{kind}", {"kind": kind}, dom, curve)
    return ImmersionPatch(name=patch.name, params=patch.params, domain=dom,
                          eval=patch.eval, jac=patch.jac, hess=hs)


# --- torus cones and closed-orbit tori ---------------------------------------

def hl_cone() -> ImmersionPatch:
    """Cone over the minimal Legendrian torus, F = (ρ/√3)(e^{iθ₁}, e^{iθ₂}, e^{-i(θ₁+θ₂)})."""

    def _z(u):
        rho, t1, t2 = u
        if rho <= 0.0:
            raise ValueError("the cone radius must be positive")
        return (rho / math.sqrt(3.0)) * np.exp(
            1j * np.array([t1, t2, -(t1 + t2)]))

    def ev(u):
        return from_complex(_z(u))

    def jc(u):
        z = _z(u)
        cols = np.stack([z / u[0],
                         1j * z * np.array([1.0, 0.0, -1.0]),
                         1j * z * np.array([0.0, 1.0, -1.0])])
        return from_complex(cols).T

    def hs(u):
        z = _z(u)
        d1 = np.array([1.0, 0.0, -1.0])
        d2 = np.array([0.0, 1.0, -1.0])
        rows = np.array([
            [np.zeros(3, complex), 1j * z * d1 / u[0], 1j * z * d2 / u[0]],
            [1j * z * d1 / u[0], -z * d1 * d1, -z * d1 * d2],
            [1j * z * d2 / u[0], -z * d1 * d2, -z * d2 * d2]])
        return np.moveaxis(from_complex(rows), 2, 0)

    return ImmersionPatch(
        name="hl_cone", params={},
        domain=((0.4, 1.6), (0.0, _TWO_PI), (0.0, _TWO_PI)),
        eval=ev, jac=jc, hess=hs)


def l_lambda(l1: float, l2: float, l3: float) -> ImmersionPatch:
    """Closed-orbit torus family F = (r₁e^{i(π/6+λ₁t)}, r₂e^{i(π/6+λ₂t)}, r₃e^{i(π/6+λ₃t)}).

    The weights must satisfy λ₁ + λ₂ + λ₃ = 0 with λ₁ ≥ λ₂ > 0 > λ₃, and the
    third radius is pinned by λ₁r₁² + λ₂r₂² + λ₃r₃² = 0.
    """
    lam = np.array([float(l1), float(l2), float(l3)])
    if abs(lam.sum()) > 1e-12:
        raise ValueError("the weights must sum to zero")
    if not (lam[0] >= lam[1] > 0.0 > lam[2]):
        raise ValueError("the weights must satisfy λ1 ≥ λ2 > 0 > λ3")

    def _r3(r1, r2):
        a = (lam[0] * r1 ** 2 + lam[1] * r2 ** 2) / (-lam[2])
        r3 = math.sqrt(a)
        g = np.array([lam[0] * r1, lam[1] * r2]) / (-lam[2] * r3)
        hess_r3 = (np.diag([lam[0], lam[1]]) / (-lam[2]) - np.outer(g, g)) / r3
        return r3, g, hess_r3

    def _z(u):
        t, r1, r2 = u
        r3 = _r3(r1, r2)[0]
        return np.array([r1, r2, r3]) * np.exp(
            1j * (math.pi / 6.0 + lam * t))

    def ev(u):
        return from_complex(_z(u))

    def jc(u):
        z = _z(u)
        r3, g, _ = _r3(u[1], u[2])
        phase = z / np.array([u[1], u[2], r3])
        cols = np.stack([1j * lam * z,
                         np.array([phase[0], 0.0, g[0] * phase[2]]),
                         np.array([0.0, phase[1], g[1] * phase[2]])])
        return from_complex(cols).T

    def hs(u):
        z = _z(u)
        r3, g, h3 = _r3(u[1], u[2])
        phase = z / np.array([u[1], u[2], r3])
        dr = [np.array([phase[0], 0.0, g[0] * phase[2]]),
              np.array([0.0, phase[1], g[1] * phase[2]])]
        rows = np.empty((3, 3, 3), dtype=complex)
        rows[0, 0] = -lam * lam * z
        for a in range(2):
            rows[0, a + 1] = rows[a + 1, 0] = 1j * lam * dr[a]
            for b in range(2):
                rows[a + 1, b + 1] = np.array(
                    [0.0, 0.0, h3[a, b] * phase[2]])
        return np.moveaxis(from_complex(rows), 2, 0)

    return ImmersionPatch(
        name="l_lambda", params={"l1": lam[0], "l2": lam[1], "l3": lam[2]},
        domain=((0.0, 0.6), (0.6, 1.4), (0.6, 1.4)),
        eval=ev, jac=jc, hess=hs)


# --- minimal Legendrian surfaces in S⁵ and their cones -----------------------

@dataclass(frozen=True)
class LegendrianSurface:
    """Surface x: (θ₁,θ₂) → S⁵ ⊂ C³ given by eval/jac in complex form.

    eval returns a unit complex 3-vector, jac its (3,2) complex tangent map.
    """

    name: str
    eval: callable
    jac: callable
    domain: tuple = ((0.0, _TWO_PI), (0.0, _TWO_PI))

    def metric(self, theta):
        """Induced 2x2 metric from the real inner product of tangents."""
        t = from_complex(np.asarray(self.jac(theta)).T).T
        return t.T @ t


def clifford_link() -> LegendrianSurface:
    """Minimal Legendrian torus (e^{iθ₁}, e^{iθ₂}, e^{-i(θ₁+θ₂)})/√3."""

    def ev(theta):
        return np.exp(1j * np.array([theta[0], theta[1],
                                     -(theta[0] + theta[1])])) / math.sqrt(3.0)

    def jc(theta):
        z = ev(theta)
        return 1j * np.stack([z * np.array([1.0, 0.0, -1.0]),
                              z * np.array([0.0, 1.0, -1.0])]).T

    return LegendrianSurface(name="clifford_link", eval=ev, jac=jc)


def great_sphere() -> LegendrianSurface:
    """Totally real equatorial S² = S⁵ ∩ R³ (totally geodesic, Legendrian)."""

    def ev(theta):
        return _sphere_chart(theta[0], theta[1])[0].astype(complex)

    def jc(theta):
        _, n_phi, n_psi = _sphere_chart(theta[0], theta[1])[:3]
        return np.stack([n_phi, n_psi]).T.astype(complex)

    return LegendrianSurface(name="great_sphere", eval=ev, jac=jc,
                             domain=((0.35, math.pi - 0.35), (0.0, _TWO_PI)))


def flat_torus() -> LegendrianSurface:
    """Non-Legendrian control torus (e^{iθ₁}, e^{iθ₂}, 0)/√2."""

    def ev(theta):
        return np.array([np.exp(1j * theta[0]), np.exp(1j * theta[1]),
                         0.0]) / math.sqrt(2.0)

    def jc(theta):
        z = ev(theta)
        return 1j * np.stack([z * np.array([1.0, 0.0, 0.0]),
                              z * np.array([0.0, 1.0, 0.0])]).T

    return LegendrianSurface(name="flat_torus", eval=ev, jac=jc)


def _check_unit(s, deviation):
    """Reject a surface whose points' norms deviate from 1 by `deviation`."""
    if deviation > 1e-12:
        raise ValueError(f"{s.name!r} does not map into the unit sphere")


def _surface_frame(s: LegendrianSurface, theta):
    """(x, tangents, metric) of a surface point, all in real 6-vector form."""
    x = from_complex(np.asarray(s.eval(theta)))
    t = from_complex(np.asarray(s.jac(theta)).T).T      # (6, 2)
    _check_unit(s, abs(np.linalg.norm(x) - 1.0))
    return x, t, t.T @ t


def _surface_frames(s: LegendrianSurface, thetas):
    """_surface_frame at each row of thetas (n, 2), stacked: x (n, 6),
    tangents (n, 6, 2) and metrics (n, 2, 2).  The surface maps take one
    point per call."""
    x = from_complex(np.array([s.eval(th) for th in thetas]))
    tt = from_complex(np.array([np.asarray(s.jac(th)).T for th in thetas]))
    _check_unit(s, np.abs(np.linalg.norm(x, axis=1) - 1.0).max())
    return x, tt.transpose(0, 2, 1), tt @ tt.transpose(0, 2, 1)


def legendrian_residual(s: LegendrianSurface, counts=(12, 12), margin=0.05):
    """(theta_res, psi_res): worst contact pairing and worst Im Υ₀ pairing.

    theta_res is max |<Jx, t>| / |t| over grid tangents; psi_res is
    max |Im Υ₀(x, t₁, t₂)| normalized by the spanned 3-volume.
    """
    axes = grid_axes(s.domain, counts, margin)
    theta_res = psi_res = 0.0
    for a in axes[0]:
        for b in axes[1]:
            x, t, g = _surface_frame(s, (a, b))
            jx = apply_j(x)
            for col in range(2):
                theta_res = max(theta_res, abs(jx @ t[:, col])
                                / np.linalg.norm(t[:, col]))
            m = np.column_stack([x, t])
            vol = math.sqrt(max(np.linalg.det(m.T @ m), 0.0))
            psi_res = max(psi_res,
                          abs(upsilon0(x, t[:, 0], t[:, 1]).imag) / vol)
    return theta_res, psi_res


_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _beta(avec, frame):
    """The R⁶-valued 1-form β = x·★db − b·★dx for the height b = <avec, x>,
    rows indexed by dθ_a, at the point whose ``_surface_frame`` is frame."""
    x, t, g = frame
    sq = math.sqrt(max(np.linalg.det(g), 0.0))
    ginv = np.linalg.inv(g)
    star_db = sq * (_EPS2 @ (ginv @ (t.T @ avec)))      # (2,)
    star_dx = sq * (_EPS2 @ (ginv @ t.T))               # (2, 6)
    return np.outer(star_db, x) - float(avec @ x) * star_dx


def _betas(avec, frames):
    """_beta at every frame of a _surface_frames stack, (n, 2, 6)."""
    x, t, g = frames
    sq = np.sqrt(np.maximum(np.linalg.det(g), 0.0))[:, None, None]
    ginv = np.linalg.inv(g)
    tt = t.transpose(0, 2, 1)                           # (n, 2, 6)
    star_db = sq * (_EPS2 @ (ginv @ (tt @ avec)[:, :, None]))  # (n, 2, 1)
    star_dx = sq * (_EPS2 @ (ginv @ tt))                # (n, 2, 6)
    height = x[:, None, :] @ avec                       # (n, 1): b = <a, x>
    return star_db * x[:, None, :] - height[:, :, None] * star_dx


def _path_simpson(s, avec, legs, n):
    """Composite Simpson integrals of β along axis-parallel legs, with one
    stacked frame evaluation for the nodes of all legs.

    A leg (axis, fixed, start, stop) runs θ_axis from start to stop with the
    other coordinate at fixed, and integrates the dθ_axis row of β.  Returns
    one 6-vector per leg.
    """
    n = int(n) + (int(n) % 2)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    thetas = np.empty((len(legs), n + 1, 2))
    for k, (axis, fixed, start, stop) in enumerate(legs):
        thetas[k, :, axis] = np.linspace(start, stop, n + 1)
        thetas[k, :, 1 - axis] = fixed
    betas = _betas(avec, _surface_frames(s, thetas.reshape(-1, 2)))
    betas = betas.reshape(len(legs), n + 1, 2, 6)
    return [(stop - start) / (3.0 * n)
            * np.einsum("s,s...->...", w, betas[k, :, axis])
            for k, (axis, _, start, stop) in enumerate(legs)]


def _rect_loop(s, avec, rect, n):
    (a0, a1), (b0, b1) = rect
    bottom, right, top, left = _path_simpson(
        s, avec, [(0, b0, a0, a1), (1, a1, b0, b1), (0, b1, a0, a1),
                  (1, a0, b0, b1)], n)
    return float(np.linalg.norm(bottom + right - top - left))


def legendrian_loop_residual(s: LegendrianSurface, avec, n=400):
    """Worst |∮β| over test rectangles in the domain; zero when β is closed.

    The rectangles deliberately span irregular fractions of the domain: on a
    full period box the boundary integral cancels by periodicity whether or
    not β is closed, so sub-rectangles are what actually probe dβ.
    """
    avec = np.asarray(avec, dtype=float)
    (a0, a1), (b0, b1) = s.domain
    da, db = a1 - a0, b1 - b0
    rects = (
        ((a0, a1), (b0, b1)),
        ((a0 + 0.05 * da, a0 + 0.47 * da), (b0 + 0.05 * db, b0 + 0.71 * db)),
        ((a0 + 0.13 * da, a0 + 0.83 * da), (b0 + 0.29 * db, b0 + 0.57 * db)),
    )
    return max(_rect_loop(s, avec, rect, n) for rect in rects)


def twisted_cone(s: LegendrianSurface, avec, t_range=(0.6, 1.6),
                 n_simpson=150, loop_tol=1e-6) -> ImmersionPatch:
    """Cone with a twist over a minimal Legendrian surface.

    F(t, θ₁, θ₂) = 𝐛(θ) + t·x(θ) with d𝐛 = β = x·★db − b·★dx and b = <a, x>.
    Closedness of β is audited by the boundary loop integral at construction
    time; a = 0 reduces to the plain cone t·x.
    """
    avec = np.asarray(avec, dtype=float)
    if avec.shape != (6,):
        raise ValueError("the direction a must be a real 6-vector")
    if np.linalg.norm(avec) > 0.0:
        loop = legendrian_loop_residual(s, avec)
        if loop > loop_tol:
            raise ValueError(
                f"β is not closed on {s.name!r} (loop residual {loop:.3e}); "
                "the height <a, x> is not compatible with this surface")
    (a0, _), (b0, _) = s.domain

    def _bvec(theta):
        if np.linalg.norm(avec) == 0.0:
            return np.zeros(6)
        leg1, leg2 = _path_simpson(
            s, avec, [(0, b0, a0, theta[0]), (1, theta[0], b0, theta[1])],
            n_simpson)
        return leg1 + leg2

    def ev(u):
        x = from_complex(np.asarray(s.eval(u[1:])))
        return _bvec(u[1:]) + u[0] * x

    def jc(u):
        frame = _surface_frame(s, u[1:])
        x, t, _ = frame
        beta = _beta(avec, frame)
        out = np.empty((6, 3))
        out[:, 0] = x
        out[:, 1] = beta[0] + u[0] * t[:, 0]
        out[:, 2] = beta[1] + u[0] * t[:, 1]
        return out

    dom = (tuple(float(v) for v in t_range), s.domain[0], s.domain[1])
    return ImmersionPatch(
        name="twisted_cone", params={"surface": s.name,
                                     "a": tuple(float(v) for v in avec)},
        domain=dom, eval=ev, jac=jc)


def z3_family(s: LegendrianSurface, c: float) -> ImmersionPatch:
    """Order-3-symmetric family F(γ,θ) = ρ(γ)·e^{iγ}·x(θ) with ρ³(-sin3γ) = c.

    Built over a minimal Legendrian surface; away from the cone slice γ → 0
    the cubic has exactly an order-3 axis.
    """
    c = float(c)
    if c == 0.0:
        raise ValueError("the profile constant c must be nonzero")

    def _w(gamma):
        rho, d1, _ = _branch_rho(c, gamma)
        e = complex(math.cos(gamma), math.sin(gamma))
        return rho * e, (d1 + 1j * rho) * e

    def ev(u):
        w, _ = _w(u[0])
        return from_complex(w * np.asarray(s.eval(u[1:])))

    def jc(u):
        w, wg = _w(u[0])
        x = np.asarray(s.eval(u[1:]))
        t = np.asarray(s.jac(u[1:]))
        return from_complex(np.stack([wg * x, w * t[:, 0], w * t[:, 1]])).T

    third = math.pi / 3.0
    if c > 0.0:
        dom_gamma = (-0.95 * third, -0.05 * third)
    else:
        dom_gamma = (0.05 * third, 0.95 * third)
    return ImmersionPatch(
        name="z3_family", params={"surface": s.name, "c": c},
        domain=(dom_gamma, s.domain[0], s.domain[1]),
        eval=ev, jac=jc)


def default_gallery() -> dict:
    """The standard entries keyed by name, with expected types and grids."""
    e1 = np.zeros(6)
    e1[0] = 1.0
    return {
        "plane": GalleryEntry(
            plane(), StabilizerType.FULL, (3, 3, 3),
            "totally geodesic; every node is fully symmetric"),
        "harvey_lawson_so3": GalleryEntry(
            harvey_lawson_so3(1.0), StabilizerType.CIRCLE, (5, 6, 6),
            "rotationally invariant; circle-type cubic on the whole branch"),
        "product_square": GalleryEntry(
            product_curve("square"), StabilizerType.S3, (5, 6, 6),
            "line times the graph of w ↦ w²"),
        "product_hyperbolic": GalleryEntry(
            product_curve("hyperbolic", c=1.0), StabilizerType.S3, (5, 6, 6),
            "line times the hyperbola w² - v² = 1"),
        "hl_cone": GalleryEntry(
            hl_cone(), StabilizerType.S3, (5, 8, 8),
            "cone over the minimal Legendrian torus"),
        "l_lambda": GalleryEntry(
            l_lambda(1.0, 1.0, -2.0), StabilizerType.S3, (5, 6, 6),
            "closed-orbit torus family with weights (1, 1, -2)"),
        "twisted_cone": GalleryEntry(
            twisted_cone(clifford_link(), e1), StabilizerType.S3, (4, 6, 6),
            "cone with a linear-height twist over the Clifford link"),
        "z3_family": GalleryEntry(
            z3_family(clifford_link(), 1.0), StabilizerType.Z3, (5, 6, 6),
            "order-3 family over the Clifford link"),
    }
