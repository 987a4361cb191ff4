"""Explicit special Lagrangian families as ready-made immersion patches.

Every entry provides an analytic jacobian (second derivatives are analytic
where convenient and finite differences of the analytic jacobian elsewhere),
a parameter domain that keeps clear of the family's singular loci, and the
stabilizer type its fundamental cubic must have on the whole default grid.

Each family is written once, in C³: its maps take the (n, 3) stack of
parameter points to complex F (n, 3), ∂F (n, 3, 3) and ∂²F (n, 3, 3, 3),
the C³ index first, and `_patch` alone makes them real in the layout of
`from_complex`, real parts over imaginary parts along that index.

The cone-with-twist construction builds Lagrangian 3-folds over a minimal
Legendrian surface x: Σ → S⁵ and a linear height b = <a, x>: the R⁶-valued
1-form β = x·★db − b·★dx is closed precisely because b is a first-order
spherical harmonic restricted to Σ, its primitive 𝐛 is found by
Gauss–Legendre integration along axis paths, and X = 𝐛 + t·x is the patch.
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
_GL_NODES = 16               # Gauss–Legendre nodes per twisted-cone leg
_LEGENDRIAN_GRID = (12, 12)  # audit grid of legendrian_residual
_LOOP_TOL = 1e-6             # |∮β| that twisted_cone admits as closed


@dataclass(frozen=True)
class GalleryEntry:
    """A patch together with its expected cubic type and default grid."""

    patch: ImmersionPatch
    expected_type: StabilizerType
    default_counts: tuple
    notes: str = ""


def _patch(name, params, domain, ev, jc, hs=None):
    """ImmersionPatch from maps ev, jc, hs that take the (n, 3) stack of
    their points to F (n, 3), ∂F (n, 3, 3) and ∂²F (n, 3, 3, 3) in C³.  Each
    patch map puts real parts over imaginary parts along the C³ index and
    reshapes back, so a bare point (3,) rounds as a one-row stack: numpy's
    complex arithmetic on 0-d operands is not its array loop."""

    def stacked(fn):
        def mapped(u):
            u = np.asarray(u, dtype=float)
            z = fn(u.reshape(-1, 3))
            out = np.concatenate([z.real, z.imag], axis=1)
            return out.reshape(u.shape[:-1] + out.shape[1:])
        return None if fn is None else mapped

    return ImmersionPatch(name=name, params=params, domain=domain,
                          eval=stacked(ev), jac=stacked(jc), hess=stacked(hs))


# --- flat plane --------------------------------------------------------------

def plane() -> ImmersionPatch:
    """The real 3-plane R³ ⊂ C³; totally geodesic, cubic identically zero."""
    return _patch("plane", {}, ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
                  lambda u: u.astype(complex),
                  lambda u: np.tile(np.eye(3, dtype=complex), (len(u), 1, 1)),
                  lambda u: np.zeros((len(u), 3, 3, 3), complex))


# --- the rotationally invariant family over S² -------------------------------

def _circle_profile(c3, gamma):
    """w = ρ(γ)·e^{iγ} and its first two γ-derivatives at each γ of an array,
    where ρ³·(-sin 3γ) = c3 on the branch -sign(c3)·sin 3γ > 0."""
    third = math.pi / 3.0
    in_branch = (((-third < gamma) & (gamma < 0.0)) if c3 > 0.0
                 else ((0.0 < gamma) & (gamma < third)))
    p = -math.copysign(1.0, c3) * np.sin(3.0 * gamma)
    outside = ~(in_branch & (p > 0.0))
    if outside.any():
        raise ValueError(
            f"gamma={gamma[outside].flat[0]} is outside the profile branch")
    amp = abs(c3) ** (1.0 / 3.0)
    cos3 = np.cos(3.0 * gamma)
    rho = amp * p ** (-1.0 / 3.0)
    d1 = amp * math.copysign(1.0, c3) * cos3 * p ** (-4.0 / 3.0)
    d2 = amp * (3.0 * p ** (-1.0 / 3.0) + 4.0 * cos3 ** 2 * p ** (-7.0 / 3.0))
    e = np.exp(1j * gamma)
    return rho * e, (d1 + 1j * rho) * e, (d2 + 2j * d1 - rho) * e


def _sphere(theta):
    """The unit-sphere chart n(φ, ψ) (..., 3) at θ = (φ, ψ) (..., 2), its
    tangent map (..., 3, 2) and its second derivatives (..., 3, 2, 2)."""
    theta = np.asarray(theta, dtype=float)
    sp, cp = np.sin(theta[..., 0]), np.cos(theta[..., 0])
    ss, cs = np.sin(theta[..., 1]), np.cos(theta[..., 1])
    n = np.empty(sp.shape + (3,))
    n[..., 0], n[..., 1], n[..., 2] = cp, sp * cs, sp * ss
    dn = np.zeros(sp.shape + (3, 2))
    dn[..., 0, 0], dn[..., 1, 0], dn[..., 2, 0] = -sp, cp * cs, cp * ss
    dn[..., 1, 1], dn[..., 2, 1] = -sp * ss, sp * cs
    ddn = np.zeros(sp.shape + (3, 2, 2))
    ddn[..., 0, 0] = -n
    ddn[..., 1, 0, 1] = ddn[..., 1, 1, 0] = -cp * ss
    ddn[..., 2, 0, 1] = ddn[..., 2, 1, 0] = cp * cs
    ddn[..., 1, 1, 1], ddn[..., 2, 1, 1] = -sp * cs, -sp * ss
    return n, dn, ddn


def _profile_patch(name, params, c3, domain, chart, second=False):
    """F(γ, θ) = ρ(γ)·e^{iγ}·x(θ) with ρ³·(-sin 3γ) = c3, over a surface
    chart θ (n, 2) ↦ (x (n, 3), dx (n, 3, 2), ...), read once per call.
    With `second` the chart's third output is d²x (n, 3, 2, 2) and the
    patch has an analytic hessian."""

    def ev(u):
        return _circle_profile(c3, u[:, 0])[0][:, None] * chart(u[:, 1:])[0]

    def jc(u):
        w, wg, _ = _circle_profile(c3, u[:, 0])
        x, dx = chart(u[:, 1:])[:2]
        return np.concatenate([(wg[:, None] * x)[..., None],
                               w[:, None, None] * dx], axis=-1)

    def hs(u):
        w, wg, wgg = _circle_profile(c3, u[:, 0])
        x, dx, ddx = chart(u[:, 1:])
        out = np.empty(x.shape + (3, 3), complex)
        out[..., 0, 0] = wgg[:, None] * x
        out[..., 0, 1:] = out[..., 1:, 0] = wg[:, None, None] * dx
        out[..., 1:, 1:] = w[:, None, None, None] * ddx
        return out

    return _patch(name, params, domain, ev, jc, hs if second else None)


def harvey_lawson_so3(c: float) -> ImmersionPatch:
    """Rotation-invariant family F(γ,φ,ψ) = ρ(γ)·e^{iγ}·n(φ,ψ), ρ³(-sin3γ)=c³.

    n is a unit-sphere chart, the branch is γ ∈ (-π/3, 0), and ρ(-π/6) = c is
    the waist radius.  Every point has a circle-invariant cubic.
    """
    c = float(c)
    if not 0.0 < c < math.inf:  # NaN fails too
        raise ValueError("the waist radius c must be finite and positive")
    third = math.pi / 3.0
    return _profile_patch(
        "harvey_lawson_so3", {"c": c}, c ** 3,
        ((-0.95 * third, -0.05 * third), (0.4, math.pi - 0.4), (0.0, _TWO_PI)),
        _sphere, second=True)


# --- products of a line with a plane holomorphic curve -----------------------

_PRODUCT_PRESETS = {
    "zero": (np.zeros_like, np.zeros_like, np.zeros_like),
    "square": (lambda w: w * w, lambda w: 2.0 * w,
               lambda w: np.full_like(w, 2.0)),
}


def _product(name, params, domain, curve, second):
    """Patch F = (x₁, Re w + i·Re v, -Im w + i·Im v) in C³ for a holomorphic
    ζ ↦ (w, v), ζ = u₂ + i·u₃: curve(ζ) gives (w, v, w', v') and second(ζ)
    gives (w'', v'')."""

    def put(out, w, v):   # out[:, 1:] = the last two coordinates for (w, v)
        out.real[:, 1], out.real[:, 2] = w.real, -w.imag
        out.imag[:, 1], out.imag[:, 2] = v.real, v.imag

    def ev(u):
        out = np.zeros((len(u), 3), complex)
        out.real[:, 0] = u[:, 0]
        put(out, *curve(u[:, 1] + 1j * u[:, 2])[:2])
        return out

    def jc(u):
        _, _, dw, dv = curve(u[:, 1] + 1j * u[:, 2])
        out = np.zeros((len(u), 3, 3), complex)
        out[:, 0, 0] = 1.0
        put(out[..., 1], dw, dv)
        put(out[..., 2], 1j * dw, 1j * dv)
        return out

    def hs(u):
        w, v = second(u[:, 1] + 1j * u[:, 2])
        out = np.zeros((len(u), 3, 3, 3), complex)
        put(out[..., 1, 1], w, v)
        put(out[..., 1, 2], 1j * w, 1j * v)
        out[..., 2, 1] = out[..., 1, 2]
        out[..., 2, 2] = -out[..., 1, 1]
        return out

    return _patch(name, params, domain, ev, jc, hs)


def product_curve(kind="square", c=1.0, f=None, df=None,
                  d2f=None) -> ImmersionPatch:
    """Product of a real line with a plane curve, F = (x₁, Re w, -Im w, 0, Re v, Im v).

    kind "zero" or "square" (or callables f, df, d2f, giving the patch
    "product_custom" of kind "custom") take v = f(w) on the graph
    w = u₂ + i·u₃; kind "hyperbolic" takes no callables and the curve
    w = c·cosh ζ, v = c·sinh ζ parametrized by ζ = u₂ + i·u₃.  Holomorphic
    v(w) makes the product special Lagrangian; f ≡ 0 gives the flat real
    plane.  Custom callables map complex arrays elementwise, like the patch
    maps.
    """
    custom = any(g is not None for g in (f, df, d2f))
    if kind == "hyperbolic":
        if custom:
            raise ValueError("the hyperbolic curve takes no f, df or d2f")
        c = float(c)
        if not 0.0 < c < math.inf:  # NaN fails too
            raise ValueError(
                "hyperbolic branch parameter c must be finite and positive")

        def curve(z):
            w, v = c * np.cosh(z), c * np.sinh(z)
            return w, v, v, w          # dw/dζ = v, dv/dζ = w

        return _product("product_hyperbolic", {"kind": kind, "c": c},
                        ((-1.0, 1.0), (-0.6, 0.6), (-0.6, 0.6)),
                        curve, lambda z: curve(z)[:2])  # w'' = w, v'' = v
    if custom:
        if f is None or df is None or d2f is None:
            raise ValueError("a custom curve needs f, df and d2f")
        kind = "custom"
    else:
        try:
            f, df, d2f = _PRODUCT_PRESETS[kind]
        except KeyError:
            raise ValueError(f"unknown product preset {kind!r}") from None
    return _product(f"product_{kind}", {"kind": kind},
                    ((-1.0, 1.0), (0.2, 1.2), (0.15, 1.15)),
                    lambda z: (z, f(z), np.ones_like(z), df(z)),
                    lambda z: (np.zeros_like(z), d2f(z)))


# --- torus cones and closed-orbit tori ---------------------------------------

_TORUS_LEGS = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])  # ∂θ₁, ∂θ₂ phases


def _torus_phase(theta):
    """e^{i(θ₁, θ₂, -(θ₁+θ₂))} (..., 3) at θ (..., 2)."""
    return np.exp(1j * np.concatenate(
        [theta, -theta.sum(axis=-1, keepdims=True)], axis=-1))


def hl_cone() -> ImmersionPatch:
    """Cone over the minimal Legendrian torus, F = (ρ/√3)(e^{iθ₁}, e^{iθ₂}, e^{-i(θ₁+θ₂)})."""

    def ev(u):
        rho = u[:, 0]
        if np.any(rho <= 0.0):
            raise ValueError("the cone radius must be positive")
        return (rho / math.sqrt(3.0))[:, None] * _torus_phase(u[:, 1:])

    def jc(u):
        z = ev(u)
        return np.concatenate([(z / u[:, :1])[..., None],
                               (1j * z)[..., None] * _TORUS_LEGS.T], axis=-1)

    def hs(u):
        z = ev(u)
        d1, d2 = _TORUS_LEGS
        out = np.zeros((len(u), 3, 3, 3), complex)
        out[..., 0, 1:] = out[..., 1:, 0] = (
            (1j * z)[..., None] * _TORUS_LEGS.T / u[:, :1, None])
        out[..., 1, 1] = -z * d1 * d1
        out[..., 1, 2] = out[..., 2, 1] = -z * d1 * d2
        out[..., 2, 2] = -z * d2 * d2
        return out

    return _patch("hl_cone", {},
                  ((0.4, 1.6), (0.0, _TWO_PI), (0.0, _TWO_PI)), ev, jc, hs)


def l_lambda(l1: float, l2: float, l3: float) -> ImmersionPatch:
    """Closed-orbit torus family F = (r₁e^{i(π/6+λ₁t)}, r₂e^{i(π/6+λ₂t)}, r₃e^{i(π/6+λ₃t)}).

    The weights must satisfy λ₁ + λ₂ + λ₃ = 0 with λ₁ ≥ λ₂ > 0 > λ₃, and the
    third radius is pinned by λ₁r₁² + λ₂r₂² + λ₃r₃² = 0.
    """
    lam = np.array([float(l1), float(l2), float(l3)])
    if not np.isfinite(lam).all():
        raise ValueError("the weights must be finite")
    if abs(lam.sum()) > 1e-12:
        raise ValueError("the weights must sum to zero")
    if not (lam[0] >= lam[1] > 0.0 > lam[2]):
        raise ValueError("the weights must satisfy λ1 ≥ λ2 > 0 > λ3")

    def _parts(u):
        """z (n, 3), its jacobian (n, 3, 3) and ∂²z₃/∂r_a∂r_b (n, 2, 2),
        where r₃ is a function of (r₁, r₂)."""
        t, r1, r2 = u[:, 0], u[:, 1], u[:, 2]
        r3 = np.sqrt((lam[0] * r1 ** 2 + lam[1] * r2 ** 2) / (-lam[2]))
        g = lam[:2] * u[:, 1:] / (-lam[2] * r3)[:, None]
        h3 = (np.diag([lam[0], lam[1]]) / (-lam[2])
              - g[:, :, None] * g[:, None, :]) / r3[:, None, None]
        radii = np.concatenate([u[:, 1:], r3[:, None]], axis=1)
        z = radii * np.exp(1j * (math.pi / 6.0 + lam * t[:, None]))
        phase = z / radii
        jac = np.empty((len(u), 3, 3), complex)
        jac[..., 0] = 1j * lam * z
        jac[:, :2, 1:] = np.eye(2) * phase[:, :2, None]
        jac[:, 2, 1:] = g * phase[:, 2:]
        return z, jac, h3 * phase[:, 2, None, None]

    def hs(u):
        z, jac, z3_rr = _parts(u)
        out = np.zeros((len(u), 3, 3, 3), complex)
        out[..., 0, 0] = -lam * lam * z
        out[..., 0, 1:] = out[..., 1:, 0] = 1j * lam[:, None] * jac[..., 1:]
        out[:, 2, 1:, 1:] = z3_rr
        return out

    return _patch("l_lambda", {"l1": lam[0], "l2": lam[1], "l3": lam[2]},
                  ((0.0, 0.6), (0.6, 1.4), (0.6, 1.4)),
                  lambda u: _parts(u)[0], lambda u: _parts(u)[1], hs)


# --- minimal Legendrian surfaces in S⁵ and their cones -----------------------

@dataclass(frozen=True)
class LegendrianSurface:
    """Surface x: (θ₁,θ₂) → S⁵ ⊂ C³ given by eval/jac in complex form.

    Both broadcast: eval maps points (..., 2) to unit complex 3-vectors
    (..., 3), jac to tangent maps (..., 3, 2), each row from its own point.
    """

    name: str
    eval: callable
    jac: callable
    domain: tuple = ((0.0, _TWO_PI), (0.0, _TWO_PI))

    def metric(self, theta):
        """Induced 2x2 metric(s) from the real inner product of tangents;
        unlike _surface_frames, it does not check the unit sphere."""
        return _tangent_rows(self, theta)[1]


def _tangent_rows(s: LegendrianSurface, theta):
    """Real tangent rows (..., 2, 6) of the surface s at theta (..., 2), from
    one call of its jac, and their Gram products (..., 2, 2): the induced
    metrics."""
    tt = from_complex(np.swapaxes(np.asarray(s.jac(theta)), -1, -2))
    return tt, tt @ np.swapaxes(tt, -1, -2)


def _torus(name, weights):
    """The surface weights · (e^{iθ₁}, e^{iθ₂}, e^{-i(θ₁+θ₂)})."""

    def parts(theta):  # the points (..., 3) and tangent maps (..., 3, 2)
        z = weights * _torus_phase(np.asarray(theta, dtype=float))
        return z, 1j * (z[..., None] * _TORUS_LEGS.T)

    return LegendrianSurface(name=name, eval=lambda th: parts(th)[0],
                             jac=lambda th: parts(th)[1])


def clifford_link() -> LegendrianSurface:
    """Minimal Legendrian torus (e^{iθ₁}, e^{iθ₂}, e^{-i(θ₁+θ₂)})/√3."""
    return _torus("clifford_link", np.full(3, 1.0 / math.sqrt(3.0)))


def great_sphere() -> LegendrianSurface:
    """Totally real equatorial S² = S⁵ ∩ R³ (totally geodesic, Legendrian)."""
    return LegendrianSurface(
        name="great_sphere", eval=lambda th: _sphere(th)[0].astype(complex),
        jac=lambda th: _sphere(th)[1].astype(complex),
        domain=((0.35, math.pi - 0.35), (0.0, _TWO_PI)))


def flat_torus() -> LegendrianSurface:
    """Non-Legendrian control torus (e^{iθ₁}, e^{iθ₂}, 0)/√2."""
    return _torus("flat_torus", np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))


def _surface_frames(s: LegendrianSurface, thetas):
    """Points x (n, 6), tangents (n, 6, 2) and metrics (n, 2, 2), in real
    form, at the rows of thetas (n, 2), from one call of each surface map;
    points off the unit sphere by more than 1e-12, or NaN, are rejected."""
    x = from_complex(np.asarray(s.eval(thetas)))
    tt, metrics = _tangent_rows(s, thetas)
    if not np.all(np.abs(np.linalg.norm(x, axis=-1) - 1.0) <= 1e-12):
        raise ValueError(f"{s.name!r} does not map into the unit sphere")
    return x, np.swapaxes(tt, -1, -2), metrics


def legendrian_residual(s: LegendrianSurface):
    """(theta_res, psi_res): worst contact pairing and worst Im Υ₀ pairing.

    theta_res is max |<Jx, t>| / |t| over the tangents of a 12 x 12
    `grid_axes` grid; psi_res is max |Im Υ₀(x, t₁, t₂)| normalized by the
    spanned 3-volume.  The grid is one stacked call of each surface map.
    """
    thetas = np.stack(np.meshgrid(*grid_axes(s.domain, _LEGENDRIAN_GRID),
                                  indexing="ij"), axis=-1).reshape(-1, 2)
    x, t, _ = _surface_frames(s, thetas)
    contact = (apply_j(x)[:, None, :] @ t)[:, 0, :]             # (n, 2)
    theta_res = np.max(np.abs(contact) / np.linalg.norm(t, axis=1))
    m = np.concatenate([x[:, :, None], t], axis=2)              # (n, 6, 3)
    vol = np.sqrt(np.maximum(np.linalg.det(np.swapaxes(m, 1, 2) @ m), 0.0))
    ups = upsilon0(x, t[..., 0], t[..., 1])
    return float(theta_res), float(np.max(np.abs(ups.imag) / vol))


_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _betas(avec, frames):
    """The R⁶-valued 1-form β = x·★db − b·★dx for the height b = <avec, x>,
    rows indexed by dθ_a, at every frame of a _surface_frames stack,
    (n, 2, 6)."""
    x, t, g = frames
    sq = np.sqrt(np.maximum(np.linalg.det(g), 0.0))[:, None, None]
    ginv = np.linalg.inv(g)
    tt = t.transpose(0, 2, 1)                           # (n, 2, 6)
    star_db = sq * (_EPS2 @ (ginv @ (tt @ avec)[:, :, None]))  # (n, 2, 1)
    star_dx = sq * (_EPS2 @ (ginv @ tt))                # (n, 2, 6)
    height = x[:, None, :] @ avec                       # (n, 1): b = <a, x>
    return star_db * x[:, None, :] - height[:, :, None] * star_dx


def _path_integral(s, avec, legs, rule):
    """Gauss–Legendre integrals of β along axis-parallel legs, with one
    stacked frame evaluation for the nodes of all legs.

    legs is four arrays (axis, fixed, start, stop) of length m: leg k runs
    θ_axis[k] from start[k] to stop[k] at the other coordinate fixed[k] and
    integrates the dθ_axis row of β.  rule is a (nodes, weights) pair on
    [-1, 1].  Returns one 6-vector per leg, (m, 6).
    """
    nodes, weights = rule
    axis, fixed, start, stop = (np.asarray(a) for a in legs)
    half = 0.5 * (stop - start)
    along = (0.5 * (start + stop))[:, None] + half[:, None] * nodes
    on_axis = (axis[:, None] == np.arange(2))[:, None, :]      # (m, 1, 2)
    thetas = np.where(on_axis, along[:, :, None], fixed[:, None, None])
    betas = _betas(avec, _surface_frames(s, thetas.reshape(-1, 2)))
    betas = betas.reshape(len(axis), len(nodes), 2, 6)
    rows = betas[np.arange(len(axis)), :, axis]                # (m, k, 6)
    return half[:, None] * (weights @ rows)


def legendrian_loop_residual(s: LegendrianSurface, avec):
    """Worst |∮β| over test rectangles in the domain; zero when β is closed.

    Each side of a rectangle is integrated by 16-node Gauss–Legendre, the
    rule `twisted_cone` integrates its height with.  The rectangles
    deliberately span irregular fractions of the domain: on a full period
    box the boundary integral cancels by periodicity whether or not β is
    closed, so sub-rectangles are what actually probe dβ.
    """
    avec = np.asarray(avec, dtype=float)
    (a0, a1), (b0, b1) = s.domain
    da, db = a1 - a0, b1 - b0
    rects = (
        ((a0, a1), (b0, b1)),
        ((a0 + 0.05 * da, a0 + 0.47 * da), (b0 + 0.05 * db, b0 + 0.71 * db)),
        ((a0 + 0.13 * da, a0 + 0.83 * da), (b0 + 0.29 * db, b0 + 0.57 * db)),
    )
    legs = []       # bottom, right, top, left of each rectangle
    for (p0, p1), (q0, q1) in rects:
        legs += [(0, q0, p0, p1), (1, p1, q0, q1), (0, q1, p0, p1),
                 (1, p0, q0, q1)]
    rule = np.polynomial.legendre.leggauss(_GL_NODES)
    sides = _path_integral(s, avec, zip(*legs), rule).reshape(-1, 4, 6)
    loops = sides[:, 0] + sides[:, 1] - sides[:, 2] - sides[:, 3]
    return float(np.linalg.norm(loops, axis=1).max())


def twisted_cone(s: LegendrianSurface, avec,
                 t_range=(0.6, 1.6)) -> ImmersionPatch:
    """Cone with a twist over a minimal Legendrian surface.

    F(t, θ₁, θ₂) = 𝐛(θ) + t·x(θ) with d𝐛 = β = x·★db − b·★dx and b = <a, x>.
    𝐛(θ) integrates β from the domain corner along θ₁, then along θ₂, with
    a 16-point Gauss–Legendre rule on each leg, built once here.  𝐛 and x
    do not depend on t, so `eval` integrates once per distinct θ row of a
    stack (rows compared by their bytes, so each row keeps its own
    rounding; a sweep grid repeats every θ once per t), and the legs of
    all of them in one stacked evaluation.  `jac` takes the surface frames
    and β once per distinct θ row in the same way; only its t·dx term
    reads t.
    Closedness of β is audited at construction time by the boundary loop
    integral on the same rule, which must stay below 1e-6; a = 0 gives the
    plain cone t·x.
    """
    avec = np.asarray(avec, dtype=float)
    if avec.shape != (6,) or not np.isfinite(avec).all():
        raise ValueError("the direction a must be a finite real 6-vector")
    if np.any(avec):
        loop = legendrian_loop_residual(s, avec)
        if not loop <= _LOOP_TOL:  # NaN fails too
            raise ValueError(
                f"β is not closed on {s.name!r} (loop residual {loop:.3e}); "
                "the height <a, x> is not compatible with this surface")
    rule = np.polynomial.legendre.leggauss(_GL_NODES)
    (a0, _), (b0, _) = s.domain

    def _bvec(theta):
        """𝐛 (n, 6) at the rows of theta (n, 2), all legs in one integral."""
        n = len(theta)
        ints = _path_integral(s, avec, (
            np.repeat([0, 1], n), np.r_[np.full(n, b0), theta[:, 0]],
            np.repeat([a0, b0], n), theta.T.ravel()), rule)
        return ints[:n] + ints[n:]

    def distinct(u):
        """The distinct θ rows of u (n, 3), compared by their bytes, and
        the index of each row of u among them."""
        theta = np.ascontiguousarray(u[:, 1:])
        rows = theta.view(np.dtype((np.void, 2 * theta.itemsize)))[:, 0]
        _, first, at = np.unique(rows, return_index=True, return_inverse=True)
        return theta[first], at

    def ev(u):
        theta, at = distinct(u)
        return to_complex(_bvec(theta)[at]
                          + u[:, :1] * from_complex(s.eval(theta))[at])

    def jc(u):
        theta, at = distinct(u)
        frames = _surface_frames(s, theta)
        legs = (_betas(avec, frames)[at]
                + u[:, :1, None] * np.swapaxes(frames[1], 1, 2)[at])
        cols = np.concatenate([frames[0][at][:, None], legs], axis=1)
        return np.swapaxes(to_complex(cols), 1, 2)

    dom = (tuple(float(v) for v in t_range), s.domain[0], s.domain[1])
    return _patch("twisted_cone", {"surface": s.name,
                                   "a": tuple(float(v) for v in avec)},
                  dom, ev, jc)


def z3_family(s: LegendrianSurface, c: float) -> ImmersionPatch:
    """Order-3-symmetric family F(γ,θ) = ρ(γ)·e^{iγ}·x(θ) with ρ³(-sin3γ) = c.

    Built over a minimal Legendrian surface; away from the cone slice γ → 0
    the cubic has exactly an order-3 axis.
    """
    c = float(c)
    if c == 0.0 or not math.isfinite(c):
        raise ValueError("the profile constant c must be finite and nonzero")
    third = math.pi / 3.0
    if c > 0.0:
        dom_gamma = (-0.95 * third, -0.05 * third)
    else:
        dom_gamma = (0.05 * third, 0.95 * third)
    return _profile_patch("z3_family", {"surface": s.name, "c": c}, c,
                          (dom_gamma, s.domain[0], s.domain[1]),
                          lambda th: (s.eval(th), s.jac(th)))


def default_gallery() -> dict:
    """The standard entries keyed by name, with expected types and grids."""
    e1 = np.eye(6)[0]
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
