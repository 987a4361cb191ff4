"""Constant Kähler data of flat C³ viewed as R⁶.

Layout convention used across the package: a point or vector of C³ is the
real 6-vector (x₁, x₂, x₃, y₁, y₂, y₃) for z_k = x_k + i y_k.  The metric is
the standard dot product, J is multiplication by i, the symplectic form is
ω₀ = Σ dx_k ∧ dy_k, and the holomorphic volume form Υ₀ = dz₁∧dz₂∧dz₃ is
normalized so that Υ₀(e₁, e₂, e₃) = 1 on the standard real basis.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "to_complex",
    "from_complex",
    "apply_j",
    "omega0",
    "upsilon0",
    "su3_real_matrix",
]


def to_complex(v):
    """Real 6-vector(s) (..., 6) -> complex 3-vector(s) (..., 3)."""
    v = np.asarray(v, dtype=float)
    return v[..., :3] + 1j * v[..., 3:]


def from_complex(z):
    """Complex 3-vector(s) (..., 3) -> real 6-vector(s) (..., 6)."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


def apply_j(v):
    """Multiplication by i on real 6-vectors (any leading shape)."""
    v = np.asarray(v, dtype=float)
    return np.concatenate([-v[..., 3:], v[..., :3]], axis=-1)


def omega0(a, b):
    """Symplectic form Σ dx_k ∧ dy_k = <Ja, b>."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a[:3] @ b[3:] - a[3:] @ b[:3])


def upsilon0(a, b, c):
    """Holomorphic volume dz₁∧dz₂∧dz₃ on three real 6-vectors (complex);
    stacks of vectors (..., 6) give volumes (...), one determinant each.
    The legs are stacked as real columns (..., 6, 3) and made complex once,
    entry by entry as in to_complex."""
    m = np.asarray(np.stack([a, b, c], axis=-1), dtype=float)
    return np.linalg.det(m[..., :3, :] + 1j * m[..., 3:, :])


def su3_real_matrix(q):
    """Real 6x6 representation of a complex-linear map q (3x3) on C³."""
    q = np.asarray(q, dtype=complex)
    return np.block([[q.real, -q.imag], [q.imag, q.real]])
