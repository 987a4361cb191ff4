"""Seeded input generators for the slag3 benchmark, written in plain numpy.

Nothing here imports slag3, so a change to the library can never change the
inputs it is measured on.  Cubics are 10-vectors in the library's documented
coefficient order (111, 112, 113, 122, 123, 133, 222, 223, 233, 333).
"""

from __future__ import annotations

import math
import zlib

import numpy as np

# z(2z^2 - 3x^2 - 3y^2), 6xyz and x^3 - 3xy^2 in lexicographic coefficients
P0 = np.array([0, 0, -1, 0, 0, 0, 0, -1, 0, 2.0])
XYZ6 = np.array([0, 0, 0, 0, 1.0, 0, 0, 0, 0, 0])
CUBE3 = np.array([1.0, 0, 0, -1, 0, 0, 0, 0, 0, 0])
# how many of the 27 tensor entries each coefficient stands for
MULTIPLICITY = np.array([1, 3, 3, 3, 6, 3, 1, 3, 3, 1], dtype=float)

# family name -> stabilizer type of every cubic built from it; the last two
# are the boundary collapses n(r, r) -> S3 and m(r, r*sqrt2) -> A4
FAMILIES = {
    "circle": "Circle",
    "a4": "A4",
    "s3": "S3",
    "z2": "Z2",
    "z3": "Z3",
    "trivial": "Trivial",
    "n_rr": "S3",
    "m_rr2": "A4",
}
FAMILY_NAMES = tuple(FAMILIES)

LOG10_SCALE = (-3.0, 3.0)
CHUNK = 512          # cubics drawn per generator call
_SCALE_STRATA = 24   # log-scale strata, so each run sees the whole range
CYCLE = len(FAMILIES) * _SCALE_STRATA  # items that visit every stratum once

_LEX = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2),
        (0, 2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))


def _full(c):
    """Symmetric (..., 3, 3, 3) tensors from (..., 10) coefficients."""
    c = np.asarray(c, dtype=float)
    t = np.zeros(c.shape[:-1] + (3, 3, 3))
    for col, (i, j, k) in enumerate(_LEX):
        for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j),
                  (k, j, i)}:
            t[(...,) + p] = c[..., col]
    return t


def _gather(t):
    return np.stack([t[(...,) + idx] for idx in _LEX], axis=-1)


def traceless(c):
    """Traceless projection h - (d_ij v_k + d_jk v_i + d_ki v_j) / 5."""
    t = _full(c)
    v = np.einsum("...iik->...k", t)
    eye = np.eye(3)
    corr = (np.einsum("ij,...k->...ijk", eye, v)
            + np.einsum("jk,...i->...ijk", eye, v)
            + np.einsum("ki,...j->...ijk", eye, v)) / 5.0
    return _gather(t - corr)


def rotate(c, m):
    """Pullback x -> h(m x) of (..., 10) coefficients by (..., 3, 3)."""
    t = np.einsum("...abc,...ai,...bj,...ck->...ijk", _full(c), m, m, m)
    return _gather(t)


def haar_rotations(rng, n):
    """n Haar-random proper rotations from normalized Gaussian quaternions."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z),
                  2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z),
                  2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x),
                  1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=1)


def _off_collapse(rng):
    """Ratio to a collapse line, at least 10% away on either side."""
    if rng.random() < 0.5:
        return 10.0 ** rng.uniform(math.log10(0.25), math.log10(0.9))
    return 10.0 ** rng.uniform(math.log10(1.1), math.log10(4.0))


def representative(rng, family):
    """(coefficients, r, s) of an unrotated unit-scale cubic of `family`.

    r and s are the values the classifier must report for this cubic, in the
    normal forms r*P0 + s*(6xyz or x^3-3xy^2) of the library's docstrings.
    A Trivial cubic is the traceless part of a Gaussian 10-vector, with r
    and s left at 0.
    """
    a = 10.0 ** rng.uniform(math.log10(0.5), math.log10(2.0))
    if family == "circle":
        return a * P0, a, 0.0
    if family == "a4":
        return a * XYZ6, 0.0, a
    if family == "s3":
        return a * CUBE3, 0.0, a
    if family == "z2":
        s = a * _off_collapse(rng)
        return a * P0 + s * XYZ6, a, s
    if family == "z3":
        s = a * math.sqrt(2.0) * _off_collapse(rng)
        return a * P0 + s * CUBE3, a, s
    if family == "trivial":
        return traceless(rng.normal(size=10)), 0.0, 0.0
    if family == "n_rr":
        return a * (P0 + XYZ6), 0.0, 2.0 * a
    if family == "m_rr2":
        return a * (P0 + math.sqrt(2.0) * CUBE3), 0.0, math.sqrt(3.0) * a
    raise ValueError(f"unknown family {family!r}")


def singular_count(family, r, s):
    """Number of singular directions of the unrotated representative.

    On n(r, s) = r*P0 + 6s*xyz the gradient vanishes only on z = 0, where
    -3r(x^2 + y^2) + 6s*xy = 0 has two real lines exactly when s > r.  The
    other counts: xyz has the three axes, x^3 - 3xy^2 the z-axis, the two
    collapses count as the S3 and A4 forms they rotate to, and the circle,
    Z3 and generic cubics are smooth curves.
    """
    if family == "z2":
        return 2 if s > r else 0
    return {"circle": 0, "a4": 3, "s3": 1, "z3": 0, "trivial": 0,
            "n_rr": 1, "m_rr2": 3}[family]


class CubicStream:
    """Endless deterministic stream of moved cubics for one seed.

    Item i belongs to family i mod 8.  Its unit-scale representative gets a
    Haar-random rotation, a random sign and a scale log-uniform on
    10^[-3, 3].  The scales are stratified: cubic i of a family falls in
    stratum i mod 24 of the log range, jittered uniformly inside it, so the
    share of each decade is the same in every run.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng([int(seed), 7128])
        self._count = 0

    def chunk(self):
        """The next CHUNK items as a dict of arrays."""
        rng = self._rng
        n = CHUNK
        idx = self._count + np.arange(n)
        fams = [FAMILY_NAMES[i % len(FAMILY_NAMES)] for i in idx]
        reps = [representative(rng, f) for f in fams]
        base = np.array([c for c, _, _ in reps])
        rs = np.array([(r, s) for _, r, s in reps])
        rot = haar_rotations(rng, n)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        lo, hi = LOG10_SCALE
        stratum = (idx // len(FAMILY_NAMES)) % _SCALE_STRATA
        u = (stratum + rng.random(n)) / _SCALE_STRATA
        scale = 10.0 ** (lo + (hi - lo) * u)
        self._count += n
        return {
            "family": fams,
            "base": base,
            "r": rs[:, 0],
            "s": rs[:, 1],
            "coeffs": sign[:, None] * scale[:, None] * rotate(base, rot),
            "scale": scale,
        }


def random_su3(rng):
    """Haar-random special unitary 3x3 matrix (QR of a complex Gaussian)."""
    z = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return q / np.linalg.det(q) ** (1.0 / 3.0)


def motion(seed: int, name: str):
    """(su3 matrix, translation 6-vector) for the patch called `name`.

    Each name draws from its own stream, so adding a gallery entry leaves
    the motions of the others unchanged.
    """
    rng = np.random.default_rng([int(seed), 3, zlib.crc32(name.encode())])
    return random_su3(rng), rng.normal(size=6)


def unit_points_stream(seed: int):
    """Endless chunks of CHUNK points of the unit cube, mapped by callers
    into a patch domain."""
    rng = np.random.default_rng([int(seed), 11])
    while True:
        yield rng.random((CHUNK, 3))
