"""Minkowski 3-space primitives.

Ambient space is R^3 with the flat Lorentzian metric h = dx^2 + dy^2 - dz^2
(signature +,+,-; the z axis is timelike) together with the Euclidean
reference metric used for all absolute norms. Vectors are numpy arrays whose
last axis has length 3; every function broadcasts over leading axes.
"""
from __future__ import annotations

import numpy as np

from .errors import DegeneratePlane

# Signs of h on the coordinate axes.
HSIG = np.array([1.0, 1.0, -1.0])

# A plane whose Euclidean-normalized raw normal has |h(n,n)| below this is
# treated as degenerate (too close to the light cone).
DEGENERATE_TOL = 1e-10


def minkowski_inner(v, w):
    """h(v, w) for vectors with a trailing axis of length 3."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return v[..., 0] * w[..., 0] + v[..., 1] * w[..., 1] - v[..., 2] * w[..., 2]


def euclidean_inner(v, w):
    """Euclidean dot product on the same layout."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return np.einsum("...i,...i->...", v, w)


def euclidean_norm(v):
    """Euclidean length, broadcasting over leading axes."""
    return np.sqrt(euclidean_inner(v, v))


def timelike_unit_normal(t1, t2):
    """Future-pointing h-unit timelike normal of the plane span(t1, t2).

    Parameters
    ----------
    t1, t2 : arrays, shape (..., 3)
        Spanning vectors of a spacelike plane.

    Returns
    -------
    n : array, shape (..., 3)
        h(n, n) = -1, h(n, t1) = h(n, t2) = 0, and n has positive z
        component (future-pointing).

    Raises
    ------
    DegeneratePlane
        If the plane is degenerate or too close to the light cone for the
        normalization to be trustworthy.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    # Raising the index of the Euclidean cross product with diag(1,1,-1)
    # produces an h-orthogonal direction. It is made by components and in
    # place, bitwise np.cross(t1, t2) * HSIG.
    raw = np.empty(np.broadcast_shapes(t1.shape, t2.shape))
    term = np.empty(raw.shape[:-1])
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(t1[..., i], t2[..., j], out=raw[..., c])
        np.multiply(t1[..., j], t2[..., i], out=term)
        raw[..., c] -= term
    np.negative(raw[..., 2], out=raw[..., 2])
    span = euclidean_norm(raw)
    if np.any(span <= 0.0):
        raise DegeneratePlane("tangent vectors are parallel")
    hh = minkowski_inner(raw, raw)
    q = hh / span**2
    if np.any(q >= -DEGENERATE_TOL):
        raise DegeneratePlane(
            "plane is not spacelike: normalized h(n,n) = %s" % float(np.max(q))
        )
    raw /= np.sqrt(-hh)[..., None]
    # Two candidate unit normals differ by sign; pick the future-pointing one.
    np.negative(raw, out=raw, where=(raw[..., 2] < 0.0)[..., None])
    return raw
