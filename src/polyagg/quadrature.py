"""Quadrature rules: edge Gauss-Lobatto and polygon rules via ear clipping.

Triangle rules come from a Duffy (collapsed square) map of tensor Gauss
points, which is exact for the requested polynomial degree without any
coefficient tables.
"""

from functools import lru_cache

import numpy as np

from . import geometry

# Gauss-Lobatto nodes/weights on [-1, 1], indexed by point count
_GL_NODES = {
    2: (np.array([-1.0, 1.0]), np.array([1.0, 1.0])),
    3: (np.array([-1.0, 0.0, 1.0]), np.array([1.0, 4.0, 1.0]) / 3.0),
    4: (
        np.array([-1.0, -1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 1.0]),
        np.array([1.0, 5.0, 5.0, 1.0]) / 6.0,
    ),
}


def gauss_lobatto_rule(n_points: int):
    """Nodes and weights on [-1, 1]; exact through degree 2n-3."""
    if n_points not in _GL_NODES:
        raise ValueError(f"Gauss-Lobatto rule with {n_points} points not tabulated")
    return _GL_NODES[n_points]


def gauss_lobatto_points(k: int, a, b):
    """Internal Gauss-Lobatto DOF points (and weights) of order-k edges.

    Maps the k-1 interior nodes of the (k+1)-point rule onto the segments
    a-b, given as (..., 2) end points; returns ((..., k-1, 2) points,
    (..., k-1) weights scaled by |edge|/2).  Empty for k < 2.
    """
    x, w = gauss_lobatto_rule(max(k, 1) + 1)
    return _map_to_edges(x[1:-1], w[1:-1], a, b)


def edge_lobatto_quadrature(k: int, a, b):
    """Full (k+1)-point Gauss-Lobatto rule on segments a-b, weights summing to |e|."""
    x, w = gauss_lobatto_rule(k + 1)
    return _map_to_edges(x, w, a, b)


def _map_to_edges(x, w, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = 0.5 * (x + 1.0)
    pts = a[..., None, :] + t[:, None] * (b - a)[..., None, :]
    halflen = 0.5 * np.hypot((b - a)[..., 0], (b - a)[..., 1])
    return pts, w * halflen[..., None]


@lru_cache(maxsize=None)
def _duffy_reference(degree: int):
    """Points/weights on the reference triangle (0,0),(1,0),(0,1)."""
    nu = (degree + 3) // 2  # integrand degree d+1 in u after the Duffy jacobian
    nv = (degree + 2) // 2
    xu, wu = np.polynomial.legendre.leggauss(max(nu, 1))
    xv, wv = np.polynomial.legendre.leggauss(max(nv, 1))
    u = 0.5 * (xu + 1.0)
    v = 0.5 * (xv + 1.0)
    wu = 0.5 * wu
    wv = 0.5 * wv
    U, V = np.meshgrid(u, v, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    xi = (U * (1.0 - V)).ravel()
    eta = (U * V).ravel()
    w = (WU * WV * U).ravel()
    return xi, eta, w


def triangle_quadrature(tri, degree: int):
    """Rule exact to ``degree`` on triangles given as (..., 3, 2) coordinates.

    Returns (..., q, 2) points and (..., q) weights.
    """
    tri = np.asarray(tri, dtype=float)
    xi, eta, w = _duffy_reference(degree)
    p0, p1, p2 = tri[..., 0:1, :], tri[..., 1:2, :], tri[..., 2:3, :]
    d1, d2 = p1 - p0, p2 - p0
    pts = p0 + xi[:, None] * d1 + eta[:, None] * d2
    return pts, w * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])


def polygon_quadrature(points, degree: int):
    """Rule exact to ``degree`` on simple CCW polygons (n, 2) or (..., n, 2).

    Maps a triangle rule of matching degree onto each ear-clip triangle;
    weights sum to the polygon area.  The polygons are ear-clipped as one
    stack; a straight vertex, which clipping drops, leaves the zero-area
    triangle (0, 0, 0), whose weights are exactly 0, so every polygon has
    n - 2 triangles.  Returns (..., (n - 2) * q, 2) points and
    (..., (n - 2) * q) weights.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    pts = np.asarray(points, dtype=float)
    lead, n = pts.shape[:-2], pts.shape[-2]
    flat = pts.reshape(-1, n, 2)
    tris = geometry.ear_clip(flat)
    tris[tris[..., 0] < 0] = 0
    p, w = triangle_quadrature(flat[np.arange(len(flat))[:, None, None], tris], degree)
    return p.reshape(lead + (-1, 2)), w.reshape(lead + (-1,))
