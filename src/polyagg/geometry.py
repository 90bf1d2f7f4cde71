"""Plain polygon geometry used by the mesh, quality and cutting layers.

All polygons are (n, 2) float64 arrays; unless stated otherwise they are
assumed simple and counter-clockwise.  The area, centroid, diameter,
simplicity and kernel primitives also take a stack (..., n, 2) of polygons
with one vertex count and return one result per polygon; a single polygon is
the stack without leading axes, so each primitive has one implementation.
"""

import functools
import math

import numpy as np

COLLINEAR_TOL = 1e-9  # relative cross-product threshold for aligned edges
KERNEL_REL_TOL = 1e-14  # kernels below this relative area count as empty


class GeometryError(ValueError):
    pass


def as_points(pts) -> np.ndarray:
    a = np.ascontiguousarray(pts, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 2:
        raise GeometryError(f"expected (n, 2) coordinates, got shape {a.shape}")
    return a


def _successors(pts):
    """Vertex i+1 (cyclic) at row i of every polygon of a stack (..., n, 2)."""
    return np.concatenate((pts[..., 1:, :], pts[..., :1, :]), axis=-2)


def _sum_left(terms):
    """Sum over the last axis, left to right as a scalar loop adds.

    A cell's sum then does not depend on the stack it was computed in, as
    the pairwise summation of ``np.sum`` would.  0 for an empty axis.
    """
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1])
    return np.cumsum(terms, axis=-1)[..., -1]


def polygon_area(pts):
    """Shoelace signed area of a polygon (n, 2) or of each polygon of a stack
    (..., n, 2) with one vertex count; positive for CCW polygons."""
    nxt = _successors(pts)
    return 0.5 * _sum_left(pts[..., 0] * nxt[..., 1] - nxt[..., 0] * pts[..., 1])


def polygon_area_centroid(pts):
    """Signed area and area-weighted centroid (x, y) of a polygon (n, 2) or of
    each polygon of a stack (..., n, 2).  The centroid of a zero-area polygon
    is its unnormalized moment sum."""
    nxt = _successors(pts)
    x, y, xn, yn = pts[..., 0], pts[..., 1], nxt[..., 0], nxt[..., 1]
    w = x * yn - xn * y
    a2 = _sum_left(w)
    scale = np.where(a2 != 0.0, 3.0 * a2, 1.0)
    return 0.5 * a2, _sum_left((x + xn) * w) / scale, _sum_left((y + yn) * w) / scale


def polygon_diameter(pts):
    """Max pairwise vertex distance of a polygon (n, 2) or of each polygon of
    a stack (..., n, 2); exact O(n^2), cells are small."""
    d = pts[..., :, None, :] - pts[..., None, :, :]
    sq = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    return np.sqrt(sq.max(axis=(-2, -1), initial=0.0))


def straight_vertices(prev, cur, nxt):
    """Mask of the points ``cur`` (..., 2) that lie straight between ``prev``
    and ``nxt``: the edges into and out of each one are aligned within
    ``COLLINEAR_TOL`` and point the same way."""
    u1 = cur - prev
    u2 = nxt - cur
    denom = np.hypot(u1[..., 0], u1[..., 1]) * np.hypot(u2[..., 0], u2[..., 1])
    cross = u1[..., 0] * u2[..., 1] - u1[..., 1] * u2[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        aligned = (denom != 0.0) & (np.abs(cross) / denom < COLLINEAR_TOL)
    return aligned & (u1[..., 0] * u2[..., 0] + u1[..., 1] * u2[..., 1] > 0.0)


def ensure_ccw(pts) -> np.ndarray:
    """Return the polygon with positive signed area, reversing if given CW."""
    pts = as_points(pts)
    if polygon_area(pts) < 0.0:
        return np.ascontiguousarray(pts[::-1])
    return pts


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _within_span(px, py, ax, ay, bx, by):
    """Point p projects strictly between a and b onto the line through them."""
    return (((px - ax) * (bx - ax) + (py - ay) * (by - ay) > 0.0)
            & ((px - bx) * (ax - bx) + (py - by) * (ay - by) > 0.0))


@functools.cache
def _vertex_pairs(n):
    """Vertex index pairs (i, j), i < j, of an n-gon."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False  # shared by every caller
    return i, j


@functools.cache
def _crossing_pairs(n):
    """Edge index pairs (i, j), i < j, of the non-adjacent edges of an n-gon;
    edge i joins vertex i to vertex i+1."""
    i, j = np.triu_indices(n, 2)
    keep = (i > 0) | (j < n - 1)
    i, j = i[keep], j[keep]
    i.flags.writeable = j.flags.writeable = False  # shared by every caller
    return i, j


# cells times vertex pairs per block of is_simple_polygon, to bound its memory
_SIMPLE_BLOCK = 1 << 16


def is_simple_polygon(pts, eps=None, diameter=None):
    """Simplicity of a polygon (n, 2), as a bool, or of each polygon of a
    stack (..., n, 2), as a bool array.

    A polygon is simple when it has at least 3 vertices and a positive
    diameter, no two vertices lie within the snap distance 1e-12 * diameter
    in both coordinates (which rejects zero-length edges too), no two
    non-adjacent edges cross or overlap collinearly, no vertex lies within
    the orientation tolerance of the open interior of a non-adjacent edge (a
    pinch), and no two adjacent edges fold back onto each other (a spike).
    ``eps`` is the orientation tolerance, 1e-12 * diameter**2 by default;
    ``diameter`` gives the polygons' ``polygon_diameter`` when the caller
    has it already.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-1] != 2:
        raise GeometryError(f"expected (..., n, 2) coordinates, got shape {pts.shape}")
    lead, n = pts.shape[:-2], pts.shape[-2]
    flat = pts.reshape((math.prod(lead), n, 2))
    diam = polygon_diameter(flat) if diameter is None else np.reshape(diameter, -1)
    eps = 1e-12 * diam * diam if eps is None else np.broadcast_to(eps, lead).reshape(-1)
    if n < 3:
        ok = np.zeros(len(flat), dtype=bool)
    else:
        step = max(1, _SIMPLE_BLOCK // (n * n))
        ok = np.concatenate([
            _simple_block(flat[s:s + step], diam[s:s + step], eps[s:s + step])
            for s in range(0, len(flat), step)
        ] or [np.zeros(0, dtype=bool)])
    return ok.reshape(lead) if lead else bool(ok[0])


def _simple_block(pts, diam, eps):
    """is_simple_polygon of a stack (m, n, 2), n >= 3, with its diameters
    and orientation tolerances (m,)."""
    n = pts.shape[1]
    snap = (1e-12 * diam)[:, None]
    ok = diam > 0.0
    i, j = _vertex_pairs(n)
    d = pts[:, i] - pts[:, j]
    ok &= ~((np.abs(d[..., 0]) <= snap) & (np.abs(d[..., 1]) <= snap)).any(axis=1)

    eps = eps[:, None]
    nxt = _successors(pts)
    i, j = _crossing_pairs(n)
    if len(i):
        # edge i runs from (ax, ay) to (bx, by), edge j from (cx, cy) to (dx, dy)
        ax, ay = np.moveaxis(pts[:, i], -1, 0)
        bx, by = np.moveaxis(nxt[:, i], -1, 0)
        cx, cy = np.moveaxis(pts[:, j], -1, 0)
        dx, dy = np.moveaxis(nxt[:, j], -1, 0)
        d1 = _orient(cx, cy, dx, dy, ax, ay)
        d2 = _orient(cx, cy, dx, dy, bx, by)
        d3 = _orient(ax, ay, bx, by, cx, cy)
        d4 = _orient(ax, ay, bx, by, dx, dy)
        cross = (((d1 > eps) & (d2 < -eps)) | ((d1 < -eps) & (d2 > eps))) & (
            ((d3 > eps) & (d4 < -eps)) | ((d3 < -eps) & (d4 > eps))
        )
        collinear = ((np.abs(d1) <= eps) & (np.abs(d2) <= eps)
                     & (np.abs(d3) <= eps) & (np.abs(d4) <= eps))
        overlap = (
            np.minimum(np.maximum(ax, bx), np.maximum(cx, dx))
            - np.maximum(np.minimum(ax, bx), np.minimum(cx, dx)) > eps
        ) | (
            np.minimum(np.maximum(ay, by), np.maximum(cy, dy))
            - np.maximum(np.minimum(ay, by), np.minimum(cy, dy)) > eps
        )
        # a vertex on the open interior of a non-adjacent edge pinches the polygon
        pinch = ((np.abs(d1) <= eps) & _within_span(ax, ay, cx, cy, dx, dy)
                 | (np.abs(d2) <= eps) & _within_span(bx, by, cx, cy, dx, dy)
                 | (np.abs(d3) <= eps) & _within_span(cx, cy, ax, ay, bx, by)
                 | (np.abs(d4) <= eps) & _within_span(dx, dy, ax, ay, bx, by))
        ok &= ~(cross | (collinear & overlap) | pinch).any(axis=1)

    # spike at vertex i: edges i-1 and i collinear and pointing apart
    u = pts - np.concatenate((pts[:, -1:], pts[:, :-1]), axis=1)
    v = nxt - pts
    cr = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    dot = u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]
    ok &= ~((np.abs(cr) <= eps) & (dot < 0.0)).any(axis=1)
    return ok


def kernel_clip(pts, eps, start=None):
    """Kernel of a simple CCW polygon (n, 2), or of each polygon of a stack
    (..., n, 2) with one vertex count, by successive half-plane clipping.

    Starts from the bounding box, or from the convex polygons ``start``
    (..., s, 2), and clips against the inward (left) half-plane of every
    boundary edge in turn, the whole stack at once.  The leading axes of
    ``pts`` and ``start`` broadcast, so one convex polygon clips a stack of
    start polygons to their overlaps with it (the Sutherland-Hodgman clip).
    Returns ``(buf, m)``: the kernel of a polygon is ``buf[..., :m, :]``, a
    convex polygon, empty (m = 0) when the polygon is not star-shaped.
    ``buf`` has 2n + 8 rows (s + n from a start) and its rows past m repeat
    row 0 (all rows are zero when m = 0), so the shoelace of a whole buffer
    adds exact zeros to the kernel's.  ``eps`` is an absolute distance
    tolerance, one value or one per polygon.
    """
    pts = np.asarray(pts, dtype=np.float64)
    n = pts.shape[-2]
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        lead = np.broadcast_shapes(pts.shape[:-2], start.shape[:-2])
        pts = np.broadcast_to(pts, lead + (n, 2))
    lead = pts.shape[:-2]
    flat = pts.reshape((math.prod(lead), n, 2))
    g = len(flat)
    eps = np.broadcast_to(eps, lead).reshape(-1)
    cells = np.arange(g)
    # kernel vertices as a (rows, cells, 2) array: a row of all cells is
    # contiguous, so scans over the rows run across the whole stack
    if start is None:
        lo = flat[:, 0]
        hi = flat[:, 0]
        for i in range(1, n):
            lo = np.where(flat[:, i] < lo, flat[:, i], lo)
            hi = np.where(flat[:, i] > hi, flat[:, i], hi)
        cur = np.stack((lo, hi, hi, lo))
        cur[1, :, 1] = lo[:, 1]
        cur[3, :, 1] = hi[:, 1]
        cap = 2 * n + 8
    else:
        cur = np.broadcast_to(start, lead + start.shape[-2:]).reshape((g, -1, 2))
        cur = cur.transpose(1, 0, 2)
        cap = len(cur) + n
    m = np.full(g, len(cur))
    # edge e of every polygon: start (ax, ay), unit direction (ux, uy), (n, g)
    ax, ay = flat[..., 0].T, flat[..., 1].T
    d = _successors(flat) - flat
    ln = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]).T
    skip = ln <= 0.0  # a zero-length edge clips nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = d[..., 0].T / ln
        uy = d[..., 1].T / ln
        for e in range(n):
            # signed distances; row m repeats row 0, so the successor of a
            # kernel's last vertex is its first
            s = ux[e] * (cur[..., 1] - ay[e]) - uy[e] * (cur[..., 0] - ax[e])
            sq = np.concatenate((s[1:], s[:1]))
            valid = np.arange(len(s))[:, None] < m
            keep = valid & ((s >= -eps) | skip[e])
            cross = valid & (((s > eps) & (sq < -eps)) | ((s < -eps) & (sq > eps)))
            # each vertex emits itself when kept, then the crossing point
            emit = keep.astype(np.int64) + cross
            end = np.cumsum(emit, axis=0)
            m = end[-1]
            width = max(int(m.max(initial=0)), 1)
            dst = ((end - emit) * g + cells).ravel()
            old, s, sq, keep = cur.reshape(-1, 2), s.ravel(), sq.ravel(), keep.ravel()
            cur = np.zeros((width * g, 2))
            i = np.flatnonzero(keep)
            cur[dst[i]] = old[i]
            i = np.flatnonzero(cross)
            t = s[i] / (s[i] - sq[i])
            p = old[i]
            cur[dst[i] + g * keep[i]] = p + t[:, None] * (old[(i + g) % len(old)] - p)
            i = np.flatnonzero(np.arange(width)[:, None] >= m)
            cur[i] = cur[i % g]
            cur = cur.reshape(width, g, 2)
    rows = np.arange(cap)
    if len(cur) > len(rows):
        raise GeometryError(f"kernel of more than {len(rows)} vertices")
    rows[rows >= len(cur)] = 0
    m = m.reshape(lead) if lead else int(m[0])
    return cur[rows].transpose(1, 0, 2).reshape(lead + (len(rows), 2)), m


def polygon_kernel_points(pts) -> np.ndarray:
    """Kernel polygon (possibly empty) of a simple CCW polygon."""
    pts = as_points(pts)
    diam = polygon_diameter(pts)
    buf, m = kernel_clip(pts, 1e-12 * max(diam, 1e-300))
    kern = buf[:m]
    if m >= 3 and abs(polygon_area(kern)) > 0.0:
        return kern
    return np.empty((0, 2))


def inward_distance(poly, points) -> np.ndarray:
    """Signed distance of each point (..., 2) to the nearest edge line of a
    convex CCW polygon (n, 2): positive inside, negative outside, inf when
    every edge has zero length."""
    poly = as_points(poly)
    points = np.asarray(points, dtype=np.float64)[..., None, :]
    d = _successors(poly) - poly
    ln = np.hypot(d[:, 0], d[:, 1])
    edge = ln != 0.0  # a zero-length edge has no line
    a, d, ln = poly[edge], d[edge], ln[edge]
    s = (d[:, 0] * (points[..., 1] - a[:, 1]) - d[:, 1] * (points[..., 0] - a[:, 0])) / ln
    return s.min(axis=-1, initial=np.inf)


def point_in_polygon(pts, point, eps=None) -> int:
    """1 strictly inside, 0 on the boundary (within eps), -1 outside."""
    pts = as_points(pts)
    if eps is None:
        eps = 1e-12 * polygon_diameter(pts)
    x = float(point[0])
    y = float(point[1])
    n = pts.shape[0]
    inside = False
    for i in range(n):
        j = i + 1
        if j == n:
            j = 0
        ax = pts[i, 0]
        ay = pts[i, 1]
        bx = pts[j, 0]
        by = pts[j, 1]
        dx = bx - ax
        dy = by - ay
        ln = np.sqrt(dx * dx + dy * dy)
        if ln > 0.0:
            s = (dx * (y - ay) - dy * (x - ax)) / ln
            t = (dx * (x - ax) + dy * (y - ay)) / (ln * ln)
            if abs(s) <= eps and -eps <= t * ln <= ln + eps:
                return 0
        if (ay > y) != (by > y):
            xc = ax + (y - ay) / (by - ay) * dx
            if x < xc:
                inside = not inside
    return 1 if inside else -1


def ear_clip(pts) -> np.ndarray:
    """Triangulate a simple CCW polygon (n, 2), or each polygon of a stack
    (..., n, 2), by ear clipping.

    Each step drops the first straight (collinear) vertex without emitting
    a degenerate triangle or, when there is none, clips the first convex ear
    that holds no other vertex.  A polygon gives its (t, 3) triangles as
    vertex indices; a stack gives (..., n - 2, 3), one row per step in
    clipping order and the last three vertices last, with -1 in the rows of
    dropped vertices.  The polygons of a stack are clipped step by step
    together, each as it would be alone.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim < 2 or pts.shape[-1] != 2 or pts.shape[-2] < 3:
        raise GeometryError(f"expected (..., n >= 3, 2) coordinates, got shape {pts.shape}")
    lead, n = pts.shape[:-2], pts.shape[-2]
    flat = pts.reshape((math.prod(lead), n, 2))
    m = len(flat)
    tris = np.full((m, n - 2, 3), -1, dtype=np.int64)
    idx = np.broadcast_to(np.arange(n), (m, n))
    if n > 3:
        diam = polygon_diameter(flat)
        eps = (1e-12 * diam * diam)[:, None]
        rows = np.arange(m)
    for step in range(n - 3):
        r = n - step
        # vertex k of each polygon with its predecessor a and successor c
        q = flat[rows[:, None], idx]
        a, c = np.roll(q, 1, axis=1), np.roll(q, -1, axis=1)
        (ax, ay), (qx, qy), (cx, cy) = (np.moveaxis(v, -1, 0) for v in (a, q, c))
        turn = _orient(ax, ay, qx, qy, cx, cy)
        ahead = (qx - ax) * (cx - qx) + (qy - ay) * (cy - qy) > 0.0
        straight = (np.abs(turn) <= eps) & ahead
        # the ear at k holds vertex j when j is strictly left of all 3 edges;
        # it never holds its own corners, whose turn on two edges is 0
        e3 = eps[..., None]
        ox, oy = qx[:, None, :], qy[:, None, :]
        ax, ay, qx, qy, cx, cy = (v[..., None] for v in (ax, ay, qx, qy, cx, cy))
        holds = ((_orient(ax, ay, qx, qy, ox, oy) > e3) & (_orient(qx, qy, cx, cy, ox, oy) > e3)
                 & (_orient(cx, cy, ax, ay, ox, oy) > e3))
        ear = (turn > eps) & ~holds.any(axis=-1)
        drop = straight.any(axis=1)
        if not (drop | ear.any(axis=1)).all():
            raise GeometryError("no ear found; polygon may be non-simple")
        k = np.where(drop, straight.argmax(axis=1), ear.argmax(axis=1))
        clip = ~drop
        tris[clip, step] = np.stack([idx[rows, k - 1], idx[rows, k], idx[rows, (k + 1) % r]],
                                    axis=1)[clip]
        idx = idx[np.arange(r) != k[:, None]].reshape(m, r - 1)
    tris[:, -1] = idx
    if lead:
        return tris.reshape(lead + (n - 2, 3))
    return tris[0][tris[0, :, 0] >= 0]
