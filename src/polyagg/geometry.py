"""Plain polygon geometry used by the mesh, quality and cutting layers.

All polygons are (n, 2) float64 arrays; unless stated otherwise they are
assumed simple and counter-clockwise.
"""

import numpy as np

COLLINEAR_TOL = 1e-9  # relative cross-product threshold for aligned edges


class GeometryError(ValueError):
    pass


def as_points(pts) -> np.ndarray:
    a = np.ascontiguousarray(pts, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 2:
        raise GeometryError(f"expected (n, 2) coordinates, got shape {a.shape}")
    return a


def polygon_area(pts):
    """Shoelace signed area; positive for CCW polygons."""
    n = pts.shape[0]
    a = 0.0
    for i in range(n):
        j = i + 1
        if j == n:
            j = 0
        a += pts[i, 0] * pts[j, 1] - pts[j, 0] * pts[i, 1]
    return 0.5 * a


def polygon_area_centroid(pts):
    """Signed area and area-weighted centroid (undefined for zero area)."""
    n = pts.shape[0]
    a2 = 0.0
    cx = 0.0
    cy = 0.0
    for i in range(n):
        j = i + 1
        if j == n:
            j = 0
        w = pts[i, 0] * pts[j, 1] - pts[j, 0] * pts[i, 1]
        a2 += w
        cx += (pts[i, 0] + pts[j, 0]) * w
        cy += (pts[i, 1] + pts[j, 1]) * w
    area = 0.5 * a2
    if a2 != 0.0:
        cx /= 3.0 * a2
        cy /= 3.0 * a2
    return area, cx, cy


def polygon_diameter(pts):
    """Max pairwise vertex distance, exact O(n^2); cells are small."""
    n = pts.shape[0]
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dx = pts[i, 0] - pts[j, 0]
            dy = pts[i, 1] - pts[j, 1]
            d = dx * dx + dy * dy
            if d > best:
                best = d
    return np.sqrt(best)


def ensure_ccw(pts) -> np.ndarray:
    """Return the polygon with positive signed area, reversing if given CW."""
    pts = as_points(pts)
    if polygon_area(pts) < 0.0:
        return np.ascontiguousarray(pts[::-1])
    return pts


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_properly_intersect(p, q, r, s, eps) -> bool:
    """True when open segments pq and rs cross or overlap collinearly."""
    d1 = _orient(r[0], r[1], s[0], s[1], p[0], p[1])
    d2 = _orient(r[0], r[1], s[0], s[1], q[0], q[1])
    d3 = _orient(p[0], p[1], q[0], q[1], r[0], r[1])
    d4 = _orient(p[0], p[1], q[0], q[1], s[0], s[1])
    if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
        (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
    ):
        return True
    # collinear overlap
    if abs(d1) <= eps and abs(d2) <= eps and abs(d3) <= eps and abs(d4) <= eps:
        lo0, hi0 = sorted((p[0], q[0]))
        lo1, hi1 = sorted((r[0], s[0]))
        mo0, mh0 = sorted((p[1], q[1]))
        mo1, mh1 = sorted((r[1], s[1]))
        if min(hi0, hi1) - max(lo0, lo1) > eps or min(mh0, mh1) - max(mo0, mo1) > eps:
            return True
    return False


def is_simple_polygon(pts, eps=None) -> bool:
    """Check simplicity: no duplicate vertices, no edge crossings or spikes."""
    pts = as_points(pts)
    n = len(pts)
    if n < 3:
        return False
    diam = polygon_diameter(pts)
    if diam <= 0.0:
        return False
    if eps is None:
        eps = 1e-12 * diam * diam
    snap = 1e-12 * diam
    for i in range(n):
        for j in range(i + 1, n):
            if abs(pts[i, 0] - pts[j, 0]) <= snap and abs(pts[i, 1] - pts[j, 1]) <= snap:
                return False
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        if np.hypot(*(b - a)) <= snap:
            return False
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                # adjacent edges: reject zero-area spikes (reversal)
                continue
            c, d = pts[j], pts[(j + 1) % n]
            if segments_properly_intersect(a, b, c, d, eps):
                return False
    for i in range(n):
        # spike test at vertex i
        p = pts[i - 1]
        q = pts[i]
        r = pts[(i + 1) % n]
        u = q - p
        v = r - q
        cr = u[0] * v[1] - u[1] * v[0]
        if abs(cr) <= eps and (u @ v) < 0.0:
            return False
    return True


def kernel_clip(pts, eps):
    """Kernel of a simple CCW polygon by successive half-plane clipping.

    Starts from the bounding box and clips against the inward (left)
    half-plane of every boundary edge; the result is the convex kernel,
    empty (0 rows) when the polygon is not star-shaped.  ``eps`` is an
    absolute distance tolerance.
    """
    n = pts.shape[0]
    cap = 2 * n + 8
    cur = np.empty((cap, 2))
    buf = np.empty((cap, 2))
    xmin = pts[0, 0]
    xmax = pts[0, 0]
    ymin = pts[0, 1]
    ymax = pts[0, 1]
    for i in range(1, n):
        if pts[i, 0] < xmin:
            xmin = pts[i, 0]
        if pts[i, 0] > xmax:
            xmax = pts[i, 0]
        if pts[i, 1] < ymin:
            ymin = pts[i, 1]
        if pts[i, 1] > ymax:
            ymax = pts[i, 1]
    cur[0, 0] = xmin
    cur[0, 1] = ymin
    cur[1, 0] = xmax
    cur[1, 1] = ymin
    cur[2, 0] = xmax
    cur[2, 1] = ymax
    cur[3, 0] = xmin
    cur[3, 1] = ymax
    m = 4
    for e in range(n):
        f = e + 1
        if f == n:
            f = 0
        ax = pts[e, 0]
        ay = pts[e, 1]
        dx = pts[f, 0] - ax
        dy = pts[f, 1] - ay
        ln = np.sqrt(dx * dx + dy * dy)
        if ln <= 0.0:
            continue
        dx /= ln
        dy /= ln
        k = 0
        for i in range(m):
            j = i + 1
            if j == m:
                j = 0
            px = cur[i, 0]
            py = cur[i, 1]
            qx = cur[j, 0]
            qy = cur[j, 1]
            sp = dx * (py - ay) - dy * (px - ax)
            sq = dx * (qy - ay) - dy * (qx - ax)
            if sp >= -eps:
                buf[k, 0] = px
                buf[k, 1] = py
                k += 1
            if (sp > eps and sq < -eps) or (sp < -eps and sq > eps):
                t = sp / (sp - sq)
                buf[k, 0] = px + t * (qx - px)
                buf[k, 1] = py + t * (qy - py)
                k += 1
        m = k
        if m == 0:
            break
        for i in range(m):
            cur[i, 0] = buf[i, 0]
            cur[i, 1] = buf[i, 1]
    return cur[:m].copy()


def polygon_kernel_points(pts) -> np.ndarray:
    """Kernel polygon (possibly empty) of a simple CCW polygon."""
    pts = as_points(pts)
    diam = polygon_diameter(pts)
    kern = kernel_clip(pts, 1e-12 * max(diam, 1e-300))
    if len(kern) >= 3 and abs(polygon_area(kern)) > 0.0:
        return kern
    return np.empty((0, 2))


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


def collinear_mask(pts, tol=COLLINEAR_TOL) -> np.ndarray:
    """mask[i] is True when vertex i is a straight (non-corner) vertex."""
    pts = as_points(pts)
    u = pts - np.roll(pts, 1, axis=0)
    v = np.roll(pts, -1, axis=0) - pts
    cr = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    denom = np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1])
    denom[denom == 0.0] = np.inf
    return np.abs(cr) / denom < tol


def collinear_edge_runs(pts, tol=COLLINEAR_TOL):
    """Partition boundary edges into maximal runs of consecutive aligned edges.

    Edge i joins vertex i to vertex i+1 (cyclic).  Returns a list of runs,
    each a list of edge indices in traversal order; runs may wrap around.
    """
    pts = as_points(pts)
    n = len(pts)
    straight = collinear_mask(pts, tol)
    corners = [i for i in range(n) if not straight[i]]
    if not corners:
        return [list(range(n))]
    runs = []
    for a, b in zip(corners, corners[1:] + [corners[0] + n]):
        runs.append([(i % n) for i in range(a, b)])
    return runs


def ear_clip(pts) -> np.ndarray:
    """Triangulate a simple CCW polygon by ear clipping.

    Returns (t, 3) vertex indices into ``pts``.  Straight (collinear)
    vertices are dropped without emitting a degenerate triangle.
    """
    pts = as_points(pts)
    n = len(pts)
    diam = polygon_diameter(pts)
    eps = 1e-12 * diam * diam
    idx = list(range(n))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * n * n + 16:
            raise GeometryError("ear clipping failed to make progress")
        m = len(idx)
        clipped = False
        # pass 1: drop a straight vertex if any (exact hanging nodes)
        for k in range(m):
            p = pts[idx[k - 1]]
            q = pts[idx[k]]
            r = pts[idx[(k + 1) % m]]
            cr = _orient(p[0], p[1], q[0], q[1], r[0], r[1])
            if abs(cr) <= eps and (q - p) @ (r - q) > 0.0:
                idx.pop(k)
                clipped = True
                break
        if clipped:
            continue
        # pass 2: proper convex ear containing no other vertex
        for k in range(m):
            ia, ib, ic = idx[k - 1], idx[k], idx[(k + 1) % m]
            a, b, c = pts[ia], pts[ib], pts[ic]
            if _orient(a[0], a[1], b[0], b[1], c[0], c[1]) <= eps:
                continue
            blocked = False
            for other in idx:
                if other in (ia, ib, ic):
                    continue
                o = pts[other]
                if (
                    _orient(a[0], a[1], b[0], b[1], o[0], o[1]) > eps
                    and _orient(b[0], b[1], c[0], c[1], o[0], o[1]) > eps
                    and _orient(c[0], c[1], a[0], a[1], o[0], o[1]) > eps
                ):
                    blocked = True
                    break
            if not blocked:
                tris.append((ia, ib, ic))
                idx.pop(k)
                clipped = True
                break
        if not clipped:
            raise GeometryError("no ear found; polygon may be non-simple")
    tris.append(tuple(idx))
    return np.asarray(tris, dtype=np.int64)


def convex_clip(subject, clip) -> np.ndarray:
    """Sutherland-Hodgman clip of ``subject`` against a convex CCW ``clip``."""
    subject = as_points(subject)
    clip = as_points(clip)
    out = subject
    m = len(clip)
    scale = polygon_diameter(clip)
    eps = 1e-12 * max(scale, 1e-300)
    for e in range(m):
        if len(out) == 0:
            break
        a = clip[e]
        b = clip[(e + 1) % m]
        d = b - a
        ln = np.hypot(d[0], d[1])
        if ln == 0.0:
            continue
        d = d / ln
        sd = d[0] * (out[:, 1] - a[1]) - d[1] * (out[:, 0] - a[0])
        res = []
        k = len(out)
        for i in range(k):
            j = (i + 1) % k
            si, sj = sd[i], sd[j]
            if si >= -eps:
                res.append(out[i])
            if (si > eps and sj < -eps) or (si < -eps and sj > eps):
                t = si / (si - sj)
                res.append(out[i] + t * (out[j] - out[i]))
        out = np.asarray(res).reshape(-1, 2)
    return out


def clip_segment_to_convex(a, d, tmax, poly, eps):
    """Clip the segment a + t*d, t in [0, tmax] against a convex CCW polygon.

    Returns (t0, t1) of the inside part, or None when the overlap is empty.
    ``d`` must be a unit vector and eps an absolute distance tolerance.
    """
    poly = as_points(poly)
    t0, t1 = 0.0, float(tmax)
    n = len(poly)
    for e in range(n):
        p = poly[e]
        q = poly[(e + 1) % n]
        ex, ey = q - p
        ln = np.hypot(ex, ey)
        if ln == 0.0:
            continue
        # inward normal of a CCW edge
        nx, ny = -ey / ln, ex / ln
        num = nx * (p[0] - a[0]) + ny * (p[1] - a[1])
        den = nx * d[0] + ny * d[1]
        if abs(den) < 1e-15:
            if -num < -eps:
                return None
            continue
        tcross = num / den
        if den > 0.0:
            t0 = max(t0, tcross)
        else:
            t1 = min(t1, tcross)
    if t1 - t0 <= eps:
        return None
    return t0, t1
