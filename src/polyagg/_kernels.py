"""Hot numeric kernels.

Every function here exists in two flavours: the plain Python/NumPy
implementation (suffix ``_py``) and a numba ``@njit``-compiled alias used by
the rest of the package.  Set ``POLYAGG_NO_NUMBA=1`` to force the pure
fallback path; the two paths share the same source, so results are identical.
``benchmarks/bench_kernels.py`` times one against the other.
"""

import os

import numpy as np


def _want_numba() -> bool:
    return os.environ.get("POLYAGG_NO_NUMBA", "0").strip() in ("", "0")


NUMBA_ENABLED = False
if _want_numba():
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:  # numba is the optional "jit" extra
        NUMBA_ENABLED = False

if NUMBA_ENABLED:
    def _compile(fn):
        return _njit(cache=True)(fn)
else:
    def _compile(fn):
        return fn


# ---------------------------------------------------------------------------
# polygon primitives
# ---------------------------------------------------------------------------

def signed_area_py(pts):
    """Shoelace signed area; positive for CCW polygons."""
    n = pts.shape[0]
    a = 0.0
    for i in range(n):
        j = i + 1
        if j == n:
            j = 0
        a += pts[i, 0] * pts[j, 1] - pts[j, 0] * pts[i, 1]
    return 0.5 * a


def area_centroid_py(pts):
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


def diameter_py(pts):
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


def kernel_polygon_py(pts, eps):
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


def point_in_polygon_py(pts, x, y, eps):
    """1 strictly inside, 0 on the boundary (within eps), -1 outside."""
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


def quality_scores_py(pts, collinear_tol, kernel_rel_tol):
    """All four regularity indicators plus the combined score of one cell.

    Returns (rho1, rho2, rho3, rho4, rho).  The polygon must be simple and
    CCW-oriented.  Collinear runs are maximal chains of consecutive edges
    whose turn angle satisfies |cross|/(|a||b|) < collinear_tol; kernels of
    relative area below kernel_rel_tol count as empty.
    """
    n = pts.shape[0]
    a2 = 0.0
    for i in range(n):
        j = i + 1
        if j == n:
            j = 0
        a2 += pts[i, 0] * pts[j, 1] - pts[j, 0] * pts[i, 1]
    area = 0.5 * a2
    elen = np.empty(n)
    min_e = np.inf
    for i in range(n):
        j = i + 1
        if j == n:
            j = 0
        dx = pts[j, 0] - pts[i, 0]
        dy = pts[j, 1] - pts[i, 1]
        elen[i] = np.sqrt(dx * dx + dy * dy)
        if elen[i] < min_e:
            min_e = elen[i]
    diam = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dx = pts[i, 0] - pts[j, 0]
            dy = pts[i, 1] - pts[j, 1]
            d = dx * dx + dy * dy
            if d > diam:
                diam = d
    diam = np.sqrt(diam)
    if area <= 0.0 or diam <= 0.0:
        return 0.0, 0.0, 0.0, 0.0, 0.0

    # corner[i] marks vertex i as a genuine turn between edge i-1 and edge i
    corner = np.zeros(n, np.bool_)
    n_corners = 0
    for i in range(n):
        p = i - 1
        if p < 0:
            p = n - 1
        j = i + 1
        if j == n:
            j = 0
        ux = pts[i, 0] - pts[p, 0]
        uy = pts[i, 1] - pts[p, 1]
        vx = pts[j, 0] - pts[i, 0]
        vy = pts[j, 1] - pts[i, 1]
        cr = ux * vy - uy * vx
        denom = elen[p] * elen[i]
        if denom > 0.0 and abs(cr) / denom >= collinear_tol:
            corner[i] = True
            n_corners += 1

    if n_corners == 0:
        rho4 = 1.0
    else:
        c0 = 0
        while not corner[c0]:
            c0 += 1
        rho4 = 1.0
        run_min = np.inf
        run_max = 0.0
        # edge i starts at vertex i; a run ends when the next vertex is a corner
        for s in range(n):
            i = (c0 + s) % n
            if elen[i] < run_min:
                run_min = elen[i]
            if elen[i] > run_max:
                run_max = elen[i]
            j = i + 1
            if j == n:
                j = 0
            if corner[j]:
                r = run_min / run_max
                if r < rho4:
                    rho4 = r
                run_min = np.inf
                run_max = 0.0

    rho3 = 3.0 / n
    rho2 = min(np.sqrt(area), min_e) / diam
    if rho2 > 1.0:
        rho2 = 1.0

    # late-bound global: resolves to the njit dispatcher when numba is on
    kern = kernel_polygon(pts, 1e-12 * diam)
    ka = 0.0
    m = kern.shape[0]
    for i in range(m):
        j = i + 1
        if j == m:
            j = 0
        ka += kern[i, 0] * kern[j, 1] - kern[j, 0] * kern[i, 1]
    ka *= 0.5
    if ka < kernel_rel_tol * area:
        rho1 = 0.0
    else:
        rho1 = ka / area
        if rho1 > 1.0:
            rho1 = 1.0

    rho = np.sqrt(rho1 * (rho2 + rho3 + rho4) / 3.0)
    if rho > 1.0:
        rho = 1.0
    return rho1, rho2, rho3, rho4, rho


# ---------------------------------------------------------------------------
# s-t max flow (Dinic) on terminal + pairwise capacities
# ---------------------------------------------------------------------------

def maxflow_py(cap_s, cap_t, edge_u, edge_v, edge_cap):
    """Exact s-t min cut of a binary energy graph.

    Node i carries terminal capacities cap_s[i] (source arc) and cap_t[i]
    (sink arc); each undirected pair (edge_u[k], edge_v[k]) carries symmetric
    capacity edge_cap[k].  All capacities are nonnegative int64.  Returns
    (flow, mask) where mask[i] is True when node i lies on the source side of
    the canonical minimum cut (residual reachability).
    """
    n = cap_s.shape[0]
    m = edge_u.shape[0]
    nn = n + 2
    s = n
    t = n + 1
    n_arcs = 2 * m + 4 * n
    head = np.full(nn, -1, np.int64)
    nxt = np.empty(n_arcs, np.int64)
    to = np.empty(n_arcs, np.int64)
    cap = np.empty(n_arcs, np.int64)
    cnt = 0
    for i in range(n):
        # s -> i
        to[cnt] = i
        cap[cnt] = cap_s[i]
        nxt[cnt] = head[s]
        head[s] = cnt
        cnt += 1
        to[cnt] = s
        cap[cnt] = 0
        nxt[cnt] = head[i]
        head[i] = cnt
        cnt += 1
        # i -> t
        to[cnt] = t
        cap[cnt] = cap_t[i]
        nxt[cnt] = head[i]
        head[i] = cnt
        cnt += 1
        to[cnt] = i
        cap[cnt] = 0
        nxt[cnt] = head[t]
        head[t] = cnt
        cnt += 1
    for k in range(m):
        u = edge_u[k]
        v = edge_v[k]
        c = edge_cap[k]
        to[cnt] = v
        cap[cnt] = c
        nxt[cnt] = head[u]
        head[u] = cnt
        cnt += 1
        to[cnt] = u
        cap[cnt] = c
        nxt[cnt] = head[v]
        head[v] = cnt
        cnt += 1

    level = np.empty(nn, np.int64)
    work = np.empty(nn, np.int64)
    queue = np.empty(nn, np.int64)
    path = np.empty(nn, np.int64)
    flow = np.int64(0)
    big = np.int64(1) << 62
    while True:
        for i in range(nn):
            level[i] = -1
        level[s] = 0
        queue[0] = s
        qh = 0
        qt = 1
        while qh < qt:
            u = queue[qh]
            qh += 1
            a = head[u]
            while a != -1:
                v = to[a]
                if cap[a] > 0 and level[v] == -1:
                    level[v] = level[u] + 1
                    queue[qt] = v
                    qt += 1
                a = nxt[a]
        if level[t] == -1:
            break
        for i in range(nn):
            work[i] = head[i]
        top = 0
        u = s
        while True:
            if u == t:
                bott = big
                for i in range(top):
                    if cap[path[i]] < bott:
                        bott = cap[path[i]]
                for i in range(top):
                    a = path[i]
                    cap[a] -= bott
                    cap[a ^ 1] += bott
                flow += bott
                top = 0
                u = s
                continue
            a = work[u]
            advanced = False
            while a != -1:
                v = to[a]
                if cap[a] > 0 and level[v] == level[u] + 1:
                    path[top] = a
                    top += 1
                    u = v
                    advanced = True
                    break
                a = nxt[a]
                work[u] = a
            if not advanced:
                if u == s:
                    break
                level[u] = -1
                top -= 1
                a = path[top]
                u = to[a ^ 1]
                work[u] = nxt[a]
    mask = np.empty(n, np.bool_)
    for i in range(n):
        mask[i] = level[i] != -1
    return flow, mask


signed_area = _compile(signed_area_py)
area_centroid = _compile(area_centroid_py)
diameter = _compile(diameter_py)
kernel_polygon = _compile(kernel_polygon_py)
point_in_polygon = _compile(point_in_polygon_py)
quality_scores = _compile(quality_scores_py)
maxflow = _compile(maxflow_py)
