"""Hot numeric loops: per-cell quality scores and the swap-move max flow.

Both are plain Python/NumPy.  Callers reach them as ``_kernels.quality_scores``
and ``_kernels.maxflow`` so that a tracer can replace the module attribute.
"""

import numpy as np

from . import geometry

# there is no numba lane; the benchmark's environment record still reads this
NUMBA_ENABLED = False


def quality_scores(pts, collinear_tol, kernel_rel_tol):
    """All four regularity indicators plus the combined score of one cell.

    Returns (rho1, rho2, rho3, rho4, rho).  The polygon must be simple and
    CCW-oriented.  Collinear runs are maximal chains of consecutive edges
    whose turn angle satisfies |cross|/(|a||b|) < collinear_tol; kernels of
    relative area below kernel_rel_tol count as empty.
    """
    n = pts.shape[0]
    area = geometry.polygon_area(pts)
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
    diam = geometry.polygon_diameter(pts)
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

    ka = geometry.polygon_area(geometry.kernel_clip(pts, 1e-12 * diam))
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

def maxflow(cap_s, cap_t, edge_u, edge_v, edge_cap):
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
