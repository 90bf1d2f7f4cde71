"""Hot numeric loops: stacked quality scores and the swap-move max flow.

Both are plain Python/NumPy.  Callers reach them as ``_kernels.quality_scores``
and ``_kernels.maxflow`` so that a tracer can replace the module attribute.
``maxflow`` scores every cut of a graph with at most ``ENUM_MAX_NODES`` nodes
and runs Dinic above that; both return the same canonical cut.
"""

import functools
import math

import numpy as np

from . import geometry

# there is no numba lane; the benchmark's environment record still reads this
NUMBA_ENABLED = False


# cells times kernel-buffer rows per block of quality_scores, to bound its memory
_QUALITY_BLOCK = 1 << 16


def quality_scores(pts, collinear_tol, kernel_rel_tol):
    """All four regularity indicators plus the combined score of one cell
    (n, 2) or of each cell of a stack (..., n, 2) with one vertex count.

    Returns (..., 5): rho1, rho2, rho3, rho4, rho.  Cells must be simple and
    CCW-oriented; a cell of zero area or diameter scores all zeros.
    Collinear runs are maximal chains of consecutive edges whose turn angle
    satisfies |cross|/(|a||b|) < collinear_tol; kernels of relative area
    below kernel_rel_tol count as empty.  Each cell's scores do not depend
    on the stack it is scored in.
    """
    pts = np.asarray(pts, dtype=np.float64)
    lead, n = pts.shape[:-2], pts.shape[-2]
    flat = pts.reshape((math.prod(lead), n, 2))
    step = max(1, _QUALITY_BLOCK // (2 * n + 8))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.concatenate([
            _scores_block(flat[s:s + step], collinear_tol, kernel_rel_tol)
            for s in range(0, len(flat), step)
        ] or [np.zeros((0, 5))])
    return out.reshape(lead + (5,))


def _scores_block(pts, collinear_tol, kernel_rel_tol):
    """quality_scores of a stack (g, n, 2)."""
    g, n = pts.shape[:2]
    area = geometry.polygon_area(pts)
    diam = geometry.polygon_diameter(pts)
    d = np.roll(pts, -1, axis=1) - pts  # edge i runs from vertex i to vertex i+1
    elen = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])

    # corner[:, i] marks vertex i as a genuine turn between edge i-1 and edge i
    u = np.roll(d, 1, axis=1)
    cr = u[..., 0] * d[..., 1] - u[..., 1] * d[..., 0]
    denom = np.roll(elen, 1, axis=1) * elen
    corner = (denom > 0.0) & (np.abs(cr) / denom >= collinear_tol)

    # walk the edges from the first corner; a run ends where the next vertex
    # is a corner.  Without corners no run ends and rho4 stays 1.
    order = (corner.argmax(axis=1)[:, None] + np.arange(n)) % n
    run_len = np.take_along_axis(elen, order, axis=1)
    run_end = np.take_along_axis(corner, (order + 1) % n, axis=1)
    rho4 = np.ones(g)
    run_min = np.full(g, np.inf)
    run_max = np.zeros(g)
    for s in range(n):
        e = run_len[:, s]
        run_min = np.where(e < run_min, e, run_min)
        run_max = np.where(e > run_max, e, run_max)
        end = run_end[:, s]
        r = run_min / run_max
        rho4 = np.where(end & (r < rho4), r, rho4)
        run_min = np.where(end, np.inf, run_min)
        run_max = np.where(end, 0.0, run_max)

    rho2 = np.minimum(np.minimum(np.sqrt(area), elen.min(axis=1)) / diam, 1.0)

    buf, _ = geometry.kernel_clip(pts, 1e-12 * diam)
    ka = geometry.polygon_area(buf)
    rho1 = np.where(ka < kernel_rel_tol * area, 0.0, np.minimum(ka / area, 1.0))

    rho = np.minimum(np.sqrt(rho1 * (rho2 + 3.0 / n + rho4) / 3.0), 1.0)
    out = np.stack([rho1, rho2, np.full(g, 3.0 / n), rho4, rho], axis=-1)
    out[(area <= 0.0) | (diam <= 0.0)] = 0.0
    return out


# ---------------------------------------------------------------------------
# s-t min cut on terminal + pairwise capacities
# ---------------------------------------------------------------------------

# graphs up to this many nodes are solved by enumerating all 2**n cuts; at
# 12 nodes the block enumeration already costs more than Dinic
ENUM_MAX_NODES = 11

# graphs up to this many nodes score their cuts with one product against a
# cached cut matrix; larger ones score one block of 2**_ENUM_DENSE_NODES cuts
# at a time, with the columns of their weighted pairs only, so that no cut
# matrix above 2**_ENUM_DENSE_NODES rows is built or held
_ENUM_DENSE_NODES = 8


@functools.cache
def pair_offsets(n):
    """Node pair (i, j), i < j, of an n-node graph is entry
    ``pair_offsets(n)[i] + j`` of its pair weights, which run over the pairs
    in ``np.triu_indices(n, 1)`` order."""
    return tuple(i * (2 * n - i - 3) // 2 - 1 for i in range(n))


def _cut_bits(cuts, n):
    """(..., n) int64 bits of each cut index (1: node on the source side)."""
    return (np.asarray(cuts)[..., None] >> np.arange(n)) & 1


@functools.cache
def _cut_matrix(n):
    """(2**n, n + n(n-1)/2) int64 matrix scoring every cut of an n-node
    graph: row r holds the bits of r, then, per node pair, 1 where cut r
    separates the pair."""
    bits = _cut_bits(np.arange(1 << n), n)
    i, j = np.triu_indices(n, 1)
    return np.concatenate([bits, bits[:, i] ^ bits[:, j]], axis=1)


def maxflow(unary, pair_w):
    """Exact minimum of a binary cut energy, by s-t min cut.

    Node i pays unary[i] (int64, any sign) when it lies on the source side;
    node pair p pays pair_w[p] (nonnegative int64) when the cut separates it,
    with the pairs in ``np.triu_indices(n, 1)`` order (see ``pair_offsets``).
    This is the s-t min cut of the graph with source arcs max(-unary, 0),
    sink arcs max(unary, 0) and symmetric pair arcs pair_w, less the sum of
    the source arcs.  Returns (value, mask): the minimum energy, and mask[i]
    True when node i lies on the source side of the canonical minimum cut:
    the smallest optimal source set, which is the set reachable from the
    source in the residual graph of a maximum flow.

    Up to ``ENUM_MAX_NODES`` nodes every cut is scored, by one product of the
    cut matrix with the packed weights (unary, then pair_w) up to
    ``_ENUM_DENSE_NODES`` nodes, and the mask is the intersection of all
    optimal cuts (min cuts are closed under intersection); larger graphs
    run Dinic.  Both give the same cut.
    """
    n = len(unary)
    # the smallest optimal source set is a subset of every other optimal set,
    # so it is the optimal row with the lowest index: the first argmin
    if n <= min(_ENUM_DENSE_NODES, ENUM_MAX_NODES):
        m = _cut_matrix(n)
        cost = m @ np.concatenate((unary, pair_w))
        best = cost.argmin()
        return cost[best], m[best, :n] != 0
    nz = np.flatnonzero(pair_w)
    i, j = np.triu_indices(n, 1)
    i, j, w = i[nz], j[nz], pair_w[nz]
    if n > ENUM_MAX_NODES:
        cap_s = np.maximum(-unary, 0)
        flow, mask = _dinic(cap_s, np.maximum(unary, 0), i, j, w)
        return flow - cap_s.sum(), mask
    step = 1 << _ENUM_DENSE_NODES
    blocks = (_cut_bits(np.arange(r, r + step), n) for r in range(0, 1 << n, step))
    cost = np.concatenate([b @ unary + (b[:, i] ^ b[:, j]) @ w for b in blocks])
    best = cost.argmin()
    return cost[best], _cut_bits(best, n) != 0


def _dinic(cap_s, cap_t, edge_u, edge_v, edge_cap):
    """Max flow by Dinic's algorithm on int64 terminal arcs cap_s (source to
    node) and cap_t (node to sink) and symmetric arcs edge_cap between
    edge_u[k] and edge_v[k]; returns (flow, mask), mask the residual
    reachability from the source."""
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
