"""Hot numeric loops: stacked quality scores and the swap-move max flow.

Both are plain Python/NumPy.  Callers reach them as ``_kernels.quality_scores``
and ``_kernels.maxflow`` so that a tracer can replace the module attribute.
``maxflow`` scores every cut of a graph with at most ``ENUM_MAX_NODES`` nodes
and runs augmenting paths above that; both return the same canonical cut.
"""

import functools
import math

import numpy as np

from . import geometry

# there is no numba lane; the benchmark's environment record still reads this
NUMBA_ENABLED = False


# cells times kernel-buffer rows per block of quality_scores, to bound its memory
_QUALITY_BLOCK = 1 << 16


def quality_scores(pts):
    """All four regularity indicators plus the combined score of one cell
    (n, 2) or of each cell of a stack (..., n, 2) with one vertex count.

    Returns (..., 5): rho1, rho2, rho3, rho4, rho.  Cells must be simple and
    CCW-oriented; a cell of zero area or diameter scores all zeros.
    Collinear runs are maximal chains of consecutive edges whose turn angle
    satisfies |cross|/(|a||b|) < ``geometry.COLLINEAR_TOL``; kernels of
    relative area below ``geometry.KERNEL_REL_TOL`` count as empty.  Each
    cell's scores do not depend on the stack it is scored in.
    """
    pts = np.asarray(pts, dtype=np.float64)
    lead, n = pts.shape[:-2], pts.shape[-2]
    flat = pts.reshape((math.prod(lead), n, 2))
    step = max(1, _QUALITY_BLOCK // (2 * n + 8))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.concatenate([
            _scores_block(flat[s:s + step])
            for s in range(0, len(flat), step)
        ] or [np.zeros((0, 5))])
    return out.reshape(lead + (5,))


def _scores_block(pts):
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
    corner = (denom > 0.0) & (np.abs(cr) / denom >= geometry.COLLINEAR_TOL)

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
    rho1 = np.where(ka < geometry.KERNEL_REL_TOL * area, 0.0, np.minimum(ka / area, 1.0))

    rho = np.minimum(np.sqrt(rho1 * (rho2 + 3.0 / n + rho4) / 3.0), 1.0)
    out = np.stack([rho1, rho2, np.full(g, 3.0 / n), rho4, rho], axis=-1)
    out[(area <= 0.0) | (diam <= 0.0)] = 0.0
    return out


# ---------------------------------------------------------------------------
# s-t min cut on terminal + pairwise capacities
# ---------------------------------------------------------------------------

# graphs up to this many nodes score all 2**n cuts with one product against a
# cached cut matrix; larger ones run augmenting paths.  On network1's swap
# graphs the product is the faster of the two up to 10 nodes, and from 11
# nodes the slower
ENUM_MAX_NODES = 10


@functools.cache
def pair_offsets(n):
    """Node pair (i, j), i < j, of an n-node graph is entry
    ``pair_offsets(n)[i] + j`` of its pair weights, which run over the pairs
    in ``np.triu_indices(n, 1)`` order."""
    return tuple(i * (2 * n - i - 3) // 2 - 1 for i in range(n))


@functools.cache
def _cut_matrix(n):
    """(2**n, n + n(n-1)/2) int64 matrix scoring every cut of an n-node
    graph: row r holds the bits of r (1: node on the source side), then, per
    node pair, 1 where cut r separates the pair."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
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
    source in the residual graph of any maximum flow.

    Up to ``ENUM_MAX_NODES`` nodes every cut is scored by one product of the
    cut matrix with the packed weights (unary, then pair_w); larger graphs
    run ``_augmenting_paths``.  Both give the same cut.
    """
    n = len(unary)
    if n > ENUM_MAX_NODES:
        return _augmenting_paths(unary, pair_w)
    m = _cut_matrix(n)
    cost = m @ np.concatenate((unary, pair_w))
    # min cuts are closed under intersection, so the smallest optimal source
    # set is a subset of every other optimal set and has the lowest row
    # index among them: the first argmin
    best = cost.argmin()
    return cost[best], m[best, :n] != 0


def _augmenting_paths(unary, pair_w):
    """``maxflow`` by shortest augmenting paths (Edmonds-Karp) on dict
    residual adjacency and Python ints, which cannot overflow."""
    n = len(unary)
    s, t = n, n + 1
    res = [{} for _ in range(n + 2)]  # res[u][v]: residual capacity of u -> v
    offset = 0  # less the source arcs, then plus the flow
    for v, c in enumerate(unary.tolist()):
        if c < 0:
            res[s][v], res[v][s] = -c, 0
            offset += c
        elif c > 0:
            res[v][t], res[t][v] = c, 0
    i, j = np.triu_indices(n, 1)
    nz = np.flatnonzero(pair_w)
    for u, v, c in zip(i[nz].tolist(), j[nz].tolist(), pair_w[nz].tolist()):
        res[u][v] = res[v][u] = c
    while True:
        # breadth-first search; parent holds every node reached so far
        parent = {s: s}
        queue = [s]
        for u in queue:
            for v, c in res[u].items():
                if c and v not in parent:
                    parent[v] = u
                    queue.append(v)
            if t in parent:
                break
        else:
            # t unreachable: parent is the residual source set
            return offset, np.array([v in parent for v in range(n)], dtype=bool)
        path = [t]
        while path[-1] != s:
            path.append(parent[path[-1]])
        arcs = list(zip(path[1:], path))
        push = min(res[u][v] for u, v in arcs)
        for u, v in arcs:
            res[u][v] -= push
            res[v][u] += push
        offset += push
