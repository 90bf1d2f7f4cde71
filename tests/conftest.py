import bisect
import csv
import dataclasses
import functools
import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import settings, strategies as st

import polyagg
import polyagg.agglomerate as agg
from polyagg import _kernels, dfn, geometry, vem
from polyagg.geometry import COLLINEAR_TOL
from polyagg.mesh import (
    MergeConstraintError,
    MergeError,
    MergeHoleError,
    MergeNonSimpleError,
    MeshError,
    build_mesh,
)
from polyagg.quadrature import gauss_lobatto_points


def square_cell(side=1.0):
    return np.array([[0, 0], [side, 0], [side, side], [0, side]], dtype=float)


def unit_triangle_cell():
    return np.array([[0, 0], [1, 0], [0, 1]], dtype=float)


def equilateral_cell(side=1.0):
    h = side * np.sqrt(3) / 2
    return np.array([[0, 0], [side, 0], [side / 2, h]])


def random_rectangle_network(rng, n):
    """``n`` random rectangles in the unit cube, in random orientations."""
    fractures = []
    for fid in range(n):
        c = rng.random(3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = rng.normal(size=3)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        a, b = 0.2 + 0.5 * rng.random(2)
        fractures.append(dfn.make_fracture(
            [c - a * u - b * v, c + a * u - b * v, c + a * u + b * v, c - a * u + b * v],
            fid=fid))
    return fractures


def random_networks(count=10):
    """The first ``count`` networks of four random rectangles (seeds 0, 1,
    ...) in which every fracture meets another."""
    found, seed = [], 0
    while len(found) < count:
        fractures = random_rectangle_network(np.random.default_rng(seed), 4)
        seed += 1
        try:
            found.append(dfn.FractureNetwork(fractures, dfn.compute_traces(fractures)))
        except dfn.NetworkError:
            continue
    return found


def grid_mesh(nx, ny, lx=1.0, ly=1.0, constrained_edges=(), jitter=0.0, seed=0):
    """Quad grid mesh over [0,lx]x[0,ly]; optional interior vertex jitter."""
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    pts = np.array([[x, y] for y in ys for x in xs])
    if jitter:
        rng = np.random.default_rng(seed)
        hx, hy = lx / nx, ly / ny
        for j in range(1, ny):
            for i in range(1, nx):
                v = j * (nx + 1) + i
                pts[v, 0] += jitter * hx * (rng.random() - 0.5)
                pts[v, 1] += jitter * hy * (rng.random() - 0.5)
    cells = []
    for j in range(ny):
        for i in range(nx):
            v = lambda a, b: (j + b) * (nx + 1) + (i + a)
            cells.append([v(0, 0), v(1, 0), v(1, 1), v(0, 1)])
    return build_mesh(pts, cells, constrained_edges)


def tri_grid_mesh(nx, ny, lx=1.0, ly=1.0):
    """Structured triangle mesh: each grid quad split along its diagonal."""
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    pts = np.array([[x, y] for y in ys for x in xs])
    cells = []
    for j in range(ny):
        for i in range(nx):
            v = lambda a, b: (j + b) * (nx + 1) + (i + a)
            cells.append([v(0, 0), v(1, 0), v(1, 1)])
            cells.append([v(0, 0), v(1, 1), v(0, 1)])
    return build_mesh(pts, cells)


# 6 x 6 grid squares, bottom row first; squares with one letter merge into one
# cell, "." squares stay two triangles.  The U and L cells are non-convex and
# several cells keep straight (hanging) vertices where their neighbours do.
MIXED_REGIONS = (
    "UUUAAB",
    "U.UAB.",
    "U.U.BB",
    "LL..QQ",
    "L..CC.",
    "..CC..",
)


def mixed_region_mesh():
    """The ``MIXED_REGIONS`` mesh: cells of 3 to 9+ vertices, non-convex ones
    among them, merged from a 6 x 6 triangle grid."""
    from polyagg.agglomerate import apply_labeling

    base = tri_grid_mesh(6, 6)
    labels = np.arange(base.n_cells)
    for j, row in enumerate(MIXED_REGIONS):
        for i, ch in enumerate(row):
            if ch != ".":
                labels[2 * (6 * j + i): 2 * (6 * j + i) + 2] = base.n_cells + ord(ch)
    return apply_labeling(base, labels)


# two pairs of crossing unit squares, the second shifted by x + 5; the
# Dirichlet planes x = 0 and x = 1 touch only the first pair
TWO_CROSSING_PAIRS = "F 4\n" + "".join(
    f"4\n{x} 0 0\n{x + 1} 0 0\n{x + 1} 1 0\n{x} 1 0\n"
    f"4\n{x} 0.5 -0.5\n{x + 1} 0.5 -0.5\n{x + 1} 0.5 0.5\n{x} 0.5 0.5\n" for x in (0, 5)
) + "BC 2\ndirichlet 1 0 0 0 1.0\ndirichlet 1 0 0 -1 0.0\n"


NON_STAR_POLY = np.array(
    [[0, 0], [5, 0], [5, 3], [4, 3], [4, 1], [1, 1], [1, 3], [0, 3]], dtype=float
)


def random_polygon(rng, kind=None):
    """Random simple polygon.

    Kinds 0-2 are radial constructions (convex, mildly concave, spiky), all
    star-shaped around the origin by construction; kind 3 is a randomized
    U-shape whose two inner walls carry conflicting half-planes, so its
    kernel is provably empty.  A random rotation/scale/shift is applied.
    """
    kind = kind if kind is not None else int(rng.integers(0, 4))
    if kind == 3:
        W = 2.0 + 3.0 * rng.random()
        H = 1.5 + 2.5 * rng.random()
        arm = (0.12 + 0.18 * rng.random()) * W
        bar = (0.15 + 0.45 * rng.random()) * H
        pts = np.array(
            [
                [0, 0], [W, 0], [W, H], [W - arm, H],
                [W - arm, bar], [arm, bar], [arm, H], [0, H],
            ],
            dtype=float,
        )
    else:
        n = int(rng.integers(4, 12))
        angles = np.sort(rng.random(n) * 2 * np.pi)
        while np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 1e-2:
            angles = np.sort(rng.random(n) * 2 * np.pi)
        if kind == 0:
            radii = 0.5 + rng.random(n)
        elif kind == 1:
            radii = 0.4 + 0.6 * rng.random(n)
        else:
            radii = np.where(rng.random(n) < 0.5, 0.08 + 0.04 * rng.random(n),
                             1.0 + rng.random(n))
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    ang = 2 * np.pi * rng.random()
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    scale = 0.5 + 2.0 * rng.random()
    shift = rng.uniform(-3, 3, 2)
    return scale * pts @ R.T + shift


def quality_cases(rng):
    """Simple CCW cells for the stacked kernel and quality oracles: seeded
    ``random_polygon`` cells of every kind (kind 3 is not star-shaped),
    radial cells of 3 to 16 vertices, cells with collinear runs, and cells
    of zero area, zero diameter or a zero-length edge."""
    cells = []
    for t in range(240):
        poly = random_polygon(rng, kind=t % 4)
        if geometry.is_simple_polygon(poly):
            cells.append(geometry.ensure_ccw(poly))
    for n in range(3, 17):
        for spiky in (False, True):
            ang = (np.arange(n) + 0.8 * rng.random(n)) * 2 * np.pi / n
            rad = np.where(spiky & (np.arange(n) % 2 == 1), 0.2, 1.0) + 0.3 * rng.random(n)
            cells.append(np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]))
    cells += [np.array(p, dtype=float) for p in (
        [[0, 0], [0.25, 0], [1, 0], [1, 1], [0, 1]],
        [[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1], [0.5, 1], [0, 1], [0, 0.5]],
        [[0, 0], [1, 0], [2, 0], [3, 0], [3, 1e-3], [0, 1e-3]],
        [[0, 0], [1, 0], [2, 0], [1, 0]],          # zero area
        [[1, 1], [1, 1], [1, 1]],                  # zero diameter
        [[0, 0], [1, 0], [1, 0], [0, 1]],          # zero-length edge
        [[0, 0], [0, 1], [1, 1], [1, 0]],          # clockwise
    )]
    cells.append(NON_STAR_POLY)
    return cells


def sees_all_vertices(poly, p, eps=1e-9):
    """Visibility oracle: every boundary vertex visible from p along a segment."""
    poly = np.asarray(poly, dtype=float)
    n = len(poly)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for v in range(n):
        q = poly[v]
        for e in range(n):
            if e == v or (e + 1) % n == v:
                continue
            a, b = poly[e], poly[(e + 1) % n]
            d1 = orient(p, q, a)
            d2 = orient(p, q, b)
            d3 = orient(a, b, p)
            d4 = orient(a, b, q)
            if ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and (
                (d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps)
            ):
                return False
    return True


def kernel_sampling_oracle(poly, grid=25):
    """True when some sample point inside the polygon sees every vertex."""
    from polyagg.geometry import point_in_polygon, polygon_diameter

    poly = np.asarray(poly, dtype=float)
    eps = 1e-9 * polygon_diameter(poly)
    lo = poly.min(0)
    hi = poly.max(0)
    for x in np.linspace(lo[0], hi[0], grid):
        for y in np.linspace(lo[1], hi[1], grid):
            p = np.array([x, y])
            if point_in_polygon(poly, p) == 1 and sees_all_vertices(poly, p, eps):
                return True
    return False


# Reference oracles: the scalar per-polygon loops that the stacked geometry
# primitives replace, kept verbatim.  The stacked primitives must give the
# same area, centroid and diameter bit for bit and the same simplicity verdict.

def ref_polygon_area_centroid(pts):
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


def ref_polygon_diameter(pts):
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


def _ref_orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def ref_segments_properly_intersect(p, q, r, s, eps) -> bool:
    d1 = _ref_orient(r[0], r[1], s[0], s[1], p[0], p[1])
    d2 = _ref_orient(r[0], r[1], s[0], s[1], q[0], q[1])
    d3 = _ref_orient(p[0], p[1], q[0], q[1], r[0], r[1])
    d4 = _ref_orient(p[0], p[1], q[0], q[1], s[0], s[1])
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


def ref_vertex_pinches_edge(p, q, r, s, eps) -> bool:
    """An endpoint of segment pq or rs within eps (orientation) of the open
    interior of the other segment."""
    for v, a, b in ((p, r, s), (q, r, s), (r, p, q), (s, p, q)):
        if (abs(_ref_orient(a[0], a[1], b[0], b[1], v[0], v[1])) <= eps
                and (v[0] - a[0]) * (b[0] - a[0]) + (v[1] - a[1]) * (b[1] - a[1]) > 0.0
                and (v[0] - b[0]) * (a[0] - b[0]) + (v[1] - b[1]) * (a[1] - b[1]) > 0.0):
            return True
    return False


def ref_is_simple_polygon(pts, eps=None) -> bool:
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    n = len(pts)
    if n < 3:
        return False
    diam = ref_polygon_diameter(pts)
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
            if ref_segments_properly_intersect(a, b, c, d, eps):
                return False
            if ref_vertex_pinches_edge(a, b, c, d, eps):
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


def ref_by_vertex_count(mesh):
    """``PolygonalMesh.by_vertex_count`` from the per-cell list ``cells``:
    (n, cell ids, (m, n) vertex ids) per vertex count n, ascending, each
    group stacked from its cells one at a time."""
    counts = np.array([len(ids) for ids in mesh.cells], dtype=np.int64)
    groups = []
    for n in np.unique(counts).tolist():
        cids = np.flatnonzero(counts == n)
        groups.append((n, cids, np.array([mesh.cells[c] for c in cids], dtype=np.int64)))
    return groups


def ref_build_mesh_cells(points, cells, compact=True):
    """Cell validation and edge table of ``build_mesh``, one cell at a time.

    Returns (cells, edges, edge_cells) or raises the ``CellError`` of the
    first failing cell; constraints and cell geometry do not take part.
    """
    from polyagg.mesh import CellError

    pts = np.ascontiguousarray(points, dtype=np.float64)
    nv = len(pts)

    cell_arrays = []
    for ci, raw in enumerate(cells):
        try:
            ids = np.asarray(raw, dtype=np.int64)
        except OverflowError:
            raise CellError(ci, "references a missing vertex") from None
        if ids.ndim != 1 or len(ids) < 3:
            raise CellError(ci, "must list at least 3 vertices")
        if ids.min() < 0 or ids.max() >= nv:
            raise CellError(ci, "references a missing vertex")
        if np.any(ids == np.roll(ids, 1)):
            raise CellError(ci, "repeats consecutive vertices")
        if len(np.unique(ids)) != len(ids):
            raise CellError(ci, "visits a vertex twice")
        loop = pts[ids]
        if ref_polygon_area_centroid(loop)[0] < 0.0:
            ids = ids[::-1].copy()
            loop = pts[ids]
        if not ref_is_simple_polygon(loop):
            raise CellError(ci, "is not a simple polygon")
        cell_arrays.append(ids)

    if compact:
        used = np.zeros(nv, dtype=bool)
        for ids in cell_arrays:
            used[ids] = True
        if not used.all():
            remap = -np.ones(nv, dtype=np.int64)
            remap[used] = np.arange(int(used.sum()))
            cell_arrays = [remap[ids] for ids in cell_arrays]

    edges = []
    edge_index = {}
    edge_cells = []
    edge_dir = []  # directions already seen, for orientation consistency
    for ci, ids in enumerate(cell_arrays):
        for k in range(len(ids)):
            u, v = int(ids[k]), int(ids[(k + 1) % len(ids)])
            key = (u, v) if u < v else (v, u)
            e = edge_index.get(key)
            if e is None:
                e = len(edges)
                edge_index[key] = e
                edges.append(key)
                edge_cells.append([ci])
                edge_dir.append(u < v)
            else:
                if len(edge_cells[e]) >= 2:
                    raise CellError(ci, f"has edge {key}, which is shared by more than 2 cells")
                if edge_dir[e] == (u < v):
                    raise CellError(ci, f"has edge {key} traversed twice in the same "
                                        "direction (overlapping cells)")
                edge_cells[e].append(ci)

    return cell_arrays, edges, [tuple(cs) for cs in edge_cells]


# Reference oracles: the scalar per-cell kernel clip and quality scores and
# the one-loop union simplification that the stacked versions replace, kept
# verbatim (the scores call the scalar clip above).  The stacked quality
# scores, kernel buffers and simplified union loops must match them bit for bit.

def ref_kernel_clip(pts, eps):
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


def ref_quality_scores(pts, collinear_tol, kernel_rel_tol):
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

    ka = geometry.polygon_area(ref_kernel_clip(pts, 1e-12 * diam))
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


def ref_simplified_union_points(mesh, loop, tol=COLLINEAR_TOL):
    """Union loop with unconstrained straight vertices dropped."""
    constrained = set(mesh.constrained_edge_pairs())
    ids = list(loop)
    while True:
        pts = mesh.points[ids]
        n = len(ids)
        if n <= 3:
            return pts
        drop = None
        for k in range(n):
            v = ids[k]
            if mesh.vertex_constrained[v]:
                continue
            a = ids[k - 1]
            b = ids[(k + 1) % n]
            if ((min(a, v), max(a, v)) in constrained
                    or (min(v, b), max(v, b)) in constrained):
                continue
            u1 = pts[k] - pts[k - 1]
            u2 = pts[(k + 1) % n] - pts[k]
            denom = np.hypot(*u1) * np.hypot(*u2)
            if denom == 0.0:
                continue
            if abs(u1[0] * u2[1] - u1[1] * u2[0]) / denom < tol and (u1 @ u2) > 0.0:
                drop = k
                break
        if drop is None:
            return pts
        ids.pop(drop)


# Reference swap solver: the per-pair cost table, the five-array swap graph
# and the cut enumeration that the packed solver replaced, kept as oracles.

REF_ENUM_MAX_NODES = 12


@functools.cache
def ref_cut_table(n):
    """(2**n, n) bool table whose row r holds the bits of r (True: source side)."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)


def ref_maxflow(cap_s, cap_t, edge_u, edge_v, edge_cap):
    """Canonical s-t min cut (flow, source mask) of terminal arcs cap_s/cap_t
    and symmetric pair arcs: every cut scored up to ``REF_ENUM_MAX_NODES``
    nodes, networkx's max flow above."""
    n = cap_s.shape[0]
    if n > REF_ENUM_MAX_NODES:
        value, reach = ref_residual_source_set(
            n, cap_s, cap_t, list(zip(edge_u.tolist(), edge_v.tolist())), edge_cap.tolist())
        return value, np.array(reach, dtype=bool)
    table = ref_cut_table(n)
    # a source-side node pays its sink arc, a sink-side node its source arc
    cost = table @ (cap_t - cap_s) + cap_s.sum()
    cost += (table[:, edge_u] != table[:, edge_v]) @ edge_cap
    # the smallest optimal source set is a subset of every other optimal set,
    # so it is the optimal row with the lowest index: the first argmin
    best = cost.argmin()
    return cost[best], table[best].copy()


def ref_residual_source_set(n, cap_s, cap_t, edges, caps):
    """networkx max flow value and the nodes reachable from s in its residual."""
    g = nx.DiGraph()
    g.add_nodes_from(["s", "t", *range(n)])

    def add(u, v, c):
        if g.has_edge(u, v):
            g[u][v]["capacity"] += c
        else:
            g.add_edge(u, v, capacity=c)

    for i in range(n):
        add("s", i, int(cap_s[i]))
        add(i, "t", int(cap_t[i]))
    for (u, v), c in zip(edges, caps):
        add(u, v, c)
        add(v, u, c)
    value, flow = nx.maximum_flow(g, "s", "t")

    def residual(u, v):
        fwd = g[u][v]["capacity"] - flow[u][v] if g.has_edge(u, v) else 0
        return fwd + (flow[v][u] if g.has_edge(v, u) else 0)

    seen = {"s"}
    stack = ["s"]
    while stack:
        u = stack.pop()
        for v in set(g.successors(u)) | set(g.predecessors(u)):
            if v not in seen and residual(u, v) > 0:
                seen.add(v)
                stack.append(v)
    return value, [i in seen for i in range(n)]


def packed_min_cut(cap_s, cap_t, edges, caps, solver=None):
    """s-t min cut (flow, source mask) of terminal capacities cap_s/cap_t and
    symmetric pair capacities caps on node pairs ``edges``, through
    ``_kernels.maxflow`` (or ``solver``) in its packed form: unary
    cap_t - cap_s, one weight per node pair, flow = energy + sum(cap_s)."""
    cap_s = np.asarray(cap_s, dtype=np.int64)
    n = len(cap_s)
    pair_w = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    offsets = _kernels.pair_offsets(n)
    for (u, v), c in zip(edges, caps):
        pair_w[offsets[min(u, v)] + max(u, v)] += c
    value, mask = (solver or _kernels.maxflow)(np.asarray(cap_t, dtype=np.int64) - cap_s, pair_w)
    return value + cap_s.sum(), mask


def ref_neighbors(mesh):
    """Ascending neighbour list of every cell: the cells across its
    unconstrained shared edges, by one loop over the edge table."""
    nbs = [set() for _ in range(mesh.n_cells)]
    for (c, d), constrained in zip(mesh.edge_cells.tolist(), mesh.edge_constrained.tolist()):
        if d >= 0 and not constrained:
            nbs[c].add(d)
            nbs[d].add(c)
    return [sorted(nb) for nb in nbs]


def adjacency_pairs(mesh):
    """``mesh.adjacent`` as a list of (a, b) pairs."""
    a, b = mesh.adjacent
    return list(zip(a.tolist(), b.tolist()))


class RefProblem:
    """Precomputed integer costs and adjacency for one minimization run."""

    def __init__(self, mesh, config):
        self.mesh = mesh
        self.config = config
        self.scale = mesh.n_cells
        self.w = agg._round_half_away(config.lam * self.scale)
        self.potts = config.sc_mode == "potts"
        self.neighbors = ref_neighbors(mesh)
        self.adj_pairs = [(c, d) for c, nbs in enumerate(self.neighbors) for d in nbs if d > c]
        self.dc_int = {}
        for pair, r in zip(self.adj_pairs, agg._union_rhos(mesh, self.adj_pairs)):
            cost = 1.0 if r is None else 1.0 - r**config.dc_power
            self.dc_int[pair] = agg._round_half_away(self.scale * cost)

    def data_int(self, p: int, label: int) -> int:
        if label == p:
            return 0
        key = (p, label) if p < label else (label, p)
        val = self.dc_int.get(key)
        return self.scale if val is None else val

    def sc_val(self, l1: int, l2: int) -> int:
        if l1 == l2:
            return 0
        if self.potts:
            return 1
        return 1 if l2 in self.neighbors[l1] else 0


def ref_energy(problem, labels, iterations=0):
    data = 0
    for p in range(problem.mesh.n_cells):
        data += problem.data_int(p, int(labels[p]))
    smooth = 0
    for (i, j) in problem.adj_pairs:
        smooth += problem.sc_val(int(labels[i]), int(labels[j]))
    return agg.EnergyBreakdown(data, smooth, data + problem.w * smooth, iterations)


def ref_swap(problem, labels, members, alpha, beta, maxflow=ref_maxflow):
    """One alpha-beta swap move; returns the energy delta <= 0."""
    nodes = members.get(alpha, []) + members.get(beta, [])
    if not nodes:
        return 0
    w = problem.w
    data_int = problem.data_int
    sc_val = problem.sc_val
    pos = {c: k for k, c in enumerate(nodes)}
    pair_w = w * sc_val(alpha, beta)
    cost_a, cost_b, eu, ev = [], [], [], []
    cur = 0
    for k, c in enumerate(nodes):
        lc = labels[c]
        ca = data_int(c, alpha)
        cb = data_int(c, beta)
        cur += ca if lc == alpha else cb
        for nb in problem.neighbors[c]:
            j = pos.get(nb)
            if j is not None:
                if nb > c:
                    cur += w * sc_val(lc, labels[nb])
                    if pair_w > 0:
                        eu.append(k)
                        ev.append(j)
                continue
            lq = labels[nb]
            ca += w * sc_val(alpha, lq)
            cb += w * sc_val(beta, lq)
            cur += w * sc_val(lc, lq)
        cost_a.append(ca)
        cost_b.append(cb)

    flow, mask = maxflow(
        np.array(cost_b, dtype=np.int64),
        np.array(cost_a, dtype=np.int64),
        np.array(eu, dtype=np.int64),
        np.array(ev, dtype=np.int64),
        np.full(len(eu), pair_w, dtype=np.int64),
    )
    delta = int(flow) - cur
    if delta > 0:
        raise RuntimeError("swap move increased the energy; graph construction bug")
    if delta == 0:
        return 0
    to_alpha, to_beta = [], []
    for c, source_side in zip(nodes, mask.tolist()):
        if source_side:
            labels[c] = alpha
            to_alpha.append(c)
        else:
            labels[c] = beta
            to_beta.append(c)
    members[alpha] = to_alpha
    members[beta] = to_beta
    return delta


def ref_minimize(mesh, config, maxflow=ref_maxflow):
    """Every label pair in contact swapped once per cycle, nothing skipped;
    returns (labels, energy history)."""
    problem = RefProblem(mesh, config)
    labels = list(range(mesh.n_cells))
    members = agg._members(labels)
    history = [ref_energy(problem, labels, iterations=0)]
    for cycle in range(1, config.max_cycles + 1):
        pairs = set()
        for (i, j) in problem.adj_pairs:
            a, b = labels[i], labels[j]
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        total_delta = 0
        for (a, b) in sorted(pairs):
            total_delta += ref_swap(problem, labels, members, a, b, maxflow)
        history.append(ref_energy(problem, labels, iterations=cycle))
        if total_delta == 0:
            break
    return np.array(labels, dtype=np.int64), history


# Reference DOF layer: the per-cell, per-edge and per-DOF loops that the
# grouped array versions replaced, kept verbatim (an edge's slots are
# written out where the loops called ``DofMap.edge_slots`` and
# ``DofMap.edge_slot``; the per-cell rows are grouped by vertex count at the
# end, as ``DofMap.groups`` holds them).  The array versions must give the
# same ids, positions and roots bit for bit.

def ref_build_dof_map(mesh, k):
    nv, ne, nc = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    km1 = k - 1
    nmom = k * (k - 1) // 2
    edge_base = nv
    moment_base = nv + ne * km1
    total = moment_base + nc * nmom
    edge_index = ref_edge_index(mesh)
    cell_dofs = []
    for ci, ids in enumerate(mesh.cells):
        m = len(ids)
        g = np.empty(m * k + nmom, dtype=np.int64)
        g[:m] = ids
        if k > 1:
            for i in range(m):
                u, v = int(ids[i]), int(ids[(i + 1) % m])
                key = (u, v) if u < v else (v, u)
                e = edge_index[key]
                base = edge_base + e * km1
                slots = np.arange(base, base + km1)
                if u > v:
                    slots = slots[::-1]
                g[m + i * km1: m + (i + 1) * km1] = slots
        if nmom:
            g[m * k:] = moment_base + ci * nmom + np.arange(nmom)
        cell_dofs.append(g)
    by_size = {}
    for ci, g in enumerate(cell_dofs):
        by_size.setdefault(len(mesh.cells[ci]), []).append((ci, g))
    groups = {n: (np.array([ci for ci, _ in rows], dtype=np.int64), np.stack([g for _, g in rows]))
              for n, rows in sorted(by_size.items())}
    return vem.DofMap(k, nv, ne, nc, total, groups, edge_base, moment_base)


def cell_dofs(dofmap):
    """The DOF ids of each cell of a ``vem.DofMap``, in cell order."""
    rows = [None] * dofmap.n_cells
    for cids, ids in dofmap.groups.values():
        for c, row in zip(cids.tolist(), ids):
            rows[c] = row
    return rows


def dof_maps_equal(got, want):
    """Same counts, bases and per vertex count the same cell ids and DOF ids, dtypes included."""
    fields = ("k", "n_vertices", "n_edges", "n_cells", "total", "edge_base", "moment_base")
    return (all(getattr(got, f) == getattr(want, f) for f in fields)
            and list(got.groups) == list(want.groups)
            and all(a.dtype == b.dtype and np.array_equal(a, b)
                    for n in got.groups for a, b in zip(got.groups[n], want.groups[n])))


def ref_dof_positions(mesh, dofmap):
    pos = np.empty((dofmap.total, 2))
    pos[: mesh.n_vertices] = mesh.points
    if dofmap.k > 1:
        km1 = dofmap.k - 1
        for e, (u, v) in enumerate(mesh.edges):
            gl, _ = gauss_lobatto_points(dofmap.k, mesh.points[u], mesh.points[v])
            pos[dofmap.edge_base + e * km1: dofmap.edge_base + (e + 1) * km1] = gl
    nmom = dofmap.k * (dofmap.k - 1) // 2
    if nmom:
        for ci in range(mesh.n_cells):
            pos[dofmap.moment_base + ci * nmom: dofmap.moment_base + (ci + 1) * nmom] = (
                mesh.cell_centroid[ci]
            )
    return pos


def ref_forest_roots(parent):
    """Root of every node by one path-compressing ``find`` per node (on a copy)."""
    parent = parent.copy()

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    return np.array([find(i) for i in range(len(parent))], dtype=np.int64)


def ref_edge_index(mesh):
    """(u, v) -> edge id of every mesh edge, as a dict."""
    return {(u, v): e for e, (u, v) in enumerate(mesh.edges.tolist())}


def ref_global_dof_ids(meshes, network, matches, k, tol_rel=1e-9):
    """(g, n_global) of ``dfn.build_global_dofmap`` by one union-find call
    per identified DOF pair: a path-halving ``find`` and a ``union`` that
    hangs the higher root under the lower one.  The edge slots of a trace
    pair by position: each slot of the first fracture's covering edge with
    the nearest Gauss-Lobatto point of the other's, in 3D."""
    fids = sorted(meshes)
    locals_ = {fid: ref_build_dof_map(meshes[fid], k) for fid in fids}
    offsets = {}
    total = 0
    for fid in fids:
        offsets[fid] = total
        total += locals_[fid].total
    parent = np.arange(total, dtype=np.int64)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if ra < rb:
            parent[rb] = ra
        else:
            parent[ra] = rb

    frs = {f.fid: f for f in network.fractures}
    tol = tol_rel * network.scale
    for tr in network.traces:
        mi = matches[tr.tid]
        fid_a, fid_b = tr.frac_i, tr.frac_j
        la, lb = mi[fid_a], mi[fid_b]
        assert len(la) == len(lb)
        for (ta, va), (tb, vb) in zip(la, lb):
            assert abs(ta - tb) <= 1e-12 * max(1.0, tr.length)
            union(offsets[fid_a] + va, offsets[fid_b] + vb)
        if k > 1:
            mesh_a, mesh_b = meshes[fid_a], meshes[fid_b]
            index_a, index_b = ref_edge_index(mesh_a), ref_edge_index(mesh_b)
            dm_a, dm_b = locals_[fid_a], locals_[fid_b]
            for p in range(len(la) - 1):
                ea = index_a[(min(la[p][1], la[p + 1][1]), max(la[p][1], la[p + 1][1]))]
                eb = index_b[(min(lb[p][1], lb[p + 1][1]), max(lb[p][1], lb[p + 1][1]))]
                ua, va_ = mesh_a.edges[ea]
                ub, vb_ = mesh_b.edges[eb]
                pa, _ = gauss_lobatto_points(k, mesh_a.points[ua], mesh_a.points[va_])
                pb, _ = gauss_lobatto_points(k, mesh_b.points[ub], mesh_b.points[vb_])
                pa3 = frs[fid_a].to_global(pa)
                pb3 = frs[fid_b].to_global(pb)
                for s in range(k - 1):
                    dist = np.linalg.norm(pb3 - pa3[s], axis=1)
                    s2 = int(np.argmin(dist))
                    assert dist[s2] <= tol
                    union(offsets[fid_a] + dm_a.edge_base + ea * (k - 1) + s,
                          offsets[fid_b] + dm_b.edge_base + eb * (k - 1) + s2)

    uniq, inv = np.unique(ref_forest_roots(parent), return_inverse=True)
    g = {fid: inv[offsets[fid]: offsets[fid] + locals_[fid].total].astype(np.int64)
         for fid in fids}
    return g, int(len(uniq))


def ref_dirichlet_boundary_edges(mesh, fracture, traces, scale, tol_rel=dfn.TOL_REL):
    """Boundary edge ids not covered by traces: an edge is covered when both
    endpoints and its midpoint lie on one trace segment, within ``tol_rel``
    times ``scale``."""
    tol = tol_rel * scale
    edges = mesh.boundary_edge_ids()
    ends = mesh.points[mesh.edges[edges]]
    pts = np.concatenate([ends, 0.5 * (ends[:, :1] + ends[:, 1:])], axis=1)
    covered = np.zeros(len(edges), dtype=bool)
    for tr in traces:
        a2, b2 = (np.asarray(p) for p in tr.local_segment(fracture))
        L = tr.length
        dn = (b2 - a2) / L
        dx, dy = pts[..., 0] - a2[0], pts[..., 1] - a2[1]
        t = dn[0] * dx + dn[1] * dy
        s = dn[0] * dy - dn[1] * dx
        covered |= ((np.abs(s) <= tol) & (t >= -tol) & (t <= L + tol)).all(axis=1)
    return edges[~covered]


# Reference mesh surgery: the per-edge and per-cell loops that the array
# versions in ``mesh``, ``agglomerate`` and ``dfn`` replaced, kept verbatim as
# oracles.  The array versions must give the same loops, errors, meshes and
# trace matches bit for bit.

def ref_union_loop(mesh, cell_ids):
    """Outer vertex loop of the union of the cells; raises the MergeError."""
    constrained = set(mesh.constrained_edge_pairs())
    directed = {}
    owner = {}  # directed edge -> position of its cell in cell_ids
    for pos, ci in enumerate(cell_ids):
        ids = mesh.cells[ci]
        m = len(ids)
        for k in range(m):
            u, v = int(ids[k]), int(ids[(k + 1) % m])
            directed[(u, v)] = directed.get((u, v), 0) + 1
            owner[(u, v)] = pos

    boundary = {}
    for (u, v), cnt in directed.items():
        if cnt > 1:
            raise MergeNonSimpleError("duplicated directed edge in union")
        if (v, u) in directed:
            key = (u, v) if u < v else (v, u)
            if key in constrained:
                raise MergeConstraintError(
                    "union would remove a constrained edge"
                )
            continue
        if u in boundary:
            raise MergeNonSimpleError("union touches itself at a vertex")
        boundary[u] = v

    reached, stack = {0}, [0]
    while stack:
        pos = stack.pop()
        for (u, v), p in owner.items():
            if p == pos and owner.get((v, u), pos) not in reached:
                reached.add(owner[(v, u)])
                stack.append(owner[(v, u)])
    if cell_ids and len(reached) < len(cell_ids):
        raise MergeNonSimpleError("union is not edge-connected")
    if not boundary:
        raise MergeNonSimpleError("union has no boundary")
    start = min(boundary)
    loop = [start]
    v = boundary.pop(start)
    while v != start:
        loop.append(v)
        nxt = boundary.pop(v, None)
        if nxt is None:
            raise MergeNonSimpleError("open boundary chain in union")
        v = nxt
    if boundary:
        raise MergeHoleError("union encloses a hole")
    if len(loop) < 3:
        raise MergeNonSimpleError("union boundary degenerate")
    return loop


def ref_label_components(mesh, labels):
    """(label, sorted cells) of every edge-connected component of each label
    class, in the order apply_labeling emits them, by a depth-first search."""
    classes = {}
    for c in range(mesh.n_cells):
        classes.setdefault(int(labels[c]), []).append(c)
    neighbors = ref_neighbors(mesh)
    out = []
    for lab in sorted(classes):
        members = classes[lab]
        member_set = set(members)
        seen = set()
        for c in members:
            if c in seen:
                continue
            comp = [c]
            seen.add(c)
            stack = [c]
            while stack:
                x = stack.pop()
                for nb in neighbors[x]:
                    if nb in member_set and nb not in seen:
                        seen.add(nb)
                        comp.append(nb)
                        stack.append(nb)
            out.append((lab, sorted(comp)))
    return out


def ref_removable_vertices(mesh, tol=COLLINEAR_TOL):
    """The vertices simplify_aligned_edges drops, by one loop per vertex."""
    pts = mesh.points
    incident = [[] for _ in range(mesh.n_vertices)]
    for e, (u, v) in enumerate(mesh.edges):
        incident[u].append(e)
        incident[v].append(e)

    removable = np.zeros(mesh.n_vertices, dtype=bool)
    for v in range(mesh.n_vertices):
        if mesh.vertex_constrained[v] or len(incident[v]) != 2:
            continue
        e1, e2 = incident[v]
        if mesh.edge_constrained[e1] or mesh.edge_constrained[e2]:
            continue
        a = mesh.edges[e1][0] if mesh.edges[e1][1] == v else mesh.edges[e1][1]
        b = mesh.edges[e2][0] if mesh.edges[e2][1] == v else mesh.edges[e2][1]
        u1 = pts[v] - pts[a]
        u2 = pts[b] - pts[v]
        denom = np.hypot(*u1) * np.hypot(*u2)
        if denom == 0.0:
            continue
        cr = u1[0] * u2[1] - u1[1] * u2[0]
        if abs(cr) / denom < tol and (u1 @ u2) > 0.0:
            removable[v] = True
    return removable


def ref_simplify_aligned_edges(mesh):
    """The mesh without the vertices ``ref_removable_vertices`` finds, swept
    again (one build per sweep) until none is left; ``mesh`` itself when
    there is none.  A vertex whose removal would leave a cell below a
    triangle stays, in every cell and every later sweep."""
    cons = mesh.constrained_edge_pairs()
    cvs = np.flatnonzero(mesh.vertex_constrained)
    pinned = np.zeros(mesh.n_vertices, dtype=bool)
    out = mesh
    while True:
        removable = ref_removable_vertices(out) & ~pinned
        for ids in out.cells:
            if len(ids) - removable[ids].sum() < 3:
                pinned[ids[removable[ids]]] = True
        removable &= ~pinned
        if not removable.any():
            break
        # vertex ids stay put until the last build, so ``pinned`` stays valid
        out = build_mesh(out.points, [ids[~removable[ids]] for ids in out.cells],
                         cons, cvs, compact=False)
    return mesh if out is mesh else build_mesh(out.points, out.cells, cons, cvs)


def ref_union(mesh, cells):
    """(loop, None) or (None, (error class, message)) by the scalar trace."""
    try:
        return ref_union_loop(mesh, cells), None
    except MergeError as err:
        return None, (type(err), str(err))


def pack_rows(rows):
    """The int64 table (flat, offsets) of a list of id lists."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return np.array([v for r in rows for v in r], dtype=np.int64), offsets


# The list form of the merge pass, which the table form in ``mesh`` and
# ``agglomerate`` replaced: union loops as one array per set, regrouped by a
# dict, and apply_labeling's loop over components.  The table form must give
# the same rows, rhos, skipped merges and meshes bit for bit.

def list_simplified_loop_groups(mesh, loops):
    """``agglomerate._simplified_loop_groups`` over a list of union loops:
    yields (loop indices, (g, n) vertex ids) once per remaining vertex count."""
    by_count = {}
    for k, loop in enumerate(loops):
        by_count.setdefault(len(loop), []).append(k)
    # vertex count -> [(loop indices, (g, n) vertex ids)]
    pending = {n: [(np.array(ks), np.array([loops[k] for k in ks], dtype=np.int64))]
               for n, ks in by_count.items()}
    while pending:
        n = max(pending)
        parts = pending.pop(n)
        idx = np.concatenate([i for i, _ in parts])
        ids = np.concatenate([v for _, v in parts])
        if n > 3:
            drop = agg._droppable(mesh, ids)
            hit = drop.any(axis=1)
            if hit.any():
                keep = np.arange(n) != drop[hit].argmax(axis=1)[:, None]
                pending.setdefault(n - 1, []).append((idx[hit], ids[hit][keep].reshape(-1, n - 1)))
                idx, ids = idx[~hit], ids[~hit]
        if len(idx):
            yield idx, ids


def list_union_rhos(mesh, pairs):
    """``agglomerate._union_rhos`` from the scalar union loops, simplified by
    ``list_simplified_loop_groups``."""
    unions = [ref_union(mesh, pair)[0] for pair in pairs]
    scored = [k for k, loop in enumerate(unions) if loop is not None]
    loops = [np.asarray(unions[k], dtype=np.int64) for k in scored]
    rhos = [None] * len(pairs)
    for idx, ids in list_simplified_loop_groups(mesh, loops):
        r = _kernels.quality_scores(mesh.points[ids])
        for k, v in zip(idx.tolist(), r[:, 4].tolist()):
            rhos[scored[k]] = v
    return rhos


def list_apply_labeling(mesh, labels, skipped):
    """``agglomerate.apply_labeling`` by a loop over the components of
    ``ref_label_components``, each traced by ``ref_union_loop``, then
    ``ref_simplify_aligned_edges``; a failed component keeps its cells and
    adds (label, cells, reason) to ``skipped``."""
    new_cells = []
    for lab, comp in ref_label_components(mesh, labels):
        loop, err = ref_union(mesh, comp) if len(comp) > 1 else (mesh.cells[comp[0]], None)
        if err is None:
            new_cells.append(np.asarray(loop, dtype=np.int64))
        else:
            skipped.append((int(lab), comp, err[1]))
            new_cells.extend(mesh.cells[c] for c in comp)
    merged = build_mesh(mesh.points, new_cells, mesh.constrained_edge_pairs(),
                        np.flatnonzero(mesh.vertex_constrained))
    return ref_simplify_aligned_edges(merged)


# Reference cutting and stitching: the mutable mesh with a dict edge map, a
# snap-grid vertex pool and cells as vertex lists, seeded by registering one
# vertex and one cell at a time, that cut_by_traces and stitch_meshes ran on
# before they worked on the PolygonalMesh arrays.  Both must match it bit
# for bit.

class RefMutableMesh:
    """A mesh edited in place: a growing vertex list, cells as vertex lists,
    an edge -> cells map, the constrained edges and vertices, and a
    snap-grid pool that finds a vertex by position."""

    def __init__(self, mesh, snap):
        self.points = [p.copy() for p in mesh.points]
        self.cells = [list(map(int, ids)) for ids in mesh.cells]
        self.con_edges = set(mesh.constrained_edge_pairs())
        self.con_verts = set(np.flatnonzero(mesh.vertex_constrained).tolist())
        self.snap = snap
        self.pool = {}
        for i, p in enumerate(self.points):
            self.pool[self._key(p)] = i
        self.edge_map = {}
        for cid, loop in enumerate(self.cells):
            self._register(cid, loop)

    def _key(self, p):
        return (round(p[0] / self.snap), round(p[1] / self.snap))

    def _register(self, cid, loop):
        n = len(loop)
        for k in range(n):
            u, v = loop[k], loop[(k + 1) % n]
            self.edge_map.setdefault((u, v) if u < v else (v, u), []).append(cid)

    def _unregister(self, cid, loop):
        n = len(loop)
        for k in range(n):
            u, v = loop[k], loop[(k + 1) % n]
            key = (u, v) if u < v else (v, u)
            cs = self.edge_map[key]
            cs.remove(cid)
            if not cs:
                del self.edge_map[key]

    def find_vertex(self, p):
        kx, ky = self._key(p)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                vid = self.pool.get((kx + dx, ky + dy))
                if vid is not None and np.hypot(*(self.points[vid] - p)) <= self.snap:
                    return vid
        return None

    def add_vertex(self, p):
        vid = self.find_vertex(p)
        if vid is not None:
            return vid
        self.points.append(np.array(p, dtype=float))
        vid = len(self.points) - 1
        self.pool[self._key(p)] = vid
        return vid

    def split_edge(self, u, v, vid):
        """Insert vid between u and v in every cell using that edge."""
        key = (u, v) if u < v else (v, u)
        cells = self.edge_map.pop(key, None)
        if not cells:
            raise MeshError(f"edge {key} not present")
        for cid in cells:
            loop = self.cells[cid]
            n = len(loop)
            for k in range(n):
                if {loop[k], loop[(k + 1) % n]} == {u, v}:
                    loop.insert(k + 1, vid)
                    break
        for a, b in ((u, vid), (vid, v)):
            self.edge_map.setdefault((a, b) if a < b else (b, a), []).extend(cells)
        if key in self.con_edges:
            self.con_edges.discard(key)
            for a, b in ((u, vid), (vid, v)):
                self.con_edges.add((min(a, b), max(a, b)))
            self.con_verts.add(vid)

    def replace_cell(self, cid, loop):
        self._unregister(cid, self.cells[cid])
        self.cells[cid] = list(loop)
        self._register(cid, self.cells[cid])

    def append_cell(self, loop):
        self.cells.append(list(loop))
        self._register(len(self.cells) - 1, self.cells[-1])

    def to_mesh(self):
        return build_mesh(np.array(self.points).reshape(-1, 2), self.cells,
                          sorted(self.con_edges), sorted(self.con_verts), compact=True)


def ref_point_in_some_cell(mm, p):
    for loop in mm.cells:
        pts = np.array([mm.points[v] for v in loop])
        if (
            pts[:, 0].min() - mm.snap <= p[0] <= pts[:, 0].max() + mm.snap
            and pts[:, 1].min() - mm.snap <= p[1] <= pts[:, 1].max() + mm.snap
            and geometry.point_in_polygon(pts, p, mm.snap) == 1
        ):
            return True
    return False


def ref_cut_by_traces(mesh, segments, tol_rel=dfn.TOL_REL):
    """cut_by_traces on a RefMutableMesh, one ``ref_cut_one_segment`` per
    segment."""
    if mesh.n_cells == 0:
        raise MeshError("empty mesh")
    scale = max(mesh.h, *(float(np.hypot(*(np.asarray(b) - np.asarray(a))))
                          for a, b in segments)) if segments else mesh.h
    mm = RefMutableMesh(mesh, snap=0.5 * tol_rel * scale)
    for a2, b2 in segments:
        ref_cut_one_segment(mm, a2, b2, tol_rel * scale)
    out = mm.to_mesh()
    if abs(out.total_area - mesh.total_area) > 1e-10 * mesh.total_area:
        raise MeshError("cutting changed the covered area")
    return out


def ref_cut_one_segment(mm, a2, b2, tol):
    """The cut of one segment visiting every cell and every edge."""
    d = np.asarray(b2, dtype=float) - np.asarray(a2, dtype=float)
    L = float(np.hypot(*d))
    if L <= tol:
        return
    dn = d / L
    a2 = np.asarray(a2, dtype=float)

    def sdist(p):
        return dn[0] * (p[1] - a2[1]) - dn[1] * (p[0] - a2[0])

    def tpar(p):
        return dn[0] * (p[0] - a2[0]) + dn[1] * (p[1] - a2[1])

    n_start = len(mm.cells)
    for cid in range(n_start):
        loop = mm.cells[cid]
        pts = [mm.points[v] for v in loop]
        s = [sdist(p) for p in pts]
        if max(s) <= tol or min(s) >= -tol:
            continue
        n = len(loop)
        events = []
        for k in range(n):
            if abs(s[k]) <= tol:
                events.append((tpar(pts[k]), "v", loop[k], None))
        for k in range(n):
            j = (k + 1) % n
            if (s[k] > tol and s[j] < -tol) or (s[k] < -tol and s[j] > tol):
                t = s[k] / (s[k] - s[j])
                p = pts[k] + t * (pts[j] - pts[k])
                events.append((tpar(p), "e", (loop[k], loop[j]), p))
        events.sort(key=lambda e: e[0])
        merged = []
        for ev in events:
            if merged and abs(ev[0] - merged[-1][0]) <= tol:
                continue
            merged.append(ev)
        if len(merged) != 2:
            raise MeshError(
                f"cell {cid}: ambiguous line crossing ({len(merged)} events)"
            )
        t1, t2 = merged[0][0], merged[1][0]
        if min(t2, L) - max(t1, 0.0) <= tol:
            continue

        chord = []
        for ev in merged:
            if ev[1] == "v":
                chord.append((ev[0], ev[2]))
            else:
                (u, v), p = ev[2], ev[3]
                vid = mm.find_vertex(p)
                if vid is None:
                    vid = mm.add_vertex(p)
                    mm.split_edge(u, v, vid)
                elif vid not in (u, v) and vid not in mm.cells[cid]:
                    mm.split_edge(u, v, vid)
                chord.append((ev[0], vid))
        (ta, va), (tb, vb) = chord

        inner = []
        for te, pe in ((0.0, a2), (L, a2 + L * dn)):
            if ta + tol < te < tb - tol:
                vid = mm.add_vertex(pe)
                mm.con_verts.add(vid)
                inner.append((te, vid))
        inner.sort()

        loop = mm.cells[cid]
        ia = loop.index(va)
        ib = loop.index(vb)
        if ia < ib:
            chain1 = loop[ia: ib + 1]
            chain2 = loop[ib:] + loop[: ia + 1]
        else:
            chain1 = loop[ia:] + loop[: ib + 1]
            chain2 = loop[ib: ia + 1]
        inner_ids = [v for (_, v) in inner]
        piece1 = chain1 + inner_ids[::-1]
        piece2 = chain2 + inner_ids
        if len(piece1) < 3 or len(piece2) < 3:
            raise MeshError(f"cell {cid}: degenerate split")
        mm.replace_cell(cid, piece1)
        mm.append_cell(piece2)

        seq = [(ta, va)] + inner + [(tb, vb)]
        for (q0, v0), (q1, v1) in zip(seq, seq[1:]):
            if q0 >= -tol and q1 <= L + tol:
                mm.con_edges.add((min(v0, v1), max(v0, v1)))

    for pe in (a2, a2 + L * dn):
        vid = mm.find_vertex(pe)
        if vid is not None:
            mm.con_verts.add(vid)
            continue
        placed = False
        for (u, v) in list(mm.edge_map.keys()):
            pu, pv = mm.points[u], mm.points[v]
            e = pv - pu
            ln = np.hypot(*e)
            if ln <= tol:
                continue
            cr = abs(e[0] * (pe[1] - pu[1]) - e[1] * (pe[0] - pu[0])) / ln
            if cr > tol:
                continue
            t = ((pe - pu) @ e) / (ln * ln)
            if tol / ln < t < 1.0 - tol / ln:
                vid = mm.add_vertex(pe)
                mm.split_edge(u, v, vid)
                mm.con_verts.add(vid)
                placed = True
                break
        if not placed and ref_point_in_some_cell(mm, pe):
            raise MeshError(
                "trace endpoint inside a cell survived the cutting pass"
            )

    for (u, v) in list(mm.edge_map.keys()):
        pu, pv = mm.points[u], mm.points[v]
        if abs(sdist(pu)) <= tol and abs(sdist(pv)) <= tol:
            tu, tv = tpar(pu), tpar(pv)
            if min(tu, tv) >= -tol and max(tu, tv) <= L + tol:
                mm.con_edges.add((min(u, v), max(u, v)))


def ref_on_trace_vertices(points, a2, dn, L, tol):
    out = []
    for vid, p in enumerate(points):
        t = dn[0] * (p[0] - a2[0]) + dn[1] * (p[1] - a2[1])
        s = dn[0] * (p[1] - a2[1]) - dn[1] * (p[0] - a2[0])
        if abs(s) <= tol and -tol <= t <= L + tol:
            out.append((float(t), vid))
    out.sort()
    return out


def ref_stitch_meshes(meshes, network):
    """stitch_meshes on one RefMutableMesh per fracture: each missing union
    parameter is one vertex added and one edge split, in turn."""
    tol = dfn.TOL_REL * network.scale
    frs = {f.fid: f for f in network.fractures}
    mms = {fid: RefMutableMesh(m, snap=0.5 * tol) for fid, m in meshes.items()}
    matches = {}
    for tr in network.traces:
        L = tr.length
        nodes = {}
        for fid in (tr.frac_i, tr.frac_j):
            a2, b2 = tr.local_segment(frs[fid])
            dn = (np.asarray(b2) - np.asarray(a2)) / L
            nodes[fid] = ref_on_trace_vertices(mms[fid].points, np.asarray(a2), dn, L, tol)
        params = sorted(t for lst in nodes.values() for t, _ in lst)
        union = []
        for t in params:
            if not union or t - union[-1] > tol:
                union.append(t)
        for fid, have in nodes.items():
            mm = mms[fid]
            for t in union:
                at = [q for q, _ in have]
                k = bisect.bisect_left(at, t)
                if (k < len(have) and abs(have[k][0] - t) <= tol) or (
                    k > 0 and abs(have[k - 1][0] - t) <= tol
                ):
                    continue
                if k == 0 or k == len(have):
                    raise MeshError(
                        f"trace {tr.tid}: node parameter {t} outside fracture "
                        f"{fid} coverage"
                    )
                (t0, v0), (t1, v1) = have[k - 1], have[k]
                p = mm.points[v0] + (t - t0) / (t1 - t0) * (mm.points[v1] - mm.points[v0])
                vid = mm.add_vertex(p)
                mm.split_edge(v0, v1, vid)
                mm.con_verts.add(vid)
                have.insert(k, (t, vid))
        matches[tr.tid] = nodes
    out = {}
    for fid, mm in mms.items():
        out[fid] = mm.to_mesh()
        if out[fid].n_vertices != len(mm.points):
            raise MeshError(f"fracture {fid}: stitched rebuild dropped vertices")
    return out, matches


# Reference triangulation and traces: the per-polygon Sutherland-Hodgman
# clip, the Cyrus-Beck segment clip and the per-quad triangulation loop with
# its box-only path that the stacked ``kernel_clip`` path replaced, kept
# verbatim.  The triangulations must match bit for bit.

def ref_convex_clip(subject, clip):
    """Sutherland-Hodgman clip of ``subject`` against a convex CCW ``clip``."""
    subject = geometry.as_points(subject)
    clip = geometry.as_points(clip)
    out = subject
    m = len(clip)
    scale = geometry.polygon_diameter(clip)
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


def ref_clip_segment_to_convex(a, d, tmax, poly, eps):
    """Cyrus-Beck clip of the segment a + t*d, t in [0, tmax] against a
    convex CCW polygon: (t0, t1) of the inside part, or None when the
    overlap is empty.  ``d`` is a unit vector, eps a distance tolerance."""
    poly = geometry.as_points(poly)
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


def ref_compute_traces(fractures):
    """Pairwise traces: each section of one fracture by the other's plane,
    clipped to the other fracture by Cyrus-Beck; (frac_i, frac_j, a3, b3)."""
    allv = np.vstack([f.vertices3 for f in fractures])
    scale = float(np.linalg.norm(allv.max(0) - allv.min(0)))
    tol = 1e-10 * max(scale, 1e-300)
    traces = []
    for i in range(len(fractures)):
        for j in range(i + 1, len(fractures)):
            fi, fj = fractures[i], fractures[j]
            di = fi.vertices3 @ fj.normal - fj.plane_offset()
            dj = fj.vertices3 @ fi.normal - fi.plane_offset()
            if np.abs(di).max() <= tol and np.abs(dj).max() <= tol:
                inter = ref_convex_clip(fi.to_local(fj.vertices3), fi.local_polygon)
                if len(inter) >= 3 and abs(geometry.polygon_area(inter)) > tol * tol:
                    raise dfn.FractureError(
                        fj.fid, f"and fracture {fi.fid} are coplanar and overlap"
                    )
                continue
            sec = dfn._polygon_plane_section(fi, fj.normal, fj.plane_offset(), tol)
            if sec is None:
                continue
            a3, b3 = sec
            d3 = b3 - a3
            length = np.linalg.norm(d3)
            dirv = d3 / length
            a2 = fj.to_local(a3[None, :])[0]
            d2 = fj.to_local((a3 + dirv)[None, :])[0] - a2
            clip = ref_clip_segment_to_convex(a2, d2, length, fj.local_polygon, tol)
            if clip is None:
                continue
            t0, t1 = clip
            pa = a3 + t0 * dirv
            pb = a3 + t1 * dirv
            if tuple(pb) < tuple(pa):
                pa, pb = pb, pa
            traces.append((fi.fid, fj.fid, pa, pb))
    return traces


def _ref_inward_distance(poly, p) -> float:
    """Distance of a point to the nearest edge line of a convex CCW polygon."""
    best = np.inf
    n = len(poly)
    for e in range(n):
        a, b = poly[e], poly[(e + 1) % n]
        d = b - a
        ln = np.hypot(*d)
        if ln == 0.0:
            continue
        s = (d[0] * (p[1] - a[1]) - d[1] * (p[0] - a[0])) / ln
        best = min(best, s)
    return best


def ref_triangulate_once(fracture, max_area, n_cells, jitter):
    """The triangulation of ``dfn._triangulate_once`` by one clip per quad."""
    poly = fracture.local_polygon
    xmin, ymin = poly.min(0)
    xmax, ymax = poly.max(0)
    w, h = xmax - xmin, ymax - ymin
    if w <= 0 or h <= 0:
        raise dfn.NetworkError(f"fracture {fracture.fid}: degenerate bounding box")
    pitch_area = max_area if max_area is None or jitter == 0.0 else 0.9 * max_area
    nx, ny = dfn._grid_counts(w, h, pitch_area, n_cells)
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    sx, sy = w / nx, h / ny
    quad_area = sx * sy
    diam = fracture.diameter
    is_box = len(poly) == 4 and all(
        min(np.hypot(*(poly[i] - c)) for i in range(4)) <= 1e-12 * diam
        for c in (
            (xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)
        )
    )

    points = [np.array([x, y]) for y in ys for x in xs]
    if jitter > 0.0:
        rng = np.random.default_rng(1811 + 7919 * fracture.fid)
        margin = 1.5 * max(sx, sy)
        for j in range(1, ny):
            for i in range(1, nx):
                dx = jitter * sx * (2.0 * rng.random() - 1.0)
                dy = jitter * sy * (2.0 * rng.random() - 1.0)
                v = j * (nx + 1) + i
                if is_box or _ref_inward_distance(poly, points[v]) >= margin:
                    points[v] = points[v] + (dx, dy)
    vid = lambda i, j: j * (nx + 1) + i
    cells = []
    extra_points = []
    pool = {}

    def clip_vid(p):
        key = (round(p[0] / (1e-9 * diam)), round(p[1] / (1e-9 * diam)))
        if key in pool:
            return pool[key]
        k = len(points) + len(extra_points)
        extra_points.append(np.asarray(p))
        pool[key] = k
        return k

    for j in range(ny):
        for i in range(nx):
            q = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
            if is_box:
                cells.append([q[0], q[1], q[2]])
                cells.append([q[0], q[2], q[3]])
                continue
            quad = np.array([points[v] for v in q])
            qa = abs(geometry.polygon_area(quad))
            piece = ref_convex_clip(quad, poly)
            if len(piece) < 3:
                continue
            pa = abs(geometry.polygon_area(piece))
            if pa <= 1e-14 * quad_area:
                continue
            if abs(pa - qa) <= 1e-12 * qa:
                cells.append([q[0], q[1], q[2]])
                cells.append([q[0], q[2], q[3]])
                continue
            ids = []
            for p in piece:
                side = [
                    v
                    for v in q
                    if np.hypot(*(points[v] - p)) <= 1e-9 * diam
                ]
                ids.append(side[0] if side else clip_vid(p))
            dedup = [v for k, v in enumerate(ids) if v != ids[k - 1]]
            if len(dedup) >= 3 and dedup[0] == dedup[-1]:
                dedup = dedup[:-1]
            if len(dedup) < 3:
                continue
            allpts = points + extra_points
            for t in range(1, len(dedup) - 1):
                tri = [dedup[0], dedup[t], dedup[t + 1]]
                a = geometry.polygon_area(np.array([allpts[v] for v in tri]))
                if a > 1e-14 * quad_area:
                    cells.append(tri)

    mesh = build_mesh(points + extra_points, cells, compact=True)
    target_area = abs(geometry.polygon_area(poly))
    if abs(mesh.total_area - target_area) > 1e-10 * target_area:
        raise dfn.NetworkError(
            f"fracture {fracture.fid}: triangulation does not cover the polygon "
            f"(target too coarse?)"
        )
    if max_area is not None and mesh.cell_area.max() > max_area * (1 + 1e-12):
        raise dfn.NetworkError("triangle area bound violated")
    if n_cells is not None and abs(mesh.n_cells - n_cells) > 0.2 * n_cells:
        raise dfn.NetworkError("triangle count misses the target by more than 20%")
    return mesh


def ref_ear_clip(pts):
    """Ear clipping of one polygon, one vertex and one candidate ear at a time."""
    pts = geometry.as_points(pts)
    n = len(pts)
    diam = geometry.polygon_diameter(pts)
    eps = 1e-12 * diam * diam
    orient = geometry._orient
    idx = list(range(n))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * n * n + 16:
            raise geometry.GeometryError("ear clipping failed to make progress")
        m = len(idx)
        clipped = False
        for k in range(m):
            p = pts[idx[k - 1]]
            q = pts[idx[k]]
            r = pts[idx[(k + 1) % m]]
            cr = orient(p[0], p[1], q[0], q[1], r[0], r[1])
            if abs(cr) <= eps and (q - p) @ (r - q) > 0.0:
                idx.pop(k)
                clipped = True
                break
        if clipped:
            continue
        for k in range(m):
            ia, ib, ic = idx[k - 1], idx[k], idx[(k + 1) % m]
            a, b, c = pts[ia], pts[ib], pts[ic]
            if orient(a[0], a[1], b[0], b[1], c[0], c[1]) <= eps:
                continue
            blocked = False
            for other in idx:
                if other in (ia, ib, ic):
                    continue
                o = pts[other]
                if (
                    orient(a[0], a[1], b[0], b[1], o[0], o[1]) > eps
                    and orient(b[0], b[1], c[0], c[1], o[0], o[1]) > eps
                    and orient(c[0], c[1], a[0], a[1], o[0], o[1]) > eps
                ):
                    blocked = True
                    break
            if not blocked:
                tris.append((ia, ib, ic))
                idx.pop(k)
                clipped = True
                break
        if not clipped:
            raise geometry.GeometryError("no ear found; polygon may be non-simple")
    tris.append(tuple(idx))
    return np.asarray(tris, dtype=np.int64)


def ref_cell_groups(parts):
    """vem.cell_groups by one pass over the cells of each part."""
    groups = {}
    base = 0
    for i, part in enumerate(parts):
        rows = cell_dofs(ref_build_dof_map(part.mesh, part.dofmap.k))
        for ci, ids in enumerate(part.mesh.cells):
            groups.setdefault(len(ids), []).append(
                (base + ci, i, part.gids[rows[ci]], part.mesh.points[ids]))
        base += part.mesh.n_cells
    for n in sorted(groups):
        cells, part, dofs, pts = zip(*groups[n])
        yield (np.array(cells, dtype=np.int64), np.array(part, dtype=np.int64),
               np.stack(dofs), np.stack(pts))


def ref_build_local_system(parts, n_global):
    """vem.build_local_system as one stack per vertex count, its COO triple
    concatenated from int64 broadcast copies; returns the matrix, the load
    vector and the per-cell projector discrepancies (dn, d0) in cell order."""
    k = parts[0].dofmap.k
    Ks = np.stack([np.eye(2) if p.K is None else np.asarray(p.K, dtype=float) for p in parts])
    sources = [p.f for p in parts]
    dn = np.empty(sum(p.mesh.n_cells for p in parts))
    d0 = np.empty_like(dn)
    rows, cols, vals = [], [], []
    b = np.zeros(n_global)
    for cells, part, dofs, pts in vem.cell_groups(parts):
        el = vem.build_element(pts, k, cell_id=cells)
        dn[cells], d0[cells] = vem.projector_discrepancies(el)
        Ke = vem.local_stiffness(el, Ks[part])
        rows.append(np.broadcast_to(dofs[:, :, None], Ke.shape).ravel())
        cols.append(np.broadcast_to(dofs[:, None, :], Ke.shape).ravel())
        vals.append(Ke.ravel())
        fq = vem._part_values(sources, part, el.qp)
        if fq is not None:
            np.add.at(b, dofs, vem.local_load(el, fq))
    A = sps.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n_global, n_global)).tocsr()
    return ((A + A.T) * 0.5).tocsr(), b, dn, d0


def ref_eliminated_system(parts, n_global, dirichlet_idx, dirichlet_val):
    """The Dirichlet-eliminated operator (CSC) and lifted load by slicing
    the full operator of ``ref_build_local_system``: A[free][:, free] and
    b[free] - A[free][:, dir] u_D."""
    A, b, _, _ = ref_build_local_system(parts, n_global)
    free = np.setdiff1d(np.arange(n_global), dirichlet_idx)
    A_free = A[free]
    return A_free[:, free].tocsc(), b[free] - A_free[:, dirichlet_idx] @ dirichlet_val


def network_parts(meshes, k):
    """A ``vem.Part`` per mesh, with no K or source, whose DOFs follow the
    previous meshes' as if none were shared; and the DOF count."""
    parts, base = [], 0
    for mesh in meshes:
        dm = vem.build_dof_map(mesh, k)
        parts.append(vem.Part(mesh, dm, base + np.arange(dm.total)))
        base += dm.total
    return parts, base


def ref_condition_estimate(A, factor, tol=1e-6, max_iter=5000):
    """The power and inverse iterations applying the operator twice per step."""
    n = A.shape[0]
    rng = np.random.default_rng(0)

    def iterate(op):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for it in range(1, max_iter + 1):
            w = op(v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0, it, True
            v = w / nw
            new = float(v @ op(v))
            if abs(new - lam) <= tol * abs(new):
                return new, it, True
            lam = new
        return lam, max_iter, False

    lam_max, it1, ok1 = iterate(lambda v: A @ v)
    inv_lam, it2, ok2 = iterate(factor.solve)
    lam_min = 1.0 / inv_lam if inv_lam != 0.0 else np.inf
    cond = lam_max / lam_min if lam_min > 0 else np.inf
    return vem.CondEstimate(float(cond), float(lam_max), float(lam_min),
                            ok1 and ok2, it1 + it2)


def ref_write_polydata(path, points3, polygons, cell_data=None, title="polyagg"):
    """``vtkio.write_polydata`` formatting each number on its own."""
    points3 = np.asarray(points3, dtype=float)
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {len(points3)} double",
    ]
    for p in points3:
        lines.append(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}")
    size = sum(len(c) + 1 for c in polygons)
    lines.append(f"POLYGONS {len(polygons)} {size}")
    for c in polygons:
        lines.append(" ".join([str(len(c))] + [str(int(v)) for v in c]))
    if cell_data:
        lines.append(f"CELL_DATA {len(polygons)}")
        for name, values in cell_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            for v in np.asarray(values, dtype=float):
                lines.append(repr(float(v)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


REF_REPORT_COLUMNS = [
    "mesh", "lambda", "k", "cells", "dofs", "energy_initial", "energy_final",
    "err_l2", "err_h1", "nnz", "cond", "max_pi_nabla", "max_pi_0", "wall_time",
]


def ref_fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def ref_report_row(rep, mesh_id):
    """A report row of a ``NetworkRunReport``, each field copied by hand."""
    return {
        "mesh": mesh_id,
        "lambda": rep.lam,
        "k": rep.k,
        "cells": rep.cells,
        "dofs": rep.dofs,
        "energy_initial": rep.energy_initial,
        "energy_final": rep.energy_final,
        "err_l2": rep.err_l2,
        "err_h1": rep.err_h1,
        "nnz": rep.nnz,
        "cond": rep.cond,
        "max_pi_nabla": rep.max_pi_nabla,
        "max_pi_0": rep.max_pi_0,
        "wall_time": rep.wall_time,
    }


def ref_write_report(rows, path):
    """The ``solve`` and ``dfn-solve`` report as CSV."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REF_REPORT_COLUMNS)
        for r in rows:
            w.writerow([ref_fmt(r.get(c)) for c in REF_REPORT_COLUMNS])


def ref_write_convergence(rows, rates, out):
    """``convergence_rows.csv`` and ``rates.csv`` in the directory ``out``."""
    with open(out / "convergence_rows.csv", "w", newline="") as fh:
        cols = REF_REPORT_COLUMNS + ["expected_l2", "expected_h1"]
        w = csv.writer(fh)
        w.writerow(cols)
        for r in rows:
            w.writerow([ref_fmt(r.get(c)) for c in cols])
    with open(out / "rates.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        cols = ["k", "lambda", "rate_h_l2", "rate_h_h1", "rate_dof_l2", "rate_dof_h1"]
        w.writerow(cols)
        for r in rates:
            w.writerow([ref_fmt(r[c]) for c in cols])


def ref_write_energy_csv(history, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cycle", "data", "smooth", "total"])
        for h in history:
            w.writerow([h.iterations, h.data_term, h.smooth_term, h.total])


def ref_write_quality_csv(report, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cell_id", "rho1", "rho2", "rho3", "rho4", "rho"])
        for i, row in enumerate(report.scores.tolist()):
            w.writerow([i, *map(repr, row)])


def _comparable(value):
    """A mesh field as comparable Python values and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [_comparable(v) for v in value]
    return value


def mesh_fields(mesh):
    """Every PolygonalMesh field by name, as comparable Python values and bytes."""
    return {f.name: _comparable(getattr(mesh, f.name)) for f in dataclasses.fields(mesh)}


def run_python(args, timeout=60):
    """``python args`` in a child process that imports this ``polyagg``;
    subprocess.TimeoutExpired when it runs longer than ``timeout`` seconds."""
    src = os.path.dirname(os.path.dirname(polyagg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *map(str, args)], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=timeout)


# a unit square over a sliver triangle (0, 4, 1) whose apex, vertex 4, lies
# 1e-10 below the square's bottom edge: straight within COLLINEAR_TOL, but
# the sliver cannot lose it
SLIVER_MESH = "V 5\n0 0\n1 0\n1 1\n0 1\n0.5 -1e-10\nC 2\n0 1 2 3\n0 4 1\n"


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # this process has no child
    pytest.fail(f"the test left a child process ({'running' if pid == 0 else pid})")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def random_cuts():
    """The first ten networks of four random rectangles (seeds 0, 1, ...) in
    which every fracture meets another, each fracture triangulated at area
    2e-2 with (mesh, segments, tol_rel) of its cut."""
    return [(network, {
        fr.fid: (dfn.triangulate_fracture(fr, max_area=2e-2),
                 [t.local_segment(fr) for t in network.fracture_traces(fr.fid)],
                 dfn.TOL_REL * network.scale / fr.diameter)
        for fr in network.fractures}) for network in random_networks()]


# tokens a file mutation may write: numbers at and beyond the float and
# int64 ranges, non-finite values, every block keyword and plain junk
FUZZ_TOKENS = ("0", "1", "-1", "2", "3", "5", "0.5", "-0.25", "1e308", "1e400", "inf",
               "-inf", "nan", "99999999999999999999", "x", "x + y", "log(x)", "#",
               "V", "C", "E", "F", "K", "T", "BC", "dirichlet")


@st.composite
def mutated_file(draw, text):
    """``text`` after 1-4 random line drops, duplications, swaps and token
    replacements, insertions and deletions."""
    lines = [ln.split() for ln in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(("drop", "dup", "swap", "replace", "insert", "delete")))
        if not lines:
            lines.append([])
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, list(line))
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], line
        elif op == "insert":
            line.insert(draw(st.integers(0, len(line))), draw(st.sampled_from(FUZZ_TOKENS)))
        elif line:
            j = draw(st.integers(0, len(line) - 1))
            if op == "replace":
                line[j] = draw(st.sampled_from(FUZZ_TOKENS))
            else:
                del line[j]
    return "".join(" ".join(line) + "\n" for line in lines)


# settings of the parser fuzz tests: a fixed example sequence keeps Tier-1
# reproducible and fast
FUZZ_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
