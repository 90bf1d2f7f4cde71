"""Discrete fracture network pipeline.

Per fracture: structured triangulation, conforming cuts along intersection
traces, quality agglomeration with trace constraints.  Globally: node
unification along traces, DOF identification across fractures, coupled
assembly and solve of the hydraulic head problem in each fracture's
tangential frame.
"""

import ast
import bisect
import contextlib
import math
import operator
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _fork, geometry, vem
from .agglomerate import AgglomerationConfig, agglomerate, warn_skipped
from .mesh import (MeshError, MeshFormatError, PolygonalMesh, _components, _LineTokens,
                   _next_in_row, build_mesh, parse_count, parse_tokens)
from .vem import build_dof_map


class NetworkError(MeshError):
    pass


class FractureError(NetworkError):
    """Invalid fracture; ``fid`` is its index in the fracture list."""

    def __init__(self, fid, message):
        self.fid = fid
        super().__init__(f"fracture {fid} {message}")


# ---------------------------------------------------------------------------
# fractures and traces
# ---------------------------------------------------------------------------

@dataclass
class Fracture:
    fid: int
    vertices3: np.ndarray       # (m, 3), convex planar polygon
    origin: np.ndarray
    u_axis: np.ndarray
    v_axis: np.ndarray
    normal: np.ndarray
    K: np.ndarray               # 2x2 SPD in-plane transmissivity

    def to_local(self, pts3) -> np.ndarray:
        d = np.atleast_2d(pts3) - self.origin
        return np.column_stack([d @ self.u_axis, d @ self.v_axis])

    def to_global(self, pts2) -> np.ndarray:
        p = np.atleast_2d(pts2)
        return (
            self.origin
            + p[:, :1] * self.u_axis[None, :]
            + p[:, 1:2] * self.v_axis[None, :]
        )

    @property
    def local_polygon(self) -> np.ndarray:
        return self.to_local(self.vertices3)

    @property
    def diameter(self) -> float:
        d = self.vertices3[:, None, :] - self.vertices3[None, :, :]
        return float(np.sqrt((d**2).sum(-1).max()))

    def plane_offset(self) -> float:
        return float(self.normal @ self.origin)


def make_fracture(vertices3, K=None, fid=0, frame=None) -> Fracture:
    verts = np.asarray(vertices3, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) < 3:
        raise NetworkError(f"fracture {fid}: need at least 3 3D vertices")
    if not np.isfinite(verts).all():
        raise NetworkError(f"fracture {fid}: non-finite vertex coordinate")
    edge_len = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
    short = np.flatnonzero(edge_len <= 1e-10 * edge_len.max())
    if len(short):
        i = int(short[0])
        raise NetworkError(
            f"fracture {fid}: vertices {i} and {(i + 1) % len(verts)} coincide"
        )
    if frame is not None:
        origin, u_axis, v_axis = (np.asarray(a, dtype=float) for a in frame)
        normal = np.cross(u_axis, v_axis)
    else:
        origin = verts[0].copy()
        # Newell normal, robust to collinear leading vertices
        normal = np.zeros(3)
        for i in range(len(verts)):
            a = verts[i]
            b = verts[(i + 1) % len(verts)]
            normal += np.cross(a - origin, b - origin)
        if np.linalg.norm(normal) == 0.0:
            raise NetworkError(f"fracture {fid}: degenerate polygon")
        normal /= np.linalg.norm(normal)
        u_axis = verts[1] - verts[0]
        u_axis = u_axis - (u_axis @ normal) * normal
        u_axis /= np.linalg.norm(u_axis)
        v_axis = np.cross(normal, u_axis)
    normal = normal / np.linalg.norm(normal)
    K = np.eye(2) if K is None else np.asarray(K, dtype=float)
    if (K.shape != (2, 2) or not np.all(np.isfinite(K))
            or not np.allclose(K, K.T, rtol=1e-12, atol=1e-14)
            or np.linalg.eigvalsh(K)[0] <= 0.0):
        raise NetworkError(
            f"fracture {fid}: K must be a finite symmetric positive definite 2x2 matrix"
        )
    fr = Fracture(
        fid=fid,
        vertices3=verts,
        origin=origin,
        u_axis=u_axis,
        v_axis=v_axis,
        normal=normal,
        K=K,
    )
    diam = fr.diameter
    off = (verts - origin) @ normal
    if np.abs(off).max() > 1e-10 * diam:
        raise NetworkError(f"fracture {fid}: vertices not coplanar")
    loc = fr.local_polygon
    if geometry.polygon_area(loc) < 0.0:
        fr.vertices3 = verts[::-1].copy()
        loc = fr.local_polygon
    back = fr.to_global(loc)
    if np.abs(back - fr.vertices3).max() > 1e-10 * diam:
        raise NetworkError(f"fracture {fid}: frame does not reproduce vertices")
    n = len(loc)
    for i in range(n):
        a, b, c = loc[i - 1], loc[i], loc[(i + 1) % n]
        cr = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cr < -1e-10 * diam * diam:
            raise NetworkError(f"fracture {fid}: polygon is not convex")
    return fr


@dataclass
class TraceSegment:
    tid: int
    a3: np.ndarray
    b3: np.ndarray
    frac_i: int
    frac_j: int

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.b3 - self.a3))

    def local_segment(self, fracture: Fracture):
        seg = fracture.to_local(np.vstack([self.a3, self.b3]))
        return seg[0], seg[1]


def _polygon_plane_section(fr: Fracture, normal, offset, tol):
    """Intersection of a convex fracture polygon with a plane, as 3D points."""
    verts = fr.vertices3
    d = verts @ normal - offset
    pts = []
    n = len(verts)
    for i in range(n):
        if abs(d[i]) <= tol:
            pts.append(verts[i])
        j = (i + 1) % n
        if (d[i] > tol and d[j] < -tol) or (d[i] < -tol and d[j] > tol):
            t = d[i] / (d[i] - d[j])
            pts.append(verts[i] + t * (verts[j] - verts[i]))
    if len(pts) < 2:
        return None
    pts = np.asarray(pts)
    # extremes along the in-plane direction of maximal spread
    span = pts.max(0) - pts.min(0)
    axis = int(np.argmax(span))
    order = np.argsort(pts[:, axis])
    a, b = pts[order[0]], pts[order[-1]]
    if np.linalg.norm(b - a) <= tol:
        return None
    return a, b


def _trace_tol(fractures) -> float:
    """Length tolerance of traces: 1e-10 times the network's scale."""
    allv = np.vstack([f.vertices3 for f in fractures])
    return 1e-10 * max(float(np.linalg.norm(allv.max(0) - allv.min(0))), 1e-300)


def compute_traces(fractures) -> list:
    """Pairwise intersection segments between convex planar fractures: the
    overlap of the sections of each fracture by the other's plane."""
    tol = _trace_tol(fractures)
    traces = []
    for i in range(len(fractures)):
        for j in range(i + 1, len(fractures)):
            fi, fj = fractures[i], fractures[j]
            di = fi.vertices3 @ fj.normal - fj.plane_offset()
            dj = fj.vertices3 @ fi.normal - fi.plane_offset()
            if np.abs(di).max() <= tol and np.abs(dj).max() <= tol:
                poly = fi.local_polygon
                eps = 1e-12 * max(geometry.polygon_diameter(poly), 1e-300)
                inter, m = geometry.kernel_clip(poly, eps, start=fi.to_local(fj.vertices3))
                if m >= 3 and abs(geometry.polygon_area(inter)) > tol * tol:
                    raise FractureError(
                        fj.fid, f"and fracture {fi.fid} are coplanar and overlap"
                    )
                continue
            sec = _polygon_plane_section(fi, fj.normal, fj.plane_offset(), tol)
            other = _polygon_plane_section(fj, fi.normal, fi.plane_offset(), tol)
            if sec is None or other is None:
                continue
            # both sections lie on the planes' common line: overlap their
            # parameter intervals along the first one
            a3, b3 = sec
            length = np.linalg.norm(b3 - a3)
            dirv = (b3 - a3) / length
            ts = [float((p - a3) @ dirv) for p in other]
            t0, t1 = max(0.0, min(ts)), min(length, max(ts))
            if t1 - t0 <= tol:
                continue
            pa = a3 + t0 * dirv
            pb = a3 + t1 * dirv
            if tuple(pb) < tuple(pa):
                pa, pb = pb, pa
            traces.append(
                TraceSegment(len(traces), pa, pb, fi.fid, fj.fid)
            )
    for m, tr in enumerate(traces):
        _reject_shared_trace_line(tr, traces[:m], tol)
    return traces


def _reject_shared_trace_line(t2, earlier, tol):
    """FractureError when trace ``t2`` overlaps one of the ``earlier`` traces
    on a fracture they share: that fracture meets two others along one line."""
    for t1 in earlier:
        shared = set((t1.frac_i, t1.frac_j)) & set((t2.frac_i, t2.frac_j))
        if not shared:
            continue
        d1 = t1.b3 - t1.a3
        d2 = t2.b3 - t2.a3
        if np.linalg.norm(np.cross(d1, d2)) > tol * np.linalg.norm(d1):
            continue
        if np.linalg.norm(np.cross(d1, t2.a3 - t1.a3)) > tol * np.linalg.norm(d1):
            continue
        u = d1 / np.linalg.norm(d1)
        i0 = sorted([float((t1.a3 - t1.a3) @ u), float((t1.b3 - t1.a3) @ u)])
        i1 = sorted([float((t2.a3 - t1.a3) @ u), float((t2.b3 - t1.a3) @ u)])
        if min(i0[1], i1[1]) - max(i0[0], i1[0]) > tol:
            raise FractureError(
                min(shared),
                "shares a trace line with two other fractures (unsupported)",
            )


@dataclass
class FractureNetwork:
    fractures: list
    traces: list
    bcs: list = field(default_factory=list)   # BCSpec list for file networks

    def __post_init__(self):
        if len(self.fractures) > 1:
            touched = set()
            for t in self.traces:
                touched.add(t.frac_i)
                touched.add(t.frac_j)
            for f in self.fractures:
                if f.fid not in touched:
                    raise FractureError(f.fid, "intersects no other fracture")

    @property
    def scale(self) -> float:
        allv = np.vstack([f.vertices3 for f in self.fractures])
        return float(np.linalg.norm(allv.max(0) - allv.min(0)))

    def fracture_traces(self, fid: int) -> list:
        return [t for t in self.traces if fid in (t.frac_i, t.frac_j)]


@dataclass(frozen=True)
class BCSpec:
    plane: np.ndarray      # (4,): a x + b y + c z + d = 0
    value: object          # callable (n, 3) -> (n,)


# ---------------------------------------------------------------------------
# structured triangulation
# ---------------------------------------------------------------------------

def _grid_counts(w, h, max_area=None, n_cells=None):
    if max_area is not None:
        s = math.sqrt(max_area)
        return max(1, math.ceil(w / s)), max(1, math.ceil(h / s))
    if n_cells is None:
        raise ValueError("either max_area or n_cells is required")
    ny = max(1, round(math.sqrt(n_cells * h / (2.0 * w))))
    nx = max(1, round(n_cells / (2.0 * ny)))
    best = (nx, ny)
    best_dev = abs(2 * nx * ny - n_cells)
    for dx in range(-2, 3):
        for dy in range(-2, 3):
            cx, cy = nx + dx, ny + dy
            if cx < 1 or cy < 1:
                continue
            dev = abs(2 * cx * cy - n_cells)
            if dev < best_dev:
                best, best_dev = (cx, cy), dev
    if best_dev > 0.2 * n_cells:
        raise NetworkError(
            f"cannot hit {n_cells} triangles within 20% with a structured grid"
        )
    return best


# interior grid vertex jitter of the triangulation, a fraction of the pitch
JITTER = 0.22


def triangulate_fracture(fracture: Fracture, max_area=None, n_cells=None) -> PolygonalMesh:
    """Grid-based triangular mesh of the fracture in its local frame.

    A uniform grid over the bounding box is clipped to the (convex) polygon
    and every full quad is split into two triangles.  Interior grid vertices
    are perturbed by a deterministic jitter (``JITTER`` times the pitch,
    seeded by the fracture id) so that element shapes vary like in a generic
    unstructured triangulation.  In area mode all triangle areas stay at or
    below ``max_area``: the pitch is shrunk to absorb the jitter, and the
    jitter is halved, then halved again, then dropped (the exact structured
    grid) on a rare bound violation.
    """
    for factor in (1.0, 0.5, 0.25, 0.0):
        try:
            return _triangulate_once(fracture, max_area, n_cells, JITTER * factor)
        except (MeshError, NetworkError) as err:
            last_err = err
    raise last_err


def _partial_fans(points, quads, pieces, m, parts, snap, min_area):
    """Fan triangles of the clipped pieces ``parts`` of grid quads.

    A piece's vertex is the first quad corner within ``snap`` of it, else a
    new vertex, pooled by position in quad order.  Returns the new vertices
    (e, 2), numbered on from ``points``, and quad -> (t, 3) vertex ids of
    its fan triangles with an area above ``min_area``.
    """
    extra, pool, fans = [], {}, {}
    for k in parts.tolist():
        ids = []
        for p in pieces[k, :m[k]]:
            d = points[quads[k]] - p
            near = np.flatnonzero(np.hypot(d[:, 0], d[:, 1]) <= snap)
            if len(near):
                ids.append(int(quads[k, near[0]]))
                continue
            key = (round(p[0] / snap), round(p[1] / snap))
            if key not in pool:
                pool[key] = len(points) + len(extra)
                extra.append(p)
            ids.append(pool[key])
        dedup = [v for i, v in enumerate(ids) if v != ids[i - 1]]
        if len(dedup) >= 3 and dedup[0] == dedup[-1]:
            dedup = dedup[:-1]
        if len(dedup) < 3:
            continue
        fan = np.array([(dedup[0], dedup[t], dedup[t + 1]) for t in range(1, len(dedup) - 1)])
        loops = np.array([points[v] if v < len(points) else extra[v - len(points)]
                          for v in fan.ravel()]).reshape(-1, 3, 2)
        fans[k] = fan[geometry.polygon_area(loops) > min_area]
    return np.reshape(extra, (-1, 2)), fans


def _triangulate_once(fracture: Fracture, max_area, n_cells, jitter) -> PolygonalMesh:
    poly = fracture.local_polygon
    xmin, ymin = poly.min(0)
    xmax, ymax = poly.max(0)
    w, h = xmax - xmin, ymax - ymin
    if w <= 0 or h <= 0:
        raise NetworkError(f"fracture {fracture.fid}: degenerate bounding box")
    pitch_area = max_area if max_area is None or jitter == 0.0 else 0.9 * max_area
    nx, ny = _grid_counts(w, h, pitch_area, n_cells)
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    sx, sy = w / nx, h / ny
    quad_area = sx * sy
    diam = fracture.diameter
    off = poly[:, None] - np.array([(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)])
    is_box = len(poly) == 4 and bool((np.hypot(off[..., 0], off[..., 1]).min(axis=0)
                                      <= 1e-12 * diam).all())

    points = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    if jitter > 0.0:
        rng = np.random.default_rng(1811 + 7919 * fracture.fid)
        step = jitter * np.array([sx, sy]) * (2.0 * rng.random((ny - 1, nx - 1, 2)) - 1.0)
        inner = points.reshape(ny + 1, nx + 1, 2)[1:-1, 1:-1]
        # a box's interior vertices all move; otherwise only those at least
        # 1.5 pitches inside every edge line
        move = is_box | (geometry.inward_distance(poly, inner) >= 1.5 * max(sx, sy))
        inner[move] += step[move]

    # grid quads in row order, each as its corners' vertex ids in CCW order
    q = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    quads = np.stack([q, q + 1, q + nx + 2, q + nx + 1], axis=1)
    corners = points[quads]
    qa = np.abs(geometry.polygon_area(corners))
    eps = 1e-12 * max(geometry.polygon_diameter(poly), 1e-300)
    pieces, m = geometry.kernel_clip(poly, eps, start=corners)
    pa = np.abs(geometry.polygon_area(pieces))
    kept = (m >= 3) & (pa > 1e-14 * quad_area)
    full = kept & (np.abs(pa - qa) <= 1e-12 * qa)

    extra, fans = _partial_fans(points, quads, pieces, m, np.flatnonzero(kept & ~full),
                                1e-9 * diam, 1e-14 * quad_area)
    # full quads give two triangles each, partial ones their fans, in quad order
    k = np.flatnonzero(full)
    owner = np.concatenate([np.repeat(k, 2), *(np.full(len(f), quad) for quad, f in fans.items())])
    cells = np.concatenate([quads[k][:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3), *fans.values()])
    mesh = build_mesh(np.concatenate([points, extra]), cells[np.argsort(owner, kind="stable")],
                      compact=True)
    target_area = abs(geometry.polygon_area(poly))
    if abs(mesh.total_area - target_area) > 1e-10 * target_area:
        raise NetworkError(
            f"fracture {fracture.fid}: triangulation does not cover the polygon "
            f"(target too coarse?)"
        )
    if max_area is not None and mesh.cell_area.max() > max_area * (1 + 1e-12):
        raise NetworkError("triangle area bound violated")
    if n_cells is not None and abs(mesh.n_cells - n_cells) > 0.2 * n_cells:
        raise NetworkError("triangle count misses the target by more than 20%")
    return mesh


# ---------------------------------------------------------------------------
# cutting and stitching
# ---------------------------------------------------------------------------

# relative tolerance of cutting, stitching, DOF matching and boundary
# classification, times each step's length scale
TOL_REL = 1e-9


def _loop_edges(cells):
    """Every directed edge (tail, head) of the int64 vertex loops ``cells``,
    loop by loop, and each loop's length."""
    lengths = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    tail = np.concatenate(cells) if len(cells) else np.zeros(0, dtype=np.int64)
    return tail, tail[_next_in_row(np.append(0, np.cumsum(lengths)))], lengths


def _splice(loop, runs) -> list:
    """The vertex list ``loop`` with a run of vertices inserted into each of
    its edges that ``runs`` maps, as (u, v), u < v, to the run from u to v."""
    out = []
    for a, b in zip(loop, loop[1:] + loop[:1]):
        out.append(a)
        run = runs.get((a, b) if a < b else (b, a))
        if run:
            out.extend(run if a < b else run[::-1])
    return out


def _split_constraint(con_edges, con_verts, key, run):
    """Pass the constraint of the edge ``key`` on to the pieces that the
    vertex run ``run`` splits it into, and to the run's vertices."""
    if key in con_edges:
        con_edges.discard(key)
        chain = [key[0], *run, key[1]]
        con_edges.update((min(a, b), max(a, b)) for a, b in zip(chain, chain[1:]))
        con_verts.update(run)


def _point_in_some_cell(points, cells, p, snap) -> bool:
    """Whether ``p`` lies inside one of the vertex loops ``cells``, more than
    ``snap`` from its boundary."""
    for ids in cells:
        pts = points[ids]
        if ((pts.min(0) - snap <= p).all() and (p <= pts.max(0) + snap).all()
                and geometry.point_in_polygon(pts, p, snap) == 1):
            return True
    return False


def _cut_segment(points, cells, con_edges, con_verts, a2, b2, tol):
    """Split every cell the segment's supporting line crosses, constrain the
    chord where it lies on the segment, put the segment's endpoints on the
    mesh and constrain the edges that run along it.

    ``cells`` (int64 vertex loops) and the constrained edge and vertex sets
    change in place; returns ``points`` with the new vertices appended.  One
    signed-distance array over the vertices picks the crossed cells, which
    are visited in id order.  The first one the segment enters puts a vertex
    on each crossed edge; a later cell of that edge sees it as a vertex on
    the line, and the other cells of the edge take it when the segment is
    done.  A new point reuses a vertex within half the tolerance of it.
    """
    d = np.asarray(b2, dtype=float) - np.asarray(a2, dtype=float)
    L = float(np.hypot(*d))
    if L <= tol:
        return points
    dn = d / L
    a2 = np.asarray(a2, dtype=float)
    snap = 0.5 * tol

    def sdist(p):
        return dn[0] * (p[..., 1] - a2[1]) - dn[1] * (p[..., 0] - a2[0])

    def tpar(p):
        return dn[0] * (p[..., 0] - a2[0]) + dn[1] * (p[..., 1] - a2[1])

    tail, _, sizes = _loop_edges(cells)
    starts = np.cumsum(sizes) - sizes
    s = sdist(points)
    on_line = np.flatnonzero(np.abs(s) <= tol)
    s = s[tail]
    crossed = np.flatnonzero((np.maximum.reduceat(s, starts) > tol)
                             & (np.minimum.reduceat(s, starts) < -tol))
    # room for a vertex on every edge of a crossed cell and on both endpoints
    n0 = n = len(points)
    points = np.concatenate([points, np.empty((int(sizes[crossed].sum()) + 2, 2))])

    def find(p):
        # a vertex within snap of a point on the line is on the line
        for ids in (on_line, np.arange(n0, n)):
            dp = points[ids] - p
            near = ids[np.hypot(dp[:, 0], dp[:, 1]) <= snap]
            if len(near):
                return int(near[0])
        return None

    def place(p):
        nonlocal n
        vid = find(p)
        if vid is None:
            points[n], vid = p, n
            n += 1
        return vid

    made = {}  # crossed edge (u, v), u < v -> [the vertex put on it]
    n_cells = len(cells)
    for cid in crossed.tolist():
        loop = _splice(cells[cid].tolist(), made)
        pts = points[loop]
        s = sdist(pts).tolist()
        m = len(loop)
        events = [(tpar(pts[k]), "v", loop[k], None) for k in range(m) if abs(s[k]) <= tol]
        for k in range(m):
            j = (k + 1) % m
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
            continue  # the actual segment does not enter this cell

        chord = []
        for ev in merged:
            if ev[1] == "v":
                chord.append((ev[0], ev[2]))
                continue
            (u, v), p = ev[2], ev[3]
            vid = find(p)
            if vid is None or (vid not in (u, v) and vid not in loop):
                vid = place(p)
                key = (u, v) if u < v else (v, u)
                made[key] = [vid]
                _split_constraint(con_edges, con_verts, key, [vid])
                loop = _splice(loop, made)
            chord.append((ev[0], vid))
        (ta, va), (tb, vb) = chord

        inner = []
        for te, pe in ((0.0, a2), (L, a2 + L * dn)):
            if ta + tol < te < tb - tol:
                vid = place(pe)
                con_verts.add(vid)
                inner.append((te, vid))
        inner.sort()

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
        cells[cid] = np.array(piece1, dtype=np.int64)
        cells.append(np.array(piece2, dtype=np.int64))

        seq = [(ta, va)] + inner + [(tb, vb)]
        for (q0, v0), (q1, v1) in zip(seq, seq[1:]):
            if q0 >= -tol and q1 <= L + tol:
                con_edges.add((min(v0, v1), max(v0, v1)))
    for cid in [*crossed.tolist(), *range(n_cells, len(cells))]:
        cells[cid] = np.array(_splice(cells[cid].tolist(), made), dtype=np.int64)

    # endpoints landing on existing vertices or edge interiors; endpoints
    # beyond the mesh mean the segment crosses fully and need no vertex
    for pe in (a2, a2 + L * dn):
        vid = find(pe)
        if vid is not None:
            con_verts.add(vid)
            continue
        tail, head, sizes = _loop_edges(cells)
        lo, hi = np.minimum(tail, head), np.maximum(tail, head)
        pu = points[lo]
        e = points[hi] - pu
        ln = np.hypot(e[:, 0], e[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            cr = np.abs(e[:, 0] * (pe[1] - pu[:, 1]) - e[:, 1] * (pe[0] - pu[:, 0])) / ln
            t = ((pe[0] - pu[:, 0]) * e[:, 0] + (pe[1] - pu[:, 1]) * e[:, 1]) / (ln * ln)
            # t differs from the dot product below by round-off, so the
            # interval is widened here and each candidate is tested exactly
            near = (ln > tol) & (cr <= tol) & (t > tol / ln - 1e-9) & (t < 1.0 + 1e-9 - tol / ln)
        # the first edge in cell order with pe in its interior hosts it
        host = next((k for k in np.flatnonzero(near).tolist()
                     if tol / ln[k] < ((pe - pu[k]) @ e[k]) / (ln[k] * ln[k]) < 1.0 - tol / ln[k]),
                    None)
        if host is not None:
            vid = place(pe)
            key = (int(lo[host]), int(hi[host]))
            owner = np.repeat(np.arange(len(cells)), sizes)
            for cid in np.unique(owner[(lo == key[0]) & (hi == key[1])]).tolist():
                cells[cid] = np.array(_splice(cells[cid].tolist(), {key: [vid]}), dtype=np.int64)
            _split_constraint(con_edges, con_verts, key, [vid])
            con_verts.add(vid)
        elif _point_in_some_cell(points, cells, pe, snap):
            raise MeshError(
                "trace endpoint inside a cell survived the cutting pass"
            )

    # existing edges running along the segment become constrained
    points = points[:n]
    tail, head, _ = _loop_edges(cells)
    near = np.abs(sdist(points)) <= tol
    t = tpar(points)
    along = (near[tail] & near[head] & (np.minimum(t[tail], t[head]) >= -tol)
             & (np.maximum(t[tail], t[head]) <= L + tol))
    con_edges.update(zip(np.minimum(tail, head)[along].tolist(),
                         np.maximum(tail, head)[along].tolist()))
    return points


def cut_by_traces(mesh: PolygonalMesh, segments, tol_rel=TOL_REL) -> PolygonalMesh:
    """Split cells along trace segments and flag the covered edges constrained.

    Every crossed cell is split by the supporting line; a segment endpoint
    inside a cell is inserted on the cut as a constrained vertex, with the
    remaining extension of the chord left unconstrained.
    """
    if mesh.n_cells == 0:
        raise MeshError("empty mesh")
    scale = max(mesh.h, *(float(np.hypot(*(np.asarray(b) - np.asarray(a))))
                          for a, b in segments)) if segments else mesh.h
    points, cells = mesh.points.copy(), list(mesh.cells)
    con_edges = set(mesh.constrained_edge_pairs())
    con_verts = set(np.flatnonzero(mesh.vertex_constrained).tolist())
    for a2, b2 in segments:
        points = _cut_segment(points, cells, con_edges, con_verts, a2, b2, tol_rel * scale)
    out = build_mesh(points, cells, sorted(con_edges), sorted(con_verts), compact=True)
    if abs(out.total_area - mesh.total_area) > 1e-10 * mesh.total_area:
        raise MeshError("cutting changed the covered area")
    return out


def _on_trace_vertices(points, a2, dn, L, tol):
    """(t, vertex id) of every vertex on the trace, ascending."""
    t = dn[0] * (points[:, 0] - a2[0]) + dn[1] * (points[:, 1] - a2[1])
    s = dn[0] * (points[:, 1] - a2[1]) - dn[1] * (points[:, 0] - a2[0])
    on = np.flatnonzero((np.abs(s) <= tol) & (-tol <= t) & (t <= L + tol))
    on = on[np.lexsort((on, t[on]))]
    return list(zip(t[on].tolist(), on.tolist()))


def stitch_meshes(meshes: dict, network: FractureNetwork):
    """Unify trace node sets across fracture pairs by hanging-node insertion.

    Returns ({fid: mesh}, matches) where matches[tid][fid] is the sorted
    (param, vertex_id) list along the trace, identical across the pair.

    A parameter of the union that one side lacks becomes a new vertex on
    that side's edge between its neighbours on the trace, interpolated from
    the left one (the vertex just inserted when two fall in one gap).  It
    lies more than the tolerance from every vertex on the trace, so it never
    coincides with one.  Each split edge's run of new vertices is spliced
    into the (at most two) cells of the edge once all traces are done.
    """
    tol = TOL_REL * network.scale
    frs = {f.fid: f for f in network.fractures}
    points = {fid: m.points.copy() for fid, m in meshes.items()}
    runs = {fid: {} for fid in meshes}  # split edge (u, v), u < v -> new vertices, u to v
    matches = {}
    for tr in network.traces:
        L = tr.length
        nodes = {}
        for fid in (tr.frac_i, tr.frac_j):
            a2, b2 = (np.asarray(p) for p in tr.local_segment(frs[fid]))
            nodes[fid] = _on_trace_vertices(points[fid], a2, (b2 - a2) / L, L, tol)
        params = sorted(t for have in nodes.values() for t, _ in have)
        union = []
        for t in params:
            if not union or t - union[-1] > tol:
                union.append(t)
        for fid, have in nodes.items():
            at = [q for q, _ in have]
            gaps = {}  # k -> the missing parameters between have[k - 1] and have[k]
            for t in union:
                k = bisect.bisect_left(at, t)
                if (k < len(at) and abs(at[k] - t) <= tol) or (k > 0 and abs(at[k - 1] - t) <= tol):
                    continue
                if k == 0 or k == len(at):
                    raise MeshError(
                        f"trace {tr.tid}: node parameter {t} outside fracture "
                        f"{fid} coverage"
                    )
                gaps.setdefault(k, []).append(t)
            ends = [(have[k - 1][1], have[k][1]) for k in gaps]
            edges = meshes[fid].edge_ids(*np.array(ends, dtype=np.int64).reshape(-1, 2).T)
            pts, new = points[fid], []
            for (k, ts), (v0, v1), edge in zip(gaps.items(), ends, edges.tolist()):
                key = (min(v0, v1), max(v0, v1))
                if edge < 0 or key in runs[fid]:
                    raise MeshError(f"trace {tr.tid}: fracture {fid} has no edge between "
                                    f"its trace vertices {v0} and {v1}")
                t0, p0 = have[k - 1][0], pts[v0]
                t1, p1 = have[k][0], pts[v1]
                run = []
                for t in ts:
                    p0 = p0 + (t - t0) / (t1 - t0) * (p1 - p0)
                    t0 = t
                    run.append(len(pts) + len(new))
                    new.append(p0)
                runs[fid][key] = run if v0 < v1 else run[::-1]
                have = have + list(zip(ts, run))
            points[fid] = np.concatenate([pts, np.reshape(new, (-1, 2))])
            nodes[fid] = sorted(have, key=lambda node: node[0])
        matches[tr.tid] = nodes

    out = {}
    for fid, mesh in meshes.items():
        cells = list(mesh.cells)
        split = runs[fid]
        con_edges = set(mesh.constrained_edge_pairs())
        con_verts = set(np.flatnonzero(mesh.vertex_constrained).tolist())
        con_verts.update(range(mesh.n_vertices, len(points[fid])))
        edges = mesh.edge_ids(*np.array(list(split), dtype=np.int64).reshape(-1, 2).T)
        for cid in np.unique(mesh.edge_cells[edges]).tolist():
            if cid >= 0:
                cells[cid] = np.array(_splice(cells[cid].tolist(), split), dtype=np.int64)
        for key, run in split.items():
            _split_constraint(con_edges, con_verts, key, run)
        out[fid] = build_mesh(points[fid], cells, sorted(con_edges), sorted(con_verts),
                              compact=True)
        # matches hold these vertex ids, which a rebuild renumbers only when
        # a vertex is unused
        if out[fid].n_vertices != len(points[fid]):
            raise MeshError(f"fracture {fid}: stitched rebuild dropped vertices")
    return out, matches


@dataclass
class GlobalDofMap:
    k: int
    locals: dict              # fid -> DofMap
    g: dict                   # fid -> (local_total,) global dof ids
    n_global: int
    trace_edges: dict         # fid -> ids of the edges between consecutive trace nodes


def build_global_dofmap(meshes: dict, network: FractureNetwork, matches, k) -> GlobalDofMap:
    """Global DOF ids, one per DOF after identifying the stitched trace nodes
    and the slots of their covering edges across each trace's pair.

    The covering edges join consecutive trace nodes on each side; their k-1
    slots pair in order when both edges start at the same trace node (an
    edge's slots run from its lower vertex id), reversed otherwise.  Node
    pairs are checked in trace order, each for the edge that reaches it on
    both sides, then for its two global positions agreeing within ``TOL_REL``
    times the network scale.
    """
    fids = sorted(meshes)
    locals_ = {fid: build_dof_map(meshes[fid], k) for fid in fids}
    offsets = {}
    total = 0
    for fid in fids:
        offsets[fid] = total
        total += locals_[fid].total

    frs = {f.fid: f for f in network.fractures}
    tol = TOL_REL * network.scale
    slots = np.arange(k - 1)
    # pairs of identified DOFs, numbered before identification
    same_a, same_b = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    trace_edges = {fid: [np.zeros(0, dtype=np.int64)] for fid in fids}
    for tr in network.traces:
        mi = matches[tr.tid]
        fid_a, fid_b = tr.frac_i, tr.frac_j
        la, lb = mi[fid_a], mi[fid_b]
        if len(la) != len(lb):
            raise MeshError(f"trace {tr.tid}: node partitions differ across the pair")
        na, nb = (np.array(nodes, dtype=float).reshape(-1, 2) for nodes in (la, lb))
        if (np.abs(na[:, 0] - nb[:, 0]) > 1e-12 * max(1.0, tr.length)).any():
            raise MeshError(f"trace {tr.tid}: node parameters disagree")
        nodes_a, nodes_b = na[:, 1].astype(np.int64), nb[:, 1].astype(np.int64)
        ea = meshes[fid_a].edge_ids(nodes_a[:-1], nodes_a[1:])
        eb = meshes[fid_b].edge_ids(nodes_b[:-1], nodes_b[1:])
        missing = np.concatenate([[False], (ea < 0) | (eb < 0)])
        apart = np.linalg.norm(frs[fid_a].to_global(meshes[fid_a].points[nodes_a])
                               - frs[fid_b].to_global(meshes[fid_b].points[nodes_b]), axis=1)
        bad = np.flatnonzero(missing | (apart > tol))
        if len(bad):
            if missing[bad[0]]:
                raise MeshError(f"trace {tr.tid}: covering edge missing")
            raise MeshError(f"trace {tr.tid}: trace vertices apart ({apart[bad[0]]})")
        flip = (nodes_a[:-1] < nodes_a[1:]) != (nodes_b[:-1] < nodes_b[1:])
        slot_b = np.where(flip[:, None], k - 2 - slots, slots)
        same_a += [offsets[fid_a] + nodes_a, offsets[fid_a] + locals_[fid_a].edge_base
                   + (ea[:, None] * (k - 1) + slots).ravel()]
        same_b += [offsets[fid_b] + nodes_b, offsets[fid_b] + locals_[fid_b].edge_base
                   + (eb[:, None] * (k - 1) + slot_b).ravel()]
        trace_edges[fid_a].append(ea)
        trace_edges[fid_b].append(eb)

    roots = _components(total, np.concatenate(same_a), np.concatenate(same_b))
    uniq, inv = np.unique(roots, return_inverse=True)
    g = {}
    for fid in fids:
        lo = offsets[fid]
        g[fid] = inv[lo: lo + locals_[fid].total].astype(np.int64)
    return GlobalDofMap(k, locals_, g, int(len(uniq)),
                        {fid: np.concatenate(e) for fid, e in trace_edges.items()})


# ---------------------------------------------------------------------------
# network assembly
# ---------------------------------------------------------------------------

def assemble_network(network: FractureNetwork, meshes: dict, gmap: GlobalDofMap,
                     sources=None, dirichlet_values=None):
    """Coupled global system over all fractures, at the order of ``gmap``.

    ``sources`` and ``dirichlet_values`` map fid to callables on local 2D
    coordinates; identified trace DOFs share one global unknown.  Boundary
    edges on a trace (``gmap.trace_edges``) are interface, not Dirichlet.  Returns
    (system, element groups); the cells of the groups are numbered fracture
    after fracture, in fid order.
    """
    frs = {f.fid: f for f in network.fractures}
    fids = sorted(meshes)
    ids, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    fixed = np.zeros(len(fids), dtype=bool)  # fracture has Dirichlet DOFs
    for i, fid in enumerate(fids):
        mesh, dm = meshes[fid], gmap.locals[fid]
        edges = np.setdiff1d(mesh.boundary_edge_ids(), gmap.trace_edges[fid])
        gfn = dirichlet_values.get(fid) if dirichlet_values else None
        if len(edges) == 0 or gfn is None:
            continue
        loc = vem.boundary_dofs(mesh, dm, edges)
        val = np.asarray(gfn(vem.dof_positions(mesh, dm)[loc]), dtype=float)
        keep = np.isfinite(val)  # NaN: no plane matched, homogeneous Neumann
        ids.append(gmap.g[fid][loc[keep]])
        vals.append(val[keep])
        fixed[i] = keep.any()
    # without Dirichlet data, the head of a group of fractures joined by
    # traces is fixed only up to a constant
    ends = np.array([(t.frac_i, t.frac_j) for t in network.traces], dtype=np.int64)
    roots = _components(len(fids), *np.searchsorted(fids, ends.reshape(-1, 2)).T)
    floating = np.setdiff1d(roots, roots[fixed])
    if len(floating):
        names = ", ".join(str(fids[i]) for i in np.flatnonzero(roots == floating[0]))
        raise NetworkError(f"no Dirichlet boundary on fractures {names} (|Gamma_D| "
                           "must be positive in each group of fractures joined by traces)")
    # a DOF on the boundary of several fractures takes the last one's value
    dir_idx, last = np.unique(np.concatenate(ids)[::-1], return_index=True)
    dvals = np.concatenate(vals)[::-1][last]
    parts = [vem.Part(meshes[fid], gmap.locals[fid], gmap.g[fid], frs[fid].K,
                      sources.get(fid) if sources else None) for fid in fids]
    groups, system = vem.build_local_system(parts, gmap.n_global, dir_idx, dvals)
    return system, groups


# ---------------------------------------------------------------------------
# Network 1: known-solution benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractureSolution:
    u: object        # (n, 2) local -> (n,)
    grad: object     # (n, 2) local -> (n, 2)
    f: object        # (n, 2) local -> (n,)


@dataclass
class NetworkCase:
    name: str
    network: FractureNetwork
    exact: dict | None = None    # fid -> FractureSolution

    def sources(self):
        if self.exact is None:
            return {f.fid: None for f in self.network.fractures}
        return {fid: sol.f for fid, sol in self.exact.items()}

    def dirichlet_values(self):
        if self.exact is not None:
            return {fid: sol.u for fid, sol in self.exact.items()}
        vals = {}
        frs = {f.fid: f for f in self.network.fractures}
        bcs = self.network.bcs
        scale = self.network.scale

        def make(fid):
            fr = frs[fid]

            def g(pts2):
                p3 = fr.to_global(pts2)
                out = np.full(len(p3), np.nan)
                for bc in bcs:
                    a, b_, c, d = bc.plane
                    dist = np.abs(p3 @ np.array([a, b_, c]) + d)
                    hit = dist <= 1e-6 * scale * np.linalg.norm([a, b_, c])
                    if hit.any():
                        v = np.asarray(bc.value(p3[hit]), dtype=float)
                        bad = ~np.isfinite(v)
                        if bad.any():
                            x, y, z = p3[hit][bad][0]
                            raise NetworkError(
                                f"dirichlet plane {a:g} {b_:g} {c:g} {d:g}: value "
                                f"{v[bad][0]} at ({x:g}, {y:g}, {z:g}) is not finite"
                            )
                        out[hit] = v
                return out

            return g

        for f in self.network.fractures:
            vals[f.fid] = make(f.fid)
        return vals


def _u1(p):
    x, y = p[:, 0], p[:, 1]
    th = np.arctan2(y, x)
    return -0.1 * (0.5 + x) * (x**3 + 8.0 * x * y * (x * x + y * y) * th)


def _grad1(p):
    x, y = p[:, 0], p[:, 1]
    th = np.arctan2(y, x)
    r2 = x * x + y * y
    P = x**3 + 8.0 * x * y * r2 * th
    dPdx = 3.0 * x * x + 8.0 * (y * (r2 + 2.0 * x * x) * th - x * y * y)
    dPdy = 8.0 * (x * (r2 + 2.0 * y * y) * th + x * x * y)
    return np.column_stack(
        [-0.1 * (P + (0.5 + x) * dPdx), -0.1 * (0.5 + x) * dPdy]
    )


def _f1(p):
    x, y = p[:, 0], p[:, 1]
    th = np.arctan2(y, x)
    r2 = x * x + y * y
    return 0.1 * (
        12.0 * x * x + 3.0 * x
        + 8.0 * (0.5 + x) * (12.0 * x * y * th + 2.0 * (x * x - y * y))
        + 16.0 * (y * (r2 + 2.0 * x * x) * th - x * y * y)
    )


def _u2(p):
    x, z = p[:, 0], p[:, 1]
    return (0.5 + x) * x**3 * (-0.1 + 0.8 * np.pi * np.abs(z))


def _grad2(p):
    x, z = p[:, 0], p[:, 1]
    c = -0.1 + 0.8 * np.pi * np.abs(z)
    return np.column_stack(
        [(4.0 * x**3 + 1.5 * x * x) * c,
         (0.5 + x) * x**3 * 0.8 * np.pi * np.sign(z)]
    )


def _f2(p):
    x, z = p[:, 0], p[:, 1]
    return -(12.0 * x * x + 3.0 * x) * (-0.1 + 0.8 * np.pi * np.abs(z))


def _u3(p):
    y, z = p[:, 0], p[:, 1]
    return (y**3 - y) * (z * z - z)


def _grad3(p):
    y, z = p[:, 0], p[:, 1]
    return np.column_stack(
        [(3.0 * y * y - 1.0) * (z * z - z), (y**3 - y) * (2.0 * z - 1.0)]
    )


def _f3(p):
    y, z = p[:, 0], p[:, 1]
    return -(6.0 * y * (z * z - z) + 2.0 * (y**3 - y))


def network1() -> NetworkCase:
    """Three axis-aligned rectangular fractures with a known hydraulic head.

    The three rectangles meet along three traces; the F1/F2 trace ends at
    the origin, strictly inside F1, where the closed-form head has its
    low-regularity point (an atan2 term).  The head is continuous across
    every trace and its normal fluxes balance, so the per-fracture sources
    -div(K grad u) make the coupled problem consistent.
    """
    f1 = make_fracture(
        [(-1, -1, 0), (0.5, -1, 0), (0.5, 1, 0), (-1, 1, 0)],
        fid=0,
        frame=((0, 0, 0), (1, 0, 0), (0, 1, 0)),
    )
    f2 = make_fracture(
        [(-1, 0, -1), (0, 0, -1), (0, 0, 1), (-1, 0, 1)],
        fid=1,
        frame=((0, 0, 0), (1, 0, 0), (0, 0, 1)),
    )
    f3 = make_fracture(
        [(0, -1, -1), (0, 1, -1), (0, 1, 1), (0, -1, 1)],
        fid=2,
        frame=((0, 0, 0), (0, 1, 0), (0, 0, 1)),
    )
    fractures = [f1, f2, f3]
    traces = compute_traces(fractures)
    network = FractureNetwork(fractures, traces)
    exact = {
        0: FractureSolution(_u1, _grad1, _f1),
        1: FractureSolution(_u2, _grad2, _f2),
        2: FractureSolution(_u3, _grad3, _f3),
    }
    return NetworkCase("network1", network, exact)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@dataclass
class FracturePipelineInfo:
    fid: int
    cells_triangulated: int
    cells_cut: int
    cells_final: int
    h_triangulation: float
    energy_initial: int
    energy_final: int
    energy_saved: float
    cycles: int
    skipped: list              # (label, cells, reason) of each skipped merge
    history: list


@dataclass
class NetworkDiscretization:
    case: NetworkCase
    lam: float
    meshes: dict               # fid -> stitched PolygonalMesh
    matches: dict
    info: dict                 # fid -> FracturePipelineInfo
    h: float


def _fracture_pipeline(network: FractureNetwork, fid, max_area, n_cells, config):
    """triangulate + cut + agglomerate fracture ``fid``: (mesh, info)."""
    fr = next(f for f in network.fractures if f.fid == fid)
    tri = triangulate_fracture(fr, max_area=max_area, n_cells=n_cells)
    segs = [tr.local_segment(fr) for tr in network.fracture_traces(fid)]
    cut = cut_by_traces(tri, segs, tol_rel=TOL_REL * network.scale / max(fr.diameter, 1e-300))
    # trace edges and endpoints are constrained in ``cut``, so no merge
    # crosses a trace and the fractures stay conforming
    result = agglomerate(cut, config)
    target = abs(geometry.polygon_area(fr.local_polygon))
    if abs(result.mesh.total_area - target) > 1e-10 * target:
        raise NetworkError(f"fracture {fid}: pipeline changed the covered area")
    stats = result.stats
    return result.mesh, FracturePipelineInfo(
        fid=fid,
        cells_triangulated=tri.n_cells,
        cells_cut=cut.n_cells,
        cells_final=result.mesh.n_cells,
        h_triangulation=tri.h,
        energy_initial=stats.energy_initial,
        energy_final=stats.energy_final,
        energy_saved=stats.energy_saved,
        cycles=stats.cycles,
        skipped=stats.skipped,
        history=result.history,
    )


def _fracture_share(network: FractureNetwork, fids, max_area, n_cells, config) -> dict:
    """fid -> (mesh, info) of ``_fracture_pipeline`` on each of ``fids`` in
    turn, with every warning an error.  The first fracture that raises or
    warns ends the share; it and the fractures after it are left out."""
    done = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fid in fids:
            try:
                done[fid] = _fracture_pipeline(network, fid, max_area, n_cells, config)
            except Exception:
                break
    return done


def _balanced_shares(weights: dict, n: int) -> list:
    """The keys of ``weights`` in ``n`` lists of similar total weight: the
    heaviest key first, each to the lightest list so far (the first on a
    tie).  Each list is in ascending order."""
    shares = [[] for _ in range(n)]
    loads = [0.0] * n
    for key in sorted(weights, key=lambda k: (-weights[k], k)):
        i = loads.index(min(loads))
        shares[i].append(key)
        loads[i] += weights[key]
    return [sorted(share) for share in shares]


def discretize_network(case: NetworkCase, max_area=None, n_cells=None,
                       lam=0.0, sc_mode="potts") -> NetworkDiscretization:
    """triangulate + cut + agglomerate per fracture, then stitch globally.

    The fractures are split by area over one worker per available CPU: this
    process runs the first share and a forked child each other one.  A
    fracture a share left out (it raised or warned there) runs again here,
    in fid order, so the result, the warnings (the skipped merges among
    them) and the error raised are those of one fracture after another.
    """
    network = case.network
    config = AgglomerationConfig(lam=lam, sc_mode=sc_mode)
    areas = {f.fid: abs(geometry.polygon_area(f.local_polygon)) for f in network.fractures}
    shares = _balanced_shares(areas, max(1, min(_fork.available_cpus(), len(areas))))
    args = (max_area, n_cells, config)
    with contextlib.ExitStack() as stack:
        children = [stack.enter_context(_fork.Forked(_fracture_share, network, share, *args))
                    for share in shares[1:]]
        done = _fracture_share(network, shares[0], *args)
        for child in children:
            done.update(child.result() or {})

    meshes = {}
    infos = {}
    for fid in sorted(areas):
        meshes[fid], infos[fid] = done.get(fid) or _fracture_pipeline(network, fid, *args)
        warn_skipped(infos[fid].skipped)

    stitched, matches = stitch_meshes(meshes, network)
    # the refinement parameter is the triangulation size h: agglomeration
    # reuses the same subscript and must not distort rate fits
    h = max(i.h_triangulation for i in infos.values())
    return NetworkDiscretization(case, lam, stitched, matches, infos, h)


def mesh_discretization(mesh: PolygonalMesh, exact, name="mesh") -> NetworkDiscretization:
    """One planar mesh as a one-fracture network, ready for solve_discretized.

    The fracture is the z = 0 bounding rectangle of the mesh with K = I and no
    traces, so the whole boundary is Dirichlet; ``exact`` (anything with
    ``u``, ``grad`` and ``f`` on local coordinates) gives the data and errors.
    """
    (x0, y0), (x1, y1) = mesh.points.min(0), mesh.points.max(0)
    fr = make_fracture([(x0, y0, 0), (x1, y0, 0), (x1, y1, 0), (x0, y1, 0)],
                       frame=((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    case = NetworkCase(name, FractureNetwork([fr], []), {0: exact})
    info = FracturePipelineInfo(0, mesh.n_cells, mesh.n_cells, mesh.n_cells,
                                mesh.h, 0, 0, 0.0, 0, [], [])
    return NetworkDiscretization(case, 0.0, {0: mesh}, {}, {0: info}, mesh.h)


@dataclass
class NetworkRunReport:
    case: str
    lam: float
    k: int
    h: float                 # triangulation size driving the refinement
    cells: int
    dofs: int
    nnz: int
    cond: float | None       # None when not estimated
    err_l2: float | None
    err_h1: float | None
    sol_l2: float
    sol_h1: float
    max_pi_nabla: float
    max_pi_0: float
    energy_initial: int
    energy_final: int
    wall_time: float = 0.0
    solution: object = None
    gmap: object = None


def solve_discretized(disc: NetworkDiscretization, k: int,
                      estimate_condition=True) -> NetworkRunReport:
    import time as _time

    t0 = _time.perf_counter()
    case = disc.case
    network = case.network
    gmap = build_global_dofmap(disc.meshes, network, disc.matches, k)
    system, groups = assemble_network(
        network, disc.meshes, gmap,
        sources=case.sources(),
        dirichlet_values=case.dirichlet_values(),
    )
    x = vem.solve_spd(system)

    projected = vem.projected_solution(groups, x)
    sol_l2, sol_h1 = vem.solution_norms(groups, projected)
    err_l2 = err_h1 = None
    if case.exact is not None:
        exact = [case.exact[fid] for fid in sorted(disc.meshes)]
        err_l2, err_h1 = vem.error_norms(groups, projected, [sol.u for sol in exact],
                                         [sol.grad for sol in exact])
    dn, d0 = vem.projection_discrepancy(groups)
    cond = vem.condition_estimate(system).cond if estimate_condition else None

    report = NetworkRunReport(
        case=case.name,
        lam=disc.lam,
        k=k,
        h=disc.h,
        cells=sum(m.n_cells for m in disc.meshes.values()),
        dofs=gmap.n_global,
        nnz=system.nnz,
        cond=cond,
        err_l2=err_l2,
        err_h1=err_h1,
        sol_l2=sol_l2,
        sol_h1=sol_h1,
        max_pi_nabla=float(dn.max()),
        max_pi_0=float(d0.max()),
        energy_initial=sum(i.energy_initial for i in disc.info.values()),
        energy_final=sum(i.energy_final for i in disc.info.values()),
        wall_time=_time.perf_counter() - t0,
        solution=x,
        gmap=gmap,
    )
    return report


# ---------------------------------------------------------------------------
# DFN text format
# ---------------------------------------------------------------------------

_BC_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}
_BC_FUNCS = {name: getattr(np, name)
             for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")}
# deepest nesting of a BC value expression, well below the recursion limit
# that building the expression and evaluating it both recurse against
_BC_MAX_DEPTH = 100


def _parse_bc_value(text, line):
    """A BC value expression as a function of (n, 3) points.

    The grammar is numbers, ``x``, ``y``, ``z``, the binary operators
    ``+ - * / **``, unary minus and the functions in ``_BC_FUNCS``, nested
    at most ``_BC_MAX_DEPTH`` deep; anything else is a MeshFormatError at
    ``line``.  Nothing from the file is executed.
    """
    too_deep = MeshFormatError(f"BC value nests deeper than {_BC_MAX_DEPTH} levels", line=line)
    try:
        tree = ast.parse(text, mode="eval").body
    except SyntaxError:
        raise MeshFormatError(f"BC value {text!r} is not an expression", line=line) from None
    except (RecursionError, MemoryError):
        raise too_deep from None

    def build(node, depth=0):
        if depth > _BC_MAX_DEPTH:
            raise too_deep
        depth += 1
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            try:  # numpy scalars: overflow gives inf, not an exception at solve time
                c = np.float64(node.value)
            except OverflowError:
                raise MeshFormatError(f"BC value {text!r}: number out of range",
                                      line=line) from None
            return lambda p3: c
        if isinstance(node, ast.Name) and node.id in ("x", "y", "z"):
            axis = "xyz".index(node.id)
            return lambda p3: p3[:, axis]
        if isinstance(node, ast.BinOp) and type(node.op) in _BC_BINOPS:
            op = _BC_BINOPS[type(node.op)]
            left, right = build(node.left, depth), build(node.right, depth)
            return lambda p3: op(left(p3), right(p3))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            arg = build(node.operand, depth)
            return lambda p3: -arg(p3)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _BC_FUNCS and len(node.args) == 1 and not node.keywords):
            fn, arg = _BC_FUNCS[node.func.id], build(node.args[0], depth)
            return lambda p3: fn(arg(p3))
        raise MeshFormatError(
            f"BC value {text!r}: {ast.unparse(node)!r} is not allowed "
            f"(numbers, x, y, z, + - * / **, {', '.join(_BC_FUNCS)})",
            line=line,
        )

    expr = build(tree)

    def value(p3):
        with np.errstate(all="ignore"):  # a non-finite value is reported by its caller
            v = np.asarray(expr(p3), dtype=float)
        return np.broadcast_to(v, (len(p3),)).copy()

    return value


def _on_fracture(fr: Fracture, pts3) -> bool:
    """Whether all points (m, 3) lie on the fracture, within the coplanarity
    tolerance of ``make_fracture`` of its plane and of its polygon."""
    tol = 1e-10 * fr.diameter
    with np.errstate(all="ignore"):  # a non-finite point is on no fracture
        off = np.abs((pts3 - fr.origin) @ fr.normal)
        inside = geometry.inward_distance(fr.local_polygon, fr.to_local(pts3))
    return bool((off <= tol).all() and (inside >= -tol).all())


def load_network(path) -> NetworkCase:
    """Read the DFN text format.

    ``F n`` then per fracture: a vertex count, that many ``x y z`` lines and
    an optional ``K kxx kxy kyy`` line; optional ``T m`` block with lines
    ``i j ax ay az bx by bz``, whose endpoints must lie on both fractures;
    optional ``BC m`` block with lines
    ``dirichlet a b c d <value>`` where the plane is a*x+b*y+c*z+d=0 and the
    value is an expression in x, y, z (grammar in ``_parse_bc_value``).
    """
    tokens = _LineTokens(path)
    ln, nf = tokens.header("F", "n", "fracture count")
    if nf < 1:
        raise MeshFormatError("network has no fractures", line=ln)
    fractures = []
    frac_lines = []  # first line of each fracture's block
    for fid in range(nf):
        ln, tok = tokens.take("vertex count")
        frac_lines.append(ln)
        if len(tok) != 1:
            raise MeshFormatError("expected a fracture vertex count", line=ln)
        m = parse_count(tok[0], "fracture vertex count", ln)
        verts = []
        for _ in range(m):
            ln, tok = tokens.take("fracture vertex")
            if len(tok) != 3:
                raise MeshFormatError("fracture vertex must be 'x y z'", line=ln)
            verts.append(parse_tokens(float, tok, "fracture vertex", ln))
            if not np.isfinite(verts[-1]).all():
                raise MeshFormatError("non-finite fracture vertex coordinate", line=ln)
        K = None
        if tokens.peek() == "K":
            ln, tok = tokens.take("K line")
            if len(tok) != 4:
                raise MeshFormatError("K line must be 'K kxx kxy kyy'", line=ln)
            kxx, kxy, kyy = parse_tokens(float, tok[1:], "transmissivity", ln)
            K = np.array([[kxx, kxy], [kxy, kyy]])
        try:
            fractures.append(make_fracture(verts, K=K, fid=fid))
        except NetworkError as err:
            raise MeshFormatError(str(err), line=ln) from err

    traces = None
    if tokens.peek() == "T":
        _, nt = tokens.header("T", "m", "trace count")
        traces = []
        tol = _trace_tol(fractures)
        for tid in range(nt):
            ln, tok = tokens.take("trace line")
            if len(tok) != 8:
                raise MeshFormatError(
                    "trace line must be 'i j ax ay az bx by bz'", line=ln
                )
            i, j = parse_tokens(int, tok[:2], "trace fracture index", ln)
            if not (0 <= i < nf and 0 <= j < nf and i != j):
                raise MeshFormatError("trace must join two listed fractures", line=ln)
            a3, b3 = np.reshape(parse_tokens(float, tok[2:], "trace point", ln), (2, 3))
            for fid in (i, j):
                if not _on_fracture(fractures[fid], np.array([a3, b3])):
                    raise MeshFormatError(f"trace {tid} does not lie on fracture {fid}",
                                          line=ln)
            if np.linalg.norm(b3 - a3) <= tol:
                raise MeshFormatError(f"trace {tid} has zero length", line=ln)
            if tuple(b3) < tuple(a3):
                a3, b3 = b3, a3
            traces.append(TraceSegment(tid, a3, b3, i, j))
            try:
                _reject_shared_trace_line(traces[-1], traces[:-1], tol)
            except FractureError as err:
                raise MeshFormatError(str(err), line=ln) from err

    bcs = []
    if tokens.peek() == "BC":
        for _ in range(tokens.header("BC", "m", "BC count")[1]):
            ln, tok = tokens.take("BC line")
            if tok[0] != "dirichlet" or len(tok) < 6:
                raise MeshFormatError(
                    "BC line must be 'dirichlet a b c d <value>'", line=ln
                )
            plane = np.array(parse_tokens(float, tok[1:5], "plane coefficient", ln))
            if not np.isfinite(plane).all() or not plane[:3].any():
                raise MeshFormatError("dirichlet plane needs finite coefficients and a "
                                      "nonzero normal (a, b, c)", line=ln)
            bcs.append(BCSpec(plane, _parse_bc_value(" ".join(tok[5:]), ln)))
    tokens.finish()
    try:
        if traces is None:
            traces = compute_traces(fractures)
        network = FractureNetwork(fractures, traces, bcs)
    except FractureError as err:
        raise MeshFormatError(str(err), line=frac_lines[err.fid]) from err
    except NetworkError as err:
        raise MeshFormatError(str(err)) from err
    return NetworkCase(os.path.basename(str(path)), network, None)
