"""Discrete fracture network pipeline.

Per fracture: structured triangulation, conforming cuts along intersection
traces, quality agglomeration with trace constraints.  Globally: node
unification along traces, DOF identification across fractures, coupled
assembly and solve of the hydraulic head problem in each fracture's
tangential frame.
"""

import ast
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from . import geometry, vem
from .agglomerate import AgglomerationConfig, agglomerate
from .mesh import (MeshError, MeshFormatError, PolygonalMesh, build_mesh,
                   parse_count, parse_tokens)
from .vem import SparseSpdSystem, build_dof_map, gauss_lobatto_points


class NetworkError(MeshError):
    pass


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


def compute_traces(fractures, tol_rel=1e-10) -> list:
    """Pairwise intersection segments between convex planar fractures."""
    allv = np.vstack([f.vertices3 for f in fractures])
    scale = float(np.linalg.norm(allv.max(0) - allv.min(0)))
    tol = tol_rel * max(scale, 1e-300)
    traces = []
    for i in range(len(fractures)):
        for j in range(i + 1, len(fractures)):
            fi, fj = fractures[i], fractures[j]
            di = fi.vertices3 @ fj.normal - fj.plane_offset()
            dj = fj.vertices3 @ fi.normal - fi.plane_offset()
            if np.abs(di).max() <= tol and np.abs(dj).max() <= tol:
                inter = geometry.convex_clip(
                    fi.to_local(fj.vertices3), fi.local_polygon
                )
                if len(inter) >= 3 and abs(geometry.polygon_area(inter)) > tol * tol:
                    raise NetworkError(
                        f"fractures {fi.fid} and {fj.fid} are coplanar and overlap"
                    )
                continue
            sec = _polygon_plane_section(fi, fj.normal, fj.plane_offset(), tol)
            if sec is None:
                continue
            a3, b3 = sec
            d3 = b3 - a3
            length = np.linalg.norm(d3)
            dirv = d3 / length
            # clip against fracture j in its own plane
            a2 = fj.to_local(a3[None, :])[0]
            d2 = fj.to_local((a3 + dirv)[None, :])[0] - a2
            clip = geometry.clip_segment_to_convex(
                a2, d2, length, fj.local_polygon, tol
            )
            if clip is None:
                continue
            t0, t1 = clip
            pa = a3 + t0 * dirv
            pb = a3 + t1 * dirv
            if tuple(pb) < tuple(pa):
                pa, pb = pb, pa
            traces.append(
                TraceSegment(len(traces), pa, pb, fi.fid, fj.fid)
            )
    _reject_shared_trace_lines(traces, tol)
    return traces


def _reject_shared_trace_lines(traces, tol):
    for m1 in range(len(traces)):
        for m2 in range(m1 + 1, len(traces)):
            t1, t2 = traces[m1], traces[m2]
            if not set((t1.frac_i, t1.frac_j)) & set((t2.frac_i, t2.frac_j)):
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
                raise NetworkError(
                    "traces shared by three or more fractures are unsupported"
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
                    raise NetworkError(
                        f"fracture {f.fid} intersects no other fracture"
                    )

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

def _inward_distance(poly, p) -> float:
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


def triangulate_fracture(fracture: Fracture, max_area=None, n_cells=None,
                         jitter=0.22) -> PolygonalMesh:
    """Grid-based triangular mesh of the fracture in its local frame.

    A uniform grid over the bounding box is clipped to the (convex) polygon
    and every full quad is split into two triangles.  Interior grid vertices
    are perturbed by a deterministic jitter (fraction of the pitch, seeded by
    the fracture id) so that element shapes vary like in a generic unstructured
    triangulation; jitter=0 gives the exact structured grid.  In area mode
    all triangle areas stay at or below ``max_area``: the pitch is shrunk to
    absorb the jitter and the jitter is halved on a rare bound violation.
    """
    last_err = None
    for factor in (1.0, 0.5, 0.25, 0.0):
        try:
            return _triangulate_once(fracture, max_area, n_cells, jitter * factor)
        except (MeshError, NetworkError) as err:
            last_err = err
            if jitter * factor == 0.0:
                break
    raise last_err


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
                if is_box or _inward_distance(poly, points[v]) >= margin:
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
            piece = geometry.convex_clip(quad, poly)
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
# mutable mesh for cutting and stitching
# ---------------------------------------------------------------------------

class _MutableMesh:
    def __init__(self, mesh: PolygonalMesh, snap: float):
        self.points = [p.copy() for p in mesh.points]
        self.cells = [list(map(int, ids)) for ids in mesh.cells]
        self.con_edges = set(
            (min(u, v), max(u, v)) for (u, v) in mesh.constrained_edge_pairs()
        )
        self.con_verts = set(map(int, np.nonzero(mesh.vertex_constrained)[0]))
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
            key = (u, v) if u < v else (v, u)
            self.edge_map.setdefault(key, []).append(cid)

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
                if vid is not None and np.hypot(
                    *(self.points[vid] - p)
                ) <= self.snap:
                    return vid
        return None

    def add_vertex(self, p):
        vid = self.find_vertex(p)
        if vid is not None:
            return vid
        vid = len(self.points)
        self.points.append(np.asarray(p, dtype=float))
        self.pool[self._key(p)] = vid
        return vid

    def split_edge(self, u, v, vid):
        """Insert vid between u and v in every cell using that edge."""
        key = (u, v) if u < v else (v, u)
        cells = list(self.edge_map.get(key, ()))
        if not cells:
            raise MeshError(f"edge {key} not present")
        for cid in cells:
            loop = self.cells[cid]
            self._unregister(cid, loop)
            n = len(loop)
            for k in range(n):
                a, b = loop[k], loop[(k + 1) % n]
                if (a, b) == (u, v) or (a, b) == (v, u):
                    loop.insert(k + 1, vid)
                    break
            else:
                raise MeshError("edge not found in its cell")
            self._register(cid, loop)
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
        cid = len(self.cells)
        self.cells.append(list(loop))
        self._register(cid, self.cells[cid])
        return cid

    def to_mesh(self) -> PolygonalMesh:
        return build_mesh(
            np.vstack(self.points),
            self.cells,
            sorted(self.con_edges),
            sorted(self.con_verts),
            compact=True,
        )


def _point_in_some_cell(mm: _MutableMesh, p):
    for loop in mm.cells:
        pts = np.array([mm.points[v] for v in loop])
        if (
            pts[:, 0].min() - mm.snap <= p[0] <= pts[:, 0].max() + mm.snap
            and pts[:, 1].min() - mm.snap <= p[1] <= pts[:, 1].max() + mm.snap
            and geometry.point_in_polygon(pts, p, mm.snap) == 1
        ):
            return True
    return False


def _cut_one_segment(mm: _MutableMesh, a2, b2, tol):
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
            continue  # the actual segment does not enter this cell

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

    # endpoints landing on existing vertices or edge interiors; endpoints
    # beyond the mesh mean the segment crosses fully and need no vertex
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
        if not placed and _point_in_some_cell(mm, pe):
            raise MeshError(
                "trace endpoint inside a cell survived the cutting pass"
            )

    # existing edges running along the segment become constrained
    for (u, v) in list(mm.edge_map.keys()):
        pu, pv = mm.points[u], mm.points[v]
        if abs(sdist(pu)) <= tol and abs(sdist(pv)) <= tol:
            tu, tv = tpar(pu), tpar(pv)
            if min(tu, tv) >= -tol and max(tu, tv) <= L + tol:
                mm.con_edges.add((min(u, v), max(u, v)))


def cut_by_traces(mesh: PolygonalMesh, segments, tol_rel=1e-9) -> PolygonalMesh:
    """Split cells along trace segments and flag the covered edges constrained.

    Every crossed cell is split by the supporting line; a segment endpoint
    inside a cell is inserted on the cut as a constrained vertex, with the
    remaining extension of the chord left unconstrained.
    """
    if mesh.n_cells == 0:
        raise MeshError("empty mesh")
    scale = max(mesh.h, *(float(np.hypot(*(np.asarray(b) - np.asarray(a))))
                          for a, b in segments)) if segments else mesh.h
    mm = _MutableMesh(mesh, snap=0.5 * tol_rel * scale)
    area_before = mesh.total_area
    for a2, b2 in segments:
        _cut_one_segment(mm, a2, b2, tol_rel * scale)
    out = mm.to_mesh()
    if abs(out.total_area - area_before) > 1e-10 * area_before:
        raise MeshError("cutting changed the covered area")
    return out


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------

def _on_trace_vertices(mm: _MutableMesh, a2, dn, L, tol):
    out = []
    for vid, p in enumerate(mm.points):
        t = dn[0] * (p[0] - a2[0]) + dn[1] * (p[1] - a2[1])
        s = dn[0] * (p[1] - a2[1]) - dn[1] * (p[0] - a2[0])
        if abs(s) <= tol and -tol <= t <= L + tol:
            out.append((float(t), vid))
    out.sort()
    return out


def stitch_meshes(meshes: dict, network: FractureNetwork, tol_rel=1e-9):
    """Unify trace node sets across fracture pairs by hanging-node insertion.

    Returns ({fid: mesh}, matches) where matches[tid][fid] is the sorted
    (param, vertex_id) list along the trace, identical across the pair.
    """
    scale = network.scale
    tol = tol_rel * scale
    frs = {f.fid: f for f in network.fractures}
    mms = {fid: _MutableMesh(m, snap=0.5 * tol) for fid, m in meshes.items()}
    matches = {}
    for tr in network.traces:
        L = tr.length
        side = {}
        for fid in (tr.frac_i, tr.frac_j):
            a2, b2 = tr.local_segment(frs[fid])
            dn = (np.asarray(b2) - np.asarray(a2)) / L
            side[fid] = (np.asarray(a2), dn)
        nodes = {
            fid: _on_trace_vertices(mms[fid], a2, dn, L, tol)
            for fid, (a2, dn) in side.items()
        }
        params = []
        for lst in nodes.values():
            for t, _ in lst:
                params.append(t)
        params.sort()
        union = []
        for t in params:
            if not union or t - union[-1] > tol:
                union.append(t)
        for fid in (tr.frac_i, tr.frac_j):
            mm = mms[fid]
            have = nodes[fid]
            for t in union:
                k = np.searchsorted([q for q, _ in have], t)
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
                p = mm.points[v0] + (t - t0) / (t1 - t0) * (
                    mm.points[v1] - mm.points[v0]
                )
                vid = mm.add_vertex(p)
                mm.split_edge(v0, v1, vid)
                mm.con_verts.add(vid)
                have.insert(k, (t, vid))
        matches[tr.tid] = {fid: list(nodes[fid]) for fid in nodes}
    # matches hold _MutableMesh ids; they stay valid because the rebuild
    # compacts (renumbers) only when a vertex is unused
    out = {}
    for fid, mm in mms.items():
        out[fid] = mm.to_mesh()
        if out[fid].n_vertices != len(mm.points):
            raise MeshError(f"fracture {fid}: stitched rebuild dropped vertices")
    return out, matches


@dataclass
class GlobalDofMap:
    k: int
    locals: dict              # fid -> DofMap
    offsets: dict             # fid -> global offset before identification
    g: dict                   # fid -> (local_total,) global dof ids
    n_global: int

    def map_cell_dofs(self, fid, ci):
        return self.g[fid][self.locals[fid].cell_dofs[ci]]


def build_global_dofmap(meshes: dict, network: FractureNetwork, matches, k,
                        tol_rel=1e-9) -> GlobalDofMap:
    fids = sorted(meshes)
    locals_ = {fid: build_dof_map(meshes[fid], k) for fid in fids}
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
        if len(la) != len(lb):
            raise MeshError(f"trace {tr.tid}: node partitions differ across the pair")
        for (ta, va), (tb, vb) in zip(la, lb):
            if abs(ta - tb) > 1e-12 * max(1.0, tr.length):
                raise MeshError(f"trace {tr.tid}: node parameters disagree")
            union(offsets[fid_a] + va, offsets[fid_b] + vb)
        if k > 1:
            mesh_a, mesh_b = meshes[fid_a], meshes[fid_b]
            dm_a, dm_b = locals_[fid_a], locals_[fid_b]
            for p in range(len(la) - 1):
                ea = mesh_a.edge_index.get(
                    (min(la[p][1], la[p + 1][1]), max(la[p][1], la[p + 1][1]))
                )
                eb = mesh_b.edge_index.get(
                    (min(lb[p][1], lb[p + 1][1]), max(lb[p][1], lb[p + 1][1]))
                )
                if ea is None or eb is None:
                    raise MeshError(f"trace {tr.tid}: covering edge missing")
                ua, va_ = mesh_a.edges[ea]
                ub, vb_ = mesh_b.edges[eb]
                pa, _ = gauss_lobatto_points(
                    k, mesh_a.points[ua], mesh_a.points[va_]
                )
                pb, _ = gauss_lobatto_points(
                    k, mesh_b.points[ub], mesh_b.points[vb_]
                )
                pa3 = frs[fid_a].to_global(pa)
                pb3 = frs[fid_b].to_global(pb)
                for s in range(k - 1):
                    dist = np.linalg.norm(pb3 - pa3[s], axis=1)
                    s2 = int(np.argmin(dist))
                    if dist[s2] > tol:
                        raise MeshError(
                            f"trace {tr.tid}: edge DOF match failed ({dist[s2]})"
                        )
                    union(
                        offsets[fid_a] + dm_a.edge_slot(ea, s),
                        offsets[fid_b] + dm_b.edge_slot(eb, s2),
                    )

    roots = np.array([find(i) for i in range(total)], dtype=np.int64)
    uniq, inv = np.unique(roots, return_inverse=True)
    g = {}
    for fid in fids:
        lo = offsets[fid]
        g[fid] = inv[lo: lo + locals_[fid].total].astype(np.int64)
    return GlobalDofMap(k, locals_, offsets, g, int(len(uniq)))


# ---------------------------------------------------------------------------
# boundary classification and network assembly
# ---------------------------------------------------------------------------

def _edge_on_any_trace(points2, traces_local, tol):
    """True when both endpoints and the midpoint lie on one trace segment."""
    pa, pb = points2
    mid = 0.5 * (pa + pb)
    for (a2, dn, L) in traces_local:
        ok = True
        for p in (pa, pb, mid):
            t = dn @ (p - a2)
            s = dn[0] * (p[1] - a2[1]) - dn[1] * (p[0] - a2[0])
            if abs(s) > tol or t < -tol or t > L + tol:
                ok = False
                break
        if ok:
            return True
    return False


def dirichlet_boundary_edges(mesh: PolygonalMesh, fracture: Fracture,
                             traces, tol_rel=1e-9, scale=None):
    """Boundary edge ids not covered by traces (trace overlaps stay coupled)."""
    if scale is None:
        scale = fracture.diameter
    tol = tol_rel * scale
    tl = []
    for tr in traces:
        a2, b2 = tr.local_segment(fracture)
        L = tr.length
        tl.append((np.asarray(a2), (np.asarray(b2) - np.asarray(a2)) / L, L))
    out = []
    for e in mesh.boundary_edge_ids():
        u, v = mesh.edges[int(e)]
        if not _edge_on_any_trace((mesh.points[u], mesh.points[v]), tl, tol):
            out.append(int(e))
    return np.array(out, dtype=np.int64)


def assemble_network(network: FractureNetwork, meshes: dict, gmap: GlobalDofMap,
                     k: int, sources=None, dirichlet_values=None):
    """Coupled global system over all fractures.

    ``sources`` and ``dirichlet_values`` map fid to callables on local 2D
    coordinates; identified trace DOFs share one global unknown.  Boundary
    edges covered by a trace are interface, not Dirichlet.  Returns
    (system, elements_by_fid).
    """
    frs = {f.fid: f for f in network.fractures}
    fids = sorted(meshes)
    rows_all, cols_all, vals_all = [], [], []
    b = np.zeros(gmap.n_global)
    elements = {}
    for fid in fids:
        f_loc = sources.get(fid) if sources else None
        _, els, rows, cols, vals, bl = vem.build_local_system(
            meshes[fid], k, frs[fid].K, f_loc
        )
        elements[fid] = els
        gm = gmap.g[fid]
        rows_all.append(gm[rows])
        cols_all.append(gm[cols])
        vals_all.append(vals)
        np.add.at(b, gm, bl)
    A = sps.coo_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(gmap.n_global, gmap.n_global),
    ).tocsr()
    A = ((A + A.T) * 0.5).tocsr()

    dir_val = {}
    scale = network.scale
    for fid in fids:
        mesh = meshes[fid]
        fr = frs[fid]
        dm = gmap.locals[fid]
        edges = dirichlet_boundary_edges(
            mesh, fr, network.fracture_traces(fid), scale=scale
        )
        if len(edges) == 0:
            continue
        gfn = dirichlet_values.get(fid) if dirichlet_values else None
        if gfn is None:
            continue
        loc = vem.boundary_dofs(mesh, dm, edges)
        pos = vem.dof_positions(mesh, dm)[loc]
        vals = np.asarray(gfn(pos), dtype=float)
        gm = gmap.g[fid]
        for d, val in zip(loc, vals):
            if np.isfinite(val):  # NaN: no plane matched, homogeneous Neumann
                dir_val[int(gm[d])] = float(val)
    if not dir_val:
        raise NetworkError("no Dirichlet boundary found (|Gamma_D| must be positive)")
    dir_idx = np.array(sorted(dir_val), dtype=np.int64)
    dvals = np.array([dir_val[i] for i in dir_idx])
    free = np.setdiff1d(np.arange(gmap.n_global), dir_idx)
    system = SparseSpdSystem(A, b, dir_idx, dvals, free, gmap)
    return system, elements


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
                        out[hit] = np.asarray(bc.value(p3[hit]), dtype=float)
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
    history: list


@dataclass
class NetworkDiscretization:
    case: NetworkCase
    lam: float
    meshes: dict               # fid -> stitched PolygonalMesh
    matches: dict
    info: dict                 # fid -> FracturePipelineInfo
    h: float
    max_area: float | None = None
    n_cells_target: int | None = None


def discretize_network(case: NetworkCase, max_area=None, n_cells=None,
                       lam=0.0, sc_mode="potts", dc_power=2, max_cycles=50,
                       jitter=0.22) -> NetworkDiscretization:
    """triangulate + cut + agglomerate per fracture, then stitch globally."""
    network = case.network
    frs = {f.fid: f for f in network.fractures}
    scale = network.scale
    config = AgglomerationConfig(lam=lam, sc_mode=sc_mode, dc_power=dc_power,
                                 max_cycles=max_cycles)

    meshes = {}
    infos = {}
    for fid in sorted(frs):
        fr = frs[fid]
        tri = triangulate_fracture(fr, max_area=max_area, n_cells=n_cells,
                                   jitter=jitter)
        segs = [tr.local_segment(fr) for tr in network.fracture_traces(fid)]
        cut = cut_by_traces(tri, segs, tol_rel=1e-9 * scale / max(fr.diameter, 1e-300))
        # trace edges and endpoints are constrained in ``cut``, so no merge
        # crosses a trace and the fractures stay conforming
        result = agglomerate(cut, config)
        target = abs(geometry.polygon_area(fr.local_polygon))
        if abs(result.mesh.total_area - target) > 1e-10 * target:
            raise NetworkError(f"fracture {fid}: pipeline changed the covered area")
        meshes[fid] = result.mesh
        infos[fid] = FracturePipelineInfo(
            fid=fid,
            cells_triangulated=tri.n_cells,
            cells_cut=cut.n_cells,
            cells_final=result.mesh.n_cells,
            h_triangulation=tri.h,
            energy_initial=result.stats.energy_initial,
            energy_final=result.stats.energy_final,
            energy_saved=result.stats.energy_saved,
            cycles=result.stats.cycles,
            history=result.history,
        )

    stitched, matches = stitch_meshes(meshes, network)
    # the refinement parameter is the triangulation size h: agglomeration
    # reuses the same subscript and must not distort rate fits
    h = max(i.h_triangulation for i in infos.values())
    return NetworkDiscretization(
        case, lam, stitched, matches, infos, h, max_area, n_cells
    )


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
                                mesh.h, 0, 0, 0.0, 0, [])
    return NetworkDiscretization(case, 0.0, {0: mesh}, {}, {0: info}, mesh.h)


@dataclass
class NetworkRunReport:
    case: str
    lam: float
    k: int
    h: float                 # triangulation size driving the refinement
    h_mesh: float            # max cell diameter of the final stitched mesh
    cells: int
    dofs: int
    nnz: int
    cond: float
    err_l2: float | None
    err_h1: float | None
    sol_l2: float
    sol_h1: float
    max_pi_nabla: float
    max_pi_0: float
    energy_initial: int
    energy_final: int
    energy_saved: float
    wall_time: float = 0.0
    solution: object = None
    gmap: object = None
    system: object = None


def solve_discretized(disc: NetworkDiscretization, k: int,
                      estimate_condition=True, keep_system=False) -> NetworkRunReport:
    import time as _time

    t0 = _time.perf_counter()
    case = disc.case
    network = case.network
    gmap = build_global_dofmap(disc.meshes, network, disc.matches, k)
    system, elements = assemble_network(
        network, disc.meshes, gmap, k,
        sources=case.sources(),
        dirichlet_values=case.dirichlet_values(),
    )
    x = vem.solve_spd(system)

    err_l2 = err_h1 = None
    sol_l2 = sol_h1 = 0.0
    l2a = h1a = 0.0
    pin_max = pi0_max = 0.0
    for fid in sorted(disc.meshes):
        mesh = disc.meshes[fid]
        dm = gmap.locals[fid]
        xloc = x[gmap.g[fid]]
        s2, sh = vem.solution_norms(mesh, k, elements[fid], dm, xloc)
        sol_l2 += s2 * s2
        sol_h1 += sh * sh
        if case.exact is not None:
            sol = case.exact[fid]
            e2, eh = vem.error_norms(mesh, k, elements[fid], dm, xloc, sol.u, sol.grad)
            l2a += e2 * e2
            h1a += eh * eh
        dn, d0 = vem.projection_discrepancy(mesh, k, elements[fid])
        pin_max = max(pin_max, float(dn.max()))
        pi0_max = max(pi0_max, float(d0.max()))
    if case.exact is not None:
        err_l2 = float(np.sqrt(l2a))
        err_h1 = float(np.sqrt(h1a))
    cond = float("nan")
    if estimate_condition:
        cond = vem.condition_estimate(system).cond

    e1 = sum(i.energy_initial for i in disc.info.values())
    e2_ = sum(i.energy_final for i in disc.info.values())
    report = NetworkRunReport(
        case=case.name,
        lam=disc.lam,
        k=k,
        h=disc.h,
        h_mesh=max(m.h for m in disc.meshes.values()),
        cells=sum(m.n_cells for m in disc.meshes.values()),
        dofs=gmap.n_global,
        nnz=system.nnz,
        cond=cond,
        err_l2=err_l2,
        err_h1=err_h1,
        sol_l2=float(np.sqrt(sol_l2)),
        sol_h1=float(np.sqrt(sol_h1)),
        max_pi_nabla=pin_max,
        max_pi_0=pi0_max,
        energy_initial=e1,
        energy_final=e2_,
        energy_saved=0.0 if e1 == 0 else (e1 - e2_) / e1,
        wall_time=_time.perf_counter() - t0,
        solution=x,
        gmap=gmap,
        system=system if keep_system else None,
    )
    return report


# ---------------------------------------------------------------------------
# DFN text format
# ---------------------------------------------------------------------------

_BC_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}
_BC_FUNCS = {name: getattr(np, name)
             for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")}


def _parse_bc_value(text, line):
    """A BC value expression as a function of (n, 3) points.

    The grammar is numbers, ``x``, ``y``, ``z``, the binary operators
    ``+ - * / **``, unary minus and the functions in ``_BC_FUNCS``; anything
    else is a MeshFormatError at ``line``.  Nothing from the file is executed.
    """
    try:
        tree = ast.parse(text, mode="eval").body
    except SyntaxError:
        raise MeshFormatError(f"BC value {text!r} is not an expression", line=line) from None

    def build(node):
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
            left, right = build(node.left), build(node.right)
            return lambda p3: op(left(p3), right(p3))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            arg = build(node.operand)
            return lambda p3: -arg(p3)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _BC_FUNCS and len(node.args) == 1 and not node.keywords):
            fn, arg = _BC_FUNCS[node.func.id], build(node.args[0])
            return lambda p3: fn(arg(p3))
        raise MeshFormatError(
            f"BC value {text!r}: {ast.unparse(node)!r} is not allowed "
            f"(numbers, x, y, z, + - * / **, {', '.join(_BC_FUNCS)})",
            line=line,
        )

    expr = build(tree)

    def value(p3):
        return np.broadcast_to(np.asarray(expr(p3), dtype=float), (len(p3),)).copy()

    return value


def load_network(path) -> NetworkCase:
    """Read the DFN text format.

    ``F n`` then per fracture: a vertex count, that many ``x y z`` lines and
    an optional ``K kxx kxy kyy`` line; optional ``T m`` block with lines
    ``i j ax ay az bx by bz``; optional ``BC m`` block with lines
    ``dirichlet a b c d <value>`` where the plane is a*x+b*y+c*z+d=0 and the
    value is an expression in x, y, z (grammar in ``_parse_bc_value``).
    """
    with open(path) as fh:
        raw = fh.readlines()
    tokens = []
    for ln, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.append((ln, body.split()))
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshFormatError(f"unexpected end of file, expected {what}",
                                  line=len(raw))
        t = tokens[pos]
        pos += 1
        return t

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    ln, tok = take("F header")
    if tok[0] != "F" or len(tok) != 2:
        raise MeshFormatError("expected 'F n' header", line=ln)
    nf = parse_count(tok[1], "fracture count", ln)
    if nf < 1:
        raise MeshFormatError("network has no fractures", line=ln)
    fractures = []
    for fid in range(nf):
        ln, tok = take("vertex count")
        if len(tok) != 1:
            raise MeshFormatError("expected a fracture vertex count", line=ln)
        m = parse_count(tok[0], "fracture vertex count", ln)
        verts = []
        for _ in range(m):
            ln, tok = take("fracture vertex")
            if len(tok) != 3:
                raise MeshFormatError("fracture vertex must be 'x y z'", line=ln)
            verts.append(parse_tokens(float, tok, "fracture vertex", ln))
        K = None
        nxt = peek()
        if nxt is not None and nxt[1][0] == "K":
            ln, tok = take("K line")
            if len(tok) != 4:
                raise MeshFormatError("K line must be 'K kxx kxy kyy'", line=ln)
            kxx, kxy, kyy = parse_tokens(float, tok[1:], "transmissivity", ln)
            K = np.array([[kxx, kxy], [kxy, kyy]])
        try:
            fractures.append(make_fracture(verts, K=K, fid=fid))
        except NetworkError as err:
            raise MeshFormatError(str(err), line=ln) from err

    traces = None
    nxt = peek()
    if nxt is not None and nxt[1][0] == "T":
        ln, tok = take("T header")
        if len(tok) != 2:
            raise MeshFormatError("expected 'T m' header", line=ln)
        nt = parse_count(tok[1], "trace count", ln)
        traces = []
        for tid in range(nt):
            ln, tok = take("trace line")
            if len(tok) != 8:
                raise MeshFormatError(
                    "trace line must be 'i j ax ay az bx by bz'", line=ln
                )
            i, j = parse_tokens(int, tok[:2], "trace fracture index", ln)
            if not (0 <= i < nf and 0 <= j < nf and i != j):
                raise MeshFormatError("trace must join two listed fractures", line=ln)
            a3, b3 = np.reshape(parse_tokens(float, tok[2:], "trace point", ln), (2, 3))
            if tuple(b3) < tuple(a3):
                a3, b3 = b3, a3
            traces.append(TraceSegment(tid, a3, b3, i, j))
    if traces is None:
        traces = compute_traces(fractures)

    bcs = []
    nxt = peek()
    if nxt is not None and nxt[1][0] == "BC":
        ln, tok = take("BC header")
        if len(tok) != 2:
            raise MeshFormatError("expected 'BC m' header", line=ln)
        nb = parse_count(tok[1], "BC count", ln)
        for _ in range(nb):
            ln, tok = take("BC line")
            if tok[0] != "dirichlet" or len(tok) < 6:
                raise MeshFormatError(
                    "BC line must be 'dirichlet a b c d <value>'", line=ln
                )
            plane = np.array(parse_tokens(float, tok[1:5], "plane coefficient", ln))
            bcs.append(BCSpec(plane, _parse_bc_value(" ".join(tok[5:]), ln)))
    if pos < len(tokens):
        ln, _ = tokens[pos]
        raise MeshFormatError("trailing content", line=ln)
    try:
        network = FractureNetwork(fractures, traces, bcs)
    except NetworkError as err:
        raise MeshFormatError(str(err)) from err
    return NetworkCase(os.path.basename(str(path)), network, None)
