"""Polygonal mesh data structure, construction, merging and simplification.

A mesh is a flat vertex table plus per-cell CCW vertex-index loops.  Edges,
constraint flags and the cell adjacency map (keyed by shared *unconstrained*
edges) are derived at build time; mutating operations return new meshes.
"""

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import COLLINEAR_TOL


class MeshError(ValueError):
    """Invalid mesh input or operation."""


class MeshFormatError(MeshError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CellError(MeshError):
    """Invalid input cell; ``cell`` is its index in the cell list."""

    def __init__(self, cell, message):
        self.cell = cell
        super().__init__(f"cell {cell} {message}")


class MergeError(MeshError):
    """Base class for invalid cell merges."""


class MergeDisconnectedError(MergeError):
    pass


class MergeHoleError(MergeError):
    pass


class MergeNonSimpleError(MergeError):
    pass


class MergeConstraintError(MergeError):
    """The union would erase a constrained edge shared by two cells."""


@dataclass(frozen=True)
class Cell:
    """One polygonal cell: CCW boundary coordinates plus cached geometry."""

    points: np.ndarray
    area: float
    centroid: np.ndarray
    diameter: float
    vertex_ids: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.points)


def make_cell(points, vertex_ids=None, cell_id=None) -> Cell:
    pts = geometry.as_points(points)
    area, cx, cy = geometry.polygon_area_centroid(pts)
    if area <= 0.0 or not np.isfinite(area):
        name = "" if cell_id is None else f" {cell_id}"
        raise MeshError(f"degenerate or negatively oriented cell{name} (area {area})")
    diam = float(geometry.polygon_diameter(pts))
    ids = None if vertex_ids is None else np.asarray(vertex_ids, dtype=np.int64)
    return Cell(pts, float(area), np.array([cx, cy]), diam, ids)


def cell_geometry(cell: Cell):
    """Area, centroid, diameter of a cell (recomputed, validating the cache)."""
    area, cx, cy = geometry.polygon_area_centroid(cell.points)
    if area <= 0.0:
        raise MeshError("degenerate cell in cell_geometry")
    return float(area), np.array([cx, cy]), float(geometry.polygon_diameter(cell.points))


def polygon_kernel(cell: Cell) -> np.ndarray:
    """Kernel polygon of the cell; shape (0, 2) when not star-shaped."""
    return geometry.polygon_kernel_points(cell.points)


def collinear_runs(cell: Cell, tol=COLLINEAR_TOL):
    """Maximal chains of consecutive aligned boundary edges of one cell."""
    return geometry.collinear_edge_runs(cell.points, tol)


def triangulate_cell(cell: Cell) -> np.ndarray:
    """Ear-clipping triangulation, returned as (t, 3, 2) coordinates."""
    tris = geometry.ear_clip(cell.points)
    return cell.points[tris]


@dataclass
class PolygonalMesh:
    points: np.ndarray                 # (nv, 2)
    vertex_constrained: np.ndarray     # (nv,) bool
    cells: list                        # list of int64 arrays, CCW loops
    edges: list                        # list of (u, v) with u < v
    edge_index: dict                   # (u, v) -> edge id
    edge_constrained: np.ndarray       # (ne,) bool
    edge_cells: list                   # list of tuples of incident cell ids
    cell_area: np.ndarray
    cell_centroid: np.ndarray
    cell_diameter: np.ndarray
    neighbors: list                    # per cell, sorted adjacent cell ids
    h: float
    _cell_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def total_area(self) -> float:
        return float(self.cell_area.sum())

    def cell(self, i) -> Cell:
        c = self._cell_cache.get(i)
        if c is None:
            ids = self.cells[i]
            c = Cell(
                self.points[ids],
                float(self.cell_area[i]),
                self.cell_centroid[i].copy(),
                float(self.cell_diameter[i]),
                ids.copy(),
            )
            self._cell_cache[i] = c
        return c

    def boundary_edge_ids(self) -> np.ndarray:
        return np.array(
            [e for e, cs in enumerate(self.edge_cells) if len(cs) == 1], dtype=np.int64
        )

    def adjacency_pairs(self) -> list:
        """Unordered adjacent cell pairs (i, j), i < j, ascending."""
        pairs = set()
        for e, cs in enumerate(self.edge_cells):
            if len(cs) == 2 and not self.edge_constrained[e]:
                a, b = cs
                pairs.add((min(a, b), max(a, b)))
        return sorted(pairs)

    def constrained_edge_pairs(self) -> list:
        return [self.edges[e] for e in np.nonzero(self.edge_constrained)[0]]


def build_mesh(
    points,
    cells,
    constrained_edges=(),
    constrained_vertices=(),
    compact=True,
) -> PolygonalMesh:
    """Assemble and validate a mesh from raw vertex/cell/constraint data.

    Cells given clockwise are silently reversed.  Rejects dangling indices,
    non-simple cells, edges shared by more than two cells and inconsistent
    orientations.  With ``compact`` unused vertices are dropped.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise MeshError(f"points must be (n, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise MeshError("non-finite vertex coordinates")
    nv = len(pts)

    cell_arrays = []
    for ci, raw in enumerate(cells):
        ids = np.asarray(raw, dtype=np.int64)
        if ids.ndim != 1 or len(ids) < 3:
            raise CellError(ci, "must list at least 3 vertices")
        if ids.min() < 0 or ids.max() >= nv:
            raise CellError(ci, "references a missing vertex")
        if np.any(ids == np.roll(ids, 1)):
            raise CellError(ci, "repeats consecutive vertices")
        if len(np.unique(ids)) != len(ids):
            raise CellError(ci, "visits a vertex twice")
        loop = pts[ids]
        if geometry.polygon_area(loop) < 0.0:
            ids = ids[::-1].copy()
            loop = pts[ids]
        if not geometry.is_simple_polygon(loop):
            raise CellError(ci, "is not a simple polygon")
        cell_arrays.append(ids)

    if compact:
        used = np.zeros(nv, dtype=bool)
        for ids in cell_arrays:
            used[ids] = True
        if not used.all():
            remap = -np.ones(nv, dtype=np.int64)
            remap[used] = np.arange(int(used.sum()))
            pts = pts[used]
            cell_arrays = [remap[ids] for ids in cell_arrays]
            constrained_edges = [
                (remap[u], remap[v])
                for (u, v) in constrained_edges
                if used[u] and used[v]
            ]
            constrained_vertices = [int(remap[v]) for v in constrained_vertices if used[v]]
            nv = len(pts)

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

    ne = len(edges)
    edge_constrained = np.zeros(ne, dtype=bool)
    for u, v in constrained_edges:
        key = (int(u), int(v)) if u < v else (int(v), int(u))
        e = edge_index.get(key)
        if e is None:
            raise MeshError(f"constrained edge {key} is not a mesh edge")
        edge_constrained[e] = True

    vertex_constrained = np.zeros(nv, dtype=bool)
    for v in constrained_vertices:
        vertex_constrained[int(v)] = True
    for e in np.nonzero(edge_constrained)[0]:
        u, v = edges[e]
        vertex_constrained[u] = True
        vertex_constrained[v] = True

    nc = len(cell_arrays)
    cell_area = np.empty(nc)
    cell_centroid = np.empty((nc, 2))
    cell_diameter = np.empty(nc)
    for ci, ids in enumerate(cell_arrays):
        loop = pts[ids]
        area, cx, cy = geometry.polygon_area_centroid(loop)
        if area <= 0.0:
            raise CellError(ci, "has zero area")
        cell_area[ci] = area
        cell_centroid[ci] = (cx, cy)
        cell_diameter[ci] = geometry.polygon_diameter(loop)

    neighbors = [set() for _ in range(nc)]
    for e, cs in enumerate(edge_cells):
        if len(cs) == 2 and not edge_constrained[e]:
            a, b = cs
            neighbors[a].add(b)
            neighbors[b].add(a)

    return PolygonalMesh(
        points=pts,
        vertex_constrained=vertex_constrained,
        cells=cell_arrays,
        edges=edges,
        edge_index=edge_index,
        edge_constrained=edge_constrained,
        edge_cells=[tuple(cs) for cs in edge_cells],
        cell_area=cell_area,
        cell_centroid=cell_centroid,
        cell_diameter=cell_diameter,
        neighbors=[np.array(sorted(s), dtype=np.int64) for s in neighbors],
        h=float(cell_diameter.max()) if nc else 0.0,
    )


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def _union_loop(mesh: PolygonalMesh, cell_ids):
    """Outer vertex loop of the boolean union of the given cells.

    Raises MergeHoleError / MergeNonSimpleError / MergeConstraintError when
    the union is not a simple polygon without holes, or would delete a
    constrained edge.
    """
    directed = {}
    for ci in cell_ids:
        ids = mesh.cells[ci]
        m = len(ids)
        for k in range(m):
            u, v = int(ids[k]), int(ids[(k + 1) % m])
            directed[(u, v)] = directed.get((u, v), 0) + 1

    boundary = {}
    for (u, v), cnt in directed.items():
        if cnt > 1:
            raise MergeNonSimpleError("duplicated directed edge in union")
        if (v, u) in directed:
            key = (u, v) if u < v else (v, u)
            e = mesh.edge_index.get(key)
            if e is not None and mesh.edge_constrained[e]:
                raise MergeConstraintError(
                    "union would remove a constrained edge"
                )
            continue
        if u in boundary:
            raise MergeNonSimpleError("union touches itself at a vertex")
        boundary[u] = v

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


def merge_cells(mesh: PolygonalMesh, cell_ids) -> Cell:
    """Boolean union of an edge-connected set of cells, as a single cell.

    Interior shared edges are deleted and the outer loop traced; vertices on
    the union boundary (hanging nodes included) are retained.
    """
    ids = sorted(set(int(c) for c in cell_ids))
    if not ids:
        raise MergeError("empty cell set")
    for c in ids:
        if c < 0 or c >= mesh.n_cells:
            raise MergeError(f"cell {c} not in mesh")
    if len(ids) == 1:
        return mesh.cell(ids[0])
    # connectivity in the adjacency graph (constrained edges do not connect)
    seen = {ids[0]}
    stack = [ids[0]]
    members = set(ids)
    while stack:
        c = stack.pop()
        for nb in mesh.neighbors[c]:
            nb = int(nb)
            if nb in members and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if seen != members:
        raise MergeDisconnectedError("cell set is not edge-connected")
    loop = _union_loop(mesh, ids)
    cell = make_cell(mesh.points[loop], vertex_ids=loop)
    if not np.isclose(
        cell.area, float(mesh.cell_area[ids].sum()), rtol=1e-12, atol=0.0
    ):
        raise MergeNonSimpleError("union area does not match the summed areas")
    return cell


# ---------------------------------------------------------------------------
# aligned-edge simplification
# ---------------------------------------------------------------------------

def simplify_aligned_edges(mesh: PolygonalMesh, tol=COLLINEAR_TOL) -> PolygonalMesh:
    """Remove unconstrained hanging nodes interior to straight boundary runs.

    A vertex goes away only when it is unconstrained, lies on exactly two
    mesh edges, neither edge is constrained, and the two edges are aligned
    within ``tol``.  Cell areas are preserved to machine precision because
    candidates are interior to collinear runs.
    """
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

    if not removable.any():
        return mesh

    new_cells = []
    for ids in mesh.cells:
        kept = ids[~removable[ids]]
        if len(kept) < 3:
            # safety: never collapse a cell below a triangle
            kept = ids
        new_cells.append(kept)
    constrained_pairs = mesh.constrained_edge_pairs()
    cvs = np.nonzero(mesh.vertex_constrained)[0]
    out = build_mesh(pts, new_cells, constrained_pairs, cvs, compact=True)
    # chains of nearly-aligned vertices may need another sweep
    return simplify_aligned_edges(out, tol)


# ---------------------------------------------------------------------------
# text format I/O
# ---------------------------------------------------------------------------

def parse_tokens(cast, tokens, what, line) -> list:
    """``cast`` applied to each token; a bad token is a MeshFormatError at ``line``."""
    try:
        return [cast(t) for t in tokens]
    except ValueError:
        raise MeshFormatError(f"bad {what} in {' '.join(tokens)!r}", line=line) from None


def parse_count(token, what, line) -> int:
    """Non-negative integer count token, or a MeshFormatError at ``line``."""
    (n,) = parse_tokens(int, [token], what, line)
    if n < 0:
        raise MeshFormatError(f"negative {what} {n}", line=line)
    return n


def load_mesh(path) -> PolygonalMesh:
    """Read the whitespace text format: V/C blocks plus optional E block."""
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
                                  line=raw and len(raw) or 0)
        t = tokens[pos]
        pos += 1
        return t

    ln, tok = take("V header")
    if tok[0] != "V" or len(tok) != 2:
        raise MeshFormatError("expected 'V n' header", line=ln)
    nv = parse_count(tok[1], "vertex count", ln)
    pts = np.empty((nv, 2))
    vflags = []
    for i in range(nv):
        ln, tok = take("vertex line")
        if len(tok) not in (2, 3):
            raise MeshFormatError("vertex line must be 'x y [c]'", line=ln)
        pts[i] = parse_tokens(float, tok[:2], "vertex coordinate", ln)
        if len(tok) == 3 and tok[2] == "1":
            vflags.append(i)

    ln, tok = take("C header")
    if tok[0] != "C" or len(tok) != 2:
        raise MeshFormatError("expected 'C m' header", line=ln)
    nc = parse_count(tok[1], "cell count", ln)
    if nc < 1:
        raise MeshFormatError("mesh has no cells", line=ln)
    cells = []
    cell_lines = []
    for _ in range(nc):
        ln, tok = take("cell line")
        cells.append(parse_tokens(int, tok, "cell index", ln))
        cell_lines.append(ln)

    cons = []
    if pos < len(tokens):
        ln, tok = take("E header")
        if tok[0] != "E" or len(tok) != 2:
            raise MeshFormatError("expected 'E k' header", line=ln)
        for _ in range(parse_count(tok[1], "edge count", ln)):
            ln, tok = take("edge line")
            if len(tok) != 2:
                raise MeshFormatError("edge line must be 'i j'", line=ln)
            cons.append(parse_tokens(int, tok, "edge index", ln))
    if pos < len(tokens):
        ln, _ = tokens[pos]
        raise MeshFormatError("trailing content", line=ln)
    try:
        return build_mesh(pts, cells, cons, vflags, compact=False)
    except CellError as err:
        raise MeshFormatError(str(err), line=cell_lines[err.cell]) from err
    except MeshError as err:
        raise MeshFormatError(str(err)) from err


def save_mesh(mesh: PolygonalMesh, path):
    lines = [f"V {mesh.n_vertices}"]
    for i, (x, y) in enumerate(mesh.points):
        if mesh.vertex_constrained[i]:
            lines.append(f"{float(x)!r} {float(y)!r} 1")
        else:
            lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"C {mesh.n_cells}")
    for ids in mesh.cells:
        lines.append(" ".join(str(int(v)) for v in ids))
    cons = mesh.constrained_edge_pairs()
    if cons:
        lines.append(f"E {len(cons)}")
        for u, v in cons:
            lines.append(f"{u} {v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
