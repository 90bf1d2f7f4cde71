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


class ConstraintError(MeshError):
    """Invalid constrained edge; ``edge`` is its index in the constraint list."""

    def __init__(self, edge, message):
        self.edge = edge
        super().__init__(f"constrained edge {edge} {message}")


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
        n_cells = np.fromiter(map(len, self.edge_cells), dtype=np.int64,
                              count=len(self.edge_cells))
        return np.flatnonzero(n_cells == 1)

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

    Cells are checked in groups of one vertex count; a ``CellError`` names
    the lowest failing cell and the first check it fails, in the order of
    ``_CELL_CHECKS``.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise MeshError(f"points must be (n, 2), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise MeshError("non-finite vertex coordinates")
    nv = len(pts)

    cells = list(cells)
    nc = len(cells)
    sizes = np.array([_length(raw) for raw in cells], dtype=np.int64)
    groups = []  # (cell indices, (m, n) vertex ids, (m, n, 2) CCW loops)
    failures = []  # (cell, message) candidates; the lowest cell is raised
    for n in np.unique(sizes).tolist():
        idx, ids, failure = _group_ids(cells, np.flatnonzero(sizes == n), n)
        if failure:
            failures.append(failure)
        if not len(idx):
            continue
        failed, loops = _cell_failures(ids, pts)
        bad = np.flatnonzero(failed < len(_CELL_CHECKS))
        if len(bad):
            failures.append((int(idx[bad[0]]), _CELL_CHECKS[failed[bad[0]]]))
        groups.append((idx, ids, loops))
    if failures:
        raise CellError(*min(failures))

    if compact:
        used = np.zeros(nv, dtype=bool)
        for _, ids, _ in groups:
            used[ids] = True
        if not used.all():
            remap = -np.ones(nv, dtype=np.int64)
            remap[used] = np.arange(int(used.sum()))
            pts = pts[used]
            groups = [(idx, remap[ids], loops) for idx, ids, loops in groups]
            constrained_edges = [
                (remap[u], remap[v])
                for (u, v) in constrained_edges
                if used[u] and used[v]
            ]
            constrained_vertices = [int(remap[v]) for v in constrained_vertices if used[v]]
            nv = len(pts)

    # every directed edge (tail[t], head[t]) of cell owner[t], in traversal
    # order: cell by cell, edge k of a cell running from its vertex k to k+1
    offsets = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    tail = np.empty(offsets[-1], dtype=np.int64)
    head = np.empty_like(tail)
    owner = np.empty_like(tail)
    cell_area = np.empty(nc)
    cell_centroid = np.empty((nc, 2))
    cell_diameter = np.empty(nc)
    for idx, ids, loops in groups:
        at = offsets[idx][:, None] + np.arange(ids.shape[1])
        tail[at] = ids
        head[at] = np.roll(ids, -1, axis=1)
        owner[at] = idx[:, None]
        area, cx, cy = geometry.polygon_area_centroid(loops)
        cell_area[idx] = area
        cell_centroid[idx, 0] = cx
        cell_centroid[idx, 1] = cy
        cell_diameter[idx] = geometry.polygon_diameter(loops)
    cell_arrays = [tail[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]

    edges, first, second = _edge_table(tail, head, owner, nv)
    edge_index = dict(zip(edges, range(len(edges))))
    ne = len(edges)
    edge_constrained = np.zeros(ne, dtype=bool)
    for i, (u, v) in enumerate(constrained_edges):
        key = (int(u), int(v)) if u < v else (int(v), int(u))
        e = edge_index.get(key)
        if e is None:
            raise ConstraintError(i, f"{key} is not a mesh edge")
        edge_constrained[e] = True

    vertex_constrained = np.zeros(nv, dtype=bool)
    for v in constrained_vertices:
        vertex_constrained[int(v)] = True
    for e in np.nonzero(edge_constrained)[0]:
        u, v = edges[e]
        vertex_constrained[u] = True
        vertex_constrained[v] = True

    degenerate = np.flatnonzero(cell_area <= 0.0)
    if len(degenerate):
        raise CellError(int(degenerate[0]), "has zero area")

    # adjacency across shared unconstrained edges, both ways, each pair once
    inner = (second >= 0) & ~edge_constrained
    a, b = first[inner], second[inner]
    span = max(nc, 1)
    pairs = np.unique(np.concatenate([a * span + b, b * span + a]))
    bounds = np.searchsorted(pairs // span, np.arange(nc + 1)).tolist()
    others = pairs % span
    neighbors = [others[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    return PolygonalMesh(
        points=pts,
        vertex_constrained=vertex_constrained,
        cells=cell_arrays,
        edges=edges,
        edge_index=edge_index,
        edge_constrained=edge_constrained,
        edge_cells=[(a,) if b < 0 else (a, b)
                    for a, b in zip(first.tolist(), second.tolist())],
        cell_area=cell_area,
        cell_centroid=cell_centroid,
        cell_diameter=cell_diameter,
        neighbors=neighbors,
        h=float(cell_diameter.max()) if nc else 0.0,
    )


# the per-cell checks of build_mesh in the order it applies them; a cell's
# error message is its first failing check
_CELL_CHECKS = (
    "references a missing vertex",
    "repeats consecutive vertices",
    "visits a vertex twice",
    "is not a simple polygon",
)


def _length(raw) -> int:
    """Entry count of a cell; -1 for an object without a length."""
    try:
        return len(raw)
    except TypeError:
        return -1


def _group_ids(cells, idx, n):
    """Vertex ids (m, n) int64 of the cells ``idx``, which all have n entries.

    One ``np.array`` call converts the group.  Only when it fails (a ragged,
    overflowing or non-integer entry, or fewer than 3 entries) are the cells
    converted one at a time; that error path returns the cells before the
    first one that does not convert, their ids and (cell, message) of it.
    """
    if n >= 3:
        try:
            ids = np.array([cells[i] for i in idx], dtype=np.int64)
            if ids.shape == (len(idx), n):
                return idx, ids, None
        except (OverflowError, ValueError, TypeError):
            pass
    rows, failure = [], None
    for ci in idx.tolist():
        try:
            row = np.asarray(cells[ci], dtype=np.int64)
            if row.ndim != 1 or len(row) < 3:
                failure = (ci, "must list at least 3 vertices")
        except OverflowError:
            failure = (ci, "references a missing vertex")
        except (ValueError, TypeError):
            failure = (ci, "must list integer vertex indices")
        if failure:
            break
        rows.append(row)
    # cells after the failing one cannot fail first, so they are not needed
    m = len(rows)
    return idx[:m], np.array(rows, dtype=np.int64).reshape(m, max(n, 0)), failure


def _cell_failures(ids, pts):
    """Index into ``_CELL_CHECKS`` of the first check each cell of a group
    fails, ``len(_CELL_CHECKS)`` when it passes all, and the cells' vertex
    loops.  Clockwise cells are reversed in place, in ``ids`` too."""
    checks = [
        (ids.min(axis=1) < 0) | (ids.max(axis=1) >= len(pts)),
        (ids == np.roll(ids, 1, axis=1)).any(axis=1),
    ]
    ordered = np.sort(ids, axis=1)
    checks.append((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    loops = pts[np.where(checks[0][:, None], 0, ids)]
    cw = geometry.polygon_area(loops) < 0.0
    ids[cw] = ids[cw, ::-1]
    loops[cw] = loops[cw, ::-1]
    checks.append(~geometry.is_simple_polygon(loops))
    checks.append(np.ones(len(ids), dtype=bool))  # passed all: len(_CELL_CHECKS)
    return np.argmax(checks, axis=0), loops


def _edge_table(tail, head, owner, nv):
    """Undirected edges (u, v), u < v, numbered by first occurrence, with the
    cell that uses each edge first and the second one (-1 for none).

    One stable sort of the directed edges by vertex pair puts the uses of
    each edge together in traversal order.  A third use of an edge, or a
    second use in the direction of the first, is an error; the one raised
    is the first in traversal order.
    """
    lo = np.minimum(tail, head)
    hi = np.maximum(tail, head)
    key = lo * nv + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    rank = np.arange(len(order)) - starts[np.cumsum(new) - 1]
    forward = (tail < head)[order]
    third = order[rank == 2]
    same_way = order[1:][(rank[1:] == 1) & (forward[1:] == forward[:-1])]
    if len(third) or len(same_way):
        t = int(np.concatenate([third, same_way]).min())
        cell, edge = int(owner[t]), (int(lo[t]), int(hi[t]))
        if len(third) and third.min() == t:
            raise CellError(cell, f"has edge {edge}, which is shared by more than 2 cells")
        raise CellError(cell, f"has edge {edge} traversed twice in the same "
                              "direction (overlapping cells)")
    second = np.full(len(starts), -1, dtype=np.int64)
    shared = np.flatnonzero(np.diff(starts, append=len(order)) == 2)
    second[shared] = owner[order[starts[shared] + 1]]
    by_use = np.argsort(order[starts])  # edges in first-occurrence order
    first = order[starts][by_use]
    edges = list(zip(lo[first].tolist(), hi[first].tolist()))
    return edges, owner[first], second[by_use]


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
    pts = []
    vflags = []
    for i in range(nv):
        ln, tok = take("vertex line")
        if len(tok) not in (2, 3):
            raise MeshFormatError("vertex line must be 'x y [c]'", line=ln)
        pts.append(parse_tokens(float, tok[:2], "vertex coordinate", ln))
        if not np.isfinite(pts[-1]).all():
            raise MeshFormatError("non-finite vertex coordinate", line=ln)
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
    edge_lines = []
    if pos < len(tokens):
        ln, tok = take("E header")
        if tok[0] != "E" or len(tok) != 2:
            raise MeshFormatError("expected 'E k' header", line=ln)
        for _ in range(parse_count(tok[1], "edge count", ln)):
            ln, tok = take("edge line")
            if len(tok) != 2:
                raise MeshFormatError("edge line must be 'i j'", line=ln)
            cons.append(parse_tokens(int, tok, "edge index", ln))
            edge_lines.append(ln)
    if pos < len(tokens):
        ln, _ = tokens[pos]
        raise MeshFormatError("trailing content", line=ln)
    try:
        return build_mesh(np.reshape(pts, (nv, 2)), cells, cons, vflags, compact=False)
    except CellError as err:
        raise MeshFormatError(str(err), line=cell_lines[err.cell]) from err
    except ConstraintError as err:
        raise MeshFormatError(str(err), line=edge_lines[err.edge]) from err
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
