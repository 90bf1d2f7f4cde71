"""Polygonal mesh data structure, construction, merging and simplification.

A mesh is a flat vertex table plus a cell table: every cell's CCW vertex
ids in one flat array, cell after cell, with each cell's offset.  Edges,
constraint flags and the adjacent cell pairs (those sharing an
*unconstrained* edge) are derived at build time; mutating operations return
new meshes.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry


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


class MergeHoleError(MergeError):
    pass


class MergeNonSimpleError(MergeError):
    pass


class MergeConstraintError(MergeError):
    """The union would erase a constrained edge shared by two cells."""


@dataclass
class PolygonalMesh:
    points: np.ndarray                 # (nv, 2)
    vertex_constrained: np.ndarray     # (nv,) bool
    cell_vertices: np.ndarray          # (sum of cell sizes,) int64 CCW loops, cell after cell
    cell_offsets: np.ndarray           # (nc + 1,) int64 start of each cell in cell_vertices
    edges: np.ndarray                  # (ne, 2) int64 (u, v), u < v, by first use
    edge_constrained: np.ndarray       # (ne,) bool
    edge_cells: np.ndarray             # (ne, 2) int64 first and second cell, -1 for none
    cell_area: np.ndarray
    cell_centroid: np.ndarray
    adjacent: tuple                    # (a, b) int64 cells sharing a free edge, a < b, ascending
    h: float                           # largest cell diameter
    _edge_keys: np.ndarray = field(repr=False)  # see _edge_lookup
    _edge_key_ids: np.ndarray = field(repr=False)
    cells: list = field(init=False, repr=False)  # per-cell views of cell_vertices

    def __post_init__(self):
        bounds = self.cell_offsets.tolist()
        self.cells = [self.cell_vertices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

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

    def edge_ids(self, u, v) -> np.ndarray:
        """Id of the edge joining each vertex pair (u, v), in either order;
        -1 for a pair that is not an edge."""
        return _edge_lookup(self._edge_keys, self._edge_key_ids, self.n_vertices, u, v)

    def boundary_edge_ids(self) -> np.ndarray:
        return np.flatnonzero(self.edge_cells[:, 1] < 0)

    def constrained_edge_pairs(self) -> list:
        return list(map(tuple, self.edges[self.edge_constrained].tolist()))

    def by_vertex_count(self):
        """(n, cell ids, (m, n) vertex ids) of the cells with n vertices, for
        each vertex count n in ascending order; the cell ids ascend."""
        return _rows_by_length(self.cell_vertices, self.cell_offsets)

    # a pickle carries the constructor's arguments, so the cells go as one
    # table: a list of thousands of small arrays costs 10x more to dump and
    # load, which matters when meshes cross a process boundary
    def __reduce__(self):
        return PolygonalMesh, tuple(getattr(self, f.name) for f in fields(self) if f.init)


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
    groups = []  # (cell indices, (m, n) vertex ids, (m, n, 2) CCW loops, (m,) diameters)
    failures = []  # (cell, message) candidates; the lowest cell is raised
    for n in np.unique(sizes).tolist():
        idx, ids, failure = _group_ids(cells, np.flatnonzero(sizes == n), n)
        if failure:
            failures.append(failure)
        if not len(idx):
            continue
        failed, loops, diameter = _cell_failures(ids, pts)
        bad = np.flatnonzero(failed < len(_CELL_CHECKS))
        if len(bad):
            failures.append((int(idx[bad[0]]), _CELL_CHECKS[failed[bad[0]]]))
        groups.append((idx, ids, loops, diameter))
    if failures:
        raise CellError(*min(failures))

    if compact:
        used = np.zeros(nv, dtype=bool)
        for _, ids, _, _ in groups:
            used[ids] = True
        if not used.all():
            remap = -np.ones(nv, dtype=np.int64)
            remap[used] = np.arange(int(used.sum()))
            pts = pts[used]
            groups = [(idx, remap[ids], loops, diameter) for idx, ids, loops, diameter in groups]
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
    h = 0.0
    for idx, ids, loops, diameter in groups:
        at = offsets[idx][:, None] + np.arange(ids.shape[1])
        tail[at] = ids
        head[at] = np.roll(ids, -1, axis=1)
        owner[at] = idx[:, None]
        area, cx, cy = geometry.polygon_area_centroid(loops)
        cell_area[idx] = area
        cell_centroid[idx, 0] = cx
        cell_centroid[idx, 1] = cy
        h = max(h, float(diameter.max()))

    edges, edge_cells, keys, key_ids = _edge_table(tail, head, owner, nv)
    cons = [(int(u), int(v)) if u < v else (int(v), int(u)) for u, v in constrained_edges]
    # a vertex id outside the mesh, however large, names no edge
    ends = np.array([p if p[0] >= 0 and p[1] < nv else (-1, -1) for p in cons],
                    dtype=np.int64).reshape(-1, 2)
    cons_ids = _edge_lookup(keys, key_ids, nv, ends[:, 0], ends[:, 1])
    missing = np.flatnonzero(cons_ids < 0)
    if len(missing):
        raise ConstraintError(int(missing[0]), f"{cons[missing[0]]} is not a mesh edge")
    edge_constrained = np.zeros(len(edges), dtype=bool)
    edge_constrained[cons_ids] = True

    vertex_constrained = np.zeros(nv, dtype=bool)
    vertex_constrained[np.asarray(constrained_vertices, dtype=np.int64)] = True
    vertex_constrained[edges[edge_constrained]] = True

    degenerate = np.flatnonzero(cell_area <= 0.0)
    if len(degenerate):
        raise CellError(int(degenerate[0]), "has zero area")

    # cells sharing an unconstrained edge, each pair once; an edge's first
    # cell comes before its second in traversal order, so it is the lower one
    inner = (edge_cells[:, 1] >= 0) & ~edge_constrained
    span = max(nc, 1)
    pairs = np.unique(edge_cells[inner, 0] * span + edge_cells[inner, 1])

    return PolygonalMesh(
        points=pts,
        vertex_constrained=vertex_constrained,
        cell_vertices=tail,
        cell_offsets=offsets,
        edges=edges,
        edge_constrained=edge_constrained,
        edge_cells=edge_cells,
        cell_area=cell_area,
        cell_centroid=cell_centroid,
        adjacent=(pairs // span, pairs % span),
        h=h,
        _edge_keys=keys,
        _edge_key_ids=key_ids,
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
    fails, ``len(_CELL_CHECKS)`` when it passes all, the cells' vertex loops
    and their diameters.  Clockwise cells are reversed in place, in ``ids``
    too."""
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
    diameter = geometry.polygon_diameter(loops)
    checks.append(~geometry.is_simple_polygon(loops, diameter=diameter))
    checks.append(np.ones(len(ids), dtype=bool))  # passed all: len(_CELL_CHECKS)
    return np.argmax(checks, axis=0), loops, diameter


def _edge_table(tail, head, owner, nv):
    """Undirected edges (ne, 2), u < v, numbered by first occurrence; the
    cell that uses each edge first and the second one (-1 for none), (ne, 2);
    and the lookup table of ``_edge_lookup``.

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
    edges = np.column_stack([lo[first], hi[first]])
    edge_cells = np.column_stack([owner[first], second[by_use]])
    # the sorted keys end in a sentinel above every key, whose id is -1
    keys = np.append(key[starts], np.iinfo(np.int64).max)
    key_ids = np.full(len(keys), -1, dtype=np.int64)
    key_ids[by_use] = np.arange(len(by_use))
    return edges, edge_cells, keys, key_ids


def _edge_lookup(keys, key_ids, nv, u, v):
    """Edge id of each vertex pair (u, v), -1 where it is not an edge, from
    the ascending keys ``u * nv + v`` (u < v) of a mesh's edges, followed by
    a sentinel, and the edge id of each key."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = np.where((lo >= 0) & (hi < nv), lo * nv + hi, -1)
    at = np.searchsorted(keys, key)
    return np.where(keys[at] == key, key_ids[at], -1)


# A table is rows of ids in one flat int64 array, row after row, with each
# row's start in an offsets array of one more entry than there are rows.

def _rows_by_length(flat, offsets):
    """(n, row ids, (m, n) entries) of the rows of length n of the table
    (flat, offsets), for each length n in ascending order; row ids ascend."""
    sizes = np.diff(offsets)
    for n in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == n)
        yield n, rows, flat[offsets[rows, None] + np.arange(n)]


def _row_positions(offsets, rows):
    """Positions in a table's flat array of the entries of ``rows``, row
    after row, and the offsets of the table those entries make."""
    start = offsets[rows]
    sizes = offsets[rows + 1] - start
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return np.arange(out[-1]) + np.repeat(start - out[:-1], sizes), out


def _next_in_row(offsets) -> np.ndarray:
    """Position of the entry after each entry of a table of non-empty rows,
    read as loops: a row's first entry follows its last."""
    nxt = np.arange(1, offsets[-1] + 1)
    nxt[offsets[1:] - 1] = offsets[:-1]
    return nxt


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def _forest_roots(parent) -> np.ndarray:
    """Root of every node of the union-find forest ``parent``, by pointer
    jumping: each pass replaces every pointer by its pointer's pointer, so
    the passes grow with the logarithm of the deepest path."""
    roots = parent
    while True:
        up = roots[roots]
        if np.array_equal(up, roots):
            return roots
        roots = up


def _components(n, a, b) -> np.ndarray:
    """Lowest node of the connected component of each of n nodes joined by
    the edges (a, b): every pass hooks the larger root of each edge under the
    smaller one, then jumps pointers to the roots."""
    roots = np.arange(n)
    while True:
        ra, rb = roots[a], roots[b]
        if np.array_equal(ra, rb):
            return roots
        low = np.minimum(ra, rb)
        np.minimum.at(roots, ra, low)
        np.minimum.at(roots, rb, low)
        roots = _forest_roots(roots)


# union loop failures in the order the per-set trace checks them: the first
# three are raised at a directed edge (the earliest in traversal order, then
# the lowest here), the others after all edges passed
_UNION_ERRORS = (
    (MergeNonSimpleError, "duplicated directed edge in union"),
    (MergeConstraintError, "union would remove a constrained edge"),
    (MergeNonSimpleError, "union touches itself at a vertex"),
    (MergeNonSimpleError, "union is not edge-connected"),
    (MergeNonSimpleError, "union has no boundary"),
    (MergeNonSimpleError, "open boundary chain in union"),
    (MergeHoleError, "union encloses a hole"),
    (MergeNonSimpleError, "union boundary degenerate"),
)


def _union_loops(mesh: PolygonalMesh, members, set_offsets):
    """Outer vertex loop of the boolean union of each set of cells.

    The sets and the loops are tables: set s lists the cells
    ``members[set_offsets[s]:set_offsets[s + 1]]``.  Returns (loops, offsets,
    failed): set s's row of (loops, offsets) is its CCW boundary loop from its
    lowest vertex id and failed[s] is -1; or its row is empty and failed[s]
    indexes the ``_UNION_ERRORS`` entry that makes the union not a simple
    hole-free polygon or that would delete a constrained edge.

    The directed edges of all sets are taken cell by cell in the order each
    set lists its cells.  One sort by (set, edge, direction) groups the uses
    of each directed edge.  A directed edge used twice is an error; one whose
    reverse is used too is interior, an error when constrained; a boundary
    edge leaving a vertex that an earlier boundary edge leaves is an error.
    Each of these errors sits at its edge's first use, and a set fails with
    its earliest one.  A set whose cells its interior edges do not join
    into one piece fails next.  The boundaries of the other sets are then
    walked all at once, from each set's lowest vertex.
    """
    nv = mesh.n_vertices
    n_sets = len(set_offsets) - 1
    member_set = np.repeat(np.arange(n_sets), np.diff(set_offsets))
    # every directed edge (tail, head) of every member cell, in traversal order
    at, use_offsets = _row_positions(mesh.cell_offsets, members)
    uses = np.diff(use_offsets)
    tail = mesh.cell_vertices[at]
    head = tail[_next_in_row(use_offsets)]
    owner = np.repeat(member_set, uses)
    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    key = ((owner * nv + lo) * nv + hi) * 2 + (tail > head)
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    # one item per directed edge of a set: its first use, its use count and
    # whether the reverse edge is used too
    item = order[starts]
    ikey = key[starts]
    count = np.diff(starts, append=len(key))
    follows = np.zeros(len(ikey), dtype=bool)
    follows[1:] = (ikey[1:] == ikey[:-1] + 1) & (ikey[1:] % 2 == 1)
    twin = follows.copy()
    twin[:-1] |= follows[1:]
    isets = owner[item]

    # first failing edge per set, as use position * 8 + error kind
    worst = len(tail) * 8
    failed = np.full(n_sets, worst, dtype=np.int64)
    constrained = twin & mesh.edge_constrained[mesh.edge_ids(lo[item], hi[item])]
    out_key = isets * nv + tail[item]
    free = np.flatnonzero(~twin)
    free = free[np.lexsort((item[free], out_key[free]))]  # by (set, tail), first use
    second = free[1:][out_key[free[1:]] == out_key[free[:-1]]]
    for kind, bad in enumerate((count > 1, constrained, second)):
        np.minimum.at(failed, isets[bad], item[bad] * 8 + kind)
    kind = np.where(failed < worst, failed % 8, -1)

    # the cells of a set, numbered by their position in ``members``, joined
    # by the set's interior edges: item i and the one before it when follows[i]
    inner = np.flatnonzero(follows)
    member_of = np.repeat(np.arange(len(members)), uses)
    roots = _components(len(members), member_of[item[inner - 1]], member_of[item[inner]])
    split = roots != set_offsets[member_set]
    kind[(kind < 0) & (np.bincount(member_set[split], minlength=n_sets) > 0)] = 3

    # walk the boundary of the sets without an error
    free = free[kind[isets[free]] < 0]
    free_key = out_key[free]  # ascending: each set's lowest vertex first
    n_bound = np.bincount(isets[free], minlength=n_sets)
    kind[(kind < 0) & (n_bound == 0)] = 4
    found = np.minimum(np.searchsorted(free_key, isets[free] * nv + head[item[free]]),
                       max(len(free) - 1, 0))
    succ = np.where(free_key[found] == isets[free] * nv + head[item[free]], found, -1)
    first = np.searchsorted(free_key, np.arange(n_sets) * nv)
    walking = np.flatnonzero(n_bound > 0)
    cur = first[walking]
    loop_len = np.zeros(n_sets, dtype=np.int64)
    rank = np.zeros(len(free), dtype=np.int64)  # the step that visits each free edge
    step = 0
    while len(walking):
        rank[cur] = step
        step += 1
        cur = succ[cur]
        closed = cur == first[walking]
        stuck = ~closed & ((cur < 0) | (step >= n_bound[walking]))
        loop_len[walking[closed]] = step
        kind[walking[stuck]] = 5
        going = ~(closed | stuck)
        walking, cur = walking[going], cur[going]
    closed = kind < 0
    kind[closed & (loop_len < n_bound)] = 6
    kind[closed & (loop_len == n_bound) & (loop_len < 3)] = 7

    # a closed walk visits every free edge of its set once, in loop order
    loop_len[kind >= 0] = 0
    offsets = np.zeros(n_sets + 1, dtype=np.int64)
    np.cumsum(loop_len, out=offsets[1:])
    done = kind[isets[free]] < 0
    loops = np.empty(offsets[-1], dtype=np.int64)
    loops[offsets[isets[free[done]]] + rank[done]] = tail[item[free[done]]]
    return loops, offsets, kind


# ---------------------------------------------------------------------------
# aligned-edge simplification
# ---------------------------------------------------------------------------

def _removable_vertices(points, cells, offsets, constrained) -> np.ndarray:
    """Mask of the removable vertices of the mesh that ``points`` and the
    cell table (cells, offsets) would build: hanging nodes interior to
    straight runs that the mask ``constrained`` (which holds the ends of every
    constrained edge) leaves free.  Such a vertex lies on exactly two mesh
    edges and is straight between their other ends
    (``geometry.straight_vertices``); dropping it keeps every cell's area."""
    nv = len(points)
    nxt = _next_in_row(offsets)
    keys = np.unique(np.minimum(cells, cells[nxt]) * nv + np.maximum(cells, cells[nxt]))
    degree = np.bincount(keys // nv, minlength=nv) + np.bincount(keys % nv, minlength=nv)
    v = np.flatnonzero((degree == 2) & ~constrained)
    # a cell edge (a, v) into such a vertex and the cell's next edge (v, b)
    # are its two edges, in either order
    into = np.zeros(nv, dtype=np.int64)
    into[cells[nxt]] = np.arange(len(cells))
    a, b = cells[into[v]], cells[nxt[nxt[into[v]]]]
    removable = np.zeros(nv, dtype=bool)
    removable[v[geometry.straight_vertices(points[a], points[v], points[b])]] = True
    return removable


def _drop_aligned_vertices(points, cells, offsets, constrained):
    """The cell table (cells, offsets) without its removable vertices
    (``_removable_vertices``), swept again until none is left; the table
    itself when there is none.  A vertex whose removal would leave a cell
    below a triangle stays, in every cell and every later sweep."""
    pinned = constrained.copy()
    while True:
        hit = _removable_vertices(points, cells, offsets, pinned)[cells]
        # a cell that would keep fewer than 3 vertices pins those it would lose
        short = np.diff(np.append(0, np.cumsum(~hit))[offsets]) < 3
        pinned[cells[hit & np.repeat(short, np.diff(offsets))]] = True
        keep = ~hit | pinned[cells]
        if keep.all():
            return cells, offsets
        cells = cells[keep]
        offsets = offsets - np.append(0, np.cumsum(~keep))[offsets]


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


class _LineTokens:
    """The whitespace tokens of each non-blank line of a text file, after
    ``#`` comments are stripped, read in order as (line number, tokens)."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            raw = fh.read().splitlines()  # at \n, \r\n and \r, as text mode reads
        self.n_lines = len(raw)
        self.lines = []
        for ln, line in enumerate(raw, start=1):
            try:
                body = line.decode().split("#", 1)[0].strip()
            except UnicodeDecodeError:
                raise MeshFormatError("not UTF-8 text", line=ln) from None
            if body:
                self.lines.append((ln, body.split()))
        self.pos = 0

    def take(self, what):
        """The next line; at the end of the file a MeshFormatError naming
        ``what`` at the last line (line 1 of an empty file)."""
        if self.pos >= len(self.lines):
            raise MeshFormatError(f"unexpected end of file, expected {what}",
                                  line=max(self.n_lines, 1))
        self.pos += 1
        return self.lines[self.pos - 1]

    def header(self, tag, letter, what):
        """(line number, count) of the next line, a ``tag count`` block
        header; else a MeshFormatError ``expected 'tag letter' header``."""
        ln, tok = self.take(f"{tag} header")
        if tok[0] != tag or len(tok) != 2:
            raise MeshFormatError(f"expected '{tag} {letter}' header", line=ln)
        return ln, parse_count(tok[1], what, ln)

    def peek(self):
        """First token of the next line, None at the end of the file."""
        return self.lines[self.pos][1][0] if self.pos < len(self.lines) else None

    def finish(self):
        """A MeshFormatError at the first line not read, if there is one."""
        if self.pos < len(self.lines):
            raise MeshFormatError("trailing content", line=self.lines[self.pos][0])


def load_mesh(path) -> PolygonalMesh:
    """Read the whitespace text format: V/C blocks plus optional E block."""
    tokens = _LineTokens(path)
    _, nv = tokens.header("V", "n", "vertex count")
    pts = []
    vflags = []
    for i in range(nv):
        ln, tok = tokens.take("vertex line")
        if len(tok) not in (2, 3):
            raise MeshFormatError("vertex line must be 'x y [c]'", line=ln)
        pts.append(parse_tokens(float, tok[:2], "vertex coordinate", ln))
        if not np.isfinite(pts[-1]).all():
            raise MeshFormatError("non-finite vertex coordinate", line=ln)
        if len(tok) == 3 and tok[2] not in ("0", "1"):
            raise MeshFormatError(f"vertex flag must be 0 or 1, got {tok[2]!r}", line=ln)
        if len(tok) == 3 and tok[2] == "1":
            vflags.append(i)

    ln, nc = tokens.header("C", "m", "cell count")
    if nc < 1:
        raise MeshFormatError("mesh has no cells", line=ln)
    cells = []
    cell_lines = []
    for _ in range(nc):
        ln, tok = tokens.take("cell line")
        cells.append(parse_tokens(int, tok, "cell index", ln))
        cell_lines.append(ln)

    cons = []
    edge_lines = []
    if tokens.peek() is not None:
        for _ in range(tokens.header("E", "k", "edge count")[1]):
            ln, tok = tokens.take("edge line")
            if len(tok) != 2:
                raise MeshFormatError("edge line must be 'i j'", line=ln)
            cons.append(parse_tokens(int, tok, "edge index", ln))
            edge_lines.append(ln)
    tokens.finish()
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
