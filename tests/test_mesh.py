import copy
import dataclasses

import numpy as np
import pytest

from polyagg import geometry
from polyagg.agglomerate import apply_labeling, trivial_labeling
from polyagg.mesh import (
    CellError,
    MergeConstraintError,
    MergeHoleError,
    MergeNonSimpleError,
    MeshError,
    MeshFormatError,
    PolygonalMesh,
    _union_loops,
    build_mesh,
    load_mesh,
    save_mesh,
)

from hypothesis import given, strategies as st

from conftest import (
    FUZZ_SETTINGS,
    adjacency_pairs,
    grid_mesh,
    mesh_fields,
    mixed_region_mesh,
    mutated_file,
    ref_build_mesh_cells,
    ref_by_vertex_count,
    ref_neighbors,
)


TWO_SQUARES = dict(
    points=[[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]],
    cells=[[0, 1, 4, 5], [1, 2, 3, 4]],
)


def test_single_cell_mesh():
    m = build_mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])
    assert m.n_edges == 4
    assert adjacency_pairs(m) == []
    assert m.h == pytest.approx(np.sqrt(2))


def test_two_squares_adjacency():
    m = build_mesh(**TWO_SQUARES)
    assert adjacency_pairs(m) == [(0, 1)]


def test_constrained_edge_breaks_adjacency():
    m = build_mesh(**TWO_SQUARES, constrained_edges=[(1, 4)])
    assert adjacency_pairs(m) == []
    assert m.vertex_constrained[1] and m.vertex_constrained[4]


def test_adjacent_pairs_match_edge_table_reference():
    """``adjacent`` holds each pair of cells across an unconstrained shared
    edge once, a < b, ascending, as int64 arrays."""
    cut = build_mesh(**TWO_SQUARES, constrained_edges=[(1, 4)])
    for m in (grid_mesh(4, 3), mixed_region_mesh(), cut):
        a, b = m.adjacent
        assert a.dtype == b.dtype == np.int64
        ref = [(c, d) for c, nbs in enumerate(ref_neighbors(m)) for d in nbs if d > c]
        assert adjacency_pairs(m) == ref


def test_mesh_fields_sees_every_mesh_field():
    """Each PolygonalMesh field, changed alone, changes ``mesh_fields``: the
    bit-identity checks that compare meshes by it skip no table."""
    m = grid_mesh(2, 2)
    base = mesh_fields(m)
    names = [f.name for f in dataclasses.fields(PolygonalMesh)]
    assert list(base) == names
    for name in names:
        value = getattr(m, name)
        changed = copy.copy(m)
        setattr(changed, name, value + 1.0 if isinstance(value, float) else value[:-1])
        assert mesh_fields(changed) != base, name


def test_build_rejects_dangling_index():
    with pytest.raises(MeshError, match="missing vertex"):
        build_mesh([[0, 0], [1, 0], [1, 1]], [[0, 1, 5]])


def test_build_rejects_nonsimple_cell():
    with pytest.raises(MeshError, match="cell 0"):
        build_mesh([[0, 0], [1, 1], [1, 0], [0, 1]], [[0, 1, 2, 3]])


def test_build_rejects_pinched_cell():
    """Vertex 3 lies on the open interior of edge 0-1: two triangles joined
    at one point."""
    with pytest.raises(CellError, match="cell 0 is not a simple polygon"):
        build_mesh([[0, 0], [2, 0], [2, 2], [1, 0], [0, 2]], [[0, 1, 2, 3, 4]])


def test_build_rejects_overused_edge():
    pts = [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0.5], [0.5, -1]]
    cells = [[0, 1, 2, 3], [1, 4, 2], [5, 2, 1]]
    with pytest.raises(MeshError, match="shared by more than 2"):
        build_mesh(pts, cells)


def test_cw_cell_is_reversed():
    m = build_mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[3, 2, 1, 0]])
    assert m.cell_area[0] > 0


def test_tiling_total_area():
    m = grid_mesh(5, 4, 2.0, 1.0)
    assert m.total_area == pytest.approx(2.0, rel=1e-12)


def union_loop(mesh, cells):
    """The union loop of one cell set; raises its MergeError."""
    (loop,), (err,) = _union_loops(mesh, [cells])
    if err is not None:
        raise err
    return loop


def test_merge_two_squares():
    m = build_mesh(**TWO_SQUARES)
    loop = union_loop(m, [0, 1])
    assert loop.tolist() == [0, 1, 2, 3, 4, 5]  # midside nodes retained
    assert geometry.polygon_area(m.points[loop]) == pytest.approx(2.0, rel=1e-12)


def test_merge_singleton_identity():
    m = build_mesh(**TWO_SQUARES)
    assert union_loop(m, [1]).tolist() == [1, 2, 3, 4]
    assert geometry.polygon_area(m.points[union_loop(m, [0])]) == pytest.approx(1.0)


def test_merge_disconnected_raises():
    m = grid_mesh(3, 1)
    with pytest.raises(MergeNonSimpleError, match="union is not edge-connected"):
        union_loop(m, [0, 2])


def test_merge_ring_hole_raises():
    m = grid_mesh(3, 3)
    ring = [0, 1, 2, 3, 5, 6, 7, 8]  # all but the center cell
    with pytest.raises(MergeHoleError):
        union_loop(m, ring)


def test_merge_not_connected_across_constraint():
    m = build_mesh(**TWO_SQUARES, constrained_edges=[(1, 4)])
    with pytest.raises(MergeConstraintError):
        union_loop(m, [0, 1])


def test_merge_area_additivity():
    m = grid_mesh(3, 2)
    loop = union_loop(m, [0, 1, 3, 4])
    area = geometry.polygon_area(m.points[loop])
    assert area == pytest.approx(float(m.cell_area[[0, 1, 3, 4]].sum()), rel=1e-12)


def simplify(mesh):
    """The mesh with its aligned hanging vertices dropped: one rebuild of
    the cells as they are."""
    return apply_labeling(mesh, trivial_labeling(mesh.n_cells))


def test_simplify_removes_unshared_midside():
    pts = [[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]]
    m = build_mesh(pts, [[0, 1, 2, 3, 4, 5]])
    out = simplify(m)
    assert out.n_vertices == 4
    assert out.total_area == pytest.approx(2.0, rel=1e-12)


def test_simplify_keeps_shared_midside():
    # vertex 1 is also used by the lower neighbor: three incident edges
    pts = [[0, 0], [1, 0], [2, 0], [2, 1], [0, 1], [1, -1]]
    m = build_mesh(pts, [[0, 1, 2, 3, 4], [0, 5, 1], [5, 2, 1]])
    out = simplify(m)
    assert out.n_vertices == m.n_vertices


def test_simplify_keeps_constrained_midside():
    pts = [[0, 0], [1, 0], [2, 0], [2, 1], [0, 1]]
    m = build_mesh(pts, [[0, 1, 2, 3, 4]], constrained_edges=[(0, 1)])
    out = simplify(m)
    assert out.n_vertices == 5


def test_simplify_idempotent():
    pts = [[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]]
    m = build_mesh(pts, [[0, 1, 2, 3, 4, 5]])
    once = simplify(m)
    twice = simplify(once)
    assert once.n_vertices == twice.n_vertices
    assert [list(c) for c in once.cells] == [list(c) for c in twice.cells]


def test_simplify_preserves_area_on_grid():
    m = grid_mesh(4, 4, jitter=0.3, seed=3)
    out = simplify(m)
    assert out.total_area == pytest.approx(m.total_area, rel=1e-10)


def test_mesh_io_roundtrip(tmp_path):
    m = build_mesh(**TWO_SQUARES, constrained_edges=[(1, 4)])
    path = tmp_path / "two.mesh"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert m2.n_cells == m.n_cells
    assert np.allclose(m2.points, m.points)
    assert adjacency_pairs(m2) == adjacency_pairs(m)
    assert m2.constrained_edge_pairs() == m.constrained_edge_pairs()
    assert np.array_equal(m2.vertex_constrained, m.vertex_constrained)


def test_mesh_io_comments_and_flags(tmp_path):
    path = tmp_path / "m.mesh"
    path.write_text(
        "# a comment\nV 4\n0 0\n1 0 1\n1 1\n0 1\nC 1\n0 1 2 3\n"
    )
    m = load_mesh(path)
    assert m.vertex_constrained[1]
    assert m.n_cells == 1


def test_mesh_io_error_has_line(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("V 2\n0 0\nnope 1\n")
    with pytest.raises(MeshFormatError, match="line 3"):
        load_mesh(path)


@pytest.mark.parametrize("flag", ["x", "2", "-1", "1.0"])
def test_mesh_io_rejects_a_vertex_flag_other_than_0_or_1(tmp_path, flag):
    path = tmp_path / "flag.mesh"
    path.write_text(f"V 4\n0 0 0\n1 0 {flag}\n1 1\n0 1 1\nC 1\n0 1 2 3\n")
    with pytest.raises(MeshFormatError, match=f"line 3: vertex flag must be 0 or 1, got '{flag}'"):
        load_mesh(path)


# two unit squares sharing the constrained edge 1-4
VALID_MESH = "V 6\n0 0\n1 0 1\n2 0\n2 1\n1 1 1\n0 1\nC 2\n0 1 4 5\n1 2 3 4\nE 1\n1 4\n"


def test_valid_mesh_fixture_loads(tmp_path):
    path = tmp_path / "ok.mesh"
    path.write_text(VALID_MESH)
    assert load_mesh(path).n_cells == 2


@FUZZ_SETTINGS
@given(text=mutated_file(VALID_MESH))
def test_load_mesh_fuzz_raises_only_line_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.mesh"
    path.write_text(text)
    try:
        load_mesh(path)
    except MeshFormatError as err:
        assert err.line is not None, f"no line number: {err}"


# two unit squares, a triangle on the right and a quad on top: cells of three
# vertex counts, listed so that cell order and vertex-count order differ
MIXED = dict(
    points=[[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1], [3, 0.5], [1, 2], [0, 2]],
    cells=[[0, 1, 4, 5], [2, 6, 3], [1, 2, 3, 4], [5, 4, 7, 8]],
)


def test_edges_numbered_by_first_occurrence():
    m = build_mesh(**MIXED)
    assert m.edges.dtype == np.int64 and m.edge_cells.dtype == np.int64
    assert m.edges.tolist() == [[0, 1], [1, 4], [4, 5], [0, 5], [2, 6], [3, 6], [2, 3],
                                [1, 2], [3, 4], [4, 7], [7, 8], [5, 8]]
    assert m.edge_cells.tolist() == [[0, -1], [0, 2], [0, 3], [0, -1], [1, -1], [1, -1],
                                     [1, 2], [2, -1], [2, -1], [3, -1], [3, -1], [3, -1]]
    assert adjacency_pairs(m) == [(0, 2), (0, 3), (1, 2)]
    assert [list(c) for c in m.cells] == MIXED["cells"]


def test_edge_ids_find_every_edge_and_no_other_pair():
    """Each edge is found from both vertex orders; cell diagonals, a vertex
    paired with itself and pairs with an id outside the mesh are no edge,
    also where their key u * nv + v equals an edge's: (1, 12) that of (2, 3)
    and (-1, 10) that of (0, 1)."""
    m = build_mesh(**MIXED)
    u, v = m.edges[:, 0], m.edges[:, 1]
    ids = np.arange(m.n_edges)
    assert np.array_equal(m.edge_ids(u, v), ids)
    assert np.array_equal(m.edge_ids(v, u), ids)
    assert m.edge_ids([0, 1, 4, 1, -1], [4, 3, 4, 12, 10]).tolist() == [-1] * 5
    assert m.edge_ids(4, 1) == 1


def test_lowest_failing_cell_is_reported():
    pts = MIXED["points"]
    cells = [[0, 1, 4, 5], [2, 6, 9], [0, 4, 1, 5], [5, 4, 4, 8], [0, 1, 2, 2, 3]]
    # cell 1 (a triangle) is checked in another group than cell 2 (a quad)
    with pytest.raises(CellError, match="^cell 1 references a missing vertex$"):
        build_mesh(pts, cells)
    cells[1] = [2, 6, 3]
    with pytest.raises(CellError, match="^cell 2 is not a simple polygon$"):
        build_mesh(pts, cells)
    cells[2] = [1, 2, 3, 4]
    with pytest.raises(CellError, match="^cell 3 repeats consecutive vertices$"):
        build_mesh(pts, cells)
    # a cell failing several checks gets the message of the first
    cells[3] = [5, 5, 9, 8]
    with pytest.raises(CellError, match="^cell 3 references a missing vertex$"):
        build_mesh(pts, cells)
    cells[3] = [5, 4, 7, 8]
    with pytest.raises(CellError, match="^cell 4 repeats consecutive vertices$"):
        build_mesh(pts, cells)
    cells[4] = [0, 1, 2, 0, 3]
    with pytest.raises(CellError, match="^cell 4 visits a vertex twice$"):
        build_mesh(pts, cells)


@pytest.mark.parametrize("third, message", [
    # cell 2 first repeats edge 0-1 of cell 0 in its direction
    ([0, 1, 4, 5], "cell 2 has edge (0, 1) traversed twice in the same direction"),
    # cell 2 first uses edge 1-4, which cells 0 and 1 already share
    ([1, 4, 5, 0], "cell 2 has edge (1, 4), which is shared by more than 2 cells"),
])
def test_first_edge_error_in_traversal_order(third, message):
    with pytest.raises(CellError) as err:
        build_mesh(TWO_SQUARES["points"], TWO_SQUARES["cells"] + [third])
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("bad, message", [
    ([0, 1, [2, 3]], "must list integer vertex indices"),
    ([0, 1, "x"], "must list integer vertex indices"),
    ([0, 1, None], "must list integer vertex indices"),
    ([0, 1, 2 ** 70], "references a missing vertex"),
    ([[0], [1], [2]], "must list at least 3 vertices"),
    (7, "must list at least 3 vertices"),
    ([0, 1], "must list at least 3 vertices"),
])
def test_unconvertible_cell_raises_at_its_index(bad, message):
    pts = MIXED["points"]
    cells = [[0, 1, 4, 5], [2, 6, 3], [1, 2, 3, 4], bad, [5, 4, 7, 8]]
    with pytest.raises(CellError, match=f"^cell 3 {message}$"):
        build_mesh(pts, cells)
    # a lower failing cell of another check wins over the conversion error
    cells[1] = [2, 3, 6]
    cells[2] = [1, 2, 1, 4]
    with pytest.raises(CellError, match="^cell 2 visits a vertex twice$"):
        build_mesh(pts, cells)


def test_non_integer_indices_truncate_as_before():
    m = build_mesh(TWO_SQUARES["points"], [[0.5, 1, 4, 5], [1, 2, 3, 4.9]])
    assert [list(c) for c in m.cells] == TWO_SQUARES["cells"]


def assert_cell_table(m):
    """``cells`` are the int64 views of the cell table, one per offset pair,
    and ``by_vertex_count`` gives what regrouping ``cells`` gives."""
    assert m.cell_vertices.dtype == m.cell_offsets.dtype == np.int64
    assert m.cell_offsets[0] == 0 and m.cell_offsets[-1] == len(m.cell_vertices)
    assert len(m.cells) == len(m.cell_offsets) - 1
    for ids, a, b in zip(m.cells, m.cell_offsets[:-1], m.cell_offsets[1:]):
        assert np.shares_memory(ids, m.cell_vertices)
        assert ids.dtype == np.int64 and ids.tolist() == m.cell_vertices[a:b].tolist()
    got = list(m.by_vertex_count())
    want = ref_by_vertex_count(m)
    assert [n for n, _, _ in got] == [n for n, _, _ in want]
    for (_, cids, ids), (n, ref_cids, ref_ids) in zip(got, want):
        assert cids.dtype == ids.dtype == np.int64 and ids.shape == (len(cids), n)
        assert np.array_equal(cids, ref_cids) and np.array_equal(ids, ref_ids)


def test_cell_table_of_mixed_meshes():
    mixed = mixed_region_mesh()
    for m in (build_mesh(np.zeros((0, 2)), []), grid_mesh(3, 2), mixed):
        assert_cell_table(m)
    assert len(list(mixed.by_vertex_count())) > 3


@st.composite
def mutated_cells(draw):
    """MIXED's cells after 1-3 random index replacements, insertions,
    deletions, reversals, rotations or copied cells."""
    cells = [list(c) for c in MIXED["cells"]]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("set", "insert", "delete", "reverse", "rotate", "copy")))
        c = draw(st.integers(0, len(cells) - 1))
        cell = cells[c]
        if op == "set":
            cell[draw(st.integers(0, len(cell) - 1))] = draw(
                st.sampled_from((-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2 ** 63, 2 ** 70)))
        elif op == "insert":
            cell.insert(draw(st.integers(0, len(cell))), draw(st.integers(-1, 9)))
        elif op == "delete" and cell:
            del cell[draw(st.integers(0, len(cell) - 1))]
        elif op == "reverse":
            cell.reverse()
        elif op == "rotate":
            cells[c] = cell[1:] + cell[:1]
        elif op == "copy":
            cells.insert(draw(st.integers(0, len(cells))), list(cell))
    return cells


@FUZZ_SETTINGS
@given(cells=mutated_cells(), compact=st.booleans())
def test_build_mesh_matches_per_cell_reference(cells, compact):
    try:
        ref = ref_build_mesh_cells(MIXED["points"], cells, compact)
    except CellError as err:
        with pytest.raises(CellError) as got:
            build_mesh(MIXED["points"], cells, compact=compact)
        assert str(got.value) == str(err)
        return
    m = build_mesh(MIXED["points"], cells, compact=compact)
    ref_cells, ref_edges, ref_edge_cells = ref
    assert [c.tolist() for c in m.cells] == [c.tolist() for c in ref_cells]
    assert_cell_table(m)
    assert m.edges.dtype == m.edge_cells.dtype == np.int64
    assert m.edges.shape == m.edge_cells.shape == (len(ref_edges), 2)
    assert m.edges.tolist() == [list(e) for e in ref_edges]
    assert m.edge_cells.tolist() == [list(cs) + [-1] * (2 - len(cs)) for cs in ref_edge_cells]
