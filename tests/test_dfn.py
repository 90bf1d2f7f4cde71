import dataclasses
import importlib.util
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given

from polyagg import dfn, mesh as mesh_mod, vem
from polyagg.agglomerate import AgglomerationConfig, agglomerate, apply_labeling, energy, minimize
from polyagg.dfn import (
    NetworkError,
    _f1,
    _f2,
    _f3,
    _grad1,
    _grad2,
    _grad3,
    _u1,
    _u2,
    _u3,
    assemble_network,
    build_global_dofmap,
    compute_traces,
    cut_by_traces,
    discretize_network,
    load_network,
    make_fracture,
    network1,
    solve_discretized,
    stitch_meshes,
    triangulate_fracture,
    FractureNetwork,
    NetworkCase,
    FractureSolution,
)
from polyagg.mesh import MeshError, MeshFormatError, build_mesh
from polyagg.solutions import CATALOG

from conftest import (
    FUZZ_SETTINGS,
    TWO_CROSSING_PAIRS,
    adjacency_pairs,
    cell_dofs,
    dof_maps_equal,
    mesh_fields,
    mutated_file,
    ref_build_dof_map,
    ref_build_local_system,
    ref_compute_traces,
    ref_cut_by_traces,
    ref_dirichlet_boundary_edges,
    ref_dof_positions,
    ref_eliminated_system,
    ref_forest_roots,
    ref_global_dof_ids,
    ref_on_trace_vertices,
    ref_stitch_meshes,
    ref_triangulate_once,
    random_rectangle_network,
)


# ---------------------------------------------------------------------------
# geometry of network 1
# ---------------------------------------------------------------------------

def test_network1_three_traces():
    case = network1()
    assert len(case.network.traces) == 3


def test_network1_f1_f2_trace():
    case = network1()
    tr = [t for t in case.network.traces if {t.frac_i, t.frac_j} == {0, 1}][0]
    assert tr.a3 == pytest.approx([-1.0, 0.0, 0.0], abs=1e-12)
    assert tr.b3 == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_network1_trace_interior_endpoint():
    # the F1/F2 trace ends strictly inside F1 (the singular point of u1)
    case = network1()
    f1 = case.network.fractures[0]
    tr = [t for t in case.network.traces if {t.frac_i, t.frac_j} == {0, 1}][0]
    poly = f1.local_polygon
    from polyagg.geometry import point_in_polygon

    end = f1.to_local(tr.b3[None, :])[0]
    assert point_in_polygon(poly, end) == 1


def test_clockwise_fractures_under_a_frame_are_reversed():
    """network1 with every vertex list clockwise in its frame gets the
    counter-clockwise vertices back: the meshes, trace matches and report
    values are network1's, bit for bit."""
    case = network1()
    fractures = [make_fracture(f.vertices3[::-1], fid=f.fid, frame=(f.origin, f.u_axis, f.v_axis))
                 for f in case.network.fractures]
    for f, back in zip(case.network.fractures, fractures, strict=True):
        assert back.vertices3.tobytes() == f.vertices3.tobytes()
    twin = NetworkCase(case.name, FractureNetwork(fractures, compute_traces(fractures)), case.exact)
    runs = []
    for c in (case, twin):
        disc = discretize_network(c, max_area=5e-2, lam=1.0)
        rep = solve_discretized(disc, 2)
        runs.append(({fid: mesh_fields(m) for fid, m in disc.meshes.items()}, disc.matches,
                     [getattr(rep, name) for name in ("cells", "dofs", "nnz", "cond", "err_l2",
                                                      "err_h1", "max_pi_nabla", "max_pi_0")],
                     rep.solution.tobytes()))
    assert runs[0] == runs[1]


def test_parallel_fractures_no_trace():
    fa = make_fracture([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], fid=0)
    fb = make_fracture([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], fid=1)
    assert compute_traces([fa, fb]) == []


def test_coplanar_overlap_rejected():
    fa = make_fracture([(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)], fid=0)
    fb = make_fracture([(1, 1, 0), (3, 1, 0), (3, 3, 0), (1, 3, 0)], fid=1)
    with pytest.raises(NetworkError, match="coplanar"):
        compute_traces([fa, fb])


def test_traces_match_segment_clip_reference(rng):
    """The overlap of the two plane sections is the section of one fracture
    clipped to the other (Cyrus-Beck), within 1e-12 x the network scale;
    on network1 it is the same bit for bit."""
    net = network1().network
    want = ref_compute_traces(net.fractures)
    assert [(t.frac_i, t.frac_j, t.a3.tobytes(), t.b3.tobytes()) for t in net.traces] == [
        (i, j, a.tobytes(), b.tobytes()) for i, j, a, b in want]
    count = 0
    for _ in range(100):
        fractures = random_rectangle_network(rng, 4)
        got, want = compute_traces(fractures), ref_compute_traces(fractures)
        assert [(t.frac_i, t.frac_j) for t in got] == [(i, j) for i, j, _, _ in want]
        allv = np.vstack([f.vertices3 for f in fractures])
        scale = np.linalg.norm(allv.max(0) - allv.min(0))
        for t, (_, _, a, b) in zip(got, want):
            np.testing.assert_allclose(t.a3, a, rtol=0.0, atol=1e-12 * scale)
            np.testing.assert_allclose(t.b3, b, rtol=0.0, atol=1e-12 * scale)
        count += len(got)
    assert count > 100


def test_exact_solution_continuity_across_traces():
    case = network1()
    frs = case.network.fractures
    sols = case.exact
    for tr in case.network.traces:
        t = np.linspace(0.02, 0.98, 17)[:, None]
        pts3 = tr.a3 + t * (tr.b3 - tr.a3)
        ui = sols[tr.frac_i].u(frs[tr.frac_i].to_local(pts3))
        uj = sols[tr.frac_j].u(frs[tr.frac_j].to_local(pts3))
        assert np.allclose(ui, uj, atol=1e-12)


@pytest.mark.parametrize(
    "u,grad,f,avoid",
    [
        (_u1, _grad1, _f1, "y"),
        (_u2, _grad2, _f2, "y"),
        (_u3, _grad3, _f3, None),
    ],
    ids=["F1", "F2", "F3"],
)
def test_sources_match_finite_differences(u, grad, f, avoid):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.9, 0.45, size=(60, 2))
    if avoid:  # keep clear of the |.| kink and the atan2 branch line
        pts[:, 1] = np.where(np.abs(pts[:, 1]) < 0.15, 0.3, pts[:, 1])
    h = 1e-5
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    lap = (
        u(pts + ex) + u(pts - ex) + u(pts + ey) + u(pts - ey) - 4 * u(pts)
    ) / h**2
    assert np.allclose(f(pts), -lap, atol=2e-4, rtol=2e-4)
    gx = (u(pts + ex) - u(pts - ex)) / (2 * h)
    gy = (u(pts + ey) - u(pts - ey)) / (2 * h)
    g = grad(pts)
    assert np.allclose(g[:, 0], gx, atol=1e-8, rtol=1e-6)
    assert np.allclose(g[:, 1], gy, atol=1e-8, rtol=1e-6)


def test_network1_f3_formula():
    p = np.array([[0.3, 0.7], [-0.5, 0.2]])
    y, z = p[:, 0], p[:, 1]
    expected = -(6 * y * z * (z - 1) + 2 * y * (y**2 - 1))
    assert np.allclose(_f3(p), expected, atol=1e-14)


# ---------------------------------------------------------------------------
# triangulation
# ---------------------------------------------------------------------------

def square_fracture(side=2.0):
    return make_fracture(
        [(0, 0, 0), (side, 0, 0), (side, side, 0), (0, side, 0)], fid=0
    )


def pentagon_fracture():
    return make_fracture(
        [(0, 0, 0), (2, 0, 0), (3, 2, 0), (1.5, 3.5, 0), (-0.5, 2, 0)], fid=0
    )


def tilted_triangle_fracture():
    return make_fracture([(0, 0, 0), (2, 0.3, 0.5), (0.4, 1.7, 0.9)], fid=1)


def test_triangulate_area_mode():
    fr = square_fracture(2.0)
    m = triangulate_fracture(fr, max_area=0.1)
    assert m.n_cells >= 80  # area bound forces at least area/target quads
    assert m.cell_area.max() <= 0.1 + 1e-12
    assert m.total_area == pytest.approx(4.0, rel=1e-12)
    assert (m.cell_area > 0).all()


@pytest.mark.parametrize("target", [1e-1, 1e-2, 1e-3])
def test_triangulate_paper_resolutions(target):
    fr = square_fracture(2.0)
    m = triangulate_fracture(fr, max_area=target)
    assert m.cell_area.max() <= target + 1e-12
    assert m.total_area == pytest.approx(4.0, rel=1e-10)


def test_triangulate_count_mode():
    fr = square_fracture(2.0)
    m = triangulate_fracture(fr, n_cells=100)
    assert abs(m.n_cells - 100) <= 20


def test_triangulate_convex_polygon():
    fr = pentagon_fracture()
    m = triangulate_fracture(fr, max_area=0.05)
    from polyagg.geometry import polygon_area

    assert m.total_area == pytest.approx(
        abs(polygon_area(fr.local_polygon)), rel=1e-10
    )
    assert m.cell_area.max() <= 0.05 + 1e-12


def _triangulation_or_error(triangulate, *args):
    try:
        return mesh_fields(triangulate(*args))
    except NetworkError as err:
        return type(err), str(err)


TRIANGULATION_CASES = (
    [pytest.param(fid, area, factor, id=f"network1-{fid}-{area}-{factor}")
     for fid in range(3) for area in (1e-1, 2e-2, 5e-3, 1e-3) for factor in (1.0, 0.5, 0.25, 0.0)]
    + [pytest.param(name, area, factor, id=f"{name}-{area}-{factor}")
       for name in ("pentagon", "triangle") for area in (0.05, 0.01) for factor in (1.0, 0.0)]
    + [pytest.param(name, None, factor, id=f"{name}-cells-{factor}")
       for name in (0, "pentagon", "triangle") for factor in (1.0, 0.0)]
)


@pytest.mark.parametrize("which, area, factor", TRIANGULATION_CASES)
def test_triangulation_matches_per_quad_reference(which, area, factor):
    """One stacked clip of all grid quads gives the per-quad loop's mesh
    (with its box-only path for network1) bit for bit, or its error."""
    if which == "pentagon":
        fr = pentagon_fracture()
    elif which == "triangle":
        fr = tilted_triangle_fracture()
    else:
        fr = network1().network.fractures[which]
    args = (fr, area, None if area else 100, dfn.JITTER * factor)
    got = _triangulation_or_error(dfn._triangulate_once, *args)
    assert got == _triangulation_or_error(ref_triangulate_once, *args)


# ---------------------------------------------------------------------------
# cutting
# ---------------------------------------------------------------------------

def test_cut_single_triangle_full_crossing():
    m = build_mesh([[0, 0], [2, 0], [0, 2]], [[0, 1, 2]])
    out = cut_by_traces(m, [((-1.0, 0.5), (3.0, 0.5))])
    assert out.n_cells == 2
    assert out.total_area == pytest.approx(2.0, rel=1e-12)
    # edges on y = 0.5 inside the triangle are constrained
    cons = [e for e in range(out.n_edges) if out.edge_constrained[e]]
    assert len(cons) >= 1
    for e in cons:
        u, v = out.edges[e]
        assert out.points[u][1] == pytest.approx(0.5)
        assert out.points[v][1] == pytest.approx(0.5)


def test_cut_endpoint_inside_cell():
    m = build_mesh([[0, 0], [2, 0], [2, 2], [0, 2]], [[0, 1, 2, 3]])
    out = cut_by_traces(m, [((0.0, 1.0), (1.0, 1.0))])
    # endpoint (1,1) becomes a constrained vertex; the extension to x=2 is cut
    hits = [
        v for v in range(out.n_vertices)
        if np.allclose(out.points[v], [1.0, 1.0])
    ]
    assert len(hits) == 1
    assert out.vertex_constrained[hits[0]]
    assert out.n_cells == 2
    # constrained part covers only [0,1]; extension edges stay unconstrained
    for e in range(out.n_edges):
        u, v = out.edges[e]
        pu, pv = out.points[u], out.points[v]
        on_line = abs(pu[1] - 1.0) < 1e-12 and abs(pv[1] - 1.0) < 1e-12
        if on_line and max(pu[0], pv[0]) > 1.0 + 1e-12:
            assert not out.edge_constrained[e]
        if on_line and max(pu[0], pv[0]) <= 1.0 + 1e-12:
            assert out.edge_constrained[e]


def test_cut_conserves_area_on_grid():
    fr = square_fracture(2.0)
    m = triangulate_fracture(fr, max_area=0.11)
    out = cut_by_traces(m, [((0.17, 0.0), (1.73, 2.0)), ((0.0, 1.03), (2.0, 0.91))])
    assert out.total_area == pytest.approx(m.total_area, rel=1e-10)
    assert out.n_cells > m.n_cells


def test_cut_along_existing_edges_flags_constraints():
    m = build_mesh(
        [[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]],
        [[0, 1, 4, 5], [1, 2, 3, 4]],
    )
    out = cut_by_traces(m, [((1.0, 0.0), (1.0, 1.0))])
    assert out.n_cells == 2
    e = out.edge_ids(np.argmin(np.linalg.norm(out.points - [1, 0], axis=1)),
                     np.argmin(np.linalg.norm(out.points - [1, 1], axis=1)))
    assert e >= 0 and out.edge_constrained[e]
    assert adjacency_pairs(out) == []


def on_trace_params(mesh, a2, b2, tol=1e-9):
    a2 = np.asarray(a2, dtype=float)
    d = np.asarray(b2, dtype=float) - a2
    L = np.hypot(*d)
    dn = d / L
    out = []
    for v in range(mesh.n_vertices):
        p = mesh.points[v]
        s = dn[0] * (p[1] - a2[1]) - dn[1] * (p[0] - a2[0])
        t = dn @ (p - a2)
        if abs(s) <= tol * L and -tol * L <= t <= L * (1 + tol):
            out.append((t, v))
    return sorted(out)


def trace_is_covered(mesh, a2, b2):
    nodes = on_trace_params(mesh, a2, b2)
    if len(nodes) < 2:
        return False
    for (t0, v0), (t1, v1) in zip(nodes, nodes[1:]):
        e = mesh.edge_ids(v0, v1)
        if e < 0 or not mesh.edge_constrained[e]:
            return False
    return True


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_agglomerate_fracture_keeps_trace_conforming(lam):
    fr = square_fracture(2.0)
    m = triangulate_fracture(fr, max_area=0.09)
    seg = ((0.13, 0.0), (1.87, 2.0))
    cut = cut_by_traces(m, [seg])
    res = agglomerate(cut, AgglomerationConfig(lam=lam))
    out = res.mesh
    assert trace_is_covered(out, *seg)
    assert out.total_area == pytest.approx(4.0, rel=1e-10)
    # no cell spans both sides of the trace
    a2 = np.asarray(seg[0])
    d = np.asarray(seg[1]) - a2
    dn = d / np.hypot(*d)
    for ids in out.cells:
        s = dn[0] * (out.points[ids][:, 1] - a2[1]) - dn[1] * (
            out.points[ids][:, 0] - a2[0]
        )
        assert s.min() > -1e-9 or s.max() < 1e-9


def _cut_cases():
    """(mesh, segments) of every cut above, each network1 fracture at area
    2e-2 with its traces, and a segment along an edge that ends inside it."""
    square = build_mesh([[0, 0], [2, 0], [2, 2], [0, 2]], [[0, 1, 2, 3]])
    cases = [
        (build_mesh([[0, 0], [2, 0], [0, 2]], [[0, 1, 2]]), [((-1.0, 0.5), (3.0, 0.5))]),
        (square, [((0.0, 1.0), (1.0, 1.0))]),
        (triangulate_fracture(square_fracture(2.0), max_area=0.11),
         [((0.17, 0.0), (1.73, 2.0)), ((0.0, 1.03), (2.0, 0.91))]),
        (build_mesh([[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]],
                    [[0, 1, 4, 5], [1, 2, 3, 4]]), [((1.0, 0.0), (1.0, 1.0))]),
        (triangulate_fracture(square_fracture(2.0), max_area=0.09),
         [((0.13, 0.0), (1.87, 2.0))]),
    ]
    case = network1()
    for fr in case.network.fractures:
        cases.append((triangulate_fracture(fr, max_area=2e-2),
                      [t.local_segment(fr) for t in case.network.fracture_traces(fr.fid)]))
    cases.append((build_mesh([[0, 0], [1, 0], [2, 0], [2, 2], [1, 2], [0, 2]],
                             [[0, 1, 4, 5], [1, 2, 3, 4]]), [((1.0, 0.0), (1.0, 1.0))]))
    return cases


@pytest.fixture(scope="module")
def cut_cases():
    return _cut_cases()


@pytest.mark.parametrize("k", range(9))
def test_cut_matches_scalar_reference(cut_cases, k):
    """Each of ``_cut_cases`` cuts into the mesh that the per-cell, per-edge
    loop on the mutable reference mesh makes, bit for bit."""
    mesh, segs = cut_cases[k]
    assert mesh_fields(cut_by_traces(mesh, segs)) == mesh_fields(ref_cut_by_traces(mesh, segs))


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_apply_labeling_of_cut_meshes_is_a_rebuild_fixed_point(cut_cases, lam):
    """On each cut mesh (network1 at area 2e-2 among them), apply_labeling
    gives the mesh that rebuilding its cells and constraints gives; at
    lambda = 0 that is the cut mesh itself."""
    for mesh, segs in cut_cases:
        cut = cut_by_traces(mesh, segs)
        if lam == 0.0:
            labels = np.arange(cut.n_cells)
        else:
            labels, _ = minimize(cut, AgglomerationConfig(lam=lam))
        out = apply_labeling(cut, labels)
        assert out is cut or lam > 0.0
        rebuilt = build_mesh(out.points, out.cells, out.constrained_edge_pairs(),
                             np.flatnonzero(out.vertex_constrained), compact=True)
        assert mesh_fields(out) == mesh_fields(rebuilt)


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------

def two_plane_network():
    fa = make_fracture(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], fid=0,
        frame=((0, 0, 0), (1, 0, 0), (0, 1, 0)),
    )
    fb = make_fracture(
        [(0, 0, -1), (1, 0, -1), (1, 0, 1), (0, 0, 1)], fid=1,
        frame=((0, 0, 0), (1, 0, 0), (0, 0, 1)),
    )
    traces = compute_traces([fa, fb])
    assert len(traces) == 1
    return FractureNetwork([fa, fb], traces)


def mesh_with_trace_nodes(params, constrained=True):
    """Unit square mesh whose bottom edge y=0 is split at the given params."""
    xs = [0.0] + sorted(params) + [1.0]
    pts = [[x, 0.0] for x in xs] + [[1.0, 1.0], [0.0, 1.0]]
    cell = list(range(len(xs))) + [len(xs), len(xs) + 1]
    cons = [(i, i + 1) for i in range(len(xs) - 1)] if constrained else []
    return build_mesh(pts, [cell], cons)


def test_stitch_union_of_params():
    network = two_plane_network()
    ma = mesh_with_trace_nodes([0.5])
    mb = mesh_with_trace_nodes([0.3])
    # fracture B's local frame maps the trace to its own y=0 line too
    out, matches = stitch_meshes({0: ma, 1: mb}, network)
    pa = [t for t, _ in matches[0][0]]
    pb = [t for t, _ in matches[0][1]]
    assert pa == pytest.approx([0.0, 0.3, 0.5, 1.0], abs=1e-12)
    assert pb == pytest.approx([0.0, 0.3, 0.5, 1.0], abs=1e-12)
    assert out[0].n_cells == ma.n_cells
    assert out[1].n_cells == mb.n_cells
    assert out[0].n_vertices == ma.n_vertices + 1
    assert out[1].n_vertices == mb.n_vertices + 1


def test_stitch_identical_partitions_no_insertion():
    network = two_plane_network()
    ma = mesh_with_trace_nodes([0.25, 0.5])
    mb = mesh_with_trace_nodes([0.25, 0.5])
    out, matches = stitch_meshes({0: ma, 1: mb}, network)
    assert out[0].n_vertices == ma.n_vertices
    assert out[1].n_vertices == mb.n_vertices


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stitch_conforming_dof_identification(k):
    network = two_plane_network()
    ma = mesh_with_trace_nodes([0.5])
    mb = mesh_with_trace_nodes([0.3])
    out, matches = stitch_meshes({0: ma, 1: mb}, network)
    gmap = build_global_dofmap(out, network, matches, k)
    t_total = sum(gmap.locals[f].total for f in (0, 1))
    n_nodes = 4  # union nodes on the trace
    n_edges = 3
    shared = n_nodes + (k - 1) * n_edges
    assert gmap.n_global == t_total - shared


def _assert_same_stitch(got, want):
    (out, matches), (ref_out, ref_matches) = got, want
    assert sorted(out) == sorted(ref_out)
    for fid in out:
        assert mesh_fields(out[fid]) == mesh_fields(ref_out[fid])
    assert matches == ref_matches


def test_on_trace_vertices_matches_scalar_scan(rng):
    """The on-trace vertices come out as the per-vertex scan sorts them: by
    parameter, then by id where two vertices share one (here pairs on either
    side of the trace, within the tolerance)."""
    tol = 1e-6
    t = rng.uniform(-0.2, 1.2, 60)
    s = rng.choice([-2 * tol, -0.5 * tol, 0.0, 0.5 * tol], 60)
    t[30:] = t[:30]
    pts = np.column_stack([t, s])[rng.permutation(60)]
    a2, dn = np.zeros(2), np.array([1.0, 0.0])
    got = dfn._on_trace_vertices(pts, a2, dn, 1.0, tol)
    assert got == ref_on_trace_vertices(pts, a2, dn, 1.0, tol)
    assert any(p == q for (p, _), (q, _) in zip(got, got[1:]))


@pytest.mark.parametrize("pa, pb", [([0.5], [0.3]), ([0.25, 0.5], [0.25, 0.5]), ([], [0.1, 0.7])])
def test_stitch_matches_scalar_reference(pa, pb):
    network = two_plane_network()
    meshes = {0: mesh_with_trace_nodes(pa), 1: mesh_with_trace_nodes(pb)}
    _assert_same_stitch(stitch_meshes(meshes, network), ref_stitch_meshes(meshes, network))


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_network1_stitch_matches_scalar_reference(monkeypatch, lam):
    """network1 at area 2e-2 stitches into the meshes and trace matches of
    the mutable reference mesh, bit for bit."""
    case = network1()
    captured = {}
    stitch = dfn.stitch_meshes

    def capture(meshes, network):
        captured["args"] = (meshes, network)
        return stitch(meshes, network)

    monkeypatch.setattr(dfn, "stitch_meshes", capture)
    disc = discretize_network(case, max_area=2e-2, lam=lam)
    monkeypatch.undo()
    got = stitch_meshes(*captured["args"])
    _assert_same_stitch(got, ref_stitch_meshes(*captured["args"]))
    _assert_same_stitch(got, (disc.meshes, disc.matches))


def test_random_network_cuts_match_reference(random_cuts):
    """Random fractures, some with three or more traces, crossing on tilted
    frames, cut into the meshes of the mutable reference mesh, bit for bit."""
    assert max(len(segs) for _, cuts in random_cuts for _, segs, _ in cuts.values()) >= 3
    for _, cuts in random_cuts:
        for tri, segs, tol_rel in cuts.values():
            assert mesh_fields(cut_by_traces(tri, segs, tol_rel=tol_rel)) == mesh_fields(
                ref_cut_by_traces(tri, segs, tol_rel=tol_rel))


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_random_network_stitch_matches_reference(random_cuts, lam):
    """The cut and agglomerated random networks stitch into the meshes and
    trace matches of the mutable reference mesh, bit for bit."""
    for network, cuts in random_cuts:
        meshes = {fid: agglomerate(cut_by_traces(tri, segs, tol_rel=tol_rel),
                                   AgglomerationConfig(lam=lam)).mesh
                  for fid, (tri, segs, tol_rel) in cuts.items()}
        _assert_same_stitch(stitch_meshes(meshes, network), ref_stitch_meshes(meshes, network))


def test_energy_final_is_that_of_the_applied_labeling(random_cuts):
    """A merge that apply_labeling skips leaves its cells with their own
    index: energy_final and energy_saved are the energies of that labeling,
    while the history stays the minimizer's."""
    config = AgglomerationConfig(lam=1.0)
    differ = 0
    for _, cuts in random_cuts:
        for tri, segs, tol_rel in cuts.values():
            mesh = cut_by_traces(tri, segs, tol_rel=tol_rel)
            res = agglomerate(mesh, config)
            skipped = []
            apply_labeling(mesh, res.labels, skipped)
            applied = res.labels.copy()
            for _, comp, _ in skipped:
                applied[comp] = comp
            e0, e = res.history[0].total, energy(mesh, applied, config).total
            assert (res.stats.energy_final, res.stats.energy_saved) == (e, (e0 - e) / e0)
            assert res.stats.skipped == skipped
            differ += e != res.history[-1].total
    assert differ > 0


# ---------------------------------------------------------------------------
# assembly and solve
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def network1_discs():
    """network1 at area 2e-2, triangulated (lambda=0) and agglomerated (1)."""
    case = network1()
    return case, {lam: discretize_network(case, max_area=2e-2, lam=lam) for lam in (0.0, 1.0)}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_dof_layer_matches_scalar_reference(network1_discs, lam, k):
    """Per-fracture DOF ids and positions equal the scalar loops' bit for bit."""
    case, discs = network1_discs
    disc = discs[lam]
    gmap = build_global_dofmap(disc.meshes, case.network, disc.matches, k)
    for fid, mesh in disc.meshes.items():
        dm, ref = gmap.locals[fid], ref_build_dof_map(mesh, k)
        assert dof_maps_equal(dm, ref)
        pos = vem.dof_positions(mesh, dm)
        assert pos.tobytes() == ref_dof_positions(mesh, ref).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_global_dofmap_matches_union_find_reference(network1_discs, k):
    """The global ids of the one components pass over the identified DOF
    pairs equal those of the per-pair union-find, and the Dirichlet edges
    those of the geometric trace cover, at both lambdas."""
    case, discs = network1_discs
    for disc in discs.values():
        _assert_trace_rules_match_geometry(case.network, disc.meshes, disc.matches, k)


def test_global_dofmap_edge_slot_errors(network1_discs):
    """At every order, a moved trace vertex fails as trace vertices apart, a
    trace node that ends no mesh edge with its neighbours fails as a missing
    covering edge, and with both on one trace the earlier node pair's
    failure is reported."""
    case, discs = network1_discs
    disc = discs[0.0]
    tr = case.network.traces[0]
    fb = tr.frac_j
    nodes = disc.matches[tr.tid][fb]
    assert len(nodes) >= 4
    mesh_b = disc.meshes[fb]
    moved = mesh_b.points.copy()
    (_, v1), (_, v2) = nodes[1], nodes[2]
    moved[v1] += 0.3 * (moved[v2] - moved[v1])
    meshes = {**disc.meshes, fb: dataclasses.replace(mesh_b, points=moved)}
    t, v = nodes[-2]
    far = int(np.argmax(np.linalg.norm(mesh_b.points - mesh_b.points[v], axis=1)))
    broken = {**disc.matches,
              tr.tid: {**disc.matches[tr.tid], fb: nodes[:-2] + [(t, far), nodes[-1]]}}
    for k in (1, 2, 3):
        with pytest.raises(MeshError, match=rf"trace {tr.tid}: trace vertices apart \(0\.\d+"):
            build_global_dofmap(meshes, case.network, disc.matches, k)
        with pytest.raises(MeshError, match=f"trace {tr.tid}: covering edge missing"):
            build_global_dofmap(disc.meshes, case.network, broken, k)
        with pytest.raises(MeshError, match="trace vertices apart"):
            build_global_dofmap(meshes, case.network, broken, k)


def _per_cell_system(network, meshes, gmap, sources):
    """The matrix, load and projector discrepancies of building each cell
    of each fracture alone, with its fracture's K and source."""
    frs = {f.fid: f for f in network.fractures}
    rows, cols, vals, dn, d0 = [], [], [], [], []
    b = np.zeros(gmap.n_global)
    for fid in sorted(meshes):
        mesh, f = meshes[fid], sources.get(fid)
        for ids, loc in zip(mesh.cells, cell_dofs(gmap.locals[fid]), strict=True):
            el = vem.build_element(mesh.points[ids], gmap.k)
            d = gmap.g[fid][loc]
            rows.append(np.repeat(d, len(d)))
            cols.append(np.tile(d, len(d)))
            vals.append(vem.local_stiffness(el, frs[fid].K).ravel())
            if f is not None:
                np.add.at(b, d, vem.local_load(el, f(el.qp)))
            dn.append(vem.projector_discrepancies(el)[0])
            d0.append(vem.projector_discrepancies(el)[1])
    A = sps.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(gmap.n_global, gmap.n_global)).tocsr()
    return A, b, np.array(dn), np.array(d0)


def _check_network_groups(case, disc, k):
    """One assembly over network-wide groups against the per-cell one:
    the eliminated matrix is exactly symmetric, matrix and lifted load agree
    to 1e-12 relative with the per-cell ones and the per-cell discrepancies
    to round-off.  Returns the system and the per-cell load before the lift."""
    network = case.network
    gmap = build_global_dofmap(disc.meshes, network, disc.matches, k)
    sources = case.sources()
    system, groups = assemble_network(network, disc.meshes, gmap, sources=sources,
                                      dirichlet_values=case.dirichlet_values())
    assert (system.A != system.A.T).nnz == 0
    A, b, dn, d0 = _per_cell_system(network, disc.meshes, gmap, sources)
    free, dirichlet = system.free_idx, system.dirichlet_idx
    A_free = A[free]
    assert abs(system.A - A_free[:, free]).max() <= 1e-12 * abs(A).max()
    b_free = b[free] - A_free[:, dirichlet] @ system.dirichlet_val
    assert np.abs(system.b - b_free).max() <= 1e-12 * max(np.abs(b_free).max(), 1.0)
    got_dn, got_d0 = vem.projection_discrepancy(groups)
    # the discrepancies are round-off themselves (up to 6e-8 at k=3); the
    # two builds differ in summation order only (measured up to 2e-11)
    assert np.abs(got_dn - dn).max() <= 1e-9 and np.abs(got_d0 - d0).max() <= 1e-9
    return system, b


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_network_groups_match_per_cell_assembly(network1_discs, lam, k):
    """network1: every fracture's cells in one group per vertex count give
    the system of building and scattering each cell alone."""
    case, discs = network1_discs
    _check_network_groups(case, discs[lam], k)


@pytest.fixture(scope="module")
def network1_fine_discs():
    """network1 at areas 1e-2 and 5e-3, each triangulated (lambda=0) and
    agglomerated (1)."""
    case = network1()
    return case, {(area, lam): discretize_network(case, max_area=area, lam=lam)
                  for area in (1e-2, 5e-3) for lam in (0.0, 1.0)}


def _network1_parts(case, disc, k):
    """The ``vem.Part`` of each fracture as ``assemble_network`` makes them,
    and the global DOF count."""
    gmap = build_global_dofmap(disc.meshes, case.network, disc.matches, k)
    frs = {f.fid: f for f in case.network.fractures}
    sources = case.sources()
    return [vem.Part(disc.meshes[fid], gmap.locals[fid], gmap.g[fid], frs[fid].K,
                     sources.get(fid)) for fid in sorted(disc.meshes)], gmap.n_global


def _assert_matches_one_stack(parts, n_global):
    """build_local_system gives the matrix (arrays and dtypes), the load
    vector and the per-cell discrepancies of the one-stack oracle, bit for
    bit; returns its groups."""
    groups, system = vem.build_local_system(parts, n_global)
    A, b = system.A, system.b
    ref_A, ref_b, ref_dn, ref_d0 = ref_build_local_system(parts, n_global)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(A, name), getattr(ref_A, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(b, ref_b)
    dn, d0 = vem.projection_discrepancy(groups)
    assert np.array_equal(dn, ref_dn) and np.array_equal(d0, ref_d0)
    return groups


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("area", [1e-2, 5e-3])
def test_blocked_element_pass_matches_one_stack(network1_fine_discs, area, lam, k):
    """The element pass in byte-bounded blocks, written into one int32 COO
    triple, equals one stack per vertex count."""
    case, discs = network1_fine_discs
    _assert_matches_one_stack(*_network1_parts(case, discs[area, lam], k))


def _assert_arrays_equal(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("area", [1e-2, 5e-3])
def test_eliminated_system_matches_sliced_full_operator(network1_fine_discs, area, lam, k):
    """The operator that assemble_network builds on the free DOFs alone is
    A[free][:, free].tocsc() of the full operator, arrays and dtypes bit for
    bit, its load is b[free] - A[free][:, dir] u_D, and the solution is the
    one of the factor of that operator."""
    case, discs = network1_fine_discs
    disc = discs[area, lam]
    parts, n_global = _network1_parts(case, disc, k)
    gmap = build_global_dofmap(disc.meshes, case.network, disc.matches, k)
    system, _ = assemble_network(case.network, disc.meshes, gmap, sources=case.sources(),
                                 dirichlet_values=case.dirichlet_values())
    dirichlet, dval, free = system.dirichlet_idx, system.dirichlet_val, system.free_idx
    A, b = ref_eliminated_system(parts, n_global, dirichlet, dval)
    assert isinstance(system.A, sps.csc_matrix) and system.A.shape == (len(free), len(free))
    _assert_arrays_equal(system.A, A)
    assert np.array_equal(system.b, b)
    x = np.empty(n_global)
    x[dirichlet], x[free] = dval, vem._factor_spd(A).solve(b)
    assert np.array_equal(vem.solve_spd(system), x)


def test_no_dirichlet_dofs_give_the_full_operator(network1_fine_discs):
    """Empty Dirichlet data leave every DOF free: the full operator and load."""
    case, discs = network1_fine_discs
    parts, n_global = _network1_parts(case, discs[1e-2, 1.0], 2)
    _, system = vem.build_local_system(parts, n_global, np.zeros(0, dtype=np.int64), np.zeros(0))
    A, b = system.A, system.b
    ref_A, ref_b, _, _ = ref_build_local_system(parts, n_global)
    assert A.shape == (n_global, n_global)
    assert np.array_equal(system.free_idx, np.arange(n_global))
    _assert_arrays_equal(A, ref_A)
    assert np.array_equal(b, ref_b)


def test_solve_stage_memory_is_bounded(network1_fine_discs):
    """At area 1e-2, lambda 0, k=3 (the benchmark's n1-k3 run) the memory
    still held after the solve, traced from the DOF map on, is at most 13 MB
    (17.0 MB when the system kept the full operator beside the eliminated
    one and the groups kept the mass matrices).  SuperLU's factor is not
    traced."""
    case, discs = network1_fine_discs
    disc = discs[1e-2, 0.0]
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gmap = build_global_dofmap(disc.meshes, case.network, disc.matches, 3)
        system, groups = assemble_network(case.network, disc.meshes, gmap,
                                          sources=case.sources(),
                                          dirichlet_values=case.dirichlet_values())
        x = vem.solve_spd(system)
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        if started:
            tracemalloc.stop()
    assert len(x) == gmap.n_global and system._factor is not None and groups
    assert live <= 13 * 2**20


def test_element_groups_spanning_many_blocks_match_one_stack(network1_fine_discs, monkeypatch):
    """With a block budget of a few cells, the large vertex-count groups
    span many blocks, and the pass still equals one stack."""
    case, discs = network1_fine_discs
    parts, n_global = _network1_parts(case, discs[5e-3, 1.0], 2)
    monkeypatch.setattr(vem, "_ELEMENT_BLOCK", 1 << 16)
    blocks = Counter(g.dofs.shape[1] for g in _assert_matches_one_stack(parts, n_global))
    assert max(blocks.values()) >= 10


def test_agglomerated_order_1_groups_are_single_blocks(network1_fine_discs):
    """At area 5e-3, lambda 1, k=1 (the benchmark's n1-agglo run) no vertex
    count's group splits: at order 1, blocks of a few hundred cells made
    the pass measurably slower."""
    case, discs = network1_fine_discs
    parts, n_global = _network1_parts(case, discs[5e-3, 1.0], 1)
    groups = vem.build_local_system(parts, n_global)[0]
    assert len(groups) == len({g.dofs.shape[1] for g in groups})


def test_element_pass_memory_is_bounded(network1_fine_discs):
    """At area 1e-2, lambda 0, k=3 the traced peak of the element pass is at
    most 30 MB (39.6 MB when each vertex count was one stack), and the
    groups keep none of the matrices that only the pass reads."""
    case, discs = network1_fine_discs
    parts, n_global = _network1_parts(case, discs[1e-2, 0.0], 3)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        groups = vem.build_local_system(parts, n_global)[0]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 30 * 2**20
    assert len(groups) > len({g.dofs.shape[1] for g in groups})
    assert not {"D", "pins", "pi0km1s", "H"} & set(vem.ElementGroup._fields)


def test_forest_roots_matches_find_on_deep_forests(rng):
    """Pointer jumping finds the roots a per-node ``find`` does, also on
    chains as deep as the forest is large."""
    for n in (0, 1, 2, 100, 1000):
        chain = np.maximum(np.arange(n) - 1, 0)
        random = np.array([rng.integers(0, i + 1) for i in range(n)], dtype=np.int64)
        for parent in (chain, random):
            assert np.array_equal(mesh_mod._forest_roots(parent), ref_forest_roots(parent))


def test_n1_k3_condition_estimate_matches_reference():
    """The k=3 condition estimate on network1 at area 1e-2, lambda=0 (the
    benchmark's n1-k3 run) equals the estimate through the COLAMD-ordered
    factor used before the symmetric ordering, to 1e-6 relative."""
    disc = discretize_network(network1(), max_area=1e-2, lam=0.0)
    rep = solve_discretized(disc, 3)
    assert rep.cond == pytest.approx(1.9420142434251862e11, rel=1e-6)


def test_single_fracture_matches_single_mesh():
    fr = make_fracture(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], fid=0,
        frame=((0, 0, 0), (1, 0, 0), (0, 1, 0)),
    )
    network = FractureNetwork([fr], [])
    ms = CATALOG["sinsin"]
    case = NetworkCase("single", network,
                       {0: FractureSolution(ms.u, ms.grad, ms.f)})
    mesh = triangulate_fracture(fr, max_area=0.03)
    gmap = build_global_dofmap({0: mesh}, network, {}, 2)
    system, _ = assemble_network(network, {0: mesh}, gmap,
                                 sources=case.sources(),
                                 dirichlet_values=case.dirichlet_values())
    ref, _ = vem.assemble(mesh, 2, f=ms.f, dirichlet=ms.u)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(system.A, name), getattr(ref.A, name))
    assert np.array_equal(system.b, ref.b)
    assert np.array_equal(system.dirichlet_idx, ref.dirichlet_idx)
    assert np.array_equal(system.dirichlet_val, ref.dirichlet_val)


def test_dirichlet_excludes_trace_covered_boundary():
    case = network1()
    network = case.network
    disc = discretize_network(case, max_area=0.1, lam=0.0)
    gmap = build_global_dofmap(disc.meshes, network, disc.matches, 1)
    cut = disc.meshes[1]
    edges = np.setdiff1d(cut.boundary_edge_ids(), gmap.trace_edges[1])
    # the right edge x=0 of F2 is the trace with F3: never Dirichlet
    for e in edges:
        u, v = cut.edges[int(e)]
        assert not (
            abs(cut.points[u][0]) < 1e-9 and abs(cut.points[v][0]) < 1e-9
        )
    assert len(edges) > 0


def _assert_trace_rules_match_geometry(network, meshes, matches, k):
    """The stitch's node lists give the global ids of the per-pair union-find
    with its Gauss-Lobatto position match, and their covering edges are
    exactly the boundary edges that lie on a trace: the Dirichlet DOFs of
    the assembly are those of the other boundary edges."""
    gmap = build_global_dofmap(meshes, network, matches, k)
    g, n_global = ref_global_dof_ids(meshes, network, matches, k)
    assert n_global == gmap.n_global < sum(dm.total for dm in gmap.locals.values())
    frs = {f.fid: f for f in network.fractures}
    want = []
    for fid, mesh in meshes.items():
        assert gmap.g[fid].dtype == np.int64 and np.array_equal(gmap.g[fid], g[fid])
        edges = ref_dirichlet_boundary_edges(mesh, frs[fid], network.fracture_traces(fid),
                                             network.scale)
        assert np.array_equal(
            np.setdiff1d(mesh.boundary_edge_ids(), gmap.trace_edges[fid]), edges)
        want.append(gmap.g[fid][vem.boundary_dofs(mesh, gmap.locals[fid], edges)])
    system, _ = assemble_network(network, meshes, gmap,
                                 dirichlet_values={fid: lambda p: p[:, 0] for fid in meshes})
    assert np.array_equal(system.dirichlet_idx, np.unique(np.concatenate(want)))


@pytest.fixture(scope="module")
def random_stitched(random_cuts):
    """(network, meshes, matches) of each random network, cut, agglomerated
    at lambda 0 and 1 and stitched."""
    out = []
    for network, cuts in random_cuts:
        for lam in (0.0, 1.0):
            meshes = {fid: agglomerate(cut_by_traces(tri, segs, tol_rel=tol_rel),
                                       AgglomerationConfig(lam=lam)).mesh
                      for fid, (tri, segs, tol_rel) in cuts.items()}
            out.append((network, *stitch_meshes(meshes, network)))
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_network_trace_rules_match_geometric_oracles(random_stitched, k):
    for network, meshes, matches in random_stitched:
        _assert_trace_rules_match_geometry(network, meshes, matches, k)


def test_solve_network_coarse():
    case = network1()
    disc = discretize_network(case, max_area=0.1, lam=0.0)
    rep = solve_discretized(disc, 1, estimate_condition=False)
    assert rep.err_l2 is not None and np.isfinite(rep.err_l2)
    assert rep.err_h1 is not None and np.isfinite(rep.err_h1)
    assert rep.err_l2 < 0.15  # h is ~0.4 here; rate checks live in acceptance
    assert rep.dofs > 0 and rep.cells > 0
    rep2 = solve_discretized(disc, 2, estimate_condition=False)
    assert rep2.err_l2 < rep.err_l2
    assert rep2.err_h1 < rep.err_h1


def test_solve_network_agglomerated_continuity():
    case = network1()
    disc = discretize_network(case, max_area=0.1, lam=1.0)
    # conformity: matched param lists identical across each pair
    for tr in case.network.traces:
        la = [t for t, _ in disc.matches[tr.tid][tr.frac_i]]
        lb = [t for t, _ in disc.matches[tr.tid][tr.frac_j]]
        assert la == pytest.approx(lb, abs=1e-12)
    rep = solve_discretized(disc, 1, estimate_condition=False)
    # probe solution continuity at matched trace vertices (shared unknown)
    gmap = rep.gmap
    for tr in case.network.traces:
        for (ta, va), (tb, vb) in zip(
            disc.matches[tr.tid][tr.frac_i], disc.matches[tr.tid][tr.frac_j]
        ):
            ga = gmap.g[tr.frac_i][va]
            gb = gmap.g[tr.frac_j][vb]
            assert ga == gb


# two orthogonal unit fractures; the planes z = -1 and z = 1 touch only the
# second one, so most of the boundary is homogeneous Neumann
TWO_FRACTURES = (
    "# two orthogonal unit fractures\n"
    "F 2\n"
    "4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
    "K 1.0 0.0 1.0\n"
    "4\n0 0 -1\n1 0 -1\n1 0 1\n0 0 1\n"
    "BC 2\n"
    "dirichlet 0 0 1 1 10.0\n"
    "dirichlet 0 0 -1 1 x + y\n"
)


def test_load_network_roundtrip(tmp_path):
    path = tmp_path / "net.dfn"
    path.write_text(TWO_FRACTURES)
    case = load_network(path)
    assert len(case.network.fractures) == 2
    assert len(case.network.traces) == 1
    assert len(case.network.bcs) == 2
    vals = case.network.bcs[0].value(np.array([[0.5, 0.5, -1.0]]))
    assert vals[0] == 10.0
    vals = case.network.bcs[1].value(np.array([[0.25, 0.5, 1.0]]))
    assert vals[0] == pytest.approx(0.75)


def test_long_bc_sum_within_the_depth_cap_loads_and_evaluates(tmp_path):
    """A 50-term sum nests 49 deep, inside the cap that rejects deeper ones."""
    path = tmp_path / "net.dfn"
    path.write_text(TWO_FRACTURES.replace("x + y", "+".join(["x"] * 50)))
    bc = load_network(path).network.bcs[1]
    assert bc.value(np.array([[0.25, 0.5, 1.0], [1.0, 0.0, 1.0]])).tolist() == [12.5, 50.0]


@pytest.mark.parametrize("k", [1, 2])
def test_partial_dirichlet_planes_leave_neumann_boundary(tmp_path, k):
    path = tmp_path / "net.dfn"
    path.write_text(TWO_FRACTURES)
    case = load_network(path)
    disc = discretize_network(case, max_area=0.05)
    rep = solve_discretized(disc, k, estimate_condition=False)
    assert np.isfinite(rep.solution).all()
    system, _ = assemble_network(case.network, disc.meshes, rep.gmap,
                                 dirichlet_values=case.dirichlet_values())
    assert np.isfinite(system.dirichlet_val).all()
    # exactly the DOFs on the two planes are Dirichlet, with their plane's value
    on_planes = {}
    for fr in case.network.fractures:
        mesh, dm = disc.meshes[fr.fid], rep.gmap.locals[fr.fid]
        p3 = fr.to_global(vem.dof_positions(mesh, dm))
        for d, (x, y, z) in zip(rep.gmap.g[fr.fid], p3):
            if abs(abs(z) - 1.0) < 1e-12:
                on_planes[int(d)] = 10.0 if z < 0 else x + y
    assert system.dirichlet_idx.tolist() == sorted(on_planes)
    assert system.dirichlet_val == pytest.approx(
        [on_planes[d] for d in system.dirichlet_idx], abs=1e-12
    )


def test_fracture_group_without_dirichlet_data_is_an_error(tmp_path):
    """Each group of fractures joined by traces needs a Dirichlet DOF: the
    second pair meets no plane.  With the plane x = 1 moved to x = 6, on the
    second pair, the network solves."""
    path = tmp_path / "net.dfn"
    path.write_text(TWO_CROSSING_PAIRS)
    case = load_network(path)
    assert sorted((t.frac_i, t.frac_j) for t in case.network.traces) == [(0, 1), (2, 3)]
    disc = discretize_network(case, max_area=0.05)
    for k in (1, 2):
        with pytest.raises(NetworkError, match=r"no Dirichlet boundary on fractures 2, 3 "):
            solve_discretized(disc, k, estimate_condition=False)
    path.write_text(TWO_CROSSING_PAIRS.replace("1 0 0 -1 0.0", "1 0 0 -6 0.0"))
    disc = discretize_network(load_network(path), max_area=0.05)
    assert np.isfinite(solve_discretized(disc, 1, estimate_condition=False).solution).all()


def test_non_finite_bc_value_on_its_plane_is_an_error(tmp_path):
    path = tmp_path / "net.dfn"
    path.write_text(TWO_FRACTURES.replace("x + y", "log(x - 2)"))
    disc = discretize_network(load_network(path), max_area=0.05)
    with pytest.raises(NetworkError, match="dirichlet plane 0 0 -1 1: value nan"):
        solve_discretized(disc, 1, estimate_condition=False)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_file_network_groups_with_fracture_k_match_per_cell_assembly(tmp_path, k):
    """Two file fractures with different K and no source: the network-wide
    groups give each cell its fracture's K, and the load stays zero."""
    path = tmp_path / "net.dfn"
    path.write_text(TWO_FRACTURES.replace("K 1.0 0.0 1.0", "K 3.0 0.5 1.5"))
    case = load_network(path)
    K0, K1 = (fr.K for fr in case.network.fractures)
    assert not np.array_equal(K0, K1)
    disc = discretize_network(case, max_area=0.05)
    _, b = _check_network_groups(case, disc, k)
    assert not b.any()


def test_load_network_bad_file(tmp_path):
    path = tmp_path / "bad.dfn"
    path.write_text("F 1\n3\n0 0 0\n1 0 0\n")
    from polyagg.mesh import MeshFormatError

    with pytest.raises(MeshFormatError):
        load_network(path)


# TWO_FRACTURES with its fractures swapped: the trace runs along the
# boundary of the pair's second fracture
TWO_FRACTURES_SWAPPED = (
    "F 2\n"
    "4\n0 0 -1\n1 0 -1\n1 0 1\n0 0 1\n"
    "4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
    "BC 2\n"
    "dirichlet 0 0 1 1 10.0\n"
    "dirichlet 0 0 -1 1 x + y\n"
)
# two unit squares that meet along a boundary edge of both
SHARED_EDGE = "F 2\n4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4\n0 0 0\n1 0 0\n1 0 1\n0 0 1\n"


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("text", [TWO_FRACTURES_SWAPPED, SHARED_EDGE], ids=["second", "both"])
def test_boundary_trace_rules_match_geometric_oracles(tmp_path, text, k):
    """A trace on the boundary of the pair's second fracture, or of both,
    gets the trace rules of the geometric oracles."""
    path = tmp_path / "net.dfn"
    path.write_text(text)
    case = load_network(path)
    assert [(tr.frac_i, tr.frac_j) for tr in case.network.traces] == [(0, 1)]
    for lam in (0.0, 1.0):
        disc = discretize_network(case, max_area=0.05, lam=lam)
        _assert_trace_rules_match_geometry(case.network, disc.meshes, disc.matches, k)


@pytest.mark.parametrize("plane", ["nan 0 1 1", "0 0 inf 1", "0 0 1 -inf", "0 0 0 0", "0 0 0 1"])
def test_bc_plane_non_finite_or_without_normal_fails_at_its_line(tmp_path, plane):
    """A NaN coefficient matches no boundary point and so drops the plane's
    data; a zero normal with d = 0 matches every boundary point."""
    path = tmp_path / "net.dfn"
    path.write_text(TWO_FRACTURES.replace("dirichlet 0 0 1 1", f"dirichlet {plane}"))
    with pytest.raises(MeshFormatError, match="line 15: dirichlet plane needs finite"):
        load_network(path)


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_non_finite_fracture_vertex_fails_at_its_line(tmp_path, coord):
    path = tmp_path / "net.dfn"
    for text, line in ((f"F 1\n4\n0 0 0\n1 0 0\n1 1 {coord}\n0 1 0\n", 5),
                       (TWO_FRACTURES.replace("1 1 0\n", f"1 1 {coord}\n"), 6)):
        path.write_text(text)
        with pytest.raises(MeshFormatError,
                           match=f"line {line}: non-finite fracture vertex coordinate"):
            load_network(path)
    with pytest.raises(NetworkError, match="fracture 3: non-finite vertex coordinate"):
        make_fracture([(0, 0, 0), (1, 0, 0), (1, 1, float(coord)), (0, 1, 0)], fid=3)


# TWO_FRACTURES with its trace written out, so that mutations reach the T block
TWO_FRACTURES_TRACED = TWO_FRACTURES.replace("BC 2", "T 1\n0 1 0 0 0 1 0 0\nBC 2")


# a unit square at z = 0, a vertical rectangle in y = 0.5 and a tilted one,
# all three through the line y = 0.5, z = 0
SHARED_LINE = [
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
    [(0, 0.5, -0.5), (1, 0.5, -0.5), (1, 0.5, 0.5), (0, 0.5, 0.5)],
    [(0, 0, -0.5), (1, 0, -0.5), (1, 1, 0.5), (0, 1, 0.5)],
]


def test_compute_traces_rejects_a_shared_trace_line():
    fractures = [make_fracture(verts, fid=fid) for fid, verts in enumerate(SHARED_LINE)]
    with pytest.raises(dfn.FractureError,
                       match="fracture 0 shares a trace line with two other fractures"):
        compute_traces(fractures)


def test_file_traces_on_a_shared_line_fail_at_the_later_trace(tmp_path):
    """Traces read from a ``T`` block get the shared-line check of computed
    ones, reported at the line of the trace that overlaps an earlier one."""
    path = tmp_path / "shared.dfn"
    blocks = "".join("4\n" + "".join(f"{x} {y} {z}\n" for x, y, z in verts)
                     for verts in SHARED_LINE)
    path.write_text(f"F 3\n{blocks}T 2\n0 1 0 0.5 0 1 0.5 0\n0 2 0 0.5 0 1 0.5 0\n")
    with pytest.raises(MeshFormatError, match="fracture 0 shares a trace line") as err:
        load_network(path)
    assert err.value.line == 19


def test_valid_network_fixture_loads(tmp_path):
    path = tmp_path / "ok.dfn"
    path.write_text(TWO_FRACTURES_TRACED)
    case = load_network(path)
    assert len(case.network.traces) == 1 and len(case.network.bcs) == 2


@FUZZ_SETTINGS
@given(text=mutated_file(TWO_FRACTURES_TRACED))
def test_load_network_fuzz_raises_only_line_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.dfn"
    path.write_text(text)
    try:
        load_network(path)
    except MeshFormatError as err:
        assert err.line is not None, f"no line number: {err}"


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["n1-agglo", "n1-k3"])
def test_benchmark_seed0_outputs(name):
    """network1 at the benchmark's seed-0 settings gives its reference cells,
    dofs, final energy and errors, so a change of results fails here too."""
    bench = _benchmark_workloads()
    work = bench.WORKLOADS[name]
    case = network1()
    disc = discretize_network(case, max_area=work.area, lam=work.lam)
    for k in work.orders:
        ref = work.references[k]
        rep = solve_discretized(disc, k, estimate_condition=False)
        assert (rep.cells, rep.dofs, rep.energy_final) == (ref.cells, ref.dofs, ref.energy_final)
        assert math.isclose(rep.err_l2, ref.err_l2, rel_tol=bench.ERR_RTOL, abs_tol=0.0)
        assert math.isclose(rep.err_h1, ref.err_h1, rel_tol=bench.ERR_RTOL, abs_tol=0.0)
