import numpy as np
import pytest

from polyagg import vem
from polyagg.agglomerate import AgglomerationConfig, agglomerate
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
    dirichlet_boundary_edges,
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
from polyagg.mesh import build_mesh
from polyagg.solutions import CATALOG


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


def test_parallel_fractures_no_trace():
    fa = make_fracture([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], fid=0)
    fb = make_fracture([(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], fid=1)
    assert compute_traces([fa, fb]) == []


def test_coplanar_overlap_rejected():
    fa = make_fracture([(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)], fid=0)
    fb = make_fracture([(1, 1, 0), (3, 1, 0), (3, 3, 0), (1, 3, 0)], fid=1)
    with pytest.raises(NetworkError, match="coplanar"):
        compute_traces([fa, fb])


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
    fr = make_fracture(
        [(0, 0, 0), (2, 0, 0), (3, 2, 0), (1.5, 3.5, 0), (-0.5, 2, 0)], fid=0
    )
    m = triangulate_fracture(fr, max_area=0.05)
    from polyagg.geometry import polygon_area

    assert m.total_area == pytest.approx(
        abs(polygon_area(fr.local_polygon)), rel=1e-10
    )
    assert m.cell_area.max() <= 0.05 + 1e-12


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
    e = out.edge_index.get(tuple(sorted(
        [int(np.argmin(np.linalg.norm(out.points - [1, 0], axis=1))),
         int(np.argmin(np.linalg.norm(out.points - [1, 1], axis=1)))]
    )))
    assert out.edge_constrained[e]
    assert out.adjacency_pairs() == []


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
        e = mesh.edge_index.get((min(v0, v1), max(v0, v1)))
        if e is None or not mesh.edge_constrained[e]:
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


# ---------------------------------------------------------------------------
# assembly and solve
# ---------------------------------------------------------------------------

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
    system, _ = assemble_network(network, {0: mesh}, gmap, 2,
                                 sources=case.sources(),
                                 dirichlet_values=case.dirichlet_values())
    ref, _ = vem.assemble(mesh, 2, f=ms.f, dirichlet=ms.u)
    assert (system.A != ref.A).nnz == 0
    assert np.array_equal(system.b, ref.b)
    assert np.array_equal(system.dirichlet_idx, ref.dirichlet_idx)
    assert np.array_equal(system.dirichlet_val, ref.dirichlet_val)


def test_dirichlet_excludes_trace_covered_boundary():
    case = network1()
    network = case.network
    f2 = network.fractures[1]
    mesh = triangulate_fracture(f2, max_area=0.1)
    segs = [t.local_segment(f2) for t in network.fracture_traces(1)]
    cut = cut_by_traces(mesh, segs)
    edges = dirichlet_boundary_edges(cut, f2, network.fracture_traces(1),
                                     scale=network.scale)
    # the right edge x=0 of F2 is the trace with F3: never Dirichlet
    for e in edges:
        u, v = cut.edges[int(e)]
        assert not (
            abs(cut.points[u][0]) < 1e-9 and abs(cut.points[v][0]) < 1e-9
        )
    assert len(edges) > 0


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


@pytest.mark.parametrize("k", [1, 2])
def test_partial_dirichlet_planes_leave_neumann_boundary(tmp_path, k):
    path = tmp_path / "net.dfn"
    path.write_text(TWO_FRACTURES)
    case = load_network(path)
    disc = discretize_network(case, max_area=0.05)
    rep = solve_discretized(disc, k, estimate_condition=False, keep_system=True)
    assert np.isfinite(rep.solution).all()
    system = rep.system
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


def test_load_network_bad_file(tmp_path):
    path = tmp_path / "bad.dfn"
    path.write_text("F 1\n3\n0 0 0\n1 0 0\n")
    from polyagg.mesh import MeshFormatError

    with pytest.raises(MeshFormatError):
        load_network(path)
