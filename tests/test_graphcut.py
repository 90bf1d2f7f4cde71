import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyagg import _kernels
from polyagg.agglomerate import (
    AgglomerationConfig,
    agglomerate,
    apply_labeling,
    energy,
    minimize,
    swap_move,
    trivial_labeling,
    warn_skipped,
)
from polyagg.dfn import cut_by_traces, network1, triangulate_fracture
from polyagg.geometry import COLLINEAR_TOL, KERNEL_REL_TOL
import polyagg.mesh as mesh_mod
from polyagg.mesh import build_mesh, load_mesh

import polyagg.agglomerate as agg
from conftest import (
    SLIVER_MESH,
    adjacency_pairs,
    grid_mesh,
    list_apply_labeling,
    list_union_rhos,
    mixed_region_mesh,
    mesh_fields,
    pack_rows,
    packed_min_cut,
    ref_label_components,
    ref_maxflow,
    ref_minimize,
    ref_quality_scores,
    ref_removable_vertices,
    ref_residual_source_set,
    ref_simplified_union_points,
    ref_simplify_aligned_edges,
    ref_union,
    run_python,
    tri_grid_mesh,
)

TWO_SQUARES = dict(
    points=[[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1]],
    cells=[[0, 1, 4, 5], [1, 2, 3, 4]],
)


def brute_force_cut(cap_s, cap_t, edges, caps):
    n = len(cap_s)
    best = None
    for bits in itertools.product((0, 1), repeat=n):
        # bit 1 = source side: pays its sink capacity
        cost = sum(cap_t[i] if bits[i] else cap_s[i] for i in range(n))
        for (u, v), c in zip(edges, caps):
            if bits[u] != bits[v]:
                cost += c
        if best is None or cost < best:
            best = cost
    return best


def test_min_cut_two_nodes():
    value, mask = packed_min_cut([5, 2], [3, 4], [], [])
    assert value == 5
    assert mask.tolist() == [True, False]


def test_min_cut_single_node():
    value, mask = packed_min_cut([7], [2], [], [])
    assert value == 2 and mask.tolist() == [True]


def test_min_cut_path_large_pairs():
    value, mask = packed_min_cut([5, 1, 3], [2, 2, 8], [(0, 1), (1, 2)], [100, 100])
    assert value == min(5 + 1 + 3, 2 + 2 + 8)
    assert mask.tolist() == [False] * 3  # all on the sink side is the unique optimum


def test_min_cut_matches_bruteforce(rng):
    for trial in range(120):
        n = int(rng.integers(1, 9))
        cap_s = rng.integers(0, 30, n)
        cap_t = rng.integers(0, 30, n)
        m = int(rng.integers(0, n * 2))
        edges = []
        caps = []
        for _ in range(m):
            u, v = rng.integers(0, n, 2)
            if u != v:
                edges.append((int(u), int(v)))
                caps.append(int(rng.integers(0, 20)))
        value, mask = packed_min_cut(cap_s, cap_t, edges, caps)
        assert value == brute_force_cut(list(cap_s), list(cap_t), edges, caps)
        # reported side must realize the reported value
        cost = sum(
            int(cap_t[i]) if mask[i] else int(cap_s[i]) for i in range(n)
        )
        for (u, v), c in zip(edges, caps):
            if mask[u] != mask[v]:
                cost += c
        assert cost == value


def test_maxflow_matches_networkx_residual_cut(rng):
    """Enumeration and augmenting paths give networkx's value and the
    residual source set."""
    sizes = []
    for trial in range(300):
        n = trial % 16 + 1
        cap_s = rng.integers(0, 5, n)
        cap_t = rng.integers(0, 5, n)
        edges = []
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u != v:
                edges.append((u, v))
                if rng.random() < 0.2:
                    edges.append((v, u) if rng.random() < 0.5 else (u, v))
        caps = [int(c) for c in rng.integers(0, 4, len(edges))]
        flow, mask = packed_min_cut(cap_s, cap_t, edges, caps)
        value, reach = ref_residual_source_set(n, cap_s, cap_t, edges, caps)
        assert flow == value
        assert mask.tolist() == reach
        a_flow, a_mask = packed_min_cut(cap_s, cap_t, edges, caps, _kernels._augmenting_paths)
        assert a_flow == flow
        assert np.array_equal(a_mask, mask)
        sizes.append(n)
    assert min(sizes) <= _kernels.ENUM_MAX_NODES < max(sizes)


def test_packed_maxflow_matches_reference(rng):
    """The packed enumeration gives the five-array enumeration's cut and
    value on graphs of 1 to ``ENUM_MAX_NODES`` nodes with parallel,
    reversed and zero edges."""
    for trial in range(240):
        n = trial % _kernels.ENUM_MAX_NODES + 1
        cap_s = rng.integers(0, 6, n)
        cap_t = rng.integers(0, 6, n)
        edges = [(int(u), int(v)) for u, v in rng.integers(0, n, (int(rng.integers(0, 3 * n)), 2))
                 if u != v]
        edges += [(v, u) for u, v in edges[:2]] + edges[:1]
        caps = rng.integers(0, 4, len(edges))
        ref_flow, ref_mask = ref_maxflow(
            cap_s, cap_t,
            np.array([u for u, _ in edges], dtype=np.int64),
            np.array([v for _, v in edges], dtype=np.int64),
            caps,
        )
        value, mask = packed_min_cut(cap_s, cap_t, edges, caps)
        assert value == ref_flow
        assert np.array_equal(mask, ref_mask)


@pytest.fixture(scope="module")
def cut_fracture():
    case = network1()
    fr = case.network.fractures[0]
    tri = triangulate_fracture(fr, max_area=2e-2)
    return cut_by_traces(tri, [t.local_segment(fr) for t in case.network.fracture_traces(0)])


# two stacked cells; the lower one's bottom bends by 0.8e-9 at vertices 1 and
# 2, each below the collinear tolerance, while dropping either one makes the
# other turn by 1.2e-9, so the union keeps whichever vertex is tested last
BENT = dict(
    points=[[0, 0], [1, 0], [2, 0.8e-9], [3, 2.4e-9], [3, 1], [0, 1], [3, 2], [0, 2]],
    cells=[[0, 1, 2, 3, 4, 5], [5, 4, 6, 7]],
)


@pytest.fixture(scope="module")
def union_meshes(cut_fracture):
    """The cut fracture, its agglomerate at lambda 1 (long loops with hanging
    nodes and non-star unions), the mixed-region mesh (unions that fail) and
    the bent pair, whose simplified union depends on the order of drops."""
    return {
        "cut": cut_fracture,
        "lambda1": agglomerate(cut_fracture, AgglomerationConfig(lam=1.0)).mesh,
        "mixed": mixed_region_mesh(),
        "bent": build_mesh(**BENT),
    }


def _pair_unions(mesh):
    """(pair, union loop or None on MergeError) for every adjacent pair."""
    return [(pair, ref_union(mesh, pair)[0]) for pair in adjacency_pairs(mesh)]


def _assert_union_loops_match(mesh, cell_sets):
    """The union loop table of ``cell_sets`` holds the scalar trace's loops,
    and a failed set's row is empty with its error's class and message."""
    loops, offsets, failed = mesh_mod._union_loops(mesh, *pack_rows(cell_sets))
    assert loops.dtype == offsets.dtype == failed.dtype == np.int64
    assert len(offsets) == len(failed) + 1 == len(cell_sets) + 1
    for cells, lo, hi, code in zip(cell_sets, offsets[:-1], offsets[1:], failed.tolist()):
        want, want_err = ref_union(mesh, cells)
        if want_err is None:
            assert code == -1 and loops[lo:hi].tolist() == want
        else:
            assert lo == hi and mesh_mod._UNION_ERRORS[code] == want_err


@pytest.fixture(scope="module")
def union_labels(union_meshes):
    """A lambda=1 labeling of each union mesh, for apply_labeling components."""
    return {which: minimize(mesh, AgglomerationConfig(lam=1.0))[0]
            for which, mesh in union_meshes.items()}


@pytest.mark.parametrize("which", ["cut", "lambda1", "mixed", "bent"])
def test_union_loops_match_scalar_reference(union_meshes, union_labels, which):
    """The batched union loops equal the scalar trace's loops, and its
    errors' classes and messages, on every adjacent pair (both cell orders)
    and on every component that apply_labeling merges."""
    mesh = union_meshes[which]
    pairs = adjacency_pairs(mesh)
    comps = [c for _, c in ref_label_components(mesh, union_labels[which]) if len(c) > 1]
    assert comps
    _assert_union_loops_match(mesh, pairs + [(q, p) for p, q in pairs] + comps)


def _squares(nx, ny, constrained=()):
    return grid_mesh(nx, ny, constrained_edges=constrained)


@pytest.mark.parametrize("cells, error", [
    ([0, 0], mesh_mod.MergeNonSimpleError),      # a cell listed twice
    ([0, 4], mesh_mod.MergeNonSimpleError),      # diagonal cells touch at a vertex
    ([0, 1, 2, 3, 5, 6, 7, 8], mesh_mod.MergeHoleError),  # ring around the centre
    ([], mesh_mod.MergeNonSimpleError),          # nothing to trace
    ([3, 4], mesh_mod.MergeConstraintError),     # shared edge constrained
    ([1, 0, 2, 3, 5, 8, 7, 6], mesh_mod.MergeHoleError),  # same ring, other order
    ([0, 4, 8, 8], mesh_mod.MergeNonSimpleError),  # a touch before a repeat
    ([8, 8, 0, 4], mesh_mod.MergeNonSimpleError),  # a repeat before a touch
    ([0, 2], mesh_mod.MergeNonSimpleError),      # two cells apart
    ([0, 1, 6, 7], mesh_mod.MergeNonSimpleError),  # two pieces, each connected
    ([2, 0, 4], mesh_mod.MergeNonSimpleError),   # a touch before the pieces
])
def test_union_loops_errors_match_scalar_reference(cells, error):
    """Each MergeError the union trace raises has the scalar trace's class and
    message, also when a set has several faults (the first in traversal order
    wins).  The 3x3 grid's edge between cells 3 and 4 is constrained."""
    mesh = _squares(3, 3)
    u, v = sorted(set(mesh.cells[3].tolist()) & set(mesh.cells[4].tolist()))
    mesh = _squares(3, 3, constrained=[(u, v)])
    loops, _, (code,) = mesh_mod._union_loops(mesh, *pack_rows([cells]))
    assert not len(loops) and mesh_mod._UNION_ERRORS[code][0] is error
    _assert_union_loops_match(mesh, [cells, [1, 2], [4, 5, 7, 8]])


@pytest.mark.parametrize("which", ["cut", "lambda1", "mixed", "bent"])
def test_apply_labeling_matches_scalar_reference(union_meshes, union_labels, which):
    """apply_labeling merges the components the scalar search finds, in its
    order, into the scalar trace's loops, reports the same failed merges
    without a warning, and its simplification drops the scalar mask's
    vertices."""
    mesh, labels = union_meshes[which], union_labels[which]
    new_cells, skipped = [], []
    for lab, comp in ref_label_components(mesh, labels):
        loop, err = ref_union(mesh, comp) if len(comp) > 1 else (mesh.cells[comp[0]], None)
        if err is None:
            new_cells.append(np.asarray(loop, dtype=np.int64))
        else:
            skipped.append((int(lab), comp, err[1]))
            new_cells.extend(mesh.cells[c] for c in comp)
    merged = build_mesh(mesh.points, new_cells, mesh.constrained_edge_pairs(),
                        np.nonzero(mesh.vertex_constrained)[0])
    removable = ref_removable_vertices(merged)
    got = mesh_mod._removable_vertices(merged.points, merged.cell_vertices, merged.cell_offsets,
                                       merged.vertex_constrained)
    assert removable.any() and np.array_equal(got, removable)
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_labeling(mesh, labels, got)
    assert got == skipped
    assert mesh_fields(out) == mesh_fields(ref_simplify_aligned_edges(merged))


def test_apply_labeling_skip_warning_names_merge_of_cells():
    """``warn_skipped`` turns a skipped merge into a RuntimeWarning with
    "merge of cells" in it: the benchmark counts ``agglomerate.merges_skipped``
    from that text."""
    m = grid_mesh(3, 3)
    labels = np.where(np.arange(9) == 4, 4, 0)
    skipped = []
    apply_labeling(m, labels, skipped)
    with pytest.warns(RuntimeWarning) as caught:
        warn_skipped(skipped)
    assert [str(w.message) for w in caught] == [
        "label 0: merge of cells [0, 1, 2, 3, 5, 6, 7, 8] skipped (union encloses a hole)"
    ]


# the sliver mesh, and the same with a cell below that shares the sliver's
# edges (0, 4) and (4, 1) and could drop vertex 4 on its own
SLIVER_BELOW = SLIVER_MESH.replace("V 5", "V 7").replace(
    "C 2", "1 -1\n0 -1\nC 3") + "0 6 5 1 4\n"


@pytest.mark.parametrize("text", [SLIVER_MESH, SLIVER_BELOW], ids=["sliver", "below"])
def test_aligned_vertex_sweep_keeps_the_sliver_apex(tmp_path, text):
    """Dropping vertex 4 would leave the sliver a segment, so it stays in
    every cell, and the sweep ends.  The merge runs in a child process, so
    that a sweep that never ends fails the test when it times out."""
    src, dst = tmp_path / "in.mesh", tmp_path / "out.mesh"
    src.write_text(text)
    proc = run_python(["-c", "import sys, numpy as np\n"
                       "from polyagg.agglomerate import apply_labeling\n"
                       "from polyagg.mesh import load_mesh, save_mesh\n"
                       "m = load_mesh(sys.argv[1])\n"
                       "save_mesh(apply_labeling(m, np.arange(m.n_cells)), sys.argv[2])\n",
                       src, dst])
    assert proc.returncode == 0, proc.stderr
    out = load_mesh(dst)
    rebuilt = build_mesh(out.points, out.cells, out.constrained_edge_pairs())
    assert mesh_fields(rebuilt) == mesh_fields(load_mesh(src))
    assert all(4 in ids for ids in rebuilt.cells[1:])


@pytest.fixture(scope="module")
def merge_cases(union_meshes, union_labels, random_cuts):
    """(mesh, lambda=1 labeling) of each union mesh and of each cut fracture
    of the random networks."""
    cases = [(mesh, union_labels[which]) for which, mesh in union_meshes.items()]
    for _, cuts in random_cuts:
        for tri, segs, tol_rel in cuts.values():
            mesh = cut_by_traces(tri, segs, tol_rel=tol_rel)
            cases.append((mesh, minimize(mesh, AgglomerationConfig(lam=1.0))[0]))
    return cases


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_table_merge_pass_matches_list_oracle(merge_cases, data):
    """With some cells relabelled as a neighbour, so that components grow and
    some unions fail, the merge pass gives the list oracle's union rows and
    failures, rhos, skipped merges and mesh, bit for bit."""
    mesh, labels = merge_cases[data.draw(st.integers(0, len(merge_cases) - 1), label="case")]
    a, b = mesh.adjacent
    labels = labels.copy()
    for k in data.draw(st.lists(st.integers(0, len(a) - 1), max_size=12), label="relabel"):
        labels[a[k]] = labels[b[k]]
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(a) - 1), st.booleans()),
                               max_size=30), label="pairs")
    pairs = [(int(b[k]), int(a[k])) if flip else (int(a[k]), int(b[k])) for k, flip in picks]
    comps = [c for _, c in ref_label_components(mesh, labels) if len(c) > 1]
    _assert_union_loops_match(mesh, pairs + comps)
    assert agg._union_rhos(mesh, pairs) == list_union_rhos(mesh, pairs)
    got, want = [], []
    out = apply_labeling(mesh, labels, got)
    assert mesh_fields(out) == mesh_fields(list_apply_labeling(mesh, labels, want))
    assert got == want


@pytest.mark.parametrize("which", ["cut", "lambda1", "mixed", "bent"])
def test_simplified_loops_match_per_loop_reference(union_meshes, which):
    mesh = union_meshes[which]
    loops = [loop for _, loop in _pair_unions(mesh) if loop is not None]
    got = {}
    for idx, ids in agg._simplified_loop_groups(mesh, *pack_rows(loops)):
        assert ids.shape[0] == len(idx) and ids.shape[1] not in {len(v) for v in got.values()}
        got.update(zip(idx.tolist(), ids))
    assert sorted(got) == list(range(len(loops)))
    dropped = 0
    for k, loop in enumerate(loops):
        assert np.array_equal(mesh.points[got[k]], ref_simplified_union_points(mesh, loop))
        dropped += len(loop) - len(got[k])
    assert dropped > 0


@pytest.mark.parametrize("lam", [0.25, 1.0])
@pytest.mark.parametrize("which", ["cut", "mixed"])
def test_problem_costs_match_per_pair_reference(monkeypatch, union_meshes, which, lam):
    """The data costs equal the per-pair path (one-loop simplification, scalar
    scores), and the precompute scores each vertex count in one stacked call."""
    mesh = union_meshes[which]
    config = AgglomerationConfig(lam=lam)
    shapes = []
    scores = _kernels.quality_scores

    def counted(pts, *args):
        shapes.append(np.shape(pts))
        return scores(pts, *args)

    monkeypatch.setattr(_kernels, "quality_scores", counted)
    problem = agg._Problem(mesh, config)
    expected, rhos = [{p: 0} for p in range(mesh.n_cells)], []
    for (p, q), loop in _pair_unions(mesh):
        r = None
        if loop is not None:
            pts = ref_simplified_union_points(mesh, loop)
            r = float(ref_quality_scores(pts, COLLINEAR_TOL, KERNEL_REL_TOL)[4])
        rhos.append(r)
        cost = 1.0 if r is None else 1.0 - r**config.dc_power
        expected[p][q] = expected[q][p] = int(np.floor(problem.scale * cost + 0.5))
    assert problem.costs == expected
    # a per-pair call path would show as repeated vertex counts
    counts = [s[-2] for s in shapes]
    assert all(len(s) == 3 for s in shapes) and len(set(counts)) == len(counts)
    assert sum(s[0] for s in shapes) == sum(r is not None for r in rhos)
    if which == "mixed":
        assert None in rhos and 0.0 in rhos  # failed unions and non-star unions
    for (p, q), r in list(zip(adjacency_pairs(mesh), rhos))[:40]:
        assert agg._union_rhos(mesh, [(q, p)]) == [r]


@pytest.mark.parametrize("sc_mode", ["literal", "potts"])
@pytest.mark.parametrize("lam", [0.25, 1.0])
def test_minimize_enumeration_matches_dinic(monkeypatch, cut_fracture, lam, sc_mode):
    """Enumeration and augmenting paths on every swap give the same minimum
    (the name keeps the max flow solver that augmenting paths replaced)."""
    config = AgglomerationConfig(lam=lam, sc_mode=sc_mode)
    labels, history = minimize(cut_fracture, config)
    monkeypatch.setattr(_kernels, "ENUM_MAX_NODES", 0)
    d_labels, d_history = minimize(cut_fracture, config)
    assert np.array_equal(labels, d_labels)
    assert history == d_history
    assert history[-1].total < history[0].total


@pytest.fixture(scope="module")
def network1_fractures():
    """area -> the three network1 fractures, triangulated and cut."""
    case = network1()
    out = {}
    for area in (5e-3, 2e-2):
        out[area] = []
        for f, fr in enumerate(case.network.fractures):
            tri = triangulate_fracture(fr, max_area=area)
            traces = [t.local_segment(fr) for t in case.network.fracture_traces(f)]
            out[area].append(cut_by_traces(tri, traces))
    return out


@pytest.fixture(scope="module")
def reference_minima():
    """(area, fracture, lambda, sc_mode) -> ``ref_minimize`` result, filled
    on first use."""
    return {}


@pytest.mark.parametrize("enum_max", [_kernels.ENUM_MAX_NODES, 0], ids=["enumeration", "dinic"])
@pytest.mark.parametrize("area", [5e-3, 2e-2])
def test_minimize_matches_reference(monkeypatch, network1_fractures, reference_minima,
                                    area, enum_max):
    """Labels and energy histories equal the reference solver's (every pair
    swapped every cycle, five-array graphs, cut enumeration) on 3 fractures
    x 2 lambdas x 2 smoothness modes, with the packed enumeration and with
    augmenting paths on every swap (the "dinic" id)."""
    monkeypatch.setattr(_kernels, "ENUM_MAX_NODES", enum_max)
    for f, mesh in enumerate(network1_fractures[area]):
        for lam in (0.25, 1.0):
            for sc_mode in ("potts", "literal"):
                config = AgglomerationConfig(lam=lam, sc_mode=sc_mode)
                key = (area, f, lam, sc_mode)
                if key not in reference_minima:
                    reference_minima[key] = ref_minimize(mesh, config)
                ref_labels, ref_history = reference_minima[key]
                labels, history = minimize(mesh, config)
                assert np.array_equal(labels, ref_labels), key
                assert history == ref_history, key


def test_minimize_one_maxflow_per_evaluated_swap(monkeypatch, cut_fracture):
    """The benchmark tracer counts swaps as ``_kernels.maxflow`` calls: one per
    nonempty swap that minimize evaluates.  Skipping unchanged pairs
    evaluates fewer swaps than the reference solver makes."""
    calls = {"maxflow": 0, "evaluated": 0, "reference": 0}
    maxflow, swap = _kernels.maxflow, agg._swap

    def counted_maxflow(*args):
        calls["maxflow"] += 1
        return maxflow(*args)

    def counted_swap(problem, labels, members, alpha, beta):
        if members.get(alpha) or members.get(beta):
            calls["evaluated"] += 1
        return swap(problem, labels, members, alpha, beta)

    def counted_ref_maxflow(*args):
        calls["reference"] += 1
        return ref_maxflow(*args)

    monkeypatch.setattr(_kernels, "maxflow", counted_maxflow)
    monkeypatch.setattr(agg, "_swap", counted_swap)
    config = AgglomerationConfig(lam=1.0)
    minimize(cut_fracture, config)
    ref_minimize(cut_fracture, config, maxflow=counted_ref_maxflow)
    assert calls["maxflow"] == calls["evaluated"] > 0
    assert calls["evaluated"] < calls["reference"]


def test_minimize_checks_energy_against_swap_deltas(monkeypatch):
    """A swap that misreports its delta fails the per-cycle energy check."""
    swap = agg._swap

    def misreported(*args):
        delta, moved = swap(*args)
        return (delta - 1 if moved else delta), moved

    monkeypatch.setattr(agg, "_swap", misreported)
    with pytest.raises(RuntimeError, match="swap deltas"):
        minimize(grid_mesh(3, 3), AgglomerationConfig(lam=1.0))


def test_data_cost_self_zero():
    m = build_mesh(**TWO_SQUARES)
    assert energy(m, [0, 1], AgglomerationConfig(lam=0.0)).data_term == 0


def test_data_cost_non_adjacent_one():
    m = grid_mesh(3, 1)
    # cell 0 takes the label of cell 2, which it does not touch: cost 1,
    # integerized by the cell count
    assert energy(m, [2, 1, 2], AgglomerationConfig(lam=0.0)).data_term == m.n_cells


def test_data_cost_two_squares():
    m = build_mesh(**TWO_SQUARES)
    rho_rect = np.sqrt((1 / np.sqrt(5) + 0.75 + 1.0) / 3.0)
    r01, r10 = agg._union_rhos(m, [(0, 1), (1, 0)])
    assert 1.0 - r01 == pytest.approx(1.0 - rho_rect, abs=1e-12)
    assert 1.0 - r01 == pytest.approx(0.14419, abs=1e-5)
    assert r10 == r01


def test_smoothness_cost():
    m = build_mesh(**TWO_SQUARES)
    config = AgglomerationConfig(lam=1.0)
    assert energy(m, [0, 0], config).smooth_term == 0
    assert energy(m, [0, 1], config).smooth_term == 1
    # the literal term charges distinct labels only when their cells touch
    m2 = grid_mesh(3, 1)
    assert energy(m2, [0, 2, 2], AgglomerationConfig(lam=1.0, sc_mode="literal")).smooth_term == 0
    assert energy(m2, [0, 2, 2], config).smooth_term == 1


def test_energy_trivial_labeling():
    m = grid_mesh(3, 2)
    config = AgglomerationConfig(lam=0.5)
    e = energy(m, trivial_labeling(m.n_cells), config)
    n_edges = len(adjacency_pairs(m))
    assert e.data_term == 0
    assert e.smooth_term == n_edges
    assert e.total == round(0.5 * m.n_cells) * n_edges


def test_energy_single_cell():
    m = build_mesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])
    e = energy(m, [0], AgglomerationConfig(lam=1.0))
    assert e.total == 0


def test_energy_lambda_zero_data_only():
    m = build_mesh(**TWO_SQUARES)
    for power in (1, 2):
        e = energy(m, [1, 1], AgglomerationConfig(lam=0.0, dc_power=power))
        assert e.total == e.data_term
        r, = agg._union_rhos(m, [(0, 1)])
        assert e.data_term == round(2 * (1.0 - r**power))


def test_swap_move_no_carriers():
    m = grid_mesh(2, 2)
    labels = trivial_labeling(4)
    config = AgglomerationConfig(lam=1.0)
    labels[:] = [0, 0, 3, 3]
    out, delta = swap_move(m, labels, 1, 2, config)
    assert delta == 0
    assert np.array_equal(out, labels)


def _exhaustive_swap_optimum(mesh, labels, alpha, beta, config):
    nodes = [c for c in range(mesh.n_cells) if labels[c] in (alpha, beta)]
    best = None
    for bits in itertools.product((alpha, beta), repeat=len(nodes)):
        trial = labels.copy()
        for c, lab in zip(nodes, bits):
            trial[c] = lab
        tot = energy(mesh, trial, config).total
        if best is None or tot < best:
            best = tot
    return best


@pytest.mark.parametrize("sc_mode", ["literal", "potts"])
def test_swap_move_matches_bruteforce(rng, sc_mode):
    meshes = [grid_mesh(2, 2), grid_mesh(4, 2), tri_grid_mesh(2, 2)]
    for trial in range(40):
        mesh = meshes[int(rng.integers(0, len(meshes)))]
        n = mesh.n_cells
        config = AgglomerationConfig(
            lam=float(rng.choice([0.0, 0.25, 0.5, 1.0])), sc_mode=sc_mode
        )
        labels = rng.integers(0, n, n).astype(np.int64)
        alpha, beta = rng.choice(n, 2, replace=False)
        before = energy(mesh, labels, config).total
        out, delta = swap_move(mesh, labels, int(alpha), int(beta), config)
        after = energy(mesh, out, config).total
        assert after - before == delta
        assert delta <= 0
        best = _exhaustive_swap_optimum(mesh, labels, int(alpha), int(beta), config)
        assert after == best


def test_minimize_lambda_zero_one_cycle():
    m = grid_mesh(3, 3)
    labels, history = minimize(m, AgglomerationConfig(lam=0.0))
    assert np.array_equal(labels, trivial_labeling(9))
    assert history[-1].iterations == 1
    assert history[-1].total == 0


def test_minimize_2x2_matches_exhaustive():
    m = grid_mesh(2, 2)
    config = AgglomerationConfig(lam=1.0)
    labels, history = minimize(m, config)
    trivial_total = history[0].total
    final = history[-1].total
    assert trivial_total == 4 * round(1.0 * 4)  # 4 adjacency edges
    assert final < trivial_total
    best = min(
        energy(m, np.array(lab), config).total
        for lab in itertools.product(range(4), repeat=4)
    )
    assert final == best


def test_minimize_energy_monotone():
    m = tri_grid_mesh(4, 4)
    labels, history = minimize(m, AgglomerationConfig(lam=0.5))
    totals = [h.total for h in history]
    assert all(b <= a for a, b in zip(totals, totals[1:]))


def test_minimize_few_cycles_on_midsize_mesh():
    m = tri_grid_mesh(10, 10)  # 200 cells
    labels, history = minimize(m, AgglomerationConfig(lam=1.0))
    assert history[-1].iterations <= 10


def test_minimize_deterministic():
    m = tri_grid_mesh(4, 4)
    config = AgglomerationConfig(lam=1.0)
    l1, h1 = minimize(m, config)
    l2, h2 = minimize(m, config)
    assert np.array_equal(l1, l2)
    assert [e.total for e in h1] == [e.total for e in h2]


def test_apply_labeling_trivial_keeps_cells():
    """With every cell its own component, in order, the mesh itself comes
    back; an unused vertex still makes a compacted rebuild."""
    m = grid_mesh(3, 2)
    assert apply_labeling(m, trivial_labeling(m.n_cells)) is m
    spare = build_mesh([[0, 0], [1, 0], [0, 1], [5, 5]], [[0, 1, 2]], compact=False)
    out = apply_labeling(spare, [0])
    assert out is not spare and out.n_vertices == 3
    assert out.total_area == pytest.approx(spare.total_area, rel=1e-12)


def test_apply_labeling_merges_pair():
    m = build_mesh(**TWO_SQUARES)
    out = apply_labeling(m, [0, 0])
    assert out.n_cells == 1
    assert out.n_vertices == 4  # aligned midside nodes removed
    assert out.total_area == pytest.approx(2.0, rel=1e-12)


def test_apply_labeling_disconnected_class():
    m = grid_mesh(3, 1)
    out = apply_labeling(m, [5, 1, 5])
    assert out.n_cells == 3  # two components plus the middle cell
    # components come by label: the rebuild puts the middle cell first
    assert [c.tolist() for c in out.cells] == [m.cells[i].tolist() for i in (1, 0, 2)]


def test_apply_labeling_hole_falls_back():
    m = grid_mesh(3, 3)
    labels = np.arange(9)
    for c in [0, 1, 2, 3, 5, 6, 7, 8]:
        labels[c] = 0
    skipped = []
    out = apply_labeling(m, labels, skipped)
    assert [comp for _, comp, _ in skipped] == [[0, 1, 2, 3, 5, 6, 7, 8]]
    assert out.n_cells == 9
    assert out.total_area == pytest.approx(m.total_area, rel=1e-10)


def test_skipped_merges_are_counted(monkeypatch):
    """A merge that falls back to its cells is reported to ``skipped``, and
    the agglomeration's ``skipped`` holds it, with no warning."""
    m = grid_mesh(3, 3)
    labels = np.where(np.arange(9) == 4, 4, 0)
    skipped = []
    apply_labeling(m, labels, skipped)
    assert skipped == [(0, [0, 1, 2, 3, 5, 6, 7, 8], "union encloses a hole")]
    monkeypatch.setattr(agg, "minimize", lambda mesh, config, _problem: (labels, [
        agg.EnergyBreakdown(2, 0, 2, 0), agg.EnergyBreakdown(1, 0, 1, 1)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = agglomerate(m, AgglomerationConfig(lam=1.0)).stats
    assert stats.skipped == skipped
    assert agglomerate(m, AgglomerationConfig(lam=0.0)).stats.skipped == []


def test_agglomerate_lambda_zero_keeps_cell_count():
    m = tri_grid_mesh(4, 4)
    res = agglomerate(m, AgglomerationConfig(lam=0.0))
    assert res.mesh.n_cells == m.n_cells
    assert res.stats.energy_saved == 0.0


def test_agglomerate_reduces_cells_aggressively():
    m = tri_grid_mesh(8, 8)  # 128 structured triangles
    res = agglomerate(m, AgglomerationConfig(lam=1.0))
    reduction = 1.0 - res.mesh.n_cells / m.n_cells
    assert 0.5 <= reduction <= 0.85
    assert res.mesh.total_area == pytest.approx(m.total_area, rel=1e-10)


def test_agglomerate_preserves_constraints():
    pts = [[0, 0], [1, 0], [2, 0], [2, 1], [1, 1], [0, 1], [1, 2], [0, 2], [2, 2]]
    cells = [[0, 1, 4, 5], [1, 2, 3, 4], [5, 4, 6, 7], [4, 3, 8, 6]]
    m = build_mesh(pts, cells, constrained_edges=[(1, 4), (4, 6)])
    res = agglomerate(m, AgglomerationConfig(lam=1.0))
    out = res.mesh
    # the constrained polyline x=1 splits the domain: no cell may span it
    for ids in out.cells:
        xs = out.points[ids][:, 0]
        assert xs.min() >= -1e-12 and (xs.max() <= 1.0 + 1e-12 or xs.min() >= 1.0 - 1e-12)
    cons = out.constrained_edge_pairs()
    assert len(cons) >= 2
