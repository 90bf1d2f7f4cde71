import numpy as np
import pytest
import scipy.sparse as sps

from polyagg.agglomerate import AgglomerationConfig, agglomerate
from polyagg.mesh import build_mesh
from polyagg.quadrature import triangle_quadrature
from polyagg.solutions import CATALOG, polynomial_of_degree
from polyagg import vem
from polyagg.vem import (
    SolverError,
    assemble,
    build_dof_map,
    build_element,
    condition_estimate,
    error_norms,
    local_load,
    local_stiffness,
    monomial_dim,
    projector_discrepancies,
    solve_spd,
)

from conftest import (
    cell_dofs,
    network_parts,
    dof_maps_equal,
    grid_mesh,
    mixed_region_mesh,
    ref_build_dof_map,
    ref_cell_groups,
    ref_condition_estimate,
    ref_dof_positions,
    ref_ear_clip,
    ref_eliminated_system,
    tri_grid_mesh,
)

SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
TRIANGLE = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("poly", [SQUARE, TRIANGLE], ids=["square", "triangle"])
def test_projector_identity(k, poly):
    el = build_element(poly, k)
    dn, d0 = projector_discrepancies(el)
    assert dn <= 1e-11
    assert d0 <= 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_pi_nabla_equals_pi0_below_order3(k):
    poly = np.array([[0, 0], [2, 0], [2.5, 1.5], [1, 2.5], [-0.5, 1]], dtype=float)
    el = build_element(poly, k)
    assert np.allclose(el.pins, el.pi0s, atol=1e-12)


def test_pi_nabla_differs_from_pi0_at_order3():
    poly = np.array([[0, 0], [2, 0], [2.5, 1.5], [1, 2.5], [-0.5, 1]], dtype=float)
    el = build_element(poly, 3)
    assert not np.allclose(el.pins, el.pi0s, atol=1e-8)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_projection_of_constant_vanishes(k):
    el = build_element(SQUARE, k)
    const_dofs = el.D[:, 0]  # dof vector of the constant monomial
    for c in range(2):
        assert np.allclose(el.pigrad[c] @ const_dofs, 0.0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_polynomial_reproduction(k):
    poly = np.array([[0, 0], [1.3, 0.1], [1.7, 1.2], [0.4, 1.6]], dtype=float)
    el = build_element(poly, k)
    nk = monomial_dim(k)
    for j in range(nk):
        coef = np.zeros(nk)
        coef[j] = 1.0
        dofs = el.D @ coef
        assert np.allclose(el.pins @ dofs, coef, atol=1e-10)
        assert np.allclose(el.pi0s @ dofs, coef, atol=1e-10)


def test_local_stiffness_triangle_matches_fem():
    el = build_element(TRIANGLE, 1)
    A = local_stiffness(el, np.eye(2))
    fem = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    # k=1 on a triangle: projector is exact interpolation, stabilization zero
    assert np.allclose(A, fem, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stiffness_kernel_constants(k):
    el = build_element(SQUARE, k)
    A = local_stiffness(el)
    const_dofs = el.D[:, 0]
    assert np.abs(A @ const_dofs).max() <= 1e-12
    # strictly positive energy orthogonal to constants
    rng = np.random.default_rng(1)
    v = rng.standard_normal(el.ndof)
    v -= (v @ const_dofs) / (const_dofs @ const_dofs) * const_dofs
    assert v @ A @ v > 0


def test_stiffness_row_sums_zero_square_k1():
    el = build_element(SQUARE, 1)
    A = local_stiffness(el, np.eye(2))
    assert np.abs(A.sum(axis=1)).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_energy_of_linear_function_is_area(k):
    poly = np.array([[0, 0], [2, 0], [2.5, 1.5], [1, 2.5], [-0.5, 1]], dtype=float)
    el = build_element(poly, k)
    A = local_stiffness(el)
    nk = monomial_dim(k)
    coef = np.zeros(nk)
    coef[0] = el.centroid[0]
    coef[1] = el.diameter  # x = x_E + h * m_(1,0)
    dofs = el.D @ coef
    assert dofs @ A @ dofs == pytest.approx(el.area, rel=1e-12)


def test_stiffness_scales_linearly_with_k():
    el = build_element(SQUARE, 2)
    A1 = local_stiffness(el, np.eye(2))
    A2 = local_stiffness(el, 3.0 * np.eye(2))
    assert np.allclose(A2, 3.0 * A1, rtol=1e-13)


def test_stiffness_rejects_non_spd():
    el = build_element(SQUARE, 1)
    with pytest.raises(ValueError):
        local_stiffness(el, np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_local_load_constant():
    el = build_element(SQUARE, 1)
    b = local_load(el, np.ones(el.qw.shape))
    # (1, Pi0_0 phi_j) = mean of phi_j times area; row sums to the area
    assert b.sum() == pytest.approx(el.area, rel=1e-12)


def test_dof_map_counts():
    m = grid_mesh(2, 2)
    for k, nmom in ((1, 0), (2, 1), (3, 3)):
        dm = build_dof_map(m, k)
        expected = m.n_vertices + m.n_edges * (k - 1) + m.n_cells * nmom
        assert dm.total == expected
        for ids, row in zip(m.cells, cell_dofs(dm), strict=True):
            assert len(row) == len(ids) * k + nmom


def test_shared_edge_dofs_identical():
    m = grid_mesh(2, 1)
    dm = build_dof_map(m, 3)
    # the shared vertical edge contributes the same two global slots to both cells
    rows = cell_dofs(dm)
    shared = set(rows[0].tolist()) & set(rows[1].tolist())
    assert len(shared) == 2 + 2  # two shared vertices + two edge slots


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dof_layer_matches_scalar_reference(mixed_mesh, k):
    """Grouped DOF ids and positions equal the per-cell and per-edge loops'
    bit for bit on cells of 3 to 9+ vertices, each of which runs some edges
    from the lower vertex id up and others down, so that some but not all of
    its edge slots are reversed."""
    m = mixed_mesh
    assert all(0 < (np.roll(ids, -1) > ids).sum() < len(ids) for ids in m.cells)
    dm, ref = build_dof_map(m, k), ref_build_dof_map(m, k)
    assert dof_maps_equal(dm, ref)
    assert vem.dof_positions(m, dm).tobytes() == ref_dof_positions(m, ref).tobytes()


def test_assemble_patch_empty_interior():
    m = build_mesh(
        [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]
    )
    ms = CATALOG["linear"]
    system, elements = assemble(m, 1, f=ms.f, dirichlet=ms.u)
    assert len(system.free_idx) == 0
    x = solve_spd(system)
    assert np.allclose(x, m.points[:, 0] + 2 * m.points[:, 1], atol=1e-14)


def test_assemble_requires_dirichlet():
    m = grid_mesh(2, 2)
    with pytest.raises(Exception, match="boundary data missing"):
        assemble(m, 1, f=lambda p: np.zeros(len(p)), dirichlet=None)


def test_assemble_symmetry_and_nnz():
    m = grid_mesh(3, 3, jitter=0.3, seed=5)
    ms = CATALOG["quadratic"]
    system, _ = assemble(m, 2, f=ms.f, dirichlet=ms.u)
    n_free = len(system.free_idx)
    assert system.A.shape == (n_free, n_free)
    assert n_free + len(system.dirichlet_idx) == vem.build_dof_map(m, 2).total
    assert abs(system.A - system.A.T).max() == 0.0
    assert system.nnz == system.A.nnz > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_assemble_matches_sliced_full_operator(k):
    """vem.assemble builds A[free][:, free].tocsc() of the full operator and
    the lifted load b[free] - A[free][:, dir] u_D, bit for bit, on a mesh
    of mixed cells."""
    mesh = agglomerate(tri_grid_mesh(6, 6), AgglomerationConfig(lam=1.0)).mesh
    ms = CATALOG["sinsin"]
    system, _ = assemble(mesh, k, f=ms.f, dirichlet=ms.u)
    dofmap = vem.build_dof_map(mesh, k)
    part = vem.Part(mesh, dofmap, np.arange(dofmap.total), None, ms.f)
    A, b = ref_eliminated_system([part], dofmap.total, system.dirichlet_idx,
                                 system.dirichlet_val)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(system.A, name), getattr(A, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(system.b, b)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solution_norms_match_stored_mass_matrices(k):
    """solution_norms rebuilds each group's monomial mass matrix, and its
    norms equal those of the mass matrices build_element returns, bit for
    bit."""
    mesh = agglomerate(tri_grid_mesh(6, 6), AgglomerationConfig(lam=1.0)).mesh
    parts, total = network_parts([mesh, grid_mesh(3, 2, jitter=0.3)], k)
    groups, Hs = [], []
    for cells, part, dofs, pts in vem.cell_groups(parts):
        el = build_element(pts, k, cell_id=cells)
        groups.append(vem.ElementGroup.of(cells, part, dofs, el))
        Hs.append(el.H)
    projected = vem.projected_solution(groups, np.random.default_rng(5).standard_normal(total))
    l2 = h1 = 0.0
    for H, (c, cx, cy) in zip(Hs, projected):
        H1 = H[..., :cx.shape[-1], :cx.shape[-1]]
        l2 += float(np.einsum("...r,...rs,...s->...", c, H, c).sum())
        h1 += float(np.einsum("...r,...rs,...s->...", cx, H1, cx).sum()
                    + np.einsum("...r,...rs,...s->...", cy, H1, cy).sum())
    assert vem.solution_norms(groups, projected) == (np.sqrt(l2), np.sqrt(h1))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_patch_test_distorted_mesh(k):
    m = grid_mesh(4, 4, jitter=0.35, seed=11)
    ms = polynomial_of_degree(k)
    system, groups = assemble(m, k, f=ms.f, dirichlet=ms.u)
    x = solve_spd(system)
    l2, h1 = error_norms(groups, vem.projected_solution(groups, x), [ms.u], [ms.grad])
    assert l2 <= 1e-10
    assert h1 <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_patch_test_agglomerated_mesh(k):
    base = tri_grid_mesh(5, 5)
    res = agglomerate(base, AgglomerationConfig(lam=1.0))
    m = res.mesh
    assert m.n_cells < base.n_cells
    ms = polynomial_of_degree(k)
    system, groups = assemble(m, k, f=ms.f, dirichlet=ms.u)
    x = solve_spd(system)
    l2, h1 = error_norms(groups, vem.projected_solution(groups, x), [ms.u], [ms.grad])
    assert l2 <= 1e-9
    assert h1 <= 1e-9


def _solve_sin(n, k):
    m = grid_mesh(n, n)
    ms = CATALOG["sinsin"]
    system, groups = assemble(m, k, f=ms.f, dirichlet=ms.u)
    x = solve_spd(system)
    return error_norms(groups, vem.projected_solution(groups, x), [ms.u], [ms.grad])


def test_convergence_rates_k1():
    errs = [_solve_sin(n, 1) for n in (8, 16, 32)]
    for (l2a, h1a), (l2b, h1b) in zip(errs, errs[1:]):
        assert l2a / l2b == pytest.approx(4.0, rel=0.15)
        assert h1a / h1b == pytest.approx(2.0, rel=0.15)


def test_convergence_rates_k2():
    errs = [_solve_sin(n, 2) for n in (4, 8, 16)]
    for (l2a, h1a), (l2b, h1b) in zip(errs, errs[1:]):
        assert l2a / l2b == pytest.approx(8.0, rel=0.2)
        assert h1a / h1b == pytest.approx(4.0, rel=0.15)


def test_solve_spd_one_by_one():
    A = sps.csc_matrix(np.array([[2.0]]))
    system = vem.SparseSpdSystem(
        A, np.array([4.0]), np.array([], dtype=np.int64), np.array([]),
        np.array([0], dtype=np.int64),
    )
    assert solve_spd(system)[0] == pytest.approx(2.0)


def test_solve_residual_contract():
    m = grid_mesh(6, 6)
    ms = CATALOG["sinsin"]
    system, _ = assemble(m, 1, f=ms.f, dirichlet=ms.u)
    x = solve_spd(system)
    res = np.linalg.norm(system.A @ x[system.free_idx] - system.b)
    assert res <= 1e-12 * np.linalg.norm(system.b)


@pytest.mark.parametrize("field", ["b", "dirichlet_val"])
def test_solve_spd_rejects_non_finite_data(field):
    ms = CATALOG["sinsin"]
    system, _ = assemble(grid_mesh(4, 4), 1, f=ms.f, dirichlet=ms.u)
    getattr(system, field)[0] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        solve_spd(system)


def test_solve_spd_rejects_nan_residual():
    # x = 4 / inf = 0 and the residual inf * 0 is NaN, which a `>` test misses
    system = vem.SparseSpdSystem(
        sps.csc_matrix(np.array([[np.inf]])), np.array([4.0]),
        np.array([], dtype=np.int64), np.array([]),
        np.array([0], dtype=np.int64),
    )
    with pytest.raises(SolverError, match="residual nan"):
        solve_spd(system)


def _all_free(A, b=None):
    """System whose whole operator ``A`` is free: no Dirichlet DOF."""
    A = sps.csc_matrix(A)
    n = A.shape[0]
    b = np.ones(n) if b is None else b
    return vem.SparseSpdSystem(A, b, np.array([], dtype=np.int64), np.array([]),
                               np.arange(n))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_solve_spd_rejects_singular_reduced_matrix(k):
    """Without Dirichlet DOFs the stiffness matrix is singular (constants
    span its kernel): the factorization or the residual check fails."""
    ms = CATALOG["sinsin"]
    mesh = grid_mesh(4, 4)
    dofmap = vem.build_dof_map(mesh, k)
    part = vem.Part(mesh, dofmap, np.arange(dofmap.total), None, ms.f)
    _, system = vem.build_local_system([part], dofmap.total)
    with pytest.raises(SolverError):
        solve_spd(system)


def test_solve_spd_rejects_exactly_singular_matrix():
    with pytest.raises(SolverError, match="exactly singular"):
        solve_spd(_all_free(np.array([[1.0, -1.0], [-1.0, 1.0]])))


@pytest.mark.parametrize("A", [
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
    sps.csc_matrix(([0.0, 1.0, 1.0, 0.0], ([0, 1, 0, 1], [0, 0, 1, 1]))),
], ids=["zero-diagonal", "zero-diagonal-3", "stored-zero-diagonal"])
def test_indefinite_matrix_raises_without_fallback(monkeypatch, A):
    """Indefinite matrices whose first pivot is zero in any symmetric order:
    SuperLU would solve them accurately by pivoting off the diagonal, but the
    SPD factorization refuses them after one factorization, with no retry."""
    calls = []
    splu = vem.spla.splu
    monkeypatch.setattr(vem.spla, "splu", lambda *a, **kw: calls.append(kw) or splu(*a, **kw))
    with pytest.raises(SolverError, match="zero pivot"):
        solve_spd(_all_free(A))
    with pytest.raises(SolverError, match="zero pivot"):
        condition_estimate(A)
    assert len(calls) == 2


def test_condition_estimate_factors_once_through_spd_helper(monkeypatch):
    """A bare matrix is factored once, by the SPD helper with the symmetric
    ordering; a solved system's cached factor is reused."""
    helper, splu = vem._factor_spd, vem.spla.splu
    calls = {"helper": 0, "splu": []}

    def counting_helper(A):
        calls["helper"] += 1
        return helper(A)

    def counting_splu(*args, **kwargs):
        calls["splu"].append(kwargs["permc_spec"])
        return splu(*args, **kwargs)

    monkeypatch.setattr(vem, "_factor_spd", counting_helper)
    monkeypatch.setattr(vem.spla, "splu", counting_splu)
    n = 10
    A = sps.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsc()
    condition_estimate(A)
    assert calls == {"helper": 1, "splu": ["MMD_AT_PLUS_A"]}
    ms = CATALOG["sinsin"]
    system, _ = assemble(grid_mesh(4, 4), 2, f=ms.f, dirichlet=ms.u)
    solve_spd(system)
    condition_estimate(system)
    assert calls["helper"] == 2 and len(calls["splu"]) == 2


def test_cell_groups_match_per_cell_reference():
    """The cells of several meshes are grouped by vertex count over all of
    them, mesh after mesh and each mesh's cells ascending, with their DOF
    ids and coordinates, as one pass over each mesh's cells groups them; on
    triangles and on agglomerated cells with straight vertices."""
    agglomerated = agglomerate(tri_grid_mesh(8, 8), AgglomerationConfig(lam=1.0)).mesh
    meshes = (mixed_region_mesh(), tri_grid_mesh(3, 3), agglomerated)
    for k in (1, 3):
        parts, _ = network_parts(meshes, k)
        got, want = list(vem.cell_groups(parts)), list(ref_cell_groups(parts))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(g, w, strict=True))
        sizes = [len(ids) for mesh in meshes for ids in mesh.cells]
        assert [len(pts[0]) for _, _, _, pts in got] == sorted(set(sizes))


@pytest.mark.parametrize("k", [1, 3])
def test_condition_estimate_applies_the_operator_once_per_iteration(monkeypatch, k):
    """The estimate equals the one of the loops that applied the operator
    twice per iteration, bit for bit, with one product or solve per
    iteration plus one to start each of the two iterations."""
    ms = CATALOG["sinsin"]
    system, _ = assemble(grid_mesh(6, 6, jitter=0.3), k, f=ms.f, dirichlet=ms.u)
    A, factor = system.A, system.factor()
    calls = []

    class CountedMatrix:
        shape = A.shape

        def __matmul__(self, v):
            calls.append("A")
            return A @ v

    class CountedFactor:
        def solve(self, v):
            calls.append("solve")
            return factor.solve(v)

    monkeypatch.setattr(system, "A", CountedMatrix())
    monkeypatch.setattr(system, "factor", CountedFactor)
    est = condition_estimate(system)
    assert est == ref_condition_estimate(A, factor)
    assert est.converged and len(calls) == est.iterations + 2
    assert calls.index("solve") > 1 and "A" not in calls[calls.index("solve"):]


def test_condition_identity_and_diag():
    assert condition_estimate(sps.eye(5, format="csc")).cond == pytest.approx(1.0, rel=1e-4)
    D = sps.diags([1.0, 10.0, 100.0]).tocsc()
    est = condition_estimate(D)
    assert est.cond == pytest.approx(100.0, rel=0.01)


def test_condition_tridiagonal_laplacian():
    n = 10
    A = sps.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsc()
    eigs = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    exact = eigs.max() / eigs.min()
    est = condition_estimate(A)
    assert exact == pytest.approx(48.37, abs=0.01)
    assert est.cond == pytest.approx(exact, rel=0.01)


def test_condition_estimate_without_iterations_and_when_capped(monkeypatch):
    """No DOF gives cond 1 and one DOF its own value, with no iteration; a
    run stopped at ``max_iter`` is not converged and counts the iterations
    of both the stopped power iteration and the inverse one."""
    assert condition_estimate(sps.csc_matrix((0, 0))) == vem.CondEstimate(1.0, 0.0, 0.0, True, 0)
    assert condition_estimate(sps.csc_matrix([[4.0]])) == vem.CondEstimate(1.0, 4.0, 4.0, True, 0)
    A = sps.diags(np.arange(1.0, 11.0)).tocsc()
    system = _all_free(A)
    factor = system.factor()
    calls = []

    class CountedMatrix:
        shape = A.shape

        def __matmul__(self, v):
            calls.append("A")
            return A @ v

    class CountedFactor:
        def solve(self, v):
            calls.append("solve")
            return factor.solve(v)

    monkeypatch.setattr(system, "A", CountedMatrix())
    monkeypatch.setattr(system, "factor", CountedFactor)
    est = condition_estimate(system, max_iter=20)
    assert est == ref_condition_estimate(A, factor, max_iter=20)
    products, solves = calls.count("A") - 1, calls.count("solve") - 1
    assert not est.converged and products == 20 and 0 < solves < 20
    assert est.iterations == products + solves


def test_projection_discrepancy_square_vs_sliver():
    square = build_element(SQUARE, 1)
    assert max(projector_discrepancies(square)) <= 1e-12
    sliver = build_element(
        np.array([[0, 0], [1000, 0], [1000, 1], [0, 1]], dtype=float), 3
    )
    nice = build_element(SQUARE, 3)
    assert projector_discrepancies(sliver)[0] > projector_discrepancies(nice)[0]


def _turns(p):
    """Cross products of consecutive edges: negative at a reflex vertex."""
    d = np.roll(p, -1, axis=0) - p
    nd = np.roll(d, -1, axis=0)
    return d[:, 0] * nd[:, 1] - d[:, 1] * nd[:, 0]


@pytest.fixture(scope="module")
def mixed_mesh():
    return mixed_region_mesh()


def _has_straight_vertex(pts):
    return (np.abs(_turns(pts)) <= 1e-12).any()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_build_matches_single_cells(mixed_mesh, k):
    """Each cell of a network-wide group (two meshes with different K and
    sources) gets the stiffness, load and projector discrepancies of
    building it alone, with its own mesh's K and source."""
    agglomerated = agglomerate(tri_grid_mesh(6, 6), AgglomerationConfig(lam=1.0)).mesh
    meshes = (mixed_mesh, agglomerated)
    counts = [len(ids) for ids in mixed_mesh.cells]
    assert min(counts) == 3 and max(counts) >= 9
    assert any((_turns(mixed_mesh.points[ids]) < 0).any() for ids in mixed_mesh.cells)
    assert any(_has_straight_vertex(m.points[ids]) for m in meshes for ids in m.cells)
    Ks = [np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([[0.5, 0.0], [0.0, 4.0]])]

    def f0(p):
        return np.sin(3.0 * p[:, 0]) + p[:, 1] ** 2

    def f1(p):
        return np.cos(2.0 * p[:, 1]) - p[:, 0]

    fs = [f0, f1]
    parts, _ = network_parts(meshes, k)
    groups = list(vem.cell_groups(parts))
    assert any(len(cells) == 1 for cells, _, _, _ in groups)
    assert any(len(set(part.tolist())) == 2 for _, part, _, _ in groups)
    base = np.cumsum([0] + [m.n_cells for m in meshes])
    seen = []
    for cells, part, dofs, pts in groups:
        el = build_element(pts, k, cell_id=cells)
        A = local_stiffness(el, np.stack(Ks)[part])
        fq = np.stack([fs[p](q) for p, q in zip(part, el.qp)])
        b = local_load(el, fq)
        dn, d0 = projector_discrepancies(el)
        for j, (c, p) in enumerate(zip(cells.tolist(), part.tolist())):
            m = meshes[p]
            one = build_element(m.points[m.cells[c - base[p]]], k)
            A1 = local_stiffness(one, Ks[p])
            b1 = local_load(one, fs[p](one.qp))
            assert np.abs(A[j] - A1).max() <= 1e-12 * np.abs(A1).max()
            assert np.abs(b[j] - b1).max() <= 1e-12 * np.abs(b1).max()
            dn1, d01 = projector_discrepancies(one)
            assert abs(dn[j] - dn1) <= 1e-10 and abs(d0[j] - d01) <= 1e-10
            seen.append(c)
    assert sorted(seen) == list(range(base[-1]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_zero_area_padding_keeps_quadrature_sums(k):
    """On cells with straight vertices, the padded group rule (a zero-area
    triangle per dropped vertex) gives the mass matrix and load of the
    unpadded rule on each cell's own ear clipping, and the error and
    solution norms equal the sums of that unpadded rule over all cells."""
    mesh = agglomerate(tri_grid_mesh(8, 8), AgglomerationConfig(lam=1.0)).mesh
    ms = CATALOG["sinsin"]
    parts, total = network_parts([mesh], k)
    u = np.random.default_rng(3).standard_normal(total)
    nk1 = monomial_dim(k - 1)
    groups, padded, ref = [], 0, np.zeros(4)
    for cells, part, dofs, pts in vem.cell_groups(parts):
        el = build_element(pts, k, cell_id=cells)
        groups.append(vem.ElementGroup.of(cells, part, dofs, el))
        b = local_load(el, ms.f(el.qp.reshape(-1, 2)).reshape(el.qw.shape))
        for j in range(len(cells)):
            tris = ref_ear_clip(pts[j])
            qp, qw = triangle_quadrature(pts[j][tris], 2 * k + 2)
            qp, qw = qp.reshape(-1, 2), qw.ravel()
            Mq = vem.eval_monomials(k, qp, el.centroid[j], el.diameter[j])
            uh, gxh, gyh = (M @ (P[j] @ u[dofs[j]]) for M, P in
                            ((Mq, el.pi0s), (Mq[:, :nk1], el.pigrad[0]), (Mq[:, :nk1], el.pigrad[1])))
            ge = ms.grad(qp)
            ref += [qw @ (ms.u(qp) - uh) ** 2, qw @ ((ge[:, 0] - gxh) ** 2 + (ge[:, 1] - gyh) ** 2),
                    qw @ uh ** 2, qw @ (gxh ** 2 + gyh ** 2)]
            if len(tris) == len(pts[j]) - 2:
                continue
            padded += 1
            assert (el.qw[j] == 0.0).sum() > 0
            H = Mq.T @ (qw[:, None] * Mq)
            assert np.abs(el.H[j] - H).max() <= 1e-12 * np.abs(H).max()
            b1 = el.pi0km1s[j].T @ (Mq[:, :nk1].T @ (qw * ms.f(qp)))
            assert np.abs(b[j] - b1).max() <= 1e-12 * np.abs(b1).max()
    assert padded > 0
    projected = vem.projected_solution(groups, u)
    got = vem.error_norms(groups, projected, [ms.u], [ms.grad]) + vem.solution_norms(groups, projected)
    assert np.allclose(got, np.sqrt(ref), rtol=1e-12, atol=0.0)


def test_stiffness_with_a_k_stack_equals_single_k_calls():
    """local_stiffness with one K per cell equals a call per distinct K."""
    mesh = grid_mesh(3, 2, jitter=0.3, seed=2)
    pts = np.stack([mesh.points[ids] for ids in mesh.cells])
    Ks = np.array([[[2.0, 0.3], [0.3, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.5, -0.2], [-0.2, 3.0]]])
    which = np.arange(len(pts)) % 3
    for k in (1, 2, 3):
        el = build_element(pts, k)
        A = local_stiffness(el, Ks[which])
        for i, K in enumerate(Ks):
            assert np.array_equal(A[which == i], local_stiffness(el, K)[which == i])
    bad = Ks.copy()
    bad[1] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(ValueError, match="positive definite"):
        local_stiffness(el, bad[which])
