"""Order k = 1, 2, 3 virtual element discretization of diffusion problems.

Local spaces use scaled monomials centered at the cell centroid; degrees of
freedom are vertex values, internal Gauss-Lobatto edge values (k > 1) and
normalized interior moments against the degree k-2 monomials.  The local
bilinear form couples the L2 projection of gradients with a dofi-dofi
stabilization scaled by the transmissivity norm.  Element matrices are
built for whole stacks of cells at once: a mesh is split by ``cell_groups``
and every array of a ``VemElement`` then carries the stack axis.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from . import geometry
from .mesh import MeshError, PolygonalMesh
from .quadrature import edge_lobatto_quadrature, gauss_lobatto_points, polygon_quadrature


class SolverError(RuntimeError):
    """Numerical failure in factorization or iteration."""


@lru_cache(maxsize=None)
def monomial_exponents(k: int) -> np.ndarray:
    """Exponent table of the scaled monomial basis, degree-major order."""
    exps = []
    for d in range(k + 1):
        for ax in range(d, -1, -1):
            exps.append((ax, d - ax))
    return np.asarray(exps, dtype=np.int64)


def monomial_dim(k: int) -> int:
    return (k + 1) * (k + 2) // 2 if k >= 0 else 0


def eval_monomials(exps, pts, center, h) -> np.ndarray:
    """Scaled monomials at (..., p, 2) points of cells with (..., 2) centers
    and (...) diameters; returns (..., p, len(exps))."""
    X, Y = _scaled_coords(pts, center, h)
    return np.stack([X ** a * Y ** b for a, b in exps], axis=-1)


def eval_monomial_grads(exps, pts, center, h):
    """x and y derivatives of the scaled monomials, each (..., p, len(exps))."""
    X, Y = _scaled_coords(pts, center, h)
    h = np.asarray(h)[..., None]
    zero = np.zeros_like(X)
    gx = [a / h * X ** (a - 1) * Y ** b if a > 0 else zero for a, b in exps]
    gy = [b / h * X ** a * Y ** (b - 1) if b > 0 else zero for a, b in exps]
    return np.stack(gx, axis=-1), np.stack(gy, axis=-1)


def _scaled_coords(pts, center, h):
    center = np.asarray(center)[..., None, :]
    h = np.asarray(h)[..., None]
    return (pts[..., 0] - center[..., 0]) / h, (pts[..., 1] - center[..., 1]) / h


def _monomial_index(a: int, b: int) -> int:
    d = a + b
    return d * (d + 1) // 2 + (d - a)


def n_local_dofs(k: int, n_vertices: int) -> int:
    return n_vertices * k + k * (k - 1) // 2


@lru_cache(maxsize=None)
def _edge_scatter(n: int, k: int) -> np.ndarray:
    """0/1 matrix taking Lobatto point q of edge i (row i*(k+1)+q) to its
    local dof: the edge's end vertices for q = 0 and q = k, else its
    internal edge dof."""
    S = np.zeros((n * (k + 1), n_local_dofs(k, n)))
    for i in range(n):
        for q in range(k + 1):
            j = i if q == 0 else (i + 1) % n if q == k else n + i * (k - 1) + q - 1
            S[i * (k + 1) + q, j] = 1.0
    S.flags.writeable = False
    return S


@dataclass
class VemElement:
    """Local matrices of one cell, or of a stack of cells sharing a vertex
    count: every array then carries the stack's leading axes."""

    k: int
    points: np.ndarray
    area: float
    centroid: np.ndarray
    diameter: float
    ndof: int
    D: np.ndarray            # dof_i(m_j)
    pins: np.ndarray         # H1 projector, monomial coefficients
    pi0s: np.ndarray         # L2 projector onto P_k
    pi0km1s: np.ndarray      # L2 projector onto P_{k-1} (load term)
    pigrad: tuple            # (x, y) L2 gradient projectors onto P_{k-1}
    H: np.ndarray            # monomial mass matrix
    qp: np.ndarray
    qw: np.ndarray
    Mq: np.ndarray           # monomials at quadrature points


def build_element(points, k: int, cell_id=None, triangles=None) -> VemElement:
    """All local projector matrices of one polygonal cell (n, 2), or of a
    stack of cells (..., n, 2) with one vertex count, built in one pass.

    ``triangles`` (..., t, 3) is the ear clipping of each cell; when
    omitted, ``polygon_quadrature`` clips the cells itself.
    """
    pts = np.asarray(points, dtype=float)
    lead, n = pts.shape[:-2], pts.shape[-2]
    area, cx, cy = geometry.polygon_area_centroid(pts)
    bad = area <= 0.0
    if bad.any():
        who = np.broadcast_to(np.asarray(cell_id, dtype=object), bad.shape)[bad][0]
        raise MeshError(f"degenerate cell {who} in element construction")
    center = np.stack([cx, cy], axis=-1)
    h = geometry.polygon_diameter(pts)
    exps = monomial_exponents(k)
    nk1 = monomial_dim(k - 1)
    nmom = k * (k - 1) // 2
    ndof = n_local_dofs(k, n)
    mom_base = n * k

    qp, qw = polygon_quadrature(pts, 2 * k + 2, triangles)
    Mq = eval_monomials(exps, qp, center, h)
    H = Mq.swapaxes(-1, -2) @ (qw[..., None] * Mq)

    # dof positions: vertices, then k-1 internal Lobatto points per edge;
    # edge i runs from vertex i to vertex i+1
    nxt = np.roll(pts, -1, axis=-2)
    gl, _ = gauss_lobatto_points(k, pts, nxt)
    D = np.concatenate([
        eval_monomials(exps, pts, center, h),
        eval_monomials(exps, gl.reshape(lead + (-1, 2)), center, h),
        H[..., :nmom, :] / area[..., None, None],
    ], axis=-2)

    # B: rows (grad m_r, grad phi_j) by parts; row 0 fixes the projector
    # constant.  Edge terms are summed per Lobatto point, then scattered to
    # the dofs.
    e = nxt - pts
    elen = np.hypot(e[..., 0], e[..., 1])
    ep, ew = edge_lobatto_quadrature(k, pts, nxt)
    ep = ep.reshape(lead + (-1, 2))
    wnx = (ew * (e[..., 1] / elen)[..., None]).reshape(lead + (-1, 1))
    wny = (ew * (-e[..., 0] / elen)[..., None]).reshape(lead + (-1, 1))
    gx, gy = eval_monomial_grads(exps, ep, center, h)
    Me = eval_monomials(exps, ep, center, h)[..., :nk1]
    S = _edge_scatter(n, k)
    B = (wnx * gx + wny * gy).swapaxes(-1, -2) @ S
    Ex = (wnx * Me).swapaxes(-1, -2) @ S
    Ey = (wny * Me).swapaxes(-1, -2) @ S
    if nmom:
        for r, (a_, b_) in enumerate(exps):
            if a_ >= 2:
                B[..., r, mom_base + _monomial_index(a_ - 2, b_)] -= (
                    area * a_ * (a_ - 1) / h**2
                )
            if b_ >= 2:
                B[..., r, mom_base + _monomial_index(a_, b_ - 2)] -= (
                    area * b_ * (b_ - 1) / h**2
                )
        for r, (a_, b_) in enumerate(exps[:nk1]):
            if a_ >= 1:
                Ex[..., r, mom_base + _monomial_index(a_ - 1, b_)] -= area * a_ / h
            if b_ >= 1:
                Ey[..., r, mom_base + _monomial_index(a_, b_ - 1)] -= area * b_ / h

    B[..., 0, :] = 0.0
    if k == 1:
        peri = elen.sum(axis=-1)
        B[..., 0, :n] = (np.roll(elen, 1, axis=-1) + elen) / (2.0 * peri[..., None])
    else:
        B[..., 0, mom_base] = 1.0

    pins = np.linalg.solve(B @ D, B)

    # L2 projector onto P_k: exact moments up to k-2, enhancement above
    moments = (np.arange(nmom), mom_base + np.arange(nmom))
    C = H @ pins
    C[..., :nmom, :] = 0.0
    C[(...,) + moments] = area[..., None]
    pi0s = np.linalg.solve(H, C)

    H1 = H[..., :nk1, :nk1]
    C = H[..., :nk1, :] @ pins
    C[..., :nmom, :] = 0.0
    C[(...,) + moments] = area[..., None]
    pi0km1s = np.linalg.solve(H1, C)

    pgx = np.linalg.solve(H1, Ex)
    pgy = np.linalg.solve(H1, Ey)

    return VemElement(
        k=k,
        points=pts,
        area=area[()],
        centroid=center,
        diameter=h[()],
        ndof=ndof,
        D=D,
        pins=pins,
        pi0s=pi0s,
        pi0km1s=pi0km1s,
        pigrad=(pgx, pgy),
        H=H,
        qp=qp,
        qw=qw,
        Mq=Mq,
    )


def local_stiffness(element: VemElement, K=None) -> np.ndarray:
    """Consistency term on projected gradients plus dofi-dofi stabilization."""
    if K is None:
        K = np.eye(2)
    K = np.asarray(K, dtype=float)
    if K.shape != (2, 2) or not np.allclose(K, K.T, rtol=1e-12, atol=1e-14):
        raise ValueError("K must be a symmetric 2x2 matrix")
    ev = np.linalg.eigvalsh(K)
    if ev[0] <= 0.0:
        raise ValueError("K must be positive definite")
    nk1 = monomial_dim(element.k - 1)
    H1 = element.H[..., :nk1, :nk1]
    g = element.pigrad
    A = np.zeros(element.D.shape[:-2] + (element.ndof, element.ndof))
    for c in range(2):
        for d in range(2):
            if K[c, d] != 0.0:
                A += K[c, d] * (g[c].swapaxes(-1, -2) @ H1 @ g[d])
    S = np.eye(element.ndof) - element.D @ element.pins
    A += np.linalg.norm(K, 2) * (S.swapaxes(-1, -2) @ S)
    return 0.5 * (A + A.swapaxes(-1, -2))


def local_load(element: VemElement, f) -> np.ndarray:
    """(f, Pi0_{k-1} phi_j) over the cell via the stored quadrature."""
    nk1 = monomial_dim(element.k - 1)
    fv = _at_points(f, element.qp)
    fm = np.einsum("...pr,...p->...r", element.Mq[..., :nk1], element.qw * fv)
    return np.einsum("...rj,...r->...j", element.pi0km1s, fm)


def _at_points(fn, pts) -> np.ndarray:
    """``fn`` of (N, 2) points evaluated at stacked (..., p, 2) points."""
    out = np.asarray(fn(pts.reshape(-1, 2)), dtype=float)
    return out.reshape(pts.shape[:-1] + out.shape[1:])


def projector_discrepancies(element: VemElement):
    """Spectral norms of Pi_nabla*D - I and Pi0*D - I (one per stacked cell)."""
    eye = np.eye(element.D.shape[-1])
    dn = np.linalg.norm(element.pins @ element.D - eye, 2, axis=(-2, -1))
    d0 = np.linalg.norm(element.pi0s @ element.D - eye, 2, axis=(-2, -1))
    return dn[()], d0[()]


# ---------------------------------------------------------------------------
# DOF bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class DofMap:
    k: int
    n_vertices: int
    n_edges: int
    n_cells: int
    total: int
    cell_dofs: list          # per cell, local -> global
    edge_base: int
    moment_base: int

    def edge_slot(self, edge_id: int, s: int) -> int:
        return self.edge_base + edge_id * (self.k - 1) + s

    def group_dofs(self, cell_ids) -> np.ndarray:
        """(m, ndof) local-to-global ids of cells with one vertex count."""
        return np.stack([self.cell_dofs[c] for c in cell_ids])


def build_dof_map(mesh: PolygonalMesh, k: int) -> DofMap:
    """Local-to-global DOF ids of every cell: its vertices, then k-1 slots
    per edge in the cell's traversal direction, then its moments.

    Cells are handled one vertex-count group at a time; an edge's slots run
    from its lower to its higher vertex id and are reversed for a cell that
    traverses the edge the other way.
    """
    if k not in (1, 2, 3):
        raise ValueError("order k must be 1, 2 or 3")
    nv, ne, nc = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    km1 = k - 1
    nmom = k * (k - 1) // 2
    edge_base = nv
    moment_base = nv + ne * km1
    total = moment_base + nc * nmom
    sizes = np.fromiter(map(len, mesh.cells), dtype=np.int64, count=nc)
    cell_dofs = [None] * nc
    for n in np.unique(sizes).tolist():
        cids = np.flatnonzero(sizes == n)
        ids = np.stack([mesh.cells[c] for c in cids])
        g = np.empty((len(cids), n * k + nmom), dtype=np.int64)
        g[:, :n] = ids
        if k > 1:
            nxt = np.roll(ids, -1, axis=1)
            e = mesh.edge_ids(ids, nxt)
            slots = edge_base + e[..., None] * km1 + np.arange(km1)
            reverse = ids > nxt
            slots[reverse] = slots[reverse, ::-1]
            g[:, n: n * k] = slots.reshape(len(cids), n * km1)
        if nmom:
            g[:, n * k:] = moment_base + cids[:, None] * nmom + np.arange(nmom)
        for c, row in zip(cids.tolist(), g):
            cell_dofs[c] = row
    return DofMap(k, nv, ne, nc, total, cell_dofs, edge_base, moment_base)


def dof_positions(mesh: PolygonalMesh, dofmap: DofMap) -> np.ndarray:
    """Geometric location of vertex and edge DOFs (moments get the centroid)."""
    pos = np.empty((dofmap.total, 2))
    pos[: mesh.n_vertices] = mesh.points
    if dofmap.k > 1:
        ends = mesh.points[mesh.edges]
        gl, _ = gauss_lobatto_points(dofmap.k, ends[:, 0], ends[:, 1])
        pos[dofmap.edge_base: dofmap.moment_base] = gl.reshape(-1, 2)
    nmom = dofmap.k * (dofmap.k - 1) // 2
    if nmom:
        pos[dofmap.moment_base:] = np.repeat(mesh.cell_centroid, nmom, axis=0)
    return pos


def boundary_dofs(mesh: PolygonalMesh, dofmap: DofMap, edge_ids=None) -> np.ndarray:
    """Vertex and edge DOFs carried by the given (default: all) boundary edges."""
    if edge_ids is None:
        edge_ids = mesh.boundary_edge_ids()
    e = np.asarray(edge_ids, dtype=np.int64)
    ends = mesh.edges[e]
    km1 = dofmap.k - 1
    slots = dofmap.edge_base + e[:, None] * km1 + np.arange(km1)
    return np.unique(np.concatenate([ends.ravel(), slots.ravel()]))


# ---------------------------------------------------------------------------
# global assembly and solve
# ---------------------------------------------------------------------------

@dataclass
class SparseSpdSystem:
    A: sps.csr_matrix        # full symmetric operator
    b: np.ndarray
    dirichlet_idx: np.ndarray
    dirichlet_val: np.ndarray
    free_idx: np.ndarray
    dofmap: DofMap
    _factor: object = field(default=None, repr=False)
    _A_free: object = field(default=None, repr=False)

    @property
    def nnz(self) -> int:
        """Nonzeros of the Dirichlet-eliminated operator actually solved."""
        return self.reduced_matrix().nnz

    def reduced_matrix(self):
        if self._A_free is None:
            self._A_free = self.A[self.free_idx][:, self.free_idx].tocsc()
        return self._A_free

    def factor(self):
        if self._factor is None:
            self._factor = _factor_spd(self.reduced_matrix())
        return self._factor


def _factor_spd(A):
    """SuperLU factor of the SPD matrix ``A`` (CSC).

    The columns are ordered by minimum degree on the pattern of A^T + A and
    every pivot is taken on the diagonal, so the factor keeps the symmetric
    structure (about half the fill of SuperLU's default COLAMD ordering).
    A singular matrix raises SolverError, and so does a zero diagonal pivot,
    where SuperLU takes an off-diagonal one instead: no SPD matrix needs
    that, so the row and column orders then differ.
    """
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as err:
        raise SolverError(f"factorization failed: {err}") from err
    if (lu.perm_r != lu.perm_c).any():
        raise SolverError("factorization failed: zero pivot "
                          "(the matrix is not positive definite)")
    return lu


def cell_groups(mesh: PolygonalMesh):
    """Cells grouped by (vertex count, ear-clip triangle count), keys ascending.

    Yields (cell ids, (m, n) vertex ids, (m, t, 3) ear-clip triangles).
    Straight vertices yield no triangle, so the cells of one group share
    one quadrature layout and stack without padding.
    """
    sizes = np.fromiter(map(len, mesh.cells), dtype=np.int64, count=mesh.n_cells)
    for n in np.unique(sizes).tolist():
        cids = np.flatnonzero(sizes == n)
        verts = np.stack([mesh.cells[c] for c in cids])
        tris = geometry.ear_clip(mesh.points[verts])  # -1 rows: dropped vertices
        counts = (tris[..., 0] >= 0).sum(axis=1)
        for t in np.unique(counts).tolist():
            sel = counts == t
            yield cids[sel], verts[sel], tris[sel][tris[sel][..., 0] >= 0].reshape(-1, t, 3)


def build_local_system(mesh: PolygonalMesh, dofmap: DofMap, K=None, f=None):
    """Element groups plus COO triplets and load vector in the mesh-local DOF
    ids of ``dofmap``, which fixes the order k.

    One ``build_element`` call per ``cell_groups`` group; ``elements`` is a
    list of (cell ids, stacked VemElement).
    """
    k = dofmap.k
    elements = []
    rows, cols, vals = [], [], []
    b = np.zeros(dofmap.total)
    for cids, verts, tris in cell_groups(mesh):
        el = build_element(mesh.points[verts], k, cell_id=cids, triangles=tris)
        elements.append((cids, el))
        Ke = local_stiffness(el, K)
        g = dofmap.group_dofs(cids)
        rows.append(np.broadcast_to(g[:, :, None], Ke.shape).ravel())
        cols.append(np.broadcast_to(g[:, None, :], Ke.shape).ravel())
        vals.append(Ke.ravel())
        if f is not None:
            np.add.at(b, g, local_load(el, f))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return elements, rows, cols, vals, b


def assemble(mesh: PolygonalMesh, k: int, K=None, f=None, dirichlet=None):
    """Assemble the global system with Dirichlet data on the whole boundary.

    ``dirichlet`` maps (n, 2) positions to values and is interpolated at the
    vertex and edge DOF points of boundary edges.  Returns the system plus
    the element groups for later error evaluation.
    """
    if dirichlet is None:
        raise MeshError("boundary data missing: a Dirichlet callable is required")
    dofmap = build_dof_map(mesh, k)
    elements, rows, cols, vals, b = build_local_system(mesh, dofmap, K, f)
    A = sps.coo_matrix(
        (vals, (rows, cols)), shape=(dofmap.total, dofmap.total)
    ).tocsr()
    A = ((A + A.T) * 0.5).tocsr()
    dir_idx = boundary_dofs(mesh, dofmap)
    pos = dof_positions(mesh, dofmap)
    dir_val = np.asarray(dirichlet(pos[dir_idx]), dtype=float)
    free = np.setdiff1d(np.arange(dofmap.total), dir_idx)
    system = SparseSpdSystem(A, b, dir_idx, dir_val, free, dofmap)
    return system, elements


def solve_spd(system: SparseSpdSystem) -> np.ndarray:
    """Direct solve after symmetric Dirichlet elimination; checks the residual.

    Non-finite load or Dirichlet data, and a residual that is not finite or
    above 1e-12 relative, raise SolverError.
    """
    if not (np.isfinite(system.b).all() and np.isfinite(system.dirichlet_val).all()):
        raise SolverError("non-finite load vector or Dirichlet values")
    x = np.zeros(system.A.shape[0])
    x[system.dirichlet_idx] = system.dirichlet_val
    if len(system.free_idx) == 0:
        return x
    bI = system.b[system.free_idx] - system.A[system.free_idx][
        :, system.dirichlet_idx
    ] @ system.dirichlet_val
    xI = system.factor().solve(bI)
    res = np.linalg.norm(system.reduced_matrix() @ xI - bI)
    scale = np.linalg.norm(bI)
    if not (res <= 1e-12 * scale):  # written so that a NaN residual fails
        raise SolverError(f"solver residual {res:.3e} exceeds 1e-12 * {scale:.3e}")
    x[system.free_idx] = xI
    return x


@dataclass
class CondEstimate:
    cond: float
    lam_max: float
    lam_min: float
    converged: bool
    iterations: int


def condition_estimate(system_or_matrix, tol=1e-6, max_iter=5000) -> CondEstimate:
    """2-norm condition estimate of the eliminated SPD operator.

    Largest eigenvalue by power iteration, smallest by inverse iteration
    through the sparse factorization; Rayleigh quotients are iterated until
    the relative change drops below ``tol`` (well inside the 1% target).
    """
    if isinstance(system_or_matrix, SparseSpdSystem):
        A = system_or_matrix.reduced_matrix()
        factor = system_or_matrix.factor()
    else:
        A = sps.csc_matrix(system_or_matrix)
        factor = _factor_spd(A)
    n = A.shape[0]
    if n == 0:
        return CondEstimate(1.0, 0.0, 0.0, True, 0)
    if n == 1:
        v = float(A[0, 0])
        return CondEstimate(1.0, v, v, True, 0)
    rng = np.random.default_rng(0)

    def iterate(op):
        # op(v) of the Rayleigh quotient is the next iterate's w, so each
        # iteration applies op once
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        w = op(v)
        lam = 0.0
        for it in range(1, max_iter + 1):
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0, it, True
            v = w / nw
            w = op(v)
            new = float(v @ w)
            if abs(new - lam) <= tol * abs(new):
                return new, it, True
            lam = new
        return lam, max_iter, False

    lam_max, it1, ok1 = iterate(lambda v: A @ v)
    inv_lam, it2, ok2 = iterate(factor.solve)
    lam_min = 1.0 / inv_lam if inv_lam != 0.0 else np.inf
    cond = lam_max / lam_min if lam_min > 0 else np.inf
    return CondEstimate(float(cond), float(lam_max), float(lam_min),
                        ok1 and ok2, it1 + it2)


def _projected_solution(k, element, u_loc):
    """Pi0_k u_h and the projected gradient at each cell's quadrature points."""
    nk1 = monomial_dim(k - 1)

    def at_qp(P, Mq):
        return np.einsum("...pr,...r->...p", Mq,
                         np.einsum("...rj,...j->...r", P, u_loc))

    Mq1 = element.Mq[..., :nk1]
    return (at_qp(element.pi0s, element.Mq),
            at_qp(element.pigrad[0], Mq1), at_qp(element.pigrad[1], Mq1))


def error_norms(mesh, k, elements, dofmap, solution, exact_u, exact_grad):
    """Global L2 error against Pi0_k u_h and H1 seminorm error on gradients."""
    l2 = 0.0
    h1 = 0.0
    for cids, el in elements:
        uh, gxh, gyh = _projected_solution(k, el, solution[dofmap.group_dofs(cids)])
        ue = _at_points(exact_u, el.qp)
        ge = _at_points(exact_grad, el.qp)
        l2 += float(np.sum(el.qw * (ue - uh) ** 2))
        h1 += float(np.sum(el.qw * ((ge[..., 0] - gxh) ** 2 + (ge[..., 1] - gyh) ** 2)))
    return np.sqrt(l2), np.sqrt(h1)


def solution_norms(mesh, k, elements, dofmap, solution):
    """L2 norm and H1 seminorm of the projected discrete solution."""
    l2 = 0.0
    h1 = 0.0
    for cids, el in elements:
        uh, gxh, gyh = _projected_solution(k, el, solution[dofmap.group_dofs(cids)])
        l2 += float(np.sum(el.qw * uh**2))
        h1 += float(np.sum(el.qw * (gxh**2 + gyh**2)))
    return np.sqrt(l2), np.sqrt(h1)


def projection_discrepancy(mesh: PolygonalMesh, k: int, elements):
    """Per-cell spectral norms of the two projector identities, in cell order."""
    dn = np.empty(mesh.n_cells)
    d0 = np.empty(mesh.n_cells)
    for cids, el in elements:
        dn[cids], d0[cids] = projector_discrepancies(el)
    return dn, d0
