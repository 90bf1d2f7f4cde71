"""Order k = 1, 2, 3 virtual element discretization of diffusion problems.

Local spaces use scaled monomials centered at the cell centroid; degrees of
freedom are vertex values, internal Gauss-Lobatto edge values (k > 1) and
normalized interior moments against the degree k-2 monomials.  The local
bilinear form couples the L2 projection of gradients with a dofi-dofi
stabilization scaled by the transmissivity norm.
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
    X = (pts[:, 0] - center[0]) / h
    Y = (pts[:, 1] - center[1]) / h
    out = np.empty((len(pts), len(exps)))
    for j, (a, b) in enumerate(exps):
        out[:, j] = X ** a * Y ** b
    return out


def eval_monomial_grads(exps, pts, center, h):
    X = (pts[:, 0] - center[0]) / h
    Y = (pts[:, 1] - center[1]) / h
    gx = np.zeros((len(pts), len(exps)))
    gy = np.zeros((len(pts), len(exps)))
    for j, (a, b) in enumerate(exps):
        if a > 0:
            gx[:, j] = a / h * X ** (a - 1) * Y ** b
        if b > 0:
            gy[:, j] = b / h * X ** a * Y ** (b - 1)
    return gx, gy


def _monomial_index(a: int, b: int) -> int:
    d = a + b
    return d * (d + 1) // 2 + (d - a)


def n_local_dofs(k: int, n_vertices: int) -> int:
    return n_vertices * k + k * (k - 1) // 2


@dataclass
class VemElement:
    k: int
    points: np.ndarray
    area: float
    centroid: np.ndarray
    diameter: float
    ndof: int
    D: np.ndarray            # dof_i(m_j)
    pins: np.ndarray         # H1 projector, monomial coefficients
    pin_dof: np.ndarray      # H1 projector in dof representation
    pi0s: np.ndarray         # L2 projector onto P_k
    pi0km1s: np.ndarray      # L2 projector onto P_{k-1} (load term)
    pigrad: tuple            # (x, y) L2 gradient projectors onto P_{k-1}
    H: np.ndarray            # monomial mass matrix
    qp: np.ndarray
    qw: np.ndarray
    Mq: np.ndarray           # monomials at quadrature points


def build_element(points, k: int, cell_id=None) -> VemElement:
    """All local projector matrices of one polygonal cell."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    area, cx, cy = geometry.polygon_area_centroid(pts)
    if area <= 0.0:
        raise MeshError(f"degenerate cell {cell_id} in element construction")
    center = np.array([cx, cy])
    h = float(geometry.polygon_diameter(pts))
    exps = monomial_exponents(k)
    nk = len(exps)
    nk1 = monomial_dim(k - 1)
    nmom = k * (k - 1) // 2
    ndof = n * k + nmom
    mom_base = n * k

    qp, qw = polygon_quadrature(pts, 2 * k + 2)
    Mq = eval_monomials(exps, qp, center, h)
    H = Mq.T @ (qw[:, None] * Mq)

    # dof positions: vertices, then k-1 internal Lobatto points per edge
    D = np.empty((ndof, nk))
    D[:n] = eval_monomials(exps, pts, center, h)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        gl, _ = gauss_lobatto_points(k, a, b)
        if k > 1:
            D[n + i * (k - 1): n + (i + 1) * (k - 1)] = eval_monomials(
                exps, gl, center, h
            )
    if nmom:
        D[mom_base:] = H[:nmom, :] / area

    def edge_dof(i, q):
        if q == 0:
            return i
        if q == k:
            return (i + 1) % n
        return n + i * (k - 1) + (q - 1)

    # B: rows (grad m_r, grad phi_j) by parts; row 0 fixes the projector constant
    B = np.zeros((nk, ndof))
    Ex = np.zeros((nk1, ndof))
    Ey = np.zeros((nk1, ndof))
    elen = np.empty(n)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        d = b - a
        ln = np.hypot(*d)
        elen[i] = ln
        nrm = np.array([d[1], -d[0]]) / ln
        ep, ew = edge_lobatto_quadrature(k, a, b)
        gx, gy = eval_monomial_grads(exps, ep, center, h)
        Me = eval_monomials(exps, ep, center, h)
        for q in range(k + 1):
            j = edge_dof(i, q)
            flux = ew[q] * (gx[q] * nrm[0] + gy[q] * nrm[1])
            B[:, j] += flux
            Ex[:, j] += ew[q] * nrm[0] * Me[q, :nk1]
            Ey[:, j] += ew[q] * nrm[1] * Me[q, :nk1]
    if nmom:
        for r, (a_, b_) in enumerate(exps):
            if a_ >= 2:
                B[r, mom_base + _monomial_index(a_ - 2, b_)] -= (
                    area * a_ * (a_ - 1) / h**2
                )
            if b_ >= 2:
                B[r, mom_base + _monomial_index(a_, b_ - 2)] -= (
                    area * b_ * (b_ - 1) / h**2
                )
        for r, (a_, b_) in enumerate(exps[:nk1]):
            if a_ >= 1:
                Ex[r, mom_base + _monomial_index(a_ - 1, b_)] -= area * a_ / h
            if b_ >= 1:
                Ey[r, mom_base + _monomial_index(a_, b_ - 1)] -= area * b_ / h

    B[0, :] = 0.0
    if k == 1:
        peri = elen.sum()
        for j in range(n):
            B[0, j] = (elen[j - 1] + elen[j]) / (2.0 * peri)
    else:
        B[0, mom_base] = 1.0

    G = B @ D
    pins = np.linalg.solve(G, B)
    pin_dof = D @ pins

    # L2 projector onto P_k: exact moments up to k-2, enhancement above
    C = H @ pins
    for r in range(nmom):
        C[r, :] = 0.0
        C[r, mom_base + r] = area
    pi0s = np.linalg.solve(H, C)

    H1 = H[:nk1, :nk1]
    C1 = (H[:nk1, :] @ pins)
    for r in range(min(nmom, nk1)):
        C1[r, :] = 0.0
        C1[r, mom_base + r] = area
    pi0km1s = np.linalg.solve(H1, C1)

    pgx = np.linalg.solve(H1, Ex)
    pgy = np.linalg.solve(H1, Ey)

    return VemElement(
        k=k,
        points=pts,
        area=float(area),
        centroid=center,
        diameter=h,
        ndof=ndof,
        D=D,
        pins=pins,
        pin_dof=pin_dof,
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
    H1 = element.H[:nk1, :nk1]
    g = element.pigrad
    A = np.zeros((element.ndof, element.ndof))
    for c in range(2):
        for d in range(2):
            if K[c, d] != 0.0:
                A += K[c, d] * (g[c].T @ H1 @ g[d])
    S = np.eye(element.ndof) - element.pin_dof
    A += np.linalg.norm(K, 2) * (S.T @ S)
    return 0.5 * (A + A.T)


def local_load(element: VemElement, f) -> np.ndarray:
    """(f, Pi0_{k-1} phi_j) over the cell via the stored quadrature."""
    nk1 = monomial_dim(element.k - 1)
    fv = np.asarray(f(element.qp), dtype=float)
    fm = element.Mq[:, :nk1].T @ (element.qw * fv)
    return element.pi0km1s.T @ fm


def projector_discrepancies(element: VemElement):
    """Spectral norms of Pi_nabla*D - I and Pi0*D - I."""
    nk = element.D.shape[1]
    eye = np.eye(nk)
    dn = np.linalg.norm(element.pins @ element.D - eye, 2)
    d0 = np.linalg.norm(element.pi0s @ element.D - eye, 2)
    return float(dn), float(d0)


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

    def edge_slots(self, edge_id: int) -> np.ndarray:
        km1 = self.k - 1
        return np.arange(
            self.edge_base + edge_id * km1, self.edge_base + (edge_id + 1) * km1
        )


def build_dof_map(mesh: PolygonalMesh, k: int) -> DofMap:
    if k not in (1, 2, 3):
        raise ValueError("order k must be 1, 2 or 3")
    nv, ne, nc = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    km1 = k - 1
    nmom = k * (k - 1) // 2
    edge_base = nv
    moment_base = nv + ne * km1
    total = moment_base + nc * nmom
    cell_dofs = []
    for ci, ids in enumerate(mesh.cells):
        m = len(ids)
        g = np.empty(m * k + nmom, dtype=np.int64)
        g[:m] = ids
        if k > 1:
            for i in range(m):
                u, v = int(ids[i]), int(ids[(i + 1) % m])
                key = (u, v) if u < v else (v, u)
                e = mesh.edge_index[key]
                base = edge_base + e * km1
                slots = np.arange(base, base + km1)
                if u > v:
                    slots = slots[::-1]
                g[m + i * km1: m + (i + 1) * km1] = slots
        if nmom:
            g[m * k:] = moment_base + ci * nmom + np.arange(nmom)
        cell_dofs.append(g)
    return DofMap(k, nv, ne, nc, total, cell_dofs, edge_base, moment_base)


def dof_positions(mesh: PolygonalMesh, dofmap: DofMap) -> np.ndarray:
    """Geometric location of vertex and edge DOFs (moments get the centroid)."""
    pos = np.empty((dofmap.total, 2))
    pos[: mesh.n_vertices] = mesh.points
    if dofmap.k > 1:
        for e, (u, v) in enumerate(mesh.edges):
            gl, _ = gauss_lobatto_points(dofmap.k, mesh.points[u], mesh.points[v])
            pos[dofmap.edge_slots(e)] = gl
    nmom = dofmap.k * (dofmap.k - 1) // 2
    if nmom:
        for ci in range(mesh.n_cells):
            pos[dofmap.moment_base + ci * nmom: dofmap.moment_base + (ci + 1) * nmom] = (
                mesh.cell_centroid[ci]
            )
    return pos


def boundary_dofs(mesh: PolygonalMesh, dofmap: DofMap, edge_ids=None) -> np.ndarray:
    """Vertex and edge DOFs carried by the given (default: all) boundary edges."""
    if edge_ids is None:
        edge_ids = mesh.boundary_edge_ids()
    out = set()
    for e in edge_ids:
        u, v = mesh.edges[int(e)]
        out.add(u)
        out.add(v)
        if dofmap.k > 1:
            out.update(int(s) for s in dofmap.edge_slots(int(e)))
    return np.array(sorted(out), dtype=np.int64)


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
            Af = self.reduced_matrix()
            try:
                self._factor = spla.splu(Af)
            except RuntimeError as err:
                raise SolverError(f"factorization failed: {err}") from err
        return self._factor


def build_local_system(mesh: PolygonalMesh, k: int, K=None, f=None):
    """Element list plus COO triplets and load vector in mesh-local DOF ids."""
    dofmap = build_dof_map(mesh, k)
    elements = []
    rows, cols, vals = [], [], []
    b = np.zeros(dofmap.total)
    for ci, ids in enumerate(mesh.cells):
        el = build_element(mesh.points[ids], k, cell_id=ci)
        elements.append(el)
        Ke = local_stiffness(el, K)
        g = dofmap.cell_dofs[ci]
        gg = np.meshgrid(g, g, indexing="ij")
        rows.append(gg[0].ravel())
        cols.append(gg[1].ravel())
        vals.append(Ke.ravel())
        if f is not None:
            b[g] += local_load(el, f)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return dofmap, elements, rows, cols, vals, b


def assemble(mesh: PolygonalMesh, k: int, K=None, f=None, dirichlet=None):
    """Assemble the global system with Dirichlet data on the whole boundary.

    ``dirichlet`` maps (n, 2) positions to values and is interpolated at the
    vertex and edge DOF points of boundary edges.  Returns the system plus
    the element list for later error evaluation.
    """
    if dirichlet is None:
        raise MeshError("boundary data missing: a Dirichlet callable is required")
    dofmap, elements, rows, cols, vals, b = build_local_system(mesh, k, K, f)
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
        factor = spla.splu(A)
    n = A.shape[0]
    if n == 0:
        return CondEstimate(1.0, 0.0, 0.0, True, 0)
    if n == 1:
        v = float(A[0, 0])
        return CondEstimate(1.0, v, v, True, 0)
    rng = np.random.default_rng(0)

    def iterate(op):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for it in range(1, max_iter + 1):
            w = op(v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0, it, True
            v = w / nw
            new = float(v @ op(v))
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


def error_norms(mesh, k, elements, dofmap, solution, exact_u, exact_grad):
    """Global L2 error against Pi0_k u_h and H1 seminorm error on gradients."""
    nk1 = monomial_dim(k - 1)
    l2 = 0.0
    h1 = 0.0
    for ci in range(mesh.n_cells):
        el = elements[ci]
        u_loc = solution[dofmap.cell_dofs[ci]]
        uh = el.Mq @ (el.pi0s @ u_loc)
        gxh = el.Mq[:, :nk1] @ (el.pigrad[0] @ u_loc)
        gyh = el.Mq[:, :nk1] @ (el.pigrad[1] @ u_loc)
        ue = np.asarray(exact_u(el.qp), dtype=float)
        ge = np.asarray(exact_grad(el.qp), dtype=float)
        l2 += float(el.qw @ (ue - uh) ** 2)
        h1 += float(el.qw @ ((ge[:, 0] - gxh) ** 2 + (ge[:, 1] - gyh) ** 2))
    return np.sqrt(l2), np.sqrt(h1)


def solution_norms(mesh, k, elements, dofmap, solution):
    """L2 norm and H1 seminorm of the projected discrete solution."""
    nk1 = monomial_dim(k - 1)
    l2 = 0.0
    h1 = 0.0
    for ci in range(mesh.n_cells):
        el = elements[ci]
        u_loc = solution[dofmap.cell_dofs[ci]]
        uh = el.Mq @ (el.pi0s @ u_loc)
        gxh = el.Mq[:, :nk1] @ (el.pigrad[0] @ u_loc)
        gyh = el.Mq[:, :nk1] @ (el.pigrad[1] @ u_loc)
        l2 += float(el.qw @ uh**2)
        h1 += float(el.qw @ (gxh**2 + gyh**2))
    return np.sqrt(l2), np.sqrt(h1)


def projection_discrepancy(mesh: PolygonalMesh, k: int, elements=None):
    """Per-cell spectral norms of the two projector identities."""
    if elements is None:
        elements = [build_element(mesh.points[ids], k, cell_id=ci)
                    for ci, ids in enumerate(mesh.cells)]
    out = np.array([projector_discrepancies(el) for el in elements])
    return out[:, 0], out[:, 1]
