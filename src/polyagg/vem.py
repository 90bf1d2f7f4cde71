"""Order k = 1, 2, 3 virtual element discretization of diffusion problems.

Local spaces use scaled monomials centered at the cell centroid; degrees of
freedom are vertex values, internal Gauss-Lobatto edge values (k > 1) and
normalized interior moments against the degree k-2 monomials.  The local
bilinear form couples the L2 projection of gradients with a dofi-dofi
stabilization scaled by the transmissivity norm.  Element matrices are
built for whole stacks of cells at once: the cells of all meshes of a
discretization are split by vertex count (``cell_groups``), each vertex
count's cells are built in blocks of bounded memory, and every array of a
``VemElement`` then carries the stack axis.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

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


def eval_monomials(k: int, pts, center, h) -> np.ndarray:
    """Scaled monomials of degree <= k at (..., p, 2) points of cells with
    (..., 2) centers and (...) diameters; returns (..., p, monomial_dim(k)),
    a view of a table whose monomial axis is outermost in memory."""
    return np.moveaxis(_products(*_powers(k, pts, center, h)), 0, -1)


def _powers(k, pts, center, h):
    """Powers 0..k of the scaled coordinates (x - cx) / h and (y - cy) / h,
    each a (k + 1, ..., p) table."""
    center = np.asarray(center)[..., None, :]
    h = np.asarray(h)[..., None]
    P = np.empty((2, k + 1) + pts.shape[:-1])
    P[:, 0] = 1.0
    if k:
        np.divide(pts[..., 0] - center[..., 0], h, out=P[0, 1])
        np.divide(pts[..., 1] - center[..., 1], h, out=P[1, 1])
    for e in range(2, k + 1):
        np.multiply(P[:, e - 1], P[:, 1], out=P[:, e])
    return P[0], P[1]


def _products(X, Y):
    """The monomials of degree <= k from the power tables of ``_powers``, as
    a (monomial_dim(k), ..., p) table; degree d holds x^d, x^(d-1) y, ...,
    y^d, one product of two power-table views."""
    k = len(X) - 1
    M = np.empty((monomial_dim(k),) + X.shape[1:])
    for d in range(k + 1):
        lo = d * (d + 1) // 2
        np.multiply(X[d::-1], Y[:d + 1], out=M[lo:lo + d + 1])
    return M


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


def build_element(points, k: int, cell_id=None) -> VemElement:
    """All local projector matrices of one polygonal cell (n, 2), or of a
    stack of cells (..., n, 2) with one vertex count, built in one pass."""
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

    qp, qw = polygon_quadrature(pts, 2 * k + 2)
    Mq = eval_monomials(k, qp, center, h)
    H = Mq.swapaxes(-1, -2) @ (qw[..., None] * Mq)

    # the (k+1)-point Lobatto rule of edge i, from vertex i to vertex i+1,
    # starts at vertex i and holds the edge's k-1 internal dof points
    nxt = np.roll(pts, -1, axis=-2)
    e = nxt - pts
    elen = np.hypot(e[..., 0], e[..., 1])
    ep, ew = edge_lobatto_quadrature(k, pts, nxt)
    X, Y = _powers(k, ep.reshape(lead + (-1, 2)), center, h)
    M = _products(X, Y)
    a, b = exps.T
    at = np.moveaxis(M, 0, -1).reshape(lead + (n, k + 1, -1))
    D = np.concatenate([
        at[..., 0, :],
        at[..., 1:k, :].reshape(lead + (-1, len(exps))),
        H[..., :nmom, :] / area[..., None, None],
    ], axis=-2)

    # B: rows (grad m_r, grad phi_j) by parts; row 0 fixes the projector
    # constant.  Edge terms are summed per Lobatto point, then scattered to
    # the dofs.
    wnx = (ew * (e[..., 1] / elen)[..., None]).reshape(lead + (-1,))
    wny = (ew * (-e[..., 0] / elen)[..., None]).reshape(lead + (-1,))
    # d/dx of monomial (a, b) is a / h * x^(a-1) * y^b
    hq = np.asarray(h)[..., None]
    fa, fb = (f.reshape((-1,) + (1,) * hq.ndim) / hq for f in (a, b))
    gx = fa * X[np.maximum(a - 1, 0)] * Y[b]
    gy = fb * X[a] * Y[np.maximum(b - 1, 0)]
    S = _edge_scatter(n, k)
    B = np.moveaxis(wnx * gx + wny * gy, 0, -2) @ S
    Ex = np.moveaxis(M[:nk1] * wnx, 0, -2) @ S
    Ey = np.moveaxis(M[:nk1] * wny, 0, -2) @ S
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

    # P_{k-1} projectors: one inverse of the small mass matrix serves all
    # three, and the first nk1 rows of C are their right-hand side
    H1inv = np.linalg.inv(H[..., :nk1, :nk1])

    return VemElement(
        k=k,
        area=area[()],
        centroid=center,
        diameter=h[()],
        ndof=ndof,
        D=D,
        pins=pins,
        pi0s=pi0s,
        pi0km1s=H1inv @ C[..., :nk1, :],
        pigrad=(H1inv @ Ex, H1inv @ Ey),
        H=H,
        qp=qp,
        qw=qw,
    )


def local_stiffness(element: VemElement, K=None) -> np.ndarray:
    """Consistency term on projected gradients plus dofi-dofi stabilization.

    ``K`` is a symmetric positive definite 2x2 matrix (default: identity) or
    a stack of them that broadcasts against the element's cells.
    """
    K = np.eye(2) if K is None else np.asarray(K, dtype=float)
    if K.shape[-2:] != (2, 2) or not np.allclose(K, K.swapaxes(-1, -2),
                                                 rtol=1e-12, atol=1e-14):
        raise ValueError("K must be a symmetric 2x2 matrix")
    ev = np.linalg.eigvalsh(K)
    if (ev[..., 0] <= 0.0).any():
        raise ValueError("K must be positive definite")
    nk1 = monomial_dim(element.k - 1)
    H1 = element.H[..., :nk1, :nk1]
    # the gradient projections against K (x) H1, the mass matrix of P_{k-1}^2
    KH = K[..., :, None, :, None] * H1[..., None, :, None, :]
    KH = KH.reshape(KH.shape[:-4] + (2 * nk1, 2 * nk1))
    G = np.concatenate(element.pigrad, axis=-2)
    A = G.swapaxes(-1, -2) @ KH @ G
    S = np.eye(element.ndof) - element.D @ element.pins
    A += ev[..., -1, None, None] * (S.swapaxes(-1, -2) @ S)
    return 0.5 * (A + A.swapaxes(-1, -2))


def local_load(element: VemElement, fq) -> np.ndarray:
    """(f, Pi0_{k-1} phi_j) over each cell from the source values ``fq`` at
    the element's quadrature points."""
    Mq = eval_monomials(element.k - 1, element.qp, element.centroid, element.diameter)
    fm = np.einsum("...pr,...p->...r", Mq, element.qw * fq)
    return np.einsum("...rj,...r->...j", element.pi0km1s, fm)


def _at_points(fn, pts) -> np.ndarray:
    """``fn`` of (N, 2) points evaluated at stacked (..., p, 2) points."""
    out = np.asarray(fn(pts.reshape(-1, 2)), dtype=float)
    return out.reshape(pts.shape[:-1] + out.shape[1:])


def projector_discrepancies(element: VemElement):
    """Spectral norms of Pi_nabla*D - I and Pi0*D - I (one per stacked cell),
    from the largest eigenvalue of R^T R for both residuals R at once."""
    R = np.stack([element.pins @ element.D, element.pi0s @ element.D])
    R -= np.eye(element.D.shape[-1])
    lam = np.linalg.eigvalsh(R.swapaxes(-1, -2) @ R)[..., -1]
    dn, d0 = np.sqrt(np.maximum(lam, 0.0))
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
    groups: dict             # vertex count -> (cell ids, (m, ndof) local -> global)
    edge_base: int
    moment_base: int


def build_dof_map(mesh: PolygonalMesh, k: int) -> DofMap:
    """Local-to-global DOF ids of every cell: its vertices, then k-1 slots
    per edge in the cell's traversal direction, then its moments.

    Cells are handled one vertex-count group at a time, ascending, and keep
    that grouping; an edge's slots run from its lower to its higher vertex
    id and are reversed for a cell that traverses the edge the other way.
    """
    if k not in (1, 2, 3):
        raise ValueError("order k must be 1, 2 or 3")
    nv, ne, nc = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    km1 = k - 1
    nmom = k * (k - 1) // 2
    edge_base = nv
    moment_base = nv + ne * km1
    total = moment_base + nc * nmom
    groups = {}
    for n, cids, ids in mesh.by_vertex_count():
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
        groups[n] = (cids, g)
    return DofMap(k, nv, ne, nc, total, groups, edge_base, moment_base)


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
    A: sps.csc_matrix        # symmetric operator on the free DOFs
    b: np.ndarray            # load on the free DOFs, less the Dirichlet lift
    dirichlet_idx: np.ndarray
    dirichlet_val: np.ndarray
    free_idx: np.ndarray
    _factor: object = field(default=None, repr=False)

    @property
    def nnz(self) -> int:
        """Nonzeros of the Dirichlet-eliminated operator actually solved."""
        return self.A.nnz

    def factor(self):
        if self._factor is None:
            self._factor = _factor_spd(self.A)
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


class Part(NamedTuple):
    """One mesh of a discretization with what its cells contribute."""

    mesh: PolygonalMesh
    dofmap: DofMap
    gids: np.ndarray         # global id of each DOF of ``dofmap``
    K: object = None         # 2x2 transmissivity, identity when None
    f: object = None         # source on mesh coordinates, no load when None


class ElementGroup(NamedTuple):
    """A block of the cells of all parts that have one vertex count, with
    what the passes after the solve read of their elements."""

    cells: np.ndarray        # (m,) cell ids, each part's after the previous parts'
    part: np.ndarray         # (m,) part index of each cell
    dofs: np.ndarray         # (m, ndof) global DOF ids
    k: int
    centroid: np.ndarray     # (m, 2)
    diameter: np.ndarray     # (m,)
    pi0s: np.ndarray         # L2 projector onto P_k
    pigrad: tuple            # (x, y) L2 gradient projectors onto P_{k-1}
    qp: np.ndarray
    qw: np.ndarray
    dn: np.ndarray           # (m,) spectral norm of Pi_nabla*D - I
    d0: np.ndarray           # (m,) spectral norm of Pi0*D - I

    @classmethod
    def of(cls, cells, part, dofs, el: VemElement):
        """The group of the stacked element ``el`` of these cells."""
        return cls(cells, part, dofs, el.k, el.centroid, el.diameter, el.pi0s, el.pigrad,
                   el.qp, el.qw, *projector_discrepancies(el))


def cell_groups(parts):
    """The cells of all ``parts`` grouped by vertex count, ascending.

    Yields (cells, part, dofs, (m, n, 2) vertex coordinates) as in
    ``ElementGroup``, parts in order and each part's cells ascending; the
    first n DOF ids of a cell are its vertex ids.
    """
    base = np.cumsum([0] + [p.mesh.n_cells for p in parts])
    for n in sorted(set().union(*(p.dofmap.groups for p in parts))):
        have = [(i, *p.dofmap.groups[n]) for i, p in enumerate(parts) if n in p.dofmap.groups]
        yield (np.concatenate([base[i] + cids for i, cids, _ in have]),
               np.concatenate([np.full(len(cids), i) for i, cids, _ in have]),
               np.concatenate([parts[i].gids[ids] for i, _, ids in have]),
               np.concatenate([parts[i].mesh.points[ids[:, :n]] for i, _, ids in have]))


def _part_values(fns, part, pts):
    """``fns[p]`` at the stacked (m, q, 2) points of the cells of each part p;
    zero for a part whose function is None, and None when every cell's is."""
    out = None
    for p, fn in enumerate(fns):
        rows = np.flatnonzero(part == p)
        if fn is None or not len(rows):
            continue
        val = _at_points(fn, pts[rows])
        if out is None:
            out = np.zeros(pts.shape[:-1] + val.shape[pts.ndim - 1:])
        out[rows] = val
    return out


# bytes of element-pass temporaries per block of build_local_system, to bound
# its memory.  A cell of n vertices and ndof DOFs peaks at about
# 8 * (3 ndof^2 + 12 n (k + 1) dim P_k) bytes, its (ndof, ndof) matrices and
# its monomials at the edges' Lobatto points: within 13% of the traced peak
# of 3- to 15-gons at k = 1, 2, 3
_ELEMENT_BLOCK = 1 << 22


def build_local_system(parts, n_global: int, dirichlet_idx=(), dirichlet_val=()):
    """Element groups and the ``SparseSpdSystem`` of the free DOFs.

    ``dirichlet_idx`` (ascending global DOF ids) and ``dirichlet_val`` give
    the Dirichlet data.  The operator is the CSC matrix of the free DOFs,
    ascending, and the load is theirs less the lift A_fd u_D; without
    Dirichlet DOFs they are the whole operator and load.

    The cells of each vertex count over all parts (``cell_groups``) are
    built in blocks of about ``_ELEMENT_BLOCK`` bytes of temporaries, so the
    pass's memory does not grow with the largest group: one
    ``build_element`` and one ``local_stiffness`` call per block, with each
    cell's K, and a ``local_load`` call where a part has a source, which is
    evaluated on its own cells.  ``groups`` holds one ``ElementGroup`` per
    block, in cell-group order, with the projector discrepancies of its
    cells.

    The element matrices are written once into one COO triple with int32
    indices, its rows numbered free DOFs first, then Dirichlet DOFs, so
    that each kind's rows are one block of the converted matrix.  The
    sparse conversion sums the contributions to an entry in an order that
    depends on every entry of its row, so the rows are converted whole, and
    the Dirichlet columns are split off after the sums.  Every element
    matrix is exactly symmetric, but the sums to (i, j) and to (j, i) can
    differ in the last bit where three or more cells meet (the trace DOFs
    of a network); averaging with the transpose, and dropping the entries
    whose sum is zero, makes the operator exactly symmetric, the free block
    of ``(A + A.T) * 0.5`` of the full matrix bit for bit.
    """
    k = parts[0].dofmap.k
    Ks = np.stack([np.eye(2) if p.K is None else np.asarray(p.K, dtype=float) for p in parts])
    sources = [p.f for p in parts]
    dir_idx = np.asarray(dirichlet_idx, dtype=np.int64)
    dir_val = np.asarray(dirichlet_val, dtype=float)
    on_dir = np.zeros(n_global, dtype=bool)
    on_dir[dir_idx] = True
    free_idx = np.flatnonzero(~on_dir)
    n_free = len(free_idx)
    nnz = sum(g.size * g.shape[1] for p in parts for _, g in p.dofmap.groups.values())
    itype = np.int32 if n_global <= np.iinfo(np.int32).max else np.int64
    row_of = np.empty(n_global, dtype=itype)
    row_of[free_idx] = np.arange(n_free)
    row_of[dir_idx] = np.arange(n_free, n_free + len(dir_idx))
    rows, cols, vals = np.empty(nnz, dtype=itype), np.empty(nnz, dtype=itype), np.empty(nnz)
    end = 0
    groups = []
    b = np.zeros(n_global)
    for cells, part, dofs, pts in cell_groups(parts):
        n, ndof = pts.shape[1], dofs.shape[1]
        cell_bytes = 8 * (3 * ndof * ndof + 12 * n * (k + 1) * monomial_dim(k))
        step = max(1, _ELEMENT_BLOCK // cell_bytes)
        for s in range(0, len(cells), step):
            blk = slice(s, s + step)
            el = build_element(pts[blk], k, cell_id=cells[blk])
            Ke = local_stiffness(el, Ks[part[blk]])
            start, end = end, end + Ke.size
            rows[start:end].reshape(Ke.shape)[...] = row_of[dofs[blk]][:, :, None]
            cols[start:end].reshape(Ke.shape)[...] = dofs[blk, None, :]
            vals[start:end] = Ke.ravel()
            fq = _part_values(sources, part[blk], el.qp)
            if fq is not None:
                np.add.at(b, dofs[blk], local_load(el, fq))
            groups.append(ElementGroup.of(cells[blk], part[blk], dofs[blk], el))
            del el, Ke, fq  # before the next block's build, not after it
    C = sps.coo_matrix((vals, (rows, cols)), shape=(n_global, n_global)).tocsr()
    del rows, cols, vals
    cut = C.indptr[n_free]  # the free rows and the Dirichlet rows, as views of C
    free_rows = sps.csr_matrix((C.data[:cut], C.indices[:cut], C.indptr[:n_free + 1]),
                               shape=(n_free, n_global))
    dir_rows = sps.csr_matrix((C.data[cut:], C.indices[cut:], C.indptr[n_free:] - cut),
                              shape=(n_global - n_free, n_global))
    del C
    A_fd = (free_rows[:, dir_idx] + dir_rows[:, free_idx].T) * 0.5
    A = free_rows[:, free_idx]
    del free_rows, dir_rows
    A.data += A.T.tocsr().data  # A^T has the pattern of A, entry for entry
    A.eliminate_zeros()  # the entries whose two sums cancel, as scipy's sum drops them
    A.data *= 0.5
    b = b[free_idx] - A_fd @ dir_val
    A = sps.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    return groups, SparseSpdSystem(A, b, dir_idx, dir_val, free_idx)


def assemble(mesh: PolygonalMesh, k: int, K=None, f=None, dirichlet=None):
    """Assemble the global system with Dirichlet data on the whole boundary.

    ``dirichlet`` maps (n, 2) positions to values and is interpolated at the
    vertex and edge DOF points of boundary edges.  Returns the system plus
    the element groups for later error evaluation.
    """
    if dirichlet is None:
        raise MeshError("boundary data missing: a Dirichlet callable is required")
    dofmap = build_dof_map(mesh, k)
    dir_idx = boundary_dofs(mesh, dofmap)
    dir_val = np.asarray(dirichlet(dof_positions(mesh, dofmap)[dir_idx]), dtype=float)
    part = Part(mesh, dofmap, np.arange(dofmap.total), K, f)
    groups, system = build_local_system([part], dofmap.total, dir_idx, dir_val)
    return system, groups


def solve_spd(system: SparseSpdSystem) -> np.ndarray:
    """Direct solve of the Dirichlet-eliminated system; checks the residual.

    Non-finite load or Dirichlet data, and a residual that is not finite or
    above 1e-12 relative, raise SolverError.
    """
    if not (np.isfinite(system.b).all() and np.isfinite(system.dirichlet_val).all()):
        raise SolverError("non-finite load vector or Dirichlet values")
    x = np.zeros(len(system.free_idx) + len(system.dirichlet_idx))
    x[system.dirichlet_idx] = system.dirichlet_val
    if len(system.free_idx) == 0:
        return x
    xI = system.factor().solve(system.b)
    res = np.linalg.norm(system.A @ xI - system.b)
    scale = np.linalg.norm(system.b)
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


def condition_estimate(system_or_matrix, max_iter=5000) -> CondEstimate:
    """2-norm condition estimate of the eliminated SPD operator.

    Largest eigenvalue by power iteration, smallest by inverse iteration
    through the sparse factorization; Rayleigh quotients are iterated until
    the relative change drops below 1e-6 (well inside the 1% target).
    """
    if isinstance(system_or_matrix, SparseSpdSystem):
        A = system_or_matrix.A
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
            if abs(new - lam) <= 1e-6 * abs(new):
                return new, it, True
            lam = new
        return lam, max_iter, False

    lam_max, it1, ok1 = iterate(lambda v: A @ v)
    inv_lam, it2, ok2 = iterate(factor.solve)
    lam_min = 1.0 / inv_lam if inv_lam != 0.0 else np.inf
    cond = lam_max / lam_min if lam_min > 0 else np.inf
    return CondEstimate(float(cond), float(lam_max), float(lam_min),
                        ok1 and ok2, it1 + it2)


def projected_solution(groups, solution):
    """Monomial coefficients of Pi0_k u_h and of its projected gradient
    (x, y) on each group's cells, one triple per group."""
    out = []
    for g in groups:
        u = solution[g.dofs][..., None]
        out.append(((g.pi0s @ u)[..., 0], (g.pigrad[0] @ u)[..., 0],
                    (g.pigrad[1] @ u)[..., 0]))
    return out


def error_norms(groups, projected, exact_u, exact_grad):
    """Global L2 error against Pi0_k u_h and H1 seminorm error on gradients.

    ``projected`` is ``projected_solution`` of the groups; ``exact_u`` and
    ``exact_grad`` hold one callable per part.
    """
    l2 = 0.0
    h1 = 0.0
    for g, (c, cx, cy) in zip(groups, projected, strict=True):
        for p, (u, grad) in enumerate(zip(exact_u, exact_grad)):
            rows = np.flatnonzero(g.part == p)
            if not len(rows):
                continue
            # one part's cells at a time keeps the temporaries small
            qp, qw = g.qp[rows], g.qw[rows]
            Mq = eval_monomials(g.k, qp, g.centroid[rows], g.diameter[rows])
            Mq1 = Mq[..., :cx.shape[-1]]
            uh, gxh, gyh = (np.einsum("...pr,...r->...p", M, a[rows])
                            for M, a in ((Mq, c), (Mq1, cx), (Mq1, cy)))
            l2 += float(np.sum(qw * (_at_points(u, qp) - uh) ** 2))
            ge = _at_points(grad, qp)
            h1 += float(np.sum(qw * ((ge[..., 0] - gxh) ** 2 + (ge[..., 1] - gyh) ** 2)))
    return float(np.sqrt(l2)), float(np.sqrt(h1))


def solution_norms(groups, projected):
    """L2 norm and H1 seminorm of the projected discrete solution, as
    quadratic forms of the monomial mass matrix, which is rebuilt from each
    group's quadrature as ``build_element`` builds it."""
    l2 = 0.0
    h1 = 0.0
    for g, (c, cx, cy) in zip(groups, projected, strict=True):
        Mq = eval_monomials(g.k, g.qp, g.centroid, g.diameter)
        H = Mq.swapaxes(-1, -2) @ (g.qw[..., None] * Mq)
        H1 = H[..., :cx.shape[-1], :cx.shape[-1]]
        l2 += float(np.einsum("...r,...rs,...s->...", c, H, c).sum())
        h1 += float(np.einsum("...r,...rs,...s->...", cx, H1, cx).sum()
                    + np.einsum("...r,...rs,...s->...", cy, H1, cy).sum())
    return float(np.sqrt(l2)), float(np.sqrt(h1))


def projection_discrepancy(groups):
    """Per-cell spectral norms of the two projector identities, in cell order,
    gathered from the groups."""
    n = sum(len(g.cells) for g in groups)
    dn = np.empty(n)
    d0 = np.empty(n)
    for g in groups:
        dn[g.cells], d0[g.cells] = g.dn, g.d0
    return dn, d0
