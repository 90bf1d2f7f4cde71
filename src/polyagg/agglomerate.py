"""Energy-driven cell agglomeration by alpha-beta swap graph cuts.

The energy over labelings is  sum_P dc(P, l_P) + lambda * sum_{adjacent P,P'}
sc(l_P, l_P'),  where dc scores the quality of the union of P with the
*initial* cell indexed by its label and sc charges adjacent cells carrying
distinct labels.  Costs are integerized by the cell count, so every swap move
is one exact integer min cut.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, geometry
from .mesh import (
    PolygonalMesh,
    _components,
    _drop_aligned_vertices,
    _union_loops,
    build_mesh,
)

SC_MODES = ("literal", "potts")


@dataclass(frozen=True)
class AgglomerationConfig:
    lam: float
    sc_mode: str = "potts"
    max_cycles: int = 50
    dc_power: int = 2              # union penalty 1 - rho**dc_power

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {self.lam}")
        if self.sc_mode not in SC_MODES:
            raise ValueError(f"sc_mode must be one of {SC_MODES}")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be positive")
        if self.dc_power not in (1, 2):
            raise ValueError("dc_power must be 1 or 2")


@dataclass(frozen=True)
class EnergyBreakdown:
    data_term: int
    smooth_term: int   # number of smoothness-active adjacency pairs
    total: int         # data_term + round(lambda*n_cells) * smooth_term
    iterations: int = 0


def trivial_labeling(n_cells: int) -> np.ndarray:
    return np.arange(n_cells, dtype=np.int64)


def _round_half_away(x: float) -> int:
    return int(np.floor(x + 0.5))


def _droppable(mesh, ids):
    """(g, n) mask of the unconstrained straight vertices of union loops (g, n):
    neither the vertex nor either loop edge at it is a constrained mesh edge,
    and it is straight between its loop neighbours
    (``geometry.straight_vertices``)."""

    def constrained_edge(a, b):
        e = mesh.edge_ids(a, b)  # -1 for a chord left by a dropped vertex
        return (e >= 0) & mesh.edge_constrained[e]

    prv = np.roll(ids, 1, axis=1)
    nxt = np.roll(ids, -1, axis=1)
    free = ~(mesh.vertex_constrained[ids] | constrained_edge(prv, ids)
             | constrained_edge(ids, nxt))
    pts = mesh.points
    return free & geometry.straight_vertices(pts[prv], pts[ids], pts[nxt])


def _simplified_loop_groups(mesh, loops):
    """Union loops with their unconstrained straight vertices dropped, grouped
    by the vertex count that remains.

    Yields (loop indices, (g, n) vertex ids) once per vertex count.  Loops
    are processed a vertex count at a time, largest first: each loop of the
    count drops its first droppable vertex and moves down one count, so the
    vertices dropped are those of a scan that restarts after every drop.
    Loops of 3 vertices or fewer are kept as they are.
    """
    by_count = {}
    for k, loop in enumerate(loops):
        by_count.setdefault(len(loop), []).append(k)
    # vertex count -> [(loop indices, (g, n) vertex ids)]
    pending = {n: [(np.array(ks), np.array([loops[k] for k in ks], dtype=np.int64))]
               for n, ks in by_count.items()}
    while pending:
        n = max(pending)
        parts = pending.pop(n)
        idx = np.concatenate([i for i, _ in parts])
        ids = np.concatenate([v for _, v in parts])
        if n > 3:
            drop = _droppable(mesh, ids)
            hit = drop.any(axis=1)
            if hit.any():
                keep = np.arange(n) != drop[hit].argmax(axis=1)[:, None]
                pending.setdefault(n - 1, []).append((idx[hit], ids[hit][keep].reshape(-1, n - 1)))
                idx, ids = idx[~hit], ids[~hit]
        if len(idx):
            yield idx, ids


def _union_rhos(mesh: PolygonalMesh, pairs) -> list:
    """rho of the simplified union of each pair of adjacent cells, None where
    the union fails (``MergeError``).

    The unions are simplified and scored by vertex count, one
    ``quality_scores`` call per count.
    """
    loops, errors = _union_loops(mesh, pairs)
    scored = [k for k, err in enumerate(errors) if err is None]
    loops = [loops[k] for k in scored]
    rhos = [None] * len(pairs)
    for idx, ids in _simplified_loop_groups(mesh, loops):
        r = _kernels.quality_scores(mesh.points[ids])
        for k, v in zip(idx.tolist(), r[:, 4].tolist()):
            rhos[scored[k]] = v
    return rhos


class _Problem:
    """Precomputed integer costs and adjacency for one minimization run."""

    def __init__(self, mesh: PolygonalMesh, config: AgglomerationConfig):
        self.mesh = mesh
        self.config = config
        n = self.scale = mesh.n_cells
        self.w = _round_half_away(config.lam * self.scale)
        self.potts = config.sc_mode == "potts"
        a, b = mesh.adjacent
        self.adj_pairs = list(zip(a.tolist(), b.tolist()))
        # per cell, its neighbours in ascending order: the pairs run by (a, b)
        self.neighbors = [[] for _ in range(n)]
        for p, q in self.adj_pairs:
            self.neighbors[p].append(q)
            self.neighbors[q].append(p)
        # costs[p][label]: integer data cost of giving cell p that label, for
        # its own index and its neighbours; every other label costs scale
        rhos = _union_rhos(mesh, self.adj_pairs)  # before the dicts: lower peak memory
        self.costs = [{p: 0} for p in range(n)]
        for (p, q), r in zip(self.adj_pairs, rhos):
            cost = 1.0 if r is None else 1.0 - r**config.dc_power
            self.costs[p][q] = self.costs[q][p] = _round_half_away(self.scale * cost)


def _energy(problem: _Problem, labels: list, iterations=0) -> EnergyBreakdown:
    scale = problem.scale
    data = sum(cost.get(lab, scale) for cost, lab in zip(problem.costs, labels))
    if problem.potts:
        smooth = sum(labels[i] != labels[j] for i, j in problem.adj_pairs)
    else:
        # the literal term charges distinct labels of adjacent cells only
        neighbors = problem.neighbors
        smooth = sum(labels[j] in neighbors[labels[i]] for i, j in problem.adj_pairs)
    return EnergyBreakdown(data, smooth, data + problem.w * smooth, iterations)


def energy(mesh: PolygonalMesh, labels, config: AgglomerationConfig) -> EnergyBreakdown:
    """Integerized energy of a labeling (data plus weighted smoothness)."""
    return _energy(_Problem(mesh, config), np.asarray(labels, dtype=np.int64).tolist())


def _swap(problem: _Problem, labels: list, members: dict, alpha: int, beta: int):
    """One alpha-beta swap move; returns (energy delta <= 0, moved cells).

    ``labels`` is a list of labels per cell and ``members`` maps each label to
    the list of its cells; an improving move updates both in place.

    The swap graph has one node per alpha or beta cell, alpha on the source
    side, and its energy is measured against all nodes taking beta.  A node
    pays its data cost for alpha less that for beta, plus, in the literal
    mode, w per neighbour outside the swap that alpha touches and less w per
    one that beta touches (the Potts term charges such a neighbour w either
    way).  Adjacent nodes split between the labels pay w * sc(alpha, beta).
    """
    in_alpha = members.get(alpha, [])
    nodes = in_alpha + members.get(beta, [])
    n = len(nodes)
    if not n:
        return 0, []
    na = len(in_alpha)  # nodes[:na] are labelled alpha, the rest beta
    w = problem.w
    scale = problem.scale
    costs = problem.costs
    neighbors = problem.neighbors
    adj_a = neighbors[alpha]
    pos = {c: k for k, c in enumerate(nodes)}
    unary = [costs[c].get(alpha, scale) - costs[c].get(beta, scale) for c in nodes]
    if not problem.potts:
        adj_b = neighbors[beta]
        for k, c in enumerate(nodes):
            for nb in neighbors[c]:
                if nb not in pos:
                    lq = labels[nb]
                    unary[k] += w * ((lq in adj_a) - (lq in adj_b))
    pair_w = w if problem.potts or beta in adj_a else 0
    pairs = [0] * (n * (n - 1) // 2)
    split = 0  # adjacent node pairs the current labeling splits
    for k, (c, offset) in enumerate(zip(nodes, _kernels.pair_offsets(n))):
        for nb in neighbors[c]:
            j = pos.get(nb, -1)
            if j > k:
                pairs[offset + j] = pair_w
                if k < na <= j:
                    split += 1

    value, mask = _kernels.maxflow(
        np.array(unary, dtype=np.int64), np.array(pairs, dtype=np.int64)
    )
    delta = int(value) - sum(unary[:na]) - pair_w * split
    if delta > 0:
        raise RuntimeError("swap move increased the energy; graph construction bug")
    if delta == 0:
        return 0, []
    to_alpha, to_beta, moved = [], [], []
    for k, (c, source_side) in enumerate(zip(nodes, mask.tolist())):
        if source_side:
            labels[c] = alpha
            to_alpha.append(c)
        else:
            labels[c] = beta
            to_beta.append(c)
        if source_side != (k < na):
            moved.append(c)
    members[alpha] = to_alpha
    members[beta] = to_beta
    return delta, moved


def _members(labels: list) -> dict:
    out = {}
    for c, lab in enumerate(labels):
        out.setdefault(lab, []).append(c)
    return out


def swap_move(mesh: PolygonalMesh, labels, alpha: int, beta: int,
              config: AgglomerationConfig):
    """Optimal reassignment of all alpha/beta cells between the two labels."""
    if alpha == beta:
        raise ValueError("alpha and beta must differ")
    labels = np.asarray(labels, dtype=np.int64).tolist()
    delta, _ = _swap(_Problem(mesh, config), labels, _members(labels),
                     int(alpha), int(beta))
    return np.array(labels, dtype=np.int64), delta


def minimize(mesh: PolygonalMesh, config: AgglomerationConfig,
             _problem: _Problem | None = None):
    """Cycle alpha-beta swaps from the trivial labeling to a local minimum.

    Visits, per cycle, the label pairs currently in contact somewhere in the
    mesh, in ascending order; stops after the first cycle with zero total
    decrease or at ``max_cycles``.  Returns (labels, energy history), one
    EnergyBreakdown per completed cycle plus the initial state.

    A swap's graph depends only on the labels of its cells and of their
    neighbours, so a pair whose last swap returned 0 is skipped until a label
    change touches a member of either label or a neighbour of one: that swap
    would return 0 again.
    """
    problem = _problem if _problem is not None else _Problem(mesh, config)
    neighbors = problem.neighbors
    labels = list(range(mesh.n_cells))
    members = _members(labels)
    history = [_energy(problem, labels, iterations=0)]
    # label pairs a < b are keyed a * n + b, which sorts them as (a, b) does.
    # touched[l]: the last swap that changed the label of a member of label l
    # or of a neighbour of one; idle[key]: the last swap of the pair, if it
    # returned 0.  Swaps are numbered from 1.
    n = mesh.n_cells
    touched = [0] * n
    idle = {}
    swaps = 0
    for cycle in range(1, config.max_cycles + 1):
        pairs = set()
        for (i, j) in problem.adj_pairs:
            a, b = labels[i], labels[j]
            if a != b:
                pairs.add(a * n + b if a < b else b * n + a)
        total_delta = 0
        for key in sorted(pairs):
            a, b = divmod(key, n)
            last = idle.get(key, 0)
            if last > touched[a] and last > touched[b]:
                continue
            swaps += 1
            delta, moved = _swap(problem, labels, members, a, b)
            if not moved:
                idle[key] = swaps
                continue
            total_delta += delta
            touched[a] = touched[b] = swaps
            for c in moved:
                for nb in neighbors[c]:
                    touched[labels[nb]] = swaps
        state = _energy(problem, labels, iterations=cycle)
        if state.total != history[-1].total + total_delta:
            raise RuntimeError(
                f"cycle {cycle}: energy {state.total} differs from "
                f"{history[-1].total} plus the swap deltas {total_delta}"
            )
        history.append(state)
        if total_delta == 0:
            break
    return np.array(labels, dtype=np.int64), history


def apply_labeling(mesh: PolygonalMesh, labels, skipped=None) -> PolygonalMesh:
    """Merge every edge-connected component of each label class.

    Components whose union is not a simple hole-free polygon (or would erase
    a constrained edge) fall back to their original cells with a warning;
    a list ``skipped`` gets one (label, cells, reason) per such component.
    Aligned edges are merged afterwards; constraints survive both steps.
    ``mesh`` itself is returned when neither step changes a cell.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != mesh.n_cells:
        raise ValueError("labeling length does not match the cell count")
    # components ordered by label, then by their lowest cell
    n = mesh.n_cells
    a, b = mesh.adjacent
    same = labels[a] == labels[b]
    roots = _components(n, a[same], b[same])
    order = np.lexsort((np.arange(n), roots, labels))
    bounds = np.flatnonzero(roots[order][1:] != roots[order][:-1]) + 1
    bounds = [0, *bounds.tolist(), n] if n else []
    cells = order.tolist()
    comps = [cells[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    unions = [comp for comp in comps if len(comp) > 1]
    loops, errors = _union_loops(mesh, unions)
    merges = iter(zip(loops, errors))

    new_cells = []
    for comp in comps:
        if len(comp) == 1:
            new_cells.append(mesh.cells[comp[0]])
            continue
        loop, err = next(merges)
        if err is None:
            new_cells.append(loop)
            continue
        label = int(labels[comp[0]])
        warnings.warn(f"label {label}: merge of cells {comp} skipped ({err})", RuntimeWarning)
        if skipped is not None:
            skipped.append((label, comp, str(err)))
        new_cells.extend(mesh.cells[c] for c in comp)

    # aligned vertices are dropped before the one build of the merged mesh
    cons = mesh.constrained_edge_pairs()
    cvs = np.flatnonzero(mesh.vertex_constrained)
    kept = _drop_aligned_vertices(mesh.points, new_cells, cons, cvs)
    if (not unions and kept is new_cells and (order == np.arange(n)).all()
            and np.bincount(mesh.edges.ravel(), minlength=mesh.n_vertices).all()):
        return mesh  # every cell and vertex kept, in order: a build would copy it
    return build_mesh(mesh.points, kept, cons, cvs, compact=True)


@dataclass
class ReductionStats:
    """Sizes before and after agglomeration and the labeling energies.

    ``energy_final`` and ``energy_saved`` are those of the labeling the mesh
    was built from: a merge that ``apply_labeling`` skipped leaves its cells
    with their own indices, so it differs from the minimizer's last energy
    (the end of ``AgglomerationResult.history``) when ``merges_skipped`` > 0.
    """

    cells_before: int
    cells_after: int
    edges_before: int
    edges_after: int
    vertices_before: int
    vertices_after: int
    energy_initial: int
    energy_final: int
    energy_saved: float
    cycles: int
    merges_skipped: int    # label components left as their cells (see apply_labeling)


@dataclass
class AgglomerationResult:
    mesh: PolygonalMesh
    labels: np.ndarray
    history: list = field(default_factory=list)
    stats: ReductionStats | None = None


def agglomerate(mesh: PolygonalMesh, config: AgglomerationConfig) -> AgglomerationResult:
    """Minimize the labeling energy, merge label classes, report reductions."""
    if config.lam == 0.0:
        # the trivial labeling is the unique minimum (all data terms zero,
        # zero smoothness weight); skip the union-quality precomputation
        labels = trivial_labeling(mesh.n_cells)
        n_adj = len(mesh.adjacent[0])
        history = [
            EnergyBreakdown(0, n_adj, 0, 0),
            EnergyBreakdown(0, n_adj, 0, 1),
        ]
    else:
        problem = _Problem(mesh, config)
        labels, history = minimize(mesh, config, _problem=problem)
    skipped = []
    out = apply_labeling(mesh, labels, skipped)
    e1 = history[0].total
    e2 = history[-1].total
    if skipped:
        # the cells of a skipped merge stay apart, each with its own index
        applied = labels.copy()
        for _, comp, _ in skipped:
            applied[comp] = comp
        e2 = _energy(problem, applied.tolist()).total
    stats = ReductionStats(
        cells_before=mesh.n_cells,
        cells_after=out.n_cells,
        edges_before=mesh.n_edges,
        edges_after=out.n_edges,
        vertices_before=mesh.n_vertices,
        vertices_after=out.n_vertices,
        energy_initial=e1,
        energy_final=e2,
        energy_saved=0.0 if e1 == 0 else (e1 - e2) / e1,
        cycles=history[-1].iterations,
        merges_skipped=len(skipped),
    )
    return AgglomerationResult(out, labels, history, stats)
