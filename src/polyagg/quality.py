"""Per-element regularity indicators and the combined quality score.

The four indicators measure kernel-to-area ratio, edge/area balance against
the diameter, edge count, and uniformity of aligned edge runs; the combined
score is sqrt(rho1*(rho2+rho3+rho4)/3), zero exactly for non-star-shaped
cells and approaching one for squares and equilateral triangles.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import _kernels, geometry
from .mesh import PolygonalMesh


@dataclass(frozen=True)
class QualityScores:
    rho1: float
    rho2: float
    rho3: float
    rho4: float
    rho: float

    def as_tuple(self):
        return (self.rho1, self.rho2, self.rho3, self.rho4, self.rho)


def scores_from_points(points) -> QualityScores:
    pts = geometry.as_points(points)
    return QualityScores(*_kernels.quality_scores(pts).tolist())


@dataclass
class QualityReport:
    scores: list            # QualityScores per cell
    min_rho: float
    mean_rho: float
    histogram: np.ndarray   # 10 bins over [0, 1]
    bin_edges: np.ndarray


def mesh_quality_report(mesh: PolygonalMesh) -> QualityReport:
    """Scores of every cell, one ``quality_scores`` call per vertex count."""
    counts = np.array([len(ids) for ids in mesh.cells])
    table = np.empty((mesh.n_cells, 5))
    for n in np.unique(counts):
        cids = np.flatnonzero(counts == n)
        verts = np.array([mesh.cells[c] for c in cids])
        table[cids] = _kernels.quality_scores(mesh.points[verts])
    scores = [QualityScores(*row) for row in table.tolist()]
    rhos = table[:, 4].copy()  # contiguous, so the mean sums as before
    hist, edges = np.histogram(rhos, bins=10, range=(0.0, 1.0))
    return QualityReport(scores, float(rhos.min()), float(rhos.mean()), hist, edges)


def write_quality_csv(report: QualityReport, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cell_id", "rho1", "rho2", "rho3", "rho4", "rho"])
        for i, s in enumerate(report.scores):
            w.writerow([i, repr(s.rho1), repr(s.rho2), repr(s.rho3),
                        repr(s.rho4), repr(s.rho)])
