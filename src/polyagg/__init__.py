"""polyagg: quality-driven polygonal mesh agglomeration with a VEM solver.

Cells are merged by alpha-beta swap graph cuts minimizing an energy built on
a geometric quality indicator; the coarsened meshes feed an order 1-3
virtual element Poisson solver, validated on single meshes and on conforming
discrete fracture networks.
"""

from .agglomerate import (
    AgglomerationConfig,
    EnergyBreakdown,
    agglomerate,
    apply_labeling,
    data_cost,
    energy,
    min_cut,
    minimize,
    smoothness_cost,
    swap_move,
    trivial_labeling,
)
from .mesh import (
    Cell,
    MeshError,
    MeshFormatError,
    MergeError,
    PolygonalMesh,
    build_mesh,
    cell_geometry,
    collinear_runs,
    load_mesh,
    make_cell,
    merge_cells,
    polygon_kernel,
    save_mesh,
    simplify_aligned_edges,
    triangulate_cell,
)
from .quality import QualityScores, mesh_quality_report, rho, rho1, rho2, rho3, rho4
from .vem import (
    SolverError,
    SparseSpdSystem,
    assemble,
    build_dof_map,
    build_element,
    condition_estimate,
    error_norms,
    local_stiffness,
    projection_discrepancy,
    solve_spd,
)
from .quadrature import gauss_lobatto_points, polygon_quadrature
from .dfn import (
    FractureNetwork,
    NetworkError,
    TraceSegment,
    compute_traces,
    cut_by_traces,
    load_network,
    make_fracture,
    network1,
    triangulate_fracture,
)

__version__ = "0.1.0"
