"""polyagg: quality-driven polygonal mesh agglomeration with a VEM solver.

Cells are merged by alpha-beta swap graph cuts minimizing an energy built on
a geometric quality indicator; the coarsened meshes feed an order 1-3
virtual element Poisson solver, validated on single meshes and on conforming
discrete fracture networks.
"""

__version__ = "0.1.0"
