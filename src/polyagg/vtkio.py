"""Legacy ASCII VTK polydata export for meshes and per-cell fields."""

import numpy as np


def write_polydata(path, points3, polygons, cell_data=None, title="polyagg"):
    points3 = np.asarray(points3, dtype=float)
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {len(points3)} double",
    ]
    lines += [" ".join(map(repr, p)) for p in points3.tolist()]
    size = sum(len(c) + 1 for c in polygons)
    lines.append(f"POLYGONS {len(polygons)} {size}")
    lines += [" ".join(map(str, [len(c), *c])) for c in polygons]
    if cell_data:
        lines.append(f"CELL_DATA {len(polygons)}")
        for name, values in cell_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines += map(repr, np.asarray(values, dtype=float).tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def mesh_to_polydata(mesh, to_global=None):
    """(points3, polygons) of a 2D mesh, optionally mapped into 3D."""
    if to_global is None:
        pts3 = np.column_stack([mesh.points, np.zeros(len(mesh.points))])
    else:
        pts3 = to_global(mesh.points)
    return pts3, [ids.tolist() for ids in mesh.cells]


def write_mesh_vtk(path, mesh, cell_data=None, to_global=None, title="polyagg"):
    pts3, polys = mesh_to_polydata(mesh, to_global)
    write_polydata(path, pts3, polys, cell_data, title)
