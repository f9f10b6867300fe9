"""VTK legacy ASCII writer (unstructured grid, linear tetrahedra).

Point data is attached at mesh vertices; higher-order spaces pass the
vertex slice of their nodal fields. Coordinates and field values are
written as Python floats in shortest round-trip form (``0.0``, not
numpy's ``np.float64(0.0)``), so identical runs produce byte-identical
files that read back exactly.
"""
from __future__ import annotations

import numpy as np

from .mesh import Mesh

_VTK_TET = 10


def write_vtk(mesh: Mesh, path, point_vectors=None, point_scalars=None,
              title="viscofem output"):
    """Write the mesh and optional vertex fields.

    point_vectors: dict name -> (n_vertices, 3) array
    point_scalars: dict name -> (n_vertices,) array
    """
    point_vectors = point_vectors or {}
    point_scalars = point_scalars or {}
    nv = mesh.n_vertices
    nt = mesh.n_tets
    for name, arr in point_vectors.items():
        if np.shape(arr) != (nv, 3):
            raise ValueError(f"vector field {name!r} must have shape ({nv}, 3)")
    for name, arr in point_scalars.items():
        if np.shape(arr) != (nv,):
            raise ValueError(f"scalar field {name!r} must have shape ({nv},)")

    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    points = np.asarray(mesh.vertices, dtype=float).tolist()
    lines.extend(" ".join(map(repr, p)) for p in points)
    lines.append(f"CELLS {nt} {5 * nt}")
    for tet in mesh.tets:
        lines.append(f"4 {tet[0]} {tet[1]} {tet[2]} {tet[3]}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend([str(_VTK_TET)] * nt)
    if point_vectors or point_scalars:
        lines.append(f"POINT_DATA {nv}")
        for name, arr in point_vectors.items():
            lines.append(f"VECTORS {name} double")
            values = np.asarray(arr, dtype=float).tolist()
            lines.extend(" ".join(map(repr, v)) for v in values)
        for name, arr in point_scalars.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(map(repr, np.asarray(arr, dtype=float).tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

