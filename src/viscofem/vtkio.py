"""Writers of every output file: CSV tables and the VTK legacy ASCII
unstructured grid (linear tetrahedra).

Both write numbers one way (``_number``): an ``int`` as itself, anything
else as a Python float in shortest round-trip form (``0.0``, not numpy's
``np.float64(0.0)``), so identical runs produce byte-identical files that
read back exactly. VTK point data is attached at mesh vertices;
higher-order spaces pass the vertex slice of their nodal fields.
"""
from __future__ import annotations

import numpy as np

from .mesh import Mesh

_VTK_TET = 10


def _number(v):
    return str(v) if isinstance(v, int) else repr(float(v))


def write_csv(path, header, rows):
    """Write the column names ``header`` and one line per row of values."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_number, row)) + "\n")


def write_vtk(mesh: Mesh, path, point_vectors=None, point_scalars=None):
    """Write the mesh and optional vertex fields.

    point_vectors: dict name -> (n_vertices, 3) array
    point_scalars: dict name -> (n_vertices,) array
    """
    point_vectors = point_vectors or {}
    point_scalars = point_scalars or {}
    nv, nt = mesh.n_vertices, mesh.n_tets
    for fields, shape in ((point_vectors, (nv, 3)), (point_scalars, (nv,))):
        for name, arr in fields.items():
            if np.shape(arr) != shape:
                raise ValueError(f"field {name!r} must have shape {shape}")

    def rows(arr):  # one line per vertex
        values = np.asarray(arr, dtype=float).reshape(nv, -1).tolist()
        return [" ".join(map(_number, row)) for row in values]

    lines = [
        "# vtk DataFile Version 3.0",
        "viscofem output",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
        *rows(mesh.vertices),
        f"CELLS {nt} {5 * nt}",
    ]
    lines.extend(f"4 {a} {b} {c} {d}" for a, b, c, d in mesh.tets.tolist())
    lines.append(f"CELL_TYPES {nt}")
    lines.extend([str(_VTK_TET)] * nt)
    if point_vectors or point_scalars:
        lines.append(f"POINT_DATA {nv}")
        for name, arr in point_vectors.items():
            lines += [f"VECTORS {name} double", *rows(arr)]
        for name, arr in point_scalars.items():
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default", *rows(arr)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
