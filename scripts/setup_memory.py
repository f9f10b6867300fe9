#!/usr/bin/env python3
"""Set-up time and peak memory of the manufactured unit-cube problem.

In one fresh process it builds ``verify.unit_cube_problem`` (mesh, space,
mass, elastic and deviatoric operators, bottom constraints) for the
one-arm material of the manufactured study, then assembles the spatial
vectors of its manufactured loads (three body-force and two traction
vectors, ``assembly.load_vectors``) and makes one ``verify.error_norms``
call on the nodal interpolant of the exact solution at t = 1. It prints
one JSON line:

* ``setup_s`` and ``setup_peak_rss_mb``: the set-up's wall time and the
  process's peak resident set size (``ru_maxrss``) after it;
* ``load_vectors_s``: the wall time of the five load vectors;
* ``error_norms_s`` and ``peak_rss_mb``: the error norms' wall time, and
  the peak after them;
* ``energy_error`` and ``l2_error``: the two norms, for comparing runs;
* ``pattern_bytes``: the bytes of the arrays of the space's
  ``assembly.pattern``, built once and kept in ``space.tables``;
* ``operators_s``: the wall time of one ``dynamics.OperatorSet`` build on
  a fresh space over the same mesh (its geometry, pattern and the three
  operators), timed after the peaks are read.

The peak includes the interpreter and the imported libraries. Run from the
root of the repository, one thread:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python3 scripts/setup_memory.py

h = 1/32 (``N`` cells per axis) and P1 (degree ``P``) give 107,811 dofs.
"""
import json
import platform
import resource
from time import perf_counter

import numpy as np
import scipy

from viscofem import assembly, dynamics, fespace, material, verify

N = 32
P = 1
END_TIME = 1.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    mat = material.MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=((1e5, 1e-2),))
    tic = perf_counter()
    ops, _ = verify.unit_cube_problem(mat, N, P)
    setup_s = perf_counter() - tic
    setup_rss = peak_rss_mb()

    exact = verify.ManufacturedSolution(mat)
    space, t = ops.space, END_TIME
    tic = perf_counter()
    assembly.load_vectors(space, exact.loads())
    loads_s = perf_counter() - tic

    state = dynamics.State(
        t,
        space.interpolate(lambda x: exact.velocity(t, x)),
        space.interpolate(lambda x: exact.displacement(t, x)),
        tuple(space.interpolate(lambda x, m=m: exact.ve_field(m, t, x))
              for m in range(len(mat.arms))),
    )
    tic = perf_counter()
    energy, l2 = verify.error_norms(state, exact, ops)
    norms_s = perf_counter() - tic
    peak = peak_rss_mb()
    pattern_bytes = sum(a.nbytes for a in vars(assembly.pattern(space)).values()
                        if isinstance(a, np.ndarray))

    fresh = fespace.FeSpace(space.mesh, P)
    tic = perf_counter()
    dynamics.OperatorSet(fresh, mat)
    operators_s = perf_counter() - tic

    print(json.dumps({
        "n": N,
        "p": P,
        "dofs": space.n_dofs,
        "elements": len(space.mesh.tets),
        "setup_s": round(setup_s, 3),
        "setup_peak_rss_mb": round(setup_rss, 1),
        "load_vectors_s": round(loads_s, 3),
        "error_norms_s": round(norms_s, 3),
        "peak_rss_mb": round(peak, 1),
        "energy_error": energy,
        "l2_error": l2,
        "pattern_bytes": pattern_bytes,
        "operators_s": round(operators_s, 3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }))


if __name__ == "__main__":
    main()
