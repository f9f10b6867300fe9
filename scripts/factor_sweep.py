#!/usr/bin/env python3
"""Sweep of the reused-factor path against free dofs.

For each mesh, builds the reduced Schur matrix of one seal-material step,
M + k^2/4 K_E + (k/2)(sum_m alpha_m kappa_m) D with k = 1/600 s (the seal
workload's step), and measures:

* the factorization of ``LinearSolver("direct")``, SuperLU in symmetric
  mode (MMD on A'+A, diagonal pivots): set-up seconds, L + U nonzeros
  and their size at 12 bytes each, and seconds per solve;
* Jacobi-CG to a relative residual of 1e-12 from a zero start: iterations
  and seconds per solve;
* the break-even step count, factor_s / (cg_s - solve_s): a march of
  more steps is cheaper on the factor.

Box meshes clamp their bottom face (P1 and P2); annulus meshes clamp the
outer surface and put a slip condition on the inner one (P2), as the seal
scenario does. Run from the root of the repository, one thread:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python3 scripts/factor_sweep.py [--max-dofs N] > sweep.json

It prints one JSON object: the host, then one row per mesh.
"""
import argparse
import json
import platform
import statistics
import sys
from time import perf_counter

import numpy as np
import scipy
import scipy.sparse.linalg as spla

from viscofem import dynamics, fespace, material, mesh

K = 1.0 / 600.0
SEAL_ARMS = ((3.5e6, 1e-2), (4.0e6, 1e-1), (2.5e5, 1.0), (2.5e5, 1e1), (5.0e5, 1e2))
BOTTOM = mesh.box_face_tagger(
    faces={"z-": mesh.BoundaryTag(mesh.BoundaryKind.DIRICHLET, "bottom")}
)
# (label, mesh builder, degree)
CASES = [
    ("box n=8 P1", lambda: mesh.build_box_mesh(8, tagger=BOTTOM), 1),
    ("box n=12 P1", lambda: mesh.build_box_mesh(12, tagger=BOTTOM), 1),
    ("box n=16 P1", lambda: mesh.build_box_mesh(16, tagger=BOTTOM), 1),
    ("box n=20 P1", lambda: mesh.build_box_mesh(20, tagger=BOTTOM), 1),
    ("box n=24 P1", lambda: mesh.build_box_mesh(24, tagger=BOTTOM), 1),
    ("box n=4 P2", lambda: mesh.build_box_mesh(4, tagger=BOTTOM), 2),
    ("box n=6 P2", lambda: mesh.build_box_mesh(6, tagger=BOTTOM), 2),
    ("box n=8 P2", lambda: mesh.build_box_mesh(8, tagger=BOTTOM), 2),
    ("box n=10 P2", lambda: mesh.build_box_mesh(10, tagger=BOTTOM), 2),
    ("annulus 3x16x4 P2", lambda: mesh.build_annulus_mesh(0.006, 0.01, 0.02, (3, 16, 4)), 2),
    ("annulus 4x24x5 P2", lambda: mesh.build_annulus_mesh(0.006, 0.01, 0.02, (4, 24, 5)), 2),
    ("annulus 4x32x8 P2", lambda: mesh.build_annulus_mesh(0.006, 0.01, 0.02, (4, 32, 8)), 2),
    ("annulus 5x40x10 P2", lambda: mesh.build_annulus_mesh(0.006, 0.01, 0.02, (5, 40, 10)), 2),
]


def constraints(space, label):
    if label.startswith("box"):
        return fespace.Constraints(space, {"bottom": fespace.DirichletBC((0.0, 0.0, 0.0))})
    return fespace.Constraints(space, {
        "outer": fespace.DirichletBC((0.0, 0.0, 0.0)),
        "inner": fespace.SlipBC(lambda x, t: np.zeros(len(x))),
    })


def schur(space, label):
    mat = material.MaterialModel.from_engineering(1100.0, 0.5e6, 0.39, arms=SEAL_ARMS)
    ops = dynamics.OperatorSet(space, mat)
    coeffs = material.step_coefficients(mat.arms, K)
    alpha_kappa = sum(m.kappa * a for m, a in zip(mat.arms, coeffs.alpha))
    a = ops.mass + (K * K / 4.0) * ops.elastic + ((K / 2.0) * alpha_kappa) * ops.deviatoric
    return constraints(space, label).reduce(a).matrix


def timed(fn, repeat):
    times = []
    for _ in range(repeat):
        tic = perf_counter()
        out = fn()
        times.append(perf_counter() - tic)
    return out, statistics.median(times)


def row(label, space):
    a = schur(space, label)
    n = a.shape[0]
    b = np.random.default_rng(0).standard_normal(n)
    solve, factor_s = timed(lambda: dynamics.LinearSolver("direct").prepare(a), 1)
    factor = solve.__self__  # ``prepare`` returns the factor's bound solve
    fill = int(factor.L.nnz + factor.U.nnz)
    _, solve_s = timed(lambda: solve(b), 5)
    del solve, factor
    iters = [0]

    def count(_):
        iters[0] += 1

    diag = a.diagonal()
    precond = spla.LinearOperator(a.shape, matvec=lambda x: x / diag)
    _, cg_s = timed(lambda: spla.cg(a, b, rtol=1e-12, atol=0.0, M=precond,
                                    callback=count), 1)
    return {
        "mesh": label, "free_dofs": n, "matrix_nnz": int(a.nnz),
        "factor_s": round(factor_s, 4), "factor_nnz": fill,
        "factor_mb": round(fill * 12 / 2**20, 1),
        "solve_ms": round(1e3 * solve_s, 3),
        "cg_iters": iters[0], "cg_ms": round(1e3 * cg_s, 2),
        "break_even_steps": (round(factor_s / (cg_s - solve_s), 1)
                             if cg_s > solve_s else None),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-dofs", type=int, default=60000,
                        help="skip meshes with more vector dofs than this")
    args = parser.parse_args(argv)
    rows = []
    for label, build, p in CASES:
        space = fespace.FeSpace(build(), p)
        if space.n_dofs > args.max_dofs:
            continue
        rows.append(row(label, space))
        print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps({
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__},
        "step_s": K, "rows": rows,
    }, indent=1))


if __name__ == "__main__":
    main()
