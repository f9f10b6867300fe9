#!/usr/bin/env python3
"""Sweep of the reused-factor path against free dofs.

For each mesh, builds the reduced Schur matrix of one seal-material step,
M + k^2/4 K_E + (k/2)(sum_m alpha_m kappa_m) D with k = 1/600 s (the seal
workload's step), and measures:

* the space's fill-reducing order (``fespace.nested_dissection`` of its
  nodes, which ``Constraints.free`` follows): seconds, the median of five
  runs;
* the factorization of ``LinearSolver("direct")``, SuperLU in symmetric
  mode on the matrix in that order (``NATURAL``, diagonal pivots): set-up
  seconds, L + U nonzeros and their size at 12 bytes each, and seconds
  per solve;
* Jacobi-CG to a relative residual of 1e-12 from a zero start: iterations
  and seconds per solve;
* the break-even step count, factor_s / (cg_s - solve_s): a march of
  more steps is cheaper on the factor.

It also reduces the elastic operator K_E under the same constraints, the
matrix of a static solve, and times one solve of it for one right-hand
side three ways, each the median of three runs: the one-shot
``LinearSolver("direct").solve`` (float32 factor refined in float64), the
float64 factor-and-solve ``prepare(k_e)(b)``, and the one-shot Jacobi-CG
``LinearSolver("cg").solve``. These are the costs that
``dynamics.ONE_SHOT_DOF_BOUND`` weighs.

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


def box(n, p):
    """A box case with its structured-lattice dof count 3 (p n + 1)^3."""
    return (f"box n={n} P{p}", lambda: mesh.build_box_mesh(n, tagger=BOTTOM), p,
            3 * (p * n + 1) ** 3)


def annulus(n_r, n_t, n_z):
    """A P2 annulus case with its structured-lattice dof count
    3 (p n_r + 1)(p n_theta)(p n_z + 1): the circumferential nodes close
    on themselves."""
    p = 2
    return (f"annulus {n_r}x{n_t}x{n_z} P2",
            lambda: mesh.build_annulus_mesh(0.006, 0.01, 0.02, (n_r, n_t, n_z)), p,
            3 * (p * n_r + 1) * (p * n_t) * (p * n_z + 1))


# (label, mesh builder, degree, vector dofs)
CASES = [
    box(8, 1), box(12, 1), box(16, 1), box(20, 1), box(24, 1),
    box(4, 2), box(6, 2), box(8, 2), box(10, 2),
    annulus(3, 16, 4), annulus(4, 24, 5), annulus(4, 32, 8), annulus(5, 40, 10),
]


def constraints(space, label):
    if label.startswith("box"):
        return fespace.Constraints(space, {"bottom": fespace.DirichletBC((0.0, 0.0, 0.0))})
    return fespace.Constraints(space, {
        "outer": fespace.DirichletBC((0.0, 0.0, 0.0)),
        "inner": fespace.SlipBC(lambda x, t: np.zeros(len(x))),
    })


def reduced(space, label):
    """The reduced Schur matrix of one step and the reduced K_E."""
    mat = material.MaterialModel.from_engineering(1100.0, 0.5e6, 0.39, arms=SEAL_ARMS)
    ops = dynamics.OperatorSet(space, mat)
    coeffs = material.step_coefficients(mat.arms, K)
    alpha_kappa = sum(m.kappa * a for m, a in zip(mat.arms, coeffs.alpha))
    a = ops.mass + (K * K / 4.0) * ops.elastic + ((K / 2.0) * alpha_kappa) * ops.deviatoric
    con = constraints(space, label)
    return con.reduce(a)[0], con.reduce(ops.elastic)[0]


def timed(fn, repeat):
    times = []
    for _ in range(repeat):
        tic = perf_counter()
        out = fn()
        times.append(perf_counter() - tic)
    return out, statistics.median(times)


def row(label, space):
    _, order_s = timed(lambda: fespace.nested_dissection(space.dof_coords, space.cell_dofs), 5)
    a, k_e = reduced(space, label)
    n = a.shape[0]
    b = np.random.default_rng(0).standard_normal(n)
    direct, cg = dynamics.LinearSolver("direct"), dynamics.LinearSolver("cg")
    _, static_direct_s = timed(lambda: direct.solve(k_e, b), 3)
    _, static_double_s = timed(lambda: direct.prepare(k_e)(b), 3)
    _, static_cg_s = timed(lambda: cg.solve(k_e, b), 3)
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
        "order_s": round(order_s, 5), "factor_s": round(factor_s, 4), "factor_nnz": fill,
        "factor_mb": round(fill * 12 / 2**20, 1),
        "solve_ms": round(1e3 * solve_s, 3),
        "cg_iters": iters[0], "cg_ms": round(1e3 * cg_s, 2),
        "break_even_steps": (round(factor_s / (cg_s - solve_s), 1)
                             if cg_s > solve_s else None),
        "static_direct_ms": round(1e3 * static_direct_s, 2),
        "static_double_ms": round(1e3 * static_double_s, 2),
        "static_cg_ms": round(1e3 * static_cg_s, 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-dofs", type=int, default=60000,
                        help="skip meshes with more vector dofs than this")
    args = parser.parse_args(argv)
    rows = []
    for label, build, p, n_dofs in CASES:
        # the count decides the skip before the mesh and space are built
        if n_dofs > args.max_dofs:
            continue
        space = fespace.FeSpace(build(), p)
        assert space.n_dofs == n_dofs, (label, space.n_dofs, n_dofs)
        rows.append(row(label, space))
        print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps({
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__},
        "step_s": K, "rows": rows,
    }, indent=1))


if __name__ == "__main__":
    main()
