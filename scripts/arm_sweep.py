#!/usr/bin/env python3
"""Cost of the reduced stepper against the arm count M.

The internal fields are eliminated in closed form, so the Schur matrix,
its factor and its solve do not depend on M; only the vector work of the
rhs, the recursion and the energy ledger grows with it. For each M in
``ARMS``, on the unit cube with ``N`` cells per axis and P2 elements
(N = 6: 6,591 dofs), the bottom clamped, k = 0.01 s, and M arms of
modulus 1e5 / M Pa with relaxation times log-spaced in [1e-3, 1e2] s,
it measures:

* the nonzeros of the reduced Schur matrix and the L + U nonzeros of its
  factor, both from the stepper's own ``LinearSolver("direct").prepare``;
* the build: seconds to construct the ``ReducedStepper`` (Schur sum,
  reduction and factorization);
* the step: the median milliseconds of ``ReducedStepper.step`` over
  ``STEPS`` steps from a random admissible state;
* the ledger: the median milliseconds of the same steps'
  ``dissipation_increment`` and ``energy``;
* the memory: the tracemalloc peak, in MiB, of the allocations made while
  the ``ReducedStepper`` is built (``build_traced_mib``) and while its
  steps and ledger run (``march_traced_mib``), and tracemalloc's current
  memory once the build returns (``build_held_mib``), which is what the
  stepper keeps, in a second, untimed pass of the same build and steps.
  SuperLU allocates its factor in C, outside tracemalloc, so the factor
  is not in these figures.

Run from the root of the repository, one thread:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python3 scripts/arm_sweep.py > arms.json

It prints one JSON object: the host and the problem, then one row per M.
"""
import json
import platform
import statistics
import sys
import tracemalloc
from time import perf_counter

import numpy as np
import scipy

from viscofem import dynamics, fespace, material, mesh

N = 6
P = 2
K = 0.01
ARMS = (0, 1, 4, 16, 64, 256)
STEPS = 20


def arm_material(m):
    """The reference material (100 kg/m^3, E = 1e5 Pa, nu = 0.3) with m
    arms of modulus 1e5 / m and log-spaced relaxation times."""
    arms = tuple((1e5 / m, tau) for tau in np.logspace(-3.0, 2.0, m))
    return material.MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=arms)


def march(stepper, ops, state):
    """``STEPS`` steps from ``state``, each followed by its ledger terms;
    returns the seconds of each step and of each ledger."""
    step_s, ledger_s = [], []
    for _ in range(STEPS):
        tic = perf_counter()
        nxt = stepper.step(state)
        toc = perf_counter()
        dynamics.dissipation_increment(state, nxt, ops, K)
        dynamics.energy(nxt, ops)
        ledger_s.append(perf_counter() - toc)
        step_s.append(toc - tic)
        state = nxt
    return step_s, ledger_s


class RecordingSolver(dynamics.LinearSolver):
    """``LinearSolver("direct")`` that keeps, in ``prepared``, the nonzeros
    of each matrix it factorizes and the factor."""

    def __init__(self):
        super().__init__("direct")
        self.prepared = []

    def prepare(self, matrix):
        solve = super().prepare(matrix)
        # the direct path returns the factor's bound solve
        self.prepared.append((int(matrix.nnz), solve.__self__))
        return solve


def traced_mib(fn):
    """fn() and tracemalloc's current and peak memory, in MiB, of the
    allocations made while it ran: the current memory is what is still
    held once it returns."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, round(current / 2**20, 2), round(peak / 2**20, 2)


def row(space, con, m):
    ops = dynamics.OperatorSet(space, arm_material(m))
    solver = RecordingSolver()
    tic = perf_counter()
    stepper = dynamics.ReducedStepper(ops, con, K, solver=solver)
    build_s = perf_counter() - tic
    schur_nnz, factor = solver.prepared.pop()
    factor_nnz = int(factor.L.nnz + factor.U.nnz)
    del factor
    fields = 1e-3 * np.random.default_rng(m).standard_normal((2 + m, space.n_dofs))
    u1, u0, *uve = (con.expand(con.to_frame(v)[con.free], con.fixed_values(0.0)) for v in fields)
    state = dynamics.State(0.0, u1, u0, uve)
    step_s, ledger_s = march(stepper, ops, state)
    stepper = None  # release the factor before the traced pass builds its own
    stepper, held_mib, build_mib = traced_mib(
        lambda: dynamics.ReducedStepper(ops, con, K, solver=solver))
    _, _, march_mib = traced_mib(lambda: march(stepper, ops, state))
    return {
        "arms": m, "schur_nnz": schur_nnz, "factor_nnz": factor_nnz,
        "build_s": round(build_s, 4),
        "step_ms": round(1e3 * statistics.median(step_s), 3),
        "ledger_ms": round(1e3 * statistics.median(ledger_s), 3),
        "build_traced_mib": build_mib, "build_held_mib": held_mib,
        "march_traced_mib": march_mib,
    }


def main():
    tagger = mesh.box_face_tagger(
        faces={"z-": mesh.BoundaryTag(mesh.BoundaryKind.DIRICHLET, "bottom")}
    )
    space = fespace.FeSpace(mesh.build_box_mesh(N, tagger=tagger), P)
    con = fespace.Constraints(space, {"bottom": fespace.DirichletBC((0.0, 0.0, 0.0))})
    rows = []
    for m in ARMS:
        rows.append(row(space, con, m))
        print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps({
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__},
        "n": N, "p": P, "dofs": space.n_dofs, "free_dofs": len(con.free), "k": K,
        "steps": STEPS,
        "traced_mib": "tracemalloc peaks of the allocations made during the build and "
                      "during the steps plus ledger, and the build's allocations still "
                      "held once it returns; SuperLU's own allocations, the factor "
                      "among them, are untraced",
        "rows": rows,
    }, indent=1))


if __name__ == "__main__":
    main()
