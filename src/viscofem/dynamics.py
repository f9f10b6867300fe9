"""Time integration for viscoelastic elastodynamics.

Trial functions are continuous piecewise linear in time, test functions
piecewise constant, so each step is algebraically a midpoint rule. The
primary path eliminates all internal fields before the solve:

* one SPD Schur solve per step for the new velocity,
      (M + k^2/4 K_E + (k/2) (sum_m alpha_m kappa_m) D) u1_new = rhs,
  where D is the unit deviatoric operator that every arm shares,
* the displacement update u0_new = u0 + k/2 (u1_new + u1),
* the per-arm reconstruction
      uve_new = alpha (u1_new + u1) + beta uve.

A state holds its M internal fields as the rows of one (M, n) array, so
the recursion, the rhs arm sum and the arms' energies and dissipation are
whole-array expressions over the material's ``kappa`` and ``tau``.

With zero loads the step satisfies an exact energy identity: the change
of kinetic + elastic + viscoelastic energy equals minus the dissipation
increment sum_m (2 k / tau_m) * |||midpoint uve_m|||^2, which the energy
ledger tracks; arm m's energy norm is |||u|||^2 = kappa_m u'Du.

A state's products M u1, K_E u1, D u1, K_E u0 and D uve_m
(``OperatorSet.products``) serve its energy, the dissipation of both
adjacent steps and the next rhs. The reduced step forms only the first
three; K_E u0 and D uve_m follow from the old state's products by the
same linear updates that give u0 and uve_m, so a step makes 3 sparse
products for any arm count.

At the fixed frame dofs a step sets the velocity so that the trapezoidal
displacement update reproduces the prescribed values exactly. It takes
them from ``Constraints.fixed_values`` at the step's start and end; the
constraint set keeps the last time's values, so an n-step march evaluates
the prescribed callables n + 1 times, not 2n.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import assemble_mass, assemble_strain_operators, load_vectors
from .fespace import Constraints, FeSpace
from .material import MaterialModel, step_coefficients


class SolverError(RuntimeError):
    """A factorization, CG solve or march that failed."""


# free dofs up to which ``auto`` factorizes a matrix whose solver is reused
# over a march (``prepare``); above it, Jacobi-CG. From the sweep of
# symmetric-mode factor time and fill against free dofs in BENCH_17.json
# (scripts/factor_sweep.py, one thread, in the space's nested-dissection
# order): the largest meshes below it, box and annulus at 25,024-26,460
# free dofs, factor in 2.4-4.3 s to 23-28 M nonzeros (270-320 MB); the
# next, the 45,000-dof box, takes 7.4 s and 52 M (600 MB), and fill grows
# faster than the dof count
FACTOR_DOF_BOUND = 30000
# free dofs up to which ``auto`` factorizes a matrix solved for one
# right-hand side (``solve``), which pays the whole factorization
ONE_SHOT_DOF_BOUND = 3000
# corrections after which a one-shot direct solve's refinement gives up
# (LAPACK dsposv's ITERMAX)
REFINE_MAX_CORRECTIONS = 30
# CG gives up after this many iterations per unknown
CG_ITERATION_FACTOR = 10


class LinearSolver:
    """Sparse solver for the SPD systems of the steppers and static solves.

    method: 'auto' (default), 'direct' or 'cg'. 'direct' is SuperLU in
    symmetric mode with diagonal pivots, on the matrix as numbered
    (``NATURAL``): the space supplies the fill-reducing order, since
    ``Constraints.free`` lists the free dofs in its nested-dissection
    ``node_order``, so every reduced matrix arrives ordered. Its fill and
    solve cost follow the symmetric structure of the matrix. 'cg' is
    Jacobi-preconditioned CG to relative residual ``rtol``, at most
    ``CG_ITERATION_FACTOR * n`` iterations, warm-started from the previous
    solution of the same ``prepare``. An ``rtol`` outside (0, 1) raises
    ``ValueError``: CG could never reach one <= 0, and would accept its
    start vector for one >= 1.

    'auto' chooses by how a matrix is used. A solver from ``prepare``
    serves every step of a march, so its factorization is paid once: it
    is direct up to ``FACTOR_DOF_BOUND`` free dofs. A one-shot ``solve``
    pays the factorization for a single right-hand side, so it is direct
    only up to ``ONE_SHOT_DOF_BOUND``.

    A one-shot direct ``solve`` factorizes a float32 CSC copy of the
    matrix, with the same SuperLU options, and refines in float64 with the
    matrix as given (r = b - A x, x += solve32(r)) until LAPACK dsposv's
    test ||r||_inf <= sqrt(n) eps ||A||_inf ||x||_inf holds. A matrix that
    does not fit float32, a failed single factorization, a non-finite
    iterate, a correction that does not shrink the residual, or
    ``REFINE_MAX_CORRECTIONS`` corrections fall back to the float64
    factorization, whose failure raises ``SolverError``. A factor from
    ``prepare`` stays float64: refinement takes about three single solves
    per right-hand side, each nearly as dear as one double solve, so a
    march would pay more per step than the factorization saves.
    """

    def __init__(self, method="auto", rtol=1e-12):
        if method not in ("auto", "direct", "cg"):
            raise ValueError(f"unknown solver method {method!r}")
        if not 0.0 < rtol < 1.0:
            raise ValueError(f"tolerance {rtol!r} must lie in (0, 1)")
        self.method = method
        self.rtol = rtol

    def _resolve(self, n, reused):
        """The path ('direct' or 'cg') for an n x n matrix, solved for many
        right-hand sides when ``reused``, else for one."""
        if self.method != "auto":
            return self.method
        bound = FACTOR_DOF_BOUND if reused else ONE_SHOT_DOF_BOUND
        return "direct" if n <= bound else "cg"

    def prepare(self, matrix):
        """Factorize once; returns solve(b) reusable across timesteps.

        On the direct path the factor is of ``matrix.tocsc()``, which is
        ``matrix`` itself when it is CSC; a caller that passes CSR and
        keeps it holds both copies while SuperLU runs. The returned solve
        holds the factor, which keeps no reference to the matrix; the CG
        solve holds ``matrix``, whose products it takes."""
        return self._prepare(matrix, reused=True)

    def solve(self, matrix, b):
        """Solve for one right-hand side: on the direct path, from a float32
        factor refined in float64, or else from the float64 factor."""
        n = matrix.shape[0]
        if n and self._resolve(n, reused=False) == "direct":
            x = _refined_solve(matrix, b)
            if x is not None:
                return x
        return self._prepare(matrix, reused=False)(b)

    def _prepare(self, matrix, reused):
        n = matrix.shape[0]
        if n == 0:
            return lambda b: np.zeros(0)
        if self._resolve(n, reused) == "direct":
            try:
                factor = _factor(matrix.tocsc())
            except (RuntimeError, MemoryError) as exc:  # singular, or fill too large
                raise SolverError(
                    f"sparse LU factorization failed: {exc!r}"
                ) from None
            return factor.solve
        diag = matrix.diagonal()
        if np.any(diag <= 0):
            raise SolverError("CG requires a positive definite matrix")
        precond = spla.LinearOperator((n, n), matvec=lambda x: x / diag)
        maxiter = max(1, int(CG_ITERATION_FACTOR * n))
        state = {"x0": None}

        def solve(b):
            x, info = spla.cg(
                matrix, b, x0=state["x0"], rtol=self.rtol, atol=0.0,
                maxiter=maxiter, M=precond,
            )
            if info != 0:
                res = float(np.linalg.norm(matrix @ x - b))
                raise SolverError(f"CG did not converge within {maxiter} iterations "
                                  f"(residual {res:.3e})")
            state["x0"] = x
            return x

        return solve


def _factor(matrix):
    """SuperLU of a CSC matrix in symmetric mode, diagonal pivots, as
    numbered (see ``LinearSolver``)."""
    return spla.splu(matrix, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def _refined_solve(matrix, b):
    """x with matrix x = b from the float32 factor of a CSC copy, refined
    in float64 with ``matrix``'s residuals to dsposv's bound, or None where
    the refinement fails (see ``LinearSolver``)."""
    with np.errstate(over="ignore"):
        single = matrix.astype(np.float32).tocsc()
    if not np.all(np.isfinite(single.data)):
        return None
    try:
        factor = _factor(single)
    except (RuntimeError, MemoryError):
        return None
    del single  # the factor holds no reference to it
    n = matrix.shape[0]
    tol = np.sqrt(n) * np.finfo(float).eps * spla.norm(matrix, np.inf)
    x, r = np.zeros(n), b
    r_norm = np.abs(r).max()
    if r_norm == 0.0:
        return x
    with np.errstate(over="ignore", invalid="ignore"):
        # the first solve, then the corrections; each residual is scaled to
        # unit size, so that float32 neither overflows nor underflows it
        for _ in range(REFINE_MAX_CORRECTIONS + 1):
            x = x + r_norm * factor.solve((r / r_norm).astype(np.float32))
            r = b - matrix @ x
            last, r_norm = r_norm, np.abs(r).max()
            if not r_norm < last:  # grown, stalled or not finite
                return None
            if r_norm <= tol * np.abs(x).max():
                return x
    return None


@dataclass(frozen=True)
class State:
    """Nodal coefficients at a time node: velocity, displacement, and the
    internal fields, one row of the (M, n) array ``uve`` per arm. ``uve``
    may be given as a sequence of rows (none for no arms); a row whose
    length is not n raises ``ValueError``."""

    t: float
    u1: np.ndarray
    u0: np.ndarray
    uve: np.ndarray = ()

    def __post_init__(self):
        n = len(self.u1)
        uve = np.asarray(self.uve, dtype=float) if len(self.uve) else np.zeros((0, n))
        if uve.ndim != 2 or uve.shape[1] != n:
            raise ValueError(f"internal fields of shape {uve.shape} for {n} dofs")
        object.__setattr__(self, "uve", uve)

    @classmethod
    def zero(cls, space: FeSpace, n_arms, t=0.0):
        n = space.n_dofs
        return cls(t, np.zeros(n), np.zeros(n), np.zeros((n_arms, n)))


@dataclass(frozen=True)
class TimeGrid:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if not np.all(np.isfinite(nodes)):
            raise ValueError("time nodes must be finite")
        if len(nodes) < 2 or np.any(np.diff(nodes) <= 0):
            raise ValueError("time nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, t_start, t_end, n_steps):
        return cls(np.linspace(t_start, t_end, int(n_steps) + 1))


@dataclass(frozen=True)
class EnergyReport:
    """Squared-norm energy terms of a state plus accumulated dissipation."""

    t: float
    kinetic: float
    elastic: float
    viscoelastic: tuple
    dissipated: float = 0.0

    @property
    def viscoelastic_total(self):
        return float(sum(self.viscoelastic))

    @property
    def total(self):
        return self.kinetic + self.elastic + self.viscoelastic_total


class Products(NamedTuple):
    """Operator products of one state's vectors."""

    mass_u1: np.ndarray
    elastic_u1: np.ndarray
    dev_u1: np.ndarray
    elastic_u0: np.ndarray
    dev_uve: np.ndarray  # (M, n), row m is D uve_m


class OperatorSet:
    """Mass M, elastic K_E and the unit deviatoric operator D, through
    which arm m acts as kappa_m D: three matrices for any arm count. K_E
    and D share one sparsity pattern, with the exact zeros where element
    contributions cancel kept; M stores only its equal-component
    entries, a third as many."""

    def __init__(self, space: FeSpace, material: MaterialModel):
        self.space = space
        self.material = material
        self.mass = assemble_mass(space, material.rho)
        self.elastic, self.deviatoric = assemble_strain_operators(
            space, material.mu, material.lam
        )
        self._products = ()  # (state, products) of the last two states

    def products(self, state: State) -> Products:
        """The ``Products`` of ``state``: those kept for it by
        ``keep_products``, else its direct products, which are then kept.
        Only the last two states' products are kept; their arrays, and the
        state's, must not be modified in place."""
        for held, products in self._products:
            if held is state:
                return products
        u1 = state.u1
        return self.keep_products(state, Products(
            self.mass @ u1, self.elastic @ u1, self.deviatoric @ u1,
            self.elastic @ state.u0, (self.deviatoric @ state.uve.T).T,
        ))

    def keep_products(self, state: State, products: Products) -> Products:
        """Keep ``products`` as those of ``state`` (matched by identity),
        dropping all but the last state kept before it."""
        self._products = self._products[-1:] + ((state, products),)
        return products


def energy(state: State, operators: OperatorSet, dissipated=0.0) -> EnergyReport:
    """Kinetic, elastic and per-arm viscoelastic squared energy norms, each
    the state's own vector dotted with its operator product."""
    prod = operators.products(state)
    ve = tuple((operators.material.kappa * np.vecdot(state.uve, prod.dev_uve)).tolist())
    return EnergyReport(state.t, float(state.u1 @ prod.mass_u1),
                        float(state.u0 @ prod.elastic_u0), ve, dissipated)


def dissipation_increment(prev: State, nxt: State, operators: OperatorSet, k):
    """Dissipated work of one step: sum_m (2 k / tau_m) |||mid uve_m|||^2
    where the midpoint is the interval average of the linear-in-time field,
    mid'D mid = (a + b)'(Da + Db) / 4 from the two states' products; the
    arms' terms are summed in arm order."""
    mat = operators.material
    both = operators.products(prev).dev_uve + operators.products(nxt).dev_uve
    terms = (0.5 / mat.tau) * float(k) * mat.kappa * np.vecdot(prev.uve + nxt.uve, both)
    return float(sum(terms, 0.0))


def advance_displacement(u0_prev, u1_prev, u1_next, k):
    """Trapezoidal displacement update for one timestep."""
    return u0_prev + (k / 2.0) * (u1_next + u1_prev)


def reconstruct_ve(u1_prev, u1_next, uve_prev, coeffs):
    """Internal-field update for one timestep, row m of the (M, n) result
    alpha_m (u1_prev + u1_next) + beta_m uve_prev[m]."""
    s = u1_prev + u1_next
    return coeffs.alpha[:, None] * s + coeffs.beta[:, None] * uve_prev


def load_time_integral(loads, space: FeSpace, t_prev, t_next):
    """Integral of the load functional over one time interval.

    Each term c_j(t) F_j(x) integrates its scalar c_j only, times the
    spatial vector of F_j from ``load_vectors``, summed in term order.
    Body-force coefficients use 2-point Gauss in time (exact for
    quadratic-in-time f); traction coefficients use the trapezoidal rule
    on their endpoint values, which integrates the piecewise-linear-in-time
    interpolant of g exactly.
    """
    k = t_next - t_prev
    if k <= 0:
        raise ValueError("need t_next > t_prev")
    mid = 0.5 * (t_prev + t_next)
    off = 0.5 * k / np.sqrt(3.0)
    body, traction = load_vectors(space, loads)
    out = np.zeros(space.n_dofs)
    for (coef, _), vec in zip(loads.body_terms, body):
        out += 0.5 * k * (coef(mid - off) + coef(mid + off)) * vec
    for (coef, _), vec in zip(loads.traction_terms, traction):
        out += 0.5 * k * (coef(t_prev) + coef(t_next)) * vec
    return out


def _constraint_velocities(d_prev, d_next, u1_prev, k):
    """Velocity values at the fixed frame dofs, chosen so the trapezoidal
    displacement update reproduces the prescribed displacement exactly;
    ``u1_prev`` holds the previous velocity at those dofs."""
    return 2.0 * (d_next - d_prev) / k - u1_prev


class ReducedStepper:
    """Primary time stepper with the internal fields eliminated.

    The Schur operator is assembled and factorized once per (k,
    constraint set); stepping costs one back-substitution plus three
    sparse products, M, K_E and D times the new velocity. The new state's
    K_E u0 and D uve_m are carried from the old state's products by the
    step's own displacement update and ``reconstruct_ve``, and kept with
    ``OperatorSet.keep_products`` for the ledger and the next rhs.

    Who holds which copy: the ``OperatorSet`` holds M, K_E and D; the
    stepper holds the coupling block A_fx of ``Constraints.reduce``
    (``coupling``) and its solve. The full-size Schur sum lives only until
    the reduction returns. On the direct path the reduced CSR lives only
    until its CSC copy is made, so while SuperLU runs the only matrices
    alive are the three operators, the one CSC and the coupling block;
    the factor keeps no reference to the CSC, which dies when the build
    returns, so a march holds M, K_E, D, the coupling block and the
    factor. On CG the solve holds the reduced CSR it multiplies by.

    ``step(state, t_next)`` advances by the stepper's own ``k``: the Schur
    matrix, the rhs, the constraint velocities and the displacement update
    all use it, so the discrete energy identity holds exactly. ``t_next``
    (default ``state.t + k``) only stamps the new state and bounds the
    load and prescribed-value time interval, so a march lands on the nodes
    of its grid even where they differ from ``state.t + k`` by rounding.
    """

    def __init__(self, operators: OperatorSet, constraints: Constraints, k,
                 loads=None, solver=None):
        self.ops = operators
        self.con = constraints
        self.k = float(k)
        self.loads = loads
        self.solver = solver or LinearSolver()
        mat = operators.material
        self.coeffs = step_coefficients(mat.arms, self.k)
        # the arms enter the Schur matrix and the rhs only through D times
        # sum_m kappa_m alpha_m and kappa_m (1 + beta_m)
        self._alpha_kappa = float(mat.kappa @ self.coeffs.alpha)
        self._beta_kappa = mat.kappa * (1.0 + self.coeffs.beta)
        # a sparse sum drops exact zeros, as the per-arm sum did: the zeros
        # stored in the pattern of K_E and D would only grow the factor.
        # M + (k^2/4) K_E is copied to its own size: scipy sizes a sum's
        # arrays for both terms' entries and trims them only when under half
        # are used, and with M on a third of K_E's pattern this sum uses
        # three quarters. The sum is bound to no name, so it is freed as
        # soon as ``reduce`` returns
        k = self.k
        schur, self.coupling = constraints.reduce(
            (operators.mass + (k * k / 4.0) * operators.elastic).copy()
            + ((k / 2.0) * self._alpha_kappa) * operators.deviatoric)
        if self.solver._resolve(schur.shape[0], reused=True) == "direct":
            # SuperLU factorizes CSC: rebinding frees the CSR before the
            # factorization starts, and the CSC when this returns
            schur = schur.tocsc()
        self._solve_free = self.solver.prepare(schur)

    def rhs(self, state: State, t_next=None):
        ops, k = self.ops, self.k
        prod = ops.products(state)
        ve = self._alpha_kappa * prod.dev_u1 + self._beta_kappa @ prod.dev_uve
        b = (prod.mass_u1 - (k * k / 4.0) * prod.elastic_u1 - k * prod.elastic_u0
             - (k / 2.0) * ve)
        if self.loads is not None:
            b = b + load_time_integral(
                self.loads, ops.space, state.t,
                state.t + k if t_next is None else t_next,
            )
        return b

    def step(self, state: State, t_next=None) -> State:
        con, k = self.con, self.k
        t_next = state.t + k if t_next is None else float(t_next)
        b = self.rhs(state, t_next)
        d_prev = con.fixed_values(state.t)
        d_next = con.fixed_values(t_next)
        w_fixed = _constraint_velocities(d_prev, d_next, con.to_frame(state.u1)[con.fixed], k)
        u1_next = con.expand(self._solve_free(con.reduced_rhs(b, self.coupling, w_fixed)), w_fixed)
        nxt = State(t_next, u1_next,
                    advance_displacement(state.u0, state.u1, u1_next, k),
                    reconstruct_ve(state.u1, u1_next, state.uve, self.coeffs))
        # K_E and D are linear, so the new state's K_E u0 and D uve_m follow
        # from the old state's products by the updates above
        ops = self.ops
        old = ops.products(state)
        elastic_u1, dev_u1 = ops.elastic @ u1_next, ops.deviatoric @ u1_next
        ops.keep_products(nxt, Products(
            ops.mass @ u1_next, elastic_u1, dev_u1,
            advance_displacement(old.elastic_u0, old.elastic_u1, elastic_u1, k),
            reconstruct_ve(old.dev_u1, dev_u1, old.dev_uve, self.coeffs),
        ))
        return nxt


def static_solve(operators: OperatorSet, constraints: Constraints, t=0.0, solver=None):
    """Unloaded elastostatic displacement that takes the constraints'
    prescribed values at time ``t``.

    One reduced K_E solve, ``Constraints.solve``, of a zero load through
    ``LinearSolver.solve``: on the direct path a float32 factor refined in
    float64, falling back to the float64 factor (see ``LinearSolver``).
    The reduced pair lives only for the solve."""
    # the values first: kept by the constraint set, they would otherwise sit
    # above the reduction's temporaries and raise the RSS peak of the heap
    values = constraints.fixed_values(t)
    rhs = np.zeros(operators.space.n_dofs)
    return constraints.solve(operators.elastic, rhs, values, solver or LinearSolver())


@dataclass
class SimulationResult:
    ledger: list
    final: State


def simulate(operators: OperatorSet, constraints: Constraints, grid: TimeGrid,
             loads=None, state0=None, solver=None, callback=None):
    """March the dynamics over a time grid, tracking the energy ledger.

    One stepper, and so one Schur build and factorization, serves every
    step of the same size. It is rebuilt only when a step differs from the
    stepper's ``k`` by more than the rounding of the grid's node values,
    4 eps max(|t_prev|, |t_next|): the steps of a ``TimeGrid.uniform``
    (``np.linspace``) grid vary by that much, and a truly non-uniform grid
    rebuilds at every real change of step. Each step advances by the
    stepper's ``k`` and lands on the grid node ``t_next``, so every state
    and ledger time equals a node. ``callback`` (if given) is invoked with
    each new State. Returns the ledger and the final state. The scheme is
    unconditionally stable, so a step whose ledger energy is not finite
    (bad input or a solver fault) raises ``SolverError``. A ``state0``
    whose internal fields are not one row per arm of the material, or
    whose time is not the grid's first node, raises ``ValueError``.
    """
    shape = (operators.material.n_arms, operators.space.n_dofs)
    if state0 is None:
        state0 = State.zero(operators.space, shape[0], float(grid.nodes[0]))
    if state0.uve.shape != shape:
        raise ValueError(f"state0 has internal fields {state0.uve.shape}, need {shape}")
    if state0.t != grid.nodes[0]:
        raise ValueError(f"state0 is at t = {state0.t!r}, the grid starts at {grid.nodes[0]!r}")
    state = state0
    ledger = [energy(state, operators, 0.0)]
    stepper = None
    dissipated = 0.0
    eps = np.finfo(float).eps
    for t_prev, t_next in zip(grid.nodes[:-1], grid.nodes[1:]):
        k = t_next - t_prev
        if stepper is None or (
            abs(k - stepper.k) > 4.0 * eps * max(abs(t_prev), abs(t_next))
        ):
            stepper = None  # release the old factorization first
            stepper = ReducedStepper(operators, constraints, k, loads, solver)
        nxt = stepper.step(state, t_next)
        dissipated += dissipation_increment(state, nxt, operators, stepper.k)
        ledger.append(energy(nxt, operators, dissipated))
        if not np.isfinite(ledger[-1].total + dissipated):
            raise SolverError(f"non-finite energy at t = {t_next!r}")
        if callback is not None:
            callback(nxt)
        state = nxt
    return SimulationResult(ledger, state)
