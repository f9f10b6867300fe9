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

A full coupled (2+M)-block stepper solving velocities, displacements and
all internal fields simultaneously is kept as a cross-validation oracle;
both paths produce identical states up to solver tolerance.

With zero loads the step satisfies an exact energy identity: the change
of kinetic + elastic + viscoelastic energy equals minus the dissipation
increment sum_m (2 k / tau_m) * |||midpoint uve_m|||^2, which the energy
ledger tracks; arm m's energy norm is |||u|||^2 = kappa_m u'Du.

A state's products M u1, K_E u1, D u1, K_E u0 and D uve_m
(``OperatorSet.products``) serve its energy, the dissipation of both
adjacent steps and the next rhs. The reduced step forms only the first
three; K_E u0 and D uve_m follow from the old state's products by the
same linear updates that give u0 and uve_m, so a step makes 3 sparse
products for any arm count. The full stepper's states get direct
products, so its ledger checks the carried ones.

At the fixed frame dofs a step sets the velocity so that the trapezoidal
displacement update reproduces the prescribed values exactly. It takes
them from ``Constraints.fixed_values`` at the step's start and end; the
constraint set keeps the last time's values, so a step starts from the
very values the previous step ended on, as the energy identity needs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    arm_weighted_sum,
    assemble_load,
    assemble_mass,
    assemble_strain_operators,
    combine_loads,
)
from .fespace import Constraints, FeSpace
from .material import MaterialModel, step_coefficients


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


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
    solution of the same ``prepare``.

    'auto' chooses by how a matrix is used. A solver from ``prepare``
    serves every step of a march, so its factorization is paid once: it
    is direct up to ``FACTOR_DOF_BOUND`` free dofs. A one-shot ``solve``
    pays the factorization for a single right-hand side, so it is direct
    only up to ``ONE_SHOT_DOF_BOUND``.
    """

    def __init__(self, method="auto", rtol=1e-12):
        if method not in ("auto", "direct", "cg"):
            raise ValueError(f"unknown solver method {method!r}")
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
        """Factorize once; returns solve(b) reusable across timesteps."""
        return self._prepare(matrix, reused=True)

    def solve(self, matrix, b):
        """Solve for one right-hand side."""
        return self._prepare(matrix, reused=False)(b)

    def _prepare(self, matrix, reused):
        n = matrix.shape[0]
        if n == 0:
            return lambda b: np.zeros(0)
        if self._resolve(n, reused) == "direct":
            try:
                factor = spla.splu(
                    matrix.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True},
                )
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
                raise SolverError(
                    f"CG did not converge within {maxiter} iterations "
                    f"(residual {res:.3e})",
                    residual=res,
                )
            state["x0"] = x
            return x

        return solve


@dataclass(frozen=True)
class State:
    """Nodal coefficients at a time node: velocity, displacement, and the
    per-arm internal fields."""

    t: float
    u1: np.ndarray
    u0: np.ndarray
    uve: tuple = field(default_factory=tuple)

    @classmethod
    def zero(cls, space: FeSpace, n_arms, t=0.0):
        n = space.n_dofs
        return cls(t, np.zeros(n), np.zeros(n), tuple(np.zeros(n) for _ in range(n_arms)))


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

    @property
    def steps(self):
        return np.diff(self.nodes)


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
    dev_uve: tuple  # D uve_m per arm


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
            self.elastic @ state.u0, tuple(self.deviatoric @ u for u in state.uve),
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
    ve = tuple(arm.kappa * float(u @ du)
               for arm, u, du in zip(operators.material.arms, state.uve, prod.dev_uve))
    return EnergyReport(state.t, float(state.u1 @ prod.mass_u1),
                        float(state.u0 @ prod.elastic_u0), ve, dissipated)


def dissipation_increment(prev: State, nxt: State, operators: OperatorSet, k):
    """Dissipated work of one step: sum_m (2 k / tau_m) |||mid uve_m|||^2
    where the midpoint is the interval average of the linear-in-time field,
    mid'D mid = (a + b)'(Da + Db) / 4 from the two states' products."""
    terms = zip(operators.material.arms, prev.uve, nxt.uve,
                operators.products(prev).dev_uve, operators.products(nxt).dev_uve)
    return sum(((0.5 / arm.tau) * float(k) * arm.kappa * float((a + b) @ (da + db))
                for arm, a, b, da, db in terms), 0.0)


def advance_displacement(u0_prev, u1_prev, u1_next, k):
    """Trapezoidal displacement update for one timestep."""
    return u0_prev + (k / 2.0) * (u1_next + u1_prev)


def reconstruct_ve(u1_prev, u1_next, uve_prev, coeffs):
    """Per-arm internal-field update for one timestep."""
    s = u1_prev + u1_next
    return tuple(
        a * s + b * u for a, b, u in zip(coeffs.alpha, coeffs.beta, uve_prev)
    )


def load_time_integral(loads, space: FeSpace, t_prev, t_next):
    """Integral of the load functional over one time interval.

    Each term c_j(t) F_j(x) integrates its scalar c_j only, times the
    cached spatial vector of F_j. Body-force coefficients use 2-point
    Gauss in time (exact for quadratic-in-time f); traction coefficients
    use the trapezoidal rule on their endpoint values, which integrates
    the piecewise-linear-in-time interpolant of g exactly.
    """
    k = t_next - t_prev
    if k <= 0:
        raise ValueError("need t_next > t_prev")
    mid = 0.5 * (t_prev + t_next)
    off = 0.5 * k / np.sqrt(3.0)
    return combine_loads(
        space, loads,
        lambda coef: 0.5 * k * (coef(mid - off) + coef(mid + off)),
        lambda coef: 0.5 * k * (coef(t_prev) + coef(t_next)),
    )


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
        arms = operators.material.arms
        self.coeffs = step_coefficients(arms, self.k)
        # the arms enter the Schur matrix and the rhs only through D times
        # sum_m kappa_m alpha_m and kappa_m (1 + beta_m)
        self._alpha_kappa = sum(m.kappa * a for m, a in zip(arms, self.coeffs.alpha))
        self._beta_kappa = [m.kappa * (1.0 + b) for m, b in zip(arms, self.coeffs.beta)]
        # a sparse sum drops exact zeros, as the per-arm sum did: the zeros
        # stored in the pattern of K_E and D would only grow the factor.
        # M + (k^2/4) K_E is copied to its own size: scipy sizes a sum's
        # arrays for both terms' entries and trims them only when under half
        # are used, and with M on a third of K_E's pattern this sum uses
        # three quarters
        k = self.k
        schur = ((operators.mass + (k * k / 4.0) * operators.elastic).copy()
                 + ((k / 2.0) * self._alpha_kappa) * operators.deviatoric)
        self.system = constraints.reduce(schur)
        self._solve_free = self.solver.prepare(self.system.matrix)

    def rhs(self, state: State, t_next=None):
        ops, k = self.ops, self.k
        prod = ops.products(state)
        ve = self._alpha_kappa * prod.dev_u1
        for c, du in zip(self._beta_kappa, prod.dev_uve):
            ve += c * du
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
        w = np.zeros(con.space.n_dofs)
        w[con.free] = self._solve_free(self.system.reduced_rhs(b, w_fixed))
        w[con.fixed] = w_fixed
        u1_next = con.from_frame(w)
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


class FullStepper:
    """Coupled (2+M)-block midpoint stepper; cross-validation oracle.

    Solves velocities, displacements, and every internal field
    simultaneously with a sparse direct factorization. Requires a
    nonempty Dirichlet set so the displacement and internal blocks are
    definite. The block matrix is not symmetric, so it is always
    LU-factorized: ``solver`` may be None or a 'direct' or 'auto'
    LinearSolver, and a 'cg' one raises ``ValueError``.
    ``step(state, t_next)`` treats ``k`` and ``t_next`` as
    ``ReducedStepper.step`` does.
    """

    def __init__(self, operators: OperatorSet, constraints: Constraints, k,
                 loads=None, solver=None):
        if solver is not None and solver.method == "cg":
            raise ValueError("the full stepper LU-factorizes its nonsymmetric "
                             "block matrix; it cannot use a 'cg' solver")
        self.ops = operators
        self.con = constraints
        self.k = float(k)
        self.loads = loads
        self.coeffs = step_coefficients(operators.material.arms, self.k)
        arms = operators.material.arms
        m_arms = len(arms)
        n_blocks = 2 + m_arms
        kk = self.k
        blocks = [[None] * n_blocks for _ in range(n_blocks)]
        blocks[0][0] = operators.mass
        blocks[0][1] = (kk / 2.0) * operators.elastic
        blocks[1][0] = (-kk / 2.0) * operators.elastic
        blocks[1][1] = operators.elastic
        for m, arm in enumerate(arms):
            K = arm.kappa * operators.deviatoric
            blocks[0][2 + m] = (kk / 2.0) * K
            blocks[2 + m][0] = (-kk / 2.0) * K
            blocks[2 + m][2 + m] = (1.0 + kk / (2.0 * arm.tau)) * K
        big = sp.bmat(blocks, format="csr")

        n = operators.space.n_dofs
        rot = constraints.rotation
        self._rot_big = sp.block_diag([rot] * n_blocks, format="csr")
        fixed = constraints.fixed
        self._fixed_big = np.concatenate(
            [fixed + i * n for i in range(n_blocks)]
        ) if len(fixed) else np.zeros(0, dtype=np.int64)
        mask = np.ones(n_blocks * n, dtype=bool)
        mask[self._fixed_big] = False
        self._free_big = np.nonzero(mask)[0]
        reduced = (self._rot_big.T @ big @ self._rot_big).tocsr()
        self._a_ff = reduced[self._free_big][:, self._free_big].tocsc()
        self._a_fx = reduced[self._free_big][:, self._fixed_big].tocsr()
        if self._a_ff.shape[0]:
            self._lu = spla.splu(self._a_ff)
        self._n_blocks = n_blocks

    def step(self, state: State, t_next=None) -> State:
        ops, con, k = self.ops, self.con, self.k
        t_next = state.t + k if t_next is None else float(t_next)
        n = ops.space.n_dofs
        arms, D = ops.material.arms, ops.deviatoric
        r0 = ops.mass @ state.u1 - (k / 2.0) * (ops.elastic @ state.u0)
        r0 -= (k / 2.0) * (D @ arm_weighted_sum(ops.space, ops.material, state.uve))
        if self.loads is not None:
            r0 += load_time_integral(self.loads, ops.space, state.t, t_next)
        r1 = ops.elastic @ (state.u0 + (k / 2.0) * state.u1)
        rhs = [r0, r1]
        for arm, uve in zip(arms, state.uve):
            w = (k / 2.0) * state.u1 + (1.0 - k / (2.0 * arm.tau)) * uve
            rhs.append(arm.kappa * (D @ w))
        rhs = np.concatenate(rhs)

        # prescribed values per block: trapezoidal velocities, prescribed
        # displacements at t_next, and the internal-field recursion
        d_prev = con.fixed_values(state.t)
        d_fix = con.fixed_values(t_next)
        u1_prev = con.to_frame(state.u1)[con.fixed]
        v_fix = _constraint_velocities(d_prev, d_fix, u1_prev, k)
        fixed_vals = [v_fix, d_fix]
        for a, b, uve in zip(self.coeffs.alpha, self.coeffs.beta, state.uve):
            uve_prev = con.to_frame(uve)[con.fixed]
            fixed_vals.append(a * (v_fix + u1_prev) + b * uve_prev)
        fixed_vals = np.concatenate(fixed_vals) if len(con.fixed) else np.zeros(0)

        b_frame = (self._rot_big.T @ rhs)[self._free_big]
        if len(fixed_vals):
            b_frame = b_frame - self._a_fx @ fixed_vals
        w = np.zeros(self._n_blocks * n)
        if self._a_ff.shape[0]:
            w[self._free_big] = self._lu.solve(b_frame)
        w[self._fixed_big] = fixed_vals
        x = self._rot_big @ w
        u1 = x[:n]
        u0 = x[n : 2 * n]
        uve = tuple(x[(2 + m) * n : (3 + m) * n] for m in range(len(arms)))
        return State(t_next, u1, u0, uve)


def static_solve(operators: OperatorSet, constraints: Constraints, loads=None,
                 t=0.0, solver=None):
    """Elastostatic displacement with the given essential constraints."""
    # the values first: kept by the constraint set, they would otherwise sit
    # above the reduction's temporaries and raise the RSS peak of the heap
    values = constraints.fixed_values(t)
    rhs = assemble_load(operators.space, loads, t)
    system = constraints.reduce(operators.elastic)
    return system.solve(rhs, values, solver or LinearSolver())


@dataclass
class SimulationResult:
    ledger: list
    final: State


def simulate(operators: OperatorSet, constraints: Constraints, grid: TimeGrid,
             loads=None, state0=None, solver=None, callback=None, stepper="reduced"):
    """March the dynamics over a time grid, tracking the energy ledger.

    One stepper, and so one Schur build and factorization, serves every
    step of the same size. It is rebuilt only when a step differs from the
    stepper's ``k`` by more than the rounding of the grid's node values,
    4 eps max(|t_prev|, |t_next|): the steps of a ``TimeGrid.uniform``
    (``np.linspace``) grid vary by that much, and a truly non-uniform grid
    rebuilds at every real change of step. Each step advances by the
    stepper's ``k`` and lands on the grid node ``t_next``, so every state
    and ledger time equals a node. ``stepper`` is "reduced"
    (``ReducedStepper``) or "full" (``FullStepper``, the oracle); another
    name raises ``ValueError``. ``callback`` (if given) is invoked with
    each new State. Returns the ledger and the final state. The scheme is
    unconditionally stable, so a step whose ledger energy is not finite
    (bad input or a solver fault) raises ``SolverError``.
    """
    if state0 is None:
        state0 = State.zero(operators.space, operators.material.n_arms,
                            float(grid.nodes[0]))
    steppers = {"reduced": ReducedStepper, "full": FullStepper}
    if stepper not in steppers:
        raise ValueError(f"unknown stepper {stepper!r}: expected 'reduced' or 'full'")
    cls = steppers[stepper]
    state = state0
    ledger = [energy(state, operators, 0.0)]
    stepper_obj = None
    dissipated = 0.0
    eps = np.finfo(float).eps
    for t_prev, t_next in zip(grid.nodes[:-1], grid.nodes[1:]):
        k = t_next - t_prev
        if stepper_obj is None or (
            abs(k - stepper_obj.k) > 4.0 * eps * max(abs(t_prev), abs(t_next))
        ):
            stepper_obj = None  # release the old factorization first
            stepper_obj = cls(operators, constraints, k, loads, solver)
        nxt = stepper_obj.step(state, t_next)
        dissipated += dissipation_increment(state, nxt, operators, stepper_obj.k)
        ledger.append(energy(nxt, operators, dissipated))
        if not np.isfinite(ledger[-1].total + dissipated):
            raise SolverError(f"non-finite energy at t = {t_next!r}")
        if callback is not None:
            callback(nxt)
        state = nxt
    return SimulationResult(ledger, state)
