"""Independent oracles that the tests check the package against.

A full coupled (2+M)-block stepper solving velocities, displacements and
all internal fields simultaneously is kept as a cross-validation oracle
for ``dynamics.ReducedStepper``; both paths produce identical states up
to solver tolerance. The full stepper's states get direct products, so
its ledger checks the reduced stepper's carried ones. ``simulate_full``
marches it through ``dynamics.simulate`` itself. ``PreparingSolver`` keeps
the matrices a stepper's solver is prepared with.

The other oracles are an adaptive-quadrature convolution for the
internal-field update; the manufactured solution's stress, body force and
traction evaluated pointwise, and a finite-difference check of its strong
equations; the slip frames and the sparse change of basis R built node by
node; a least-squares convergence rate; and the tet volumes and facet
centroids of a mesh.
"""
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad

from viscofem import dynamics
from viscofem.assembly import stress_from_gradients
from viscofem.dynamics import (
    OperatorSet,
    State,
    _constraint_velocities,
    load_time_integral,
    reconstruct_ve,
)
from viscofem.fespace import Constraints, SlipBC
from viscofem.material import MaxwellArm, step_coefficients


class FullStepper:
    """Coupled (2+M)-block midpoint stepper; cross-validation oracle.

    Solves velocities, displacements, and every internal field
    simultaneously with a sparse direct factorization. Requires a
    nonempty Dirichlet set so the displacement and internal blocks are
    definite. Each nonzero block is a multiple of M, K_E or D, so the
    reduced block matrix joins multiples of their three reductions. It is
    not symmetric, so it is always LU-factorized: ``solver`` may be None
    or a 'direct' or 'auto' LinearSolver, and a 'cg' one raises
    ``ValueError``. ``step(state, t_next)`` treats ``k`` and ``t_next`` as
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
        mat = operators.material
        self.coeffs = step_coefficients(mat.arms, self.k)
        h = self.k / 2.0
        reduced = [constraints.reduce(a) for a in (
            operators.mass, operators.elastic, operators.deviatoric)]

        def joined(part):
            """The block matrix of the ``part`` (0 for A_ff, 1 for the
            coupling block A_fx) of every block's reduction."""
            m, e, d = (pair[part] for pair in reduced)
            blocks = [[None] * (2 + mat.n_arms) for _ in range(2 + mat.n_arms)]
            blocks[0][:2] = [m, h * e]
            blocks[1][:2] = [-h * e, e]
            for i, (kappa, tau) in enumerate(zip(mat.kappa, mat.tau)):
                blocks[0][2 + i] = (h * kappa) * d
                blocks[2 + i][0] = (-h * kappa) * d
                blocks[2 + i][2 + i] = ((1.0 + self.k / (2.0 * tau)) * kappa) * d
            return sp.bmat(blocks, format="csc")

        a_ff = joined(0)
        self._solve_free = spla.splu(a_ff).solve if a_ff.shape[0] else np.asarray
        self._coupling = joined(1)

    def step(self, state: State, t_next=None) -> State:
        ops, con, k = self.ops, self.con, self.k
        t_next = state.t + k if t_next is None else float(t_next)
        mat, D = ops.material, ops.deviatoric
        r0 = ops.mass @ state.u1 - (k / 2.0) * (ops.elastic @ state.u0)
        r0 -= (k / 2.0) * (D @ (mat.kappa @ state.uve))
        if self.loads is not None:
            r0 += load_time_integral(self.loads, ops.space, state.t, t_next)
        r1 = ops.elastic @ (state.u0 + (k / 2.0) * state.u1)
        w = (k / 2.0) * state.u1 + (1.0 - k / (2.0 * mat.tau))[:, None] * state.uve
        rhs = np.vstack([r0, r1, mat.kappa[:, None] * (D @ w.T).T])

        # prescribed values per block: trapezoidal velocities, prescribed
        # displacements at t_next, and the internal-field recursion
        d_prev = con.fixed_values(state.t)
        d_fix = con.fixed_values(t_next)
        u1_prev = con.to_frame(state.u1)[con.fixed]
        v_fix = _constraint_velocities(d_prev, d_fix, u1_prev, k)
        uve_prev = con.to_frame(state.uve)[:, con.fixed]
        fixed = np.vstack([v_fix, d_fix, reconstruct_ve(u1_prev, v_fix, uve_prev, self.coeffs)])

        b = con.to_frame(rhs)[:, con.free].ravel() - self._coupling @ fixed.ravel()
        x = con.expand(self._solve_free(b).reshape(len(rhs), len(con.free)), fixed)
        return State(t_next, x[0], x[1], x[2:])


def simulate_full(*args, **kwargs):
    """``dynamics.simulate`` marching ``FullStepper``: its own loop, with
    the class it builds its steppers from swapped for the oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "ReducedStepper", FullStepper)
        return dynamics.simulate(*args, **kwargs)


class PreparingSolver(dynamics.LinearSolver):
    """A ``LinearSolver`` that keeps each matrix ``prepare`` is given, in
    ``prepared``: a stepper holds no reduced Schur matrix of its own, so
    this is how a test sees the one its solver factorizes or multiplies
    by."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prepared = []

    def prepare(self, matrix):
        self.prepared.append(matrix)
        return super().prepare(matrix)


def duhamel_stress(arm: MaxwellArm, strain_rate_history, t, rtol=1e-10):
    """Arm stress via the convolution integral, starting from zero stress.

    sigma(t) = integral_0^t kappa * exp(-(t-s)/tau) * rate(s) ds,
    evaluated componentwise with adaptive quadrature to relative
    tolerance ``rtol``. ``strain_rate_history(s)`` may return a scalar
    or an arbitrary fixed-shape array.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    probe = np.asarray(strain_rate_history(0.0), dtype=float)
    out = np.zeros_like(probe, dtype=float)
    if t == 0:
        return out if probe.shape else 0.0
    flat = out.reshape(-1)
    for i in range(flat.size):
        def integrand(s, i=i):
            rate = np.asarray(strain_rate_history(s), dtype=float).reshape(-1)
            return np.exp(-(t - s) / arm.tau) * rate[i]

        val, _ = quad(integrand, 0.0, t, epsabs=0.0, epsrel=rtol, limit=200)
        flat[i] = arm.kappa * val
    return out if probe.shape else float(flat[0])


def acceleration(ms, t, x):
    """The exact acceleration of the ``ManufacturedSolution`` ``ms``."""
    return ms.time_factor_rate(t) * ms.shape(x)


def stress(ms, t, x):
    """The exact stress of ``ms``: Hooke's of the displacement plus each
    arm's kappa times its internal field's dev eps."""
    grad = ms.shape_gradient(x)
    mat = ms.material
    arms = sum(a.kappa * ms.arm_factor(m, t) for m, a in enumerate(mat.arms))
    return stress_from_gradients(ms.displacement_factor(t) * grad, arms * grad, mat.mu, mat.lam)


def stress_divergence(ms, t, x):
    """Row-wise divergence of the stress of ``ms``, analytically."""
    out = ms.displacement_factor(t) * ms.elastic_divergence(x)
    for m, arm in enumerate(ms.material.arms):
        out += ms.arm_factor(m, t) * arm.kappa * ms.deviatoric_divergence(x)
    return out


def body_force(ms, x, t):
    """The body force that makes ``ms`` solve the strong equations."""
    return ms.material.rho * acceleration(ms, t, x) - stress_divergence(ms, t, x)


def traction(ms, x, t, normal):
    """The stress of ``ms`` on the (unit) normal, a row or one per point."""
    sigma = stress(ms, t, x)
    return np.einsum("nab,nb->na", sigma, np.broadcast_to(np.atleast_2d(normal), (len(sigma), 3)))


def strong_residual(ms, t, x, dt=1e-6, dx=1e-6):
    """Finite-difference check of the strong equations of the
    ``ManufacturedSolution`` ``ms``; returns the worst residual relative
    to the magnitude of the equation terms."""
    x = np.atleast_2d(x)
    mat = ms.material
    du1 = (ms.velocity(t + dt, x) - ms.velocity(t - dt, x)) / (2 * dt)
    div_fd = np.zeros((len(x), 3))
    for i in range(3):
        step = np.zeros(3)
        step[i] = dx
        div_fd += (
            stress(ms, t, x + step)[:, :, i] - stress(ms, t, x - step)[:, :, i]
        ) / (2 * dx)
    f = body_force(ms, x, t)
    scale1 = max(
        np.abs(mat.rho * du1).max(), np.abs(div_fd).max(), np.abs(f).max(), 1e-30
    )
    r1 = np.abs(mat.rho * du1 - div_fd - f).max() / scale1

    du0 = (ms.displacement(t + dt, x) - ms.displacement(t - dt, x)) / (2 * dt)
    u1 = ms.velocity(t, x)
    scale2 = max(np.abs(u1).max(), 1e-30)
    r2 = np.abs(du0 - u1).max() / scale2

    r3 = 0.0
    for m, arm in enumerate(mat.arms):
        duve = (ms.ve_field(m, t + dt, x) - ms.ve_field(m, t - dt, x)) / (2 * dt)
        resid = duve + ms.ve_field(m, t, x) / arm.tau - u1
        r3 = max(r3, np.abs(resid).max() / scale2)
    return max(r1, r2, r3)


def per_node_rotation(con):
    """The slip frames of the ``Constraints`` ``con`` and the sparse change
    of basis R (identity but for the frames as the slip nodes' 3x3 blocks),
    as a loop over the slip nodes builds them: normals accumulated facet by
    facet, one frame and one block per node."""
    space, mesh = con.space, con.space.mesh
    acc = {int(nd): np.zeros(3) for nd in con.slip_nodes}
    for label, bc in con.spec.items():
        if not isinstance(bc, SlipBC):
            continue
        facets = mesh.facets_with_label(label)
        for nodes, nrm, area in zip(space.facet_scalar_dofs(facets),
                                    mesh.facet_normals()[facets], mesh.facet_areas()[facets]):
            for nd in nodes:
                if int(nd) in acc:
                    acc[int(nd)] += area * nrm
    frames, rows, cols, data = [], [], [], []
    for nd, a in acc.items():
        n = a / np.linalg.norm(a)
        helper = np.zeros(3)
        helper[np.argmin(np.abs(n))] = 1.0
        t1 = np.cross(n, helper)
        t1 /= np.linalg.norm(t1)
        frame = np.column_stack([n, t1, np.cross(n, t1)])
        frames.append(frame)
        for i in range(3):
            for j in range(3):
                rows.append(3 * nd + i)
                cols.append(3 * nd + j)
                data.append(frame[i, j])
    for nd in sorted(set(range(space.n_scalar_dofs)) - set(acc)):
        for i in range(3):
            rows.append(3 * nd + i)
            cols.append(3 * nd + i)
            data.append(1.0)
    n_dofs = space.n_dofs
    return np.array(frames), sp.csr_matrix((data, (rows, cols)), shape=(n_dofs, n_dofs))


def apply_values(con, u, t=0.0):
    """u with the constrained components of ``con`` overwritten by their
    prescribed values at time t."""
    return con.expand(con.to_frame(u)[con.free], con.fixed_values(t))


def lsq_rate(table, axis, column="energy_error"):
    """Least-squares slope of log error vs log ``axis`` over all
    successful rows of the ``ConvergenceTable`` ``table``; the numerical
    analogue of reading a straight line off a log-log convergence plot."""
    rows = table.ok_rows()
    x = np.log([getattr(r, axis) for r in rows])
    y = np.log([getattr(r, column) for r in rows])
    return float(np.polyfit(x, y, 1)[0])


def tet_volumes(mesh):
    """Signed volumes of all tets of ``mesh`` (positive for a valid mesh)."""
    v = mesh.vertices[mesh.tets]
    return np.linalg.det(v[:, 1:] - v[:, :1]) / 6.0


def facet_centroids(mesh):
    """Centroids of the boundary facets of ``mesh``."""
    return mesh.vertices[mesh.boundary_facets].mean(axis=1)
