"""Verification harness: manufactured solution, error norms, convergence
sweeps, and the free-vibration conservation experiment.

The manufactured velocity field is a separable product of trigonometric
factors scaled by a(t) = exp(1-t)*(a1*t + a2*t^2); displacement and the
per-arm internal fields follow by closed-form time integration, and the
body force / boundary traction are reverse-engineered from the strong
equations. The field vanishes on z=0, compatible with a homogeneous
Dirichlet bottom on the unit cube.

Error norms integrate the pointwise exact solution (not its interpolant)
with quadrature of exactness 2p+2.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import LoadSpec, stress_from_gradients, volume_data
from .dynamics import (
    LinearSolver,
    OperatorSet,
    State,
    TimeGrid,
    simulate,
    static_solve,
)
from .fespace import Constraints, DirichletBC, FeSpace
from .material import MaterialModel
from .mesh import BoundaryKind, BoundaryTag, box_face_tagger, build_box_mesh

# separable factors sin(w*s + phase) per component and axis
_SHAPE_COEF = (0.75, 0.75, 1.0)
_SHAPE_FACTORS = (
    ((np.pi, np.pi / 2), (np.pi / 2, np.pi / 4), (np.pi, 0.0)),
    ((np.pi / 2, np.pi / 4), (np.pi, np.pi / 2), (np.pi, 0.0)),
    ((np.pi / 2, np.pi / 4), (np.pi / 2, np.pi / 4), (np.pi / 2, 0.0)),
)


def _factor(component, axis, s, order=0):
    w, phase = _SHAPE_FACTORS[component][axis]
    return w**order * np.sin(w * s + phase + order * np.pi / 2)


def _exp_moment_1(t, c):
    """integral_0^t s*exp(-c*s) ds, stable for small |c*t|."""
    u = c * t
    if abs(u) < 0.5:
        out, term = 0.0, 1.0
        for j in range(25):
            out += term / (j + 2)
            term *= -u / (j + 1)
        return t * t * out
    return (1.0 - (1.0 + u) * np.exp(-u)) / (c * c)


def _exp_moment_2(t, c):
    """integral_0^t s^2*exp(-c*s) ds, stable for small |c*t|."""
    u = c * t
    if abs(u) < 0.5:
        out, term = 0.0, 1.0
        for j in range(25):
            out += term / (j + 3)
            term *= -u / (j + 1)
        return t**3 * out
    return (2.0 - (u * u + 2.0 * u + 2.0) * np.exp(-u)) / (c**3)


class ManufacturedSolution:
    """Closed-form exact solution of the viscoelastic dynamics on the
    unit cube, with derived body force and Neumann traction."""

    def __init__(self, material: MaterialModel, a1=0.2, a2=0.2):
        self.material = material
        self.a1 = float(a1)
        self.a2 = float(a2)

    # -- time factors ---------------------------------------------------

    def time_factor(self, t):
        """a(t): scales the velocity field; a(0) = 0."""
        return np.exp(1.0 - t) * (self.a1 * t + self.a2 * t * t)

    def time_factor_rate(self, t):
        return np.exp(1.0 - t) * (
            self.a1 + 2.0 * self.a2 * t - self.a1 * t - self.a2 * t * t
        )

    def displacement_factor(self, t):
        """A(t) = integral of a, A(0) = 0."""
        e = np.e
        return e * (
            self.a1 * _exp_moment_1(t, 1.0) + self.a2 * _exp_moment_2(t, 1.0)
        )

    def arm_factor(self, m, t):
        """g_m(t) = integral_0^t exp(-(t-s)/tau_m) a(s) ds, closed form."""
        tau = self.material.arms[m].tau
        c = 1.0 - 1.0 / tau
        val = self.a1 * _exp_moment_1(t, c) + self.a2 * _exp_moment_2(t, c)
        return np.e * np.exp(-t / tau) * val

    # -- spatial shape ----------------------------------------------------

    def shape(self, x):
        x = np.atleast_2d(x)
        out = np.empty((len(x), 3))
        for a in range(3):
            out[:, a] = _SHAPE_COEF[a] * (
                _factor(a, 0, x[:, 0]) * _factor(a, 1, x[:, 1]) * _factor(a, 2, x[:, 2])
            )
        return out

    def shape_gradient(self, x):
        """G[n, a, i] = d V_a / d x_i."""
        x = np.atleast_2d(x)
        out = np.empty((len(x), 3, 3))
        for a in range(3):
            for i in range(3):
                fs = [
                    _factor(a, ax, x[:, ax], 1 if ax == i else 0) for ax in range(3)
                ]
                out[:, a, i] = _SHAPE_COEF[a] * fs[0] * fs[1] * fs[2]
        return out

    def shape_hessian(self, x):
        """H[n, a, i, j] = d^2 V_a / d x_i d x_j."""
        x = np.atleast_2d(x)
        out = np.empty((len(x), 3, 3, 3))
        for a in range(3):
            for i in range(3):
                for j in range(i, 3):
                    fs = [
                        _factor(a, ax, x[:, ax], (ax == i) + (ax == j))
                        for ax in range(3)
                    ]
                    val = _SHAPE_COEF[a] * fs[0] * fs[1] * fs[2]
                    out[:, a, i, j] = val
                    out[:, a, j, i] = val
        return out

    # -- exact fields -----------------------------------------------------

    def velocity(self, t, x):
        return self.time_factor(t) * self.shape(x)

    def displacement(self, t, x):
        return self.displacement_factor(t) * self.shape(x)

    def acceleration(self, t, x):
        return self.time_factor_rate(t) * self.shape(x)

    def ve_field(self, m, t, x):
        return self.arm_factor(m, t) * self.shape(x)

    def stress(self, t, x):
        grad = self.shape_gradient(x)
        mat = self.material
        arms = sum(a.kappa * self.arm_factor(m, t) for m, a in enumerate(mat.arms))
        return stress_from_gradients(
            self.displacement_factor(t) * grad, arms * grad, mat.mu, mat.lam
        )

    def _shape_divergences(self, x):
        """(L_E[V], L_D[V]): row-wise divergences of the elastic stress
        and of dev eps of the shape V, analytically."""
        hess = self.shape_hessian(x)
        lap = np.einsum("naii->na", hess)
        graddiv = np.einsum("njaj->na", hess)
        mat = self.material
        return mat.mu * lap + (mat.mu + mat.lam) * graddiv, lap / 2.0 + graddiv / 6.0

    def elastic_divergence(self, x):
        """L_E[V] = mu lap V + (mu + lam) grad div V."""
        return self._shape_divergences(x)[0]

    def deviatoric_divergence(self, x):
        """L_D[V] = div dev eps(V) = lap V / 2 + grad div V / 6."""
        return self._shape_divergences(x)[1]

    def stress_divergence(self, t, x):
        """Row-wise divergence of the stress, analytically."""
        elastic, deviatoric = self._shape_divergences(x)
        out = self.displacement_factor(t) * elastic
        for m, arm in enumerate(self.material.arms):
            out += self.arm_factor(m, t) * arm.kappa * deviatoric
        return out

    def body_force(self, x, t):
        return self.material.rho * self.acceleration(t, x) - self.stress_divergence(t, x)

    @staticmethod
    def _normal_component(sigma, x, normal):
        normal = np.broadcast_to(np.atleast_2d(normal), (len(np.atleast_2d(x)), 3))
        return np.einsum("nab,nb->na", sigma, normal)

    def traction(self, x, t, normal):
        return self._normal_component(self.stress(t, x), x, normal)

    def elastic_traction(self, x, normal):
        """sigma_E[V] n, the Hooke stress of the shape V on the normal."""
        grad = self.shape_gradient(x)
        mat = self.material
        sigma = stress_from_gradients(grad, np.zeros_like(grad), mat.mu, mat.lam)
        return self._normal_component(sigma, x, normal)

    def deviatoric_traction(self, x, normal):
        """dev eps(V) n: the stress of a unit-modulus arm whose internal
        field is V, on the normal."""
        grad = self.shape_gradient(x)
        sigma = stress_from_gradients(np.zeros_like(grad), grad, 0.0, 0.0)
        return self._normal_component(sigma, x, normal)

    def loads(self):
        """The body force and traction in time-separable form,

            f = rho a'(t) V - A(t) L_E[V] - sum_m kappa_m g_m(t) L_D[V],
            g = A(t) sigma_E[V] n + sum_m kappa_m g_m(t) dev eps(V) n,

        whose spatial fields are methods, so their assembled vectors are
        cached per space across calls. All arms share the vectors of
        L_D[V] and dev eps(V) n."""
        rho = self.material.rho
        body = [
            (lambda t: rho * self.time_factor_rate(t), self.shape),
            (lambda t: -self.displacement_factor(t), self.elastic_divergence),
        ]
        traction = [(self.displacement_factor, self.elastic_traction)]
        for m, arm in enumerate(self.material.arms):
            def arm_coef(t, m=m, kappa=arm.kappa):
                return kappa * self.arm_factor(m, t)

            body.append((lambda t, c=arm_coef: -c(t), self.deviatoric_divergence))
            traction.append((arm_coef, self.deviatoric_traction))
        return LoadSpec(body_terms=tuple(body), traction_terms=tuple(traction))

    def strong_residual(self, t, x, dt=1e-6, dx=1e-6):
        """Finite-difference check of the strong equations; returns the
        worst residual relative to the magnitude of the equation terms."""
        x = np.atleast_2d(x)
        mat = self.material
        du1 = (self.velocity(t + dt, x) - self.velocity(t - dt, x)) / (2 * dt)
        div_fd = np.zeros((len(x), 3))
        for i in range(3):
            step = np.zeros(3)
            step[i] = dx
            div_fd += (
                self.stress(t, x + step)[:, :, i] - self.stress(t, x - step)[:, :, i]
            ) / (2 * dx)
        f = self.body_force(x, t)
        scale1 = max(
            np.abs(mat.rho * du1).max(), np.abs(div_fd).max(), np.abs(f).max(), 1e-30
        )
        r1 = np.abs(mat.rho * du1 - div_fd - f).max() / scale1

        du0 = (self.displacement(t + dt, x) - self.displacement(t - dt, x)) / (2 * dt)
        u1 = self.velocity(t, x)
        scale2 = max(np.abs(u1).max(), 1e-30)
        r2 = np.abs(du0 - u1).max() / scale2

        r3 = 0.0
        for m, arm in enumerate(mat.arms):
            duve = (self.ve_field(m, t + dt, x) - self.ve_field(m, t - dt, x)) / (2 * dt)
            resid = duve + self.ve_field(m, t, x) / arm.tau - u1
            r3 = max(r3, np.abs(resid).max() / scale2)
        return max(r1, r2, r3)


def unit_cube_problem(material, n, p):
    """Mesh, space, operators and bottom-clamped constraints for the
    manufactured study on the unit cube."""
    tagger = box_face_tagger(
        faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")}
    )
    mesh = build_box_mesh(n, tagger=tagger)
    space = FeSpace(mesh, p)
    ops = OperatorSet(space, material)
    con = Constraints(space, {"bottom": DirichletBC((0.0, 0.0, 0.0))})
    return ops, con


def error_norms(state: State, exact: ManufacturedSolution, operators: OperatorSet,
                degree=None):
    """End-time energy-norm and displacement L2 errors vs the exact fields.

    Uses quadrature of exactness 2p+2 (default), evaluating the exact
    solution pointwise at the quadrature points.
    """
    space = operators.space
    mat = operators.material
    vd = volume_data(space, degree if degree is not None else 2 * space.p + 2)
    pts = vd.points.reshape(-1, 3)
    t = state.t

    dv = exact.velocity(t, pts).reshape(vd.points.shape) - vd.value(state.u1)
    kin = mat.rho * np.sum(vd.wdet * np.einsum("eqa,eqa->eq", dv, dv))

    grad_exact = exact.shape_gradient(pts).reshape(vd.points.shape[:2] + (3, 3))
    dg0 = exact.displacement_factor(t) * grad_exact - vd.gradient(state.u0)
    eps = 0.5 * (dg0 + np.swapaxes(dg0, -1, -2))
    div = np.einsum("eqaa->eq", dg0)
    ela = np.sum(
        vd.wdet
        * (2.0 * mat.mu * np.einsum("eqab,eqab->eq", eps, eps) + mat.lam * div * div)
    )

    ve = 0.0
    for m, arm in enumerate(mat.arms):
        dgm = exact.arm_factor(m, t) * grad_exact - vd.gradient(state.uve[m])
        epsm = 0.5 * (dgm + np.swapaxes(dgm, -1, -2))
        divm = np.einsum("eqaa->eq", dgm)
        ve += arm.kappa * np.sum(
            vd.wdet
            * (np.einsum("eqab,eqab->eq", epsm, epsm) - divm * divm / 3.0)
        )

    du0 = exact.displacement(t, pts).reshape(vd.points.shape) - vd.value(state.u0)
    l2 = np.sum(vd.wdet * np.einsum("eqa,eqa->eq", du0, du0))
    return float(np.sqrt(kin + ela + ve)), float(np.sqrt(l2))


def cube_cells(h):
    """Cells per axis of the unit cube at mesh size h; a ValueError unless
    h divides the cube."""
    n = int(round(1.0 / h)) if h > 0 else 0
    if n < 1 or abs(n * h - 1.0) > 1e-12:
        raise ValueError(f"mesh size {h} must divide the unit cube")
    return n


def step_count(k, end_time):
    """Steps of size k up to ``end_time``; a ValueError unless k divides
    it."""
    n = int(round(end_time / k)) if k > 0 else 0
    if n < 1 or abs(n * k - end_time) > 1e-10:
        raise ValueError(f"timestep {k} must divide the end time {end_time}")
    return n


def run_manufactured(material, h, k, p, end_time=1.0, solver=None, a1=0.2, a2=0.2):
    """One manufactured-problem run; returns (final state, operators, exact)."""
    n = cube_cells(h)
    ops, con = unit_cube_problem(material, n, p)
    exact = ManufacturedSolution(material, a1, a2)
    grid = TimeGrid.uniform(0.0, end_time, step_count(k, end_time))
    res = simulate(ops, con, grid, loads=exact.loads(), solver=solver)
    return res.final, ops, exact


@dataclass
class SweepRow:
    h: float
    k: float
    p: int
    energy_error: float = np.nan
    l2_error: float = np.nan
    wall_seconds: float = np.nan
    failure: str = None


@dataclass
class ConvergenceTable:
    """Sweep results plus pairwise observed rates.

    Rates are computed from consecutive rows by log2 error ratios over
    log2 refinement ratios; a pair is flagged saturated when the error no
    longer decreases meaningfully (another error source dominates or the
    solver floor is reached).
    """

    rows: list = field(default_factory=list)

    def ok_rows(self):
        return [r for r in self.rows if r.failure is None]

    def rates(self, axis, column="energy_error"):
        """Observed order between consecutive refinements of ``axis``,
        holding the other sweep parameters fixed.

        Returns a list of (rate, saturated) per consecutive refinement
        pair; a pair is saturated when its error no longer decreases
        meaningfully (some other error source or the solver floor
        dominates).
        """
        other = [c for c in ("h", "k", "p") if c != axis]
        groups = {}
        for r in self.ok_rows():
            groups.setdefault(tuple(getattr(r, c) for c in other), []).append(r)
        out = []
        for key in sorted(groups):
            rows = sorted(groups[key], key=lambda r: -getattr(r, axis))
            for a, b in zip(rows, rows[1:]):
                ha, hb = getattr(a, axis), getattr(b, axis)
                ea, eb = getattr(a, column), getattr(b, column)
                saturated = eb < 1e-13 or eb > 0.8 * ea
                rate = np.log2(ea / eb) / np.log2(ha / hb) if eb > 0 else np.inf
                out.append((float(rate), bool(saturated)))
        return out

    def lsq_rate(self, axis, column="energy_error"):
        """Least-squares slope of log error vs log axis over all
        successful rows; the numerical analogue of reading a straight
        line off a log-log convergence plot."""
        rows = self.ok_rows()
        x = np.log([getattr(r, axis) for r in rows])
        y = np.log([getattr(r, column) for r in rows])
        return float(np.polyfit(x, y, 1)[0])

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("h,k,p,energy_error,l2_error,wall_seconds\n")
            for r in self.rows:
                fh.write(
                    f"{float(r.h)!r},{float(r.k)!r},{int(r.p)!r},"
                    f"{float(r.energy_error)!r},{float(r.l2_error)!r},"
                    f"{float(r.wall_seconds)!r}\n"
                )


def _discrete_error(state, reference, operators):
    """Discrete energy-norm and L2 distance between two states on the
    same space (used for reference-solution temporal studies)."""
    du1 = state.u1 - reference.u1
    du0 = state.u0 - reference.u0
    total = float(du1 @ (operators.mass @ du1))
    total += float(du0 @ (operators.elastic @ du0))
    for arm, a, b in zip(operators.material.arms, state.uve, reference.uve):
        d = a - b
        total += arm.kappa * float(d @ (operators.deviatoric @ d))
    l2 = float(du0 @ (operators.mass @ du0)) / operators.material.rho
    return np.sqrt(total), np.sqrt(l2)


def _sweep_row(material, case, end_time, solver, reference=None):
    """One sweep row, measured against the exact solution or, when given,
    a reference State on the same space."""
    h, k, p = case
    row = SweepRow(h=h, k=k, p=int(p))
    tic = time.perf_counter()
    try:
        final, ops, exact = run_manufactured(material, h, k, p, end_time, solver)
        if reference is None:
            row.energy_error, row.l2_error = error_norms(final, exact, ops)
        else:
            row.energy_error, row.l2_error = _discrete_error(final, reference, ops)
    except Exception as exc:  # record the failure, keep sweeping
        row.failure = str(exc)
    row.wall_seconds = time.perf_counter() - tic
    return row


def _reference_state(material, h, k, p, end_time, solver):
    return run_manufactured(material, h, k, p, end_time, solver)[0]


def _starmap(fn, jobs, threads):
    """fn(*job) for every job, in order; over a process pool of
    ``threads`` workers when threads > 1."""
    if threads > 1:
        import multiprocessing

        with multiprocessing.get_context("spawn").Pool(threads) as pool:
            return pool.starmap(fn, jobs)
    return [fn(*job) for job in jobs]


def convergence_study(material, cases, end_time=1.0, solver=None,
                      reference="exact", refine_reference=4, threads=1):
    """Run the manufactured problem over (h, k, p) cases and tabulate
    end-time errors.

    reference='exact' measures against the closed-form solution;
    reference='fine_k' measures against a same-mesh run with the
    smallest case timestep divided by ``refine_reference``, isolating the
    time-integration error. Solver failures are recorded per row and do
    not abort the sweep; a failing reference run does. With threads > 1
    the reference runs, then the rows, are dispatched to a process pool;
    row order, and therefore output, is unchanged.
    """
    if reference not in ("exact", "fine_k"):
        raise ValueError(f"unknown reference {reference!r}")
    refs = {}
    if reference == "fine_k":
        k_ref = min(c[1] for c in cases) / refine_reference
        keys = list(dict.fromkeys((h, p) for h, _, p in cases))
        states = _starmap(
            _reference_state,
            [(material, h, k_ref, p, end_time, solver) for h, p in keys],
            threads,
        )
        refs = dict(zip(keys, states))
    jobs = [(material, c, end_time, solver, refs.get((c[0], c[2]))) for c in cases]
    return ConvergenceTable(rows=_starmap(_sweep_row, jobs, threads))


# -- conservation experiment ----------------------------------------------


@dataclass
class ConserveConfig:
    """Held-then-released cube: bottom clamped, a strip of the lid held at
    a prescribed displacement, released at ``release_time``."""

    n: int = 5
    p: int = 2
    k: float = 0.01
    end_time: float = 0.5
    release_time: float = 0.1
    hold_span: float = 0.4  # lid strip x <= hold_span is held
    displacement: tuple = (0.0, 0.0, 0.2)
    material: MaterialModel = None
    solver: LinearSolver = None

    def __post_init__(self):
        if not (self.k > 0 and 0 < self.release_time < self.end_time):
            raise ValueError("need k > 0 and 0 < release time < end time")
        for name, span in (("release time", self.release_time),
                           ("end time", self.end_time - self.release_time)):
            if abs(round(span / self.k) * self.k - span) > 1e-10:
                raise ValueError(f"{name} must be a time node")

    def resolved_material(self):
        if self.material is not None:
            return self.material
        return MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=((1e5, 1e-2),))


@dataclass
class ConservationResult:
    times: np.ndarray
    ledger: list
    release_index: int
    final: State

    def to_csv(self, path):
        write_ledger_csv(self.ledger, path)


def write_ledger_csv(ledger, path):
    """The energy ledger, one EnergyReport per row, as CSV."""
    with open(path, "w") as fh:
        fh.write("t,kinetic,elastic,viscoelastic_total,dissipated,total\n")
        for rec in ledger:
            fh.write(
                f"{float(rec.t)!r},{float(rec.kinetic)!r},{float(rec.elastic)!r},"
                f"{float(rec.viscoelastic_total)!r},{float(rec.dissipated)!r},"
                f"{float(rec.total)!r}\n"
            )


def conservation_experiment(config: ConserveConfig = None) -> ConservationResult:
    """Static hold, dynamic hold phase, release, free vibration.

    Emits the energy ledger per time node; after release the ledger total
    plus accumulated dissipation stays at the initial elastic energy to
    solver accuracy, independently of the timestep.
    """
    cfg = config or ConserveConfig()
    material = cfg.resolved_material()
    tol = 1e-10

    def tagger(centroid, normal):
        if abs(centroid[2]) < tol:
            return BoundaryTag(BoundaryKind.DIRICHLET, "bottom")
        if abs(centroid[2] - 1.0) < tol and centroid[0] <= cfg.hold_span + tol:
            return BoundaryTag(BoundaryKind.DIRICHLET, "held")
        return BoundaryTag(BoundaryKind.NEUMANN, "free")

    mesh = build_box_mesh(cfg.n, tagger=tagger)
    space = FeSpace(mesh, cfg.p)
    ops = OperatorSet(space, material)
    solver = cfg.solver or LinearSolver()
    zero = DirichletBC((0.0, 0.0, 0.0))
    held = Constraints(
        space, {"bottom": zero, "held": DirichletBC(tuple(cfg.displacement))}
    )
    released = Constraints(space, {"bottom": zero})

    u0 = static_solve(ops, held, solver=solver)
    state0 = State(0.0, np.zeros(space.n_dofs), u0,
                   tuple(np.zeros(space.n_dofs) for _ in material.arms))

    n_hold = int(round(cfg.release_time / cfg.k))
    n_free = int(round((cfg.end_time - cfg.release_time) / cfg.k))
    ledger = []
    res_a = simulate(
        ops, held, TimeGrid.uniform(0.0, cfg.release_time, n_hold),
        state0=state0, solver=solver,
    )
    ledger.extend(res_a.ledger)
    offset = res_a.ledger[-1].dissipated
    res_b = simulate(
        ops, released,
        TimeGrid.uniform(cfg.release_time, cfg.end_time, n_free),
        state0=res_a.final, solver=solver,
    )
    for rec in res_b.ledger[1:]:
        ledger.append(replace(rec, dissipated=rec.dissipated + offset))
    times = np.array([rec.t for rec in ledger])
    return ConservationResult(times, ledger, n_hold, res_b.final)
