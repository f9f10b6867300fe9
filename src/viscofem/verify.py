"""Verification harness: manufactured solution, error norms, convergence
sweeps, and the free-vibration conservation experiment.

The manufactured velocity field is a separable product of trigonometric
factors scaled by a(t) = exp(1-t)*(a1*t + a2*t^2); displacement and the
per-arm internal fields follow by closed-form time integration, and the
body force / boundary traction are reverse-engineered from the strong
equations. The field vanishes on z=0, compatible with a homogeneous
Dirichlet bottom on the unit cube.

The shape V and its derivatives are products of one sine factor per axis,
and only 18 distinct factors exist (two per axis, each of orders 0, 1
and 2). A ``ManufacturedSolution`` keeps one table of them for the last
batch of points it was asked about, so the fields evaluated on one batch
(the three body-force fields of a chunk, the two traction fields, the
shape and gradient of an error-norm chunk) evaluate each factor once.

Error norms integrate the pointwise exact solution (not its interpolant)
with quadrature of exactness 2p+2.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import (
    LoadSpec,
    _evaluate_field,
    load_degree,
    stress_from_gradients,
    volume_data,
)
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


class _PointTable:
    """The factors of the shape V on one batch of points x (n, 3), each
    distinct (axis, w, phase, order) evaluated once by ``_factor``, and
    the shape's divergences (L_E[V], L_D[V]) once formed."""

    def __init__(self, x):
        self.x = x.copy()
        self._factors = {}
        self.divergences = None

    def factor(self, a, axis, order):
        """``_factor(a, axis, x[:, axis], order)``."""
        key = (axis, *_SHAPE_FACTORS[a][axis], order)
        if key not in self._factors:
            self._factors[key] = _factor(a, axis, self.x[:, axis], order)
        return self._factors[key]

    def derivative(self, a, orders):
        """The derivative of V_a of order orders[ax] along each axis ax."""
        fs = [self.factor(a, ax, order) for ax, order in enumerate(orders)]
        return _SHAPE_COEF[a] * fs[0] * fs[1] * fs[2]


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
    unit cube; ``loads`` gives its derived body force and Neumann
    traction in time-separable form."""

    def __init__(self, material: MaterialModel, a1=0.2, a2=0.2):
        self.material = material
        self.a1 = float(a1)
        self.a2 = float(a2)
        self._table = None  # the _PointTable of the last batch of points

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

    def _points(self, x):
        """The _PointTable of the points x, kept for the last batch asked
        for, so the fields evaluated on one batch (the body forces of one
        chunk, the error norms of one chunk, the tractions) share its
        factors."""
        x = np.atleast_2d(x)
        if self._table is None or not np.array_equal(self._table.x, x):
            self._table = _PointTable(x)
        return self._table

    def release_points(self):
        """Drop the _PointTable of the last batch: a pass over the mesh
        calls this when it ends, so the factors of its last chunk are not
        kept for the solution's life."""
        self._table = None

    def shape(self, x):
        table = self._points(x)
        out = np.empty((len(table.x), 3))
        for a in range(3):
            out[:, a] = _SHAPE_COEF[a] * (
                table.factor(a, 0, 0) * table.factor(a, 1, 0) * table.factor(a, 2, 0)
            )
        return out

    def shape_gradient(self, x):
        """G[n, a, i] = d V_a / d x_i."""
        table = self._points(x)
        out = np.empty((len(table.x), 3, 3))
        for a in range(3):
            for i in range(3):
                out[:, a, i] = table.derivative(a, [int(ax == i) for ax in range(3)])
        return out

    # -- exact fields -----------------------------------------------------

    def velocity(self, t, x):
        return self.time_factor(t) * self.shape(x)

    def displacement(self, t, x):
        return self.displacement_factor(t) * self.shape(x)

    def ve_field(self, m, t, x):
        return self.arm_factor(m, t) * self.shape(x)

    def _shape_divergences(self, x):
        """(L_E[V], L_D[V]): row-wise divergences of the elastic stress
        and of dev eps of the shape V, analytically, as read-only arrays
        kept in the points' table. Only the second derivatives that
        lap V and grad div V sum are formed, each added in i order."""
        table = self._points(x)
        if table.divergences is None:
            def hess(a, i, j):  # d^2 V_a / d x_i d x_j
                return table.derivative(a, [(ax == i) + (ax == j) for ax in range(3)])

            lap = np.empty((len(table.x), 3))
            graddiv = np.empty((len(table.x), 3))
            for a in range(3):
                lap[:, a] = hess(a, 0, 0) + hess(a, 1, 1) + hess(a, 2, 2)
                graddiv[:, a] = hess(0, a, 0) + hess(1, a, 1) + hess(2, a, 2)
            mat = self.material
            values = (mat.mu * lap + (mat.mu + mat.lam) * graddiv,
                      lap / 2.0 + graddiv / 6.0)
            for v in values:
                v.flags.writeable = False
            table.divergences = values
        return table.divergences

    def elastic_divergence(self, x):
        """L_E[V] = mu lap V + (mu + lam) grad div V."""
        return self._shape_divergences(x)[0]

    def deviatoric_divergence(self, x):
        """L_D[V] = div dev eps(V) = lap V / 2 + grad div V / 6."""
        return self._shape_divergences(x)[1]

    @staticmethod
    def _normal_component(sigma, x, normal):
        normal = np.broadcast_to(np.atleast_2d(normal), (len(np.atleast_2d(x)), 3))
        return np.einsum("nab,nb->na", sigma, normal)

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

            f = rho a'(t) V - A(t) L_E[V] - G(t) L_D[V],
            g = A(t) sigma_E[V] n + G(t) dev eps(V) n,

        with G(t) = sum_m kappa_m g_m(t), so three body and two traction
        terms for any arm count, and the G terms left out without arms.
        The spatial fields are methods, so their assembled vectors are kept
        in the space's ``tables`` across calls."""
        rho, arms = self.material.rho, self.material.arms
        body = [
            (lambda t: rho * self.time_factor_rate(t), self.shape),
            (lambda t: -self.displacement_factor(t), self.elastic_divergence),
        ]
        traction = [(self.displacement_factor, self.elastic_traction)]
        if arms:
            def arm_sum(t):
                return sum(arm.kappa * self.arm_factor(m, t) for m, arm in enumerate(arms))

            body.append((lambda t: -arm_sum(t), self.deviatoric_divergence))
            traction.append((arm_sum, self.deviatoric_traction))
        return LoadSpec(body_terms=tuple(body), traction_terms=tuple(traction))


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


def error_norms(state: State, exact: ManufacturedSolution, operators: OperatorSet):
    """End-time energy-norm and displacement L2 errors vs the exact fields.

    Uses the loads' quadrature, of exactness 2p+2 (``load_degree``),
    evaluating the exact solution pointwise at the quadrature points, one
    chunk of elements at a time.
    """
    space = operators.space
    mat = operators.material
    vd = volume_data(space, load_degree(space))
    t = state.t
    # per-term sums over the chunks; the arms' viscoelastic terms apart, in
    # arm order, so one chunk sums as the whole-mesh formula does
    kin = ela = l2 = 0.0
    ve = np.zeros(len(mat.arms))
    for chunk in vd.chunks():
        wdet = vd.weights(chunk)
        points = vd.points(chunk)
        pts = points.reshape(-1, 3)

        # the exact fields all scale the shape V and its gradient, which are
        # evaluated once per chunk
        shape = exact.shape(pts).reshape(points.shape)
        dv = exact.time_factor(t) * shape - vd.value(state.u1, chunk)
        kin += mat.rho * np.sum(wdet * np.einsum("eqa,eqa->eq", dv, dv))

        grad_exact = exact.shape_gradient(pts).reshape(points.shape[:2] + (3, 3))
        basis = vd.basis_gradients(chunk)

        def gradient(u):
            return _evaluate_field(basis, vd.cell_values(u, chunk))

        dg0 = exact.displacement_factor(t) * grad_exact - gradient(state.u0)
        eps = 0.5 * (dg0 + np.swapaxes(dg0, -1, -2))
        div = np.einsum("eqaa->eq", dg0)
        ela += np.sum(
            wdet
            * (2.0 * mat.mu * np.einsum("eqab,eqab->eq", eps, eps) + mat.lam * div * div)
        )

        for m, arm in enumerate(mat.arms):
            dgm = exact.arm_factor(m, t) * grad_exact - gradient(state.uve[m])
            epsm = 0.5 * (dgm + np.swapaxes(dgm, -1, -2))
            divm = np.einsum("eqaa->eq", dgm)
            ve[m] += arm.kappa * np.sum(
                wdet * (np.einsum("eqab,eqab->eq", epsm, epsm) - divm * divm / 3.0)
            )

        du0 = exact.displacement_factor(t) * shape - vd.value(state.u0, chunk)
        l2 += np.sum(wdet * np.einsum("eqa,eqa->eq", du0, du0))
    exact.release_points()
    return float(np.sqrt(kin + ela + sum(ve, 0.0))), float(np.sqrt(l2))


def _count(ratio, what):
    """round(ratio) as an int, a count of ``what``; a ValueError where the
    ratio overflowed to a non-finite float, which no int can hold."""
    if not np.isfinite(ratio):
        raise ValueError(f"the number of {what} overflows")
    return int(round(ratio))


def cube_cells(h):
    """Cells per axis of the unit cube at mesh size h; a ValueError unless
    h divides the cube."""
    n = _count(1.0 / h, f"cells per axis at mesh size {h}") if h > 0 else 0
    if n < 1 or abs(n * h - 1.0) > 1e-12:
        raise ValueError(f"mesh size {h} must divide the unit cube")
    return n


def step_count(k, end_time):
    """Steps of size k up to ``end_time``; a ValueError unless k divides
    it."""
    n = _count(end_time / k, f"steps of {k} up to {end_time}") if k > 0 else 0
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
    d = state.uve - reference.uve  # per arm, added in arm order
    total = sum(operators.material.kappa * np.vecdot(d, (operators.deviatoric @ d.T).T), total)
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


def convergence_study(material, cases, end_time=1.0, solver=None,
                      reference="exact", refine_reference=4):
    """Run the manufactured problem over (h, k, p) cases and tabulate
    end-time errors.

    reference='exact' measures against the closed-form solution;
    reference='fine_k' measures against a same-mesh run with the
    smallest case timestep divided by ``refine_reference``, isolating the
    time-integration error. Solver failures are recorded per row and do
    not abort the sweep; a failing reference run does.
    """
    if reference not in ("exact", "fine_k"):
        raise ValueError(f"unknown reference {reference!r}")
    refs = {}
    if reference == "fine_k":
        k_ref = min(c[1] for c in cases) / refine_reference
        for h, _, p in cases:
            if (h, p) not in refs:
                refs[h, p] = run_manufactured(
                    material, h, k_ref, p, end_time, solver
                )[0]
    return ConvergenceTable(rows=[
        _sweep_row(material, c, end_time, solver, refs.get((c[0], c[2])))
        for c in cases
    ])


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
            if abs(_count(span / self.k, f"steps in the {name}") * self.k - span) > 1e-10:
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
    state0 = replace(State.zero(space, material.n_arms), u0=u0)

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
