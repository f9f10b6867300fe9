"""Time integration: update formulas, oracles, and the energy ledger."""
import numpy as np
import pytest

from viscofem.dynamics import (
    LinearSolver,
    OperatorSet,
    ReducedStepper,
    SolverError,
    State,
    TimeGrid,
    dissipation_increment,
    energy,
    load_time_integral,
    reconstruct_ve,
    simulate,
)
from viscofem.assembly import LoadSpec
from viscofem.fespace import Constraints, DirichletBC, FeSpace
from viscofem.material import MaterialModel, MaxwellArm, step_coefficients
from viscofem.mesh import BoundaryKind, BoundaryTag, box_face_tagger, build_box_mesh
from oracles import FullStepper, PreparingSolver, apply_values, simulate_full

MATERIAL = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=((1e5, 1e-2),))
DIRECT = LinearSolver(method="direct")


def make_problem(n=2, p=1, material=MATERIAL):
    tagger = box_face_tagger(
        faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")}
    )
    mesh = build_box_mesh(n, tagger=tagger)
    space = FeSpace(mesh, p)
    ops = OperatorSet(space, material)
    con = Constraints(space, {"bottom": DirichletBC((0.0, 0.0, 0.0))})
    return ops, con


def admissible_random_state(ops, con, seed, amp=0.01):
    rng = np.random.default_rng(seed)
    n = ops.space.n_dofs
    fields = [apply_values(con, rng.standard_normal(n) * amp, 0.0) for _ in range(3)]
    return State(0.0, fields[0], fields[1], (fields[2],) * ops.material.n_arms)


THREE_ARMS = MaterialModel.from_engineering(
    100.0, 1e5, 0.3, arms=((1e5, 1e-2), (3e4, 0.3), (2e3, 5.0))
)


def distinct_arm_state(ops, con, seed, amp=0.01):
    """Admissible random state with a different internal field per arm."""
    rng = np.random.default_rng(seed)
    n = ops.space.n_dofs
    u1, u0, *uve = [apply_values(con, rng.standard_normal(n) * amp, 0.0)
                    for _ in range(2 + ops.material.n_arms)]
    return State(0.0, u1, u0, tuple(uve))


@pytest.mark.parametrize("p", [1, 2])
def test_schur_matrix_is_sparse_sum_of_operators(monkeypatch, p):
    ops, con = make_problem(n=2, p=p, material=THREE_ARMS)
    k = 0.01
    seen = []
    original = Constraints.reduce

    def recording(self, matrix):
        seen.append(matrix)
        return original(self, matrix)

    monkeypatch.setattr(Constraints, "reduce", recording)
    stepper = ReducedStepper(ops, con, k, solver=DIRECT)
    schur, = seen
    want = ops.mass + (k * k / 4.0) * ops.elastic
    for arm, a in zip(ops.material.arms, stepper.coeffs.alpha):
        want = want + (k / 2.0) * a * arm.kappa * ops.deviatoric
    assert np.array_equal(schur.indptr, want.indptr)
    assert np.array_equal(schur.indices, want.indices)
    assert np.abs(schur.data - want.data).max() <= 1e-14 * np.abs(want.data).max()


@pytest.mark.parametrize("p", [1, 2])
def test_reduced_rhs_matches_per_arm_formula(p):
    ops, con = make_problem(n=2, p=p, material=THREE_ARMS)
    k = 0.01
    stepper = ReducedStepper(ops, con, k, solver=DIRECT)
    state = distinct_arm_state(ops, con, 37)
    M, KE = ops.mass, ops.elastic
    want = M @ state.u1 - (k * k / 4.0) * (KE @ state.u1) - k * (KE @ state.u0)
    for arm, a, beta, uve in zip(ops.material.arms, stepper.coeffs.alpha,
                                 stepper.coeffs.beta, state.uve):
        K = arm.kappa * ops.deviatoric
        want -= (k / 2.0) * (a * (K @ state.u1) + (1.0 + beta) * (K @ uve))
    got = stepper.rhs(state)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n_arms", [1, 5])
def test_operator_set_assembles_kernels_once(monkeypatch, n_arms):
    import scipy.sparse as sp

    from viscofem import dynamics

    calls = [0]
    original = dynamics.assemble_strain_operators

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "assemble_strain_operators", counting)
    arms = tuple((1e5 / (m + 1), 10.0 ** (m - 2)) for m in range(n_arms))
    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=arms)
    ops, _ = make_problem(n=1, p=1, material=material)
    assert calls[0] == 1
    assert sum(sp.issparse(v) for v in vars(ops).values()) == 3


def test_state_stores_internal_fields_as_rows():
    # a tuple of rows, an (M, n) array and an empty tuple are all kept as
    # one (M, n) array; a row of another length than u1 raises
    u = np.arange(6.0)
    rows = (u + 1.0, u + 2.0)
    for uve, n_arms in ((rows, 2), (np.stack(rows), 2), ((), 0)):
        state = State(0.0, u, u, uve)
        assert isinstance(state.uve, np.ndarray) and state.uve.shape == (n_arms, 6)
    assert np.array_equal(State(0.0, u, u, rows).uve, np.stack(rows))
    assert State(0.0, u, u).uve.shape == (0, 6)
    for bad in ((u[:5],), (u, u[:5]), np.zeros((2, 7))):
        with pytest.raises(ValueError):
            State(0.0, u, u, bad)


def test_simulate_rejects_state0_of_another_arm_count():
    # the Schur matrix of a 2-arm material uses both arms, so a 1-arm state0
    # would march with one arm in the rhs, the recursion and the ledger
    material = MaterialModel.from_engineering(100.0, 1e5, 0.3,
                                              arms=((1e5, 1e-2), (3e4, 0.3)))
    ops, con = make_problem(n=1, p=1, material=material)
    grid = TimeGrid.uniform(0.0, 0.1, 2)
    for march in (simulate, simulate_full):
        with pytest.raises(ValueError, match="internal fields"):
            march(ops, con, grid, state0=State.zero(ops.space, 1), solver=DIRECT)
    assert simulate(ops, con, grid, state0=State.zero(ops.space, 2),
                    solver=DIRECT).final.uve.shape == (2, ops.space.n_dofs)


def test_simulate_rejects_state0_off_the_grid_start():
    # a state at t = 0.5 on a grid from 0 would take its first step's
    # prescribed values at 0.5 but its length from the grid
    ops, con = _moving_bottom_problem()
    grid = TimeGrid.uniform(0.0, 0.2, 20)
    for march in (simulate, simulate_full):
        with pytest.raises(ValueError, match="grid starts"):
            march(ops, con, grid, state0=State.zero(ops.space, ops.material.n_arms, 0.5),
                  solver=DIRECT)


def test_zero_state_stays_zero():
    ops, con = make_problem()
    state = State.zero(ops.space, 1)
    for _ in range(3):
        state = ReducedStepper(ops, con, 0.05, solver=DIRECT).step(state)
    assert np.abs(state.u1).max() == 0.0
    assert np.abs(state.u0).max() == 0.0


def test_reconstruct_geometric_decay():
    coeffs = step_coefficients((MaxwellArm(1.0, 0.2),), 0.1)
    z = np.zeros(3)
    uve = (np.array([1.0, -2.0, 3.0]),)
    for _ in range(5):
        uve = reconstruct_ve(z, z, uve, coeffs)
    assert np.allclose(uve[0], coeffs.beta[0] ** 5 * np.array([1.0, -2.0, 3.0]))


def test_reconstruct_memory_discard_at_k_2tau():
    tau = 0.2
    coeffs = step_coefficients((MaxwellArm(1.0, tau),), 2 * tau)
    assert abs(coeffs.beta[0]) < 1e-15
    u_prev = np.array([1.0, 2.0, 3.0])
    u_next = np.array([-1.0, 0.0, 1.0])
    uve = reconstruct_ve(u_prev, u_next, (np.array([9.0, 9.0, 9.0]),), coeffs)
    assert np.allclose(uve[0], coeffs.alpha[0] * (u_prev + u_next))


def test_reconstruct_constant_velocity_geometric_sum():
    tau, k, c = 0.3, 0.05, 2.0
    coeffs = step_coefficients((MaxwellArm(1.0, tau),), k)
    alpha, beta = coeffs.alpha[0], coeffs.beta[0]
    vel = np.array([c])
    uve = (np.zeros(1),)
    for n in range(1, 41):
        uve = reconstruct_ve(vel, vel, uve, coeffs)
        expect = 2 * alpha * c * (1 - beta**n) / (1 - beta)
        assert abs(uve[0][0] - expect) < 1e-13 * abs(expect)
        assert abs(expect - tau * c * (1 - beta**n)) < 1e-13
    # steady state approaches tau * c
    assert abs(uve[0][0] - tau * c) < tau * c * beta**35


def test_step_full_against_dense_block_solve():
    ops, con = make_problem(n=1, p=1)
    k = 0.07
    arm = MATERIAL.arms[0]
    state = admissible_random_state(ops, con, 21)
    nxt = FullStepper(ops, con, k).step(state)

    n = ops.space.n_dofs
    M = ops.mass.toarray()
    KE = ops.elastic.toarray()
    KV = arm.kappa * ops.deviatoric.toarray()
    big = np.block([
        [M, (k / 2) * KE, (k / 2) * KV],
        [-(k / 2) * KE, KE, np.zeros((n, n))],
        [-(k / 2) * KV, np.zeros((n, n)), (1 + k / (2 * arm.tau)) * KV],
    ])
    rhs = np.concatenate([
        M @ state.u1 - (k / 2) * KE @ state.u0 - (k / 2) * KV @ state.uve[0],
        KE @ (state.u0 + (k / 2) * state.u1),
        KV @ ((k / 2) * state.u1 + (1 - k / (2 * arm.tau)) * state.uve[0]),
    ])
    free = np.concatenate([con.free + i * n for i in range(3)])
    x = np.zeros(3 * n)
    x[free] = np.linalg.solve(big[np.ix_(free, free)], rhs[free])
    for got, want in ((nxt.u1, x[:n]), (nxt.u0, x[n:2 * n]), (nxt.uve[0], x[2 * n:])):
        assert np.abs(got - want).max() < 1e-9 * max(np.abs(want).max(), 1e-12)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("n_arms", [0, 1, 5])
def test_reduced_full_equivalence(p, n_arms):
    arms = tuple((1e5 / (m + 1), 10.0 ** (m - 2)) for m in range(n_arms))
    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=arms)
    ops, con = make_problem(n=2, p=p, material=material)

    # f = F0(x) + t F1(x) = (sin(3x)(1 + t), y^2 - 2tz, cos(xy) t)
    def constant_part(x):
        return np.stack(
            [np.sin(3 * x[:, 0]), x[:, 1] ** 2, np.zeros(len(x))], axis=1
        )

    def linear_part(x):
        return np.stack(
            [np.sin(3 * x[:, 0]), -2 * x[:, 2], np.cos(x[:, 0] * x[:, 1])], axis=1
        )

    loads = LoadSpec(body_terms=((lambda t: 1.0, constant_part),
                                 (lambda t: t, linear_part)))
    red = ReducedStepper(ops, con, 0.05, loads=loads, solver=DIRECT)
    ful = FullStepper(ops, con, 0.05, loads=loads)
    sr = sf = State.zero(ops.space, n_arms)
    for _ in range(4):
        sr, sf = red.step(sr), ful.step(sf)
    for a, b in [(sr.u1, sf.u1), (sr.u0, sf.u0), *zip(sr.uve, sf.uve)]:
        scale = max(np.abs(b).max(), 1e-30)
        assert np.abs(a - b).max() < 1e-10 * scale


def test_conservation_ledger_free_vibration():
    ops, con = make_problem(n=2, p=2)
    state = admissible_random_state(ops, con, 3)
    res = simulate(
        ops, con, TimeGrid.uniform(0.0, 0.5, 60), state0=state, solver=DIRECT
    )
    first = res.ledger[0]
    total0 = first.total + first.dissipated
    for rec in res.ledger:
        assert abs(rec.total + rec.dissipated - total0) < 1e-12 * total0
    # monotone decay of the energy norm itself
    totals = [rec.total for rec in res.ledger]
    assert all(b <= a + 1e-12 * total0 for a, b in zip(totals, totals[1:]))
    assert res.ledger[-1].dissipated > 0


def test_elastic_limit_exact_conservation():
    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=())
    ops, con = make_problem(n=2, p=1, material=material)
    state = admissible_random_state(ops, con, 5)
    res = simulate(
        ops, con, TimeGrid.uniform(0.0, 0.5, 40), state0=state, solver=DIRECT
    )
    total0 = res.ledger[0].total
    for rec in res.ledger:
        assert abs(rec.total - total0) < 1e-12 * total0
        assert rec.dissipated == 0.0


def _constant(c):
    return lambda x: np.broadcast_to(c, (len(x), 3))


def _normal(x, n):
    return n


def test_load_time_integral_constant_and_linear():
    ops, con = make_problem(n=1, p=1)
    space = ops.space
    c = np.array([1.0, -2.0, 0.5])
    loads = LoadSpec(body_terms=((lambda t: 1.0, _constant(c)),))
    k = 0.3
    vec = load_time_integral(loads, space, 0.2, 0.2 + k)
    from viscofem.assembly import load_vectors

    (single,), _ = load_vectors(space, loads)
    assert np.abs(vec - k * single).max() < 1e-12 * np.abs(single).max()

    # traction linear in time: trapezoid is exact
    tr = LoadSpec(traction_terms=((lambda t: 1.0 + 2.0 * t, _normal),))
    vec2 = load_time_integral(tr, space, 0.0, k)
    mid_val = 1.0 + 2.0 * (k / 2)
    _, (unit,) = load_vectors(space, tr)
    ref = mid_val * unit
    assert np.abs(vec2 - k * ref).max() < 1e-12 * np.abs(k * ref).max()


def test_load_time_integral_quadratic_gauss_exact():
    ops, con = make_problem(n=1, p=1)
    space = ops.space
    unit = _constant(np.array([1.0, 0.0, 0.0]))
    loads = LoadSpec(body_terms=((lambda t: 3 * t * t - t + 2, unit),))
    t0, t1 = 0.4, 0.9
    vec = load_time_integral(loads, space, t0, t1)
    # integral of (3t^2 - t + 2) over [t0, t1], computed symbolically
    anti = lambda t: t**3 - t**2 / 2 + 2 * t
    from viscofem.assembly import load_vectors

    (base,), _ = load_vectors(space, loads)
    expect = (anti(t1) - anti(t0)) * base
    assert np.abs(vec - expect).max() < 1e-12 * np.abs(expect).max()


def test_energy_report_fields():
    ops, con = make_problem(n=1, p=1)
    zero = State.zero(ops.space, 1)
    rec = energy(zero, ops)
    assert rec.kinetic == rec.elastic == rec.viscoelastic_total == 0.0
    c = ops.space.interpolate(lambda x: np.array([1.0, 1.0, 0.0]) + 0 * x)
    vel_state = State(0.0, c, np.zeros_like(c), (np.zeros_like(c),))
    rec2 = energy(vel_state, ops)
    assert abs(rec2.kinetic - MATERIAL.rho * 2.0) < 1e-10
    assert rec2.elastic == 0.0 and rec2.viscoelastic_total == 0.0


def test_timestep_change_rebuilds_stepper():
    ops, con = make_problem(n=1, p=1)
    state = admissible_random_state(ops, con, 13)
    grid = TimeGrid(np.array([0.0, 0.1, 0.2, 0.25, 0.3]))
    res = simulate(ops, con, grid, state0=state, solver=DIRECT)
    total0 = res.ledger[0].total
    for rec in res.ledger:
        assert abs(rec.total + rec.dissipated - total0) < 1e-11 * total0


def test_cg_solver_matches_direct_and_reports_failure(monkeypatch):
    from viscofem import dynamics

    ops, con = make_problem(n=2, p=1)
    state = admissible_random_state(ops, con, 23)
    k = 0.02
    s_cg = ReducedStepper(
        ops, con, k, solver=LinearSolver(method="cg", rtol=1e-13)
    ).step(state)
    s_dir = ReducedStepper(ops, con, k, solver=DIRECT).step(state)
    assert np.abs(s_cg.u1 - s_dir.u1).max() < 1e-9 * max(np.abs(s_dir.u1).max(), 1e-30)
    monkeypatch.setattr(dynamics, "CG_ITERATION_FACTOR", 1e-9)
    starved = LinearSolver(method="cg", rtol=1e-16)
    with pytest.raises(SolverError, match="residual"):
        ReducedStepper(ops, con, k, solver=starved).step(state)


def test_reduced_full_equivalence_with_slip():
    # slip-constrained annulus: both steppers rotate dofs into the nodal
    # frame and must still produce identical states
    from viscofem.fespace import SlipBC
    from viscofem.mesh import build_annulus_mesh

    material = MaterialModel.from_engineering(1100.0, 0.5e6, 0.39,
                                              arms=((3.5e6, 1e-2),))
    mesh = build_annulus_mesh(0.006, 0.01, 0.02, (2, 8, 2))
    space = FeSpace(mesh, 1)
    ops = OperatorSet(space, material)
    u_n = lambda x, t: -6e-5 * (1.0 + 0.3 * np.sin(4.0 * t))
    con = Constraints(space, {"outer": DirichletBC((0.0, 0.0, 0.0)),
                              "inner": SlipBC(u_n)})
    from viscofem.dynamics import static_solve

    u0 = static_solve(ops, con, solver=DIRECT)
    s0 = State(0.0, np.zeros(space.n_dofs), u0, (np.zeros(space.n_dofs),))
    red = ReducedStepper(ops, con, 0.01, solver=DIRECT)
    ful = FullStepper(ops, con, 0.01)
    sr, sf = s0, s0
    for _ in range(4):
        sr, sf = red.step(sr), ful.step(sf)
    for a, b in [(sr.u1, sf.u1), (sr.u0, sf.u0), (sr.uve[0], sf.uve[0])]:
        scale = max(np.abs(b).max(), 1e-30)
        assert np.abs(a - b).max() < 1e-10 * scale


def test_dissipation_increment_matches_energy_loss():
    ops, con = make_problem(n=2, p=1)
    state = admissible_random_state(ops, con, 31)
    k = 0.01
    nxt = ReducedStepper(ops, con, k, solver=DIRECT).step(state)
    before = energy(state, ops).total
    after = energy(nxt, ops).total
    inc = dissipation_increment(state, nxt, ops, k)
    assert abs((before - after) - inc) < 1e-11 * before


@pytest.mark.parametrize("n_arms", [1, 5])
def test_simulate_step_makes_three_products(n_arms):
    # a reduced step forms M, K_E and D times the new velocity and carries the
    # new state's K_E u0 and D uve_m; the first step also forms K_E u1 and
    # D u1 of state0, whose ledger record formed M u1, K_E u0 and D uve_m
    # (one product with the (n, M) array uve.T counts as M)
    arms = tuple((1e5 / (m + 1), 10.0 ** (m - 2)) for m in range(n_arms))
    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=arms)
    ops, con = make_problem(n=1, p=1, material=material)
    counted = {}

    class Counting(type(ops.mass)):
        def __matmul__(self, other):
            if id(self) in counted:
                counted[id(self)] += 1 if np.ndim(other) == 1 else other.shape[1]
            return super().__matmul__(other)

    for name in ("mass", "elastic", "deviatoric"):
        matrix = Counting(getattr(ops, name))
        setattr(ops, name, matrix)
        counted[id(matrix)] = 0
    per_step = []
    state0 = distinct_arm_state(ops, con, 43)
    simulate(ops, con, TimeGrid.uniform(0.0, 0.04, 4), state0=state0,
             solver=DIRECT, callback=lambda s: per_step.append(sum(counted.values())))
    assert np.diff([2 + n_arms] + per_step).tolist() == [5, 3, 3, 3]


def test_full_march_takes_direct_products_of_every_state():
    # the full stepper carries nothing: the products its ledger reads are
    # the direct products of each state, bit for bit
    ops, con = make_problem(n=2, p=1, material=THREE_ARMS)
    seen = []

    def check(state):
        prod = ops.products(state)
        direct = (ops.mass @ state.u1, ops.elastic @ state.u1, ops.deviatoric @ state.u1,
                  ops.elastic @ state.u0, *(ops.deviatoric @ u for u in state.uve))
        assert all(np.array_equal(a, b)
                   for a, b in zip((*prod[:4], *prod.dev_uve), direct))
        seen.append(state)

    simulate_full(ops, con, TimeGrid.uniform(0.0, 0.05, 5), solver=DIRECT,
                  state0=distinct_arm_state(ops, con, 53), callback=check)
    assert len(seen) == 5


def test_carried_products_match_direct_over_long_slip_march():
    # ten 15 Hz orbit cycles of the seal scenario (material and slip motion)
    # on a small annulus, 400 steps: the products carried by linearity stay
    # the direct products to rounding
    from viscofem.cli import SealSweepConfig, seal_normal_value
    from viscofem.dynamics import static_solve
    from viscofem.fespace import SlipBC
    from viscofem.mesh import build_annulus_mesh

    material = MaterialModel.from_engineering(
        1100.0, 0.5e6, 0.39,
        arms=((3.5e6, 1e-2), (4.0e6, 1e-1), (2.5e5, 1.0), (2.5e5, 1e1), (5.0e5, 1e2)),
    )
    space = FeSpace(build_annulus_mesh(0.006, 0.01, 0.02, (2, 8, 2)), 2)
    ops = OperatorSet(space, material)
    sweep = SealSweepConfig(frequencies=(15.0,), stations=(0.5,))
    u_n = seal_normal_value(0.006, sweep.expansion, sweep.amplitude, 15.0)
    con = Constraints(space, {"outer": DirichletBC((0.0, 0.0, 0.0)),
                              "inner": SlipBC(u_n)})
    n = space.n_dofs
    state0 = State(0.0, np.zeros(n), static_solve(ops, con, solver=DIRECT),
                   tuple(np.zeros(n) for _ in material.arms))
    kept = []
    keep = ops.keep_products
    ops.keep_products = lambda state, products: kept.append(products) or keep(state, products)
    res = simulate(ops, con, TimeGrid.uniform(0.0, 400 / 600.0, 400), state0=state0,
                   solver=DIRECT)
    final = res.final
    carried = ops.products(final)
    assert carried is kept[-1] and len(kept) == 401
    direct = (ops.mass @ final.u1, ops.elastic @ final.u1, ops.deviatoric @ final.u1,
              ops.elastic @ final.u0, *(ops.deviatoric @ u for u in final.uve))
    for got, want in zip((*carried[:4], *carried.dev_uve), direct):
        assert np.abs(want).max() > 0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_ledger_columns_equal_direct_quadratic_forms():
    ops, con = make_problem(n=2, p=2, material=THREE_ARMS)
    M, KE, D = ops.mass, ops.elastic, ops.deviatoric
    arms = ops.material.arms
    k = 0.01
    state0 = distinct_arm_state(ops, con, 47)
    states = [state0]
    res = simulate(ops, con, TimeGrid.uniform(0.0, 5 * k, 5), state0=state0,
                   solver=DIRECT, callback=states.append)

    def close(got, want):
        assert abs(got - want) <= 1e-13 * abs(want)

    dissipated = 0.0
    for prev, state, rec in zip([None] + states[:-1], states, res.ledger):
        close(rec.kinetic, state.u1 @ (M @ state.u1))
        close(rec.elastic, state.u0 @ (KE @ state.u0))
        for arm, u, got in zip(arms, state.uve, rec.viscoelastic):
            close(got, arm.kappa * (u @ (D @ u)))
        if prev is not None:
            mids = [0.5 * (a + b) for a, b in zip(prev.uve, state.uve)]
            want = sum((2.0 * k / arm.tau) * arm.kappa * (mid @ (D @ mid))
                       for arm, mid in zip(arms, mids))
            close(dissipation_increment(prev, state, ops, k), want)
            dissipated += want
        close(rec.dissipated, dissipated)


def test_direct_factorization_failure_is_solver_error():
    import scipy.sparse as sp

    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        LinearSolver(method="direct").prepare(singular)
    with pytest.raises(SolverError):
        LinearSolver().solve(singular, np.ones(2))


def _spd(n):
    import scipy.sparse as sp

    return sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csr")


def test_auto_resolution_by_reuse(monkeypatch):
    # a reused factor is direct up to FACTOR_DOF_BOUND free dofs, a
    # one-shot solve up to ONE_SHOT_DOF_BOUND; both are CG above their bound
    import scipy.sparse.linalg as spla

    from viscofem import dynamics

    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return call

    for name in ("splu", "cg"):
        monkeypatch.setattr(spla, name, counted(name, getattr(spla, name)))
    monkeypatch.setattr(dynamics, "FACTOR_DOF_BOUND", 6)
    monkeypatch.setattr(dynamics, "ONE_SHOT_DOF_BOUND", 3)
    solver = LinearSolver()

    def path(run):
        calls.clear()
        run()
        return calls[0]

    assert path(lambda: solver.prepare(_spd(6))(np.ones(6))) == "splu"
    assert path(lambda: solver.prepare(_spd(7))(np.ones(7))) == "cg"
    assert path(lambda: solver.solve(_spd(3), np.ones(3))) == "splu"
    assert path(lambda: solver.solve(_spd(4), np.ones(4))) == "cg"
    assert path(lambda: LinearSolver("direct").prepare(_spd(7))) == "splu"
    assert path(lambda: LinearSolver("cg").prepare(_spd(2))(np.ones(2))) == "cg"


def _held_box_static_system(n=4, p=2):
    """The reduced static system of a box clamped at its bottom and held
    displaced on a strip of its lid, as the conserve scenario starts."""
    def tagger(centroid, normal):
        if abs(centroid[2]) < 1e-10:
            return BoundaryTag(BoundaryKind.DIRICHLET, "bottom")
        if abs(centroid[2] - 1.0) < 1e-10 and centroid[0] <= 0.4 + 1e-10:
            return BoundaryTag(BoundaryKind.DIRICHLET, "held")
        return BoundaryTag(BoundaryKind.NEUMANN, "free")

    space = FeSpace(build_box_mesh(n, tagger=tagger), p)
    ops = OperatorSet(space, MaterialModel.from_engineering(1100.0, 0.5e6, 0.39))
    con = Constraints(space, {"bottom": DirichletBC((0.0, 0.0, 0.0)),
                              "held": DirichletBC((0.004, -0.002, 0.2))})
    a_ff, a_fx = con.reduce(ops.elastic)
    return a_ff, con.reduced_rhs(np.zeros(space.n_dofs), a_fx, con.fixed_values(0.0))


def _ill_conditioned_spd(n=8, cond=1e10):
    import scipy.sparse as sp

    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    a = (q * np.logspace(0.0, -np.log10(cond), n)) @ q.T
    return sp.csr_matrix((a + a.T) / 2.0)


def _rounds_to_singular_in_float32():
    import scipy.sparse as sp

    # float32 rounds 1 - 1e-9 to 1
    return sp.csr_matrix(np.array([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]]))


def _record_splu(monkeypatch):
    """Patch ``spla.splu`` to record the dtype of each matrix it factorizes."""
    import scipy.sparse.linalg as spla

    dtypes = []
    original = spla.splu

    def recording(matrix, *args, **kwargs):
        dtypes.append(matrix.dtype)
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    return dtypes


def test_one_shot_direct_solve_refines_single_factor_to_double_accuracy(monkeypatch):
    # the float32 factor's solution, refined in float64, agrees with the
    # float64 factor's and meets LAPACK dsposv's residual bound
    import scipy.sparse.linalg as spla

    a, b = _held_box_static_system()
    want = DIRECT.prepare(a)(b)
    dtypes = _record_splu(monkeypatch)
    got = DIRECT.solve(a, b)
    assert dtypes == [np.float32]
    assert np.abs(want).max() > 0
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    bound = np.sqrt(a.shape[0]) * np.finfo(float).eps * spla.norm(a, np.inf)
    assert np.abs(b - a @ got).max() <= bound * np.abs(got).max()


@pytest.mark.parametrize("matrix, single_factors", [
    (1e40 * _spd(5), []),  # float32 cannot hold its entries: no single factor
    (_ill_conditioned_spd(), [np.float32]),  # its refinement does not converge
    (_rounds_to_singular_in_float32(), [np.float32]),  # its single factor fails
], ids=["overflows-float32", "ill-conditioned", "singular-in-float32"])
def test_one_shot_direct_solve_falls_back_to_double_factor(monkeypatch, matrix,
                                                          single_factors):
    b = np.random.default_rng(1).standard_normal(matrix.shape[0])
    want = DIRECT.prepare(matrix)(b)
    dtypes = _record_splu(monkeypatch)
    census = _census_at_factor(monkeypatch)
    got = DIRECT.solve(matrix, b)
    assert dtypes == single_factors + [np.float64]
    assert np.array_equal(got, want)
    # the float32 copy is released once factorized: none is alive through
    # the refinement's solves and the float64 factorization
    events = [(event, factored[3]) for event, factored, _ in census]
    assert events[-2:] == [("factor", np.float64), ("solve", np.float64)]
    for _, _, live in census[len(single_factors):]:
        assert [m for m in live if m[3] == np.float32] == []


def _census_at_factor(monkeypatch):
    """Patch ``dynamics._factor`` to take a census at each factorization and
    at each solve with its factor: (event, factored, live), the event
    ('factor' or 'solve'), the (id, shape, format, dtype) of the factorized
    matrix and those of every scipy.sparse matrix alive, after a full
    collection. Only these summaries are kept, so the census keeps no
    matrix alive."""
    import gc
    from types import SimpleNamespace

    import scipy.sparse as sp

    from viscofem import dynamics

    def summary(m):
        return id(m), m.shape, m.format, m.dtype

    def take(event, factored):
        gc.collect()
        calls.append((event, factored, [summary(m) for m in gc.get_objects()
                                        if sp.issparse(m)]))

    calls = []
    original = dynamics._factor

    def census(matrix):
        factored = summary(matrix)
        take("factor", factored)
        factor = original(matrix)

        def solve(b):
            take("solve", factored)
            return factor.solve(b)

        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(dynamics, "_factor", census)
    return calls


TWO_ARMS = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=((1e5, 1e-2), (3e4, 0.3)))


def _reduced_schur(ops, con, stepper):
    """The stepper's reduced Schur matrix as CSR, formed independently."""
    k = stepper.k
    schur = ((ops.mass + (k * k / 4.0) * ops.elastic).copy()
             + ((k / 2.0) * stepper._alpha_kappa) * ops.deviatoric)
    return con.reduce(schur)[0]


def _assert_same_arrays(got, want):
    assert got.format == want.format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_direct_stepper_factorizes_its_only_reduced_copy(monkeypatch):
    # while SuperLU runs, the Schur sum is freed and the reduced CSR has
    # given way to the CSC copy being factorized: that copy and the three
    # operators are the only matrices of their sizes alive
    ops, con = make_problem(n=3, p=2, material=TWO_ARMS)
    n_free, n = len(con.free), ops.space.n_dofs
    census = _census_at_factor(monkeypatch)
    solver = PreparingSolver("direct")
    stepper = ReducedStepper(ops, con, 0.01, solver=solver)
    [(_, factored, live)] = census
    [schur] = solver.prepared
    assert [m for m in live if m[1] == (n_free, n_free)] == [factored]
    assert factored[0] == id(schur) and factored[2] == "csc"
    assert sorted(m[0] for m in live if m[1] == (n, n)) == sorted(
        map(id, (ops.mass, ops.elastic, ops.deviatoric)))
    # the factor sees the CSC of the reduced Schur matrix
    _assert_same_arrays(schur, _reduced_schur(ops, con, stepper).tocsc())


def test_cg_stepper_keeps_the_reduced_csr(monkeypatch):
    # CG multiplies by the reduced CSR, so its iterates are those of the
    # independently formed matrix bit for bit
    import scipy.sparse.linalg as spla

    ops, con = make_problem(n=3, p=2, material=TWO_ARMS)
    solver = PreparingSolver("cg", rtol=1e-10)
    stepper = ReducedStepper(ops, con, 0.01, solver=solver)
    [schur] = solver.prepared
    want = _reduced_schur(ops, con, stepper)
    _assert_same_arrays(schur, want)
    calls = []
    original = spla.cg

    def recording(matrix, b, **kwargs):
        iterates = []
        calls.append((matrix, b, iterates))
        return original(matrix, b, callback=lambda x: iterates.append(x.copy()), **kwargs)

    monkeypatch.setattr(spla, "cg", recording)
    stepper.step(admissible_random_state(ops, con, 5))
    solver.prepare(want)(calls[0][1])
    (got_matrix, _, got), (_, _, expected) = calls
    assert got_matrix is schur
    assert len(got) == len(expected) > 1
    assert all(np.array_equal(x, y) for x, y in zip(got, expected))


def test_built_stepper_holds_no_reduced_schur_matrix_unless_cg():
    # the factor keeps no reference to the CSC it was made from, so once a
    # direct stepper is built no n_free x n_free matrix is alive: a march
    # holds M, K_E, D, the coupling block and the factor. A CG stepper
    # keeps the reduced CSR it multiplies by, and nothing more
    import gc

    import scipy.sparse as sp

    ops, con = make_problem(n=3, p=2, material=TWO_ARMS)
    n_free = len(con.free)

    def reduced_alive():
        gc.collect()
        return [m for m in gc.get_objects() if sp.issparse(m) and m.shape[0] == n_free]

    direct = ReducedStepper(ops, con, 0.01, solver=DIRECT)
    [coupling] = reduced_alive()
    assert coupling is direct.coupling and coupling.shape == (n_free, len(con.fixed))
    cg = ReducedStepper(ops, con, 0.01, solver=LinearSolver("cg"))
    held = [m for m in reduced_alive() if m.shape == (n_free, n_free)]
    assert len(held) == 1
    _assert_same_arrays(held[0], _reduced_schur(ops, con, cg))


def test_static_solve_factorizes_beside_one_double_reduced_copy(monkeypatch):
    # the one-shot solve factorizes a float32 CSC made straight from the
    # reduced CSR, whose products give the refinement's residuals: no
    # float64 CSC of the reduced matrix is alive at the factorization
    from viscofem.dynamics import static_solve

    ops, con = make_problem(n=3, p=2, material=TWO_ARMS)
    n_free = len(con.free)
    census = _census_at_factor(monkeypatch)
    static_solve(ops, con, solver=DIRECT)
    (_, factored, live) = census[0]
    assert factored[1:] == ((n_free, n_free), "csc", np.float32)
    reduced = sorted((m[2], str(m[3])) for m in live if m[1] == (n_free, n_free))
    assert reduced == [("csc", "float32"), ("csr", "float64")]


def test_symmetric_factor_agrees_with_colamd():
    import scipy.sparse.linalg as spla

    ops, con = make_problem(n=3, p=2)
    solver = PreparingSolver("direct")
    ReducedStepper(ops, con, 0.01, solver=solver)
    [a] = solver.prepared
    b = np.random.default_rng(4).standard_normal(a.shape[0])
    want = spla.splu(a.tocsc(), permc_spec="COLAMD").solve(b)
    got = DIRECT.prepare(a)(b)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _count_builds(monkeypatch, cls):
    """Patch ``cls.__init__`` to count constructions; returns the counter."""
    builds = [0]
    original = cls.__init__

    def counting(self, *args, **kwargs):
        builds[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return builds


@pytest.mark.parametrize("t_start, t_end, n_steps", [(0.0, 1.0, 8), (0.0, 1.0, 300),
                                                      (0.1, 0.5, 80)])
def test_uniform_grid_builds_one_stepper(monkeypatch, t_start, t_end, n_steps):
    ops, con = make_problem(n=1, p=1)
    grid = TimeGrid.uniform(t_start, t_end, n_steps)
    steps = np.diff(grid.nodes)
    if n_steps >= 80:
        # the rounding jitter of the linspace steps exceeds 1e-14 relative
        assert np.ptp(steps) > 1e-14 * steps.max()
    builds = _count_builds(monkeypatch, ReducedStepper)
    state = admissible_random_state(ops, con, 17)
    state = State(t_start, state.u1, state.u0, state.uve)
    states = [state]
    res = simulate(ops, con, grid, state0=state, solver=DIRECT, callback=states.append)
    assert builds[0] == 1
    assert np.array_equal([rec.t for rec in res.ledger], grid.nodes)
    assert np.array_equal([s.t for s in states], grid.nodes)
    total0 = res.ledger[0].total
    for rec in res.ledger:
        assert abs(rec.total + rec.dissipated - total0) < 1e-11 * total0


def test_conservation_experiment_builds_one_stepper_per_phase(monkeypatch):
    from viscofem.verify import ConserveConfig, conservation_experiment

    builds = _count_builds(monkeypatch, ReducedStepper)
    cfg = ConserveConfig(n=2, p=1, k=0.005, solver=DIRECT)
    result = conservation_experiment(cfg)
    assert builds[0] == 2
    hold = TimeGrid.uniform(0.0, cfg.release_time, 20).nodes
    free = TimeGrid.uniform(cfg.release_time, cfg.end_time, 80).nodes
    assert np.array_equal(result.times, np.concatenate([hold, free[1:]]))


def test_non_uniform_grid_builds_one_stepper_per_step_size(monkeypatch):
    ops, con = make_problem(n=1, p=1)
    # three runs of equal steps, each with linspace rounding jitter
    nodes = np.concatenate([
        np.linspace(0.0, 0.2, 41),
        np.linspace(0.2, 0.3, 201)[1:],
        np.linspace(0.3, 0.5, 81)[1:],
    ])
    grid = TimeGrid(nodes)
    builds = _count_builds(monkeypatch, ReducedStepper)
    state = admissible_random_state(ops, con, 19)
    res = simulate(ops, con, grid, state0=state, solver=DIRECT)
    assert builds[0] == 3
    assert np.array_equal([rec.t for rec in res.ledger], grid.nodes)
    total0 = res.ledger[0].total
    for rec in res.ledger:
        assert abs(rec.total + rec.dissipated - total0) < 1e-11 * total0


def _moving_bottom_problem(n=2, p=1, material=MATERIAL):
    """Box with a time-dependent Dirichlet displacement on its bottom."""
    tagger = box_face_tagger(
        faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")}
    )
    space = FeSpace(build_box_mesh(n, tagger=tagger), p)
    ops = OperatorSet(space, material)
    shake = DirichletBC(
        lambda x, t: np.outer(np.sin(7.0 * t) * (1.0 + x[:, 0]), [1e-3, -2e-3, 5e-4])
    )
    return ops, Constraints(space, {"bottom": shake})


def _count_evaluations(bc):
    """The times at which a Dirichlet or slip BC's value is evaluated from
    now on, as a list that grows with each evaluation."""
    times = []
    value = bc.value

    def counted(x, t):
        times.append(t)
        return value(x, t)

    bc.value = counted
    return times


def test_static_solve_then_march_evaluates_moving_slip_once_per_time():
    # the static pre-solve's values at t = 0 serve the first step's start,
    # as in the seal: n + 1 evaluations for n steps
    from viscofem.dynamics import static_solve
    from viscofem.fespace import SlipBC
    from viscofem.mesh import build_annulus_mesh

    space = FeSpace(build_annulus_mesh(0.006, 0.01, 0.02, (1, 6, 2)), 1)
    ops = OperatorSet(space, MATERIAL)
    slip = SlipBC(lambda x, t: -6e-5 * (1.0 + 0.3 * np.sin(40.0 * t)) * x[:, 2])
    con = Constraints(space, {"outer": DirichletBC(), "inner": slip})
    evaluations = _count_evaluations(slip)
    u0 = static_solve(ops, con, solver=DIRECT, t=0.0)
    grid = TimeGrid.uniform(0.0, 0.05, 5)
    state0 = State(0.0, np.zeros(space.n_dofs), u0, (np.zeros(space.n_dofs),))
    res = simulate(ops, con, grid, state0=state0, solver=DIRECT)
    assert np.abs(res.final.u0).max() > 0
    assert evaluations == list(grid.nodes)


def test_reduced_full_simulate_agree_on_jittered_grid(monkeypatch):
    ops, con = _moving_bottom_problem()
    # f = cos(3t + y) a = cos(3t) cos(y) a - sin(3t) sin(y) a and
    # g = (1 + sin 2t) n
    a_vec = np.array([1.0, 0.5, -1.0])
    loads = LoadSpec(
        body_terms=(
            (lambda t: np.cos(3 * t), lambda x: np.outer(np.cos(x[:, 1]), a_vec)),
            (lambda t: -np.sin(3 * t), lambda x: np.outer(np.sin(x[:, 1]), a_vec)),
        ),
        traction_terms=((lambda t: 1.0 + np.sin(2.0 * t), _normal),),
    )
    grid = TimeGrid.uniform(0.0, 0.3, 90)
    steps = np.diff(grid.nodes)
    assert np.ptp(steps) > 1e-14 * steps.max()
    full_builds = _count_builds(monkeypatch, FullStepper)
    red = simulate(ops, con, grid, loads=loads, solver=DIRECT)
    ful = simulate_full(ops, con, grid, loads=loads)
    assert full_builds[0] == 1
    sr, sf = red.final, ful.final
    assert sr.t == sf.t == grid.nodes[-1]
    for a, b in [(sr.u1, sf.u1), (sr.u0, sf.u0), *zip(sr.uve, sf.uve)]:
        scale = max(np.abs(b).max(), 1e-30)
        assert np.abs(a - b).max() <= 1e-9 * scale


@pytest.mark.parametrize("cls", [ReducedStepper, FullStepper])
def test_fixed_values_endpoint_reused_bit_identically(monkeypatch, cls):
    ops, con = _moving_bottom_problem()
    k, steps = 0.02, 6
    state = State.zero(ops.space, 1)
    ref_state = state
    for _ in range(steps):
        ref_state = cls(ops, con, k, solver=DIRECT).step(ref_state)
    evaluations = _count_evaluations(con.spec["bottom"])
    stepper = cls(ops, con, k, solver=DIRECT)
    for _ in range(steps):
        state = stepper.step(state)
    # the start value, then each step's end value, reused as the next start
    assert len(evaluations) == len(set(evaluations)) == steps + 1
    assert evaluations[0] == 0.0
    assert np.abs(ref_state.u0).max() > 0
    for a, b in [(state.u1, ref_state.u1), (state.u0, ref_state.u0),
                 *zip(state.uve, ref_state.uve)]:
        assert np.array_equal(a, b)


def test_step_lands_on_given_time_and_keeps_its_own_k():
    ops, con = make_problem(n=1, p=1)
    state = admissible_random_state(ops, con, 29)
    k = 0.05
    stepper = ReducedStepper(ops, con, k, solver=DIRECT)
    plain = stepper.step(state)
    stamped = stepper.step(state, k * (1.0 + 4e-16))
    assert plain.t == k and stamped.t == k * (1.0 + 4e-16)
    for a, b in [(plain.u1, stamped.u1), (plain.u0, stamped.u0)]:
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_time_grid_rejects_non_finite_nodes(bad):
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(np.array([0.0, 0.5, bad]))
    with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
        TimeGrid.uniform(0.0, bad, 4)


def test_full_stepper_rejects_cg_solver():
    # the oracle LU-factorizes its nonsymmetric block matrix whatever the
    # solver, so a 'cg' request must not silently run SuperLU
    ops, con = make_problem(n=1, p=1)
    grid = TimeGrid.uniform(0.0, 0.1, 2)
    with pytest.raises(ValueError, match="cg"):
        simulate_full(ops, con, grid, solver=LinearSolver("cg"))
    with pytest.raises(ValueError, match="cg"):
        FullStepper(ops, con, 0.05, solver=LinearSolver("cg"))
    state = admissible_random_state(ops, con, 8)
    want = FullStepper(ops, con, 0.05).step(state)
    one_step = TimeGrid.uniform(0.0, 0.05, 1)
    for solver in (None, LinearSolver("auto"), DIRECT):
        got = simulate_full(ops, con, one_step, state0=state, solver=solver).final
        assert all(np.array_equal(a, b) for a, b in zip(
            (got.u1, got.u0, *got.uve), (want.u1, want.u0, *want.uve)))
