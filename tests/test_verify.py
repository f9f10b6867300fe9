"""Manufactured-solution harness, error norms, and the conservation
experiment."""
import numpy as np
import pytest

from viscofem.dynamics import LinearSolver, State
from viscofem.material import MaterialModel, MaxwellArm
from viscofem.verify import (
    ConserveConfig,
    ManufacturedSolution,
    conservation_experiment,
    convergence_study,
    error_norms,
    unit_cube_problem,
)
from oracles import FullStepper, body_force, duhamel_stress, strong_residual, traction

MATERIAL = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=((1e5, 1e-2),))
DIRECT = LinearSolver(method="direct")


@pytest.fixture(scope="module")
def ms():
    return ManufacturedSolution(MATERIAL)


def test_velocity_spot_value(ms):
    v = ms.velocity(1.0, np.array([[0.5, 0.5, 0.5]]))
    assert np.allclose(v, [[0.0, 0.0, np.sqrt(2) / 5]], atol=1e-14)


def test_initial_rest(ms):
    rng = np.random.default_rng(1)
    x = rng.random((20, 3))
    assert np.abs(ms.velocity(0.0, x)).max() == 0.0
    assert np.abs(ms.displacement(0.0, x)).max() < 1e-15
    assert abs(ms.arm_factor(0, 0.0)) < 1e-15


def test_field_vanishes_on_bottom(ms):
    rng = np.random.default_rng(2)
    x = rng.random((20, 3))
    x[:, 2] = 0.0
    assert np.abs(ms.shape(x)).max() < 1e-14


def test_arm_factor_matches_convolution(ms):
    arm = MATERIAL.arms[0]
    probe = MaxwellArm(1.0, arm.tau)
    for t in (0.1, 0.55, 1.0):
        conv = duhamel_stress(probe, ms.time_factor, t)
        assert abs(ms.arm_factor(0, t) - conv) < 1e-10 * abs(conv)


def test_arm_factor_near_unit_tau():
    # tau near 1 hits the small-|c| branch of the moment integrals
    for tau in (1.0, 1.0 + 1e-9, 0.97):
        mat = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=((1e5, tau),))
        msol = ManufacturedSolution(mat)
        conv = duhamel_stress(MaxwellArm(1.0, tau), msol.time_factor, 0.8)
        assert abs(msol.arm_factor(0, 0.8) - conv) < 1e-9 * abs(conv)


def test_displacement_factor_is_velocity_antiderivative(ms):
    ts = np.linspace(0.05, 1.0, 7)
    dt = 1e-6
    for t in ts:
        fd = (ms.displacement_factor(t + dt) - ms.displacement_factor(t - dt)) / (2 * dt)
        assert abs(fd - ms.time_factor(t)) < 1e-9


def test_strong_residual_spot_check(ms):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.05, 1.0)
        x = rng.uniform(0.05, 0.95, size=(1, 3))
        worst = max(worst, strong_residual(ms, t, x))
    assert worst < 1e-8


def test_shape_derivatives_vs_finite_differences(ms):
    rng = np.random.default_rng(7)
    x = rng.uniform(0.1, 0.9, size=(30, 3))
    grad = ms.shape_gradient(x)
    elastic, deviatoric = ms.elastic_divergence(x), ms.deviatoric_divergence(x)
    dx = 1e-6
    lap = np.zeros((len(x), 3))
    graddiv = np.zeros((len(x), 3))
    for i in range(3):
        step = np.zeros(3)
        step[i] = dx
        gfd = (ms.shape(x + step) - ms.shape(x - step)) / (2 * dx)
        assert np.abs(gfd - grad[:, :, i]).max() < 1e-6
        # hfd[n, a, j] = d^2 V_a / d x_j d x_i
        hfd = (ms.shape_gradient(x + step) - ms.shape_gradient(x - step)) / (2 * dx)
        lap += hfd[:, :, i]
        graddiv += hfd[:, i, :]
    # each second derivative within 1e-6: each divergence within 1e-6 times
    # the sum of its coefficients' magnitudes over its three terms
    mat = ms.material
    want_e = mat.mu * lap + (mat.mu + mat.lam) * graddiv
    assert np.abs(want_e - elastic).max() < 3e-6 * (2.0 * mat.mu + mat.lam)
    want_d = lap / 2.0 + graddiv / 6.0
    assert np.abs(want_d - deviatoric).max() < 3e-6 * (1.0 / 2.0 + 1.0 / 6.0)


def test_shape_fields_bit_equal_per_entry_factor_products():
    from viscofem import verify
    from viscofem.assembly import stress_from_gradients

    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=_arms(3))
    exact = ManufacturedSolution(material)
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 1.5, (200, 3))
    normal = rng.standard_normal((len(x), 3))

    # oracles: every entry forms its own three factors with ``_factor``
    def entry(a, orders):
        fs = [verify._factor(a, ax, x[:, ax], orders[ax]) for ax in range(3)]
        return verify._SHAPE_COEF[a] * fs[0] * fs[1] * fs[2]

    shape = np.empty((len(x), 3))
    grad = np.empty((len(x), 3, 3))
    hess = np.empty((len(x), 3, 3, 3))
    for a in range(3):
        fs = [verify._factor(a, ax, x[:, ax]) for ax in range(3)]
        shape[:, a] = verify._SHAPE_COEF[a] * (fs[0] * fs[1] * fs[2])
        for i in range(3):
            grad[:, a, i] = entry(a, [int(ax == i) for ax in range(3)])
            for j in range(3):
                hess[:, a, i, j] = entry(a, [(ax == i) + (ax == j) for ax in range(3)])
    lap = np.einsum("naii->na", hess)
    graddiv = np.einsum("njaj->na", hess)
    mu, lam = material.mu, material.lam
    elastic = stress_from_gradients(grad, np.zeros_like(grad), mu, lam)
    deviatoric = stress_from_gradients(np.zeros_like(grad), grad, 0.0, 0.0)
    pairs = [
        (exact.shape(x), shape),
        (exact.shape_gradient(x), grad),
        (exact.elastic_divergence(x), mu * lap + (mu + lam) * graddiv),
        (exact.deviatoric_divergence(x), lap / 2.0 + graddiv / 6.0),
        (exact.elastic_traction(x, normal), np.einsum("nab,nb->na", elastic, normal)),
        (exact.deviatoric_traction(x, normal),
         np.einsum("nab,nb->na", deviatoric, normal)),
    ]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()


def test_error_norms_interpolated_exact(ms):
    # injecting the interpolated exact solution leaves only interpolation
    # error: small, but clearly nonzero
    ops, _ = unit_cube_problem(MATERIAL, 4, 2)
    space = ops.space
    t = 1.0
    state = State(
        t,
        space.interpolate(lambda x: ms.velocity(t, x)),
        space.interpolate(lambda x: ms.displacement(t, x)),
        (space.interpolate(lambda x: ms.ve_field(0, t, x)),),
    )
    e_err, l2_err = error_norms(state, ms, ops)
    assert 0 < l2_err < 2e-3
    assert 0 < e_err < 20.0  # interpolation level for the energy norm


def test_error_norms_constant_offset(ms):
    ops, _ = unit_cube_problem(MATERIAL, 2, 1)
    space = ops.space
    t = 1.0
    u0 = space.interpolate(lambda x: ms.displacement(t, x))
    state = State(t, space.interpolate(lambda x: ms.velocity(t, x)), u0,
                  (space.interpolate(lambda x: ms.ve_field(0, t, x)),))
    e0, l0 = error_norms(state, ms, ops)
    delta = np.array([3.0, -4.0, 12.0])  # |delta| dominates the base error
    off = np.tile(delta, space.n_scalar_dofs)
    state2 = State(t, state.u1, u0 + off, state.uve)
    e1, l1 = error_norms(state2, ms, ops)
    # constant offset: L2 error becomes |delta|*sqrt(|Omega|) up to the
    # base error; energy error unchanged (gradient-based)
    assert abs(e1 - e0) < 1e-9 * e0
    mag = np.linalg.norm(delta)  # |Omega| = 1
    assert abs(l1 - mag) <= l0 + 1e-12


def test_convergence_table_self_consistency():
    cases = [(0.5, 0.25, 1), (0.25, 0.25, 1)]
    table = convergence_study(MATERIAL, cases, solver=DIRECT)
    rows = table.ok_rows()
    assert len(rows) == 2
    assert rows[1].energy_error < rows[0].energy_error
    assert rows[1].l2_error < rows[0].l2_error
    (rate, saturated), = table.rates("h")
    assert rate > 0.3 and not saturated


def test_convergence_table_csv_and_failures(tmp_path):
    cases = [(0.5, 0.25, 1), (0.3, 0.25, 1)]  # 0.3 does not divide the cube
    table = convergence_study(MATERIAL, cases, solver=DIRECT)
    assert table.rows[1].failure is not None
    assert len(table.ok_rows()) == 1
    path = tmp_path / "conv.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "h,k,p,energy_error,l2_error,wall_seconds"
    assert len(lines) == 3


def test_saturated_rates_flagged():
    from viscofem.verify import ConvergenceTable, SweepRow

    table = ConvergenceTable(
        rows=[
            SweepRow(h=0.5, k=0.1, p=1, energy_error=1.0, l2_error=1.0),
            SweepRow(h=0.25, k=0.1, p=1, energy_error=0.99, l2_error=0.25),
        ]
    )
    (rate_e, sat_e), = table.rates("h")
    (rate_l, sat_l), = table.rates("h", "l2_error")
    assert sat_e and not sat_l
    assert abs(rate_l - 2.0) < 1e-12


def test_conservation_experiment_small():
    cfg = ConserveConfig(n=2, p=1, k=0.05, end_time=0.4, release_time=0.1,
                         material=MATERIAL, solver=DIRECT)
    result = conservation_experiment(cfg)
    led = result.ledger
    assert len(led) == 9  # 2 hold steps + 6 free steps + initial node
    total0 = led[0].total + led[0].dissipated
    assert led[0].kinetic == 0.0 and led[0].elastic > 0
    for rec in led:
        assert abs(rec.total + rec.dissipated - total0) < 1e-9 * total0
    diss = [rec.dissipated for rec in led]
    assert all(b >= a for a, b in zip(diss, diss[1:]))
    # the held phase is static: nothing moves until release
    release = result.release_index
    for rec in led[:release + 1]:
        assert rec.kinetic < 1e-20 * total0


def test_conservation_elastic_limit():
    mat = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=())
    cfg = ConserveConfig(n=2, p=1, k=0.05, end_time=0.3, release_time=0.1,
                         material=mat, solver=DIRECT)
    result = conservation_experiment(cfg)
    total0 = result.ledger[0].total
    for rec in result.ledger:
        assert rec.dissipated == 0.0
        assert abs(rec.total - total0) < 1e-11 * total0


def test_cubic_elements_end_to_end():
    # the full-resolution preset path: P3 dynamics on a small grid
    cases = [(0.5, 0.25, 3)]
    table = convergence_study(MATERIAL, cases, solver=DIRECT)
    row = table.ok_rows()[0]
    # P3 on the smooth field: already accurate on a 2-cell mesh
    assert row.energy_error < 10.0
    assert row.l2_error < 2e-3


def test_conservation_release_must_be_time_node():
    with pytest.raises(ValueError, match="time node"):
        conservation_experiment(
            ConserveConfig(n=2, p=1, k=0.03, release_time=0.1, material=MATERIAL)
        )


# -- time-separable manufactured loads -----------------------------------------


def _arms(n_arms):
    return tuple((1e5 / (m + 1), 10.0 ** (m - 2)) for m in range(n_arms))


def _pointwise_body(space, exact, t):
    """(f(t), v) with the body force evaluated pointwise at time t."""
    from viscofem.assembly import assemble_volume_load

    return assemble_volume_load(space, [lambda x: body_force(exact, x, t)])[0]


def _pointwise_traction(space, exact, t):
    """(g(t), v)_Gamma_N with the traction evaluated pointwise at time t."""
    from viscofem.assembly import assemble_traction_load

    return assemble_traction_load(space, lambda x, n: traction(exact, x, t, n))


def _pointwise_time_integral(space, exact, t0, t1):
    """The load integral over [t0, t1] by the rules of
    ``load_time_integral``, from pointwise-evaluated loads: 2-point Gauss
    for the body force, the trapezoidal rule for the traction."""
    k = t1 - t0
    mid, off = 0.5 * (t0 + t1), 0.5 * k / np.sqrt(3.0)
    out = np.zeros(space.n_dofs)
    for tg in (mid - off, mid + off):
        out += 0.5 * k * _pointwise_body(space, exact, tg)
    for tt in (t0, t1):
        out += 0.5 * k * _pointwise_traction(space, exact, tt)
    return out


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("n_arms", [1, 3])
def test_separable_loads_match_closures(p, n_arms):
    from viscofem.dynamics import load_time_integral

    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=_arms(n_arms))
    ops, _ = unit_cube_problem(material, 2, p)
    exact = ManufacturedSolution(material, 0.3, -0.1)
    separable = exact.loads()
    space = ops.space
    for t0, t1 in ((0.0, 0.125), (0.3, 0.35), (0.9, 1.0)):
        want = _pointwise_time_integral(space, exact, t0, t1)
        got = load_time_integral(separable, space, t0, t1)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("p", [1, 2])
def test_run_manufactured_separable_matches_closures(p):
    from viscofem.dynamics import ReducedStepper, TimeGrid
    from viscofem.verify import run_manufactured

    final, ops, exact = run_manufactured(MATERIAL, 0.5, 0.125, p, solver=DIRECT)

    class PointwiseLoadStepper(ReducedStepper):
        """Adds the load integral of the pointwise-evaluated loads."""

        def rhs(self, state, t_next=None):
            return super().rhs(state, t_next) + _pointwise_time_integral(
                self.ops.space, exact, state.t, t_next
            )

    ops_c, con_c = unit_cube_problem(MATERIAL, 2, p)
    nodes = TimeGrid.uniform(0.0, 1.0, 8).nodes
    stepper = PointwiseLoadStepper(ops_c, con_c, nodes[1] - nodes[0], solver=DIRECT)
    state = State.zero(ops_c.space, MATERIAL.n_arms)
    for t_next in nodes[1:]:
        state = stepper.step(state, t_next)
    got = error_norms(final, exact, ops)
    want = error_norms(state, exact, ops_c)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-12 * b


@pytest.mark.parametrize("n_arms", [1, 3])
def test_separable_loads_assemble_spatial_vectors_once(n_arms, monkeypatch):
    from viscofem import assembly
    from viscofem.dynamics import TimeGrid, simulate

    calls = {"volume": 0, "traction": 0}
    passes = []

    def counting(name, fn, vectors):
        def wrapped(*args, **kwargs):
            calls[name] += vectors(args)
            passes.append(name)
            return fn(*args, **kwargs)

        return wrapped

    # a volume pass assembles one vector per field it is given
    monkeypatch.setattr(assembly, "assemble_volume_load", counting(
        "volume", assembly.assemble_volume_load, lambda args: len(args[1])))
    monkeypatch.setattr(assembly, "assemble_traction_load", counting(
        "traction", assembly.assemble_traction_load, lambda args: 1))
    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=_arms(n_arms))
    ops, con = unit_cube_problem(material, 2, 1)
    exact = ManufacturedSolution(material)
    steps = 6
    simulate(ops, con, TimeGrid.uniform(0.0, 0.5, steps), loads=exact.loads(),
             solver=DIRECT)
    # rho V, L_E[V] and L_D[V]; sigma_E[V]n and dev eps(V)n: independent
    # of the step and arm counts
    assert calls == {"volume": 3, "traction": 2}
    # the three body-force fields share one pass over the elements
    assert passes.count("volume") == 1
    # a second march on the same space reuses the cached vectors
    simulate(ops, con, TimeGrid.uniform(0.0, 0.5, steps), loads=exact.loads(),
             solver=DIRECT)
    assert calls == {"volume": 3, "traction": 2}


@pytest.mark.parametrize("n_arms, counts", [(0, (2, 1)), (1, (3, 2)), (3, (3, 2))])
def test_manufactured_loads_have_one_deviatoric_term_for_all_arms(n_arms, counts):
    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=_arms(n_arms))
    exact = ManufacturedSolution(material, 0.3, -0.1)
    loads = exact.loads()
    assert (len(loads.body_terms), len(loads.traction_terms)) == counts
    if n_arms:
        # the deviatoric coefficient sums kappa_m g_m over the arms
        want = sum(arm.kappa * exact.arm_factor(m, 0.7) for m, arm in enumerate(material.arms))
        assert loads.traction_terms[-1][0](0.7) == want
        assert loads.body_terms[-1][0](0.7) == -want


def _count_factor_calls(monkeypatch):
    """A list that gains one entry per ``verify._factor`` call."""
    from viscofem import verify

    calls = []
    factor = verify._factor
    monkeypatch.setattr(verify, "_factor", lambda *args: calls.append(1) or factor(*args))
    return calls


@pytest.mark.parametrize("p", [1, 2])
def test_manufactured_loads_evaluate_each_shape_factor_once_per_chunk(monkeypatch, p):
    from viscofem import assembly
    from viscofem.assembly import LoadSpec, assemble_volume_load, load_vectors

    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=_arms(3))
    ops, _ = unit_cube_problem(material, 2, p)
    space = ops.space
    monkeypatch.setattr(assembly, "ELEMENT_CHUNK", 7)
    exact = ManufacturedSolution(material)
    terms = exact.loads().body_terms
    fields = [field for _, field in terms]
    calls = _count_factor_calls(monkeypatch)
    got, _ = load_vectors(space, LoadSpec(body_terms=terms))
    # V, L_E[V] and L_D[V] of one chunk share its factors: two per axis,
    # each of orders 0, 1 and 2
    assert len(calls) == 18 * -(-len(space.mesh.tets) // 7)
    # each vector equals the one its field assembles alone
    for field, vec in zip(fields, got):
        (alone,) = assemble_volume_load(space, [getattr(ManufacturedSolution(material),
                                                        field.__name__)])
        assert np.array_equal(vec, alone)


def test_manufactured_tractions_evaluate_each_shape_factor_once(monkeypatch):
    from viscofem.assembly import LoadSpec, assemble_traction_load, load_vectors

    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=_arms(3))
    ops, _ = unit_cube_problem(material, 2, 2)
    space = ops.space
    exact = ManufacturedSolution(material)
    terms = exact.loads().traction_terms
    fields = [field for _, field in terms]
    calls = _count_factor_calls(monkeypatch)
    _, got = load_vectors(space, LoadSpec(traction_terms=terms))
    # sigma_E[V]n and dev eps(V)n on the facet points share their factors:
    # two per axis, each of orders 0 and 1
    assert len(calls) == 12
    for field, vec in zip(fields, got):
        alone = assemble_traction_load(space, getattr(ManufacturedSolution(material),
                                                      field.__name__))
        assert np.array_equal(vec, alone)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("n_arms", [1, 3])
def test_reduced_full_equivalence_separable_loads(p, n_arms):
    from viscofem.dynamics import ReducedStepper

    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=_arms(n_arms))
    ops, con = unit_cube_problem(material, 2, p)
    loads = ManufacturedSolution(material).loads()
    red = ReducedStepper(ops, con, 0.05, loads=loads, solver=DIRECT)
    ful = FullStepper(ops, con, 0.05, loads=loads)
    sr = sf = State.zero(ops.space, n_arms)
    for _ in range(5):
        sr, sf = red.step(sr), ful.step(sf)
    for a, b in [(sr.u1, sf.u1), (sr.u0, sf.u0), *zip(sr.uve, sf.uve)]:
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()


def test_convergence_fine_k_measures_against_the_refined_run():
    cases = [(0.5, 0.25, 1), (0.5, 0.125, 1)]
    kw = dict(end_time=0.5, solver=DIRECT, reference="fine_k", refine_reference=2)
    table = convergence_study(MATERIAL, cases, **kw)
    # errors are distances to the same-mesh run at k_min / 2
    from viscofem.verify import _discrete_error, run_manufactured

    ref = run_manufactured(MATERIAL, 0.5, 0.0625, 1, 0.5, DIRECT)[0]
    final, ops, _ = run_manufactured(MATERIAL, 0.5, 0.25, 1, 0.5, DIRECT)
    assert (table.rows[0].energy_error, table.rows[0].l2_error) == _discrete_error(
        final, ref, ops
    )
    assert all(row.failure is None for row in table.rows)
    with pytest.raises(ValueError):
        convergence_study(MATERIAL, cases, reference="fine")


def test_error_norms_chunks_match_one_chunk(monkeypatch):
    from viscofem import assembly

    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=_arms(3))
    ops, _ = unit_cube_problem(material, 2, 2)
    space, exact, t = ops.space, ManufacturedSolution(material), 0.5
    # the nodal interpolant of the exact fields, perturbed so that every
    # term of the norms is well away from zero
    rng = np.random.default_rng(3)

    def field(fn):
        return space.interpolate(fn) + 1e-3 * rng.standard_normal(space.n_dofs)

    state = State(t, field(lambda x: exact.velocity(t, x)),
                  field(lambda x: exact.displacement(t, x)),
                  tuple(field(lambda x, m=m: exact.ve_field(m, t, x))
                        for m in range(len(material.arms))))
    assert len(space.mesh.tets) <= assembly.ELEMENT_CHUNK
    whole = error_norms(state, exact, ops)
    monkeypatch.setattr(assembly, "ELEMENT_CHUNK", 7)
    chunked = error_norms(state, exact, ops)
    for a, b in zip(whole, chunked):
        assert abs(a - b) <= 1e-13 * abs(a)


def test_error_norms_evaluate_each_shape_factor_once_per_chunk(monkeypatch):
    from viscofem import assembly

    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=_arms(3))
    ops, _ = unit_cube_problem(material, 2, 2)
    exact = ManufacturedSolution(material)
    calls = _count_factor_calls(monkeypatch)
    monkeypatch.setattr(assembly, "ELEMENT_CHUNK", 7)
    error_norms(State.zero(ops.space, 3), exact, ops)
    # per chunk: the shape V and its gradient share two factors per axis,
    # each of orders 0 and 1
    assert len(calls) == 12 * -(-len(ops.space.mesh.tets) // 7)


def test_passes_over_the_mesh_release_the_point_table():
    from viscofem.assembly import LoadSpec, load_vectors

    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=_arms(2))
    ops, _ = unit_cube_problem(material, 2, 1)
    exact = ManufacturedSolution(material)
    load_vectors(ops.space, LoadSpec(body_terms=exact.loads().body_terms))
    assert exact._table is None
    exact.shape(ops.space.dof_coords)
    assert exact._table is not None
    error_norms(State.zero(ops.space, 2), exact, ops)
    assert exact._table is None
