"""Acceptance suite: one test (or sub-test) per exit criterion, each at
its stated tolerance, printing one pass/fail line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py``. The seal check is
tagged 'long' and excluded from the fast suite; enable it with
``pytest -m long``.
"""
import numpy as np
import pytest

from viscofem.assembly import LoadSpec
from viscofem.dynamics import (
    LinearSolver,
    OperatorSet,
    ReducedStepper,
    State,
)
from viscofem.fespace import Constraints, DirichletBC, FeSpace, quadrature
from viscofem.material import MaterialModel, MaxwellArm, step_coefficients
from viscofem.mesh import BoundaryKind, BoundaryTag, box_face_tagger, build_box_mesh
from viscofem.verify import ConserveConfig, conservation_experiment, convergence_study
from oracles import FullStepper, apply_values, duhamel_stress, lsq_rate

DIRECT = LinearSolver(method="direct")
REFERENCE_MATERIAL = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=((1e5, 1e-2),))


def report(name, value, bound, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {detail}{value} vs bound {bound} -> {status}")
    return ok


# -- criterion 1: discrete conservation, timestep independent ---------------


@pytest.mark.parametrize("k", [0.1, 0.01, 0.001])
def test_criterion_1_discrete_conservation(k):
    cfg = ConserveConfig(
        n=5, p=2, k=k, end_time=0.5, release_time=0.1,
        material=REFERENCE_MATERIAL, solver=DIRECT,
    )
    result = conservation_experiment(cfg)
    first = result.ledger[0]
    total0 = first.total + first.dissipated
    drift = max(
        abs(rec.total + rec.dissipated - total0) / total0 for rec in result.ledger
    )
    assert report(f"1 conservation drift (k={k})", f"{drift:.3e}", "1e-9", drift <= 1e-9)


# -- criterion 2: reduced/full equivalence -----------------------------------


def _smooth_random_loads(seed):
    """Smooth random loads in separable form: each body wave
    sin(f.x + f3 t) a = cos(f3 t) sin(f.x) a + sin(f3 t) cos(f.x) a, and
    the traction cos(2t) 1e2 n."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((4, 3))
    freqs = rng.uniform(0.5, 3.0, size=(4, 4))

    def term(time_wave, space_wave, a_vec, f_row):
        return (lambda t: time_wave(f_row[3] * t),
                lambda x: 1e3 * space_wave(x @ f_row[:3])[:, None] * a_vec)

    body = []
    for a_vec, f_row in zip(amps, freqs):
        body += [term(np.cos, np.sin, a_vec, f_row), term(np.sin, np.cos, a_vec, f_row)]
    traction = ((lambda t: np.cos(2.0 * t), lambda x, n: 1e2 * n),)
    return LoadSpec(body_terms=tuple(body), traction_terms=traction)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("n_arms", [0, 1, 5])
def test_criterion_2_reduced_full_equivalence(p, n_arms):
    arms = tuple((1e5 / (m + 1), 10.0 ** (m - 2)) for m in range(n_arms))
    material = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=arms)
    tagger = box_face_tagger(
        faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")}
    )
    space = FeSpace(build_box_mesh(3, tagger=tagger), p)
    ops = OperatorSet(space, material)
    con = Constraints(space, {"bottom": DirichletBC((0.0, 0.0, 0.0))})
    loads = _smooth_random_loads(seed=p * 10 + n_arms)
    k = 0.02
    red = ReducedStepper(ops, con, k, loads=loads, solver=DIRECT)
    ful = FullStepper(ops, con, k, loads=loads)
    sr = sf = State.zero(space, n_arms)
    worst = 0.0
    for _ in range(10):
        sr, sf = red.step(sr), ful.step(sf)
        for a, b in [(sr.u1, sf.u1), (sr.u0, sf.u0), *zip(sr.uve, sf.uve)]:
            scale = max(np.abs(b).max(), 1e-30)
            worst = max(worst, np.abs(a - b).max() / scale)
    assert report(
        f"2 reduced/full max rel diff (M={n_arms}, p={p})",
        f"{worst:.3e}", "1e-9", worst <= 1e-9,
    )


# -- criterion 3: single-point internal-variable oracle ----------------------


def test_criterion_3_single_point_maxwell_order():
    tau, t_end = 0.5, 2.0
    u1 = lambda s: np.sin(1.3 * s) + 0.5 * np.cos(3.0 * s)
    exact = duhamel_stress(MaxwellArm(1.0, tau), u1, t_end)
    arms = (MaxwellArm(1.0, tau),)
    errs = []
    for n in (8, 16, 32, 64):
        k = t_end / n
        coeffs = step_coefficients(arms, k)
        uve = 0.0
        for j in range(n):
            uve = coeffs.alpha[0] * (u1((j + 1) * k) + u1(j * k)) + coeffs.beta[0] * uve
        errs.append(abs(uve - exact))
    slope = -np.polyfit(np.log([8, 16, 32, 64]), np.log(errs), 1)[0]
    assert report(
        "3 single-point update observed order", f"{slope:.3f}", "2.0 +/- 0.1",
        abs(slope - 2.0) <= 0.1,
    )


# -- criterion 4: spatial convergence ----------------------------------------


@pytest.fixture(scope="module")
def spatial_tables():
    p1 = convergence_study(
        REFERENCE_MATERIAL, [(0.5, 1 / 128, 1), (0.25, 1 / 128, 1), (0.125, 1 / 128, 1)],
        solver=DIRECT,
    )
    p2 = convergence_study(
        REFERENCE_MATERIAL, [(0.5, 1 / 128, 2), (0.25, 1 / 128, 2)], solver=DIRECT
    )
    return p1, p2


def test_criterion_4_spatial_energy_rate_p1(spatial_tables):
    table, _ = spatial_tables
    rate = table.rates("h")[-1][0]  # finest pair
    assert report(
        "4 spatial energy rate (p=1, finest pair)", f"{rate:.3f}", "1.0 +/- 0.3",
        abs(rate - 1.0) <= 0.3,
    )


def test_criterion_4_spatial_l2_rate_p1(spatial_tables):
    # NOTE: this criterion does not hold on the pinned pair, and the cause
    # is the P1 Galerkin projection itself, not the time stepping. Static
    # elasticity (same manufactured field, same clamped-bottom cube) gives
    # these P1 L2 rates:
    #
    #   pair (h)                    1/2->1/4  1/4->1/8  1/8->1/16  1/16->1/32
    #   static elastic projection     1.10      1.42      1.75       1.92
    #   nodal interpolant             1.78      1.94      1.99        -
    #
    # The dynamic run measures 1.428 on 1/4 -> 1/8, matching the static
    # projection's 1.42. The asymptotic pair is 1/16 -> 1/32, which the
    # fast suite cannot afford yet: at h = 1/32, P1 has 107,811 dofs. The
    # manufactured loads separate in time, so the row's load vectors are
    # assembled once (28.9 s) and each step's load integral takes about a
    # millisecond, but the Schur splu takes 293 s and runs out of memory
    # under a 4.5 GB cap. The pair moves there once that factorization is
    # affordable (ROADMAP item 4); until then the test stays on 1/4 -> 1/8
    # at its stated tolerance.
    table, _ = spatial_tables
    rate = table.rates("h", "l2_error")[-1][0]
    assert report(
        "4 spatial L2 rate (p=1, finest pair)", f"{rate:.3f}", "2.0 +/- 0.3",
        abs(rate - 2.0) <= 0.3,
    )


def test_criterion_4_spatial_energy_rate_p2(spatial_tables):
    _, table = spatial_tables
    rate = table.rates("h")[-1][0]
    assert report(
        "4 spatial energy rate (p=2, finest pair)", f"{rate:.3f}", "2.0 +/- 0.4",
        abs(rate - 2.0) <= 0.4,
    )


# -- criterion 5: temporal convergence ---------------------------------------


@pytest.fixture(scope="module")
def temporal_table():
    # Errors are measured against a same-mesh reference run with
    # k_ref = k_min/8 (P2, h = 1/2), so the spatial error cancels and only
    # the time-integration error is left; the mesh merely fixes the
    # semi-discrete system. h = 1/4 gives the same rates (~2.01 energy,
    # ~1.99 L2) but its reference run alone takes ~100 s.
    return convergence_study(
        REFERENCE_MATERIAL,
        [(0.5, 1 / 32, 2), (0.5, 1 / 64, 2), (0.5, 1 / 128, 2)],
        solver=DIRECT, reference="fine_k", refine_reference=8,
    )


def test_criterion_5_temporal_energy_rate(temporal_table):
    # NOTE: the sweep starts at k = 1/32 because coarser steps lie before
    # the asymptotic range of the stiff arm (tau = 0.01). Against a
    # reference at k = 1/1024, the consecutive energy rates over
    # k = 1/4 ... 1/128 are 1.64, 2.65, 2.64, 2.00, 2.02. A sweep over
    # k = 1/4 ... 1/32 (k/tau from 25 down to 3) fits 2.35 on h = 1/4 and
    # 2.40 on h = 1/2, but 2.02 with tau = 1, so neither the scheme nor
    # the mesh is at fault. On
    # k = 1/32, 1/64, 1/128 the ratio k/tau is 3.1, 1.6, 0.8: it straddles
    # k = 2 tau, where the arm coefficient beta changes sign, so the stiff
    # arm is still exercised. A first-order body-force time rule fits
    # ~1.07 here and fails.
    rate = lsq_rate(temporal_table, "k")
    assert report(
        "5 temporal energy rate (lsq over sweep)", f"{rate:.3f}", "2.0 +/- 0.3",
        abs(rate - 2.0) <= 0.3,
    )


def test_criterion_5_temporal_l2_rate(temporal_table):
    rate = lsq_rate(temporal_table, "k", "l2_error")
    assert report(
        "5 temporal L2 rate (lsq over sweep)", f"{rate:.3f}", "2.0 +/- 0.3",
        abs(rate - 2.0) <= 0.3,
    )


# -- criterion 6: property suites --------------------------------------------


def test_criterion_6_quadrature_exactness():
    from math import factorial

    worst = 0.0
    for degree in range(9):
        rule = quadrature(degree)
        x, y, z = rule.points[:, 1], rule.points[:, 2], rule.points[:, 3]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                for c in range(degree + 1 - a - b):
                    exact = (
                        factorial(a) * factorial(b) * factorial(c)
                        / factorial(a + b + c + 3)
                    )
                    val = np.sum(rule.weights * x**a * y**b * z**c)
                    worst = max(worst, abs(val - exact))
    assert report("6 quadrature monomial exactness", f"{worst:.2e}", "1e-12",
                  worst <= 1e-12)


def test_criterion_6_nullspaces():
    space = FeSpace(build_box_mesh(2), 2)
    material = MaterialModel(rho=1.0, mu=0.4, lam=0.6, arms=((2.5, 1.0),))
    ops = OperatorSet(space, material)
    KE, KV = ops.elastic, 2.5 * ops.deviatoric
    worst = 0.0
    for w in (
        space.interpolate(lambda x: np.array([1.0, -2.0, 0.5]) + 0 * x),
        space.interpolate(lambda x: np.cross(np.array([0.3, -1.2, 2.0]), x)),
    ):
        worst = max(
            worst,
            np.abs(KE @ w).max() / (np.abs(KE.data).max() * np.abs(w).max()),
        )
    dil = space.interpolate(lambda x: x)
    worst = max(
        worst, np.abs(KV @ dil).max() / (np.abs(KV.data).max() * np.abs(dil).max())
    )
    assert report("6 rigid-body/dilation nullspace residual", f"{worst:.2e}",
                  "1e-12", worst <= 1e-12)


def test_criterion_6_static_affine_patch():
    from viscofem.assembly import assemble_traction_load

    material = MaterialModel(rho=1.0, mu=0.7, lam=1.1, arms=())
    B = np.array([[0.3, 1.2, -0.7], [0.4, -0.2, 0.9], [-1.1, 0.5, 0.8]])
    a0 = np.array([0.1, -0.3, 0.2])
    eps = 0.5 * (B + B.T)
    sig = 2 * material.mu * eps + material.lam * np.trace(eps) * np.eye(3)
    worst = 0.0
    for p in (1, 2, 3):
        tagger = box_face_tagger(
            faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")}
        )
        space = FeSpace(build_box_mesh(2, tagger=tagger), p)
        ops = OperatorSet(space, material)
        con = Constraints(
            space, {"bottom": DirichletBC(lambda x, t: a0 + x @ B.T)}
        )
        rhs = assemble_traction_load(space, lambda x, n: n @ sig.T)
        u = con.solve(ops.elastic, rhs, con.fixed_values(0.0), DIRECT)
        exact = space.interpolate(lambda x: a0 + x @ B.T)
        worst = max(worst, np.abs(u - exact).max() / np.abs(exact).max())
    assert report("6 static affine patch test", f"{worst:.2e}",
                  "solver tolerance (1e-10)", worst <= 1e-10)


def test_criterion_6_monotone_decay_random_states():
    tagger = box_face_tagger(
        faces={"z-": BoundaryTag(BoundaryKind.DIRICHLET, "bottom")}
    )
    space = FeSpace(build_box_mesh(2, tagger=tagger), 1)
    ops = OperatorSet(space, REFERENCE_MATERIAL)
    con = Constraints(space, {"bottom": DirichletBC((0.0, 0.0, 0.0))})
    stepper = ReducedStepper(ops, con, 0.02, solver=DIRECT)
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(100):
        n = space.n_dofs
        state = State(
            0.0,
            apply_values(con, rng.standard_normal(n), 0.0),
            apply_values(con, rng.standard_normal(n), 0.0),
            (apply_values(con, rng.standard_normal(n), 0.0),),
        )
        from viscofem.dynamics import energy

        prev = energy(state, ops).total
        for _ in range(5):
            state = stepper.step(state)
            cur = energy(state, ops).total
            if cur > prev * (1 + 1e-12):
                violations += 1
            prev = cur
    assert report("6 monotone energy decay violations (100 states)",
                  violations, "0", violations == 0)


# -- criterion 7: seal qualitative check (long) ------------------------------


@pytest.mark.long
def test_criterion_7_seal_pressure_sign():
    from viscofem.cli import (
        SealSweepConfig,
        _seal_constraints,
        run_seal_frequency,
        seal_probe_nodes,
    )
    from viscofem.dynamics import static_solve
    from viscofem.mesh import build_annulus_mesh

    material = MaterialModel.from_engineering(
        1100.0, 0.5e6, 0.39,
        arms=((3.5e6, 1e-2), (4.0e6, 1e-1), (2.5e5, 1.0), (2.5e5, 1e1), (5.0e5, 1e2)),
    )
    mesh = build_annulus_mesh(0.006, 0.01, 0.02, (4, 24, 5))
    space = FeSpace(mesh, 2)
    ops = OperatorSet(space, material)
    sweep = SealSweepConfig(frequencies=(1.0, 15.0))
    solver = LinearSolver(method="cg", rtol=1e-10)
    probes = seal_probe_nodes(space, sweep.stations, 0.02)
    u0 = static_solve(ops, _seal_constraints(space, 0.006, sweep, 1.0), solver=solver)
    p_lo_1, _, _ = run_seal_frequency(space, ops, material, 0.006, sweep, 1.0,
                                      solver, probes, u0)
    p_lo_15, _, _ = run_seal_frequency(space, ops, material, 0.006, sweep, 15.0,
                                       solver, probes, u0)
    ok = p_lo_1[0] > 0 and p_lo_15[0] < 0
    assert report(
        "7 seal end-station min pressure",
        f"omega=1: {p_lo_1[0]:.1f} Pa, omega=15: {p_lo_15[0]:.1f} Pa",
        "positive at 1 Hz, negative at 15 Hz", ok,
    )
