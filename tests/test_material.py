"""Material model conversions, step coefficients, and the convolution
oracle for the internal-variable update."""
import numpy as np
import pytest

from viscofem.material import (
    MaterialModel,
    MaxwellArm,
    lame_from_engineering,
    step_coefficients,
)
from oracles import duhamel_stress


def test_lame_simple_values():
    mu, lam = lame_from_engineering(1.0, 0.0)
    assert mu == 0.5 and lam == 0.0


def test_lame_reference_material():
    mu, lam = lame_from_engineering(1e5, 0.3)
    assert abs(mu - 1e5 / 2.6) < 1e-9
    assert abs(lam - 0.3e5 / (1.3 * 0.4)) < 1e-9


def test_lame_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(20):
        E = 10 ** rng.uniform(3, 9)
        nu = rng.uniform(-0.9, 0.49)
        mu, lam = lame_from_engineering(E, nu)
        # the inverse relations
        E2 = mu * (3.0 * lam + 2.0 * mu) / (lam + mu)
        nu2 = lam / (2.0 * (lam + mu))
        assert abs(E2 - E) < 1e-12 * E
        assert abs(nu2 - nu) < 1e-12


def test_incompressible_limit_rejected():
    with pytest.raises(ValueError):
        lame_from_engineering(1.0, 0.5)
    with pytest.raises(ValueError):
        lame_from_engineering(-1.0, 0.3)


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialModel(rho=-1.0, mu=1.0, lam=0.0)
    with pytest.raises(ValueError):
        MaterialModel(rho=1.0, mu=1.0, lam=0.0, arms=((1.0, -2.0),))
    mat = MaterialModel.from_engineering(100.0, 1e5, 0.3, arms=((1e5, 1e-2),))
    assert (mat.mu, mat.lam) == lame_from_engineering(1e5, 0.3)
    assert mat.arms[0] == MaxwellArm(1e5, 1e-2)


def test_step_coefficients_substitutions():
    arms = (MaxwellArm(1.0, 0.25),)
    c = step_coefficients(arms, 0.25)  # k = tau
    assert abs(c.alpha[0] - 0.25 / 3) < 1e-15
    assert abs(c.beta[0] - 1 / 3) < 1e-15
    c2 = step_coefficients(arms, 0.5)  # k = 2 tau
    assert abs(c2.beta[0]) < 1e-15
    c3 = step_coefficients(arms, 1e-9)  # k -> 0
    assert abs(c3.alpha[0] / 1e-9 - 0.5) < 1e-8
    assert abs(c3.beta[0] - 1.0) < 1e-8


def test_step_coefficient_invariants():
    rng = np.random.default_rng(8)
    arms = tuple(MaxwellArm(1.0, 10 ** rng.uniform(-3, 3)) for _ in range(20))
    for k in (1e-4, 0.1, 5.0):
        c = step_coefficients(arms, k)
        assert (c.alpha > 0).all() and (c.alpha < k / 2 * (1 + 1e-12)).all()
        assert (np.abs(c.beta) < 1).all()


def test_duhamel_constant_rate():
    arm = MaxwellArm(2.0, 0.3)
    E0 = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    t = 0.7
    sigma = duhamel_stress(arm, lambda s: E0, t)
    expect = arm.kappa * arm.tau * (1 - np.exp(-t / arm.tau)) * E0
    assert np.abs(sigma - expect).max() < 1e-10 * np.abs(expect).max()


def test_duhamel_zero_rate():
    arm = MaxwellArm(2.0, 0.3)
    assert duhamel_stress(arm, lambda s: 0.0, 1.0) == 0.0


def test_duhamel_piecewise_linear_vs_antiderivative():
    # over a segment with rate a + b*s the convolution integral has the
    # antiderivative tau*exp((s-t)/tau)*(a + b*s - b*tau)
    arm = MaxwellArm(3.0, 0.45)
    knots = [0.0, 0.3, 0.8, 1.2]
    vals = [0.0, 1.0, -0.5, 2.0]

    def rate(s):
        return np.interp(s, knots, vals)

    t = knots[-1]
    exact = 0.0
    for s0, s1, v0, v1 in zip(knots, knots[1:], vals, vals[1:]):
        b = (v1 - v0) / (s1 - s0)
        a = v0 - b * s0
        anti = lambda s: arm.tau * np.exp((s - t) / arm.tau) * (
            a + b * s - b * arm.tau
        )
        exact += anti(s1) - anti(s0)
    exact *= arm.kappa
    approx = duhamel_stress(arm, rate, t)
    assert abs(approx - exact) < 1e-9 * abs(exact)


def _iterate_update(u1_fn, tau, t_end, n_steps):
    from viscofem.material import step_coefficients

    arms = (MaxwellArm(1.0, tau),)
    k = t_end / n_steps
    c = step_coefficients(arms, k)
    uve = 0.0
    for n in range(n_steps):
        uve = c.alpha[0] * (u1_fn((n + 1) * k) + u1_fn(n * k)) + c.beta[0] * uve
    return uve


def test_single_point_update_second_order():
    tau, t_end = 0.5, 2.0
    u1 = lambda s: np.sin(1.3 * s) + 0.5 * np.cos(3.0 * s)
    exact = duhamel_stress(MaxwellArm(1.0, tau), u1, t_end)
    errs = [abs(_iterate_update(u1, tau, t_end, n) - exact) for n in (8, 16, 32, 64)]
    rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(abs(r - 2.0) < 0.1 for r in rates)


def test_stress_equivalence_internal_variable_vs_convolution():
    # kappa * value reconstructed from the update equals the convolution
    # of the same history up to the O(k^2) integrator error
    tau, t_end, kappa = 0.4, 1.5, 7.0
    u1 = lambda s: np.exp(-s) * np.sin(2 * s)
    arm = MaxwellArm(kappa, tau)
    conv = duhamel_stress(arm, u1, t_end)
    for n, tol in ((40, 3e-3), (80, 8e-4)):
        disc = kappa * _iterate_update(u1, tau, t_end, n)
        assert abs(disc - conv) < tol * max(abs(conv), 1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_material_values_rejected(bad):
    with pytest.raises(ValueError):
        MaterialModel(rho=bad, mu=1.0, lam=0.0)
    with pytest.raises(ValueError):
        MaterialModel(rho=1.0, mu=bad, lam=0.0)
    with pytest.raises(ValueError):
        MaterialModel(rho=1.0, mu=1.0, lam=bad)
    with pytest.raises(ValueError):
        MaxwellArm(bad, 1.0)
    with pytest.raises(ValueError):
        MaxwellArm(1.0, bad)
