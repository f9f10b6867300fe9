"""CLI scenarios, config handling, output files, and contact pressure."""
import numpy as np
import pytest

from viscofem.cli import (
    ConfigError,
    SealSweepConfig,
    compute_contact_pressure,
    main,
    material_from_config,
    parse_config,
    seal_normal_value,
)
from viscofem.dynamics import LinearSolver, OperatorSet, State, static_solve
from viscofem.fespace import Constraints, DirichletBC, FeSpace, SlipBC
from viscofem.material import MaterialModel
from viscofem.mesh import build_annulus_mesh, build_box_mesh
from viscofem.vtkio import read_vtk_counts, write_vtk

DIRECT = LinearSolver(method="direct")


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


BASE_CONSERVE = """
[run]
scenario = conserve
[geometry]
n = 2
[material]
rho = 100
E = 1e5
nu = 0.3
arms = 1e5:1e-2
[time]
T = 0.3
k = 0.05
[discretization]
p = 1
[solver]
method = direct
[conserve]
release_time = 0.1
"""


def test_parse_and_material(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, BASE_CONSERVE))
    assert cfg.scenario == "conserve"
    mat = material_from_config(cfg)
    assert mat.rho == 100.0 and len(mat.arms) == 1


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = write_cfg(tmp_path, "[material]\nrho = fast\n")
    code = main(["conserve", "--config", bad, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "rho" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path):
    assert main(["conserve", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_scenario_mismatch_is_config_error(tmp_path):
    path = write_cfg(tmp_path, BASE_CONSERVE)
    assert main(["single", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_conserve_scenario_runs_and_is_deterministic(tmp_path):
    path = write_cfg(tmp_path, BASE_CONSERVE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["conserve", "--config", path, "--out", str(out1)]) == 0
    assert main(["conserve", "--config", path, "--out", str(out2)]) == 0
    data1 = (out1 / "energy_ledger.csv").read_bytes()
    data2 = (out2 / "energy_ledger.csv").read_bytes()
    assert data1 == data2
    header = data1.decode().splitlines()[0]
    assert header == "t,kinetic,elastic,viscoelastic_total,dissipated,total"


def test_convergence_scenario_csv(tmp_path):
    body = """
[run]
scenario = convergence
[material]
rho = 100
E = 1e5
nu = 0.3
arms = 1e5:1e-2
[time]
T = 0.5
[solver]
method = direct
[convergence]
h = 0.5 0.25
k = 0.25 0.125
p = 1
"""
    path = write_cfg(tmp_path, body)
    out = tmp_path / "o"
    assert main(["convergence", "--config", path, "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "h,k,p,energy_error,l2_error,wall_seconds"
    assert len(lines) == 5  # 2x2 sweep


def test_convergence_row_failure_exit_code(tmp_path):
    body = """
[run]
scenario = convergence
[material]
rho = 100
E = 1e5
nu = 0.3
[solver]
method = direct
[convergence]
h = 0.3
k = 0.25
p = 1
"""
    path = write_cfg(tmp_path, body)
    assert main(["convergence", "--config", path, "--out", str(tmp_path / "o")]) == 3


def test_single_scenario_with_vtk(tmp_path):
    body = """
[run]
scenario = single
[geometry]
n = 2
[material]
rho = 100
E = 1e5
nu = 0.3
arms = 1e5:1e-2
[time]
T = 0.25
k = 0.125
[discretization]
p = 1
[solver]
method = direct
[output]
vtk_stride = 1
"""
    path = write_cfg(tmp_path, body)
    out = tmp_path / "o"
    assert main(["single", "--config", path, "--out", str(out)]) == 0
    n_pts, n_cells = read_vtk_counts(out / "single_final.vtk")
    assert n_pts == 27 and n_cells == 48


def test_write_vtk_roundtrip_and_zero_fields(tmp_path):
    mesh = build_box_mesh(2)
    path = tmp_path / "m.vtk"
    zeros = np.zeros((mesh.n_vertices, 3))
    write_vtk(mesh, path, {"displacement": zeros}, {"von_mises": zeros[:, 0]})
    n_pts, n_cells = read_vtk_counts(path)
    assert n_pts == mesh.n_vertices and n_cells == mesh.n_tets
    text = path.read_text()
    assert "VECTORS displacement double" in text
    assert "SCALARS von_mises double 1" in text
    with pytest.raises(ValueError):
        write_vtk(mesh, path, {"bad": np.zeros((3, 3))})


def _annulus_problem(material, divisions=(2, 12, 3), p=1):
    mesh = build_annulus_mesh(0.006, 0.01, 0.02, divisions)
    space = FeSpace(mesh, p)
    ops = OperatorSet(space, material)
    return space, ops


def test_contact_pressure_hydrostatic():
    mat = MaterialModel(rho=1000.0, mu=4e5, lam=6e5, arms=())
    space, ops = _annulus_problem(mat)
    pressure = 1234.0
    a = -pressure / (2 * mat.mu + 3 * mat.lam)
    u0 = space.interpolate(lambda x: a * x)  # sigma = -p * I
    state = State(0.0, np.zeros(space.n_dofs), u0, ())
    nodes, p_vals = compute_contact_pressure(state, space, "inner", mat)
    assert len(nodes) > 0
    assert np.abs(p_vals - pressure).max() < 1e-8 * pressure


def test_contact_pressure_zero_state():
    mat = MaterialModel(rho=1000.0, mu=4e5, lam=6e5, arms=())
    space, ops = _annulus_problem(mat)
    state = State.zero(space, 0)
    _, p_vals = compute_contact_pressure(state, space, "inner", mat)
    assert np.abs(p_vals).max() == 0.0


def test_contact_pressure_single_element_hand_value():
    # one-element prescribed linear displacement: sigma from the Hooke +
    # deviatoric terms evaluated by hand
    mat = MaterialModel(rho=1000.0, mu=4e5, lam=6e5, arms=((2e5, 0.1),))
    space, ops = _annulus_problem(mat)
    B = np.array([[0.002, 0.001, 0.0], [0.0, -0.003, 0.0005], [0.001, 0.0, 0.004]])
    C = np.array([[0.001, 0.0, -0.002], [0.0005, 0.002, 0.0], [0.0, 0.001, -0.001]])
    u0 = space.interpolate(lambda x: x @ B.T)
    uve = space.interpolate(lambda x: x @ C.T)
    state = State(0.0, np.zeros(space.n_dofs), u0, (uve,))
    eps = 0.5 * (B + B.T)
    sig = 2 * mat.mu * eps + mat.lam * np.trace(eps) * np.eye(3)
    epsv = 0.5 * (C + C.T)
    sig += mat.arms[0].kappa * (epsv - np.trace(epsv) / 3 * np.eye(3))
    nodes, p_vals = compute_contact_pressure(state, space, "inner", mat)
    # sigma is constant, so the facet quadrature is exact: the nodal value
    # must equal the area-weighted mean of -n_f.sigma.n_f over the node's
    # adjacent inner facets, with sigma hand-computed above
    mesh = space.mesh
    inner = mesh.facets_with_label("inner")
    normals = mesh.facet_normals()
    areas = mesh.facet_areas()
    acc_v = {int(nd): 0.0 for nd in nodes}
    acc_a = {int(nd): 0.0 for nd in nodes}
    for f in inner:
        pf = -normals[f] @ sig @ normals[f]
        for nd in space.facet_scalar_dofs(int(f)):
            acc_v[int(nd)] += areas[f] * pf
            acc_a[int(nd)] += areas[f]
    expect = np.array([acc_v[int(nd)] / acc_a[int(nd)] for nd in nodes])
    scale = np.abs(expect).max()
    assert np.abs(p_vals - expect).max() < 1e-12 * scale


def test_contact_pressure_requires_slip_surface():
    mat = MaterialModel(rho=1000.0, mu=4e5, lam=6e5, arms=())
    space, ops = _annulus_problem(mat)
    state = State.zero(space, 0)
    with pytest.raises(ValueError):
        compute_contact_pressure(state, space, "shaft", mat)


def test_static_expansion_axisymmetric_pressure():
    # expansion only (no orbit): pressure uniform along theta by symmetry
    mat = MaterialModel.from_engineering(1100.0, 0.5e6, 0.39, arms=())
    space, ops = _annulus_problem(mat, divisions=(3, 16, 3), p=2)
    u_n = seal_normal_value(0.006, 0.01, 0.0, omega=1.0)
    con = Constraints(space, {"outer": DirichletBC((0.0, 0.0, 0.0)),
                              "inner": SlipBC(u_n)})
    u0 = static_solve(ops, con, solver=DIRECT)
    state = State(0.0, np.zeros(space.n_dofs), u0, ())
    nodes, p_vals = compute_contact_pressure(state, space, "inner", mat)
    assert p_vals.min() > 0  # compressed everywhere
    coords = space.dof_coords[nodes]
    n_t = 16
    # exact discrete symmetry: rotating one sector permutes the surface
    # nodes, so pressures must match under that permutation
    phi = np.arctan2(coords[:, 1], coords[:, 0])
    key = {
        (round(((ph + 2 * np.pi) % (2 * np.pi)) / (2 * np.pi / n_t) * 2) % (2 * n_t),
         round(z, 12)): v
        for ph, z, v in zip(phi, coords[:, 2], p_vals)
    }
    for (sector, z), v in key.items():
        rotated = key[((sector + 2) % (2 * n_t), z)]
        assert abs(v - rotated) < 1e-9 * abs(v)
    # across node classes the spread is polygonal discretization noise
    for z in np.unique(np.round(coords[:, 2], 12)):
        ring = p_vals[np.abs(coords[:, 2] - z) < 1e-12]
        assert ring.std() < 0.05 * ring.mean()


def test_seal_sweep_config_validation():
    with pytest.raises(ConfigError):
        SealSweepConfig(frequencies=(0.0,))
    with pytest.raises(ConfigError):
        SealSweepConfig(cycles=1, measure_cycles=2)


def test_seal_scenario_tiny(tmp_path):
    body = """
[run]
scenario = seal
[geometry]
kind = annulus
divisions = 2 8 2
[material]
rho = 1100
E = 0.5e6
nu = 0.39
arms = 3.5e6:1e-2
[discretization]
p = 1
[solver]
method = direct
direct_threshold = 100000
[output]
vtk_stride = 1
[seal]
frequencies = 2.0
stations = 0.5
cycles = 1
measure_cycles = 1
steps_per_cycle = 8
"""
    path = write_cfg(tmp_path, body)
    out = tmp_path / "o"
    assert main(["seal", "--config", path, "--out", str(out)]) == 0
    lines = (out / "seal_pressure.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,station,p_min,p_max"
    assert len(lines) == 2
    omega, station, p_min, p_max = (float(tok) for tok in lines[1].split(","))
    assert omega == 2.0 and p_min <= p_max
    vtk = (out / "seal_omega_2.vtk").read_text()
    assert "contact_pressure" in vtk and "von_mises" in vtk


def test_convergence_worker_pool_matches_sequential(tmp_path):
    body = """
[run]
scenario = convergence
[material]
rho = 100
E = 1e5
nu = 0.3
[time]
T = 0.25
[solver]
method = direct
[convergence]
h = 0.5 0.25
k = 0.125
p = 1
"""
    path = write_cfg(tmp_path, body)
    out1, out2 = tmp_path / "seq", tmp_path / "par"
    assert main(["convergence", "--config", path, "--out", str(out1)]) == 0
    assert main(["convergence", "--config", path, "--out", str(out2),
                 "--threads", "2"]) == 0
    seq = (out1 / "convergence.csv").read_text().splitlines()
    par = (out2 / "convergence.csv").read_text().splitlines()
    # identical up to wall-clock timing in the last column
    strip = lambda lines: [",".join(l.split(",")[:-1]) for l in lines]
    assert strip(seq) == strip(par)


def test_run_entry_point(tmp_path):
    from viscofem.cli import run

    cfg = parse_config(write_cfg(tmp_path, BASE_CONSERVE))
    assert run(cfg, tmp_path / "out") == 0
    assert (tmp_path / "out" / "energy_ledger.csv").exists()


@pytest.mark.parametrize(
    "key, value", [("rho", "-1"), ("rho", "nan"), ("arms", "nan:1")]
)
def test_invalid_material_value_exit_code(tmp_path, capsys, key, value):
    lines = [
        f"{key} = {value}" if line.startswith(f"{key} =") else line
        for line in BASE_CONSERVE.splitlines()
    ]
    path = write_cfg(tmp_path, "\n".join(lines) + "\n")
    code = main(["conserve", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "[material]" in capsys.readouterr().err


def test_unknown_convergence_reference_exit_code(tmp_path):
    body = """
[run]
scenario = convergence
[material]
rho = 100
E = 1e5
nu = 0.3
[convergence]
h = 0.5
k = 0.25
p = 1
reference = fine
"""
    path = write_cfg(tmp_path, body)
    assert main(["convergence", "--config", path, "--out", str(tmp_path / "o")]) == 2


BASE_SINGLE = """
[run]
scenario = single
[geometry]
n = 1
[material]
rho = 100
E = 1e5
nu = 0.3
arms = 1e5:1e-2
[time]
t = 0.25
k = 0.125
[discretization]
p = 1
[solver]
method = direct
[output]
csv = false
"""


def _with(body, section, key, value):
    """``body`` with ``key = value`` in place of that key's line in
    ``[section]``."""
    out, current = [], None
    for line in body.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
        elif current == section and line.split("=")[0].strip() == key:
            line = f"{key} = {value}"
        out.append(line)
    return "\n".join(out) + "\n"


def test_single_base_config_runs(tmp_path):
    path = write_cfg(tmp_path, BASE_SINGLE)
    assert main(["single", "--config", path, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "key, value", [("t", "nan"), ("k", "nan"), ("t", "inf"), ("k", "-inf")]
)
def test_non_finite_time_value_exit_code(tmp_path, capsys, key, value):
    path = write_cfg(tmp_path, _with(BASE_SINGLE, "time", key, value))
    code = main(["single", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"'{key}' in [time] must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["single", "conserve"])
@pytest.mark.parametrize("key, value", [("k", "0"), ("k", "-0.125"), ("t", "0")])
def test_out_of_range_time_value_exit_code(tmp_path, capsys, scenario, key, value):
    base = {"single": BASE_SINGLE, "conserve": BASE_CONSERVE}[scenario]
    body = _with(base.replace("T = ", "t = "), "time", key, value)
    assert f"{key} = {value}" in body
    code = main([scenario, "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_non_finite_number_list_exit_code(tmp_path):
    body = BASE_CONSERVE.replace("[conserve]", "[conserve]\ndisplacement = 0 0 nan")
    path = write_cfg(tmp_path, body)
    assert main(["conserve", "--config", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("method", ["bogus", "dense"])
def test_unknown_solver_method_exit_code(tmp_path, capsys, method):
    path = write_cfg(tmp_path, _with(BASE_SINGLE, "solver", "method", method))
    code = main(["single", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "[solver]" in capsys.readouterr().err
