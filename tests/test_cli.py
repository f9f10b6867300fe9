"""CLI scenarios, config handling, output files, and contact pressure."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from viscofem.vtkio import write_vtk

DIRECT = LinearSolver(method="direct")


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def vtk_counts(path):
    """(points, cells) from the POINTS and CELLS header lines of a legacy
    VTK file."""
    counts = {}
    for line in path.read_text().splitlines():
        key, _, rest = line.partition(" ")
        if key in ("POINTS", "CELLS"):
            counts[key] = int(rest.split()[0])
    return counts["POINTS"], counts["CELLS"]


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


@pytest.mark.parametrize("blocked", ["directory", "file"])
def test_unusable_output_location_exit_code(tmp_path, capsys, blocked):
    # an output directory below a regular file cannot be created; a
    # directory where the ledger CSV goes cannot be written as a file
    path = write_cfg(tmp_path, BASE_CONSERVE)
    if blocked == "directory":
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "sub"
    else:
        out = tmp_path / "o"
        (out / "energy_ledger.csv").mkdir(parents=True)
    assert main(["conserve", "--config", path, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


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


BASE_CONVERGENCE = """
[run]
scenario = convergence
[material]
rho = 100
E = 1e5
nu = 0.3
[solver]
method = direct
[convergence]
h = 0.5
k = 0.25
p = 1
"""


def test_convergence_row_failure_exit_code(tmp_path, monkeypatch):
    # CG capped at one iteration fails the row's first solve
    from viscofem import dynamics

    monkeypatch.setattr(dynamics, "CG_ITERATION_FACTOR", 1e-9)
    body = _with(BASE_CONVERGENCE, "solver", "method", "cg")
    path = write_cfg(tmp_path, body)
    assert main(["convergence", "--config", path, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("key, value", [("h", "0.3"), ("h", "0"), ("k", "0.3")])
def test_convergence_size_off_grid_exit_code(tmp_path, capsys, key, value):
    path = write_cfg(tmp_path, _with(BASE_CONVERGENCE, "convergence", key, value))
    assert main(["convergence", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o" / "convergence.csv").exists()


@pytest.mark.parametrize("key, value, message", [
    ("p", "0", "unsupported polynomial degree"),
    ("p", "5", "unsupported polynomial degree"),
    ("h", "", "one or more finite numbers"),
    ("p", "", "one or more finite numbers"),
], ids=["p-zero", "p-five", "no-h", "no-p"])
def test_convergence_degree_or_empty_list_exit_code(tmp_path, capsys, key, value,
                                                    message):
    path = write_cfg(tmp_path, _with(BASE_CONVERGENCE, "convergence", key, value))
    assert main(["convergence", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "convergence.csv").exists()


def test_conserve_hold_span_without_lid_facet_exit_code(tmp_path, capsys):
    body = _with(BASE_CONSERVE, "conserve", "hold_span", "-1")
    code = main(["conserve", "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "'held'" in capsys.readouterr().err


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
    n_pts, n_cells = vtk_counts(out / "single_final.vtk")
    assert n_pts == 27 and n_cells == 48


def test_write_vtk_roundtrip_and_zero_fields(tmp_path):
    mesh = build_box_mesh(2)
    path = tmp_path / "m.vtk"
    zeros = np.zeros((mesh.n_vertices, 3))
    write_vtk(mesh, path, {"displacement": zeros}, {"von_mises": zeros[:, 0]})
    n_pts, n_cells = vtk_counts(path)
    assert n_pts == mesh.n_vertices and n_cells == mesh.n_tets
    text = path.read_text()
    assert "VECTORS displacement double" in text
    assert "SCALARS von_mises double 1" in text
    with pytest.raises(ValueError):
        write_vtk(mesh, path, {"bad": np.zeros((3, 3))})


def read_vtk_arrays(path):
    """The POINTS, VECTORS and SCALARS blocks of a legacy VTK file by name
    ('POINTS' for the coordinates), every value parsed with ``float``."""
    lines = path.read_text().splitlines()
    arrays, n_points, i = {}, 0, 0
    while i < len(lines):
        head = lines[i].split()
        i += 1
        if head[0] == "POINTS":
            n_points, name = int(head[1]), "POINTS"
        elif head[0] in ("VECTORS", "SCALARS"):
            name = head[1]
            i += head[0] == "SCALARS"  # the LOOKUP_TABLE line
        else:
            continue
        rows = np.array([[float(tok) for tok in line.split()]
                         for line in lines[i : i + n_points]])
        arrays[name] = rows[:, 0] if head[0] == "SCALARS" else rows
        i += n_points
    return arrays


def test_write_vtk_values_parse_as_floats_and_round_trip(tmp_path):
    mesh = build_box_mesh(2)
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((mesh.n_vertices, 3)) * 1e-5
    scalars = rng.standard_normal(mesh.n_vertices) * 1e7
    path = tmp_path / "m.vtk"
    write_vtk(mesh, path, {"velocity": vectors}, {"pressure": scalars})
    arrays = read_vtk_arrays(path)
    assert sorted(arrays) == ["POINTS", "pressure", "velocity"]
    assert np.array_equal(arrays["POINTS"], mesh.vertices)
    assert np.array_equal(arrays["velocity"], vectors)
    assert np.array_equal(arrays["pressure"], scalars)


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


@pytest.mark.parametrize("p", [1, 2])
def test_contact_pressure_equals_facet_loop(p):
    # the pressures come from cached linear maps, which sum in another
    # order than the stress at the facet points does
    from viscofem.assembly import _evaluate_field, facet_data, stress_from_gradients

    mat = MaterialModel.from_engineering(1100.0, 0.5e6, 0.39,
                                         arms=((3.5e6, 1e-2), (2.5e5, 1.0)))
    space, _ = _annulus_problem(mat, p=p)
    rng = np.random.default_rng(p)
    u0, *uve = (rng.standard_normal(space.n_dofs) * 1e-5 for _ in range(3))
    state = State(0.0, np.zeros(space.n_dofs), u0, tuple(uve))
    nodes, p_vals = compute_contact_pressure(state, space, "inner", mat)
    # oracle: the facet means averaged onto the nodes one facet at a time
    fd = facet_data(space, degree=2 * p, label="inner")

    def gradient(u):
        return _evaluate_field(fd.G, u.reshape(-1, 3)[fd.cell_dofs])

    sigma = stress_from_gradients(gradient(state.u0), gradient(mat.kappa @ state.uve),
                                  mat.mu, mat.lam)
    traction_n = np.einsum("fqab,fa,fb->fq", sigma, fd.normals, fd.normals)
    areas = fd.warea.sum(axis=1)
    facet_mean = -(fd.warea * traction_n).sum(axis=1) / areas
    acc_val = np.zeros(space.n_scalar_dofs)
    acc_area = np.zeros(space.n_scalar_dofs)
    for i, f in enumerate(fd.facets):
        nds = space.facet_scalar_dofs(int(f))
        acc_val[nds] += areas[i] * facet_mean[i]
        acc_area[nds] += areas[i]
    want_nodes = np.nonzero(acc_area > 0)[0]
    assert np.array_equal(nodes, want_nodes)
    want = acc_val[want_nodes] / acc_area[want_nodes]
    assert np.abs(p_vals - want).max() <= 1e-12 * np.abs(want).max()


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
    for bad in (dict(stations=(1.5,)), dict(stations=()), dict(frequencies=())):
        with pytest.raises(ConfigError):
            SealSweepConfig(**bad)


BASE_SEAL = """
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
[output]
vtk_stride = 1
[seal]
frequencies = 2.0
stations = 0.5
cycles = 1
measure_cycles = 1
steps_per_cycle = 8
"""


@pytest.mark.parametrize("key, value", [
    ("stations", "2"), ("stations", "-0.5"), ("stations", ""), ("frequencies", ""),
], ids=["station-past-end", "station-before-start", "no-stations", "no-frequencies"])
def test_seal_station_or_empty_list_exit_code(tmp_path, capsys, key, value):
    path = write_cfg(tmp_path, _with(BASE_SEAL, "seal", key, value))
    assert main(["seal", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o" / "seal_pressure.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("measure_cycles", "0"), ("measure_cycles", "-1"),
    ("frequencies", "2 2"), ("frequencies", "2 2.0000001"),
], ids=["no-measured-cycle", "negative-measured-cycles", "repeated-frequency",
        "frequencies-sharing-a-vtk-name"])
def test_seal_measure_cycles_or_frequency_names_exit_code(tmp_path, capsys, key, value):
    # a measured span outside 1 .. cycles has no min/max to take, and two
    # frequencies equal under :g would write one seal_omega_*.vtk file;
    # the message names the key, not a failure downstream of it
    path = write_cfg(tmp_path, _with(BASE_SEAL, "seal", key, value))
    assert main(["seal", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "o" / "seal_pressure.csv").exists()


def test_seal_scenario_tiny(tmp_path):
    path = write_cfg(tmp_path, BASE_SEAL)
    out = tmp_path / "o"
    assert main(["seal", "--config", path, "--out", str(out)]) == 0
    # a second run gives the same bytes: the factorization's order depends
    # only on the space
    assert main(["seal", "--config", path, "--out", str(tmp_path / "again")]) == 0
    assert ((out / "seal_pressure.csv").read_bytes()
            == (tmp_path / "again" / "seal_pressure.csv").read_bytes())
    lines = (out / "seal_pressure.csv").read_text().strip().splitlines()
    assert lines[0] == "omega,station,p_min,p_max"
    assert len(lines) == 2
    omega, station, p_min, p_max = (float(tok) for tok in lines[1].split(","))
    assert omega == 2.0 and p_min <= p_max
    vtk = (out / "seal_omega_2.vtk").read_text()
    assert "contact_pressure" in vtk and "von_mises" in vtk


def test_seal_writes_one_vtk_file_per_frequency(tmp_path):
    path = write_cfg(tmp_path, _with(BASE_SEAL, "seal", "frequencies", "2.0 3.0"))
    out = tmp_path / "o"
    assert main(["seal", "--config", path, "--out", str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == [
        "seal_omega_2.vtk", "seal_omega_3.vtk", "seal_pressure.csv"
    ]


def test_seal_sweep_solves_the_static_state_once(tmp_path, monkeypatch):
    # the prescribed surface value at t = 0 does not depend on the
    # frequency, so a sweep's frequencies share one static pre-solve and
    # give the rows and files of one-frequency sweeps bit for bit
    from viscofem import cli

    solves = [0]
    original = cli.static_solve

    def counting(*args, **kwargs):
        solves[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "static_solve", counting)
    path = write_cfg(tmp_path, _with(BASE_SEAL, "seal", "frequencies", "2.0 3.0"))
    assert main(["seal", "--config", path, "--out", str(tmp_path / "both")]) == 0
    assert solves[0] == 1
    rows = []
    for omega in ("2", "3"):
        out = tmp_path / omega
        out.mkdir()
        path = write_cfg(out, _with(BASE_SEAL, "seal", "frequencies", omega))
        assert main(["seal", "--config", path, "--out", str(out / "o")]) == 0
        rows += (out / "o" / "seal_pressure.csv").read_text().splitlines()[1:]
        vtk = f"seal_omega_{omega}.vtk"
        assert (tmp_path / "both" / vtk).read_bytes() == (out / "o" / vtk).read_bytes()
    assert (tmp_path / "both" / "seal_pressure.csv").read_text().splitlines()[1:] == rows


def test_removed_threads_option_exit_code(tmp_path):
    # an unknown option is a command-line error: argparse exits 2 before
    # any config is read
    path = write_cfg(tmp_path, BASE_SEAL)
    with pytest.raises(SystemExit) as exc:
        main(["seal", "--config", path, "--out", str(tmp_path / "o"), "--threads", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


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
    """``body`` with ``key = value`` in ``[section]``: in place of that
    key's line, or right after the section header when it has none."""
    out, current, replaced = [], None, False
    for line in body.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
        elif current == section and line.split("=")[0].strip() == key:
            line, replaced = f"{key} = {value}", True
        out.append(line)
    if not replaced:
        out.insert(out.index(f"[{section}]") + 1, f"{key} = {value}")
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
# t = 0.12 and 0.33 are off the time grid: with k = 0.05 and a release at
# 0.1 s, conserve's free phase would not end on a node
@pytest.mark.parametrize("key, value", [("k", "0"), ("k", "-0.125"), ("t", "0"),
                                        ("t", "0.12"), ("t", "0.33")])
def test_out_of_range_time_value_exit_code(tmp_path, capsys, scenario, key, value):
    base = {"single": BASE_SINGLE, "conserve": BASE_CONSERVE}[scenario]
    body = _with(base.replace("T = ", "t = "), "time", key, value)
    assert f"{key} = {value}" in body
    code = main([scenario, "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, edits", [
    ("single", [("time", "k", "1e-320")]),
    ("single", [("time", "t", "1e308"), ("time", "k", "0.1")]),
    ("conserve", [("time", "k", "1e-320")]),
    ("convergence", [("convergence", "h", "1e-320")]),
], ids=["single-tiny-k", "single-huge-t", "conserve-tiny-k", "convergence-tiny-h"])
def test_overflowing_count_exit_code(tmp_path, capsys, scenario, edits):
    # a step or cell count whose ratio overflows to inf holds in no int
    body = {"single": BASE_SINGLE, "conserve": BASE_CONSERVE.replace("T = ", "t = "),
            "convergence": BASE_CONVERGENCE}[scenario]
    for section, key, value in edits:
        body = _with(body, section, key, value)
    code = main([scenario, "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "overflows" in err


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


@pytest.mark.parametrize("method", ["cg", "direct"])
@pytest.mark.parametrize("tolerance", ["0", "-1", "1"])
def test_out_of_range_solver_tolerance_exit_code(tmp_path, capsys, method, tolerance):
    # CG to a relative residual <= 0 runs its whole iteration cap and fails,
    # and one >= 1 accepts its start vector: both are config errors
    body = _with(_with(BASE_SINGLE, "solver", "method", method),
                 "solver", "tolerance", tolerance)
    code = main(["single", "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "[solver]" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, edits", [
    ("single", [("geometry", "n", "0")]),
    ("single", [("discretization", "p", "4")]),
    ("seal", [("geometry", "r_inner", "0.02"), ("geometry", "r_outer", "0.01")]),
    ("seal", [("geometry", "divisions", "1 2 1")]),
    ("seal", [("seal", "steps_per_cycle", "0")]),
], ids=["n-zero", "p-four", "radii-swapped", "theta-two", "no-steps"])
def test_library_input_error_exit_code(tmp_path, capsys, scenario, edits):
    body = {"single": BASE_SINGLE, "seal": BASE_SEAL}[scenario]
    for section, key, value in edits:
        body = _with(body, section, key, value)
    code = main([scenario, "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_state_exit_code(tmp_path, capsys):
    # E = 1e308 overflows the manufactured load
    path = write_cfg(tmp_path, _with(BASE_SINGLE, "material", "E", "1e308"))
    code = main(["single", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "non-finite energy" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, key, value", [
    ("conserve", "n", "1000000"),
    ("single", "n", "1000000"),
    ("seal", "divisions", "1000000 1000000 1000000"),
])
def test_out_of_memory_exit_code(tmp_path, capsys, scenario, key, value):
    # the mesh's node array would outgrow the 64-bit address space, so its
    # allocation fails before any memory is touched
    body = {"conserve": BASE_CONSERVE, "single": BASE_SINGLE, "seal": BASE_SEAL}[scenario]
    path = write_cfg(tmp_path, _with(body, "geometry", key, value))
    assert main([scenario, "--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory") and err.count("\n") == 1


def test_example_config_sets_only_keys_the_cli_reads(tmp_path, monkeypatch):
    # a documented setting that no scenario reads is stale: record every key
    # the CLI asks for while it runs the tiny base configs, without --out
    # and from a fresh working directory, so that [output] directory is read
    from pathlib import Path

    from viscofem import cli

    read = set()
    raw = cli.Section._raw

    def recording(self, key, default):
        read.add((self.name, key))
        return raw(self, key, default)

    monkeypatch.setattr(cli.Section, "_raw", recording)
    monkeypatch.chdir(tmp_path)
    for scenario, body in (("single", BASE_SINGLE), ("conserve", BASE_CONSERVE),
                           ("seal", BASE_SEAL), ("convergence", BASE_CONVERGENCE)):
        assert main([scenario, "--config", write_cfg(tmp_path, body)]) == 0
    assert (tmp_path / "out").is_dir()
    example = parse_config(Path(__file__).resolve().parents[1] / "configs" / "example.cfg")
    documented = {(name, key) for name, keys in example.sections.items() for key in keys}
    assert len(documented) > 30
    assert documented - read == set()


# values per (section, key) for the exit-code fuzz, which edits up to three
# keys of a tiny base config: valid values, and ones that are malformed,
# non-finite, out of range, empty, off the time grid, too large to
# allocate (a mesh whose arrays outgrow the 64-bit address space, so the
# allocation fails before any memory is touched) or so small or large that
# a step or cell count overflows. Marches stay short whatever is drawn: at
# most 20 steps each.
FUZZ_VALUES = {
    ("material", "rho"): ["100", "0", "-1", "nan"],
    ("material", "E"): ["1e5", "-1e5", "inf", "1e308"],
    ("material", "nu"): ["0.3", "0.5", "-1", "0.499"],
    ("material", "arms"): ["1e5:1e-2", "", "1e5:0", "1e5:-1", "3e4:0.3 1e3:5", "1e5"],
    ("solver", "method"): ["direct", "cg", "auto", "bogus"],
    ("solver", "tolerance"): ["1e-12", "0", "-1", "1"],
}
FUZZ_DEGREE_VALUES = {("discretization", "p"): ["1", "2", "0", "4"]}
FUZZ_MARCH_VALUES = {
    **FUZZ_DEGREE_VALUES,
    ("geometry", "n"): ["1", "2", "0", "-1", "1.5", "x", "1000000"],
    ("time", "t"): ["0.2", "0.3", "0", "-0.2", "0.33", "nan", "1e308"],
    ("time", "k"): ["0.05", "0.1", "0.07", "0", "-0.1", "inf", "1e-320"],
}
FUZZ_SCENARIO_VALUES = {
    "single": FUZZ_MARCH_VALUES,
    "conserve": {
        **FUZZ_MARCH_VALUES,
        ("conserve", "release_time"): ["0.1", "0", "0.12", "0.3", "-0.1"],
        ("conserve", "hold_span"): ["0.4", "-1", "2", "nan"],
        ("conserve", "displacement"): ["0 0 0.2", "0 0", "0 0 nan", "0 0 -5"],
    },
    "seal": {
        **FUZZ_DEGREE_VALUES,
        ("geometry", "divisions"): ["2 8 2", "1 8 1", "2 2 2", "0 8 2", "2 8", "2 8.5 2",
                                    "1000000 1000000 1000000"],
        ("geometry", "r_inner"): ["0.006", "0.02", "0", "-0.006"],
        ("geometry", "length"): ["0.02", "0", "-0.02", "inf"],
        ("seal", "frequencies"): ["2", "1 3", "2 2", "0", "-2", "", "nan"],
        ("seal", "stations"): ["0.5", "0 1", "0.25 0.5", "2", "-0.5", ""],
        ("seal", "cycles"): ["1", "2", "0", "-1", "1.5"],
        ("seal", "measure_cycles"): ["1", "0", "2", "-1"],
        ("seal", "steps_per_cycle"): ["8", "4", "10", "0", "-8"],
        ("seal", "expansion"): ["0.01", "0", "-2", "1e3"],
        ("seal", "eccentricity"): ["1", "0", "-3", "nan"],
        ("output", "vtk_stride"): ["1", "0"],
    },
    "convergence": {
        ("convergence", "h"): ["0.5", "1", "1 0.5", "0.3", "0", "", "1e-320"],
        ("convergence", "k"): ["0.25", "0.5", "0.5 0.25", "0.3", "-0.25", ""],
        ("convergence", "p"): ["1", "2", "1 2", "0", "5", ""],
        ("convergence", "reference"): ["exact", "fine_k", "fine"],
        ("time", "t"): ["1", "0.5", "0.3", "0", "-1"],
    },
}
FUZZ_BASES = {
    "single": BASE_SINGLE,
    "conserve": BASE_CONSERVE.replace("T = ", "t = "),
    "seal": BASE_SEAL,
    "convergence": BASE_CONVERGENCE + "[time]\nt = 1\n",
}


def _fuzz_config(draw):
    scenario = draw(st.sampled_from(sorted(FUZZ_BASES)))
    body = FUZZ_BASES[scenario]
    table = {**FUZZ_VALUES, **FUZZ_SCENARIO_VALUES[scenario]}
    edits = draw(st.lists(st.sampled_from(sorted(table)), max_size=3, unique=True))
    for section, key in edits:
        body = _with(body, section, key, draw(st.sampled_from(table[section, key])))
    return scenario, body


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_fuzzed_config_exit_code_in_contract(data):
    # any config exits 0 (ok), 2 (config error) or 3 (solver failure); an
    # uncaught exception, exit 1 from the command line, fails the test
    import tempfile
    from pathlib import Path

    scenario, body = _fuzz_config(data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(body)
        code = main([scenario, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3)


def test_package_import_leaves_out_scipy_integrate():
    # scipy.integrate adds about 16 MB to the peak RSS of every process, and
    # only the tests' convolution oracle uses it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import viscofem

    code = ("import sys, viscofem, viscofem.cli, viscofem.verify; "
            "print('scipy.integrate' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(viscofem.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
