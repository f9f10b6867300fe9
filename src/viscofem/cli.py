"""Command line entry point: scenario configuration, orchestration, and
file output.

Scenarios
---------
convergence : manufactured-solution sweep over (h, k, p); writes the
              error table CSV and prints observed rates.
conserve    : held-then-released cube; writes the energy ledger CSV.
seal        : radial shaft seal frequency sweep; writes min/max contact
              pressure per probe station.
single      : one manufactured run at the configured (h, k, p); writes
              the energy ledger, prints end-time errors, optional VTK.

The config file is INI-style sections of typed key = value entries; see
configs/example.cfg for the normative, fully commented reference. Exit
codes: 0 success, 2 config error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .assembly import recover_nodal_stress, surface_strain_maps, von_mises
from .dynamics import (
    LinearSolver,
    OperatorSet,
    SolverError,
    State,
    TimeGrid,
    simulate,
    static_solve,
)
from .fespace import Constraints, DirichletBC, FeSpace, SlipBC, reference_nodes
from .material import MaterialModel
from .mesh import build_annulus_mesh
from .verify import (
    ConserveConfig,
    ManufacturedSolution,
    conservation_experiment,
    convergence_study,
    cube_cells,
    error_norms,
    step_count,
    unit_cube_problem,
    write_ledger_csv,
)
from .vtkio import write_vtk


class ConfigError(ValueError):
    pass


# -- typed config access ----------------------------------------------------


class Section:
    def __init__(self, name, data):
        self.name = name
        self.data = dict(data)

    def _raw(self, key, default):
        if key in self.data:
            return self.data[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing key '{key}' in section [{self.name}]")
        return default

    def get_float(self, key, default=None):
        raw = self._raw(key, default)
        if raw is None:
            return raw
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(
                f"key '{key}' in [{self.name}] must be a number, got {raw!r}"
            ) from None
        if not np.isfinite(val):
            raise ConfigError(
                f"key '{key}' in [{self.name}] must be finite, got {raw!r}"
            )
        return val

    def get_int(self, key, default=None):
        val = self.get_float(key, default)
        if val is None:
            return None
        if val != int(val):
            raise ConfigError(f"key '{key}' in [{self.name}] must be an integer")
        return int(val)

    def get_bool(self, key, default=None):
        raw = self._raw(key, default)
        if raw is None or isinstance(raw, bool):
            return raw
        low = str(raw).strip().lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"key '{key}' in [{self.name}] must be a boolean")

    def get_str(self, key, default=None):
        raw = self._raw(key, default)
        return raw if raw is None else str(raw).strip()

    def get_floats(self, key, default=None):
        raw = self._raw(key, default)
        if raw is None or isinstance(raw, (tuple, list)):
            return raw
        try:
            vals = tuple(float(tok) for tok in str(raw).replace(",", " ").split())
        except ValueError:
            raise ConfigError(
                f"key '{key}' in [{self.name}] must be a list of numbers"
            ) from None
        if not vals or not np.all(np.isfinite(vals)):
            raise ConfigError(
                f"key '{key}' in [{self.name}] must hold one or more finite numbers"
            )
        return vals

    def get_ints(self, key, default=None):
        vals = self.get_floats(key, default)
        if vals is None:
            return None
        if any(v != int(v) for v in vals):
            raise ConfigError(f"key '{key}' in [{self.name}] must be integers")
        return tuple(int(v) for v in vals)


_REQUIRED = object()


@dataclass
class RunConfig:
    scenario: str
    sections: dict

    def section(self, name):
        return Section(name, self.sections.get(name, {}))


def parse_config(path):
    """Parse the INI-style run configuration."""
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    sections = {name: dict(parser[name]) for name in parser.sections()}
    run = Section("run", sections.get("run", {}))
    scenario = run.get_str("scenario", None)
    if scenario not in (None, "convergence", "conserve", "seal", "single"):
        raise ConfigError(f"unknown scenario {scenario!r} in [run]")
    return RunConfig(scenario, sections)


def material_from_config(cfg: RunConfig) -> MaterialModel:
    sec = cfg.section("material")
    rho = sec.get_float("rho", _REQUIRED)
    mu = sec.get_float("mu")
    lam = sec.get_float("lam")
    E = sec.get_float("e")
    nu = sec.get_float("nu")
    arms = []
    arms_raw = sec.get_str("arms", "")
    if arms_raw:
        for tok in arms_raw.replace(",", " ").split():
            try:
                kappa, tau = tok.split(":")
                arms.append((float(kappa), float(tau)))
            except ValueError:
                raise ConfigError(
                    f"arm entry {tok!r} must look like kappa:tau"
                ) from None
    try:
        if mu is not None and lam is not None:
            return MaterialModel(rho, mu, lam, tuple(arms))
        if E is not None and nu is not None:
            return MaterialModel.from_engineering(rho, E, nu, tuple(arms))
    except ValueError as exc:
        raise ConfigError(f"[material]: {exc}") from None
    raise ConfigError("[material] needs either mu & lam or E & nu")


def solver_from_config(cfg: RunConfig) -> LinearSolver:
    sec = cfg.section("solver")
    method = sec.get_str("method", "auto")
    rtol = sec.get_float("tolerance", 1e-12)
    try:
        return LinearSolver(method, rtol)
    except ValueError as exc:
        raise ConfigError(f"[solver]: {exc}") from None


# -- contact pressure -------------------------------------------------------


def compute_contact_pressure(state: State, space: FeSpace, slip_label,
                             material: MaterialModel):
    """Nodal contact pressure on a slip surface, compression positive.

    The normal stress n.sigma.n of sigma = sigma_E(u0) + dev eps(w), with
    w = sum_m kappa_m u_ve_m, is 2 mu n.eps(u0).n + lam div u0 + n.eps(w).n
    - div w / 3. Its facet means, area-averaged onto the surface nodes, are
    so two cached linear maps (``surface_strain_maps``) of combinations
    of u0 and w.

    Returns (node_indices, pressures).
    """
    if len(space.mesh.facets_with_label(slip_label)) == 0:
        raise ValueError(f"no facets labelled {slip_label!r}")
    nodes, normal, div = surface_strain_maps(space, slip_label)
    u0, w = state.u0, material.kappa @ state.uve
    return nodes, -(normal @ (2.0 * material.mu * u0 + w) + div @ (material.lam * u0 - w / 3.0))


# -- seal scenario ----------------------------------------------------------


@dataclass
class SealSweepConfig:
    frequencies: tuple = (1.0, 15.0)
    expansion: float = 0.01  # cylindrical expansion, fraction of r_in
    amplitude: float = 0.001  # orbit amplitude, fraction of r_in
    stations: tuple = (0.02, 0.25, 0.5)  # axial fractions of the length
    cycles: int = 3
    measure_cycles: int = 1
    steps_per_cycle: int = 40
    eccentricity: float = 1.0

    def __post_init__(self):
        if not self.frequencies or any(w <= 0 for w in self.frequencies):
            raise ConfigError("seal needs one or more frequencies, all positive")
        if not self.stations or any(not 0.0 <= s <= 1.0 for s in self.stations):
            raise ConfigError("seal needs one or more stations, all in [0, 1]")
        if not 1 <= self.measure_cycles <= self.cycles:
            raise ConfigError("measure_cycles must lie in 1 .. cycles")
        if len({f"{w:g}" for w in self.frequencies}) < len(self.frequencies):
            raise ConfigError("seal frequencies must differ in 6 significant digits, "
                              "which name their VTK files")


def seal_normal_value(r_in, expansion, amplitude, omega, eccentricity=1.0):
    """Prescribed displacement along the stored inner-surface normal.

    The physical radial displacement is dR + orbit projection; the stored
    outward normal points toward the axis, so the prescribed frame value
    is its negative.
    """
    dr = expansion * r_in
    amp = amplitude * r_in

    def u_n(x, t):
        theta = np.arctan2(x[:, 1], x[:, 0])
        phase = 2.0 * np.pi * omega * t
        radial = dr + amp * (
            np.cos(theta) * np.cos(phase) + eccentricity * np.sin(theta) * np.sin(phase)
        )
        return -radial

    return u_n


def _seal_constraints(space, r_in, sweep: SealSweepConfig, omega):
    """Clamped outer surface, inner surface sliding on the orbit of
    frequency omega."""
    u_n = seal_normal_value(
        r_in, sweep.expansion, sweep.amplitude, omega, sweep.eccentricity
    )
    return Constraints(
        space, {"outer": DirichletBC((0.0, 0.0, 0.0)), "inner": SlipBC(u_n)}
    )


def run_seal_frequency(space, ops, material, r_in, sweep: SealSweepConfig,
                       omega, solver, probe_nodes, u0):
    """Simulate one frequency from rest at the static displacement u0;
    returns per-probe (min, max) pressure over the measured final cycles."""
    con = _seal_constraints(space, r_in, sweep, omega)
    state0 = replace(State.zero(space, material.n_arms), u0=u0)
    n_steps = sweep.cycles * sweep.steps_per_cycle
    grid = TimeGrid.uniform(0.0, sweep.cycles / omega, n_steps)
    measure_from = n_steps - sweep.measure_cycles * sweep.steps_per_cycle
    records = []
    count = [0]

    def probe(state):
        count[0] += 1
        if count[0] >= measure_from:
            nodes, p = compute_contact_pressure(state, space, "inner", material)
            lookup = dict(zip(nodes.tolist(), p))
            records.append([lookup[nd] for nd in probe_nodes])

    res = simulate(ops, con, grid, state0=state0, solver=solver, callback=probe)
    arr = np.array(records)
    return arr.min(axis=0), arr.max(axis=0), res.final


def seal_probe_nodes(space, stations, length):
    """Inner-surface node nearest (theta=0, z=frac*length) per station."""
    inner_nodes = space.label_nodes("inner")
    coords = space.dof_coords[inner_nodes]
    theta = np.abs(np.arctan2(coords[:, 1], coords[:, 0]))
    nodes = []
    for frac in stations:
        score = theta + np.abs(coords[:, 2] - frac * length) / max(length, 1e-30)
        nodes.append(int(inner_nodes[np.argmin(score)]))
    return nodes


def seal_sweep(sweep: SealSweepConfig, cfg: RunConfig, out_dir: Path):
    """Frequency sweep; writes omega,station,p_min,p_max rows."""
    geo = cfg.section("geometry")
    r_in = geo.get_float("r_inner", 0.006)
    r_out = geo.get_float("r_outer", 0.01)
    length = geo.get_float("length", 0.02)
    divisions = geo.get_ints("divisions", (4, 24, 5))
    p = cfg.section("discretization").get_int("p", 2)
    material = material_from_config(cfg)
    solver = solver_from_config(cfg)
    vtk_stride = cfg.section("output").get_int("vtk_stride", 0)

    space = FeSpace(build_annulus_mesh(r_in, r_out, length, divisions), p)
    ops = OperatorSet(space, material)
    probes = seal_probe_nodes(space, sweep.stations, length)
    # the orbit's phase 2 pi omega t is 0 at t = 0 for every omega, so one
    # static pre-solve serves the whole sweep
    u0 = static_solve(ops, _seal_constraints(space, r_in, sweep, sweep.frequencies[0]),
                      solver=solver, t=0.0)
    results = [
        run_seal_frequency(space, ops, material, r_in, sweep, omega, solver, probes, u0)
        for omega in sweep.frequencies
    ]
    rows = []
    for omega, (pmin, pmax, _) in zip(sweep.frequencies, results):
        for station, lo, hi in zip(sweep.stations, pmin, pmax):
            rows.append((omega, station, lo, hi))
    if vtk_stride:
        for omega, (_, _, final) in zip(sweep.frequencies, results):
            vectors, scalars = _vtk_fields(space, final, material)
            nodes, p_vals = compute_contact_pressure(final, space, "inner", material)
            pressure = np.zeros(space.n_scalar_dofs)
            pressure[nodes] = p_vals
            scalars["contact_pressure"] = pressure[: space.mesh.n_vertices]
            write_vtk(
                space.mesh, out_dir / f"seal_omega_{omega:g}.vtk", vectors, scalars
            )
    path = out_dir / "seal_pressure.csv"
    with open(path, "w") as fh:
        fh.write("omega,station,p_min,p_max\n")
        for omega, station, lo, hi in rows:
            fh.write(
                f"{float(omega)!r},{float(station)!r},{float(lo)!r},{float(hi)!r}\n"
            )
    return path, rows


# -- scenario runners -------------------------------------------------------


def _vtk_fields(space, state, material):
    nv = space.mesh.n_vertices
    sigma = recover_nodal_stress(space, material, state.u0, state.uve)[:nv]
    return (
        {
            "displacement": state.u0.reshape(-1, 3)[:nv],
            "velocity": state.u1.reshape(-1, 3)[:nv],
        },
        {"von_mises": von_mises(sigma)},
    )


def run_convergence(cfg: RunConfig, out_dir: Path):
    sec = cfg.section("convergence")
    hs = sec.get_floats("h", (0.5, 0.25))
    ks = sec.get_floats("k", (0.25, 0.125))
    ps = sec.get_ints("p", (1,))
    reference = sec.get_str("reference", "exact")
    if reference not in ("exact", "fine_k"):
        raise ConfigError(
            f"[convergence] reference must be exact or fine_k, got {reference!r}"
        )
    end_time = cfg.section("time").get_float("t", 1.0)
    material = material_from_config(cfg)
    solver = solver_from_config(cfg)
    # a sweep row records its failure and the sweep goes on, so sizes and
    # degrees that cannot run are config errors found before any row starts
    for h in hs:
        cube_cells(h)
    for k in ks:
        step_count(k, end_time)
    for p in ps:
        reference_nodes(p)
    cases = [(h, k, p) for p in ps for h in hs for k in ks]
    table = convergence_study(
        material, cases, end_time=end_time, solver=solver, reference=reference
    )
    path = out_dir / "convergence.csv"
    table.to_csv(path)
    print(f"wrote {path}")
    for axis in ("h", "k"):
        vals = {getattr(r, axis) for r in table.ok_rows()}
        if len(vals) > 1:
            for col in ("energy_error", "l2_error"):
                rates = table.rates(axis, col)
                pretty = ", ".join(
                    f"{r:.2f}{' (saturated)' if s else ''}" for r, s in rates
                )
                print(f"observed {col} rates vs {axis}: {pretty}")
    failures = [r for r in table.rows if r.failure]
    for r in failures:
        print(f"row h={r.h} k={r.k} p={r.p} failed: {r.failure}", file=sys.stderr)
    if failures:
        raise SolverError(f"{len(failures)} sweep rows failed")
    return 0


def run_conserve(cfg: RunConfig, out_dir: Path):
    sec = cfg.section("conserve")
    geo = cfg.section("geometry")
    time_sec = cfg.section("time")
    config = ConserveConfig(
        n=geo.get_int("n", 5),
        p=cfg.section("discretization").get_int("p", 2),
        k=time_sec.get_float("k", 0.01),
        end_time=time_sec.get_float("t", 0.5),
        release_time=sec.get_float("release_time", 0.1),
        hold_span=sec.get_float("hold_span", 0.4),
        displacement=sec.get_floats("displacement", (0.0, 0.0, 0.2)),
        material=material_from_config(cfg),
        solver=solver_from_config(cfg),
    )
    result = conservation_experiment(config)
    if cfg.section("output").get_bool("csv", True):
        path = out_dir / "energy_ledger.csv"
        result.to_csv(path)
        print(f"wrote {path}")
    first = result.ledger[0]
    last = result.ledger[-1]
    total0 = first.total + first.dissipated
    drift = max(
        abs(rec.total + rec.dissipated - total0) / total0 for rec in result.ledger
    )
    print(f"initial energy {total0!r}, worst relative drift {drift:.3e}")
    print(
        f"final split: kinetic {last.kinetic:.6g} elastic {last.elastic:.6g} "
        f"viscoelastic {last.viscoelastic_total:.6g} dissipated {last.dissipated:.6g}"
    )
    return 0


def run_seal(cfg: RunConfig, out_dir: Path):
    sec = cfg.section("seal")
    sweep = SealSweepConfig(
        frequencies=sec.get_floats("frequencies", (1.0, 15.0)),
        expansion=sec.get_float("expansion", 0.01),
        amplitude=sec.get_float("amplitude", 0.001),
        stations=sec.get_floats("stations", (0.02, 0.25, 0.5)),
        cycles=sec.get_int("cycles", 3),
        measure_cycles=sec.get_int("measure_cycles", 1),
        steps_per_cycle=sec.get_int("steps_per_cycle", 40),
        eccentricity=sec.get_float("eccentricity", 1.0),
    )
    path, rows = seal_sweep(sweep, cfg, out_dir)
    print(f"wrote {path}")
    for omega, station, lo, hi in rows:
        print(f"omega={omega:g} station={station:g}: p in [{lo:.6g}, {hi:.6g}]")
    return 0


def run_single(cfg: RunConfig, out_dir: Path):
    geo = cfg.section("geometry")
    time_sec = cfg.section("time")
    n = geo.get_int("n", 4)
    p = cfg.section("discretization").get_int("p", 1)
    k = time_sec.get_float("k", 0.125)
    end_time = time_sec.get_float("t", 1.0)
    n_steps = step_count(k, end_time)
    material = material_from_config(cfg)
    solver = solver_from_config(cfg)
    ops, con = unit_cube_problem(material, n, p)
    exact = ManufacturedSolution(material)
    result = simulate(
        ops, con, TimeGrid.uniform(0.0, end_time, n_steps),
        loads=exact.loads(), solver=solver,
    )
    e_err, l2_err = error_norms(result.final, exact, ops)
    print(f"end-time energy error {e_err!r}")
    print(f"end-time L2 error {l2_err!r}")
    out = cfg.section("output")
    if out.get_bool("csv", True):
        path = out_dir / "energy_ledger.csv"
        write_ledger_csv(result.ledger, path)
        print(f"wrote {path}")
    if out.get_int("vtk_stride", 0):
        vectors, scalars = _vtk_fields(ops.space, result.final, material)
        vtk_path = out_dir / "single_final.vtk"
        write_vtk(ops.space.mesh, vtk_path, vectors, scalars)
        print(f"wrote {vtk_path}")
    return 0


_SCENARIOS = {
    "convergence": run_convergence,
    "conserve": run_conserve,
    "seal": run_seal,
    "single": run_single,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="viscofem",
        description="Dynamic simulation of generalized-Maxwell viscoelastic solids",
    )
    parser.add_argument("scenario", choices=sorted(_SCENARIOS))
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if cfg.scenario is not None and cfg.scenario != args.scenario:
            raise ConfigError(
                f"config declares scenario {cfg.scenario!r}, "
                f"command line asked for {args.scenario!r}"
            )
        out_dir = Path(
            args.out or cfg.section("output").get_str("directory", "out")
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        return _SCENARIOS[args.scenario](cfg, out_dir)
    except (ValueError, OSError) as exc:  # bad config or input, or unusable output
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an input too large for this host
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
