"""The benchmark's three workloads.

Each workload calls the package's public functions in the order the CLI
scenario it mirrors calls them, so the benchmark can bracket the set-up,
march and post-processing phases from outside the package and time every
step through the public ``callback=`` argument of ``simulate``. The
fidelity tests in ``tests/`` check that each call sequence reproduces the
output of the function it mirrors bit for bit.

Library modules are used through their module attributes
(``dynamics.simulate``, not a local ``simulate``) so that the traced run,
which patches those attributes, sees every call.
"""
from __future__ import annotations

import math
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from viscofem import assembly, cli, dynamics, fespace, material, mesh, verify, vtkio

# ledger drift bound of acceptance criterion 1
DRIFT_BOUND = 1e-9
# relative agreement of the manufactured error norms with the recorded values
ERROR_RTOL = 1e-9
# agreement of the seal pressures with the recorded values, relative to the
# largest recorded pressure. The march solves with Jacobi-CG to a relative
# residual of 1e-12; another solver path to that tolerance moves the
# pressures by far less than this, a change of the model by far more.
PRESSURE_RTOL = 1e-8

DEFAULT_SEED = 0


def reference_material():
    """One-arm material of the manufactured study (1e5 Pa : 1e-2 s)."""
    return material.MaterialModel.from_engineering(
        100.0, 1e5, 0.3, arms=((1e5, 1e-2),)
    )


def seal_material():
    """Five-arm elastomer of the seal scenario."""
    return material.MaterialModel.from_engineering(
        1100.0, 0.5e6, 0.39,
        arms=((3.5e6, 1e-2), (4.0e6, 1e-1), (2.5e5, 1.0), (2.5e5, 1e1), (5.0e5, 1e2)),
    )


# Fixed interpreter and dense-numpy work timed between steps. Its run time
# tracks the speed of the host (see ``Rep.speed_scale``); it touches under
# 200 kB, so it leaves the workload's caches nearly as they were.
_CALIBRATION_MATRIX = np.random.default_rng(0).random((100, 100))
# seconds one calibration pass takes on the host the benchmark was written on
# (2-vCPU Intel Xeon KVM guest) in its fast state: scaled times are in
# seconds of that host at that speed
CALIBRATION_REFERENCE_S = 200e-6
SETUP_CALIBRATIONS = 20


def _calibration_pass():
    total = 0
    for i in range(3000):
        total += i * i
    _CALIBRATION_MATRIX @ _CALIBRATION_MATRIX
    return total


class Rep:
    """Phase timings, step intervals, outputs and gate failures of one
    repetition of a workload, and the speed of the host while it ran."""

    def __init__(self, tracer=None):
        self.phases = {}
        self.steps = []
        self.calibrations = []
        self.outputs = {}
        self.failures = []
        self._tracer = tracer
        self._paused = 0.0
        # an untraced repetition calibrates before the set-up, which has no
        # steps, and after every step; a traced one does not, so that no
        # span holds a calibration
        if tracer is None:
            for _ in range(SETUP_CALIBRATIONS):
                self.calibrate()

    def calibrate(self):
        """Time one calibration pass, after an untimed one that warms it
        up. The time both take is left out of every phase and step."""
        start = perf_counter()
        _calibration_pass()
        tic = perf_counter()
        _calibration_pass()
        self.calibrations.append(perf_counter() - tic)
        self._paused += perf_counter() - start

    @property
    def speed_scale(self):
        """Factor that turns this repetition's times into times of the
        reference host in its fast state: the reference calibration time
        over the median calibration time of the repetition. The host this
        was written on switches between a fast and a slow state, about
        1.45x apart, for seconds to minutes at a time; the workloads' and
        the calibration's times move together (log-log slope 1.0)."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.calibrations)

    @contextmanager
    def phase(self, name):
        """Time a phase, less the calibrations inside it, and trace it as a
        span when tracing; a phase that raises is not recorded."""
        with self._tracer.span(f"phase.{name}") if self._tracer else nullcontext():
            start, paused = perf_counter(), self._paused
            yield
            elapsed = perf_counter() - start - (self._paused - paused)
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def step_clock(self):
        """Callback for one ``simulate`` call: records the interval between
        consecutive steps."""
        last = []

        def tick(_state):
            now = perf_counter()
            if last:
                self.steps.append(now - last[0])
            if self._tracer is None:
                self.calibrate()
            last[:] = [perf_counter()]

        return tick

    @property
    def wall(self):
        return sum(self.phases.values())

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)


def _unit_draws(seed):
    """Three draws in [-1, 1] from the workload seed; zeros for the
    default seed, which runs the unperturbed scenario."""
    if seed == DEFAULT_SEED:
        return np.zeros(3)
    return np.random.default_rng(seed).uniform(-1.0, 1.0, 3)


# -- manufactured -----------------------------------------------------------


@dataclass(frozen=True)
class ManufacturedCase:
    n: int = 4
    p: int = 2
    end_time: float = 1.0
    n_steps: int = 64
    a1: float = 0.2
    a2: float = 0.2

    @classmethod
    def for_seed(cls, seed):
        u = _unit_draws(seed)
        return cls(a1=float(0.2 * (1.0 + 0.25 * u[0])), a2=float(0.2 * (1.0 + 0.25 * u[1])))


def run_manufactured(case: ManufacturedCase, rep: Rep, out_dir: Path, reference=None):
    """``verify.run_manufactured`` followed by ``verify.error_norms``."""
    with rep.phase("setup"):
        mat = reference_material()
        solver = dynamics.LinearSolver()
        ops, con = verify.unit_cube_problem(mat, case.n, case.p)
        exact = verify.ManufacturedSolution(mat, case.a1, case.a2)
        grid = dynamics.TimeGrid.uniform(0.0, case.end_time, case.n_steps)
    with rep.phase("march"):
        res = dynamics.simulate(
            ops, con, grid, loads=exact.loads(), solver=solver,
            callback=rep.step_clock(),
        )
    with rep.phase("post"):
        errors = verify.error_norms(res.final, exact, ops)
        rep.outputs["errors"] = errors
        if reference is not None:
            check_manufactured(case, errors, reference, rep)


def check_manufactured(case, errors, reference, rep):
    """Both norms finite and equal to the recorded ones. The discrete and
    exact solutions are linear in (a1, a2), so each squared norm is a
    quadratic form in (a1, a2), recorded by its three coefficients."""
    ref = reference["manufactured"]
    a1, a2 = case.a1, case.a2
    for name, value in zip(("energy_error", "l2_error"), errors):
        rep.check(math.isfinite(value), f"manufactured {name} is {value}")
        q11, q12, q22 = ref["quadratic_forms"][name]
        expected = math.sqrt(q11 * a1 * a1 + 2.0 * q12 * a1 * a2 + q22 * a2 * a2)
        rep.check(
            abs(value - expected) <= ERROR_RTOL * expected,
            f"manufactured {name} {value!r} differs from {expected!r}",
        )
        if (a1, a2) == (ManufacturedCase.a1, ManufacturedCase.a2):
            recorded = ref["default"][name]
            rep.check(
                abs(value - recorded) <= ERROR_RTOL * recorded,
                f"manufactured {name} {value!r} differs from recorded {recorded!r}",
            )


# -- relax ------------------------------------------------------------------


@dataclass(frozen=True)
class RelaxCase:
    n: int = 6
    p: int = 2
    k: float = 0.005
    end_time: float = 0.5
    release_time: float = 0.1
    hold_span: float = 0.4
    displacement: tuple = (0.0, 0.0, 0.2)

    @classmethod
    def for_seed(cls, seed):
        u = _unit_draws(seed)
        return cls(displacement=tuple(float(v) for v in (0.02 * u[0], 0.02 * u[1], 0.2 * (1.0 + 0.25 * u[2]))))


def run_relax(case: RelaxCase, rep: Rep, out_dir: Path, reference=None):
    """``verify.conservation_experiment`` with a direct solver, then the
    ledger CSV that the ``conserve`` scenario writes."""
    with rep.phase("setup"):
        mat = seal_material()
        solver = dynamics.LinearSolver(method="direct")
        tol = 1e-10

        def tagger(centroid, normal):
            if abs(centroid[2]) < tol:
                return mesh.BoundaryTag(mesh.BoundaryKind.DIRICHLET, "bottom")
            if abs(centroid[2] - 1.0) < tol and centroid[0] <= case.hold_span + tol:
                return mesh.BoundaryTag(mesh.BoundaryKind.DIRICHLET, "held")
            return mesh.BoundaryTag(mesh.BoundaryKind.NEUMANN, "free")

        box = mesh.build_box_mesh(case.n, tagger=tagger)
        space = fespace.FeSpace(box, case.p)
        ops = dynamics.OperatorSet(space, mat)
        zero = fespace.DirichletBC((0.0, 0.0, 0.0))
        held = fespace.Constraints(
            space, {"bottom": zero, "held": fespace.DirichletBC(tuple(case.displacement))}
        )
        released = fespace.Constraints(space, {"bottom": zero})
        u0 = dynamics.static_solve(ops, held, solver=solver)
        state0 = dynamics.State(0.0, np.zeros(space.n_dofs), u0,
                                tuple(np.zeros(space.n_dofs) for _ in mat.arms))
        n_hold = int(round(case.release_time / case.k))
        n_free = int(round((case.end_time - case.release_time) / case.k))
    with rep.phase("march"):
        res_a = dynamics.simulate(
            ops, held, dynamics.TimeGrid.uniform(0.0, case.release_time, n_hold),
            state0=state0, solver=solver, callback=rep.step_clock(),
        )
        res_b = dynamics.simulate(
            ops, released,
            dynamics.TimeGrid.uniform(case.release_time, case.end_time, n_free),
            state0=res_a.final, solver=solver, callback=rep.step_clock(),
        )
    with rep.phase("post"):
        offset = res_a.ledger[-1].dissipated
        ledger = list(res_a.ledger) + [
            replace(rec, dissipated=rec.dissipated + offset) for rec in res_b.ledger[1:]
        ]
        result = verify.ConservationResult(
            np.array([rec.t for rec in ledger]), ledger, n_hold, res_b.final
        )
        path = out_dir / "energy_ledger.csv"
        result.to_csv(path)
        rep.outputs["ledger"] = ledger
        rep.outputs["csv"] = path
        if reference is not None:
            check_relax(ledger, path, rep)


def check_relax(ledger, csv_path, rep):
    """Ledger drift within the criterion 1 bound, and the CSV holds the
    ledger exactly."""
    total0 = ledger[0].total + ledger[0].dissipated
    drift = max(abs(rec.total + rec.dissipated - total0) / total0 for rec in ledger)
    rep.outputs["drift"] = drift
    rep.check(drift <= DRIFT_BOUND, f"relax ledger drift {drift:.3e} > {DRIFT_BOUND}")
    rows = csv_path.read_text().splitlines()[1:]
    written = [tuple(float(v) for v in row.split(",")) for row in rows]
    expected = [
        (rec.t, rec.kinetic, rec.elastic, rec.viscoelastic_total, rec.dissipated, rec.total)
        for rec in ledger
    ]
    rep.check(written == expected, "relax ledger CSV does not hold the ledger")


# -- seal -------------------------------------------------------------------


@dataclass(frozen=True)
class SealCase:
    r_in: float = 0.006
    r_out: float = 0.01
    length: float = 0.02
    divisions: tuple = (3, 16, 4)
    p: int = 2
    omega: float = 15.0
    cycles: int = 3
    steps_per_cycle: int = 40
    measure_cycles: int = 1
    stations: tuple = (0.02, 0.25, 0.5)
    eccentricity: float = 1.0

    @classmethod
    def for_seed(cls, seed):
        u = _unit_draws(seed)
        return cls(eccentricity=float(1.0 + 0.25 * u[0]))


def run_seal(case: SealCase, rep: Rep, out_dir: Path, reference=None):
    """One frequency of ``cli.seal_sweep``: ``cli.run_seal_frequency``,
    then the VTK file of the final state."""
    with rep.phase("setup"):
        mat = seal_material()
        solver = dynamics.LinearSolver()
        sweep = cli.SealSweepConfig(
            frequencies=(case.omega,), stations=case.stations, cycles=case.cycles,
            measure_cycles=case.measure_cycles, steps_per_cycle=case.steps_per_cycle,
            eccentricity=case.eccentricity,
        )
        ann = mesh.build_annulus_mesh(case.r_in, case.r_out, case.length, case.divisions)
        space = fespace.FeSpace(ann, case.p)
        ops = dynamics.OperatorSet(space, mat)
        probes = cli.seal_probe_nodes(space, sweep.stations, case.length)
        omega = case.omega
        u_n = cli.seal_normal_value(
            case.r_in, sweep.expansion, sweep.amplitude, omega, sweep.eccentricity
        )
        con = fespace.Constraints(
            space,
            {"outer": fespace.DirichletBC((0.0, 0.0, 0.0)), "inner": fespace.SlipBC(u_n)},
        )
        u0 = dynamics.static_solve(ops, con, solver=solver, t=0.0)
        state0 = dynamics.State(0.0, np.zeros(space.n_dofs), u0,
                                tuple(np.zeros(space.n_dofs) for _ in mat.arms))
        n_steps = sweep.cycles * sweep.steps_per_cycle
        grid = dynamics.TimeGrid.uniform(0.0, sweep.cycles / omega, n_steps)
        measure_from = n_steps - sweep.measure_cycles * sweep.steps_per_cycle
    records = []
    count = [0]
    tick = rep.step_clock()

    def probe(state):
        tick(state)
        count[0] += 1
        if count[0] >= measure_from:
            nodes, p = cli.compute_contact_pressure(state, space, "inner", mat)
            lookup = dict(zip(nodes.tolist(), p))
            records.append([lookup[nd] for nd in probes])

    with rep.phase("march"):
        res = dynamics.simulate(ops, con, grid, state0=state0, solver=solver,
                                callback=probe)
    with rep.phase("post"):
        series = np.array(records)
        final = res.final
        nv = space.mesh.n_vertices
        sigma = assembly.recover_nodal_stress(space, mat, final.u0, final.uve)[:nv]
        vectors = {
            "displacement": final.u0.reshape(-1, 3)[:nv],
            "velocity": final.u1.reshape(-1, 3)[:nv],
        }
        scalars = {"von_mises": assembly.von_mises(sigma)}
        nodes, p_vals = cli.compute_contact_pressure(final, space, "inner", mat)
        pressure = np.zeros(space.n_scalar_dofs)
        pressure[nodes] = p_vals
        scalars["contact_pressure"] = pressure[:nv]
        path = out_dir / f"seal_omega_{omega:g}.vtk"
        vtkio.write_vtk(space.mesh, path, vectors, scalars)
        rep.outputs.update(series=series, p_min=series.min(axis=0),
                           p_max=series.max(axis=0), vtk=path)
        if reference is not None:
            check_seal(case, rep.outputs, nv, reference, rep)


def check_seal(case, outputs, n_vertices, reference, rep):
    """Probe pressure extrema equal to the recorded ones, and the VTK file
    complete. The prescribed surface motion, and so the pressure history,
    is affine in the orbit eccentricity e: the recorded histories at e = 0
    and e = 1 give the expected extrema for any e."""
    ref = reference["seal"]
    p0 = np.array(ref["series_e0"])
    p1 = np.array(ref["series_e1"])
    e = case.eccentricity
    expected = (1.0 - e) * p0 + e * p1
    tol = PRESSURE_RTOL * np.abs(p1).max()
    for name, got, want in (
        ("p_min", outputs["p_min"], expected.min(axis=0)),
        ("p_max", outputs["p_max"], expected.max(axis=0)),
    ):
        worst = float(np.max(np.abs(got - want)))
        rep.check(worst <= tol, f"seal {name} off by {worst:.3e} Pa (tolerance {tol:.3e})")
    lines = outputs["vtk"].read_text().splitlines()
    rep.check(
        f"POINTS {n_vertices} double" in lines and lines[-1] != "",
        "seal VTK file is incomplete",
    )


# name -> (case type, call sequence)
WORKLOADS = {
    "manufactured": (ManufacturedCase, run_manufactured),
    "relax": (RelaxCase, run_relax),
    "seal": (SealCase, run_seal),
}
