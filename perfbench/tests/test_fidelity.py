"""The workloads measure the program, not a copy of it: on tiny instances
each workload's call sequence reproduces, bit for bit, the output of the
package function it mirrors, traced or not.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import scipy.sparse.linalg as spla  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from viscofem import assembly, cli, dynamics, verify  # noqa: E402

TINY_MANUFACTURED = W.ManufacturedCase(n=2, p=1, end_time=0.5, n_steps=4, a1=0.3, a2=0.1)
TINY_RELAX = W.RelaxCase(n=2, p=1, k=0.05, end_time=0.2, release_time=0.1,
                         displacement=(0.01, 0.0, 0.2))
TINY_SEAL = W.SealCase(divisions=(1, 6, 2), p=1, cycles=2, steps_per_cycle=4,
                       eccentricity=0.9)


def run(fn, case, out_dir, tracer=None):
    rep = W.Rep(tracer)
    fn(case, rep, Path(out_dir))
    return rep


def test_manufactured_matches_run_manufactured(tmp_path):
    c = TINY_MANUFACTURED
    final, ops, exact = verify.run_manufactured(
        W.reference_material(), 1.0 / c.n, c.end_time / c.n_steps, c.p, c.end_time,
        dynamics.LinearSolver(), c.a1, c.a2,
    )
    rep = run(W.run_manufactured, c, tmp_path)
    assert rep.outputs["errors"] == verify.error_norms(final, exact, ops)
    assert len(rep.steps) == c.n_steps - 1


def test_relax_matches_conservation_experiment(tmp_path):
    c = TINY_RELAX
    result = verify.conservation_experiment(verify.ConserveConfig(
        n=c.n, p=c.p, k=c.k, end_time=c.end_time, release_time=c.release_time,
        hold_span=c.hold_span, displacement=c.displacement,
        material=W.seal_material(), solver=dynamics.LinearSolver(method="direct"),
    ))
    rep = run(W.run_relax, c, tmp_path)
    assert rep.outputs["ledger"] == result.ledger
    result.to_csv(tmp_path / "expected.csv")
    assert rep.outputs["csv"].read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_seal_matches_seal_sweep(tmp_path):
    c = TINY_SEAL
    material = W.seal_material()
    cfg = cli.RunConfig("seal", {
        "geometry": {"r_inner": repr(c.r_in), "r_outer": repr(c.r_out),
                     "length": repr(c.length), "divisions": " ".join(map(str, c.divisions))},
        "discretization": {"p": str(c.p)},
        "material": {"rho": "1100", "e": "0.5e6", "nu": "0.39",
                     "arms": " ".join(f"{a.kappa!r}:{a.tau!r}" for a in material.arms)},
        "output": {"vtk_stride": "1"},
    })
    sweep = cli.SealSweepConfig(
        frequencies=(c.omega,), stations=c.stations, cycles=c.cycles,
        measure_cycles=c.measure_cycles, steps_per_cycle=c.steps_per_cycle,
        eccentricity=c.eccentricity,
    )
    expected_dir = tmp_path / "expected"
    expected_dir.mkdir()
    _, rows = cli.seal_sweep(sweep, cfg, expected_dir)
    rep = run(W.run_seal, c, tmp_path)
    assert rep.outputs["p_min"].tolist() == [lo for _, _, lo, _ in rows]
    assert rep.outputs["p_max"].tolist() == [hi for _, _, _, hi in rows]
    vtk = expected_dir / f"seal_omega_{c.omega:g}.vtk"
    assert rep.outputs["vtk"].read_bytes() == vtk.read_bytes()


@pytest.mark.parametrize("fn, case, key", [
    (W.run_manufactured, TINY_MANUFACTURED, "errors"),
    (W.run_seal, TINY_SEAL, "p_min"),
])
def test_tracing_changes_no_output_and_counts_repeat(tmp_path, fn, case, key):
    plain = run(fn, case, tmp_path).outputs[key]
    originals = (dynamics.assemble_deviatoric, assembly.assemble_deviatoric,
                 dynamics.ReducedStepper.__init__, spla.splu, spla.cg)
    tracer = tracing.Tracer()
    counts = []
    for run_id in (1, 2):
        tracer.run = run_id
        tracer.install()
        try:
            assert dynamics.assemble_deviatoric is not originals[0]
            traced = run(fn, case, tmp_path, tracer).outputs[key]
        finally:
            tracer.uninstall()
        assert np.array_equal(traced, plain)
        metrics = tracer.layer_metrics(run_id)
        counts.append({m: v for m, v in metrics.items() if tracing.is_exact(m)})
    assert counts[0] == counts[1]
    assert counts[0]["dynamics.stepper_builds"] >= 1
    assert counts[0]["assembly.deviatoric_calls"] == (1 if fn is W.run_manufactured else 5)
    assert (dynamics.assemble_deviatoric, assembly.assemble_deviatoric,
            dynamics.ReducedStepper.__init__, spla.splu, spla.cg) == originals


@pytest.mark.parametrize("case_type", [W.ManufacturedCase, W.RelaxCase, W.SealCase])
def test_seed_gives_inputs(case_type):
    assert case_type.for_seed(W.DEFAULT_SEED) == case_type()
    assert case_type.for_seed(7) == case_type.for_seed(7) != case_type()
