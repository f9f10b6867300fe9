"""Smoke runs of the measurement scripts under ``scripts/`` on small
inputs: each prints JSON that parses."""
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_factor_sweep_prints_json(capsys):
    # the two smallest meshes, box n = 8 P1 and box n = 4 P2, hold 2,187 dofs
    _load("factor_sweep").main(["--max-dofs", "2187"])
    out = json.loads(capsys.readouterr().out)
    assert [row["mesh"] for row in out["rows"]] == ["box n=8 P1", "box n=4 P2"]
    for row in out["rows"]:
        assert row["free_dofs"] > 0 and row["factor_nnz"] > 0 and row["cg_iters"] > 0
        assert row["order_s"] > 0
        assert row["static_direct_ms"] > 0 and row["static_double_ms"] > 0
        assert row["static_cg_ms"] > 0


def test_setup_memory_prints_json(monkeypatch, capsys):
    module = _load("setup_memory")
    monkeypatch.setattr(module, "N", 2)
    module.main()
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 2 and out["dofs"] == 3 * 3**3
    assert out["energy_error"] > 0 and out["l2_error"] > 0
    assert out["load_vectors_s"] >= 0
    assert out["operators_s"] > 0 and out["pattern_bytes"] > 0


def test_arm_sweep_prints_json(monkeypatch, capsys):
    module = _load("arm_sweep")
    monkeypatch.setattr(module, "N", 2)
    monkeypatch.setattr(module, "ARMS", (0, 2))
    monkeypatch.setattr(module, "STEPS", 3)
    module.main()
    out = json.loads(capsys.readouterr().out)
    assert out["dofs"] == 3 * 5**3 and 0 < out["free_dofs"] < out["dofs"]
    assert [row["arms"] for row in out["rows"]] == [0, 2]
    for row in out["rows"]:
        assert row["schur_nnz"] > 0 and row["factor_nnz"] > 0
        assert row["build_s"] > 0 and row["step_ms"] > 0 and row["ledger_ms"] > 0
        # the build holds at least the factorized matrix, the march the
        # new states
        assert row["build_traced_mib"] > 0 and row["march_traced_mib"] > 0
        # the built stepper keeps its coupling block, not the factorized
        # matrix that the build's peak held
        assert 0 < row["build_held_mib"] < row["build_traced_mib"]
    assert "SuperLU" in out["traced_mib"]
