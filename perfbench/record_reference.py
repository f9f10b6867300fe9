#!/usr/bin/env python3
"""Record the values the benchmark's correctness gates compare against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``. The gates pin the outputs of the
commit this is run at, so run it only to pin a deliberate change of the
numerics, and say so where the change is described.

* manufactured: the end-time error norms at the default (a1, a2), and the
  three coefficients of each squared norm as a quadratic form in
  (a1, a2), from runs at (1, 0), (0, 1) and (1, 1);
* seal: the probe pressure histories over the measured cycle at orbit
  eccentricity 0 and 1.
"""
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})
    sys.path.insert(0, str(ROOT / "src"))
    import tempfile

    import workloads

    def run(fn, case):
        rep = workloads.Rep()
        with tempfile.TemporaryDirectory() as tmp:
            fn(case, rep, Path(tmp))
        return rep.outputs

    base = workloads.ManufacturedCase()
    squares = {}
    for a in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        errors = run(workloads.run_manufactured, replace(base, a1=a[0], a2=a[1]))["errors"]
        squares[a] = [e * e for e in errors]
    default = run(workloads.run_manufactured, base)["errors"]
    forms = {}
    for i, name in enumerate(("energy_error", "l2_error")):
        q11, q22 = squares[(1.0, 0.0)][i], squares[(0.0, 1.0)][i]
        forms[name] = [q11, 0.5 * (squares[(1.0, 1.0)][i] - q11 - q22), q22]

    seal = workloads.SealCase()
    series = {
        f"series_e{e:g}": run(workloads.run_seal, replace(seal, eccentricity=e))["series"].tolist()
        for e in (0.0, 1.0)
    }
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    reference = {
        "commit": commit,
        "manufactured": {
            "case": {"n": base.n, "p": base.p, "end_time": base.end_time, "n_steps": base.n_steps},
            "default": dict(zip(("energy_error", "l2_error"), default)),
            "quadratic_forms": forms,
        },
        "seal": {"case": {"divisions": list(seal.divisions), "p": seal.p, "omega": seal.omega},
                 **series},
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
