"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of the package, and the two
scipy solver entry points it calls, where they are looked up: a module
function is replaced in every ``viscofem`` module that holds it (for
example ``viscofem.dynamics.assemble_deviatoric`` as well as
``viscofem.assembly.assemble_deviatoric``), a method on its class. Each
call records a span (name, start, end, parent, run id) in memory; the
spans are written out when the benchmark ends. Nothing under ``src/`` is
changed, and ``uninstall`` restores every patched attribute.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import scipy.sparse as sp
import scipy.sparse.linalg as spla

import viscofem
import viscofem.cli  # noqa: F401  (loads every module the targets name)

# span name -> package functions and methods recorded under it, as paths
# below ``viscofem``; a path the package no longer has is skipped
TARGETS = {
    "mesh.build": ("mesh.build_box_mesh", "mesh.build_annulus_mesh"),
    "fespace.space": ("fespace.FeSpace.__init__",),
    "fespace.constraints": ("fespace.Constraints.__init__",),
    "fespace.reduce": ("fespace.Constraints.reduce",),
    "fespace.fixed_values": ("fespace.Constraints.fixed_values",),
    "assembly.mass": ("assembly.assemble_mass",),
    "assembly.elastic": ("assembly.assemble_elastic",),
    "assembly.deviatoric": ("assembly.assemble_deviatoric",),
    "assembly.volume_load": ("assembly.assemble_volume_load",),
    "assembly.traction_load": ("assembly.assemble_traction_load",),
    "assembly.stress": ("assembly.recover_nodal_stress",),
    "dynamics.operators": ("dynamics.OperatorSet.__init__",),
    "dynamics.simulate": ("dynamics.simulate",),
    "dynamics.stepper_build": ("dynamics.ReducedStepper.__init__",),
    "dynamics.step": ("dynamics.ReducedStepper.step",),
    "dynamics.rhs": ("dynamics.ReducedStepper.rhs",),
    "dynamics.prepare": ("dynamics.LinearSolver.prepare",),
    "dynamics.static_solve": ("dynamics.static_solve",),
    "dynamics.load_integral": ("dynamics.load_time_integral",),
    "dynamics.recursion": ("dynamics.reconstruct_ve",),
    "dynamics.energy": ("dynamics.energy",),
    "dynamics.dissipation": ("dynamics.dissipation_increment",),
    "verify.body_force": ("verify.ManufacturedSolution.body_force",),
    "verify.traction": ("verify.ManufacturedSolution.traction",),
    "verify.error_norms": ("verify.error_norms",),
    "verify.ledger_csv": ("verify.ConservationResult.to_csv",),
    "cli.contact_pressure": ("cli.compute_contact_pressure",),
    "vtkio.write": ("vtkio.write_vtk",),
}


def _resolve(path):
    """(owner, attribute) of a path below ``viscofem``, or None."""
    *parents, attr = path.split(".")
    owner = viscofem
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


# per-layer metric -> (unit, kind, source). kind: 'total' (inclusive span
# time), 'self' (span time less its child spans), 'calls' (span count) or
# 'counter' (value recorded by a hook)
LAYER_METRICS = {
    "mesh.build_s": ("s", "total", ("mesh.build",)),
    "fespace.space_s": ("s", "total", ("fespace.space",)),
    "fespace.constraints_s": ("s", "total", ("fespace.constraints",)),
    "fespace.free_dofs": ("count", "counter", "free_dofs"),
    "fespace.reduce_s": ("s", "total", ("fespace.reduce",)),
    "fespace.reduce_calls": ("count", "calls", ("fespace.reduce",)),
    "fespace.fixed_values_s": ("s", "total", ("fespace.fixed_values",)),
    "fespace.fixed_values_calls": ("count", "calls", ("fespace.fixed_values",)),
    "assembly.mass_s": ("s", "total", ("assembly.mass",)),
    "assembly.elastic_s": ("s", "total", ("assembly.elastic",)),
    "assembly.deviatoric_s": ("s", "total", ("assembly.deviatoric",)),
    "assembly.deviatoric_calls": ("count", "calls", ("assembly.deviatoric",)),
    "assembly.volume_load_s": ("s", "total", ("assembly.volume_load",)),
    "assembly.volume_load_calls": ("count", "calls", ("assembly.volume_load",)),
    "assembly.traction_load_s": ("s", "total", ("assembly.traction_load",)),
    "assembly.traction_load_calls": ("count", "calls", ("assembly.traction_load",)),
    "assembly.operator_nnz": ("count", "counter", "operator_nnz"),
    "assembly.operator_bytes": ("B", "counter", "operator_bytes"),
    "assembly.stress_s": ("s", "total", ("assembly.stress",)),
    "dynamics.operators_s": ("s", "total", ("dynamics.operators",)),
    "dynamics.stepper_builds": ("count", "calls", ("dynamics.stepper_build",)),
    "dynamics.schur_s": ("s", "self", ("dynamics.stepper_build",)),
    "dynamics.factor_s": ("s", "total", ("dynamics.factor",)),
    "dynamics.factor_calls": ("count", "calls", ("dynamics.factor",)),
    "dynamics.factor_nnz": ("count", "counter", "factor_nnz"),
    "dynamics.solve_s": ("s", "total", ("dynamics.solve",)),
    "dynamics.solve_calls": ("count", "calls", ("dynamics.solve",)),
    "dynamics.cg_iters": ("count", "counter", "cg_iters"),
    "dynamics.cg_iters_mean": ("count", "counter", "cg_iters_mean"),
    "dynamics.cg_iters_max": ("count", "counter", "cg_iters_max"),
    "dynamics.rhs_s": ("s", "self", ("dynamics.rhs",)),
    "dynamics.recursion_s": ("s", "total", ("dynamics.recursion",)),
    "dynamics.ledger_s": ("s", "total", ("dynamics.energy", "dynamics.dissipation")),
    "dynamics.load_integral_s": ("s", "self", ("dynamics.load_integral",)),
    "dynamics.static_solve_s": ("s", "total", ("dynamics.static_solve",)),
    "verify.body_force_s": ("s", "total", ("verify.body_force",)),
    "verify.body_force_calls": ("count", "calls", ("verify.body_force",)),
    "verify.traction_s": ("s", "total", ("verify.traction",)),
    "verify.error_norms_s": ("s", "total", ("verify.error_norms",)),
    "verify.ledger_csv_s": ("s", "total", ("verify.ledger_csv",)),
    "cli.contact_pressure_s": ("s", "total", ("cli.contact_pressure",)),
    "cli.contact_pressure_calls": ("count", "calls", ("cli.contact_pressure",)),
    "vtkio.write_s": ("s", "total", ("vtkio.write",)),
    "vtkio.bytes": ("B", "counter", "vtk_bytes"),
}


def is_exact(metric):
    """Whether a per-layer metric is a count, which repeats exactly between
    runs of the same inputs, rather than a time or a mean."""
    unit = LAYER_METRICS.get(metric, ("count",))[0]
    return unit != "s" and metric != "dynamics.cg_iters_mean"


def _sparse_bytes(matrices):
    """nnz and CSR storage bytes (data, indices, indptr) of the matrices."""
    nnz = nbytes = 0
    for m in matrices:
        csr = m.tocsr()
        nnz += csr.nnz
        nbytes += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    return nnz, nbytes


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.counters = defaultdict(lambda: defaultdict(float))  # run -> name -> value
        self.cg_iters = defaultdict(list)  # run -> iterations per CG solve
        self.run = 0
        self._stack = []
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Record one span around a block, for the benchmark's phases."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name, after=None):
        """``fn`` recording a span per call; ``after(result, args)`` runs
        once the span is closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- hooks recording counts at the layer boundaries ----------------------

    def _count(self, name, value, how="max"):
        runs = self.counters[self.run]
        runs[name] = max(runs[name], value) if how == "max" else runs[name] + value

    def _after_operators(self, _result, args):
        ops = args[0]
        mats = []
        for value in vars(ops).values():
            items = value if isinstance(value, tuple) else (value,)
            mats.extend(m for m in items if sp.issparse(m))
        nnz, nbytes = _sparse_bytes(mats)
        self._count("operator_nnz", nnz)
        self._count("operator_bytes", nbytes)

    def _after_constraints(self, _result, args):
        self._count("free_dofs", len(args[0].free))

    def _after_splu(self, factor, _args):
        self._count("factor_nnz", factor.L.nnz + factor.U.nnz)

    def _after_vtk(self, _result, args):
        self._count("vtk_bytes", os.path.getsize(args[1]), how="sum")

    def _prepare(self, fn):
        def prepare(solver, matrix):
            return self.wrap(fn(solver, matrix), "dynamics.solve")

        return self.wrap(prepare, "dynamics.prepare")

    def _cg(self, fn):
        def cg(*args, **kwargs):
            user = kwargs.get("callback")
            n = [0]

            def count(xk):
                n[0] += 1
                if user is not None:
                    user(xk)

            kwargs["callback"] = count
            try:
                return fn(*args, **kwargs)
            finally:
                self.cg_iters[self.run].append(n[0])

        return self.wrap(cg, "dynamics.cg")

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        hooks = {
            "dynamics.operators": self._after_operators,
            "fespace.constraints": self._after_constraints,
            "vtkio.write": self._after_vtk,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "viscofem" or n.startswith("viscofem."))]
        for name, paths in TARGETS.items():
            for owner, attr in filter(None, map(_resolve, paths)):
                original = vars(owner)[attr]
                if name == "dynamics.prepare":
                    traced = self._prepare(original)
                else:
                    traced = self.wrap(original, name, hooks.get(name))
                if isinstance(owner, type):
                    self._patch(owner, attr, traced)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, traced)
        self._patch(spla, "splu", self.wrap(spla.splu, "dynamics.factor", self._after_splu))
        self._patch(spla, "cg", self._cg(spla.cg))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, run):
        """Per-layer metric values of one traced run id."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == run]
        for _, (name, start, end, parent, _) in mine:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in mine:
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        counters = dict(self.counters[run])
        iters = self.cg_iters[run]
        counters["cg_iters"] = sum(iters)
        counters["cg_iters_mean"] = sum(iters) / len(iters) if iters else 0.0
        counters["cg_iters_max"] = max(iters, default=0)
        out = {}
        for metric, (_, kind, source) in LAYER_METRICS.items():
            if kind == "counter":
                value = counters.get(source, 0)
            elif kind == "calls":
                value = sum(calls[s] for s in source)
            else:
                table = total if kind == "total" else own
                value = sum(table[s] for s in source)
            out[metric] = int(value) if is_exact(metric) else value
        out["trace.spans"] = len(mine)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                [dict(zip(("name", "start", "end", "parent", "run"), s)) for s in self.spans],
                fh,
            )

