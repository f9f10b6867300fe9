"""Finite element simulation of linear viscoelastic solids (generalized
Maxwell model) with continuous Galerkin space-time integration, internal
variable elimination, energy-conservation diagnostics, and a
manufactured-solution verification harness.

The package root exports no names: import each from its module, for
example ``from viscofem.dynamics import simulate``."""

__version__ = "0.1.0"
