"""Finite element simulation of linear viscoelastic solids (generalized
Maxwell model) with continuous Galerkin space-time integration, internal
variable elimination, energy-conservation diagnostics, and a
manufactured-solution verification harness."""

from .assembly import (
    LoadSpec,
    assemble_mass,
    assemble_strain_operators,
    von_mises,
)
from .dynamics import (
    EnergyReport,
    LinearSolver,
    OperatorSet,
    ReducedStepper,
    SimulationResult,
    SolverError,
    State,
    TimeGrid,
    dissipation_increment,
    energy,
    load_time_integral,
    reconstruct_ve,
    simulate,
    static_solve,
)
from .fespace import (
    Constraints,
    DirichletBC,
    FeSpace,
    QuadratureRule,
    SlipBC,
    quadrature,
    reference_basis,
    triangle_quadrature,
)
from .material import (
    MaterialModel,
    MaxwellArm,
    StepCoefficients,
    lame_from_engineering,
    step_coefficients,
)
from .mesh import (
    BoundaryKind,
    BoundaryTag,
    Mesh,
    box_face_tagger,
    build_annulus_mesh,
    build_box_mesh,
)

__version__ = "0.1.0"
