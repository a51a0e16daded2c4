"""Conformal maps onto the unit disc, computed on dyadic square grids.

The pipeline: cover the domain with lattice squares (``geometry``), solve
the discrete boundary-value problem for the log-distance data
(``dirichlet``), pair the solution with a conjugate field and assemble the
map (``mapping``), then certify bijectivity by counting preimages with
winding numbers (``verify``).  ``barrier`` holds the boundary-regularity
construction used to probe boundary points, and ``cli`` the command line.
"""

from .barrier import (
    BarrierFunction,
    BarrierReport,
    LogBranch,
    boundary_probes,
    distance_to_region,
    log_branch,
    verify_barrier,
    weak_barrier,
)
from .dirichlet import (
    BoundaryData,
    ScalarField,
    boundary_data,
    boundary_data_from_function,
    check_max_principle,
    dirichlet_energy,
    field_csv,
    perron_iterate,
    punctured_disc_profile,
    solve_dirichlet,
)
from .errors import (
    ClosureFailure,
    DegenerateGeometry,
    DiscmapError,
    DomainParseError,
    EmptyGrid,
    EmptyInterior,
    IndeterminateWinding,
    MonodromyDetected,
    NewtonStalled,
    NoConvergence,
    OriginOnBoundary,
    OutsideGrid,
    ProbeTooClose,
    TooCoarse,
)
from .geometry import (
    Domain,
    DyadicGrid,
    boundary_edges,
    build_grid,
    contains,
    load_domain,
    load_domain_file,
    normalize_origin,
)
from .mapping import (
    ConformalMap,
    ModulusReport,
    assemble_map,
    build_map,
    eval_derivative,
    eval_map,
    harmonic_conjugate,
    map_csv,
)
from .render import render_grid_image
from .verify import (
    PreimageCount,
    SweepSummary,
    VerificationReport,
    bijectivity_sweep,
    boundary_modulus_report,
    conformality_residual,
    count_preimages,
    inverse_map,
    verification_report,
)

__all__ = [
    "BarrierFunction",
    "BarrierReport",
    "BoundaryData",
    "ClosureFailure",
    "ConformalMap",
    "DegenerateGeometry",
    "DiscmapError",
    "Domain",
    "DomainParseError",
    "DyadicGrid",
    "EmptyGrid",
    "EmptyInterior",
    "IndeterminateWinding",
    "LogBranch",
    "ModulusReport",
    "MonodromyDetected",
    "NewtonStalled",
    "NoConvergence",
    "OriginOnBoundary",
    "OutsideGrid",
    "PreimageCount",
    "ProbeTooClose",
    "ScalarField",
    "SweepSummary",
    "TooCoarse",
    "VerificationReport",
    "assemble_map",
    "bijectivity_sweep",
    "boundary_data",
    "boundary_data_from_function",
    "boundary_edges",
    "boundary_modulus_report",
    "boundary_probes",
    "build_grid",
    "build_map",
    "check_max_principle",
    "conformality_residual",
    "contains",
    "count_preimages",
    "dirichlet_energy",
    "distance_to_region",
    "eval_derivative",
    "eval_map",
    "field_csv",
    "harmonic_conjugate",
    "inverse_map",
    "load_domain",
    "load_domain_file",
    "log_branch",
    "map_csv",
    "normalize_origin",
    "perron_iterate",
    "punctured_disc_profile",
    "render_grid_image",
    "solve_dirichlet",
    "verification_report",
    "verify_barrier",
    "weak_barrier",
]

__version__ = "0.1.0"
