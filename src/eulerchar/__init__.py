"""Euler characteristics from vector fields on even-dimensional manifolds.

The package has three independent routes to the same integer and a set of
combinatorial oracles to check them against:

* winding/index sums of a vector field's zeros (interior and boundary),
* curvature quadrature of the Euler density over catalog manifolds,
* simplicial alternating sums over reference triangulations.

Underneath sits a real Clifford algebra layer used to build spin frames,
their induced connections, and the flat-away-from-singularities
connection whose holonomy measures frame winding.
"""

__version__ = "0.1.0"

from .clifford import (  # noqa: F401
    CliffordError,
    Frame,
    Multivector,
    exp,
    gamma,
    generator,
    pseudoscalar,
    random_rotor,
    sandwich_sum,
    versor_frame,
)
from .fields import (  # noqa: F401
    CallableField,
    ComplexProductField,
    FieldError,
    PolynomialField,
    VectorField,
    builtin_field,
    builtin_names,
    field_from_spec,
)
from .domains import BallDomain, BoxDomain, DomainError  # noqa: F401
from .winding import (  # noqa: F401
    SphereQuadrature,
    UndersampledError,
    WindingError,
    WindingResult,
    ZeroOnSphereError,
    default_quadrature,
    oracle_degree_anglesum,
    oracle_degree_preimage,
    winding_number,
)
from .zeros import (  # noqa: F401
    BoundaryZoneError,
    ExcisionResult,
    ZeroFindingError,
    ZeroRecord,
    find_zeros,
    index_sum_with_excision,
    total_index,
)
from .connection import (  # noqa: F401
    ChartError,
    FrameField,
    decompose_check,
    flatness_scan,
    hedgehog_frame_field,
    holonomy_flux,
    pseudo_flat_connection,
)
from .manifolds import (  # noqa: F401
    ClosedIndexResult,
    FlatTorus,
    ManifoldError,
    SphereManifold,
)
from .boundary import BoundaryReport, chi_with_boundary  # noqa: F401
from .gbc import (  # noqa: F401
    EmbeddedTorus,
    FlatTorusMetric,
    GbcResult,
    RoundSphere2,
    RoundSphere4,
    catalog_manifold,
    catalog_manifold_names,
    integrate_euler,
    pfaffian,
)
from .triangulations import (  # noqa: F401
    SimplicialComplex,
    catalog,
    catalog_names,
    chi_oracle,
    euler_characteristic,
)
from .report import format_table, render_report, round_sig, summary_row  # noqa: F401
