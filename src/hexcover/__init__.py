"""Circuit-cover certificates for monostationarity of dual phosphorylation.

The package decides sufficient conditions for monostationarity via sums of
nonnegative circuit polynomials on the hexagonal Newton-polytope face,
enumerates all pure circuit covers, and reproduces the Monte-Carlo cover
comparison at desk scale.
"""

__version__ = "0.1.0"

from .geometry import (
    LatticePoint,
    Simplex,
    barycentric_coordinates,
    contains_in_relative_interior,
)
from .circuits import (
    CircuitSupport,
    PureCover,
    circuit_number,
    cover_theta_sum,
    is_nonnegative,
    optimize_scalar_weight,
)
from .covers import all_covers, canonical_key, census, cover_fixture, enumerate_pure_covers, parse_cover
from .model import (
    Case,
    EtaPoint,
    KappaVector,
    ab_values,
    classify,
    closed_form_bound,
    eval_hex_poly,
    hex_coefficients,
    reduce,
)
from .experiment import (
    SamplePlan,
    binomial_sigma,
    case4_eta_points,
    compare_vs_baseline,
    containment_analysis,
    evaluate_covers,
    linear_homotopy,
    simplicial_homotopy,
)
