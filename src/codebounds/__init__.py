"""codebounds: cyclic-code construction, Hamming-ball spectra, and bounds
on the maximal size of binary codes.

The package builds high-distance cyclic codes from paired cyclotomic cosets,
measures their true minimum distance by exhaustive enumeration,
certifies maximal eigenvalues of Hamming-ball adjacency operators in rational
arithmetic, and evaluates classical and eigenvalue-driven bounds on A(n, d).
Exact Walsh-Hadamard transforms check the Fourier identities the bounds rest
on, and a float64 replay re-checks the covering bound's derivation on
concrete codes, each step to a 1e-9 relative tolerance.
"""

from .bounds import (
    HEURISTIC,
    RIGOROUS,
    BoundValue,
    NotApplicable,
    OutOfRange,
    ball_certificate,
    best_new_upper,
    cyclic_lower,
    gv_lower,
    hamming_upper,
    mceliece_upper,
    new_upper,
    plotkin_upper,
    rate_bounds,
    regime_table,
    singleton_upper,
    vol,
)
from .cyclic import (
    ConstructionSpec,
    InvalidParameters,
    bch_certificate,
    best_bch_distance,
    build_code,
    coset_exponents,
    encode,
)
from .distance import (
    BudgetExceeded,
    WeightDistribution,
    distance_report,
    exact_A_search,
    min_distance,
    min_distance_of_rows,
    weight_distribution,
    weight_distribution_of_rows,
)
from .fourier import (
    ChainViolation,
    DimensionMismatch,
    adjacency_apply,
    convolve,
    covering_replay,
    identity_suite,
    inner,
    wht,
    wht_unnormalized,
)
from .gf2 import FieldContext, field_create
from .spectrum import (
    EigenCertificate,
    asymptotic_constant,
    ball_operator,
    certify,
    certify_radii,
    radial_vector,
    rayleigh_quotient,
    recurrence_polynomial_root,
    top_eigenvalue,
)

__version__ = "0.1.0"

__all__ = [
    "HEURISTIC",
    "RIGOROUS",
    "BoundValue",
    "BudgetExceeded",
    "ChainViolation",
    "ConstructionSpec",
    "DimensionMismatch",
    "EigenCertificate",
    "FieldContext",
    "InvalidParameters",
    "NotApplicable",
    "OutOfRange",
    "WeightDistribution",
    "adjacency_apply",
    "asymptotic_constant",
    "ball_certificate",
    "ball_operator",
    "bch_certificate",
    "best_bch_distance",
    "best_new_upper",
    "build_code",
    "certify",
    "certify_radii",
    "convolve",
    "coset_exponents",
    "covering_replay",
    "cyclic_lower",
    "distance_report",
    "encode",
    "exact_A_search",
    "field_create",
    "gv_lower",
    "hamming_upper",
    "identity_suite",
    "inner",
    "mceliece_upper",
    "min_distance",
    "min_distance_of_rows",
    "new_upper",
    "plotkin_upper",
    "radial_vector",
    "rayleigh_quotient",
    "rate_bounds",
    "recurrence_polynomial_root",
    "regime_table",
    "singleton_upper",
    "top_eigenvalue",
    "vol",
    "weight_distribution",
    "weight_distribution_of_rows",
    "wht",
    "wht_unnormalized",
]
