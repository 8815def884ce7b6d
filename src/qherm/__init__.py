"""Metric operators, quasi-Hermitian transforms and quasi-similarity checks
for dense non-self-adjoint matrices, plus a discretized half-line Robin
example, at desk scale.
"""

from .core import (
    DEFAULT_TOL,
    Eigensystem,
    EigenvalueCluster,
    Operator,
    adjoint,
    cluster_eigenvalues,
    eig_general,
    eig_hermitian,
    ensure_eigensystem,
    ensure_operator,
)
from .errors import (
    ComplexSpectrum,
    ConvergenceFailure,
    Defective,
    DimensionMismatch,
    IllConditionedWarning,
    IntertwiningViolated,
    InvalidSpec,
    NotHermitian,
    NotInvolution,
    NotPositiveDefinite,
    NotQuasiHermitian,
    ParseError,
    QhermError,
    SpectrumNotConjugateClosed,
)
from .halfline import (
    DiscretizedPair,
    HalfLineSpec,
    SamsonovReport,
    SamsonovRow,
    build_pair,
    default_box_length,
    samsonov_report,
)
from .lattice import (
    LatticeNorms,
    LatticeReport,
    MetricOperator,
    g_inner,
    lattice_norms,
    make_metric,
    verify_lattice,
)
from .quasihermitian import (
    KreinStructure,
    MetricSolution,
    krein_check,
    minimal_b0,
    quasi_hermiticity_residual,
    quasi_sa_transform,
    sharp_adjoint,
    solve_metric,
    solve_pseudo_metric,
)
from .quasisimilarity import (
    IntertwinerReport,
    MatchedPair,
    MutualReport,
    PushReport,
    SpectralMatch,
    mutual_qs_check,
    push_eigenvectors,
    spectral_comparison,
    verify_intertwining,
)
from .spectralfamily import (
    XFamily,
    XPropertiesReport,
    spectral_family,
    x_family,
    x_properties,
)

__version__ = "0.1.0"
