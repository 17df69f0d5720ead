"""hankellab: a numerical spectral laboratory for weighted integral Hankel
operators on the half-line.

The package discretises the model operator family with kernel
s^a t^a (s+t)^(-1-2a) and its weighted generalisations on logarithmic grids,
verifies the exact identities the family satisfies (factorisation through a
Gaussian-kernel factor, inversion symmetry, kernel splits, log-variable
pushforwards, Hilbert-Schmidt norms), and compares eigenvalue clouds against
the predicted absolutely-continuous spectra.
"""

from .errors import (
    ConfigError,
    DomainError,
    EigenSolverError,
    GridError,
    KernelEvaluationError,
    QuadratureError,
)
from .kernels import (
    KernelSpec,
    WeightSpec,
    kernel_A,
    kernel_L,
    rational_test_family,
    weighted_hankel_kernel,
)
from .linalg import (
    frobenius_norm,
    nuclear_norm,
    op_norm,
    singular_values,
    sym_eigen,
)
from .quadrature import Grid, OperatorMatrix, make_grid, nystrom, quad_integral
from .spectra import (
    PredictedSpectrum,
    SpectralReport,
    analyze,
    predict,
    schatten_diagnostic,
)
from .specfun import (
    ln_gamma,
    mellin_symbol,
    pi_alpha,
    psi_minus,
    psi_plus,
    symbol_by_quadrature,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"
