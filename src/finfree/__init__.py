"""Exact finite free probability: the additive convolution of monic real
polynomials, its cumulants, moments and coefficients, set partitions, and
exact diagnostics (free limits, infinite divisibility).  Not exported here,
so loaded only when imported by module: the float Monte Carlo oracle
finfree.matrix_oracle (with numpy) and the lattice reference finfree.lattice."""

from .errors import (
    DimensionError,
    DomainError,
    FinFreeError,
    InputFormatError,
    NonMonicError,
    SizeCapError,
)
from .util import VarPoly, format_rational, parse_rational
from .partitions import (
    DEFAULT_N_MAX,
    PartitionType,
    SetPartition,
    count_by_type,
    enumerate_noncrossing,
    enumerate_partitions,
    is_noncrossing,
    iter_types,
    mobius_from_zero,
    mobius_of_type,
)
from .polynomial import (
    MomentSequence,
    MonicPoly,
    is_real_rooted,
    moments,
    x_power,
)
from .transforms import (
    CumulantVector,
    coefficients_from_cumulants,
    coefficients_from_moments,
    cumulant_from_moments,
    cumulants_from_coefficients,
    cumulants_from_moments,
    moments_from_coefficients,
    moments_from_cumulants,
    rescale_cumulants,
    truncated_r_transform,
)
from .convolution import boxplus, boxplus_power
from .freeprob import (
    ConvergenceReport,
    FreeCumulantVector,
    convergence_report,
    free_cumulants_from_moments,
    free_moments_from_free_cumulants,
)
from .families import clt_rescaled_sum, finite_poisson, hermite_clt
from .divisibility import (
    CramerPair,
    IDReport,
    cramer_counterexample,
    infinite_divisibility_report,
    is_conditionally_positive_definite,
    real_rooted_threshold,
)

__version__ = "0.1.0"
