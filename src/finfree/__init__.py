"""Exact finite free probability: the additive convolution of monic real
polynomials, its cumulant theory over the set partition lattice, and the
surrounding diagnostics (free limits, infinite divisibility, Monte-Carlo
verification)."""

from .errors import (
    DimensionError,
    DomainError,
    FinFreeError,
    InputFormatError,
    NonMonicError,
    RootConvergenceError,
    SizeCapError,
)
from .util import VarPoly, falling, format_rational, parse_rational
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
    count_distinct_real_roots,
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
    moment_from_cumulants,
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

# Loaded on first use (PEP 562): matrix_oracle brings in numpy, which only
# the Monte Carlo check needs, and lattice is the tests' reference, with the
# partition-lattice helpers that only it and the tests use.
_LAZY = {
    **dict.fromkeys(("MCEstimate", "char_poly", "mc_boxplus", "roots",
                     "sample_haar_orthogonal"), "matrix_oracle"),
    **dict.fromkeys(("JOIN_FORM_SIGN", "block_size_product", "falling_poly", "join",
                     "multiplicative_extension", "one_partition", "p_sigma",
                     "p_sigma_defining_sum", "p_sigma_join_form",
                     "partition_lattice_charpoly", "partition_type", "q_sigma",
                     "refines", "zero_partition"), "lattice"),
}


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY.values():  # finfree.lattice without importing it first
        return import_module("." + name, __name__)
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + _LAZY[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY.values()))
