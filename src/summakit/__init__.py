"""summakit: Cesaro and binomial means of real sequences, the weight-table
representation tying them together, numerical verification experiments, and
the Cesaro limit matrix of a finite stochastic matrix.
"""

import os as _os


def _configure_threads():
    # SUMMAKIT_THREADS caps BLAS/OpenMP parallelism; it only works if the
    # limits are in the environment before numpy loads, hence this runs at
    # package import, ahead of the submodule imports below.  0 or unset
    # leaves the libraries on automatic.
    raw = _os.environ.get("SUMMAKIT_THREADS", "").strip()
    if raw.isdigit() and raw != "0":
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            _os.environ.setdefault(var, raw)


_configure_threads()

from .exceptions import (  # noqa: E402
    ConvergenceError,
    HorizonError,
    MatrixValidationError,
    ParameterDomainError,
    PreconditionError,
    SummakitError,
)
from .binomial_kernel import (  # noqa: E402
    PMFParams,
    PMFRow,
    center_ratio,
    chernoff_bound,
    mode_index,
    peak_asymptotic_ratio,
    pmf,
    pmf_row,
    tail_mass_outside,
)
from .transforms import (  # noqa: E402
    RealSequence,
    SplitSums,
    TransformedPrefix,
    WeightTable,
    binomial_mean_at,
    binomial_prefix,
    cesaro_prefix,
    compose_check,
    epsilon,
    pstar_prefix,
    split_xyz,
    weights,
)
from .sequences import (  # noqa: E402
    ConvergenceVerdict,
    GeneratorSpec,
    ImplicationReport,
    OpenProblemReport,
    default_families,
    estimate_limit,
    probe_open_problem,
    run_table1,
    sequence_from_spec,
)
from .markov import (  # noqa: E402
    LimitReport,
    StochasticMatrix,
    cesaro_matrix,
    lazy,
    limit_matrix,
    load_matrix_csv,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "SummakitError",
    "ParameterDomainError",
    "PreconditionError",
    "HorizonError",
    "MatrixValidationError",
    "ConvergenceError",
    "PMFParams",
    "PMFRow",
    "pmf",
    "pmf_row",
    "mode_index",
    "tail_mass_outside",
    "chernoff_bound",
    "center_ratio",
    "peak_asymptotic_ratio",
    "RealSequence",
    "TransformedPrefix",
    "WeightTable",
    "SplitSums",
    "cesaro_prefix",
    "binomial_prefix",
    "binomial_mean_at",
    "pstar_prefix",
    "compose_check",
    "weights",
    "epsilon",
    "split_xyz",
    "GeneratorSpec",
    "ConvergenceVerdict",
    "ImplicationReport",
    "OpenProblemReport",
    "sequence_from_spec",
    "estimate_limit",
    "default_families",
    "run_table1",
    "probe_open_problem",
    "StochasticMatrix",
    "LimitReport",
    "validate",
    "lazy",
    "limit_matrix",
    "cesaro_matrix",
    "load_matrix_csv",
    "__version__",
]
