"""Large-deviation rates for extreme eigenvalues of sample covariance
matrices, Monte Carlo experiments checking them, and the SD-PIC decoder
application whose bit errors those eigenvalues control."""

__version__ = "0.1.0"

from .core import (
    CovMatrix,
    EntryDistribution,
    SampleMatrix,
    Spectrum,
    UnitVector,
    covariance,
    derive_rng,
    make_rng,
    mp_edges,
    quadratic_form,
    sample_matrix,
    spectrum,
    trace_stat,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    UnsupportedDomainError,
)
from .mclab import (
    SpectrumHistogram,
    TailEstimate,
    TailSide,
    ZeroEigenPoint,
    clopper_pearson,
    enumerate_exact,
    estimate_tail,
    estimate_tails,
    max_above,
    min_below,
    spectrum_histogram,
    zero_count_at_least,
    zero_eigen_rate,
)
from .rates import (
    CgfSpec,
    Descent,
    OptimizerSettings,
    RateResult,
    cgf,
    cgf_derivative,
    chernoff_squared_entry,
    grid_covering,
    legendre,
    legendre_solve,
    mgf_bound_check,
    phase_transition_alpha_star,
    phase_transition_alpha_star_k,
    rate_joint_wishart,
    rate_k,
    rate_lower_bound_bounded,
    rate_lower_bound_rademacher,
    rate_two_sparse,
    rate_wishart,
    rogers_covering,
    wishart_t_star,
)
from .sdpic import (
    BerEstimate,
    DecodeState,
    Transmission,
    ber_experiment,
    decide_bits,
    error_free_condition,
    iterate_to_limit,
    make_transmission,
    mf_decode,
    run_decode,
    sdpic_closed,
    sdpic_stage,
    stage_trace,
    weighted_sdpic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
