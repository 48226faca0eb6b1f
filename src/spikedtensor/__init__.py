"""Detectability thresholds and seeded Monte-Carlo experiments for rank-r
spiked complex Gaussian tensor models."""

__version__ = "0.24.0"

from .errors import ParameterError
from .moment import (
    MCEstimate,
    RocCurve,
    default_epsilon,
    e1_e2_split,
    roc_experiment,
    second_moment_direct_mc,
    second_moment_haar_mc,
    xi_empirical_tail,
    xi_tail_probability,
)
from .rate import (
    GrfCloud,
    cloud_bound_violations,
    envelope_gap_median,
    eta_expanded,
    eta_hadamard,
    grf_lower_bound,
    grf_psi_rate,
    lemma_sup_bound,
    psi_blocks_from_mode_operators,
    sample_grf_cloud,
)
from .rng import SeedSpec
from .spike import (
    GramSet,
    SpikeSpec,
    SpikeSvd,
    build_spike,
    eta_max,
    random_gram,
)
from .thresholds import (
    ThresholdReport,
    beta_d_second,
    hoelder_condition,
    main_condition,
    matrix_case_mu_max,
    threshold_report,
)

__all__ = [
    "GramSet",
    "GrfCloud",
    "MCEstimate",
    "ParameterError",
    "RocCurve",
    "SeedSpec",
    "SpikeSpec",
    "SpikeSvd",
    "ThresholdReport",
    "beta_d_second",
    "build_spike",
    "cloud_bound_violations",
    "default_epsilon",
    "e1_e2_split",
    "envelope_gap_median",
    "eta_expanded",
    "eta_hadamard",
    "eta_max",
    "grf_lower_bound",
    "grf_psi_rate",
    "hoelder_condition",
    "lemma_sup_bound",
    "main_condition",
    "matrix_case_mu_max",
    "psi_blocks_from_mode_operators",
    "random_gram",
    "roc_experiment",
    "sample_grf_cloud",
    "second_moment_direct_mc",
    "second_moment_haar_mc",
    "threshold_report",
    "xi_empirical_tail",
    "xi_tail_probability",
]
