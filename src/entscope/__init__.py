"""entscope: entangled-state optical interferometry at the photon level.

Simulation and analysis for two-telescope (and few-telescope) stellar
interferometry where the recombining light is a distributed single photon, a
weak coherent reference, or plain intensity correlation; plus the repeater
chains that would distribute the entanglement, the detection budgets that set
limiting magnitudes, and the estimators that turn event logs back into
visibilities and images.
"""
from .errors import ConfigError, InfeasibleBudgetError, LowStatisticsError
from .eventlog import EventLog, fringe_counts, pair_counts
from .fock import (
    DEFAULT_CUTOFF,
    DensityOperator,
    DetectorModel,
    apply_beam_splitter,
    apply_loss,
    apply_phase,
    outcome_distribution,
)
from .sky import (
    Baseline,
    SourceModel,
    arrival_density_matrix,
    load_pgm,
    load_point_sources,
    save_pgm,
    visibilities,
    visibility,
)
from .schemes import (
    SchemeConfig,
    direct_detection_probs,
    entangled_coincidence_probs,
    hbt_coincidence_prob,
    optimal_p_e,
    simulate_run,
    temporal_overlap_factor,
    weak_coherent_stats,
    w_state_probs,
)
from .repeater import (
    ChainPolicy,
    ChainResult,
    EntangledPairState,
    LinkModel,
    ProtocolResult,
    chain_simulate,
    entanglement_swap,
    figure_of_merit,
    heralded_generate,
    optimize_distill_splitter,
    sscg_distill,
    transmit_pair,
)
from .sensitivity import (
    SensitivityBudget,
    bandwidth_from_timing,
    coherence_time_from_bandwidth,
    limiting_magnitude,
    mode_rate,
    photon_rate_from_magnitude,
)
from .estimation import (
    FringeFit,
    closure_phase,
    estimate_visibility,
    inject_telescope_phases,
    reconstruct_image,
)

__version__ = "0.1.0"

__all__ = [
    "Baseline",
    "ChainPolicy",
    "ChainResult",
    "ConfigError",
    "DEFAULT_CUTOFF",
    "DensityOperator",
    "DetectorModel",
    "EntangledPairState",
    "EventLog",
    "FringeFit",
    "InfeasibleBudgetError",
    "LinkModel",
    "LowStatisticsError",
    "ProtocolResult",
    "SchemeConfig",
    "SensitivityBudget",
    "SourceModel",
    "apply_beam_splitter",
    "apply_loss",
    "apply_phase",
    "arrival_density_matrix",
    "bandwidth_from_timing",
    "chain_simulate",
    "closure_phase",
    "coherence_time_from_bandwidth",
    "direct_detection_probs",
    "entangled_coincidence_probs",
    "entanglement_swap",
    "estimate_visibility",
    "figure_of_merit",
    "fringe_counts",
    "hbt_coincidence_prob",
    "heralded_generate",
    "inject_telescope_phases",
    "limiting_magnitude",
    "load_pgm",
    "load_point_sources",
    "mode_rate",
    "optimal_p_e",
    "optimize_distill_splitter",
    "outcome_distribution",
    "pair_counts",
    "photon_rate_from_magnitude",
    "reconstruct_image",
    "save_pgm",
    "simulate_run",
    "sscg_distill",
    "temporal_overlap_factor",
    "transmit_pair",
    "visibilities",
    "visibility",
    "w_state_probs",
    "weak_coherent_stats",
]
