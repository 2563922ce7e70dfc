"""entscope: entangled-state optical interferometry at the photon level.

Simulation and analysis for two-telescope (and few-telescope) stellar
interferometry where the recombining light is a distributed single photon, a
weak coherent reference, or plain intensity correlation; plus the repeater
chains that would distribute the entanglement, the detection budgets that set
limiting magnitudes, and the estimators that turn event logs back into
visibilities and images.

Nothing below loads until it is used: each submodule is a lazy stub that
runs on its first attribute access, and each public name here is looked up
in its home module on first use, so a caller (or a CLI command) pays only
for the layers it touches.
"""
import importlib.util
import sys

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_HOMES = {
    "errors": ("ConfigError", "InfeasibleBudgetError", "LowStatisticsError"),
    "eventlog": ("EventLog", "fringe_counts", "pair_counts"),
    "fock": ("DensityOperator", "DetectorModel", "EntangledPairState", "apply_beam_splitter",
             "apply_loss", "apply_phase", "outcome_distribution"),
    "sky": ("Baseline", "SourceModel", "arrival_density_matrix", "load_pgm",
            "load_point_sources", "save_pgm", "visibilities", "visibility"),
    "schemes": ("SchemeConfig", "direct_detection_probs", "entangled_coincidence_probs",
                "hbt_coincidence_prob", "optimal_p_e", "simulate_run",
                "temporal_overlap_factor", "weak_coherent_stats", "w_state_probs"),
    "repeater": ("ChainPolicy", "ChainResult", "LinkModel", "ProtocolResult",
                 "chain_simulate", "entanglement_swap", "figure_of_merit",
                 "optimize_distill_splitter", "sscg_distill", "transmit_pair"),
    "sensitivity": ("SensitivityBudget", "bandwidth_from_timing",
                    "coherence_time_from_bandwidth", "limiting_magnitude", "mode_rate",
                    "photon_rate_from_magnitude"),
    "estimation": ("FringeFit", "closure_phase", "estimate_visibility",
                   "inject_telescope_phases", "reconstruct_image"),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def _lazy(name: str):
    """Register entscope.<name> in sys.modules as a stub that runs the module
    on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Every submodule but the CLI, which `python -m entscope.cli` must find
# unloaded: runpy warns about, and runs twice, a module already in sys.modules.
for _name in (*_HOMES, "config", "oracle", "rng"):
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
