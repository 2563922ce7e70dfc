"""The package root: its public names, and that importing it loads nothing else."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entscope

SRC = str(Path(entscope.__file__).resolve().parents[1])

PUBLIC_NAMES = [
    "Baseline", "ChainPolicy", "ChainResult", "ConfigError", "DensityOperator",
    "DetectorModel", "EntangledPairState", "EventLog", "FringeFit", "InfeasibleBudgetError",
    "LinkModel", "LowStatisticsError", "ProtocolResult", "SchemeConfig", "SensitivityBudget",
    "SourceModel", "apply_beam_splitter", "apply_loss", "apply_phase",
    "arrival_density_matrix", "bandwidth_from_timing", "chain_simulate", "closure_phase",
    "coherence_time_from_bandwidth", "direct_detection_probs", "entangled_coincidence_probs",
    "entanglement_swap", "estimate_visibility", "figure_of_merit", "fringe_counts",
    "hbt_coincidence_prob", "inject_telescope_phases", "limiting_magnitude", "load_pgm",
    "load_point_sources", "mode_rate", "optimal_p_e", "optimize_distill_splitter",
    "outcome_distribution", "pair_counts", "photon_rate_from_magnitude", "reconstruct_image",
    "save_pgm", "simulate_run", "sscg_distill", "temporal_overlap_factor", "transmit_pair",
    "visibilities", "visibility", "w_state_probs", "weak_coherent_stats",
]


def run_python(code: str) -> str:
    """stdout of code run in a fresh interpreter that finds this package."""
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}).stdout


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 51
    assert sorted(entscope.__all__) == PUBLIC_NAMES
    assert entscope.__version__ == "0.1.0"


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_its_home_modules_attribute(name):
    value = getattr(entscope, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("entscope.")
    assert getattr(home, name) is value


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from entscope import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(entscope))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="^module 'entscope' has no attribute 'no_such'$"):
        entscope.no_such


def test_bare_import_runs_no_submodule():
    executed = json.loads(run_python(
        "import json, sys, types, entscope\n"
        "print(json.dumps([n for n, m in sys.modules.items()\n"
        "                  if n.startswith(('entscope.', 'numpy'))\n"
        "                  and type(m) is types.ModuleType]))"))
    assert executed == []
