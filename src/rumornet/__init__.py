"""Rumor spreading on scale-free networks.

Nonlinear per-step contact counts (k**alpha), degree-dependent tie strength
((k_i k_j)**beta), degree-block mean-field dynamics, analytic thresholds,
random and targeted inoculation, and agent-level Monte Carlo simulation, plus
a scenario-driven experiment CLI (``rumornet``).
"""

from .inoculation import InoculationPlan, apply_plan, make_random_plan, make_targeted_plan
from .meanfield import (
    DegreeClassState,
    ModelParams,
    Trajectory,
    final_rumor_size,
    integrate,
    psi_fixed_point,
    uniform_seed_state,
)
from .montecarlo import EnsembleSummary, SimTrace, ensemble, run
from .netgen import (
    DegreeDistribution,
    Network,
    build_ba_network,
    build_configuration_network,
    sample_powerlaw_distribution,
)
from .thresholds import (
    NO_OUTBREAK,
    ThresholdReport,
    threshold_modified,
    threshold_modified_bounded,
    threshold_random_inoc,
    threshold_targeted_inoc,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeClassState",
    "DegreeDistribution",
    "EnsembleSummary",
    "InoculationPlan",
    "ModelParams",
    "NO_OUTBREAK",
    "Network",
    "SimTrace",
    "ThresholdReport",
    "Trajectory",
    "apply_plan",
    "build_ba_network",
    "build_configuration_network",
    "ensemble",
    "final_rumor_size",
    "integrate",
    "make_random_plan",
    "make_targeted_plan",
    "psi_fixed_point",
    "run",
    "sample_powerlaw_distribution",
    "threshold_modified",
    "threshold_modified_bounded",
    "threshold_random_inoc",
    "threshold_targeted_inoc",
    "uniform_seed_state",
]
