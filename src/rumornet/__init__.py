"""Rumor spreading on scale-free networks.

Nonlinear per-step contact counts (k**alpha), degree-dependent tie strength
(b * (k_i k_j)**beta), degree-block mean-field dynamics, analytic thresholds,
random and targeted inoculation, and agent-level Monte Carlo simulation, plus
a scenario-driven experiment CLI (``rumornet``).
"""

from .inoculation import InoculationPlan, apply_plan, make_random_plan, make_targeted_plan
from .meanfield import (
    DegreeClassState,
    ModelParams,
    Trajectory,
    closed_form_ignorant,
    derivatives_classical,
    final_rumor_size,
    integrate,
    psi_fixed_point,
    uniform_seed_state,
)
from .montecarlo import EnsembleSummary, SimTrace, ensemble, run
from .netgen import (
    DegreeDistribution,
    Network,
    TieStrengthParams,
    build_ba_network,
    build_configuration_network,
    degree_moment,
    node_strength,
    sample_powerlaw_distribution,
    tie_strength,
)
from .thresholds import (
    NO_OUTBREAK,
    ThresholdReport,
    empirical_threshold,
    threshold_classic_bounded,
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
    "TieStrengthParams",
    "Trajectory",
    "apply_plan",
    "build_ba_network",
    "build_configuration_network",
    "closed_form_ignorant",
    "degree_moment",
    "derivatives_classical",
    "empirical_threshold",
    "ensemble",
    "final_rumor_size",
    "integrate",
    "make_random_plan",
    "make_targeted_plan",
    "node_strength",
    "psi_fixed_point",
    "run",
    "sample_powerlaw_distribution",
    "threshold_classic_bounded",
    "threshold_modified",
    "threshold_modified_bounded",
    "threshold_random_inoc",
    "threshold_targeted_inoc",
    "tie_strength",
    "uniform_seed_state",
]
