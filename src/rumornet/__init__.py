"""Rumor spreading on scale-free networks.

Nonlinear per-step contact counts (k**alpha), degree-dependent tie strength
((k_i k_j)**beta), degree-block mean-field dynamics, analytic thresholds,
random and targeted inoculation, and agent-level Monte Carlo simulation, plus
a scenario-driven experiment CLI (``rumornet``).

The submodules are the API; importing this package loads none of them:

* ``rumornet.netgen``: degree distributions, graph builders and ``Network``
* ``rumornet.meanfield``: the degree-block ODE and the final-size fixed point
* ``rumornet.thresholds``: the analytic outbreak thresholds
* ``rumornet.inoculation``: random and targeted inoculation plans
* ``rumornet.montecarlo``: agent-level runs and ensembles on a ``Network``
* ``rumornet.expcli``: scenario files and the ``rumornet`` command line
"""

__version__ = "0.1.0"
