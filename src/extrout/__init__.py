"""Location-privacy simulator for wireless ad hoc networks.

Builds quasi-unit-disk topologies, runs the EXTROUT route-extrapolation
scheme and its baselines under synchronized cover traffic, mounts a global
passive adversary on the resulting traffic trace, and reconciles measured
privacy/overhead numbers against the analytical formulas.
"""

from .topology import (
    Position,
    Topology,
    TopologyParams,
    average_degree,
    build_qudg,
    generate,
    link_probability,
    load_topology,
    place_nodes,
)
from .routing import (
    ExtendedRoute,
    Route,
    UnreachableError,
    disjoint_paths,
    extrapolate,
    hop_distances,
    shortest_path,
)
from .protocols import (
    PlacementError,
    ProtocolVariant,
    ScenarioPlan,
    ScenarioSettings,
    build_scenario,
    dummy_schedule,
    place_fake_pair,
    sample_pair,
)
from .simengine import TrafficTrace, run, transmission_matrix
from .adversary import (
    AttackSummary,
    AttackVerdict,
    attack_trials,
    endpoint_candidates,
    observe,
    unlinkability_score,
)
from .metrics import (
    PrivacyReport,
    ReconciliationRecord,
    reconcile,
    report_from_run,
)

__version__ = "0.1.0"
