"""Decentralized capacity pricing for railway line planning.

Line operators bid for train frequencies on their lines; a network operator
prices edge capacity inside each line pool and steers the cross-pool
capacity split until every pool is equally expensive.  The package bundles
the market engines, a centralized reference solver for certification, and a
reproducible experiment harness around capacity disruptions.
"""
from .network import (
    Edge,
    InputMismatchError,
    Line,
    Network,
    PoolSystem,
    PoolView,
    compile_pool,
    dump_network_file,
    load_network_file,
    network_from_json,
    network_to_json,
)
from .utility import UtilitySpec, UtilityTable
from .single_pool import (
    DynamicsConfig,
    PoolMarketState,
    SinglePoolResult,
    allocate_frequencies,
    cold_start,
    price_step,
    refresh_bids,
    run_price_dynamics,
    solve_fixed_bids,
)
from .multi_pool import (
    MechanismConfig,
    MechanismResult,
    OuterState,
    ProportionVector,
    costs_equal,
    pool_cost,
    run_mechanism,
    update_proportions,
)
from .oracle import (
    KKTReport,
    OracleSolution,
    kkt_report,
    mechanism_kkt,
    solve_full,
)
from .scenarios import (
    DisruptionSpec,
    ExperimentRecord,
    GridSpec,
    RecoveryResult,
    apply_disruption,
    congested_edges,
    generate_grid,
    pool_scaled_utilities,
    run_recovery_experiment,
    uniform_utilities,
)

__version__ = "0.1.0"
