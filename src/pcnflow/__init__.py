"""Optimal payment-channel rebalancing.

Pipeline: build a rebalancing instance, solve for the maximum-value
circulation exactly, decompose it into atomic cycle flows, and execute
each cycle with HTLCs under configurable adversaries. A simulated
secret-shared solve reproduces the plaintext optimum with a
data-independent transcript.
"""

from .cycles import CycleFlow, Decomposition, decompose, validate_decomposition
from .execution import (
    AdversarySpec,
    CycleExecution,
    CycleStatus,
    HtlcContract,
    HtlcState,
    Ledger,
    PartialCycle,
    Policy,
    net_balance_delta,
    run_execution,
    setup_cycle_htlcs,
)
from .model import (
    BalancePair,
    ChannelConstraint,
    NodeId,
    RebalancingInstance,
    build_instance,
    derive_capacity,
    load_instance,
)
from .mpc import (
    DelegateSet,
    MpcSession,
    Shared,
    Transcript,
    reconstruct,
    select_delegates,
    share,
)
from .solver import (
    Circulation,
    MinCostFlowProblem,
    SolveReport,
    recover_circulation,
    reduce_to_min_cost_flow,
    solve_min_cost_flow,
    solve_rebalancing,
)

__version__ = "0.1.0"
