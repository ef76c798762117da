"""Fault models, injection and campaign running (the VerFI substitute).

The model matches the paper's §IV-A setup: a single fault is injected
anywhere in the design (any net) during any clock cycle/round, the same
fault location and type is used across all simulation runs, the key is
fixed, and the plaintext and λ change every invocation.  Each run is
classified from the attacker's viewpoint as *ineffective* (correct output
released), *detected* (comparator fired / output suppressed) or *effective*
(a faulty output escaped — a countermeasure bypass).
"""

from repro.faults.models import FaultSpec, FaultType, last_round
from repro.faults.injector import FaultInjector
from repro.faults.campaign import RNG_BLOCK, CampaignResult, run_campaign
from repro.faults.checkpoint import CheckpointError, CheckpointStore
from repro.faults.classification import Outcome
from repro.faults.executor import ExecutorConfig, ShardTimeout

__all__ = [
    "RNG_BLOCK",
    "CampaignResult",
    "CheckpointError",
    "CheckpointStore",
    "ExecutorConfig",
    "FaultInjector",
    "FaultSpec",
    "FaultType",
    "Outcome",
    "ShardTimeout",
    "last_round",
    "run_campaign",
]
