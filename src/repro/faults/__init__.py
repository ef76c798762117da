"""Fault models, injection and campaign running (the VerFI substitute).

The model matches the paper's §IV-A setup: a single fault is injected
anywhere in the design (any net) during any clock cycle/round, the same
fault location and type is used across all simulation runs, the key is
fixed, and the plaintext and λ change every invocation.  Each run is
classified from the attacker's viewpoint as *ineffective* (correct output
released), *detected* (comparator fired / output suppressed) or *effective*
(a faulty output escaped — a countermeasure bypass).
"""

from repro.utils.lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "RNG_BLOCK": "repro.faults.campaign",
        "CampaignResult": "repro.faults.campaign",
        "CheckpointError": "repro.faults.checkpoint",
        "CheckpointStore": "repro.faults.checkpoint",
        "ExecutorConfig": "repro.faults.executor",
        "FaultInjector": "repro.faults.injector",
        "FaultSpec": "repro.faults.models",
        "FaultType": "repro.faults.models",
        "Outcome": "repro.faults.classification",
        "ShardTimeout": "repro.faults.executor",
        "last_round": "repro.faults.models",
        "run_campaign": "repro.faults.campaign",
    },
)
