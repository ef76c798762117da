"""The identical-fault-mask DFA of Selmke, Heyszl and Sigl (FDTC 2016).

Against duplicate-and-compare, inject the *same* fault into the
corresponding location of both computations: both cores derail
identically, the comparator sees agreement, and the faulty output is
released — turning the protected device back into an unprotected DFA
target.  The paper's Fig. 5 scenario.

This module glues the pieces together: run the double-fault campaign,
harvest the EFFECTIVE runs (faulty released words, with the fault-free
twin as the correct pair member), and hand them to the classic DFA solver.
Against the three-in-one scheme the complementary encodings guarantee the
two cores disagree whenever the fault bites, so the harvest is empty and
the attack reports failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.dfa import DfaResult, dfa_attack_last_round
from repro.countermeasures.base import ProtectedDesign
from repro.faults.campaign import CampaignResult, run_campaign
from repro.faults.classification import Outcome
from repro.faults.executor import ExecutorConfig
from repro.faults.models import FaultSpec, FaultType, last_round, sbox_input_net

__all__ = ["SelmkeResult", "selmke_attack"]


@dataclass(frozen=True)
class SelmkeResult:
    """Outcome of one identical-fault DFA attempt against a design."""

    scheme: str
    campaign: CampaignResult
    n_faulty_released: int
    dfa: DfaResult | None

    @property
    def success(self) -> bool:
        return self.dfa is not None and self.dfa.success


def selmke_attack(
    design: ProtectedDesign,
    *,
    target_sbox: int,
    faulted_bit: int,
    fault_type: FaultType = FaultType.STUCK_AT_0,
    key: int,
    n_runs: int = 20_000,
    seed: int = 1,
    max_pairs: int = 64,
    executor: ExecutorConfig | None = None,
) -> SelmkeResult:
    """Run the full identical-fault DFA against ``design``.

    Injects ``fault_type`` at input line ``faulted_bit`` of S-box
    ``target_sbox`` in the last round of *every* core of the design (the
    simultaneous double laser of the FDTC'16 setup), then attempts
    last-round DFA on whatever faulty outputs escaped.  ``executor`` is
    forwarded to the underlying campaign (see
    :func:`~repro.faults.campaign.run_campaign`).
    """
    specs = [
        FaultSpec.at(
            sbox_input_net(core, target_sbox, faulted_bit),
            fault_type,
            last_round(core),
            label=f"selmke/{core.tag}",
        )
        for core in design.cores
    ]
    campaign = run_campaign(
        design,
        specs,
        n_runs=n_runs,
        key=key,
        seed=seed,
        executor=executor,
    )
    effective = campaign.select(Outcome.EFFECTIVE)[:max_pairs]
    if len(effective) == 0:
        return SelmkeResult(
            scheme=design.scheme,
            campaign=campaign,
            n_faulty_released=0,
            dfa=None,
        )
    # Against a randomised-encoding victim the physical polarity of a
    # stuck-at maps to either logical polarity depending on the hidden λ,
    # so the attacker solves with both models admitted per pair.
    models: list[FaultType] | FaultType = fault_type
    if design.lambda_width and fault_type in (
        FaultType.STUCK_AT_0,
        FaultType.STUCK_AT_1,
        FaultType.RESET_FLIP,
        FaultType.SET_FLIP,
    ):
        models = [FaultType.STUCK_AT_0, FaultType.STUCK_AT_1]
    dfa = dfa_attack_last_round(
        design.spec,
        campaign.unpack(campaign.expected[effective]),
        campaign.unpack(campaign.released[effective]),
        target_sbox,
        faulted_bit,
        models,
        key=key,
    )
    return SelmkeResult(
        scheme=design.scheme,
        campaign=campaign,
        n_faulty_released=int(
            (campaign.outcomes == Outcome.EFFECTIVE).sum()
        ),
        dfa=dfa,
    )
