"""Register-level power traces from gate-level simulation.

One sample per clock cycle per run: the summed Hamming weight of (or
Hamming distance across) the monitored nets — by default every flip-flop
output, since register clocking dominates the dynamic power of a
round-iterative design.  This is the standard zeroth-order power model used
in simulation-based leakage assessment.  Samples are taken between the
clock edges of the one encryption pass every caller uses
(:meth:`ProtectedDesign.clock`).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.countermeasures.base import ProtectedDesign
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSpec, FaultType

__all__ = ["LeakageModel", "power_trace"]


class LeakageModel(enum.Enum):
    """What each trace sample measures."""

    #: summed register values per cycle (static/value leakage)
    HAMMING_WEIGHT = "hw"
    #: summed register toggles between consecutive cycles (dynamic power)
    HAMMING_DISTANCE = "hd"


def _lambda_pin(design: ProtectedDesign, value: int, batch: int) -> FaultInjector:
    """Permanent stuck-ats holding the ``lambda`` input at ``value``
    (LSB-first) in every lane: a fault that fixes the randomness."""
    nets = design.circuit.inputs.get("lambda", [])
    if not nets:
        raise ValueError(f"cannot pin λ: the {design.scheme!r} design has no λ input")
    if not 0 <= value < 1 << len(nets):
        raise ValueError(f"λ pin {value} does not fit the {len(nets)}-bit λ input")
    stuck = (FaultType.STUCK_AT_0, FaultType.STUCK_AT_1)
    return FaultInjector(
        [FaultSpec.at(net, stuck[value >> i & 1], None) for i, net in enumerate(nets)],
        batch,
    )


def power_trace(
    design: ProtectedDesign,
    plaintexts: Sequence[int],
    key: int,
    *,
    model: LeakageModel = LeakageModel.HAMMING_DISTANCE,
    nets: Sequence[int] | None = None,
    rng: np.random.Generator | int | None = None,
    lambda_pin: int | None = None,
) -> np.ndarray:
    """Capture a ``(batch, cycles)`` power trace matrix for one batch.

    λ is drawn from ``rng`` like a normal invocation.  ``lambda_pin``
    holds it at that integer in every run and cycle instead, through a
    permanent stuck-at fault on each λ input bit (for λ-leakage
    assessments, static and dynamic variants alike); a design without a
    ``lambda`` input raises :class:`ValueError`.
    """
    batch = len(plaintexts)
    faults = None if lambda_pin is None else _lambda_pin(design, lambda_pin, batch)
    sim = design.simulator(batch, faults=faults)
    if nets is None:
        nets = [g.out for g in design.circuit.dffs()]
    nets = list(nets)

    samples = np.zeros((batch, design.cycles), dtype=np.float64)
    for cycle in design.clock(sim, plaintexts, key, rng=rng):
        current = sim.get_nets_bits(nets).astype(np.int16)
        if cycle:  # sample ``cycle - 1`` is the clock edge into ``cycle``
            if model is LeakageModel.HAMMING_DISTANCE:
                samples[:, cycle - 1] = np.abs(current - previous).sum(axis=1)
            else:
                samples[:, cycle - 1] = current.sum(axis=1)
        previous = current
    return samples
