"""Register-level power traces from gate-level simulation.

One sample per clock cycle per run: the summed Hamming weight of (or
Hamming distance across) the monitored nets — by default every flip-flop
output, since register clocking dominates the dynamic power of a
round-iterative design.  This is the standard zeroth-order power model used
in simulation-based leakage assessment.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from repro.countermeasures.base import ProtectedDesign
from repro.netlist.gates import GateType
from repro.rng import make_rng

__all__ = ["LeakageModel", "power_trace"]


class LeakageModel(enum.Enum):
    """What each trace sample measures."""

    #: summed register values per cycle (static/value leakage)
    HAMMING_WEIGHT = "hw"
    #: summed register toggles between consecutive cycles (dynamic power)
    HAMMING_DISTANCE = "hd"


def power_trace(
    design: ProtectedDesign,
    plaintexts: Sequence[int],
    key: int,
    *,
    model: LeakageModel = LeakageModel.HAMMING_DISTANCE,
    nets: Sequence[int] | None = None,
    rng: np.random.Generator | int | None = None,
    lambdas: Sequence[int] | None = None,
) -> np.ndarray:
    """Capture a ``(batch, cycles)`` power trace matrix for one batch.

    ``lambdas`` optionally pins the λ input per run (for λ-leakage
    assessments); otherwise λ is drawn from ``rng`` like a normal
    invocation.  Only static-λ designs support pinning.  The inputs are
    driven by :meth:`ProtectedDesign.drive`, the step every encryption
    uses.
    """
    batch = len(plaintexts)
    sim = design.simulator(batch)
    if nets is None:
        nets = [g.out for g in design.circuit.dffs()]
    nets = list(nets)
    design.drive(sim, plaintexts, key, make_rng(rng), lambdas=lambdas)

    samples = np.zeros((batch, design.cycles), dtype=np.float64)
    previous = sim.get_nets_bits(nets).astype(np.int16)
    for cycle in range(design.cycles):
        sim.step()
        current = sim.get_nets_bits(nets).astype(np.int16)
        if model is LeakageModel.HAMMING_DISTANCE:
            samples[:, cycle] = np.abs(current - previous).sum(axis=1)
        else:
            samples[:, cycle] = current.sum(axis=1)
        previous = current
    return samples
