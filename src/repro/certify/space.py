"""Enumeration of a protected design's single-fault space.

The paper's security claim quantifies over *every* single-fault location,
not just the hand-picked S-box lines the figure campaigns target.  This
module turns that quantifier into a concrete, indexable set: a
:class:`FaultSpace` enumerates ``location × fault type × active round``
for each adversarial model and maps any integer index to a replayable
:class:`~repro.faults.models.FaultScenario` with pure arithmetic — no
scenario materialises until asked for, so a six-figure space costs a few
tuples of net ids.

The certified region per model:

``single``
    Every net in the union of the cores' ciphertext fan-in cones
    (:func:`repro.netlist.analysis.datapath_nets`), under stuck-at-0/1 and
    bit-flip, at every active round.  Primary inputs and constants are
    excluded (faulting an input is querying a different plaintext, not
    attacking the computation), as is the comparator/release backend: it
    sits *behind* the redundancy boundary, where a stuck output gate
    trivially bypasses any redundancy scheme — that boundary is the
    paper's fault model and the lint pass checks the backend structurally
    instead.
``identical_mask``
    Selmke FDTC'16 generalised: the same stuck-at landing on the
    *corresponding* state-carrying nets of every core (S-box inputs and
    outputs, register state, pre-decode output) — the model that breaks
    naive duplication and that the complementary λ/λ̄ encoding defeats.
    Only the biased types are swept: a common *bit-flip* commutes with any
    XOR encoding (flipping x⊕λ and x⊕λ̄ flips both decoded values
    identically), so no duplication-with-XOR-masking scheme can detect
    it — it is outside the countermeasure's claim, and sweeping it would
    certify nothing but that known algebraic fact.
``layer_glitch``
    A clock glitch truncating one core's combinational stage: every net of
    an S-box layer (inputs or outputs) corrupted simultaneously in one
    cycle.
``coupled``
    One physical event bleeding into adjacent wires of the same core:
    neighbouring S-box input lines faulted together, per-run hit pattern
    shared through the specs' coupling group.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.faults.models import (
    FaultScenario,
    FaultType,
    coupled_fault,
    identical_mask_fault,
    layer_glitch_fault,
    single_fault,
)
from repro.netlist.analysis import datapath_nets
from repro.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.countermeasures.base import ProtectedDesign

__all__ = [
    "DEFAULT_MODELS",
    "FaultSpace",
    "SpaceSection",
    "enumerate_fault_space",
    "locations_for_budget",
    "resolve_cycles",
]

DEFAULT_MODELS = ("single", "identical_mask", "layer_glitch", "coupled")

#: fault types swept per model (biased-only where noted in the module doc)
_MODEL_TYPES = {
    "single": (FaultType.STUCK_AT_0, FaultType.STUCK_AT_1, FaultType.BIT_FLIP),
    "identical_mask": (FaultType.STUCK_AT_0, FaultType.STUCK_AT_1),
    "layer_glitch": (FaultType.BIT_FLIP, FaultType.RESET_FLIP),
    "coupled": (FaultType.STUCK_AT_0, FaultType.STUCK_AT_1, FaultType.BIT_FLIP),
}


@dataclass(frozen=True)
class SpaceSection:
    """One model's slice of the space: ``locations × types × cycles``.

    ``locs`` holds plain net ids (``single``) or tuples of net ids (the
    multi-net models); everything is picklable data so executor workers can
    rebuild any scenario from an index.  Index layout (row-major):
    ``((loc * n_types) + type) * n_cycles + cycle`` — all cycles of one
    (location, type) are adjacent, which keeps the stratified sampler's
    arithmetic trivial.
    """

    model: str
    locs: tuple
    fault_types: tuple[FaultType, ...]
    cycles: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.locs) * len(self.fault_types) * len(self.cycles)

    def split(self, local: int) -> tuple[int, int, int]:
        """Index → ``(loc_index, type_index, cycle_index)``."""
        loc, rest = divmod(local, len(self.fault_types) * len(self.cycles))
        type_idx, cycle_idx = divmod(rest, len(self.cycles))
        return loc, type_idx, cycle_idx

    def scenario(self, local: int) -> FaultScenario:
        loc_idx, type_idx, cycle_idx = self.split(local)
        loc = self.locs[loc_idx]
        ftype = self.fault_types[type_idx]
        cycle = self.cycles[cycle_idx]
        if self.model == "single":
            return single_fault(loc, ftype, cycle, label=f"r{cycle}:{ftype.value}@{loc}")
        if self.model == "identical_mask":
            return identical_mask_fault(
                loc, ftype, cycle, label=f"r{cycle}:idmask:{ftype.value}@{'/'.join(map(str, loc))}"
            )
        if self.model == "layer_glitch":
            return layer_glitch_fault(
                loc, cycle, fault_type=ftype,
                label=f"r{cycle}:glitch:{ftype.value}@[{loc[0]}..{loc[-1]}]",
            )
        if self.model == "coupled":
            return coupled_fault(
                loc, ftype, cycle, label=f"r{cycle}:coupled:{ftype.value}@{'/'.join(map(str, loc))}"
            )
        raise ValueError(f"unknown fault model {self.model!r}")


@dataclass(frozen=True)
class FaultSpace:
    """The full fault space of one design, lazily indexable."""

    sections: tuple[SpaceSection, ...]

    @property
    def total(self) -> int:
        return sum(s.count for s in self.sections)

    def per_model(self) -> dict[str, int]:
        return {s.model: s.count for s in self.sections}

    def _locate(self, index: int) -> tuple[SpaceSection, int]:
        if index < 0:
            raise IndexError(index)
        offset = index
        for section in self.sections:
            if offset < section.count:
                return section, offset
            offset -= section.count
        raise IndexError(f"fault-space index {index} >= total {self.total}")

    def scenario(self, index: int) -> FaultScenario:
        """Materialise the scenario at a global index."""
        section, local = self._locate(index)
        return section.scenario(local)

    def stratum(self, index: int) -> tuple[str, str, int]:
        """``(model, fault_type, cycle)`` of an index, without building it."""
        section, local = self._locate(index)
        _, type_idx, cycle_idx = section.split(local)
        return (
            section.model,
            section.fault_types[type_idx].value,
            section.cycles[cycle_idx],
        )

    def digest(self) -> str:
        """SHA-256 identity of the space (pins certify checkpoints)."""
        doc = [
            {
                "model": s.model,
                "locs": [
                    list(loc) if isinstance(loc, tuple) else loc for loc in s.locs
                ],
                "types": [t.value for t in s.fault_types],
                "cycles": list(s.cycles),
            }
            for s in self.sections
        ]
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()

    def sample(self, n_locations: int, *, seed: int) -> np.ndarray:
        """Deterministic stratified sample of ``n_locations`` indices.

        Strata are ``(model, fault type, cycle)`` cells; the budget is
        allocated proportionally to each cell's size (largest-remainder
        rounding, every non-empty cell gets at least one slot while slots
        remain) so no corner of the space is silently skipped.  Within a
        cell, locations are drawn without replacement from
        ``derive_rng(seed, cell_rank)`` — the sample depends only on
        ``(space, n_locations, seed)``.
        """
        if n_locations >= self.total:
            return np.arange(self.total, dtype=np.int64)
        # Enumerate cells in canonical order: section, type, cycle.
        cells: list[tuple[int, int, int, int]] = []  # (base, stride-info...)
        base = 0
        for s_idx, section in enumerate(self.sections):
            for type_idx in range(len(section.fault_types)):
                for cycle_idx in range(len(section.cycles)):
                    cells.append((s_idx, type_idx, cycle_idx, base))
            base += section.count
        sizes = [len(self.sections[c[0]].locs) for c in cells]
        total = self.total

        quotas = [n_locations * size / total for size in sizes]
        alloc = [min(int(q), size) for q, size in zip(quotas, sizes)]
        # Every non-empty cell gets at least one slot while the budget
        # allows — tiny strata (e.g. layer_glitch) must not be starved by
        # proportionality.
        if n_locations >= len(cells):
            for i, a in enumerate(alloc):
                if a == 0:
                    alloc[i] = 1
        leftover = n_locations - sum(alloc)
        if leftover < 0:
            # The minimum-one guarantee oversubscribed: shave the largest
            # allocations back down (never below one), deterministically.
            while leftover < 0:
                i = max(range(len(cells)), key=lambda j: (alloc[j], -j))
                if alloc[i] <= 1:  # pragma: no cover - budget >= n_cells guards this
                    break
                alloc[i] -= 1
                leftover += 1
        order = sorted(
            range(len(cells)),
            key=lambda i: (-(quotas[i] - int(quotas[i])), i),
        )
        for i in order:
            if leftover <= 0:
                break
            if alloc[i] < sizes[i]:
                alloc[i] += 1
                leftover -= 1
        # If fractional ties left slots over, round-robin the remainder.
        while leftover > 0:
            progressed = False
            for i in order:
                if leftover <= 0:
                    break
                if alloc[i] < sizes[i]:
                    alloc[i] += 1
                    leftover -= 1
                    progressed = True
            if not progressed:  # pragma: no cover - n_locations < total guards this
                break

        chosen: list[np.ndarray] = []
        for rank, ((s_idx, type_idx, cycle_idx, cell_base), k) in enumerate(
            zip(cells, alloc)
        ):
            if k <= 0:
                continue
            section = self.sections[s_idx]
            rng = derive_rng(seed, rank)
            locs = np.sort(rng.choice(len(section.locs), size=k, replace=False))
            n_cyc = len(section.cycles)
            stride = len(section.fault_types) * n_cyc
            chosen.append(
                cell_base + locs * stride + type_idx * n_cyc + cycle_idx
            )
        return np.sort(np.concatenate(chosen).astype(np.int64))


def _corresponding_nets(design: "ProtectedDesign") -> list[tuple[int, ...]]:
    """Tuples of the same logical wire in every core (identical-mask locs)."""
    per_core: list[list[int]] = []
    for core in design.cores:
        nets: list[int] = []
        for word in core.sbox_inputs:
            nets.extend(word)
        for word in core.sbox_outputs:
            nets.extend(word)
        nets.extend(core.state_in)
        nets.extend(core.raw_output)
        per_core.append(nets)
    widths = {len(nets) for nets in per_core}
    if len(widths) != 1:
        raise ValueError(
            f"cores expose differently sized state layers: {sorted(widths)}"
        )
    return [tuple(group) for group in zip(*per_core)]


def resolve_cycles(
    cycles: tuple[int, ...] | None, rounds: int
) -> tuple[int, ...]:
    """The active rounds ``cycles`` selects on a ``rounds``-round design.

    None selects every round; a round outside ``[0, rounds)`` or listed
    twice raises.
    """
    if cycles is None:
        return tuple(range(rounds))
    cycles = tuple(cycles)
    bad = [c for c in cycles if not 0 <= c < rounds]
    if bad:
        raise ValueError(f"cycles out of range [0, {rounds}): {bad}")
    repeats = [c for c, n in Counter(cycles).items() if n > 1]
    if repeats:
        raise ValueError(f"cycles must not repeat {repeats}, got {cycles!r}")
    return cycles


def enumerate_fault_space(
    design: "ProtectedDesign",
    *,
    models: tuple[str, ...] = DEFAULT_MODELS,
    cycles: tuple[int, ...] | None = None,
) -> FaultSpace:
    """Build the :class:`FaultSpace` of ``design``.

    ``cycles`` restricts the active-round dimension (default: every round).
    ``models`` selects the adversarial models; unknown names raise.
    """
    unknown = set(models) - set(DEFAULT_MODELS)
    if unknown:
        raise ValueError(
            f"unknown fault models {sorted(unknown)}; pick from {DEFAULT_MODELS}"
        )
    cycles = resolve_cycles(cycles, design.spec.rounds)

    sections: list[SpaceSection] = []
    for model in DEFAULT_MODELS:  # canonical order, independent of request order
        if model not in models:
            continue
        if model == "single":
            locs = tuple(sorted(datapath_nets(design.circuit, design.cores)))
        elif model == "identical_mask":
            locs = tuple(_corresponding_nets(design))
        elif model == "layer_glitch":
            layer_locs: list[tuple[int, ...]] = []
            for core in design.cores:
                layer_locs.append(
                    tuple(n for word in core.sbox_inputs for n in word)
                )
                layer_locs.append(
                    tuple(n for word in core.sbox_outputs for n in word)
                )
            locs = tuple(layer_locs)
        else:  # coupled
            pair_locs: list[tuple[int, ...]] = []
            for core in design.cores:
                for word in core.sbox_inputs:
                    for a, b in zip(word, word[1:]):
                        pair_locs.append((a, b))
            locs = tuple(pair_locs)
        if not locs:
            continue
        sections.append(
            SpaceSection(
                model=model,
                locs=locs,
                fault_types=_MODEL_TYPES[model],
                cycles=cycles,
            )
        )
    return FaultSpace(sections=tuple(sections))


def locations_for_budget(budget: int, runs_per_location: int) -> int:
    """How many locations a run budget affords (at least one)."""
    if budget <= 0:
        raise ValueError(f"budget must be positive: {budget}")
    return max(1, math.ceil(budget / runs_per_location))
