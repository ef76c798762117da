"""Turning :class:`FaultSpec` lists into per-net lane masks.

Every fault type is one lane-wise operation on a net's packed ``uint64``
word, ``v <- (v & keep) ^ flip``.  With ``hit`` the lanes the fault lands
in (all-ones, padding lanes included, unless the spec is probabilistic),
stuck-at-0 and reset flips are ``(~hit, 0)``, stuck-at-1 and set flips
``(~hit, hit)``, and bit flips ``(ones, hit)``.  Applying ``(k1, f1)``
and then ``(k2, f2)`` is the single pair ``(k1 & k2, (f1 & k2) ^ f2)``,
so the injector folds every spec hitting one net in one cycle into one
pair, in spec order, at construction.  The
simulator calls :meth:`FaultInjector.for_cycle` once per clock cycle and
applies the returned ``{net: (keep, flip)}`` map in place, two vector ops
per targeted net per cycle regardless of batch size.

Per-run probabilistic faults draw a lane mask once at construction: the
same subset of runs is hit at every active cycle, which models a fault
set-up that either locks onto an invocation or misses it entirely.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.faults.models import FaultSpec, FaultType
from repro.rng import make_rng
from repro.utils.bits import pack_bits, words_for

__all__ = ["FaultInjector"]

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class FaultInjector:
    """A :class:`~repro.netlist.simulator.FaultProvider` over FaultSpecs.

    Note on RESET/SET flips: on a combinational *net* a reset glitch and a
    stuck-at-0 coincide (both force the wire low while active); the two
    spellings exist because the SIFA literature describes the bias as a
    directional flip.  Both classify as biased faults.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        batch: int,
        *,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.specs = list(specs)
        self.batch = batch
        n_words = words_for(batch)
        rng = make_rng(rng)
        ones = np.full(n_words, _ALL_ONES, dtype=np.uint64)
        zeros = np.zeros(n_words, dtype=np.uint64)

        # One folded table per cycle some window names; every other cycle
        # sees only the permanent specs.
        self._always: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._windowed: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {
            cycle: {} for spec in self.specs if spec.cycles for cycle in spec.cycles
        }
        # Specs sharing a coupling group model ONE physical event touching
        # several nets, so they must hit the same runs: the lane mask is
        # drawn once per group (at the group's first occurrence in spec
        # order, keeping the stream deterministic) and reused.
        group_masks: dict[str, np.ndarray] = {}
        for spec in self.specs:
            if spec.probability < 1.0:
                if spec.group and spec.group in group_masks:
                    hit = group_masks[spec.group]
                else:
                    lanes = (rng.random(batch) < spec.probability).astype(np.uint8)
                    hit = pack_bits(lanes[:, None]).reshape(n_words)
                    if spec.group:
                        group_masks[spec.group] = hit
            else:
                hit = ones
            kind = spec.fault_type
            if kind is FaultType.BIT_FLIP:
                keep, flip = ones, hit
            elif kind is FaultType.STUCK_AT_1 or kind is FaultType.SET_FLIP:
                keep, flip = ~hit, hit
            else:  # STUCK_AT_0, RESET_FLIP
                keep, flip = ~hit, zeros
            if spec.cycles is None:
                tables = [self._always, *self._windowed.values()]
            else:
                tables = [self._windowed[cycle] for cycle in spec.cycles]
            for table in tables:
                self._merge(table, spec.net, keep, flip)

    @staticmethod
    def _merge(table: dict, net: int, keep: np.ndarray, flip: np.ndarray) -> None:
        """Fold ``(keep, flip)`` after whatever ``table`` holds for ``net``."""
        existing = table.get(net)
        if existing is not None:
            keep, flip = existing[0] & keep, (existing[1] & keep) ^ flip
        table[net] = (keep, flip)

    def for_cycle(self, cycle: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """``{net: (keep, flip)}`` active during ``cycle`` (simulator hook)."""
        return self._windowed.get(cycle, self._always)
