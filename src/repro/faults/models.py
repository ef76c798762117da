"""Fault types and fault specifications.

A :class:`FaultSpec` is a *location* (one net), a *type* (how the value is
corrupted), a *time window* (which clock cycles), and optionally a
*probability* (for imperfect injections — drawn once per run, i.e. the same
runs are affected at every targeted cycle, modelling a per-invocation
hit-or-miss of the injection equipment).

The paper's experiments use single stuck-at faults in the last round; the
campaign API accepts any list of specs, so multi-fault scenarios (the
identical-mask DFA needs one fault per core) are just two entries.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.ciphers.spn import SpnCore

__all__ = [
    "FaultType",
    "FaultSpec",
    "FaultScenario",
    "coupled_fault",
    "identical_mask_fault",
    "last_round",
    "layer_glitch_fault",
    "sbox_input_net",
    "sbox_output_net",
    "single_fault",
]


class FaultType(enum.Enum):
    """How the targeted net's value is corrupted while the fault is active."""

    STUCK_AT_0 = "stuck_at_0"
    STUCK_AT_1 = "stuck_at_1"
    BIT_FLIP = "bit_flip"
    #: biased flip: 1→0 only (a reset glitch); equals STUCK_AT_0 on wires
    #: but is the canonical SIFA "biased fault" phrasing
    RESET_FLIP = "reset_flip"
    #: biased flip: 0→1 only (a set glitch)
    SET_FLIP = "set_flip"

    @property
    def is_biased(self) -> bool:
        """True when ineffectiveness depends on the data (SIFA-exploitable)."""
        return self is not FaultType.BIT_FLIP

    def to_dict(self) -> str:
        """JSON-safe form (the enum's stable string value)."""
        return self.value

    @classmethod
    def from_dict(cls, data: str) -> "FaultType":
        """Inverse of :meth:`to_dict`; accepts the value or the member name."""
        try:
            return cls(data)
        except ValueError:
            return cls[str(data).upper()]


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: location × type × time × reliability."""

    net: int
    fault_type: FaultType
    #: clock cycles during which the fault is active; None = every cycle
    #: (a permanent/stuck fault for the whole run)
    cycles: frozenset[int] | None = None
    #: per-run probability that this injection lands (1.0 = always)
    probability: float = 1.0
    #: free-form label carried into reports
    label: str = ""
    #: coupling group: probabilistic specs sharing a non-empty group hit the
    #: *same* subset of runs (one physical event touching several nets — the
    #: identical-mask and coupled models need this)
    group: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0,1]: {self.probability}")
        if self.cycles and min(self.cycles) < 0:
            raise ValueError(f"fault cycle {min(self.cycles)} is negative")

    def to_dict(self) -> dict:
        """JSON-safe dict; round-trips exactly through :meth:`from_dict`.

        Used by campaign persistence and the executor's checkpoint
        manifests, so loaded campaigns carry *real* specs, not reprs.
        """
        data = {
            "net": self.net,
            "fault_type": self.fault_type.to_dict(),
            "cycles": sorted(self.cycles) if self.cycles is not None else None,
            "probability": self.probability,
            "label": self.label,
        }
        if self.group:  # omitted when empty so pre-existing manifests match
            data["group"] = self.group
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Reconstruct a spec serialised by :meth:`to_dict`."""
        cycles = data.get("cycles")
        return cls(
            net=int(data["net"]),
            fault_type=FaultType.from_dict(data["fault_type"]),
            cycles=None if cycles is None else frozenset(int(c) for c in cycles),
            probability=float(data.get("probability", 1.0)),
            label=str(data.get("label", "")),
            group=str(data.get("group", "")),
        )

    @staticmethod
    def at(
        net: int,
        fault_type: FaultType,
        cycles: Iterable[int] | int | None,
        *,
        probability: float = 1.0,
        label: str = "",
        group: str = "",
    ) -> "FaultSpec":
        """Convenience constructor accepting a single cycle or an iterable."""
        if cycles is None:
            window = None
        elif isinstance(cycles, int):
            window = frozenset((cycles,))
        else:
            window = frozenset(cycles)
        return FaultSpec(
            net,
            fault_type,
            window,
            probability=probability,
            label=label,
            group=group,
        )


@dataclass(frozen=True)
class FaultScenario:
    """One *attack instance*: a named, replayable bundle of FaultSpecs.

    The coverage certifier enumerates scenarios, not bare specs, because the
    adversarial models beyond the paper's baseline hit several nets at once:
    an identical-mask fault lands on corresponding nets of every core, a
    clock glitch wipes a whole layer, a coupled fault bleeds into physical
    neighbours.  ``model`` names which sweep family produced the scenario so
    certificates can histogram per model.
    """

    #: sweep family: "single" | "identical_mask" | "layer_glitch" | "coupled"
    model: str
    specs: tuple[FaultSpec, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a FaultScenario needs at least one FaultSpec")

    def to_dict(self) -> dict:
        """JSON-safe dict embedding full spec dicts (certificate witnesses)."""
        return {
            "model": self.model,
            "label": self.label,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultScenario":
        return cls(
            model=str(data["model"]),
            specs=tuple(FaultSpec.from_dict(s) for s in data["specs"]),
            label=str(data.get("label", "")),
        )


def single_fault(
    net: int,
    fault_type: FaultType,
    cycles: Iterable[int] | int | None,
    *,
    probability: float = 1.0,
    label: str = "",
) -> FaultScenario:
    """The paper's baseline model: one net, one corruption."""
    return FaultScenario(
        "single",
        (FaultSpec.at(net, fault_type, cycles, probability=probability, label=label),),
        label=label or f"single:{fault_type.value}@{net}",
    )


def identical_mask_fault(
    nets: Sequence[int],
    fault_type: FaultType,
    cycles: Iterable[int] | int | None,
    *,
    probability: float = 1.0,
    label: str = "",
) -> FaultScenario:
    """Selmke FDTC'16 generalised: one event hits corresponding nets of
    *every* core with the identical corruption.

    ``nets`` lists the same logical wire in each redundant core (e.g. bit 2
    of S-box 13's input, in core 0 and core 1).  All specs share one
    coupling group, so under ``probability < 1`` the event hits the same
    runs in every core — a miss misses everywhere, exactly like a single
    laser spot covering both placements.  This is the model that breaks
    naive duplication (both cores wrong in the same way → comparator
    blind) and that the complementary λ-encoding is designed to survive.
    """
    if len(nets) < 2:
        raise ValueError("identical-mask fault needs one net per core (>= 2)")
    label = label or f"idmask:{fault_type.value}@{'/'.join(map(str, nets))}"
    return FaultScenario(
        "identical_mask",
        tuple(
            FaultSpec.at(
                net,
                fault_type,
                cycles,
                probability=probability,
                label=label,
                group=label,
            )
            for net in nets
        ),
        label=label,
    )


def layer_glitch_fault(
    nets: Sequence[int],
    cycle: int,
    *,
    fault_type: FaultType = FaultType.BIT_FLIP,
    label: str = "",
) -> FaultScenario:
    """Whole-layer clock glitch: every net of one layer corrupted in one cycle.

    Models a shortened clock period — an entire combinational stage (all
    S-box inputs of one core, say) latches garbage simultaneously.  The
    default BIT_FLIP is the harshest deterministic choice; biased variants
    model a glitch that only prevents rising transitions.
    """
    if not nets:
        raise ValueError("layer glitch needs a non-empty layer")
    label = label or f"glitch:{fault_type.value}@layer[{min(nets)}..{max(nets)}]"
    return FaultScenario(
        "layer_glitch",
        tuple(
            FaultSpec.at(net, fault_type, cycle, label=label) for net in nets
        ),
        label=label,
    )


def coupled_fault(
    nets: Sequence[int],
    fault_type: FaultType,
    cycles: Iterable[int] | int | None,
    *,
    probability: float = 1.0,
    label: str = "",
) -> FaultScenario:
    """Multi-net coupled fault: one event bleeds into physical neighbours.

    Unlike the identical-mask model the nets live in the *same* core
    (adjacent wires under one laser spot / EM probe).  Sharing a coupling
    group keeps the per-run hit pattern common to all nets.
    """
    if len(nets) < 2:
        raise ValueError("coupled fault needs >= 2 nets (use single_fault)")
    label = label or f"coupled:{fault_type.value}@{'/'.join(map(str, nets))}"
    return FaultScenario(
        "coupled",
        tuple(
            FaultSpec.at(
                net,
                fault_type,
                cycles,
                probability=probability,
                label=label,
                group=label,
            )
            for net in nets
        ),
        label=label,
    )


def last_round(core: SpnCore) -> int:
    """The clock cycle index of the final round (paper: 'last round attack')."""
    return core.spec.rounds - 1


def sbox_input_net(core: SpnCore, sbox: int, bit: int) -> int:
    """The net feeding input line ``bit`` (LSB = 0) of S-box ``sbox``.

    ``sbox_input_net(core, 13, 2)`` is "the second MSB input of S-box 13"
    for a 4-bit S-box — the Fig. 4 target.
    """
    return core.sbox_inputs[sbox][bit]


def sbox_output_net(core: SpnCore, sbox: int, bit: int) -> int:
    """The net driven by output line ``bit`` of S-box ``sbox``."""
    return core.sbox_outputs[sbox][bit]
