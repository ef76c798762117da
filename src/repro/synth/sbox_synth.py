"""Front door for combinational synthesis of S-boxes (and any truth table).

``synthesize_sbox`` turns a :class:`TruthTable` into a standalone, optimised
:class:`Circuit` with one input port ``x`` and one output port ``y``.
Cipher generators then stamp the result into their datapaths with
:meth:`CircuitBuilder.append_circuit`, so each distinct S-box is synthesised
once no matter how many instances the datapath needs.

There is one engine, recursive Shannon decomposition
(:mod:`repro.synth.shannon`), followed by the optimisation passes of
:mod:`repro.synth.optimize`: every table, figure, certificate and attack
prices and faults the netlist it produces.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.netlist.simulator import Simulator
from repro.synth.gatecache import GateCache
from repro.synth.optimize import optimize
from repro.synth.shannon import shannon_synthesize_into
from repro.synth.truthtable import TruthTable

__all__ = ["synthesize_sbox", "verify_sbox_circuit"]


def synthesize_sbox(
    table: TruthTable,
    *,
    name: str = "sbox",
    var_order: Sequence[int] | None = None,
    optimize_result: bool = True,
) -> Circuit:
    """Synthesise ``table`` into a fresh circuit (ports ``x`` → ``y``).

    The returned circuit is verified exhaustively against the table before
    being handed back — a wrong netlist is a bug, not a degraded result, so
    this raises rather than warns.  ``var_order`` is passed to
    :func:`~repro.synth.shannon.shannon_synthesize_into`;
    ``optimize_result=False`` returns the unoptimised decomposition.
    """
    builder = CircuitBuilder(name)
    inputs = builder.input("x", table.n_inputs)
    outputs = shannon_synthesize_into(
        GateCache(builder), table, inputs, var_order=var_order
    )
    builder.output("y", outputs)

    circuit = builder.circuit
    if optimize_result:
        circuit = optimize(circuit)
    verify_sbox_circuit(circuit, table)
    return circuit


def verify_sbox_circuit(circuit: Circuit, table: TruthTable) -> None:
    """Exhaustively check that ``circuit`` computes ``table`` (or raise).

    Uses the bit-parallel simulator with one lane per input pattern, so even
    the 9-input merged AES S-box (512 patterns) verifies in one pass.
    """
    n = table.n_inputs
    patterns = list(range(1 << n))
    sim = Simulator(circuit, batch=len(patterns))
    sim.set_input_ints("x", patterns)
    sim.eval_comb()
    got = sim.get_output_ints("y")
    for x, value in enumerate(got):
        if value != table(x):
            raise AssertionError(
                f"synthesised circuit wrong at x={x:#x}: got {value:#x}, "
                f"expected {table(x):#x}"
            )
