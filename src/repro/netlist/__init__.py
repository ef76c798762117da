"""Gate-level circuit IR, analysis, Verilog I/O, and bit-parallel simulation.

This subpackage is the hardware substrate of the reproduction.  A
:class:`~repro.netlist.circuit.Circuit` is a technology-mapped netlist of
two-input cells plus D flip-flops, and
:class:`~repro.netlist.simulator.Simulator` evaluates it cycle-accurately for
thousands of independent runs at once (one run per bit lane of a ``uint64``
word), which is what makes the paper's 80k-run fault campaigns feasible in
pure Python.
"""

from repro.netlist.analysis import LintError, LintReport, lint_countermeasure
from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit, CircuitError, circuit_digest
from repro.netlist.gates import Gate, GateType
from repro.netlist.levelized import LevelizedKernel, LevelSchedule, compile_schedule
from repro.netlist.simulator import BACKENDS, DEFAULT_BACKEND, Simulator

__all__ = [
    "BACKENDS",
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "DEFAULT_BACKEND",
    "Gate",
    "GateType",
    "LevelSchedule",
    "LevelizedKernel",
    "LintError",
    "LintReport",
    "Simulator",
    "circuit_digest",
    "compile_schedule",
    "lint_countermeasure",
]
