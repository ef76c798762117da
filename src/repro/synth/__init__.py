"""Combinational logic synthesis: truth tables to technology-mapped gates.

The authors synthesised their designs with a commercial flow targeting the
Nangate 45nm PDK; this subpackage is our open substitute.  It has one
synthesis engine, recursive Shannon decomposition with hash-consing,
followed by netlist optimisation passes (constant propagation, structural
hashing, inverter-pair elimination, dead gate removal).  A small ROBDD
package (:class:`BDD`) is kept for equivalence checks; no synthesis path
uses it.

The front door for cipher work is :func:`repro.synth.sbox_synth.synthesize_sbox`.
"""

from repro.utils.lazy import lazy_exports

__all__ = ["BDD", "TruthTable", "optimize", "synthesize_sbox", "verify_sbox_circuit"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "BDD": "repro.synth.bdd",
        "TruthTable": "repro.synth.truthtable",
        "optimize": "repro.synth.optimize",
        "synthesize_sbox": "repro.synth.sbox_synth",
        "verify_sbox_circuit": "repro.synth.sbox_synth",
    },
)
