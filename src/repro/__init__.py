"""repro — gate-level reproduction of the DATE 2021 paper.

*"Feeding Three Birds With One Scone: A Generic Duplication Based
Countermeasure To Fault Attacks"* (Baksi, Bhasin, Breier, Chattopadhyay,
Kumar — DATE 2021).

The package is organised bottom-up:

- :mod:`repro.netlist` — gate-level circuit IR and a bit-parallel,
  cycle-accurate simulator (the VerFI-equivalent substrate);
- :mod:`repro.synth` — combinational synthesis from truth tables (Shannon
  decomposition) plus netlist optimisation passes;
- :mod:`repro.tech` — a Nangate-45nm-calibrated gate-equivalent library and
  area reporting;
- :mod:`repro.ciphers` — PRESENT-80, AES-128 and GIFT-64 reference models and
  round-iterative datapath netlists;
- :mod:`repro.countermeasures` — naïve duplication, triplication, the
  ACISP'20 randomised duplication, and the paper's three-in-one scheme;
- :mod:`repro.faults` — fault models, injection, and campaign running;
- :mod:`repro.attacks` — working DFA / SIFA / FTA / identical-fault (Selmke)
  attacks used to validate the countermeasure end-to-end;
- :mod:`repro.evaluation` — regeneration of every table and figure in the
  paper's evaluation section.
"""

from repro.netlist.circuit import Circuit
from repro.netlist.gates import Gate, GateType
from repro.netlist.simulator import Simulator

__version__ = "1.0.0"

__all__ = ["Circuit", "Gate", "GateType", "Simulator", "__version__"]
