"""Working attack implementations used to validate the countermeasures.

The paper argues its scheme defeats three attack families; this package
implements each family for real, so "protected" is demonstrated as *the
key-recovery attack stops working*, not just as a distribution plot:

- :mod:`repro.attacks.dfa` — classic last-round differential fault
  analysis on PRESENT (nibble-key elimination via the S-box DDT);
- :mod:`repro.attacks.selmke` — the FDTC'16 identical-fault-mask DFA that
  defeats plain duplication [Selmke, Heyszl, Sigl];
- :mod:`repro.attacks.sifa` — statistical ineffective fault analysis
  (CHES'18): SEI-ranked subkey guesses over the ineffective set;
- :mod:`repro.attacks.fta` — fault template attacks (Eurocrypt'20):
  AND/OR-gate fault templates inside an S-box instance, matched against
  observed effectiveness to recover S-box inputs;
- :mod:`repro.attacks.metrics` — SEI, χ², and ranking helpers shared by
  the above.
"""

from repro.utils.lazy import lazy_exports

__all__ = [
    "chi_squared_uniform",
    "dfa_attack_last_round",
    "fta_attack",
    "pfa_attack",
    "sei",
    "selmke_attack",
    "sifa_attack",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "chi_squared_uniform": "repro.attacks.metrics",
        "dfa_attack_last_round": "repro.attacks.dfa",
        "fta_attack": "repro.attacks.fta",
        "pfa_attack": "repro.attacks.pfa",
        "sei": "repro.attacks.metrics",
        "selmke_attack": "repro.attacks.selmke",
        "sifa_attack": "repro.attacks.sifa",
    },
)
