"""Fault-attack countermeasure wrappers.

Every wrapper takes a cipher :class:`~repro.ciphers.spn.CipherSpec`
(PRESENT/GIFT via the SPN template, AES via its own datapath, or any user
cipher) and produces a complete
:class:`~repro.countermeasures.base.ProtectedDesign`
circuit with a uniform port interface, so fault campaigns and attacks treat
all schemes interchangeably:

- :func:`~repro.countermeasures.duplication.build_naive_duplication` —
  duplicate-and-compare (the paper's Fig. 2 baseline, vulnerable to SIFA,
  FTA, and identical-fault DFA);
- :func:`~repro.countermeasures.triplication.build_triplication` —
  triplication + majority voting (the repetition-code SIFA countermeasure
  [Breier et al. 2019] the paper compares against);
- :func:`~repro.countermeasures.acisp20.build_acisp20` — the ACISP'20
  randomised duplication with *independent* λ per computation (protects
  against SIFA but not identical-fault DFA or FTA);
- :func:`~repro.countermeasures.three_in_one.build_three_in_one` — THE
  paper's countermeasure: complementary encodings λ / λ̄ and merged
  S-boxes, in its prime, per-round and per-S-box variants.
"""

from repro.utils.lazy import lazy_exports

__all__ = [
    "LambdaVariant",
    "ProtectedDesign",
    "RecoveryPolicy",
    "build_acisp20",
    "build_naive_duplication",
    "build_three_in_one",
    "build_triplication",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "build_acisp20": "repro.countermeasures.acisp20",
        "build_naive_duplication": "repro.countermeasures.duplication",
        "build_three_in_one": "repro.countermeasures.three_in_one",
        "build_triplication": "repro.countermeasures.triplication",
        "LambdaVariant": "repro.countermeasures.three_in_one",
        "ProtectedDesign": "repro.countermeasures.base",
        "RecoveryPolicy": "repro.countermeasures.base",
    },
)
