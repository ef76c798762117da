"""Outcome classification and campaign statistics.

The attacker-view outcome of one faulted run, judged from what leaves the
chip (the released word and whether anything was released at all):

- ``INEFFECTIVE`` — the correct ciphertext was released: the fault did not
  change the computation (or was corrected).  These runs are SIFA's raw
  material.
- ``DETECTED`` — the comparator fired: the output was suppressed/replaced.
  These runs leak at most "a fault happened" (FTA's raw material).
- ``EFFECTIVE`` — a *wrong* ciphertext was released without the comparator
  firing: the countermeasure was bypassed.  These runs are DFA's raw
  material and should never occur for a sound scheme under its fault model.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["Outcome", "classify"]


class Outcome(enum.IntEnum):
    """Attacker-view classification of one faulted run."""

    INEFFECTIVE = 0
    DETECTED = 1
    EFFECTIVE = 2
    #: infective recovery fired: a wrong word was released, but it is the
    #: correct word XOR a fresh random mask — carries no DFA information
    INFECTED = 3


def classify(
    released: np.ndarray,
    fault_flags: np.ndarray,
    expected: np.ndarray,
    *,
    flag_observable: bool = True,
    infective: bool = False,
) -> np.ndarray:
    """Vector-classify a batch.

    ``released`` and ``expected`` are ``(batch, block)`` bit matrices or
    ``(batch, ceil(block / 8))`` byte rows (two rows are equal exactly
    when their words are, so either layout gives the same outcomes);
    ``fault_flags`` is a ``(batch,)`` 0/1 vector for the comparator flag.
    Returns a ``(batch,)`` array of :class:`Outcome` values.

    ``flag_observable`` says whether the flag manifests externally.  For
    detect-and-suppress schemes it does (the attacker sees the output get
    replaced), so a flagged run is DETECTED even if the replacement happens
    to equal the expected word.  For error-*correcting* schemes
    (triplication) the flag is internal: the attacker only sees the
    corrected output, so a corrected run classifies as INEFFECTIVE — which
    is precisely why correction defeats SIFA's effect filter.
    """
    if released.shape != expected.shape:
        raise ValueError(
            f"released {released.shape} vs expected {expected.shape} mismatch"
        )
    correct = (released == expected).all(axis=1)
    out = np.full(len(released), Outcome.EFFECTIVE, dtype=np.int8)
    out[correct] = Outcome.INEFFECTIVE
    if infective:
        out[fault_flags.astype(bool) & ~correct] = Outcome.INFECTED
    elif flag_observable:
        out[fault_flags.astype(bool)] = Outcome.DETECTED
    return out
