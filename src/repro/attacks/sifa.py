"""SIFA — Statistical Ineffective Fault Analysis (CHES 2018, paper ref [6]).

The attack keeps only the runs whose released output was *correct* (the
ineffective set — with a detect-and-suppress countermeasure these are
exactly the runs that produce output at all) and exploits that, for a
biased fault, membership in this set is correlated with the *logical value*
of the targeted wire.

Two tools are provided:

:func:`ineffective_distribution`
    The paper's Fig. 4 statistic: the empirical distribution of the faulted
    S-box's input over the ineffective set, computed under the true key.
    Against naïve duplication a stuck-at-0 on an input line confines it to
    the 8 values with that bit clear; against the three-in-one scheme the
    λ encoding makes it uniform.

:func:`sifa_attack`
    Actual last-round-key recovery.  Note a subtlety: if the fault sits in
    the *last* round, back-computing the S-box input under a wrong subkey
    guess is a bijection of the nibble, so any distribution statistic is
    guess-invariant and recovery is impossible from that round alone.  The
    classic remedy (used here) is to fault the *penultimate* round: each
    output bit of the faulted S-box crosses the permutation into a distinct
    last-round S-box, and the conditional single-bit bias only survives
    back-computation through that S-box under the correct 4-bit subkey —
    wrong guesses scramble the nibble and dilute the one-bit marginal.
    Ranking guesses by the recovered bit's SEI recovers 4 bits of the last
    round key per landing S-box (up to 16 bits per fault location).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.metrics import rank_of, sei
from repro.ciphers.spn import SpnSpec
from repro.faults.campaign import CampaignResult
from repro.faults.classification import Outcome
from repro.utils.bits import gather_bits

__all__ = [
    "SifaBitRecovery",
    "SifaResult",
    "ineffective_distribution",
    "predicted_conditional_bias",
    "sifa_attack",
]


def recover_sbox_inputs(
    spec: SpnSpec,
    ciphertext_bits: np.ndarray,
    target_sbox: int,
    subkey_guess: int,
) -> np.ndarray:
    """Back-compute the last-round input of ``target_sbox`` per run.

    Every cipher here ends as ``C = P(S(x)) ⊕ mask`` (PRESENT's pLayer +
    whitening, GIFT's PermBits + partial key, AES's ShiftRows + K10), so
    ``x = S⁻¹(gather(C) ⊕ g)`` with the gather positions supplied by the
    spec (:meth:`CipherSpec.gather_positions`).
    """
    cols = ciphertext_bits[:, spec.gather_positions(target_sbox)]
    return _invert_sbox(spec, cols, subkey_guess)


def _invert_sbox(spec: SpnSpec, cols: np.ndarray, subkey_guess: int) -> np.ndarray:
    """``S⁻¹(y ⊕ g)`` per run, ``y`` given as its ``(runs, n)`` bits (LSB first).

    The value is assembled in ``uint8`` from the ``uint8`` bits, so the
    readout costs one byte per run, not a widened ``(runs, n)`` matrix.
    """
    n = spec.sbox.n
    cols = np.asarray(cols, dtype=np.uint8)
    y = np.full(len(cols), subkey_guess, dtype=np.uint8)
    for i in range(n):
        y ^= cols[:, i] << np.uint8(i)
    inv = np.array([spec.sbox.inverse(v) for v in range(1 << n)], dtype=np.uint8)
    return inv[y]


def true_subkey(spec: SpnSpec, key: int, target_sbox: int) -> int:
    """Ground-truth last-round subkey for rank reporting."""
    return spec.last_round_subkey(key, target_sbox)


def ineffective_distribution(
    result: CampaignResult,
    spec: SpnSpec,
    target_sbox: int,
    *,
    outcome: Outcome = Outcome.INEFFECTIVE,
) -> np.ndarray:
    """The Fig. 4 series: S-box-input histogram over the ineffective set.

    Computed under the true key (this is the paper's *visualisation* of the
    bias, not the key-recovery step).  Only the target S-box's ciphertext
    bits are read from the selected runs' byte rows.
    """
    rows = result.released[result.select(outcome)]
    cols = gather_bits(rows, spec.gather_positions(target_sbox))
    x = _invert_sbox(spec, cols, true_subkey(spec, result.key, target_sbox))
    return np.bincount(x, minlength=1 << spec.sbox.n)


def predicted_conditional_bias(
    spec: SpnSpec, faulted_bit: int, polarity: int
) -> list[float]:
    """Per-output-bit bias of S(x) given ``x[faulted_bit] == polarity``.

    This is the attacker's template: it tells which landing S-boxes are
    worth attacking (bias 0 carries no signal).
    """
    n = spec.sbox.n
    admissible = [
        x for x in range(1 << n) if ((x >> faulted_bit) & 1) == polarity
    ]
    biases = []
    for i in range(n):
        ones = sum((spec.sbox(x) >> i) & 1 for x in admissible)
        biases.append(abs(ones / len(admissible) - 0.5))
    return biases


@dataclass(frozen=True)
class SifaBitRecovery:
    """Recovery of one last-round subkey nibble via one biased bit."""

    landing_sbox: int
    landing_bit: int
    predicted_bias: float
    scores: dict[int, float]
    best_guess: int
    true_subkey: int
    rank: int

    @property
    def success(self) -> bool:
        return self.rank == 1


@dataclass(frozen=True)
class SifaResult:
    """Full SIFA attempt: one faulted S-box, several landing nibbles."""

    faulted_sbox: int
    faulted_bit: int
    n_samples: int
    recoveries: list[SifaBitRecovery]

    @property
    def attacked(self) -> list[SifaBitRecovery]:
        """Recoveries with usable predicted bias."""
        return [r for r in self.recoveries if r.predicted_bias > 0.05]

    @property
    def recovered_bits(self) -> int:
        """Number of last-round key bits recovered (rank-1 nibbles × 4)."""
        return 4 * sum(1 for r in self.attacked if r.success)

    @property
    def success(self) -> bool:
        """True when every attackable nibble was recovered at rank 1."""
        attacked = self.attacked
        return bool(attacked) and all(r.success for r in attacked)


def sifa_attack(
    result: CampaignResult,
    spec: SpnSpec,
    faulted_sbox: int,
    faulted_bit: int,
    *,
    polarity: int = 0,
    outcome: Outcome = Outcome.INEFFECTIVE,
) -> SifaResult:
    """Recover last-round key nibbles from a penultimate-round biased fault.

    ``faulted_sbox`` / ``faulted_bit`` / ``polarity`` describe the injected
    fault (stuck-at-``polarity`` on that input line, one round before the
    last).  Only released ciphertexts are used for the recovery itself;
    the true key in ``result.key`` is used for rank reporting.  The
    landing-position logic needs a bit-permutation linear layer, i.e. an
    :class:`SpnSpec` (PRESENT/GIFT).
    """
    if not hasattr(spec, "perm"):
        raise ValueError("sifa_attack needs a bit-permutation cipher (SpnSpec)")
    n = spec.sbox.n
    rows = result.released[result.select(outcome)]
    biases = predicted_conditional_bias(spec, faulted_bit, polarity)

    recoveries = []
    for i in range(n):
        pos = spec.perm[n * faulted_sbox + i]
        landing_sbox, landing_bit = divmod(pos, n)
        scores: dict[int, float] = {}
        cols = gather_bits(rows, spec.gather_positions(landing_sbox))
        for guess in range(1 << n):
            x = _invert_sbox(spec, cols, guess)
            bit = (x >> landing_bit) & 1
            scores[guess] = sei(bit, 2)
        truth = true_subkey(spec, result.key, landing_sbox)
        best = max(scores, key=scores.__getitem__)
        recoveries.append(
            SifaBitRecovery(
                landing_sbox=landing_sbox,
                landing_bit=landing_bit,
                predicted_bias=biases[i],
                scores=scores,
                best_guess=best,
                true_subkey=truth,
                rank=rank_of(scores, truth),
            )
        )
    return SifaResult(
        faulted_sbox=faulted_sbox,
        faulted_bit=faulted_bit,
        n_samples=len(rows),
        recoveries=recoveries,
    )
