"""The attack × scheme matrix and the fault-round sweep.

These back both the benchmark harness and the CLI; see
``benchmarks/bench_attack_matrix.py`` and ``benchmarks/bench_round_sweep.py``
for the asserted, artefact-producing versions.  Both sweeps are generic
over the cipher registry: ``cipher`` names any registered spec and the
keys/plaintexts are widened to the cipher's port sizes.
"""

from __future__ import annotations

from repro.attacks import selmke_attack, sifa_attack
from repro.attacks.fta import fta_key_recovery
from repro.ciphers.registry import make_spec
from repro.countermeasures import (
    build_acisp20,
    build_naive_duplication,
    build_three_in_one,
)
from repro.faults import ExecutorConfig, FaultSpec, FaultType, Outcome, run_campaign
from repro.faults.campaign import campaign_chunks
from repro.faults.models import sbox_input_net

__all__ = ["FTA_PLAINTEXTS", "run_attack_matrix", "run_round_sweep"]

DEFAULT_KEY = 0x8F4E2D1C0B5A69783746

FTA_PLAINTEXTS = [
    0x5AF019C3B2487D6E,
    0xC3A1905E7F2B6D84,
    0x0F1E2D3C4B5A6978,
    0x9182736455463728,
]


def _fit_key(key: int, key_bits: int) -> int:
    """Clip the default campaign key to the cipher's key-port width."""
    return key & ((1 << key_bits) - 1)


def _fta_plaintexts(block_bits: int) -> list[int]:
    """The fixed FTA plaintext set, widened to the cipher's block size."""
    if block_bits <= 64:
        return [p & ((1 << block_bits) - 1) for p in FTA_PLAINTEXTS]
    n = len(FTA_PLAINTEXTS)
    return [
        FTA_PLAINTEXTS[i] | (FTA_PLAINTEXTS[(i + 1) % n] << 64)
        for i in range(n)
    ]


def run_attack_matrix(
    n_runs: int,
    *,
    cipher: str = "present80",
    key: int = DEFAULT_KEY,
    executor: ExecutorConfig | None = None,
) -> dict[str, dict]:
    """DFA/SIFA/FTA key-recovery attempts against all three duplication
    schemes; returns ``{scheme: {attack: result}}``.

    An ``executor`` config routes the DFA and SIFA campaigns (the heavy
    cells) through the resilient shard executor, checkpointing each cell
    under ``checkpoint_dir/<scheme>_dfa`` and ``checkpoint_dir/<scheme>_sifa``.
    """
    spec = make_spec(cipher)
    key = _fit_key(key, spec.key_bits)
    schemes = {
        "naive_duplication": build_naive_duplication(spec),
        "acisp20": build_acisp20(spec),
        "three_in_one": build_three_in_one(spec),
    }
    matrix: dict[str, dict] = {}
    for label, design in schemes.items():
        selmke = selmke_attack(
            design,
            target_sbox=5,
            faulted_bit=1,
            key=key,
            n_runs=n_runs,
            seed=4,
            executor=executor and executor.subdir(f"{label}_dfa"),
        )
        net = sbox_input_net(design.cores[0], 7, 1)
        fault = FaultSpec.at(net, FaultType.STUCK_AT_0, spec.rounds - 2)
        campaign = run_campaign(
            design,
            [fault],
            n_runs=n_runs,
            key=key,
            seed=21,
            executor=executor and executor.subdir(f"{label}_sifa"),
        )
        sifa = sifa_attack(campaign, spec, 7, 1)
        # round-1 FTA key recovery templates the key addition *before* the
        # first S-box layer; ciphers that add the key after it (GIFT) have
        # no round-1 template target, so that cell is n/a.
        fta = (
            fta_key_recovery(
                design,
                sbox=3,
                plaintexts=_fta_plaintexts(spec.block_bits),
                key=key,
                n_rep=32,
                seed=7,
            )
            if spec.add_key_first
            else None
        )
        matrix[label] = {"dfa_identical": selmke, "sifa": sifa, "fta": fta}
    return matrix


def run_round_sweep(
    n_runs: int,
    *,
    cipher: str = "present80",
    key: int = DEFAULT_KEY,
    rounds=None,
    target_sbox: int = 13,
    target_bit: int = 2,
) -> list[list]:
    """Per-round campaign stats for naïve duplication and the three-in-one
    design; one row per probed round (see bench_round_sweep for assertions).

    A row keeps one rate and one count per design, so each campaign is
    reduced one classified chunk at a time
    (:func:`~repro.faults.campaign.campaign_chunks`) and never holds its
    runs' arrays.
    """
    spec = make_spec(cipher)
    key = _fit_key(key, spec.key_bits)
    if rounds is None:
        ladder = (1, 5, 10, 16, 24, 30, 31)
        rounds = tuple(r for r in ladder if r < spec.rounds) + (spec.rounds,)
    designs = {
        "naive": build_naive_duplication(spec),
        "ours": build_three_in_one(spec),
    }
    rows = []
    for round_ in rounds:
        row: list = [round_]
        for design in designs.values():
            net = sbox_input_net(design.cores[0], target_sbox, target_bit)
            fault = FaultSpec.at(net, FaultType.STUCK_AT_0, round_ - 1)
            runs = ineffective = effective = 0
            for chunk in campaign_chunks(
                design, [fault], n_runs=n_runs, key=key, seed=round_
            ):
                runs += chunk.n_runs
                ineffective += chunk.count(Outcome.INEFFECTIVE)
                effective += chunk.count(Outcome.EFFECTIVE)
            row.extend([ineffective / runs if runs else 0.0, effective])
        rows.append(row)
    return rows
