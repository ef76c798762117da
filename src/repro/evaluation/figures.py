"""Fig. 4 and Fig. 5 of the paper, regenerated as data series.

Both figures plot, for naïve duplication (a) versus the proposed
countermeasure (b), the behaviour of an 80k-run last-round fault campaign
against PRESENT-80:

- **Fig. 4** — a stuck-at-0 on the *second MSB input line of S-box 13*,
  injected into the actual computation only.  The series is the
  distribution of that S-box's last-round input over the runs that
  released output (the ineffective set): 8-value support for naïve
  duplication, uniform 16-value support for ours.
- **Fig. 5** — a stuck-at-0 on the *second LSB input line of S-box 5*,
  injected identically into both computations (the Selmke scenario).  For
  naïve duplication half the runs release *faulty* ciphertexts (the paper's
  visible bias); ours detects every effective fault, so nothing faulty is
  ever released.

Each series keeps only outcome counts and a 16-bin histogram, so the
in-process path never holds a campaign's arrays: it reduces
:func:`~repro.faults.campaign.campaign_chunks` one classified 4,096-run
chunk at a time, adding each chunk's counts and its
:func:`~repro.attacks.sifa.ineffective_distribution`.  Its memory is the
simulator plus one chunk, not the 80,000 runs' stored byte rows.  With an
:class:`~repro.faults.ExecutorConfig` a series runs the sharded,
checkpointed :func:`~repro.faults.run_campaign` and applies the same
reduction to the merged result as a single chunk; per-block RNG keying
makes the two paths give the same series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.metrics import sei
from repro.attacks.sifa import ineffective_distribution
from repro.ciphers.netlist_present import PresentSpec
from repro.ciphers.spn import SpnSpec
from repro.countermeasures import build_naive_duplication, build_three_in_one
from repro.countermeasures.base import ProtectedDesign
from repro.faults import ExecutorConfig, FaultSpec, FaultType, Outcome, run_campaign
from repro.faults.campaign import campaign_chunks
from repro.faults.models import last_round, sbox_input_net
from repro.telemetry import trace

__all__ = ["Figure4Data", "Figure5Data", "SchemeSeries", "figure4", "figure5"]

DEFAULT_KEY = 0x8F4E2D1C0B5A69783746


@dataclass(frozen=True)
class SchemeSeries:
    """One sub-figure: a campaign summary for one scheme."""

    scheme: str
    n_runs: int
    counts: dict[str, int]
    #: histogram over the target S-box's input values (the bar series)
    distribution: np.ndarray
    #: SEI of that distribution (0 = uniform)
    sei: float
    #: how many *wrong* ciphertexts were released (countermeasure bypasses)
    faulty_released: int


@dataclass(frozen=True)
class Figure4Data:
    """Fig. 4: SIFA bias at S-box 13, naïve (a) vs ours (b)."""

    target_sbox: int
    target_bit: int
    naive: SchemeSeries
    ours: SchemeSeries


@dataclass(frozen=True)
class Figure5Data:
    """Fig. 5: identical faults in both computations at S-box 5."""

    target_sbox: int
    target_bit: int
    naive: SchemeSeries
    ours: SchemeSeries


def _series_single_fault(
    design: ProtectedDesign,
    spec: SpnSpec,
    sbox: int,
    bit: int,
    *,
    n_runs: int,
    key: int,
    seed: int,
    both_cores: bool,
    executor: ExecutorConfig | None = None,
) -> SchemeSeries:
    specs = []
    cores = design.cores if both_cores else design.cores[:1]
    for core in cores:
        specs.append(
            FaultSpec.at(
                sbox_input_net(core, sbox, bit),
                FaultType.STUCK_AT_0,
                last_round(core),
            )
        )
    with trace.span(
        "figures.series",
        scheme=design.scheme,
        sbox=sbox,
        bit=bit,
        n_runs=n_runs,
        both_cores=both_cores,
    ):
        if executor is None:
            chunks = campaign_chunks(
                design, specs, n_runs=n_runs, key=key, seed=seed
            )
        else:  # the merged sharded result, reduced as a single chunk
            chunks = [
                run_campaign(
                    design,
                    specs,
                    n_runs=n_runs,
                    key=key,
                    seed=seed,
                    executor=executor.subdir(design.scheme),
                )
            ]
        counts = dict.fromkeys((o.name.lower() for o in Outcome), 0)
        dist = np.zeros(1 << spec.sbox.n, dtype=np.int64)
        for chunk in chunks:
            for name, n in chunk.counts().items():
                counts[name] += n
            dist += ineffective_distribution(chunk, spec, sbox)
    return SchemeSeries(
        scheme=design.scheme,
        n_runs=n_runs,
        counts=counts,
        distribution=dist,
        sei=sei_from_counts(dist),
        faulty_released=counts["effective"],
    )


def sei_from_counts(counts: np.ndarray) -> float:
    """SEI of a histogram (empty histograms count as uniform)."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(((p - 1.0 / len(counts)) ** 2).sum())


def _campaign_pair(
    label: str,
    spec: SpnSpec | None,
    target_sbox: int,
    target_bit: int,
    *,
    both_cores: bool,
    n_runs: int,
    key: int,
    seed: int,
    executor: ExecutorConfig | None,
) -> tuple[SchemeSeries, SchemeSeries]:
    """One figure's campaign against naïve duplication (a), then ours (b).

    Each scheme checkpoints under ``checkpoint_dir/<label>/<scheme>``.
    """
    spec = spec or PresentSpec()
    executor = executor and executor.subdir(label)
    with trace.span(
        f"figures.{label}", sbox=target_sbox, bit=target_bit, n_runs=n_runs
    ):
        naive, ours = (
            _series_single_fault(
                build(spec), spec, target_sbox, target_bit,
                n_runs=n_runs, key=key, seed=seed, both_cores=both_cores,
                executor=executor,
            )
            # module globals, read per call: the layer timers patch them
            for build in (build_naive_duplication, build_three_in_one)
        )
    return naive, ours


def figure4(
    *,
    n_runs: int = 80_000,
    key: int = DEFAULT_KEY,
    seed: int = 4,
    target_sbox: int = 13,
    target_bit: int = 2,
    spec: SpnSpec | None = None,
    executor: ExecutorConfig | None = None,
) -> Figure4Data:
    """Regenerate Fig. 4 (single-core stuck-at-0, SIFA bias).

    An ``executor`` config runs the underlying campaigns through the
    resilient shard executor, checkpointing each scheme under
    ``checkpoint_dir/fig4/<scheme>``; the series are bit-identical either
    way.
    """
    naive, ours = _campaign_pair(
        "fig4", spec, target_sbox, target_bit, both_cores=False,
        n_runs=n_runs, key=key, seed=seed, executor=executor,
    )
    return Figure4Data(
        target_sbox=target_sbox, target_bit=target_bit, naive=naive, ours=ours
    )


def figure5(
    *,
    n_runs: int = 80_000,
    key: int = DEFAULT_KEY,
    seed: int = 5,
    target_sbox: int = 5,
    target_bit: int = 1,
    spec: SpnSpec | None = None,
    executor: ExecutorConfig | None = None,
) -> Figure5Data:
    """Regenerate Fig. 5 (identical stuck-at-0 in both computations).

    ``executor`` as in :func:`figure4`, under ``checkpoint_dir/fig5``.
    """
    naive, ours = _campaign_pair(
        "fig5", spec, target_sbox, target_bit, both_cores=True,
        n_runs=n_runs, key=key, seed=seed, executor=executor,
    )
    return Figure5Data(
        target_sbox=target_sbox, target_bit=target_bit, naive=naive, ours=ours
    )
