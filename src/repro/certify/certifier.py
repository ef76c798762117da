"""Drive an exhaustive (or budgeted) sweep and assemble the certificate.

The sweep runs one mini-campaign per fault-space location — ``R``
randomised invocations under that location's scenario, classified against
the fault-free reference — sharded through the resilient executor
(:func:`repro.faults.executor.run_sharded`), so a certify run inherits the
executor's checkpointing, resume, parallelism and retries wholesale.

Every location's runs are runs ``[0, R)`` of the campaign keyed by the
certificate's seed, so all locations share one plaintext/λ draw (common
random numbers — differences between locations are never RNG noise) and
therefore one fault-free reference.  Each shard builds one simulator,
draws once and computes the expected ciphertexts once with the cipher's
packed software reference, never with the netlist under test
(:class:`repro.faults.campaign.RangeRun`); the netlist is simulated only
faulted, once per location, from a snapshot of the generator taken after
the clean draws.

Determinism: that snapshot makes each location's faulted pass consume
exactly the draws ``run_range(lo=0, hi=R)`` gives it, so any witness
replays *exactly* as
``run_campaign(design, scenario.specs, n_runs=R, key=key, seed=seed)``.
The emitted document depends only on ``(design, space, sample, key, seed,
R)`` — never on sharding, worker count, or interruption history.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.certify.certificate import Certificate
from repro.certify.space import (
    DEFAULT_MODELS,
    FaultSpace,
    enumerate_fault_space,
    locations_for_budget,
)
from repro.countermeasures.base import ProtectedDesign
from repro.faults.campaign import RangeRun, run_campaign
from repro.faults.classification import Outcome, classify
from repro.faults.executor import ExecutorConfig, require_int, run_sharded
from repro.faults.models import FaultScenario
from repro.netlist.analysis import lint_countermeasure
from repro.netlist.circuit import circuit_digest
from repro.netlist.simulator import resolve_backend
from repro.telemetry import metrics, run_manifest, trace

__all__ = ["CERTIFY_KEYS", "CertifyConfig", "certify_design", "replay_witness"]

#: arrays each certify shard produces (leading dim = locations in shard)
CERTIFY_KEYS = ("index", "counts", "witness_run")

#: certificates embed at most this many witnesses (the verdict still
#: counts all of them; a broken scheme does not need a gigabyte of proof)
WITNESS_CAP = 32


@dataclass(frozen=True)
class CertifyConfig:
    """Knobs of a certify run."""

    #: total faulted-run budget (a positive int); None = exhaustive sweep
    #: of the space.  A budget smaller than the space degrades to a
    #: stratified sample — reported as such in the certificate, never
    #: silently.
    budget: int | None = None
    #: randomised invocations per fault location (a positive int)
    runs_per_location: int = 64
    #: adversarial models to sweep (see :mod:`repro.certify.space`)
    models: tuple[str, ...] = DEFAULT_MODELS
    #: active rounds to sweep; None = every round
    cycles: tuple[int, ...] | None = None
    #: campaign seed (plaintexts, λ, probabilistic masks, and the sample)
    seed: int = 1
    #: stop scheduling new shards as soon as one yields a witness
    fail_fast: bool = False
    #: locations per executor shard
    shard_locations: int = 64
    # -- resilient-executor passthrough, checked by :meth:`executor`
    jobs: int = 1
    checkpoint_dir: object = None
    resume: bool = False
    #: global wall-clock budget for the sweep (0 is legal: no shard runs);
    #: once spent the certifier stops scheduling shards and emits a
    #: *degraded* partial certificate with explicit uncovered-fault-space
    #: accounting (never an abort)
    wall_budget: float | None = None

    def __post_init__(self) -> None:
        require_int("runs_per_location", self.runs_per_location, minimum=1)
        require_int("shard_locations", self.shard_locations, minimum=1)
        self.executor()  # checks jobs, resume and wall_budget
        if type(self.fail_fast) is not bool:
            raise ValueError(f"fail_fast must be a bool, got {self.fail_fast!r}")
        if self.budget is not None:
            require_int("budget", self.budget, minimum=1)
        require_int("seed", self.seed, minimum=0)
        # An empty model or cycle selection is an empty fault space, which
        # every verdict would vacuously pass.
        if (
            not isinstance(self.models, tuple)
            or not self.models
            or any(m not in DEFAULT_MODELS for m in self.models)
        ):
            raise ValueError(
                f"models must be a non-empty tuple of fault model names from "
                f"{DEFAULT_MODELS}, got {self.models!r}"
            )
        if self.cycles is not None and (
            not isinstance(self.cycles, tuple)
            or not self.cycles
            or any(type(c) is not int or c < 0 for c in self.cycles)
        ):
            raise ValueError(
                f"cycles must be None or a non-empty tuple of non-negative "
                f"integers, got {self.cycles!r}"
            )
        # A repeat would sweep (and count) its locations twice.
        for name in ("models", "cycles"):
            values = getattr(self, name) or ()
            repeats = [v for v, n in Counter(values).items() if n > 1]
            if repeats:
                raise ValueError(f"{name} must not repeat {repeats}, got {values!r}")

    def executor(self) -> ExecutorConfig:
        """The shard executor's config for this sweep."""
        return ExecutorConfig(
            jobs=self.jobs,
            checkpoint_dir=self.checkpoint_dir,
            resume=self.resume,
            wall_budget=self.wall_budget,
        )


def _certify_task(
    design: ProtectedDesign,
    space: FaultSpace,
    indices: np.ndarray,
    key: int,
    seed: int,
    runs: int,
    lo: int,
    hi: int,
) -> dict[str, np.ndarray]:
    """Shard task: mini-campaign each of ``indices[lo:hi]``.

    One simulator, one draw and one software reference serve every
    location of the shard; only the faulted pass is simulated, once per
    location, and its released byte rows are classified against the
    reference's.
    """
    sel = np.asarray(indices[lo:hi], dtype=np.int64)
    counts = np.zeros((len(sel), len(Outcome)), dtype=np.int64)
    witness = np.full(len(sel), -1, dtype=np.int64)
    run = RangeRun(design, design.simulator(runs), key=key, seed=seed, lo=0)
    exp = run.expected
    for row, index in enumerate(sel):
        scenario = space.scenario(int(index))
        rel, flags = run.faulted(scenario.specs)
        outcomes = classify(
            rel,
            flags,
            exp,
            flag_observable=design.flag_observable,
            infective=design.infective,
        )
        counts[row] = np.bincount(outcomes, minlength=len(Outcome))
        effective = np.flatnonzero(outcomes == Outcome.EFFECTIVE)
        if effective.size:
            witness[row] = effective[0]
    metrics.inc("certify.locations_swept", len(sel))
    metrics.inc("certify.runs_executed", len(sel) * runs)
    return {"index": sel, "counts": counts, "witness_run": witness}


def _shard_found_witness(index: int, arrays: dict[str, np.ndarray]) -> bool:
    return bool((arrays["witness_run"] >= 0).any())


def certify_design(
    design: ProtectedDesign,
    *,
    key: int,
    config: CertifyConfig | None = None,
) -> Certificate:
    """Sweep ``design``'s fault space and emit a :class:`Certificate`.

    Preamble: the structural lint runs first (non-strict) — a design whose
    wiring already violates a security invariant gets a failing
    certificate without burning the sweep budget.  Then the space is
    enumerated, budget-sampled if needed, sharded, executed, and the
    per-location outcome histograms are folded into verdicts:

    - ``structural_lint`` — the preamble's report;
    - ``dfa_detection`` — no covered location may produce an ``EFFECTIVE``
      run (a wrong ciphertext released unflagged); any that does becomes a
      replayable witness;
    - ``sifa_uniformity`` — for λ-encoded schemes, every biased single
      fault on an encoded net must be ineffective at a data-independent
      ≈½ rate (within a 6σ binomial band).  Necessary, not sufficient:
      the full SEI analysis lives in the Fig. 4 pipeline; this catches a
      location whose ineffectiveness is grossly value-correlated.
    """
    config = config or CertifyConfig()
    started = time.time()
    runs = config.runs_per_location

    manifest = run_manifest(
        kind="certify",
        scheme=design.scheme,
        variant=design.variant,
        backend=resolve_backend(None),
        jobs=config.jobs,
        seed=config.seed,
    )
    request_id = trace.context().get("request_id")
    if request_id is not None:
        manifest["request_id"] = request_id
    with trace.span("certify.lint", scheme=design.scheme):
        lint = lint_countermeasure(design, strict=False)
    with trace.span("certify.enumerate", scheme=design.scheme):
        space = enumerate_fault_space(
            design, models=config.models, cycles=config.cycles
        )
    space_doc = {
        "total": space.total,
        "per_model": space.per_model(),
        "digest": space.digest(),
        "models": list(config.models),
        "cycles": (
            list(config.cycles) if config.cycles is not None else None
        ),
    }
    base = dict(
        scheme=design.scheme,
        variant=design.variant,
        cipher=design.spec.name,
        rounds=design.spec.rounds,
        key=str(key),
        seed=config.seed,
        runs_per_location=runs,
        space=space_doc,
        lint=lint.to_dict(),
    )

    # What a sweep of nothing covers; the sweep below fills in its share.
    coverage = {
        "locations_total": space.total,
        "locations_planned": 0,
        "locations_covered": 0,
        "locations_uncovered": 0,
        "uncovered_per_stratum": {},
        "runs_executed": 0,
        "fraction": 0.0,
        "sampled": False,
        "budget": config.budget,
        "stopped_early": False,
        "budget_exhausted": False,
        "degraded": False,
        "failed_shards": [],
    }
    if not lint.passed:
        # Structurally unsound: certify nothing beyond the lint verdict.
        skipped = {"status": "skipped", "reason": "structural lint failed"}
        return Certificate(
            **base,
            coverage=coverage,
            histograms={},
            verdicts={
                "structural_lint": {
                    "status": "fail",
                    "n_datapath": lint.n_datapath,
                },
                "dfa_detection": dict(skipped),
                "sifa_uniformity": dict(skipped),
            },
            timing={
                "wall_time_s": round(time.time() - started, 3),
                "manifest": manifest,
            },
        )

    if config.budget is not None:
        n_locations = min(
            space.total, locations_for_budget(config.budget, runs)
        )
        indices = space.sample(n_locations, seed=config.seed)
    else:
        indices = np.arange(space.total, dtype=np.int64)

    step = config.shard_locations
    ranges = [
        (lo, min(lo + step, len(indices)))
        for lo in range(0, len(indices), step)
    ]
    identity = {
        "kind": "certify",
        "netlist": circuit_digest(design.circuit),
        "scheme": design.scheme,
        "variant": design.variant,
        "cipher": design.spec.name,
        "rounds": design.spec.rounds,
        "key": str(key),
        "seed": config.seed,
        "runs_per_location": runs,
        "budget": config.budget,
        "models": list(config.models),
        "cycles": list(config.cycles) if config.cycles is not None else None,
        "space_digest": space_doc["digest"],
        "n_locations": int(len(indices)),
        "shard_locations": step,
    }
    task = functools.partial(
        _certify_task,
        design,
        space,
        indices,
        key,
        config.seed,
        runs,
    )
    run = run_sharded(
        task,
        ranges,
        config=config.executor(),
        identity=identity,
        keys=CERTIFY_KEYS,
        on_shard_done=_shard_found_witness if config.fail_fast else None,
        label=f"certify[{design.scheme}]",
    )

    merged = run.merged(CERTIFY_KEYS)
    if merged is None:
        merged = {
            "index": np.zeros(0, dtype=np.int64),
            "counts": np.zeros((0, len(Outcome)), dtype=np.int64),
            "witness_run": np.zeros(0, dtype=np.int64),
        }
    order = np.argsort(merged["index"], kind="stable")
    covered = merged["index"][order]
    counts = merged["counts"][order]
    witness_runs = merged["witness_run"][order]

    histograms: dict[str, np.ndarray] = {}
    strata = [space.stratum(int(i)) for i in covered]
    for (model, ftype, _cycle), row in zip(strata, counts):
        bucket = histograms.setdefault(
            f"{model}/{ftype}", np.zeros(len(Outcome), dtype=np.int64)
        )
        bucket += row

    effective_rows = np.flatnonzero(counts[:, Outcome.EFFECTIVE] > 0)
    witnesses = []
    for row in effective_rows[:WITNESS_CAP]:
        index = int(covered[row])
        scenario = space.scenario(index)
        witnesses.append(
            {
                "space_index": index,
                "scenario": scenario.to_dict(),
                "seed": config.seed,
                "n_runs": runs,
                "run": int(witness_runs[row]),
                "effective_runs": int(counts[row, Outcome.EFFECTIVE]),
                "replay": (
                    "run_campaign(design, scenario.specs, "
                    f"n_runs={runs}, key=<key>, seed={config.seed})"
                    f".outcomes[{int(witness_runs[row])}] == EFFECTIVE"
                ),
            }
        )

    verdicts = {
        "structural_lint": {"status": "pass", "n_datapath": lint.n_datapath},
        "dfa_detection": {
            "status": "fail" if effective_rows.size else "pass",
            "effective_locations": int(effective_rows.size),
            "effective_runs": int(counts[:, Outcome.EFFECTIVE].sum()),
        },
        "sifa_uniformity": _sifa_uniformity_verdict(
            design, space, covered, counts, runs
        ),
    }

    n_covered = int(len(covered))
    # Uncovered-fault-space accounting: a partial sweep (quarantined
    # shards, exhausted wall budget, fail-fast stop) must say exactly what
    # it did NOT check — a degraded certificate is explicit, never silent.
    is_covered = np.zeros(space.total, dtype=bool)
    is_covered[covered] = True
    uncovered = indices[~is_covered[indices]]
    uncovered_per_stratum: dict[str, int] = {}
    for i in uncovered:
        model, ftype, _cycle = space.stratum(int(i))
        bucket = f"{model}/{ftype}"
        uncovered_per_stratum[bucket] = uncovered_per_stratum.get(bucket, 0) + 1
    degraded = bool(uncovered.size)
    if not n_covered:
        # An empty sweep (wall budget spent, every shard quarantined)
        # proves nothing: skip its claims so the certificate cannot pass.
        for claim in ("dfa_detection", "sifa_uniformity"):
            verdicts[claim] = {"status": "skipped", "reason": "no location covered"}
    if degraded:
        # Sweep-derived claims hold only over the covered locations; the
        # structural lint ran in full and stays undegraded.
        for claim in ("dfa_detection", "sifa_uniformity"):
            verdicts[claim] = {
                **verdicts[claim],
                "degraded": True,
                "note": (
                    f"verdict covers {n_covered} of {len(indices)} planned "
                    f"locations; see coverage.uncovered_per_stratum"
                ),
            }

    coverage.update(
        locations_planned=int(len(indices)),
        locations_covered=n_covered,
        locations_uncovered=int(uncovered.size),
        uncovered_per_stratum=dict(sorted(uncovered_per_stratum.items())),
        runs_executed=n_covered * runs,
        fraction=(n_covered / space.total) if space.total else 0.0,
        sampled=bool(len(indices) < space.total),
        stopped_early=bool(run.stopped_early),
        budget_exhausted=bool(run.budget_exhausted),
        degraded=degraded,
        failed_shards=run.failures,
    )
    certificate = Certificate(
        **base,
        coverage=coverage,
        histograms={
            k: [int(x) for x in v] for k, v in sorted(histograms.items())
        },
        locations=[
            [int(i), [int(x) for x in row]] for i, row in zip(covered, counts)
        ],
        witnesses=witnesses,
        verdicts=verdicts,
        timing={
            "wall_time_s": round(time.time() - started, 3),
            "manifest": manifest,
        },
    )
    return certificate


def _sifa_uniformity_verdict(
    design: ProtectedDesign,
    space: FaultSpace,
    covered: Sequence[int],
    counts: np.ndarray,
    runs: int,
) -> dict:
    """Per-location ineffective-rate band check (see certify_design doc)."""
    if not design.lambda_width:
        return {
            "status": "not_applicable",
            "reason": "scheme carries no λ encoding",
        }
    encoded: set[int] = set()
    for core in design.cores:
        for word in core.sbox_inputs:
            encoded.update(word)
        for word in core.sbox_outputs:
            encoded.update(word)
    sigma = (0.25 / runs) ** 0.5
    lo, hi = 0.5 - 6 * sigma, 0.5 + 6 * sigma
    checked = 0
    outliers: list[dict] = []
    for row, index in enumerate(covered):
        section, local = space._locate(int(index))
        if section.model != "single":
            continue
        loc_idx, type_idx, cycle_idx = section.split(local)
        ftype = section.fault_types[type_idx]
        net = section.locs[loc_idx]
        if not ftype.is_biased or net not in encoded:
            continue
        checked += 1
        rate = counts[row, Outcome.INEFFECTIVE] / runs
        if not lo <= rate <= hi:
            outliers.append(
                {
                    "space_index": int(index),
                    "net": int(net),
                    "fault_type": ftype.value,
                    "cycle": int(section.cycles[cycle_idx]),
                    "ineffective_rate": round(float(rate), 6),
                }
            )
    return {
        "status": (
            "not_applicable"
            if checked == 0
            else ("fail" if outliers else "pass")
        ),
        "checked_locations": checked,
        "band": [round(lo, 6), round(hi, 6)],
        "outliers": outliers[:WITNESS_CAP],
        "note": (
            "necessary-not-sufficient screen; the SEI analysis of Fig. 4 "
            "is the full statistical treatment"
        ),
    }


def replay_witness(
    design: ProtectedDesign, witness: dict, *, key: int
) -> tuple[Outcome, object]:
    """Re-run a certificate witness; returns ``(outcome, CampaignResult)``.

    The outcome of the recorded run index under the recorded scenario,
    seed and run count — ``Outcome.EFFECTIVE`` confirms the witness.
    """
    scenario = FaultScenario.from_dict(witness["scenario"])
    result = run_campaign(
        design,
        list(scenario.specs),
        n_runs=int(witness["n_runs"]),
        key=key,
        seed=int(witness["seed"]),
    )
    return Outcome(result.outcomes[int(witness["run"])]), result
