"""Budgeted coverage certification of the paper's scheme vs. naive duplication.

Where ``bench_fault_coverage`` hand-walks the S-box wires, this bench runs
the real certifier over the *enumerated* fault space — all four adversarial
models, stratified under a run budget — and asserts the headline claims in
certificate form: three-in-one earns a passing certificate with zero
``EFFECTIVE`` witnesses, while naive duplication is broken by the
identical-mask model and every recorded witness replays exactly.
"""

from benchmarks.conftest import BENCH_KEY, bench_report, campaign_knobs, emit
from repro.certify import CertifyConfig, certify_design, replay_witness
from repro.ciphers.netlist_present import PresentSpec
from repro.countermeasures import build_naive_duplication, build_three_in_one
from repro.faults import ExecutorConfig, Outcome

BUDGET = 50_000
RUNS_PER_LOCATION = 64
ROUNDS = 8  # reduced-round instance: same per-round netlist, bench-sized sweep


def run_certify():
    spec = PresentSpec(rounds=ROUNDS)
    executor = campaign_knobs("certify")["executor"] or ExecutorConfig()

    def certify(design, subdir, **config):
        ex = executor.subdir(subdir)
        return certify_design(
            design,
            key=BENCH_KEY,
            config=CertifyConfig(
                runs_per_location=RUNS_PER_LOCATION,
                seed=11,
                jobs=ex.jobs,
                checkpoint_dir=ex.checkpoint_dir,
                resume=ex.resume,
                **config,
            ),
        )

    ours = certify(build_three_in_one(spec), "ours", budget=BUDGET)
    naive_design = build_naive_duplication(spec)
    naive = certify(
        naive_design, "naive", budget=BUDGET // 8, models=("identical_mask",)
    )
    return ours, naive, naive_design


def test_certify_coverage(benchmark, artifact_dir):
    ours, naive, naive_design = benchmark.pedantic(
        run_certify, rounds=1, iterations=1
    )

    assert ours.passed, ours.verdicts
    assert not ours.witnesses
    assert ours.coverage["runs_executed"] >= BUDGET
    assert not ours.coverage["failed_shards"]

    assert naive.verdicts["dfa_detection"]["status"] == "fail"
    assert naive.witnesses, "identical-mask sweep must break naive duplication"
    for witness in naive.witnesses[:4]:
        outcome, _ = replay_witness(naive_design, witness, key=BENCH_KEY)
        assert outcome is Outcome.EFFECTIVE, witness["scenario"]["label"]

    text = "\n\n".join(
        [
            "three-in-one (prime):\n" + ours.summary(),
            "naive duplication (identical-mask model):\n" + naive.summary(),
        ]
    )
    emit(artifact_dir, "certify_coverage.txt", text)
    ours.save(artifact_dir / "certificate_three_in_one.json")
    naive.save(artifact_dir / "certificate_naive.json")
    bench_report(
        artifact_dir,
        "certify_coverage",
        config={
            "budget": BUDGET,
            "runs_per_location": RUNS_PER_LOCATION,
            "rounds": ROUNDS,
        },
        metrics={
            "ours_passed": ours.passed,
            "ours_runs_executed": ours.coverage["runs_executed"],
            "ours_witnesses": len(ours.witnesses),
            "naive_witnesses": len(naive.witnesses),
            "naive_dfa_status": naive.verdicts["dfa_detection"]["status"],
        },
    )
