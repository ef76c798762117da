"""Smoke tests of the end-to-end benchmark (reduced operation sizes).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import workloads
from repro.telemetry.history import metric_direction

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [(w["name"], 0) for w in SPEC["workloads"]]
    + [("certify-parallel", 1), ("service-mixed", 1)],
)
def test_printed_metrics_are_those_of_benchmark_json(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [*result["metrics"]] == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.split()[:1] == [m["name"]] and m["unit"] in line.split()
            for line in proc.stdout.splitlines()
        ), f"{m['name']} not printed with its unit"


def test_declared_directions_agree_with_the_ledger():
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        inferred = metric_direction(m["name"])
        if inferred:
            assert inferred == (1 if m["better"] == "higher" else -1), m["name"]


def test_outside_a_checkout_the_benchmark_refuses(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "certify-present80", "--seed", "1", cwd=tmp_path)
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


# ----------------------------------------------------- tampered results


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    """A real certify operation of the pinned design, and its workload."""
    wl = workloads.CertifyPresent80(5, tmp_path_factory.mktemp("work"), True)
    workloads.time_setup(wl)
    cert = wl.certify(0, locations=16, jobs=1)
    assert workloads.check_certificate(cert, wl.design, locations=16) == []
    return wl, cert


def tampered(cert, **changes):
    return dataclasses.replace(
        cert, **{k: json.loads(json.dumps(v)) for k, v in changes.items()}
    )


def test_a_forged_witness_is_rejected(certified):
    wl, cert = certified
    index = cert.locations[0][0]
    forged = tampered(cert, witnesses=[{"space_index": index, "seed": cert.seed,
                                        "n_runs": 64, "run": 0}])
    assert workloads.check_certificate(forged, wl.design, locations=16)


def test_a_flipped_histogram_count_is_rejected(certified):
    wl, cert = certified
    histograms = json.loads(json.dumps(cert.histograms))
    bucket = next(iter(histograms.values()))
    bucket[0], bucket[1] = bucket[0] - 1, bucket[1] + 1
    assert workloads.check_certificate(
        tampered(cert, histograms=histograms), wl.design, locations=16
    )


def test_a_consistently_forged_location_row_fails_replay(certified):
    wl, cert = certified
    locations = json.loads(json.dumps(cert.locations))
    row = locations[0][1]
    moved = 0 if row[0] else 1  # move one run out of a non-empty class
    row[moved] -= 1
    row[2] += 1
    forged = tampered(cert, locations=locations)
    assert workloads.check_replay(forged, wl.design, key=wl.key, picks=[0])
    assert workloads.check_replay(cert, wl.design, key=wl.key, picks=[0]) == []


def test_a_wrong_cached_certificate_is_rejected(certified):
    _, cert = certified
    first = cert.to_dict()
    other = tampered(cert, seed=cert.seed + 1).to_dict()
    assert workloads.check_hit(200, {"cached": "store", "certificate": first}, first) == []
    assert workloads.check_hit(200, {"cached": "store", "certificate": other}, first)
    assert workloads.check_hit(200, {"cached": None, "certificate": first}, first)
    assert workloads.check_hit(503, {"error": "draining"}, first)


def test_tampered_figures_are_rejected(tmp_path):
    wl = workloads.CampaignFig45(5, tmp_path, True)
    fig4, fig5 = wl.figures(0, 1024)
    assert workloads.check_figures(fig4, fig5, 1024) == []
    leaky = dataclasses.replace(fig4.ours, faulty_released=1)
    assert workloads.check_figures(dataclasses.replace(fig4, ours=leaky), fig5, 1024)
    biased = dataclasses.replace(fig4.ours, sei=fig4.naive.sei)
    assert workloads.check_figures(dataclasses.replace(fig4, ours=biased), fig5, 1024)
    blind = dataclasses.replace(fig5.naive, faulty_released=0)
    assert workloads.check_figures(fig4, dataclasses.replace(fig5, naive=blind), 1024)
