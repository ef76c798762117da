"""Benchmark configuration.

Every benchmark regenerates one artefact of the paper's evaluation section
and prints it in the paper's layout (run pytest with ``-s`` to see the
artefacts inline; they are also written to ``benchmarks/out/``).

Scale knobs (environment variables):

``REPRO_BENCH_RUNS``
    Fault-campaign size for the figure benchmarks.  Defaults to the
    paper's 80,000 runs; set lower (e.g. 10000) for a quick pass.

``REPRO_JOBS``
    Worker processes for the campaign-heavy benchmarks (Fig. 4/5, attack
    matrix).  Defaults to in-process execution; the results are
    bit-identical either way (see the campaign determinism contract).

``REPRO_CHECKPOINT_DIR``
    When set, those campaigns checkpoint their shards under this directory
    and *resume* from whatever a previous (killed, OOMed, ^C'd) benchmark
    run already computed.

``REPRO_BENCH_OUT``
    Artefact output directory.  Defaults to ``benchmarks/out/`` resolved
    against *this file's* location (never the process CWD, so running
    pytest from anywhere — including an installed ``src/`` tree — cannot
    scatter ``BENCH_*.json`` files into the package).

``REPRO_BENCH_HISTORY``
    Benchmark-history ledger path (default ``<out>/bench_history.jsonl``).
    Every ``bench_report`` emission also appends one line here so
    ``repro bench check`` can judge the newest run against the series'
    rolling baseline.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.telemetry import run_manifest

BENCH_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "80000"))
BENCH_KEY = 0x8F4E2D1C0B5A69783746
BENCH_JOBS = int(os.environ.get("REPRO_JOBS", "1")) or None
BENCH_CHECKPOINT_DIR = os.environ.get("REPRO_CHECKPOINT_DIR") or None

OUT_DIR = pathlib.Path(
    os.environ.get("REPRO_BENCH_OUT")
    or pathlib.Path(__file__).resolve().parent / "out"
).resolve()


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def bench_runs() -> int:
    return BENCH_RUNS


@pytest.fixture(scope="session")
def bench_jobs() -> int | None:
    return BENCH_JOBS


@pytest.fixture(scope="session")
def bench_checkpoint_dir() -> str | None:
    return BENCH_CHECKPOINT_DIR


def campaign_knobs(subdir: str) -> dict:
    """Executor kwargs for a campaign-heavy benchmark (env-driven).

    ``{"executor": None}`` runs in-process; otherwise the config runs the
    campaigns on ``REPRO_JOBS`` workers and checkpoints (and resumes) them
    under ``REPRO_CHECKPOINT_DIR/subdir``.
    """
    if (BENCH_JOBS or 1) == 1 and not BENCH_CHECKPOINT_DIR:
        return {"executor": None}
    from repro.faults.executor import ExecutorConfig

    ckpt = (
        pathlib.Path(BENCH_CHECKPOINT_DIR) / subdir
        if BENCH_CHECKPOINT_DIR
        else None
    )
    return {
        "executor": ExecutorConfig(
            jobs=BENCH_JOBS or 1, checkpoint_dir=ckpt, resume=ckpt is not None
        )
    }


def emit(artifact_dir: pathlib.Path, name: str, text: str) -> None:
    """Print an artefact and persist it under benchmarks/out/."""
    print(f"\n{text}\n")
    (artifact_dir / name).write_text(text + "\n")


def bench_report(
    artifact_dir: pathlib.Path, name: str, *, config: dict, metrics: dict
) -> pathlib.Path:
    """Persist a benchmark's machine-readable result as ``BENCH_<name>.json``.

    Every benchmark writes the same four-field document — ``name``, the
    inputs that shaped the run (``config``), the measured numbers
    (``metrics``), and the environment ``manifest`` (git rev, python/numpy
    versions, timestamp) — so CI can archive and diff them uniformly.
    """
    from repro.resilience.persist import atomic_write_json

    from repro.telemetry.history import append_entry, resolve_history_path

    path = artifact_dir / f"BENCH_{name}.json"
    report = {
        "name": name,
        "config": config,
        "metrics": metrics,
        "manifest": run_manifest(kind="bench", bench=name),
    }
    atomic_write_json(path, report)
    append_entry(resolve_history_path(artifact_dir), report)
    return path
