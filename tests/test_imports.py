"""A serial certify or figure process imports only what it runs.

The package ``__init__`` modules re-export lazily, the S-box synthesiser
never loads the ``bdd`` package, and the executor keeps its supervisor in a module loaded by the first sweep,
which in turn loads the checkpoint store only with a ``checkpoint_dir``
and the process pool only when it starts one.  So:

- importing the certify entry points and the figure runners leaves the
  pool machinery, the other ciphers, the bench ledger, the area tables
  and the template attack unloaded;
- a serial in-process campaign also leaves the checkpoint store, the
  chaos hooks, the progress board, the run manifest, the ``bdd``
  package, ``logging`` and ``subprocess`` unloaded;
- a serial certify also leaves ``numpy.ma``, the checkpoint store and
  the ``bdd`` package unloaded.

Checked in a fresh interpreter, where nothing else has imported them
first.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ENTRY_POINTS = (
    "repro.certify.certifier",
    "repro.countermeasures.three_in_one",
    "repro.ciphers.netlist_present",
    "repro.netlist.analysis",
    "repro.faults.executor",
    "repro.evaluation.figures",
)

NOT_IMPORTED = (
    "concurrent.futures.process",
    "multiprocessing",
    "repro.ciphers.aes",
    "repro.ciphers.gift",
    "repro.telemetry.history",
    "repro.evaluation.tables",
    "repro.attacks.fta",
    "repro.tech",
)

#: a serial, uncheckpointed certify of a 3-round three-in-one PRESENT-80
SERIAL_CERTIFY = (
    "from repro.certify import CertifyConfig, certify_design\n"
    "from repro.ciphers.netlist_present import PresentSpec\n"
    "from repro.countermeasures.three_in_one import build_three_in_one\n"
    "design = build_three_in_one(PresentSpec(rounds=3))\n"
    "config = CertifyConfig(budget=64 * 16, runs_per_location=16)\n"
    "assert certify_design(design, key=1, config=config).passed"
)


def _loaded_after(statements: str, modules=NOT_IMPORTED) -> list[str]:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    code = (
        f"{statements}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_entry_points_leave_unused_modules_unloaded():
    assert _loaded_after("\n".join(f"import {m}" for m in ENTRY_POINTS)) == []


def test_serial_certify_leaves_numpy_ma_unloaded():
    assert _loaded_after(SERIAL_CERTIFY, ("numpy.ma", *NOT_IMPORTED)) == []


def test_serial_campaign_leaves_supervisor_unloaded():
    campaign = (
        "from repro.ciphers.netlist_present import PresentSpec\n"
        "from repro.countermeasures.duplication import build_naive_duplication\n"
        "from repro.faults import FaultSpec, FaultType, run_campaign\n"
        "from repro.faults.models import sbox_input_net\n"
        "design = build_naive_duplication(PresentSpec(rounds=3))\n"
        "fault = FaultSpec.at(\n"
        "    sbox_input_net(design.cores[0], 7, 1), FaultType.STUCK_AT_0, 1\n"
        ")\n"
        "result = run_campaign(design, [fault], n_runs=64, key=1, seed=2)\n"
        "assert result.n_runs == 64"
    )
    modules = (
        "repro.faults.checkpoint",
        "repro.resilience.chaos",
        "repro.telemetry.progress",
        "repro.telemetry.manifest",
        "repro.synth.bdd",
        "logging",
        "subprocess",
    )
    assert _loaded_after(campaign, modules) == []


def test_serial_certify_leaves_checkpoint_and_oracle_engines_unloaded():
    modules = ("repro.faults.checkpoint", "repro.synth.bdd")
    assert _loaded_after(SERIAL_CERTIFY, modules) == []


def test_request_protocol_leaves_the_daemon_unloaded():
    # the CLI builds its certify/submit flags from the request's defaults
    modules = ("repro.service.daemon", "repro.service.client", "asyncio")
    assert _loaded_after("import repro.service.protocol", modules) == []


@pytest.mark.parametrize(
    "package",
    ["repro.attacks", "repro.ciphers", "repro.countermeasures",
     "repro.evaluation", "repro.faults", "repro.service", "repro.synth",
     "repro.telemetry"],
)
def test_lazy_packages_keep_every_public_name(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        value = getattr(module, name)
        assert getattr(module, name) is value  # cached after the first access
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name


def test_renamed_export_resolves_to_its_source():
    from repro.telemetry import bench_check
    from repro.telemetry.history import check

    assert bench_check is check
