"""A serial certify or figure process imports only what it runs.

The package ``__init__`` modules re-export lazily and the executor loads
its process pool only when it starts one, so importing the certify entry
points and the figure runners leaves the pool machinery, the other
ciphers, the bench ledger, the area tables and the template attack
unloaded; running a serial certify leaves ``numpy.ma`` unloaded too.
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
    certify = (
        "from repro.certify import CertifyConfig, certify_design\n"
        "from repro.ciphers.netlist_present import PresentSpec\n"
        "from repro.countermeasures.three_in_one import build_three_in_one\n"
        "design = build_three_in_one(PresentSpec(rounds=3))\n"
        "config = CertifyConfig(budget=64 * 16, runs_per_location=16)\n"
        "assert certify_design(design, key=1, config=config).passed"
    )
    assert _loaded_after(certify, ("numpy.ma", *NOT_IMPORTED)) == []


@pytest.mark.parametrize(
    "package",
    ["repro.attacks", "repro.ciphers", "repro.countermeasures",
     "repro.evaluation", "repro.telemetry"],
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
