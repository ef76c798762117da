"""The conformance battery proper: every registered cipher, one contract.

For each cipher the battery proves, on the ``fast_rounds`` spec (full
rounds under ``REPRO_CIPHERLIGHT_FULL=1``):

- the protected three-in-one design matches the software reference under
  *all three* simulation backends, bit-identically across backends;
- the fault-ordering contract holds end-to-end on the real datapath
  (chained transforms on a driver and its consumer, identical campaign
  results per backend);
- every countermeasure scheme × supported λ-variant builds and passes
  structural lint, and unsupported variants are rejected loudly;
- a budgeted single-fault certify sweep earns a clean certificate;
- the service request key resolves the cipher through the registry
  (alias-insensitive, deterministic).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.certify import CertifyConfig, certify_design
from repro.countermeasures import (
    LambdaVariant,
    build_acisp20,
    build_naive_duplication,
    build_three_in_one,
    build_triplication,
)
from repro.faults import FaultSpec, FaultType, run_campaign
from repro.faults.models import last_round, sbox_input_net
from repro.netlist.analysis import lint_countermeasure
from repro.netlist.simulator import BACKENDS
from repro.rng import make_rng, random_ints

from tests.cipherlight.conftest import battery_key

N_BATCH = 8


def _bits_to_ints(bits: np.ndarray) -> list[int]:
    return [sum(int(b) << i for i, b in enumerate(row)) for row in bits]


class TestBackendEquivalence:
    def test_protected_matches_reference_under_every_backend(
        self, fast_spec, protected
    ):
        key = battery_key(fast_spec)
        pts = random_ints(make_rng(11), N_BATCH, fast_spec.block_bits)
        expected = [fast_spec.reference(key).encrypt(pt) for pt in pts]
        results = {}
        for backend in BACKENDS:
            sim = protected.simulator(N_BATCH, backend=backend)
            results[backend] = protected.run(sim, pts, key, rng=5)
        for backend, res in results.items():
            assert res["fault"].sum() == 0, backend
            assert _bits_to_ints(res["ciphertext"]) == expected, backend
        ref = results["reference"]
        for backend in BACKENDS:
            np.testing.assert_array_equal(
                ref["ciphertext"], results[backend]["ciphertext"], backend
            )

    def test_fault_ordering_contract_on_real_datapath(self, protected, monkeypatch):
        """Chained faults — a stuck-at on an S-box input composed with a
        bit-flip on the same net, plus a flip on the S-box output it
        drives — must classify identically under every backend."""
        core = protected.cores[0]
        net_in = sbox_input_net(core, 0, 0)
        net_out = core.sbox_outputs[0][0]
        specs = [
            FaultSpec.at(net_in, FaultType.STUCK_AT_1, last_round(core)),
            FaultSpec.at(net_in, FaultType.BIT_FLIP, last_round(core)),
            FaultSpec.at(net_out, FaultType.BIT_FLIP, last_round(core)),
        ]
        key = battery_key(protected.spec)
        results = {}
        for backend in BACKENDS:
            monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
            results[backend] = run_campaign(
                protected, specs, n_runs=256, key=key, seed=13
            )
        ref = results.pop("reference")
        for backend, got in results.items():
            assert ref.counts() == got.counts(), backend
            np.testing.assert_array_equal(ref.outcomes, got.outcomes)
            np.testing.assert_array_equal(ref.released_bits, got.released_bits)
            np.testing.assert_array_equal(ref.fault_flags, got.fault_flags)


class TestCountermeasureVariants:
    def test_every_scheme_builds_and_passes_lint(self, fast_spec, entry, protected):
        designs = {
            "three-in-one/prime": protected,
            "naive": build_naive_duplication(fast_spec),
            "acisp20": build_acisp20(fast_spec),
            "triplication": build_triplication(fast_spec),
        }
        for variant in entry.variants:
            if variant == "prime":
                continue
            designs[f"three-in-one/{variant}"] = build_three_in_one(
                fast_spec, variant=LambdaVariant(variant)
            )
        key = battery_key(fast_spec)
        pts = random_ints(make_rng(17), 4, fast_spec.block_bits)
        expected = [fast_spec.reference(key).encrypt(pt) for pt in pts]
        for label, design in designs.items():
            report = lint_countermeasure(design, strict=False)
            assert report.passed, f"{label}: {report}"
            res = design.run(design.simulator(4), pts, key, rng=23)
            assert res["fault"].sum() == 0, label
            assert _bits_to_ints(res["ciphertext"]) == expected, label

    def test_unsupported_variants_rejected(self, fast_spec, entry):
        for variant in ("prime", "per_round", "per_sbox"):
            if variant in entry.variants:
                continue
            with pytest.raises(ValueError):
                build_three_in_one(fast_spec, variant=LambdaVariant(variant))


class TestDetectionSmoke:
    def test_budgeted_single_fault_certify_passes(self, fast_spec, protected):
        config = CertifyConfig(
            budget=512, runs_per_location=16, models=("single",), seed=7
        )
        certificate = certify_design(
            protected, key=battery_key(fast_spec), config=config
        )
        assert certificate.passed
        assert not certificate.witnesses
        assert certificate.cipher == fast_spec.name
        assert certificate.rounds == fast_spec.rounds


class TestServiceIdentity:
    def test_request_key_resolves_through_registry(
        self, cipher_name, entry, fast_spec, protected
    ):
        from repro.service.protocol import CertifyRequest, request_key

        request = CertifyRequest(
            cipher=cipher_name, rounds=fast_spec.rounds, budget=64, seed=3
        )
        key = request_key(request, design=protected)
        assert key == request_key(request, design=protected)  # deterministic
        for alias in entry.aliases:
            aliased = CertifyRequest(
                cipher=alias, rounds=fast_spec.rounds, budget=64, seed=3
            )
            assert request_key(aliased, design=protected) == key

    def test_unknown_cipher_rejected_at_request_construction(self):
        from repro.service.protocol import CertifyRequest

        with pytest.raises(ValueError, match="registered"):
            CertifyRequest(cipher="des")
