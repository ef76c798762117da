"""Registry-wide artefact — GE overhead and throughput per cipher.

The paper prices the countermeasure on PRESENT-80 (Table II) and the AES
S-box layer (Table III).  With the cipher registry in place the same
pricing is mechanical for *every* registered design: this bench builds
the unprotected core and the three-in-one design for each entry at full
rounds, prices both in gate equivalents, and measures protected
encryption throughput under the levelized and compiled backends.

The machine-readable result lands in ``BENCH_ciphers.json`` keyed by
canonical cipher name, so CI can diff per-cipher overhead across
revisions.
"""

import time

from benchmarks.conftest import bench_report, emit
from repro.ciphers.registry import get_entry, registered_ciphers
from repro.countermeasures import build_three_in_one
from repro.evaluation import render_table
from repro.netlist.builder import CircuitBuilder
from repro.rng import make_rng, random_ints
from repro.synth.sbox_synth import synthesize_sbox
from repro.tech import area_of

KEY = 0x2B7E151628AED2A6ABF7158809CF4F3C
BATCH = 256


def _build_bare(spec):
    """Unprotected single-core circuit for ``spec`` (no countermeasure)."""
    builder = CircuitBuilder(f"{spec.name}_bare")
    pt = builder.input("plaintext", spec.block_bits)
    key = builder.input("key", spec.key_bits)
    sbox_circuit = synthesize_sbox(spec.sbox.truthtable(), name=f"{spec.name}_sbox")
    spec.build_core(builder, pt, key, sbox_circuit=sbox_circuit, tag="u")
    builder.circuit.validate()
    return builder.circuit


def _throughput(design, spec, backend):
    """Protected encryptions per second on a BATCH-wide simulator."""
    key = KEY & ((1 << spec.key_bits) - 1)
    pts = random_ints(make_rng(3), BATCH, spec.block_bits)
    sim = design.simulator(BATCH, backend=backend)
    design.run(sim, pts, key, rng=7)  # warm-up (compiled backend JITs here)
    start = time.perf_counter()
    res = design.run(design.simulator(BATCH, backend=backend), pts, key, rng=7)
    elapsed = time.perf_counter() - start
    assert res["fault"].sum() == 0
    return BATCH / elapsed


def run_cipher_suite():
    rows = {}
    for name in registered_ciphers():
        spec = get_entry(name).make()  # full rounds
        bare_ge = area_of(_build_bare(spec)).total
        design = build_three_in_one(spec)
        protected_ge = area_of(design.circuit).total
        rows[name] = {
            "block_bits": spec.block_bits,
            "key_bits": spec.key_bits,
            "rounds": spec.rounds,
            "bare_ge": bare_ge,
            "protected_ge": protected_ge,
            "overhead": round(protected_ge / bare_ge, 3),
            "levelized_enc_per_s": round(_throughput(design, spec, "levelized"), 1),
            "compiled_enc_per_s": round(_throughput(design, spec, "compiled"), 1),
        }
    return rows


def test_cipher_suite(benchmark, artifact_dir):
    rows = benchmark.pedantic(run_cipher_suite, rounds=1, iterations=1)

    for name, row in rows.items():
        # duplication-based: strictly more than 1x; the merged (n+1)x m
        # S-boxes push S-box-light cores (GIFT) slightly past 3x
        assert 1.0 < row["overhead"] < 4.0, name
        assert row["compiled_enc_per_s"] > 0, name

    text = render_table(
        ["cipher", "block/key", "rounds", "bare GE", "protected GE",
         "overhead", "enc/s (compiled)"],
        [
            [name, f"{row['block_bits']}/{row['key_bits']}", row["rounds"],
             row["bare_ge"], row["protected_ge"], f"{row['overhead']:.2f}x",
             row["compiled_enc_per_s"]]
            for name, row in rows.items()
        ],
        title="Three-in-one cost across the cipher registry (full rounds)",
    )
    emit(artifact_dir, "cipher_suite.txt", text)
    bench_report(
        artifact_dir,
        "ciphers",
        config={"batch": BATCH, "ciphers": list(rows)},
        metrics=rows,
    )
    benchmark.extra_info["ciphers"] = {
        name: row["overhead"] for name, row in rows.items()
    }
