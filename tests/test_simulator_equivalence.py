"""Differential testing: the fast kernels vs the reference interpreter.

The per-gate interpreter in :mod:`repro.netlist.simulator` is the
executable definition of the simulation semantics (itself property-tested
against the scalar ``GateType.eval`` in ``test_simulator.py``).  The
levelized opcode-batched kernel *and* the compiled generated-code kernel
must be *bit-exact* against it — for every net, every lane (including the
padding lanes of non-multiple-of-64 batches), every cycle, with and
without faults.  This suite enforces that three-way over hundreds of
seeded random sequential circuits, plus targeted regression tests pinning
the fault-ordering contract all backends share (see the
:class:`~repro.netlist.simulator.Simulator` docstring).  Net state is
compared through :meth:`Simulator.get_nets_packed`, the net-id-addressed
readout every backend must honour regardless of its internal storage
layout (the compiled kernel permutes rows).

The deep sweep (larger circuits, bigger batches, longer runs) is marked
``slow``; the scheduled CI job runs it, the per-PR job skips it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.countermeasures import build_three_in_one
from repro.faults import ExecutorConfig, run_campaign
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSpec, FaultType, last_round, sbox_input_net
from repro.netlist.circuit import Circuit
from repro.netlist.gates import COMBINATIONAL_TYPES, GateType
from repro.netlist.simulator import BACKENDS, Simulator

COMB_TYPES = sorted(COMBINATIONAL_TYPES, key=lambda t: t.value)

#: batch sizes stressing word packing: 1 lane, partial word, exact words,
#: one-bit spill, multi-word with slack
BATCHES = [1, 3, 37, 64, 65, 100, 128, 200]

ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def random_sequential_circuit(rng: np.random.Generator, n_gates: int):
    """A random DAG over all 9 combinational cell types plus DFFs.

    DFF output nets are allocated up-front and offered as gate inputs, so
    the generated circuits contain real sequential feedback (state that
    depends on its own previous value), not just feed-forward pipelines.
    """
    c = Circuit("rand")
    width = int(rng.integers(1, 9))
    nets = list(c.add_input("x", width))
    n_dffs = int(rng.integers(0, 5))
    dff_q = [c.new_net() for _ in range(n_dffs)]
    nets.extend(dff_q)
    if rng.random() < 0.5:
        nets.append(c.const(0))
    if rng.random() < 0.5:
        nets.append(c.const(1))
    for _ in range(n_gates):
        gtype = COMB_TYPES[rng.integers(len(COMB_TYPES))]
        ins = tuple(nets[rng.integers(len(nets))] for _ in range(gtype.arity))
        nets.append(c.add_gate(gtype, ins))
    for q in dff_q:
        d = nets[rng.integers(len(nets))]
        c.add_gate(GateType.DFF, (d,), out=q, init=int(rng.integers(2)))
    outs = [nets[i] for i in rng.choice(len(nets), size=min(6, len(nets)), replace=False)]
    c.set_output("y", outs)
    return c


class RandomFaults:
    """A FaultProvider drawing arbitrary per-cycle transforms.

    Covers the stuck-at / flip shapes the injector produces *and* free-form
    transforms (lane-masked XORs), on arbitrary nets — gate outputs, MUX
    select lines, DFF D-pin drivers and Q outputs, primary inputs.
    """

    def __init__(self, rng: np.random.Generator, circuit: Circuit, n_words: int, cycles: int):
        self.by_cycle: dict[int, dict] = {}
        n_faults = int(rng.integers(1, 6))
        for _ in range(n_faults):
            net = int(rng.integers(circuit.num_nets))
            active = [int(cy) for cy in rng.choice(cycles, size=int(rng.integers(1, cycles + 1)), replace=False)]
            kind = int(rng.integers(4))
            if kind == 0:
                transform = lambda v: np.zeros_like(v)
            elif kind == 1:
                transform = lambda v: np.full_like(v, ALL_ONES)
            elif kind == 2:
                transform = lambda v: ~v
            else:
                mask = rng.integers(0, 1 << 63, size=n_words, dtype=np.uint64)
                transform = lambda v, m=mask: v ^ m
            for cy in active:
                table = self.by_cycle.setdefault(cy, {})
                prev = table.get(net)
                if prev is None:
                    table[net] = transform
                else:
                    table[net] = lambda v, a=prev, b=transform: b(a(v))

    def for_cycle(self, cycle: int):
        return self.by_cycle.get(cycle, {})


def assert_backends_agree(circuit: Circuit, batch: int, cycles: int, faults=None, schedule=None):
    """Step every backend in lockstep against the reference oracle."""
    sims = {}
    for backend in BACKENDS:
        sim = Simulator(circuit, batch, faults=faults, backend=backend)
        if schedule is not None:
            sim.set_input_schedule("x", schedule)
        else:
            width = len(circuit.inputs["x"])
            sim.set_input_ints("x", [(i * 2654435761) % (1 << width) for i in range(batch)])
        sims[backend] = sim
    ref = sims.pop("reference")
    all_nets = range(circuit.num_nets)
    for cycle in range(cycles):
        ref.step()
        want = ref.get_nets_packed(all_nets)
        for backend, sim in sims.items():
            sim.step()
            np.testing.assert_array_equal(
                want, sim.get_nets_packed(all_nets),
                err_msg=f"{backend} diverges from reference after cycle {cycle}",
            )
    ref.eval_comb()
    want = ref.get_nets_packed(all_nets)
    want_y = ref.get_output_bits("y")
    for backend, sim in sims.items():
        sim.eval_comb()
        np.testing.assert_array_equal(
            want, sim.get_nets_packed(all_nets),
            err_msg=f"{backend} diverges from reference on final eval_comb",
        )
        np.testing.assert_array_equal(want_y, sim.get_output_bits("y"))


def run_equivalence_case(seed: int, *, n_gates_hi: int, cycles_hi: int, batches=BATCHES):
    rng = np.random.default_rng(seed)
    circuit = random_sequential_circuit(rng, n_gates=int(rng.integers(10, n_gates_hi)))
    batch = batches[rng.integers(len(batches))]
    cycles = int(rng.integers(2, cycles_hi))
    n_words = (batch + 63) // 64

    # clean run
    assert_backends_agree(circuit, batch, cycles)

    # arbitrary-transform faults (gate outputs, selects, sources, DFF pins)
    faults = RandomFaults(rng, circuit, n_words, cycles)
    assert_backends_agree(circuit, batch, cycles, faults=faults)

    # injector-built faults: random specs incl. windows and probabilistic
    # lane masks (one shared injector instance drives both backends)
    specs = []
    for _ in range(int(rng.integers(1, 4))):
        specs.append(
            FaultSpec(
                net=int(rng.integers(circuit.num_nets)),
                fault_type=list(FaultType)[rng.integers(len(FaultType))],
                cycles=(
                    None
                    if rng.random() < 0.3
                    else frozenset(int(cy) for cy in rng.choice(cycles, size=int(rng.integers(1, cycles + 1)), replace=False))
                ),
                probability=float(rng.choice([1.0, 0.5])),
            )
        )
    injector = FaultInjector(specs, batch, rng=int(seed))
    assert_backends_agree(circuit, batch, cycles, faults=injector)


@pytest.mark.parametrize("seed", range(200))
def test_fast_backends_match_reference(seed):
    """200 seeded random circuits, clean + two fault regimes each,
    three-way (reference ↔ levelized ↔ compiled)."""
    run_equivalence_case(seed, n_gates_hi=60, cycles_hi=7)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1000, 1100))
def test_fast_backends_match_reference_deep(seed):
    """Deep sweep: bigger circuits, longer runs (scheduled CI job)."""
    run_equivalence_case(seed, n_gates_hi=250, cycles_hi=16, batches=[63, 129, 512, 1000])


class TestScheduledInputs:
    def test_schedule_with_faults_agrees(self):
        rng = np.random.default_rng(7)
        circuit = random_sequential_circuit(rng, n_gates=40)
        width = len(circuit.inputs["x"])
        batch = 65
        feed = np.random.default_rng(8).integers(0, 2, size=(10, batch, width)).astype(np.uint8)
        faults = RandomFaults(rng, circuit, (batch + 63) // 64, 8)
        assert_backends_agree(
            circuit, batch, 8, faults=faults, schedule=lambda cy: feed[cy]
        )


class TestFaultOrderingContract:
    """Pin the eval_comb ordering both backends must honour.

    Contract (Simulator docstring): input schedules first, then source-net
    transforms, then gate evaluation with gate-output transforms applied
    in program order — a consumer always reads its driver's *transformed*
    value, even when driver and consumer sit in different levels.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_schedule_applied_before_source_transform(self, backend):
        from repro.netlist.builder import CircuitBuilder

        b = CircuitBuilder()
        x = b.input("x", 1)
        b.output("y", [b.buf(x[0])])

        class StuckX:
            def for_cycle(self, cycle):
                return {x[0]: lambda v: np.zeros_like(v)}

        sim = Simulator(b.circuit, batch=4, faults=StuckX(), backend=backend)
        # schedule drives ones every cycle; the stuck-at-0 transform must
        # win because source transforms run after schedules
        sim.set_input_schedule("x", lambda cy: np.ones((4, 1), dtype=np.uint8))
        sim.eval_comb()
        assert sim.get_output_ints("y") == [0, 0, 0, 0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gate_output_transforms_compose_in_program_order(self, backend):
        from repro.netlist.builder import CircuitBuilder

        b = CircuitBuilder()
        x = b.input("x", 1)
        g1 = b.buf(x[0])  # level 0
        g2 = b.not_(g1)  # level 1
        b.output("y", [g2])

        class ChainFaults:
            def for_cycle(self, cycle):
                return {
                    g1: lambda v: np.full_like(v, ALL_ONES),  # stuck-at-1
                    g2: lambda v: ~v,  # bitflip
                }

        sim = Simulator(b.circuit, batch=2, faults=ChainFaults(), backend=backend)
        sim.set_input_ints("x", [0, 0])
        sim.eval_comb()
        # g1 evaluates to 0, transform forces 1; g2 must read the *faulted*
        # 1 → NOT gives 0; g2's own transform flips to 1.  A kernel that
        # deferred g1's transform past g2's evaluation would produce 0.
        assert sim.get_output_ints("y") == [1, 1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dff_latches_faulted_d_value(self, backend):
        from repro.netlist.builder import CircuitBuilder

        b = CircuitBuilder()
        q, connect = b.register(1)
        d = b.not_(q[0])  # toggler
        connect([d])
        b.output("q", q)

        class StickD:
            def for_cycle(self, cycle):
                if cycle == 0:
                    return {d: lambda v: np.zeros_like(v)}
                return {}

        sim = Simulator(b.circuit, batch=1, faults=StickD(), backend=backend)
        sim.step()  # d forced to 0 at cycle 0 → q stays 0
        assert sim.get_output_ints("q") == [0]
        sim.step()  # fault gone: q toggles to 1
        assert sim.get_output_ints("q") == [1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mux_select_fault(self, backend):
        from repro.netlist.builder import CircuitBuilder

        b = CircuitBuilder()
        x = b.input("x", 3)  # (sel, d0, d1)
        b.output("y", [b.mux(x[2], x[0], x[1])])

        class FlipSel:
            def for_cycle(self, cycle):
                return {x[2]: lambda v: ~v}

        sim = Simulator(b.circuit, batch=8, faults=FlipSel(), backend=backend)
        sim.set_input_ints("x", list(range(8)))
        sim.eval_comb()
        got = sim.get_output_ints("y")
        for run in range(8):
            d0, d1, sel = run & 1, (run >> 1) & 1, (run >> 2) & 1
            assert got[run] == (d0 if sel else d1)  # select inverted


@pytest.fixture(scope="module", params=["present80", "gift64"])
def reduced_design(request):
    """Reduced-round protected designs, parametrized over the cipher
    registry so backend equivalence is proven beyond PRESENT."""
    from repro.ciphers.registry import get_entry

    entry = get_entry(request.param)
    return build_three_in_one(entry.make(rounds=entry.fast_rounds))


class TestCampaignEquivalence:
    """End-to-end: identical CampaignResult under every backend, each
    selected the way a user selects it (``REPRO_SIM_BACKEND``)."""

    def test_reduced_round_campaign_histograms_identical(
        self, reduced_design, monkeypatch
    ):
        design = reduced_design
        core = design.cores[0]
        specs = [
            FaultSpec.at(
                sbox_input_net(core, 13, 2), FaultType.STUCK_AT_0, last_round(core)
            )
        ]
        key = 0x1A2B3C4D5E6F708192A3
        results = {}
        for backend in BACKENDS:
            monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
            results[backend] = run_campaign(
                design, specs, n_runs=2048, key=key, seed=9
            )
        ref = results.pop("reference")
        for backend, got in results.items():
            assert ref.counts() == got.counts(), backend
            np.testing.assert_array_equal(ref.outcomes, got.outcomes)
            np.testing.assert_array_equal(ref.released_bits, got.released_bits)
            np.testing.assert_array_equal(ref.expected_bits, got.expected_bits)
            np.testing.assert_array_equal(ref.plaintext_bits, got.plaintext_bits)
            np.testing.assert_array_equal(ref.fault_flags, got.fault_flags)

    @pytest.mark.parametrize("backend", ["levelized", "compiled"])
    def test_sharded_fast_backend_equals_single_shot_reference(
        self, reduced_design, tmp_path, backend, monkeypatch
    ):
        """The executor path (fast-kernel workers) vs one-shot reference."""
        design = reduced_design
        core = design.cores[0]
        specs = [
            FaultSpec.at(
                sbox_input_net(core, 5, 1), FaultType.BIT_FLIP, last_round(core)
            )
        ]
        key = 0x1A2B3C4D5E6F708192A3
        monkeypatch.setenv("REPRO_SIM_BACKEND", "reference")
        single = run_campaign(design, specs, n_runs=2048, key=key, seed=3)
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        sharded = run_campaign(
            design,
            specs,
            n_runs=2048,
            key=key,
            seed=3,
            executor=ExecutorConfig(
                shard_runs=1024, checkpoint_dir=tmp_path / f"ckpt-{backend}"
            ),
        )
        assert single.counts() == sharded.counts()
        np.testing.assert_array_equal(single.outcomes, sharded.outcomes)
        np.testing.assert_array_equal(single.released_bits, sharded.released_bits)
