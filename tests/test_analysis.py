"""Structural analysis: cones, fanout, core independence of countermeasures."""

import pytest

from repro.netlist import analysis
from repro.netlist.analysis import (
    LintError,
    datapath_nets,
    fanin_cone,
    fanout_cone,
    fanout_map,
    gate_by_output,
    lint_countermeasure,
    shared_logic,
)
from repro.netlist.builder import CircuitBuilder
from repro.netlist.gates import GateType


def diamond():
    """a -> (n1, n2) -> y ; plus an unrelated branch."""
    b = CircuitBuilder()
    a = b.input("a", 1)[0]
    c = b.input("c", 1)[0]
    n1 = b.not_(a)
    n2 = b.buf(a)
    y = b.and_(n1, n2)
    z = b.not_(c)
    b.output("y", [y])
    b.output("z", [z])
    return b.circuit, a, c, n1, n2, y, z


class TestCones:
    def test_fanin_cone_stops_at_inputs(self):
        circ, a, c, n1, n2, y, z = diamond()
        cone = fanin_cone(circ, [y])
        assert cone == {a, n1, n2, y}

    def test_fanout_cone(self):
        circ, a, c, n1, n2, y, z = diamond()
        cone = fanout_cone(circ, [a])
        assert cone == {a, n1, n2, y}
        assert z not in cone

    def test_fanout_map(self):
        circ, a, c, n1, n2, y, z = diamond()
        fan = fanout_map(circ)
        assert {g.out for g in fan[a]} == {n1, n2}

    def test_gate_by_output(self):
        circ, a, c, n1, n2, y, z = diamond()
        assert gate_by_output(circ)[y].ins == (n1, n2)

    def test_cone_through_dff_control(self):
        b = CircuitBuilder()
        x = b.input("x", 1)[0]
        q = b.dff(x)
        y = b.not_(q)
        b.output("y", [y])
        with_dff = fanin_cone(b.circuit, [y], through_dffs=True)
        without = fanin_cone(b.circuit, [y], through_dffs=False)
        assert x in with_dff
        assert x not in without
        assert q in without

    def test_shared_logic_excludes_primary_inputs(self):
        circ, a, c, n1, n2, y, z = diamond()
        assert shared_logic(circ, [y], [z]) == set()
        assert shared_logic(circ, [y], [n1]) == {n1}


class TestCountermeasureIndependence:
    """The two computations must share nothing but primary inputs —
    otherwise one fault could corrupt both identically."""

    def assert_cores_independent(self, design):
        circ = design.circuit
        cones = [fanin_cone(circ, core.ciphertext) for core in design.cores]
        drivers = gate_by_output(circ)
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                common = cones[i] & cones[j]
                for net in common:
                    gate = drivers[net]
                    # inputs, constants, and the λ distribution inverters
                    # are legitimately shared; everything else is a bug.
                    assert gate.gtype.value in ("input", "const0", "const1") or (
                        gate.tag.startswith("lambda")
                    ), f"cores share net {net} ({gate.gtype.name}, tag={gate.tag!r})"

    def test_naive_cores_independent(self, naive_design):
        self.assert_cores_independent(naive_design)

    def test_triplication_cores_independent(self, triplication_design):
        self.assert_cores_independent(triplication_design)

    def test_acisp_cores_independent(self, acisp_design):
        self.assert_cores_independent(acisp_design)

    def test_three_in_one_cores_independent(self, ours_prime):
        self.assert_cores_independent(ours_prime)

    def test_per_sbox_cores_independent(self, ours_per_sbox):
        self.assert_cores_independent(ours_per_sbox)


# ------------------------------------------------------- countermeasure lint


class _Probe:
    """Minimal core stand-in: lint only reads ``ciphertext``."""

    def __init__(self, ciphertext):
        self.ciphertext = ciphertext


class _Fixture:
    """Minimal design stand-in: lint reads circuit, cores, scheme."""

    def __init__(self, circuit, cores):
        self.circuit = circuit
        self.cores = cores
        self.scheme = "fixture"


def miswired_pair():
    """Two 'cores' that illegally share their add-key XOR layer."""
    b = CircuitBuilder("miswired")
    pt = b.input("plaintext", 2)
    key = b.input("key", 2)
    shared = b.xor_word(pt, key, tag="addkey")  # one copy feeds both cores
    c0 = [b.not_(n, tag="c0") for n in shared]
    c1 = [b.not_(n, tag="c1") for n in shared]
    fault = b.or_reduce(b.xor_word(c0, c1, tag="cmp"), tag="cmp/ortree")
    b.output("ciphertext", c0)
    b.output("fault", [fault])
    return b.build(), shared, c0, c1


class TestLintCountermeasure:
    """The builders run this strictly; these tests pin what it enforces."""

    def test_paper_variants_pass(
        self, naive_design, acisp_design, ours_prime, triplication_design
    ):
        for design in (
            naive_design, acisp_design, ours_prime, triplication_design
        ):
            report = lint_countermeasure(design)
            assert report.passed, report.to_dict()
            assert report.n_datapath > 0
            assert report.to_dict()["passed"] is True

    def test_shared_core_logic_detected(self):
        circuit, shared, c0, c1 = miswired_pair()
        design = _Fixture(circuit, [_Probe(c0), _Probe(c1)])
        report = lint_countermeasure(design, strict=False)
        assert set(shared) <= set(report.shared_nets)
        assert not report.passed
        with pytest.raises(LintError, match="share logic nets") as excinfo:
            lint_countermeasure(design)
        assert excinfo.value.net in report.shared_nets

    def test_missing_fault_port_means_nothing_observable(self):
        b = CircuitBuilder("noflag")
        pt = b.input("plaintext", 2)
        c0 = [b.not_(n, tag="c0") for n in pt]
        b.output("ciphertext", c0)
        design = _Fixture(b.build(), [_Probe(c0)])
        report = lint_countermeasure(design, strict=False)
        assert set(report.unobservable_nets) == set(c0)

    def test_undriven_and_dangling_nets_detected(self):
        circuit, shared, c0, c1 = miswired_pair()
        orphan = circuit.new_net()  # allocated, never driven
        a, bnet = circuit.inputs["plaintext"]
        dangling = circuit.add_gate(GateType.AND, (a, bnet), tag="halfwired")
        design = _Fixture(circuit, [_Probe(c0), _Probe(c1)])
        report = lint_countermeasure(design, strict=False)
        assert orphan in report.undriven_nets
        assert dangling in report.dangling_nets

    def test_datapath_excludes_inputs_and_backend(self, naive_design):
        circuit = naive_design.circuit
        nets = datapath_nets(circuit, naive_design.cores)
        for port in circuit.inputs.values():
            assert nets.isdisjoint(port)
        assert circuit.outputs["fault"][0] not in nets

    def test_lint_builds_one_driver_map(self, ours_prime, monkeypatch):
        """Lint derives its datapath from the cones it already walked, so
        a two-core design costs one driver map, not one per cone."""
        built = []
        original = analysis.gate_by_output

        def counting(circuit):
            built.append(circuit)
            return original(circuit)

        monkeypatch.setattr(analysis, "gate_by_output", counting)
        report = lint_countermeasure(ours_prime)
        assert len(built) == 1
        assert report.n_datapath == len(
            datapath_nets(ours_prime.circuit, ours_prime.cores)
        )
