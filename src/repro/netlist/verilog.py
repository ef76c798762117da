"""Structural Verilog export / import for :class:`Circuit`.

The authors' flow synthesised Verilog RTL and fed the mapped netlist to
VerFI.  We provide the reverse bridge: our circuits can be written out as
flat structural Verilog (one primitive instance per gate, `always @(posedge
clk)` blocks for the registers), suitable for cross-checking in any external
simulator or synthesis tool, and read back in (the same subset only), which
the tests use as a round-trip invariant.
"""

from __future__ import annotations

import re

from repro.netlist.circuit import Circuit
from repro.netlist.gates import Gate, GateType

__all__ = ["to_verilog", "from_verilog"]

_PRIMITIVES = {
    GateType.BUF: "buf",
    GateType.NOT: "not",
    GateType.AND: "and",
    GateType.OR: "or",
    GateType.NAND: "nand",
    GateType.NOR: "nor",
    GateType.XOR: "xor",
    GateType.XNOR: "xnor",
}


def to_verilog(circuit: Circuit, *, module_name: str | None = None) -> str:
    """Render the circuit as flat structural Verilog.

    Ports become ``input``/``output`` vectors; every internal net is a wire
    named ``n<id>``; DFFs become a single clocked always block with an
    asynchronous reset to their init values.  MUX cells are emitted as
    ternary assigns (there is no Verilog mux primitive).
    """
    module_name = module_name or re.sub(r"\W+", "_", circuit.name) or "top"
    lines: list[str] = []
    ports = ["clk", "rst"]
    decls: list[str] = ["  input clk;", "  input rst;"]

    for name, nets in circuit.inputs.items():
        ports.append(name)
        decls.append(f"  input [{len(nets) - 1}:0] {name};")
    for name, nets in circuit.outputs.items():
        ports.append(name)
        decls.append(f"  output [{len(nets) - 1}:0] {name};")

    lines.append(f"module {module_name}({', '.join(ports)});")
    lines.extend(decls)
    lines.append(f"  wire [{max(circuit.num_nets - 1, 0)}:0] n;")

    for name, nets in circuit.inputs.items():
        for i, net in enumerate(nets):
            lines.append(f"  assign n[{net}] = {name}[{i}];")
    for name, nets in circuit.outputs.items():
        for i, net in enumerate(nets):
            lines.append(f"  assign {name}[{i}] = n[{net}];")

    regs: list[Gate] = []
    for idx, gate in enumerate(circuit.gates):
        if gate.gtype is GateType.INPUT:
            continue
        if gate.gtype is GateType.CONST0:
            lines.append(f"  assign n[{gate.out}] = 1'b0;")
        elif gate.gtype is GateType.CONST1:
            lines.append(f"  assign n[{gate.out}] = 1'b1;")
        elif gate.gtype is GateType.DFF:
            regs.append(gate)
        elif gate.gtype is GateType.MUX:
            sel, d0, d1 = gate.ins
            lines.append(
                f"  assign n[{gate.out}] = n[{sel}] ? n[{d1}] : n[{d0}];"
            )
        else:
            prim = _PRIMITIVES[gate.gtype]
            args = ", ".join(f"n[{x}]" for x in (gate.out, *gate.ins))
            lines.append(f"  {prim} g{idx}({args});")

    if regs:
        lines.append("  always @(posedge clk or posedge rst) begin")
        lines.append("    if (rst) begin")
        for gate in regs:
            lines.append(f"      n[{gate.out}] <= 1'b{gate.init};")
        lines.append("    end else begin")
        for gate in regs:
            lines.append(f"      n[{gate.out}] <= n[{gate.ins[0]}];")
        lines.append("    end")
        lines.append("  end")

    lines.append("endmodule")
    return "\n".join(lines) + "\n"


_RE_PORT = re.compile(r"^\s*(input|output)\s*(?:\[(\d+):0\])?\s*(\w+);\s*$")
_RE_ASSIGN_IN = re.compile(r"^\s*assign n\[(\d+)\] = (\w+)\[(\d+)\];\s*$")
_RE_ASSIGN_OUT = re.compile(r"^\s*assign (\w+)\[(\d+)\] = n\[(\d+)\];\s*$")
_RE_ASSIGN_CONST = re.compile(r"^\s*assign n\[(\d+)\] = 1'b([01]);\s*$")
_RE_ASSIGN_MUX = re.compile(
    r"^\s*assign n\[(\d+)\] = n\[(\d+)\] \? n\[(\d+)\] : n\[(\d+)\];\s*$"
)
_RE_PRIM = re.compile(r"^\s*(buf|not|and|or|nand|nor|xor|xnor)\s+g\d+\(([^)]*)\);\s*$")
_RE_DFF_RST = re.compile(r"^\s*n\[(\d+)\] <= 1'b([01]);\s*$")
_RE_DFF_CLK = re.compile(r"^\s*n\[(\d+)\] <= n\[(\d+)\];\s*$")
_RE_WIRES = re.compile(r"^\s*wire \[(\d+):0\] n;\s*$")


def from_verilog(text: str) -> Circuit:
    """Parse Verilog produced by :func:`to_verilog` back into a circuit.

    Only the exact subset emitted by :func:`to_verilog` is supported; this
    exists to make export round-trippable and testable, not to be a general
    Verilog front-end.
    """
    module = re.search(r"module\s+(\w+)\s*\(", text)
    circuit = Circuit(module.group(1) if module else "imported")

    in_ports: dict[str, int] = {}
    out_ports: dict[str, int] = {}
    num_nets = 0
    gates: list[tuple] = []  # deferred (kind, payload)
    dff_init: dict[int, int] = {}
    dff_d: dict[int, int] = {}
    input_bindings: dict[int, tuple[str, int]] = {}
    output_bindings: dict[str, dict[int, int]] = {}

    for line in text.splitlines():
        if m := _RE_WIRES.match(line):
            num_nets = int(m.group(1)) + 1
        elif m := _RE_PORT.match(line):
            direction, msb, name = m.groups()
            if name in ("clk", "rst"):
                continue
            width = int(msb) + 1 if msb else 1
            (in_ports if direction == "input" else out_ports)[name] = width
        elif m := _RE_ASSIGN_IN.match(line):
            net, name, bit = int(m.group(1)), m.group(2), int(m.group(3))
            input_bindings[net] = (name, bit)
        elif m := _RE_ASSIGN_OUT.match(line):
            name, bit, net = m.group(1), int(m.group(2)), int(m.group(3))
            output_bindings.setdefault(name, {})[bit] = net
        elif m := _RE_ASSIGN_CONST.match(line):
            gates.append(("const", int(m.group(1)), int(m.group(2))))
        elif m := _RE_ASSIGN_MUX.match(line):
            out, sel, d1, d0 = (int(x) for x in m.groups())
            gates.append(("mux", out, (sel, d0, d1)))
        elif m := _RE_PRIM.match(line):
            prim = m.group(1)
            nets = [int(x) for x in re.findall(r"n\[(\d+)\]", m.group(2))]
            gates.append(("prim", prim, nets[0], tuple(nets[1:])))
        elif m := _RE_DFF_RST.match(line):
            dff_init[int(m.group(1))] = int(m.group(2))
        elif m := _RE_DFF_CLK.match(line):
            dff_d[int(m.group(1))] = int(m.group(2))

    while circuit.num_nets < num_nets:
        circuit.new_net()

    # Primary input nets must be registered as INPUT gates in port order.
    for name, width in in_ports.items():
        nets = [0] * width
        for net, (pname, bit) in input_bindings.items():
            if pname == name:
                nets[bit] = net
        for i, net in enumerate(nets):
            circuit.add_gate(GateType.INPUT, out=net, tag=f"{name}[{i}]")
        circuit.inputs[name] = nets

    type_by_name = {v: k for k, v in _PRIMITIVES.items()}
    for entry in gates:
        if entry[0] == "const":
            _, out, value = entry
            circuit.add_gate(GateType.CONST1 if value else GateType.CONST0, out=out)
        elif entry[0] == "mux":
            _, out, ins = entry
            circuit.add_gate(GateType.MUX, ins, out=out)
        else:
            _, prim, out, ins = entry
            circuit.add_gate(type_by_name[prim], ins, out=out)

    for q, d in dff_d.items():
        circuit.add_gate(GateType.DFF, (d,), out=q, init=dff_init.get(q, 0))

    for name, width in out_ports.items():
        bits = output_bindings.get(name, {})
        circuit.set_output(name, [bits[i] for i in range(width)])

    circuit.validate()
    return circuit
