"""Flat-text circuit format and an OpenQASM-2 subset reader.

Flat text: one gate per line, `KIND q<i> [q<j>] [param,...]`.  Blank lines
and `#` comments are ignored on input; output round-trips bit-exactly.
"""
from __future__ import annotations

import ast
import math
import operator
import re

from .circuit import Circuit, build_dag
from .gates import Gate, GateType

_KINDS = {t.value: t for t in GateType}


def circuit_to_text(c: Circuit) -> str:
    lines = [f"# width {c.width}"]
    for g in c.gates:
        parts = [g.kind.value] + [f"q{q}" for q in g.qubits]
        if g.params:
            parts.append(",".join(repr(p) for p in g.params))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    width = 0
    explicit_width = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"#\s*width\s+(\d+)", line)
            if m:
                explicit_width = int(m.group(1))
            continue
        try:
            g = _text_gate(line, len(gates))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        width = max(width, max(g.qubits) + 1)
        gates.append(g)
    if explicit_width is not None:
        width = max(width, explicit_width)
    return build_dag(gates, width)


def _text_gate(line: str, gid: int) -> Gate:
    tokens = line.split()
    kind = _KINDS.get(tokens[0])
    if kind is None:
        raise ValueError(f"unknown gate kind {tokens[0]!r}")
    qubits: list[int] = []
    params: tuple[float, ...] = ()
    for tok in tokens[1:]:
        if tok.startswith("q") and tok[1:].isdigit():
            qubits.append(int(tok[1:]))
        else:
            try:
                params = tuple(float(x) for x in tok.split(","))
            except ValueError:
                raise ValueError(f"bad parameter list {tok!r}") from None
    return Gate(id=gid, kind=kind, qubits=tuple(qubits), params=params)


_QASM_GATE = re.compile(
    r"^\s*(h|x|rx|rz|cx|rzz)\s*(?:\(([^)]*)\))?\s+([^;]+);", re.IGNORECASE
)
_QASM_MEASURE = re.compile(r"^\s*measure\s+(\S+?)\s*->\s*\S+\s*;", re.IGNORECASE)
_QASM_QREG = re.compile(r"^\s*qreg\s+(\w+)\s*\[(\d+)\]\s*;", re.IGNORECASE)
_QASM_IDX = re.compile(r"\w+\s*\[(\d+)\]")

_QASM_KINDS = {
    "h": GateType.H,
    "x": GateType.X,
    "rx": GateType.RX,
    "rz": GateType.RZ,
    "cx": GateType.CX,
    "rzz": GateType.RZZ,
}


_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _angle_value(node: ast.AST) -> int | float:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_angle_value(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](_angle_value(node.left), _angle_value(node.right))
    raise ValueError("only numbers, pi, unary +/- and + - * / are allowed")


def _eval_qasm_angle(expr: str) -> float:
    """Evaluate a QASM parameter: numbers, `pi`, unary +/-, and + - * /."""
    try:
        tree = ast.parse(expr.strip(), mode="eval")
        value = float(_angle_value(tree.body))
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError, RecursionError) as exc:
        raise ValueError(f"unsupported QASM parameter expression {expr!r}: {exc}") from None
    return value


def circuit_from_qasm(text: str) -> Circuit:
    """Read the supported OpenQASM-2 subset: h, x, rx, rz, cx, rzz, measure."""
    width = 0
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line or line.startswith(("OPENQASM", "include", "creg", "barrier")):
            continue
        m = _QASM_QREG.match(line)
        if m:
            width = max(width, int(m.group(2)))
            continue
        try:
            gates.append(_qasm_gate(line, len(gates)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    width = max(width, max((max(g.qubits) + 1 for g in gates), default=0))
    return build_dag(gates, width)


def _qasm_gate(line: str, gid: int) -> Gate:
    m = _QASM_MEASURE.match(line)
    if m:
        idx = _QASM_IDX.search(m.group(1))
        if not idx:
            raise ValueError("cannot parse measure target")
        return Gate(gid, GateType.MEASURE, (int(idx.group(1)),))
    m = _QASM_GATE.match(line)
    if m:
        name, args, operands = m.group(1).lower(), m.group(2), m.group(3)
        kind = _QASM_KINDS[name]
        qubits = tuple(int(x) for x in _QASM_IDX.findall(operands))
        params: tuple[float, ...] = ()
        if args:
            params = tuple(_eval_qasm_angle(a) for a in args.split(","))
        return Gate(gid, kind, qubits, params)
    raise ValueError(f"unsupported QASM statement {line!r}")
