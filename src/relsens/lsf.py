"""Limit-state functions: a small arithmetic expression language plus the
built-in model functions used by the worked examples.

Failure is the event {g <= 0}. Expressions may reference declared input
names and the reserved design symbol ``a``; names are case-sensitive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, LsfSyntaxError, UnknownIdentifierError

DESIGN_SYMBOL = "a"

FUNCTIONS_1 = ("ln", "exp", "sqrt", "abs")
FUNCTIONS_2 = ("min", "max")


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


# -- lexer -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LsfSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = "num" if m.group("num") else ("name" if m.group("name") else "op")
            tokens.append((kind, m.group(0), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# -- parser (precedence climbing; ^ right-assoc and tighter than unary -) ----

class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, off = self.next()
        if val != value:
            raise LsfSyntaxError(f"expected {value!r}, found {val or 'end of input'!r}", off)

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise LsfSyntaxError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] == "^":
            self.next()
            return BinOp("^", node, self.unary())
        return node

    def atom(self):
        kind, val, off = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            if self.peek()[1] == "(":
                return self.call(val, off)
            return Var(val)
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise LsfSyntaxError(f"expected a value, found {val or 'end of input'!r}", off)

    def call(self, name, off):
        if name not in FUNCTIONS_1 and name not in FUNCTIONS_2:
            raise LsfSyntaxError(f"unknown function {name!r}", off)
        self.expect("(")
        args = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        want = 1 if name in FUNCTIONS_1 else 2
        if len(args) != want:
            raise LsfSyntaxError(f"{name} takes {want} argument(s)", off)
        return Call(name, tuple(args))


def parse(text):
    """Parse expression text into an AST."""
    if not text or not text.strip():
        raise LsfSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def variables(node):
    """Set of variable names referenced by an AST."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.operand)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= variables(a)
        return out
    return set()


# -- evaluation ---------------------------------------------------------------

def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, BinOp):
        lv = _eval(node.left, env)
        rv = _eval(node.right, env)
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        if node.op == "*":
            return lv * rv
        if node.op == "/":
            return lv / rv
        return lv ** rv
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        if node.func == "ln":
            return np.log(args[0])
        if node.func == "exp":
            return np.exp(args[0])
        if node.func == "sqrt":
            return np.sqrt(args[0])
        if node.func == "abs":
            return np.abs(args[0])
        if node.func == "min":
            return np.minimum(args[0], args[1])
        return np.maximum(args[0], args[1])
    raise TypeError(f"not an AST node: {node!r}")


@dataclass(frozen=True)
class LimitState:
    """An evaluable g(x, a); failure is {g <= 0}."""

    source: str
    ast: object
    input_names: tuple
    has_design_param: bool

    @classmethod
    def from_expression(cls, text, input_names, source="expression"):
        ast = parse(text) if isinstance(text, str) else text
        names = tuple(input_names)
        used = variables(ast)
        unknown = used - set(names) - {DESIGN_SYMBOL}
        if unknown:
            raise UnknownIdentifierError(
                f"undeclared identifier(s) in expression: {sorted(unknown)}")
        if DESIGN_SYMBOL in names:
            raise UnknownIdentifierError(
                f"{DESIGN_SYMBOL!r} is reserved for the design parameter")
        return cls(source, ast, names, DESIGN_SYMBOL in used)


def evaluate(limit_state, x, a=None):
    """Evaluate g at one point (1-D x) or a batch (rows of a 2-D x).

    ``a`` must be given iff the limit state declares a design parameter.
    """
    if limit_state.has_design_param and a is None:
        raise EvalError("limit state requires the design parameter a")
    if not limit_state.has_design_param and a is not None:
        raise EvalError("limit state does not take a design parameter")
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != len(limit_state.input_names):
        raise EvalError(
            f"expected {len(limit_state.input_names)} inputs, got {x2.shape[1]}")
    env = {name: x2[:, i] for i, name in enumerate(limit_state.input_names)}
    if a is not None:
        env[DESIGN_SYMBOL] = float(a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.asarray(_eval(limit_state.ast, env), dtype=float)
    g = np.broadcast_to(g, (x2.shape[0],)).copy() if g.ndim == 0 else g
    bad = ~np.isfinite(g)
    if np.any(bad):
        i = int(np.argmax(bad))
        values = {name: float(x2[i, j])
                  for j, name in enumerate(limit_state.input_names)}
        raise EvalError(f"non-finite g at sample {i}; inputs {values}")
    return float(g[0]) if squeeze else g


# -- built-in limit states -----------------------------------------------------

_X2_S1 = 0.03    # plastic flexural modulus, m^3
_X2_S2 = 0.015   # plastic flexural modulus, m^3
_X2_A = 0.190    # cross-section area, m^2

_BUILTIN_EXPRESSIONS = {
    # resistance/load component model on log scale
    "example1_safety": ("ln(XR) + ln(R) - ln(XS) - ln(S)", ("R", "S", "XR", "XS")),
    # same component with a resistance-scaling design factor
    "example1_design": ("a*XR*R - XS*S", ("R", "S", "XR", "XS")),
    # short column under biaxial bending plus axial force.
    # Inputs carry their table units (M1, M2 in kNm; P in kN; Y in MPa);
    # Y is multiplied by 1000 inside so every term is in kN and m.
    "example2_column": (
        f"1 - M1/({_X2_S1}*(1000*Y)) - M2/({_X2_S2}*(1000*Y))"
        f" - (P/({_X2_A}*(1000*Y)))^2",
        ("M1", "M2", "P", "Y")),
}


def builtin(builtin_id):
    """A built-in LimitState by id."""
    try:
        text, names = _BUILTIN_EXPRESSIONS[builtin_id]
    except KeyError:
        raise EvalError(f"unknown builtin limit state {builtin_id!r}") from None
    return LimitState.from_expression(text, names, source=builtin_id)
