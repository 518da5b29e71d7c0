"""Limit-state functions: a small arithmetic expression language.

Failure is the event {g <= 0}. An expression combines decimal literals
(``2``, ``0.5``, ``.5``, ``1e-3``), ASCII names and calls to ``ln``,
``exp``, ``sqrt``, ``abs`` (one argument) and ``min``, ``max`` (two) with
binary ``+ - * / ^`` and unary ``-``; ``^`` is right-associative and binds
tighter than unary ``-`` (``-2^2`` is ``-(2^2)``), and ``*``, ``/`` bind
tighter than ``+``, ``-``. Names are case-sensitive and refer to declared
inputs or the reserved design symbol ``a``; Python's reserved words
(``lambda``, ``if``, ``True``, ...) cannot name an input that an
expression uses. Text is parsed by Python's ``ast`` and admitted only when
every node is of the kinds above; constants are float64 and every
variable-free part must be finite.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (EvalError, LsfSyntaxError, NonFiniteGError,
                     UnknownIdentifierError)

DESIGN_SYMBOL = "a"

FUNCTIONS = {"ln": np.log, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs,
             "min": np.minimum, "max": np.maximum}
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: operator.pow, ast.USub: operator.neg}
_NODES = (ast.Name, ast.Load, ast.Constant, ast.Call, *_OPERATORS)
_EXPRESSIONS = (ast.BinOp, ast.UnaryOp, ast.Constant, ast.Call)
_CHARACTERS = re.compile(r"[A-Za-z0-9_.+\-*/^(),\s]*")
_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
# nodes on a path from the root, operator nodes included; _eval recurses
# once per level, and this leaves room below Python's recursion limit
_MAX_DEPTH = 500


def parse(text):
    """Parse expression text into a whitelisted ``ast`` expression node
    whose constants are float64."""
    if not text.strip():
        raise LsfSyntaxError("empty expression", 0)
    allowed = _CHARACTERS.match(text).end()
    if allowed < len(text):
        raise LsfSyntaxError(f"unexpected character {text[allowed]!r}", allowed)
    if "**" in text:
        raise LsfSyntaxError("unexpected '**'; write '^'", text.index("**"))
    # `^` becomes `**`; offset[i] is the user's offset of python_text[i]
    offset = [i for i, c in enumerate(text) for _ in range(1 + (c == "^"))]
    offset.append(len(text))
    python_text = re.sub(r"\s", " ", text).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(python_text, mode="eval").body
    except SyntaxError as exc:
        at = min(max((exc.offset or 1) - 1, 0), len(python_text))
        raise LsfSyntaxError(exc.msg, offset[at]) from None
    except (MemoryError, RecursionError):    # Python's parser ran out of stack
        raise LsfSyntaxError("expression nests too deeply", 0) from None
    # breadth first, as ast.walk, so every node comes before its descendants
    nodes, children, level = [], {}, [tree]
    for _ in range(_MAX_DEPTH):
        nodes += level
        for node in level:
            children[id(node)] = list(ast.iter_child_nodes(node))
        level = [child for node in level for child in children[id(node)]]
        if not level:
            break
    else:
        raise LsfSyntaxError("expression nests too deeply", 0)
    funcs = set()
    for node in nodes:
        at = offset[getattr(node, "col_offset", 0)]
        # a node with an operator (BinOp, UnaryOp, BoolOp) is judged by it,
        # as the operator node has no position of its own
        kind = type(getattr(node, "op", node))
        if kind not in _NODES:
            raise LsfSyntaxError(f"unsupported syntax ({kind.__name__})", at)
        if isinstance(node, ast.Constant):
            literal = python_text[node.col_offset:node.end_col_offset]
            if not _DECIMAL.fullmatch(literal):
                raise LsfSyntaxError(f"unsupported literal {literal!r}", at)
            node.value = np.float64(literal)
        if isinstance(node, ast.Call):
            func = getattr(node.func, "id", None)
            if func not in FUNCTIONS:
                raise LsfSyntaxError(
                    f"unknown function {ast.unparse(node.func)!r}", at)
            if len(node.args) != FUNCTIONS[func].nin:
                raise LsfSyntaxError(
                    f"{func} takes {FUNCTIONS[func].nin} argument(s)", at)
            funcs.add(id(node.func))
    constant = set()    # ids of the nodes that reference no variable
    with np.errstate(all="ignore"):
        for node in reversed(nodes):    # innermost first
            if ((isinstance(node, ast.Name) and id(node) not in funcs)
                    or any(id(c) not in constant for c in children[id(node)])):
                continue
            constant.add(id(node))
            if isinstance(node, _EXPRESSIONS) and not np.isfinite(
                    value := _eval(node, {})):
                start, end = offset[node.col_offset], offset[node.end_col_offset]
                raise LsfSyntaxError(
                    f"constant {text[start:end]!r} is not finite ({value})", start)
    return tree


def variables(node):
    """Set of variable names an expression node references."""
    funcs = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and id(n) not in funcs}


def _eval(node, env):
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        return _OPERATORS[type(node.op)](_eval(node.operand, env))
    if isinstance(node, ast.BinOp):
        return _OPERATORS[type(node.op)](_eval(node.left, env),
                                         _eval(node.right, env))
    return FUNCTIONS[node.func.id](*[_eval(a, env) for a in node.args])


@dataclass(frozen=True)
class LimitState:
    """An evaluable g(x, a); failure is {g <= 0}."""

    tree: ast.expr
    input_names: tuple
    has_design_param: bool

    @classmethod
    def from_expression(cls, text, input_names):
        tree = parse(text)
        names = tuple(input_names)
        used = variables(tree)
        unknown = used - set(names) - {DESIGN_SYMBOL}
        if unknown:
            raise UnknownIdentifierError(
                f"undeclared identifier(s) in expression: {sorted(unknown)}")
        if DESIGN_SYMBOL in names:
            raise UnknownIdentifierError(
                f"{DESIGN_SYMBOL!r} is reserved for the design parameter")
        return cls(tree, names, DESIGN_SYMBOL in used)


def evaluate(limit_state, x, a=None):
    """Evaluate g on a batch of points, the rows of a 2-D x; returns one
    value per row. A single point is passed as ``x[None]``.

    ``a`` must be given iff the limit state declares a design parameter:
    one value for every row, or a 1-D array with one value per row.
    """
    if limit_state.has_design_param and a is None:
        raise EvalError("limit state requires the design parameter a")
    if not limit_state.has_design_param and a is not None:
        raise EvalError("limit state does not take a design parameter")
    x = np.asarray(x, dtype=float)
    n_inputs = len(limit_state.input_names)
    if x.ndim != 2 or x.shape[1] != n_inputs:
        raise EvalError(
            f"expected rows of {n_inputs} inputs, got shape {x.shape}")
    env = {name: x[:, i] for i, name in enumerate(limit_state.input_names)}
    if a is not None:
        a = np.asarray(a, dtype=float)
        if a.ndim and a.shape != (x.shape[0],):
            raise EvalError(f"design parameter a: expected one value or "
                            f"{x.shape[0]} (one per row), got shape {a.shape}")
        env[DESIGN_SYMBOL] = a if a.ndim else float(a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.asarray(_eval(limit_state.tree, env), dtype=float)
    g = np.broadcast_to(g, (x.shape[0],)).copy() if g.ndim == 0 else g
    bad = ~np.isfinite(g)
    if np.any(bad):
        i = int(np.argmax(bad))
        values = {name: float(x[i, j])
                  for j, name in enumerate(limit_state.input_names)}
        raise NonFiniteGError(i, values)
    return g

