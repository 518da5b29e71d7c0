import ast
import math

import numpy as np
import pytest

from relsens import LimitState, evaluate, parse
from relsens.errors import EvalError, LsfSyntaxError, UnknownIdentifierError
from relsens.lsf import variables


# -- parsing -------------------------------------------------------------------

def test_parse_example_expression():
    tree = parse("ln(XR)+ln(R)-ln(XS)-ln(S)")
    assert variables(tree) == {"XR", "R", "XS", "S"}


def test_precedence_and_associativity():
    for text, same_as in [("1+2*3", "1+(2*3)"), ("1-2-3", "(1-2)-3"),
                          ("2^3^2", "2^(3^2)"), ("2^-1", "2^(-1)"),
                          ("2*-3^2", "2*(-(3^2))")]:
        assert ast.dump(parse(text)) == ast.dump(parse(same_as))
    # ^ binds tighter than unary minus
    assert ast.dump(parse("-2^2")) == ast.dump(parse("-(2^2)"))
    assert ast.dump(parse("-2^2")) != ast.dump(parse("(-2)^2"))


def test_syntax_error_carries_offset():
    # each ^ is parsed as Python's two-character **, and offsets still index
    # the expression as written
    for text, offset in [("1 + $", 4), ("2^3 4", 4), ("x^2^2 )", 6),
                         ("x + 2**3", 5), ("x^2 + 1/0", 6)]:
        with pytest.raises(LsfSyntaxError) as err:
            parse(text)
        assert err.value.offset == offset


_EX1 = ("R", "S", "XR", "XS")


@pytest.mark.parametrize("text, names, accepted", [
    ("ln(XR)+ln(R)-ln(XS)-ln(S)", _EX1, True),
    ("a*XR*R - XS*S", _EX1, True),
    ("1 - M1/(0.03*(1000*Y)) - (P/(0.19*(1000*Y)))^2", ("M1", "P", "Y"), True),
    ("--x + 2^-1 + abs(x) + sqrt(exp(x)) + max(x, 1)", ("x",), True),
    (".5 + 1. + 1.e5 + 2E+1 + 3e-2 + 00.5", (), True),
    ("1 +\n2", (), True),
    ("x\t+\r1", ("x",), True),
    ("min(x, y,)", ("x", "y"), True),
    ("ln(ln)", ("ln",), True),
    ("exp(exp) - min(min, max)", ("exp", "min", "max"), True),
    ("", (), False),
    ("   ", (), False),
    ("1 + $", (), False),
    ("é", (), False),
    ("1 # c", (), False),
    ("sin(x)", ("x",), False),
    ("x(1)", ("x",), False),
    ("min(x)", ("x",), False),
    ("ln(x, x)", ("x",), False),
    ("min(x, y=1)", ("x", "y"), False),
    ("min(*x)", ("x",), False),
    ("(1+2", (), False),
    ("2^3 4", (), False),
    ("x^2^2 )", ("x",), False),
    ("**", (), False),
    ("2**3", (), False),
    ("x // 2", ("x",), False),
    ("+x", ("x",), False),
    ("a.b", ("b",), False),
    ("x if y else z", ("x", "y", "z"), False),
    ("(x, y)", ("x", "y"), False),
    ("0x1F", (), False),
    ("1_0", (), False),
    ("1j", (), False),
    ("01", (), False),
    ("True*2", ("True",), False),
    ("lambda", ("lambda",), False),
    ("2*lambda", ("lambda",), False),
    ("not x", ("x",), False),
    ("x and y", ("x", "y"), False),
])
def test_accepted_and_rejected_expressions(text, names, accepted):
    if accepted:
        LimitState.from_expression(text, names)
    else:
        with pytest.raises(LsfSyntaxError):
            LimitState.from_expression(text, names)


@pytest.mark.parametrize("text, offset", [
    ("XR*R - XS*S + 0*10^400", 16),        # overflows to inf
    ("XR*R - XS*S + 1/0", 14),
    ("XR*R - (-8)^(1/3)*XS*S", 7),         # nan, not a complex number
    ("1/0*a", 0),
    ("(-1)^0.5*a", 0),
    ("x + ln(0)", 4),
    ("min(x, 1e400)", 7),
])
def test_non_finite_constant_part_is_a_syntax_error(text, offset):
    with pytest.raises(LsfSyntaxError, match="not finite") as err:
        parse(text)
    assert err.value.offset == offset


def test_expression_nesting_is_bounded():
    # evaluation recurses once per level, so a deeper tree is a syntax error
    # rather than a RecursionError at run time
    shallow = LimitState.from_expression("R" + "+1" * 400, ("R",))
    assert evaluate(shallow, np.ones((1, 1)))[0] == 401.0
    for text in ("R" + "+1" * 600, "-" * 10_000 + "R", "R" + "+1" * 100_000):
        with pytest.raises(LsfSyntaxError, match="nests too deeply"):
            parse(text)


def test_bind_rejects_undeclared_names():
    with pytest.raises(UnknownIdentifierError, match="s1"):
        LimitState.from_expression("1 - M1/(s1*Y)", ("M1", "Y"))


def test_design_symbol_detection():
    ls = LimitState.from_expression("a*XR*R - XS*S", ("R", "S", "XR", "XS"))
    assert ls.has_design_param
    ls2 = LimitState.from_expression("XR*R - XS*S", ("R", "S", "XR", "XS"))
    assert not ls2.has_design_param


# -- evaluation ------------------------------------------------------------------

def test_example1_safety_at_means(ex1_lsf):
    x = np.array([[100.0, 40.0, 1.0, 1.0]])
    assert evaluate(ex1_lsf, x)[0] == pytest.approx(math.log(2.5), rel=1e-12)


def test_example1_design_at_means(ex1_design_lsf):
    x = np.array([[100.0, 40.0, 1.0, 1.0]])
    assert evaluate(ex1_design_lsf, x, a=1.0)[0] == pytest.approx(60.0, rel=1e-12)


def test_example2_at_means(ex2_lsf):
    x = np.array([[250.0, 125.0, 2500.0, 40.0]])
    expect = 1 - 250 / 1200 - 125 / 600 - (2500 / 7600) ** 2
    assert evaluate(ex2_lsf, x)[0] == pytest.approx(expect, rel=1e-12)
    assert evaluate(ex2_lsf, x)[0] == pytest.approx(0.4751270, abs=1e-6)


def test_failure_event_equivalence(ex1_lsf):
    # g <= 0 exactly when XR*R <= XS*S
    rng = np.random.default_rng(11)
    x = np.exp(rng.normal(scale=1.0, size=(10_000, 4)) + np.log([100, 40, 1, 1]))
    g = evaluate(ex1_lsf, x)
    lhs = x[:, 2] * x[:, 0]
    rhs = x[:, 3] * x[:, 1]
    assert np.array_equal(g <= 0, lhs <= rhs)


def test_safety_lsf_monotone_in_load(ex1_lsf):
    base = np.array([[100.0, 40.0, 1.0, 1.0]])
    doubled = base.copy()
    doubled[0, 1] *= 2
    assert evaluate(ex1_lsf, doubled) < evaluate(ex1_lsf, base)


def test_design_param_arity_errors(ex1_lsf, ex1_design_lsf):
    x = np.array([[100.0, 40.0, 1.0, 1.0]])
    with pytest.raises(EvalError):
        evaluate(ex1_design_lsf, x)          # missing a
    with pytest.raises(EvalError):
        evaluate(ex1_lsf, x, a=1.0)          # spurious a


def test_domain_error_reports_inputs(ex1_lsf):
    x = np.array([[100.0, 40.0, 1.0, 1.0],
                  [100.0, -40.0, 1.0, 1.0]])
    with pytest.raises(EvalError, match="sample 1"):
        evaluate(ex1_lsf, x)


def test_batch_evaluation_matches_scalar(ex2_lsf):
    rng = np.random.default_rng(3)
    xs = np.column_stack([rng.normal(250, 75, 50), rng.normal(125, 37.5, 50),
                          rng.normal(2500, 500, 50), rng.uniform(30, 50, 50)])
    batch = evaluate(ex2_lsf, xs)
    single = [evaluate(ex2_lsf, row[None])[0] for row in xs]
    assert np.allclose(batch, single, rtol=0, atol=0)


def test_per_row_design_values_match_scalar_calls(ex1_design_lsf):
    rng = np.random.default_rng(4)
    xs = np.exp(rng.normal(0.0, 0.3, (40, 4))) * [100.0, 40.0, 1.0, 1.0]
    a = rng.uniform(0.5, 2.0, 40)
    batch = evaluate(ex1_design_lsf, xs, a)
    single = [evaluate(ex1_design_lsf, row[None], a_k)[0]
              for row, a_k in zip(xs, a)]
    assert batch.tolist() == single
    assert evaluate(ex1_design_lsf, xs[:1], a[:1])[0] == single[0]
    for wrong in (a[:39], np.append(a, 1.0), a.reshape(20, 2)):
        with pytest.raises(EvalError, match="design parameter a"):
            evaluate(ex1_design_lsf, xs, wrong)
