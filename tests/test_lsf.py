import math

import numpy as np
import pytest

from relsens import LimitState, builtin, evaluate, parse
from relsens.errors import EvalError, LsfSyntaxError, UnknownIdentifierError
from relsens.lsf import BinOp, Neg, Num, variables


# -- parsing -------------------------------------------------------------------

def test_parse_example_expression():
    ast = parse("ln(XR)+ln(R)-ln(XS)-ln(S)")
    assert variables(ast) == {"XR", "R", "XS", "S"}


def test_precedence_and_associativity():
    assert parse("1+2*3") == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Num(3.0)))
    assert parse("1-2-3") == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))
    assert parse("2^3^2") == BinOp("^", Num(2.0), BinOp("^", Num(3.0), Num(2.0)))
    # ^ binds tighter than unary minus
    assert parse("-2^2") == Neg(BinOp("^", Num(2.0), Num(2.0)))
    assert parse("2^-1") == BinOp("^", Num(2.0), Neg(Num(1.0)))


def test_syntax_error_carries_offset():
    with pytest.raises(LsfSyntaxError) as err:
        parse("1 + $")
    assert err.value.offset == 4
    with pytest.raises(LsfSyntaxError):
        parse("sin(x)")          # unknown function
    with pytest.raises(LsfSyntaxError):
        parse("min(x)")          # wrong arity
    with pytest.raises(LsfSyntaxError):
        parse("")


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


def test_builtin_unknown_id():
    with pytest.raises(EvalError):
        builtin("nope")
