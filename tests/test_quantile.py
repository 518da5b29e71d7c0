import numpy as np
from hypothesis import given, settings, strategies as st

from relsens.quantile import linear_quantile


@st.composite
def samples(draw):
    """Finite 1-D samples of 2 to 5000 values at scales 1e-3 to 1e3, some
    rounded to a coarse step so that many values tie (0.0 with -0.0
    among them)."""
    n = draw(st.integers(2, 5000))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    v = np.random.default_rng(seed).standard_normal(n) * scale
    step = draw(st.sampled_from([None, 0.1, 1.0, 10.0]))
    if step is not None:
        v = np.round(v / (step * scale)) * (step * scale)
    return v


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(v=samples(),
       q=st.one_of(st.sampled_from([0.1, 0.05, 0.25, 0.5, 0.75]),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_linear_quantile_is_np_quantile_bit_for_bit(v, q):
    got = linear_quantile(v, q)
    assert type(got) is float
    assert _bits(got) == _bits(np.quantile(v, q))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(v=samples())
def test_linear_quantile_gives_np_percentile_quartiles(v):
    got = linear_quantile(v, [0.75, 0.25])
    assert got.shape == (2,)
    assert _bits(got) == _bits(np.percentile(v, [75.0, 25.0]))


def test_linear_quantile_leaves_its_input_alone():
    v = np.array([3.0, -1.0, 2.0, 0.0, -0.0, 5.0])
    before = v.copy()
    assert linear_quantile(v, 0.5) == 1.0
    assert _bits(v) == _bits(before)
