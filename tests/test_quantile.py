import numpy as np
from hypothesis import given, settings, strategies as st

from relsens.quantile import sorted_quantile


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
def test_sorted_quantile_is_np_quantile(v, q):
    got = sorted_quantile(np.sort(v), q)
    want = np.quantile(v, q)
    assert type(got) is float
    # bit for bit, but for the sign of a zero: where 0.0 and -0.0 tie,
    # which one an order statistic is follows how the sample was ordered
    assert _bits(got) == _bits(want) or got == want == 0.0
