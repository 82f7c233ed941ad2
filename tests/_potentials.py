"""The ``Potential1D`` evaluator contract, as a strategy and an assertion
shared by the potential tests: ``stacked_derivative(total, column)`` binds
buffers once, and every call on a prefix of the stack returns the bits of
``derivative`` on that prefix."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays


@st.composite
def stacked_calls(draw, special, lo=-30.0, hi=30.0):
    """``(total, column, [z[:n], ...])``: one binding's calls, on prefixes
    that only shrink, over coordinates in ``[lo, hi]`` that include the
    values of ``special`` exactly."""
    total = draw(st.integers(1, 256))
    column = draw(st.booleans())
    z = draw(arrays(np.float64, total, elements=st.one_of(
        st.sampled_from(special),
        st.floats(lo, hi, allow_nan=False, allow_subnormal=False))))
    sizes = [total] + sorted(
        draw(st.lists(st.integers(1, total), max_size=4)), reverse=True)
    # Alternate two stacks, so no call can lean on the previous one's z.
    stacks = [z, z[::-1].copy()]
    return total, column, [stacks[i % 2][:n] for i, n in enumerate(sizes)]


def assert_evaluator_is_derivative(potential, total, column, prefixes):
    """``evaluate(z)`` is ``derivative(z)`` — or, bound for a column,
    ``derivative(z[:, None])[:, 0]`` — bit for bit on every prefix."""
    evaluate = potential.stacked_derivative(total, column)
    for z in prefixes:
        want = (potential.derivative(z[:, None])[:, 0] if column
                else potential.derivative(z))
        got = evaluate(z)
        assert got.shape == want.shape == z.shape
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))
