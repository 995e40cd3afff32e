import hypothesis.strategies as st
from hypothesis import settings

from hookcounts.partitions import Partition
from hookcounts.series import Series

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@st.composite
def partitions(draw, max_part: int = 16, max_size: int = 12):
    parts = draw(st.lists(st.integers(1, max_part), max_size=max_size))
    return Partition.from_parts(parts)


@st.composite
def small_series(draw, order: int = 12, max_abs: int = 8):
    coeffs = draw(
        st.lists(
            st.integers(-max_abs, max_abs), min_size=order + 1, max_size=order + 1
        )
    )
    return Series(coeffs, order)


@st.composite
def unit_series(draw, order: int = 12, max_abs: int = 8):
    s = draw(small_series(order=order, max_abs=max_abs))
    lead = draw(st.sampled_from((1, -1)))
    return Series((lead,) + s.coeffs[1:], order)


@st.composite
def gappy_unit_series(draw, max_order: int = 40):
    """Constant term +1 or -1, then runs of zeros between unbounded integers."""
    order = draw(st.integers(0, max_order))
    coeffs = [draw(st.sampled_from((1, -1)))]
    while len(coeffs) <= order:
        coeffs += [0] * draw(st.integers(0, 6))
        coeffs.append(draw(st.integers()))
    return Series(coeffs, order)
