"""Hook-count series for t-regular partitions, plus the enumeration oracle.

Two independent routes to the same numbers:

* :func:`btk_enum` walks every t-regular partition of n and counts cells of
  the requested hook length directly on the diagram.
* The ``*_series`` builders expand the closed-form generating functions in
  exact truncated arithmetic.

They deliberately share no code beyond the Partition type, so agreement of
the two routes is a real cross-check.  Builders are pure functions of their
arguments and are memoized per (name, t, order); the caches are the
thread-safe functools ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import Partition, hook_multiset, t_regular_partitions
from .series import Series, t_regular_gf

ENUMERATION = "enumeration"
GENERATING_FUNCTION = "generating_function"

DECOMPOSITION_NAMES = ("A", "B", "C", "D", "E", "F")
SET_IDS = ("S", "A", "B", "C", "D1", "D2")


@dataclass(frozen=True)
class HookCount:
    """The number of cells of hook length k over all t-regular partitions of n."""

    t: int
    k: int
    n: int
    value: int
    method: str


@dataclass(frozen=True)
class NamedSeries:
    name: str
    t: int
    series: Series


def _check_tk(t: int, k: int) -> None:
    if t < 2:
        raise ValueError("t must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")


def btk_enum(t: int, k: int, n: int) -> HookCount:
    """Ground-truth hook count by exhaustive diagram enumeration."""
    _check_tk(t, k)
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    for p in t_regular_partitions(n, t):
        total += hook_multiset(p).get(k, 0)
    return HookCount(t, k, n, total, ENUMERATION)


def btk_enum_table(t: int, n_max: int, ks: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Hook counts for all (k, n) with k in ks and n <= n_max, one sweep per n."""
    _check_tk(t, min(ks))
    table = {(k, n): 0 for k in ks for n in range(n_max + 1)}
    for n in range(n_max + 1):
        for p in t_regular_partitions(n, t):
            counts = hook_multiset(p)
            for k in ks:
                c = counts.get(k, 0)
                if c:
                    table[(k, n)] += c
    return table


@lru_cache(maxsize=None)
def _parts_ge2_gf(t: int, order: int) -> Series:
    """Generating function of t-regular partitions with every part >= 2."""
    return t_regular_gf(t, order) - t_regular_gf(t, order).shift(1)


@lru_cache(maxsize=None)
def bt1_series(t: int, order: int) -> NamedSeries:
    """Series whose q^n coefficient is the total number of 1-hooks."""
    _check_tk(t, 1)
    T = t_regular_gf(t, order)
    s = T.shift(1).times_geometric(1) - T.shift(t).times_geometric(t)
    return NamedSeries("bt1", t, s)


@lru_cache(maxsize=None)
def bt2_series(t: int, order: int) -> NamedSeries:
    """Series whose q^n coefficient is the total number of 2-hooks."""
    _check_tk(t, 1)
    T = t_regular_gf(t, order)
    s = (
        2 * T.shift(2).times_geometric(2)
        - T.shift(t).times_geometric(t)
        + (T.shift(2 * t - 1) - T.shift(2 * t) + T.shift(2 * t + 1)).times_geometric(2 * t)
    )
    return NamedSeries("bt2", t, s)


def _bt3_four_term(t: int, order: int) -> Series:
    """The generic four-term closed form for the 3-hook series.

    Correct for t >= 3; for t = 2 it over-counts, see :func:`bt3_series`.
    """
    T = t_regular_gf(t, order)
    third = T.shift(2 * t - 2) - T.shift(2 * t) + T.shift(2 * t + 2)
    fourth = (
        T.shift(3 * t - 3)
        - T.shift(3 * t - 2)
        - T.shift(3 * t - 1)
        + 2 * T.shift(3 * t)
        - T.shift(3 * t + 1)
        - T.shift(3 * t + 2)
        + T.shift(3 * t + 3)
    )
    return (
        3 * T.shift(3).times_geometric(3)
        - T.shift(t).times_geometric(t)
        + third.times_geometric(2 * t)
        - fourth.times_geometric(3 * t)
    )


def _hook3_marker_by_runs(t: int, order: int) -> Series:
    """3-hook marker sum derived directly from the four diagram run patterns.

    A cell of hook length 3 sits either at the end of a row run (arm 2),
    inside or across a run boundary (arm 1, leg 1), or at the bottom of a
    column run (leg 2).  Summing the frequency conditions for each pattern
    over part values v not divisible by t gives this polynomial; multiplied
    by the t-regular product it counts 3-hooks for every t >= 2.  Kept as an
    independent route for cross-checking the telescoped closed forms.
    """
    c = [0] * (order + 1)

    def add(e: int, d: int = 1) -> None:
        if 0 <= e <= order:
            c[e] += d

    for v in range(1, order + 1):
        if v % t == 0:
            continue
        g1 = v - 1 >= 1 and (v - 1) % t != 0
        g2 = v - 2 >= 1 and (v - 2) % t != 0
        add(3 * v)
        if v >= 2:
            add(2 * v)
            if g1:
                add(3 * v - 1, -1)
                add(2 * v - 1)
                add(3 * v - 2, -1)
        if v >= 3:
            add(v)
            if g1:
                add(2 * v - 1, -1)
            if g2:
                add(2 * v - 2, -1)
            if g1 and g2:
                add(3 * v - 3)
    return Series(c, order)


@lru_cache(maxsize=None)
def bt3_series(t: int, order: int) -> NamedSeries:
    """Series whose q^n coefficient is the total number of 3-hooks.

    For t = 2 consecutive part values alternate parity, which removes two of
    the four run patterns behind the generic closed form; the four-term form
    then over-counts (first at n = 6), so the t = 2 series is built from the
    telescoped run analysis instead.  Both branches agree with the
    enumeration oracle.
    """
    _check_tk(t, 1)
    if t == 2:
        T = t_regular_gf(2, order)
        s = (
            T.shift(3).times_geometric(2)
            - T.shift(4).times_geometric(4)
            + T.shift(6).times_geometric(4)
            + T.shift(3).times_geometric(6)
        )
    else:
        s = _bt3_four_term(t, order)
    return NamedSeries("bt3", t, s)


def btk_series(t: int, k: int, order: int) -> NamedSeries:
    if k == 1:
        return bt1_series(t, order)
    if k == 2:
        return bt2_series(t, order)
    if k == 3:
        return bt3_series(t, order)
    raise ValueError("generating functions are available for k in {1, 2, 3} only")


def btk_gf(t: int, k: int, n: int, order: int | None = None) -> HookCount:
    """Hook count read off the generating function."""
    if order is None:
        order = n
    if order < n:
        raise ValueError("order must cover n")
    value = btk_series(t, k, order).series[n]
    return HookCount(t, k, n, value, GENERATING_FUNCTION)


@lru_cache(maxsize=None)
def diff_bt2_bt1(t: int, order: int) -> Series:
    return bt2_series(t, order).series - bt1_series(t, order).series


@lru_cache(maxsize=None)
def diff_bt2_bt3(t: int, order: int) -> Series:
    return bt2_series(t, order).series - bt3_series(t, order).series


@lru_cache(maxsize=None)
def decomposition_series(name: str, t: int, order: int) -> NamedSeries:
    """The six named pieces of the 2-hook minus 1-hook and 2-hook minus 3-hook splits.

    A counts t-regular partitions with an odd number of 1s; C counts
    partitions avoiding multiples of t other than 2t that contain the part
    2t+1.  B has no set interpretation and is exposed as a series only.
    D and E are differences of the family counting series of
    :func:`set_cardinality_series`, whose A, B, C name families, not the
    pieces here: D = S - A and E = B - C, so their sign statements are
    those of the injections A -> S and C -> B.
    -A + B + C equals the 2-hook minus 1-hook difference for every t, and
    D + E + F the 2-hook minus 3-hook difference for t >= 3; at t = 2 the
    latter matches the generic four-term 3-hook form instead of true
    3-hook counts (see :func:`bt3_series`).
    """
    _check_tk(t, 1)
    T = t_regular_gf(t, order)
    U = _parts_ge2_gf(t, order)
    if name == "A":
        s = U.shift(1).times_geometric(2)
    elif name == "B":
        s = U.shift(2 * t - 1).times_geometric(2 * t)
    elif name == "C":
        s = T.shift(2 * t + 1).times_geometric(2 * t)
    elif name == "D":
        s = set_cardinality_series("S", t, order) - set_cardinality_series("A", t, order)
    elif name == "E":
        s = set_cardinality_series("B", t, order) - set_cardinality_series("C", t, order)
    elif name == "F":
        v = U - U.shift(2)
        w = v + v.shift(3)
        s = w.shift(3 * t - 3).times_geometric(3 * t)
    else:
        raise ValueError(f"unknown decomposition series {name!r}")
    return NamedSeries(name, t, s)


@lru_cache(maxsize=None)
def set_cardinality_series(set_id: str, t: int, order: int) -> Series:
    """Counting series for the frequency-congruence partition families.

    S: t-regular, number of 1s congruent to 2 or 4 mod 6.
    A: t-regular, no part 3, number of 1s congruent to -2 mod 2t.
    B: t-regular, number of 1s congruent to 2 or 5 mod 6.
    C: t-regular, number of 1s congruent to 3 mod 6.
    D1/D2 (t=2 only): 2-regular, number of 1s congruent to 4 resp. 6 mod 12.

    The A series matches the predicate count only when t is not 3; for t=3
    the displayed product is still built but is no longer a counting series.
    """
    _check_tk(t, 1)
    if set_id in ("D1", "D2") and t != 2:
        raise ValueError("D1 and D2 are defined for t=2 only")
    U = _parts_ge2_gf(t, order)
    if set_id == "S":
        return (U.shift(2) + U.shift(4)).times_geometric(6)
    if set_id == "A":
        return (U - U.shift(3)).shift(2 * t - 2).times_geometric(2 * t)
    if set_id == "B":
        return (U.shift(2) + U.shift(5)).times_geometric(6)
    if set_id == "C":
        return U.shift(3).times_geometric(6)
    if set_id == "D1":
        return U.shift(4).times_geometric(12)
    if set_id == "D2":
        return U.shift(6).times_geometric(12)
    raise ValueError(f"unknown set id {set_id!r}")


@lru_cache(maxsize=None)
def t2_remainder_series(order: int) -> Series:
    """(q^2 - q^3)(1 - q)(q^2;q^2)_inf / (q;q)_inf.

    Nonnegativity of this series away from n in {3, 6} is the convexity
    input behind the t=2 sign analysis of E.
    """
    U = _parts_ge2_gf(2, order)
    return U.shift(2) - U.shift(3)


@lru_cache(maxsize=None)
def _distinct_count_table(order: int) -> Series:
    return t_regular_gf(2, order)


def distinct_partition_count(n: int) -> int:
    """Q(n): partitions of n into distinct parts, via the 2-regular series."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    order = 64
    while order < n:
        order *= 2
    return _distinct_count_table(order)[n]
