"""Hook-count series for t-regular partitions, plus the enumeration oracle.

Two independent routes to the same numbers:

* :func:`btk_enum` walks every t-regular partition of n and counts cells of
  the requested hook length directly on the diagram.
* The ``*_series`` builders expand the closed-form generating functions in
  exact truncated arithmetic.

They deliberately share no code beyond the Partition type, so agreement of
the two routes is a real cross-check.  Builders are pure functions of their
arguments.  Each is a few O(order) shifts of :func:`t_regular_gf`, which
memoizes the Euler products, so the builders themselves keep no cache.
"""

from __future__ import annotations

from .partitions import hook_multiset, t_regular_partitions
from .series import Series, t_regular_gf

DECOMPOSITION_NAMES = ("A", "B", "C", "D", "E", "F")
SET_IDS = ("S", "A", "B", "C", "D1", "D2")


def _check_tk(t: int, k: int) -> None:
    if t < 2:
        raise ValueError("t must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")


def btk_enum(t: int, k: int, n: int) -> int:
    """Ground-truth hook count: cells of hook length k over all t-regular partitions of n."""
    _check_tk(t, k)
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    for p in t_regular_partitions(n, t):
        total += hook_multiset(p).get(k, 0)
    return total


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


def _parts_ge2_gf(t: int, order: int) -> Series:
    """Generating function of t-regular partitions with every part >= 2."""
    T = t_regular_gf(t, order)
    return T - T.shift(1)


def bt1_series(t: int, order: int) -> Series:
    """Series whose q^n coefficient is the total number of 1-hooks."""
    _check_tk(t, 1)
    T = t_regular_gf(t, order)
    return T.shift(1).times_geometric(1) - T.shift(t).times_geometric(t)


def bt2_series(t: int, order: int) -> Series:
    """Series whose q^n coefficient is the total number of 2-hooks."""
    _check_tk(t, 1)
    T = t_regular_gf(t, order)
    return (
        2 * T.shift(2).times_geometric(2)
        - T.shift(t).times_geometric(t)
        + (T.shift(2 * t - 1) - T.shift(2 * t) + T.shift(2 * t + 1)).times_geometric(2 * t)
    )


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


def bt3_series(t: int, order: int) -> Series:
    """Series whose q^n coefficient is the total number of 3-hooks.

    For t = 2 consecutive part values alternate parity, which removes two of
    the four run patterns behind the generic closed form; the four-term form
    then over-counts (first at n = 6), so the t = 2 series is built from the
    telescoped run analysis instead.  Both branches agree with the
    enumeration oracle.
    """
    _check_tk(t, 1)
    if t != 2:
        return _bt3_four_term(t, order)
    T = t_regular_gf(2, order)
    return (
        T.shift(3).times_geometric(2)
        - T.shift(4).times_geometric(4)
        + T.shift(6).times_geometric(4)
        + T.shift(3).times_geometric(6)
    )


def btk_series(t: int, k: int, order: int) -> Series:
    if k == 1:
        return bt1_series(t, order)
    if k == 2:
        return bt2_series(t, order)
    if k == 3:
        return bt3_series(t, order)
    raise ValueError("generating functions are available for k in {1, 2, 3} only")


def btk_gf(t: int, k: int, n: int, order: int | None = None) -> int:
    """Hook count read off the generating function."""
    if order is None:
        order = n
    if order < n:
        raise ValueError("order must cover n")
    return btk_series(t, k, order)[n]


def diff_bt2_bt1(t: int, order: int) -> Series:
    return bt2_series(t, order) - bt1_series(t, order)


def diff_bt2_bt3(t: int, order: int) -> Series:
    return bt2_series(t, order) - bt3_series(t, order)


def decomposition_series(name: str, t: int, order: int) -> Series:
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
        return U.shift(1).times_geometric(2)
    if name == "B":
        return U.shift(2 * t - 1).times_geometric(2 * t)
    if name == "C":
        return T.shift(2 * t + 1).times_geometric(2 * t)
    if name == "D":
        return set_cardinality_series("S", t, order) - set_cardinality_series("A", t, order)
    if name == "E":
        return set_cardinality_series("B", t, order) - set_cardinality_series("C", t, order)
    if name == "F":
        v = U - U.shift(2)
        w = v + v.shift(3)
        return w.shift(3 * t - 3).times_geometric(3 * t)
    raise ValueError(f"unknown decomposition series {name!r}")


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


def t2_remainder_series(order: int) -> Series:
    """(q^2 - q^3)(1 - q)(q^2;q^2)_inf / (q;q)_inf.

    Nonnegativity of this series away from n in {3, 6} is the convexity
    input behind the t=2 sign analysis of E.
    """
    U = _parts_ge2_gf(2, order)
    return U.shift(2) - U.shift(3)


def distinct_partition_count(n: int) -> int:
    """Q(n): partitions of n into distinct parts, via the 2-regular series."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    order = 64
    while order < n:
        order *= 2
    return t_regular_gf(2, order)[n]
