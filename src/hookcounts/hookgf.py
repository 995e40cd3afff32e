"""Hook-count series for t-regular partitions, plus the enumeration oracle.

Two independent routes to the same numbers:

* :func:`btk_enum` walks every t-regular partition of n and counts cells of
  the requested hook length directly on the diagram.
* :func:`btk_series` expands, in exact truncated arithmetic, a generating
  function derived for each (t, k) from the arm and leg of a diagram cell.

They deliberately share no code beyond the Partition type, so agreement of
the two routes is a real cross-check.  Builders are pure functions of their
arguments.  Each makes a few O(order) passes over :func:`t_regular_gf`,
which memoizes the Euler products, so the builders themselves keep no
cache; :func:`btk_series` makes one pass per term of a table that it
derives again on each call, up to the order only, at a cost small next to
those passes.  The hook differences merge two such tables into one before
the passes, so terms that cancel between them cost nothing.
"""

from __future__ import annotations

from operator import add, sub

from .partitions import hook_multiset, t_regular_partitions
from .series import Series, t_regular_gf


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


def _hook_terms(t: int, k: int, order: int) -> dict[int, dict[int, int]]:
    """Terms {c: {e: coeff}}, e <= order, with b(t,k) = T * sum_c sum_e coeff q^e / (1 - q^(ct)).

    Read off the diagram: a cell of arm a in a row of length v has leg
    (r - 1) + N, where r is its row counted from the bottom among the rows
    of length v and N is the number of parts in [v - a, v - 1].  Its hook
    is k for exactly one r when N <= k - 1 - a and v has at least k - N - a
    rows.  Fixing the multiplicities of the window parts and summing the
    rows of length v, the generating function of those cells is
    T * q^((k-a) v - sum j m_j) * prod (1 - q^(v-j)) over the window parts
    v - j, with their multiplicities m_j summing to at most k - 1 - a; the
    factor 1 - q^v of T cancels.  Which window parts are t-regular depends
    only on v mod t, so each monomial q^(c v - d) summed over v > a in one
    class becomes q^(c v0 - d) / (1 - q^(ct)), v0 the smallest such v.
    Terms past the order are never derived: the window parts still to come
    lower c v - d by at most a per unit of multiplicity left, so a state
    whose lowest reachable exponent is past the order is dropped.
    """
    terms: dict[int, dict[int, int]] = {}
    for a in range(k):
        room = k - 1 - a
        for v in range(a + 1, a + 1 + t):
            if v % t == 0:
                continue
            window = [j for j in range(1, a + 1) if (v - j) % t]
            # (window parts so far, c, d) -> coefficient of q^(c v - d)
            states = {(0, k - a, 0): 1}
            for j in window:
                grown: dict[tuple[int, int, int], int] = {}
                for (n, c, d), x in states.items():
                    if c * v - d - a * (room - n) > order:
                        continue
                    for m in range(room - n + 1):
                        key = (n + m, c, d + j * m)
                        grown[key] = grown.get(key, 0) + x
                        key = (n + m, c + 1, d + j * (m + 1))
                        grown[key] = grown.get(key, 0) - x
                states = grown
            for (_, c, d), x in states.items():
                if c * v - d <= order:
                    row = terms.setdefault(c, {})
                    row[c * v - d] = row.get(c * v - d, 0) + x
    return {c: {e: x for e, x in row.items() if x} for c, row in terms.items()}


def _hook_combination(t: int, weights: dict[int, int], order: int) -> Series:
    """Series of sum_k w_k b(t,k) over ``weights`` {k: w_k}.

    The weighted term tables are merged first, so terms that cancel between
    them cost no pass.  Then one pass over T per term (x q^e T added into
    its row) and, per row c, one pass to divide by 1 - q^(ct) and one to
    add the row into the total.
    """
    merged: dict[int, dict[int, int]] = {}
    for k, w in weights.items():
        for c, row in _hook_terms(t, k, order).items():
            into = merged.setdefault(c, {})
            for e, x in row.items():
                into[e] = into.get(e, 0) + w * x
    T = t_regular_gf(t, order).coeffs
    total = [0] * (order + 1)
    for c, row in merged.items():
        row = {e: x for e, x in row.items() if x}
        if not row:
            continue
        acc = [0] * (order + 1)
        for e, x in row.items():  # acc += x q^e T
            if x == 1:
                acc[e:] = map(add, acc[e:], T)
            elif x == -1:
                acc[e:] = map(sub, acc[e:], T)
            else:
                acc[e:] = map(add, acc[e:], map(x.__mul__, T))
        step = c * t  # then acc /= 1 - q^step
        for i in range(step, order + 1):
            acc[i] += acc[i - step]
        total = list(map(add, total, acc))
    return Series(total, order)


def btk_series(t: int, k: int, order: int) -> Series:
    """Series whose q^n coefficient is the total number of k-hooks, for any k >= 1."""
    _check_tk(t, k)
    if k > order:  # a partition of n has no hook longer than n
        return Series((0,), order)
    return _hook_combination(t, {k: 1}, order)


def btk_gf(t: int, k: int, n: int) -> int:
    """Hook count read off the generating function."""
    _check_tk(t, k)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return btk_series(t, k, n)[n]


def diff_bt2_bt1(t: int, order: int) -> Series:
    return _hook_combination(t, {2: 1, 1: -1}, order)


def diff_bt2_bt3(t: int, order: int) -> Series:
    return _hook_combination(t, {2: 1, 3: -1}, order)


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
    latter matches the generic four-term 3-hook form, which over-counts
    3-hooks at t = 2 (first at n = 6), instead of true 3-hook counts.
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
