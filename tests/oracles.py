"""Oracles and constructors that only the tests use.

They are built from the library's ``Series`` ring (and, for the hand-typed
hook forms and the series chains, its t-regular series) or its ``Partition``
type alone (and, for the per-n and per-t hook tables, its walker and rim
masks, and for family membership, a ``Family`` record's rules), so a test
that compares them with a production builder checks the builder against an
independent derivation.
"""

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub
from typing import Callable, Iterator

from hookcounts.hookgf import _check_tk
from hookcounts.injections import Family
from hookcounts.partitions import (
    HookMultiset,
    Partition,
    boundary_masks,
    partitions_of,
)
from hookcounts.series import Series, divide_unit, t_regular_gf


def zero(order: int) -> Series:
    return Series((0,), order)


def one(order: int) -> Series:
    return Series((1,), order)


def monomial(exponent: int, order: int, coeff: int = 1) -> Series:
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    c = [0] * (order + 1)
    if exponent <= order:
        c[exponent] = coeff
    return Series(c, order)


def geometric(k: int, order: int) -> Series:
    """The series 1/(1 - q**k): coefficient 1 at every multiple of k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    c = [0] * (order + 1)
    for i in range(0, order + 1, k):
        c[i] = 1
    return Series(c, order)


def pochhammer_product(first: int, step: int, order: int) -> Series:
    """(1 - q^first)(1 - q^(first+step))... multiplied out factor by factor.

    O(order^2): the differential oracle for the pentagonal-number build of
    ``pochhammer_inf``.
    """
    if first < 1 or step < 1:
        raise ValueError("first and step must be at least 1")
    c = [1] + [0] * order
    for e in range(first, order + 1, step):
        for i in range(order, e - 1, -1):
            c[i] -= c[i - e]
    return Series(c, order)


def divide_unit_by_offsets(num: Series, den: Series) -> Series:
    """Exact division by a unit series, one interpreter step per divisor offset.

    The differential oracle for the grouped-offset ``divide_unit``: each
    quotient coefficient subtracts ``c * q[i - j]`` for every nonzero
    divisor term ``c q^j`` in range, then divides by the constant term.
    """
    n = min(num.order, den.order)
    d0 = den.coeffs[0]
    if d0 not in (1, -1):
        raise ValueError("divisor must have constant term 1 or -1")
    tail = [(j, c) for j, c in enumerate(den.coeffs[1 : n + 1], start=1) if c]
    q = [0] * (n + 1)
    for i in range(n + 1):
        acc = num.coeffs[i]
        for j, c in tail:
            if j > i:
                break
            acc -= c * q[i - j]
        q[i] = acc if d0 == 1 else -acc
    return Series(q, n)


def partitions_by_frames(
    n: int, part_filter: Callable[[int], bool] | None = None
) -> Iterator[Partition]:
    """Partitions of n with allowed parts, by an iterative frame-stack DFS.

    Each frame holds the weight left and the next candidate part, stepped
    down by one (asking the filter again) until it is allowed.  The
    differential oracle for the multiplicity-form walk of ``partitions_of``:
    same partitions, same descending-lex order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield Partition()
        return
    vals: list[int] = []
    mults: list[int] = []
    frames = [[n, n]]  # [remaining, next candidate part at this level]
    while frames:
        frame = frames[-1]
        v = frame[1]
        if part_filter is not None:
            while v >= 1 and not part_filter(v):
                v -= 1
        if v < 1:
            # level exhausted: drop the frame and the part that opened it
            frames.pop()
            if frames:
                if mults[-1] == 1:
                    vals.pop()
                    mults.pop()
                else:
                    mults[-1] -= 1
            continue
        frame[1] = v - 1
        if vals and vals[-1] == v:
            mults[-1] += 1
        else:
            vals.append(v)
            mults.append(1)
        remaining = frame[0] - v
        if remaining == 0:
            yield Partition(dict(zip(vals, mults)))
            if mults[-1] == 1:
                vals.pop()
                mults.pop()
            else:
                mults[-1] -= 1
        else:
            frames.append([remaining, min(v, remaining)])


def partitions_by_items_stack(
    n: int,
    part_filter: Callable[[int], bool] | None = None,
    ones: Callable[[int], bool] | None = None,
) -> Iterator[Partition]:
    """Partitions of n with allowed parts and 1-count, by one loop over a stack of items.

    One loop over (part, multiplicity) items of the parts >= 2 fills the
    weight left greedily, takes one copy off the last item and fills again
    from the values below it, one push, pop and bisect per leaf; the weight
    no part >= 2 fills is the 1-count, checked against a table before the
    partition is built.  The differential oracle for ``partitions_of``, whose
    fill ends in one loop over the copies of the smallest allowed value: same
    partitions, same descending-lex order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    values = [v for v in range(2, n + 1) if part_filter is None or part_filter(v)]
    one_ok = n >= 1 and (part_filter is None or part_filter(1))
    allowed = [(r == 0 or one_ok) and (ones is None or ones(r)) for r in range(n + 1)]
    idx: list[int] = []  # index into values of each item's part
    items: list[tuple[int, int]] = []
    rest, below = n, len(values)
    while True:
        i = bisect_right(values, rest, 0, below) - 1
        while i >= 0:
            v = values[i]
            m, rest = divmod(rest, v)
            idx.append(i)
            items.append((v, m))
            i = bisect_right(values, rest, 0, i) - 1
        if allowed[rest]:
            yield Partition(dict(items + [(1, rest)] if rest else items))
        if not idx:
            return
        below = idx.pop()
        v, m = items.pop()
        rest += v
        if m > 1:
            idx.append(below)
            items.append((v, m - 1))


def partitions_by_recursion(
    n: int, part_filter: Callable[[int], bool] | None = None
) -> Iterator[Partition]:
    """Partitions of n with allowed parts, by recursion over (part, multiplicity) pairs.

    Each level picks the largest allowed value that fits first, and for it
    the largest multiplicity first, then recurses on the weight left with
    smaller values only.  The differential oracle for the one-loop walk of
    ``partitions_of``: same partitions, same descending-lex order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    values = [v for v in range(1, n + 1) if part_filter is None or part_filter(v)]
    items: list[tuple[int, int]] = []

    def walk(rest: int, below: int) -> Iterator[Partition]:
        # complete items with parts from values[:below] summing to rest
        if rest == 0:
            yield Partition(dict(items))
            return
        for i in range(bisect_right(values, rest, 0, below) - 1, -1, -1):
            v = values[i]
            for m in range(rest // v, 0, -1):
                items.append((v, m))
                yield from walk(rest - m * v, i)
                items.pop()

    return walk(n, len(values))


def union(a: Partition, b: Partition) -> Partition:
    """Multiset union: multiplicities add.  The reference for ``Partition.trade``."""
    freq = dict(a.items())
    for p, m in b.items():
        freq[p] = freq.get(p, 0) + m
    return Partition(freq)


def with_part(p: Partition, x: int) -> Partition:
    """p with one more part x: x's multiplicity up by one, or (x, 1) in its place.

    The splice into every member that ``partitions_of``'s ``needs`` makes
    once per walk head; its reference.
    """
    items = p.items()
    i = 0
    while i < len(items) and items[i][0] > x:
        i += 1
    if i < len(items) and items[i][0] == x:
        items = (*items[:i], (x, items[i][1] + 1), *items[i + 1 :])
    else:
        items = (*items[:i], (x, 1), *items[i:])
    return Partition._from_sorted_items(items, p.weight + x)


def diff(a: Partition, b: Partition) -> Partition:
    """Multiset difference; every part of b must fit inside a."""
    freq = dict(a.items())
    for p, m in b.items():
        have = freq.get(p, 0)
        if have < m:
            raise ValueError(f"cannot remove {p}^{m} from {a}: only {have} available")
        if have == m:
            del freq[p]
        else:
            freq[p] = have - m
    return Partition(freq)


def conjugate_column_heights(p: Partition) -> list[int]:
    """Column heights of the diagram, i.e. the conjugate partition's parts."""
    heights = [0] * p.largest()
    for part, mult in p.items():
        for j in range(part):
            heights[j] += mult
    return heights


def hook_multiset_by_heights(p: Partition) -> HookMultiset:
    """Cells by hook length from row lengths and conjugate column heights, in O(cells).

    Hook of the cell in row i, column j = (row - j) + (heights[j] - i) - 1.
    The differential oracle for the boundary-mask ``hook_multiset``.
    """
    heights = conjugate_column_heights(p)
    counts: HookMultiset = {}
    for i, row in enumerate(p):
        for j in range(row):
            h = (row - j) + (heights[j] - i) - 1
            counts[h] = counts.get(h, 0) + 1
    return counts


def t_regular_partitions(n: int, t: int) -> Iterator[Partition]:
    """Yield the partitions of n with no part divisible by t."""
    if t < 2:
        raise ValueError("t must be at least 2")
    return partitions_of(n, lambda v: v % t != 0)


def btk_enum(t: int, k: int, n: int) -> int:
    """Cells of hook length k over all t-regular partitions of n, one rim per partition.

    The reference for ``btk_enum_table``'s entry (t, k, n), which the
    ``hooks count --method enum`` command reads.
    """
    _check_tk(t, k)
    if n < 0:
        raise ValueError("n must be nonnegative")
    masks = map(boundary_masks, t_regular_partitions(n, t))
    return sum((east & (north >> k)).bit_count() for east, north in masks)


def btk_enum_table_by_partitions(
    ts: tuple[int, ...], n_max: int, ks: tuple[int, ...]
) -> dict[int, dict[tuple[int, int], int]]:
    """Hook counts ``{t: {(k, n): count}}`` from one walk, each partition's rim read whole.

    Every partition of n_max into parts regular for some t in ts is mu + 1^r
    and files, under its kill mask (bit j when ts[j] divides a part), the
    contributions of mu + 1^r' for r' <= r: its k-hooks off column 1 by
    w = n_max - r, and its first-column hooks h as points by (h, w - h).
    It rebuilds its kill mask and rim masks from all of its items.  The
    differential oracle for ``btk_enum_table``, which reads each walk head's
    mask and rim once and derives those of its fill ends.
    """
    ts = tuple(dict.fromkeys(ts))
    if not ts:
        raise ValueError("need at least one t")
    ks = tuple(dict.fromkeys(ks))
    if not ks:
        raise ValueError("need at least one k")
    _check_tk(min(ts), min(ks))
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    size = n_max + 1
    reach = min(max(ks), n_max)  # no longer first-column hook is read
    rows = (1 << (reach + 1)) - 2  # bits 1..reach; bit 0 ends the top row of 1s
    kill = [0] * size  # by part value: bit j when ts[j] divides it
    for j, t in enumerate(ts):
        for v in range(t, size, t):
            kill[v] |= 1 << j
    full = (1 << len(ts)) - 1
    # by mask, one flat record: mu by w, then the k-hooks of mu off column 1 by
    # w for each k, then for h = 0..reach the mu with a first-column hook h by w - h
    outside = [(i + 1) * size for i in range(len(ks))]
    shifts = [(k + 1, at) for k, at in zip(ks, outside)]
    column = (len(ks) + 1) * size
    width = column + (reach + 1) * size
    records: defaultdict[int, list[int]] = defaultdict(lambda: [0] * width)
    for p in partitions_of(n_max, lambda v: kill[v] != full):
        items = p.items()
        mask = 0
        for v, _ in items:
            mask |= kill[v]
        if mask == full:
            continue
        record = records[mask]
        east, north = boundary_masks(p)
        r = items[-1][1] if items and items[-1][0] == 1 else 0
        w = n_max - r
        record[w] += 1
        east >>= 1  # step 0 runs under column 1
        for shift, at in shifts:
            record[at + w] += (east & (north >> shift)).bit_count()
        # north step r + h ends the row whose first cell has hook h in mu,
        # filed at column + h * size + w - h = base + h * n_max
        first = (north >> r) & rows
        base = column + w
        while first:
            h = first.bit_length() - 1
            record[base + h * n_max] += 1
            first ^= 1 << h
    every = [0] * width
    for record in records.values():
        every = list(map(add, every, record))
    tables = {}
    for j, t in enumerate(ts):
        total = every
        for mask, record in records.items():
            if mask >> j & 1:
                total = list(map(sub, total, record))
        mus = total[:size]
        table = {}
        for k, at in zip(ks, outside):
            shifted = list(accumulate(mus))  # at n - k: the step, then the points
            for h in range(2, min(k, reach) + 1):
                points = total[column + h * size : column + (h + 1) * size]
                shifted = list(map(add, shifted, points))
            for n, c in enumerate(accumulate(total[at : at + size])):
                table[k, n] = c + shifted[n - k] if n >= k else c
        tables[t] = table
    return tables


def btk_enum_table_for_one_t(
    t: int, n_max: int, ks: tuple[int, ...]
) -> dict[tuple[int, int], int]:
    """Hook counts for all (k, n) with k in ks and n <= n_max, one walk for this t.

    Each t-regular partition p of n_max is mu + 1^r, mu its parts >= 2 of
    weight w, and stands for mu + 1^r' at every n = w + r' <= n_max: its
    k-hooks off column 1 are filed as a constant from w on, and each
    first-column hook h of mu, lifted by r', as a point at w + k - h, with
    the new rows of 1s a unit step from w + k on.  The differential oracle
    for ``btk_enum_table``, which files the same contributions for every t
    of a set from one walk, under each partition's kill mask.
    """
    ks = tuple(dict.fromkeys(ks))
    if not ks:
        raise ValueError("need at least one k")
    _check_tk(t, min(ks))
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    reach = min(max(ks), n_max)  # no longer first-column hook is read
    rows = (1 << (reach + 1)) - 2  # bits 1..reach; bit 0 ends the top row of 1s
    outside = {k: [0] * (n_max + 1) for k in ks}  # by w: k-hooks of mu off column 1
    mus = [0] * (n_max + 1)  # by w: how many mu
    column = [[0] * (n_max + 1) for _ in range(reach + 1)]  # [h][w - h]: mu with an h_i = h
    for p in t_regular_partitions(n_max, t):
        east, north = boundary_masks(p)
        items = p.items()
        r = items[-1][1] if items and items[-1][0] == 1 else 0
        w = n_max - r
        mus[w] += 1
        east >>= 1  # step 0 runs under column 1
        for k in ks:
            outside[k][w] += (east & (north >> (k + 1))).bit_count()
        # north step r + h ends the row whose first cell has hook h in mu
        first = (north >> r) & rows
        while first:
            h = first.bit_length() - 1
            column[h][w - h] += 1
            first ^= 1 << h
    table = {}
    for k in ks:
        shifted = list(accumulate(mus))  # at n - k: the step, then the points
        for h in range(2, min(k, reach) + 1):
            shifted = [a + b for a, b in zip(shifted, column[h])]
        for n, c in enumerate(accumulate(outside[k])):
            table[k, n] = c + shifted[n - k] if n >= k else c
    return table


def btk_enum_table_by_walks(
    t: int, n_max: int, ks: tuple[int, ...]
) -> dict[tuple[int, int], int]:
    """Hook counts for all (k, n) with k in ks and n <= n_max, one walk per n.

    Each t-regular partition of each n costs its rim masks and a mask AND
    per distinct k.  The differential oracle for ``btk_enum_table``, which
    reads every n and every t of a set off one walk of the partitions of n_max.
    """
    ks = tuple(dict.fromkeys(ks))
    if not ks:
        raise ValueError("need at least one k")
    _check_tk(t, min(ks))
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    table = {(k, n): 0 for k in ks for n in range(n_max + 1)}
    for n in range(n_max + 1):
        for p in t_regular_partitions(n, t):
            east, north = boundary_masks(p)
            for k in ks:
                table[k, n] += (east & (north >> k)).bit_count()
    return table


def partition_gf(order: int) -> Series:
    """1/(q;q)_inf: coefficient of q^n is the number of partitions of n."""
    return divide_unit(one(order), pochhammer_product(1, 1, order))


def hook3_marker_by_runs(t: int, order: int) -> Series:
    """3-hook marker sum derived directly from the four diagram run patterns.

    A cell of hook length 3 sits either at the end of a row run (arm 2),
    inside or across a run boundary (arm 1, leg 1), or at the bottom of a
    column run (leg 2).  Summing the frequency conditions for each pattern
    over part values v not divisible by t gives this polynomial; multiplied
    by the t-regular product it counts 3-hooks for every t >= 2.  Kept as an
    independent route for cross-checking the derived 3-hook series.
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


# The paper's closed forms for the 1-, 2- and 3-hook series, typed in by
# hand; the statements under test against the derived ``btk_series``.


def bt1_form(t: int, order: int) -> Series:
    """T q/(1 - q) - T q^t/(1 - q^t), T the t-regular series."""
    T = t_regular_gf(t, order)
    return T.shift(1).times_geometric(1) - T.shift(t).times_geometric(t)


def bt2_form(t: int, order: int) -> Series:
    T = t_regular_gf(t, order)
    return (
        2 * T.shift(2).times_geometric(2)
        - T.shift(t).times_geometric(t)
        + (T.shift(2 * t - 1) - T.shift(2 * t) + T.shift(2 * t + 1)).times_geometric(2 * t)
    )


def bt3_four_term_form(t: int, order: int) -> Series:
    """The generic four-term 3-hook form: right for t >= 3, over-counts at t = 2."""
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


def bt3_t2_form(order: int) -> Series:
    """The corrected t = 2 3-hook form, telescoped from the run analysis.

    For t = 2 consecutive part values alternate parity, which removes two
    of the four run patterns behind the four-term form.
    """
    T = t_regular_gf(2, order)
    return (
        T.shift(3).times_geometric(2)
        - T.shift(4).times_geometric(4)
        + T.shift(6).times_geometric(4)
        + T.shift(3).times_geometric(6)
    )


def combination_by_whole_lists(t: int, table: dict[int, dict[int, int]], order: int) -> Series:
    """The series of a numerator table ``{m: {e: x}}``, T times sum_m (sum_e x q^e) / (1 - q^m).

    One whole list per row and pass, the first term seeding it: the
    differential reference for the block evaluator ``hookgf.blocks``.
    """
    T = t_regular_gf(t, order).coeffs
    total = None
    for m, row in table.items():
        terms = [(e, x) for e, x in row.items() if x and e <= order]
        if not terms:
            continue
        (e, x), *rest = terms
        acc = [0] * e
        acc += T[: order + 1 - e] if x == 1 else map(x.__mul__, T[: order + 1 - e])
        for e, x in rest:  # acc += x q^e T
            if x == 1:
                acc[e:] = map(add, acc[e:], T)
            elif x == -1:
                acc[e:] = map(sub, acc[e:], T)
            else:
                acc[e:] = map(add, acc[e:], map(x.__mul__, T))
        if m:  # acc /= 1 - q^m
            for i in range(m, order + 1):
                acc[i] += acc[i - m]
        total = acc if total is None else list(map(add, total, acc))
    return Series(total or (0,), order)


# The decomposition pieces and family counts as chains of ``Series`` ring
# operations over the parts-at-least-2 series; the differential reference
# for the numerator tables of ``hookgf``.


def parts_ge2_gf(t: int, order: int) -> Series:
    """Generating function of t-regular partitions with every part >= 2."""
    T = t_regular_gf(t, order)
    return T - T.shift(1)


def set_cardinality_chain(set_id: str, t: int, order: int) -> Series:
    """Counting series of the families O, R, S, A, B, C and, at t = 2, D1 and D2."""
    U = parts_ge2_gf(t, order)
    if set_id == "O":
        return U.shift(1).times_geometric(2)
    if set_id == "R":
        return t_regular_gf(t, order).shift(2 * t + 1).times_geometric(2 * t)
    if set_id == "S":
        return (U.shift(2) + U.shift(4)).times_geometric(6)
    if set_id == "A":
        return paper_a_chain(t, order) if t != 3 else U.shift(4).times_geometric(6)
    if set_id == "B":
        return (U.shift(2) + U.shift(5)).times_geometric(6)
    if set_id == "C":
        return U.shift(3).times_geometric(6)
    if set_id == "D1":
        return U.shift(4).times_geometric(12)
    if set_id == "D2":
        return U.shift(6).times_geometric(12)
    raise ValueError(f"unknown set id {set_id!r}")


def paper_a_chain(t: int, order: int) -> Series:
    """The paper's count of family A; at t = 3 it drops a part 3 that T lacks."""
    U = parts_ge2_gf(t, order)
    return (U - U.shift(3)).shift(2 * t - 2).times_geometric(2 * t)


def decomposition_chain(name: str, t: int, order: int) -> Series:
    """The pieces A..F of the 2-hook minus 1-hook and 2-hook minus 3-hook splits."""
    U = parts_ge2_gf(t, order)
    if name in ("A", "C"):
        return set_cardinality_chain("O" if name == "A" else "R", t, order)
    if name == "B":
        return U.shift(2 * t - 1).times_geometric(2 * t)
    if name == "D":
        return set_cardinality_chain("S", t, order) - paper_a_chain(t, order)
    if name == "E":
        return set_cardinality_chain("B", t, order) - set_cardinality_chain("C", t, order)
    if name == "F":
        v = U - U.shift(2)
        w = v + v.shift(3)
        return w.shift(3 * t - 3).times_geometric(3 * t)
    raise ValueError(f"unknown decomposition series {name!r}")


def t2_remainder_chain(order: int) -> Series:
    """(q^2 - q^3)(1 - q)(q^2;q^2)_inf / (q;q)_inf."""
    U = parts_ge2_gf(2, order)
    return U.shift(2) - U.shift(3)


def is_tau_case4_image_by_shape(p: Partition, t: int) -> bool:
    """Whether p is tau's image of an all-ones column, read off its shape.

    The image is 3, 2^m, 1^2 with m = 2 mod 3 for t >= 5, and 5, 2^m, 1^2
    with m = 1 mod 3 for t = 3, 4.
    """
    items = p.items()
    if len(items) != 3 or items[1][0] != 2 or items[2] != (1, 2):
        return False
    top, m = items[0], items[1][1]
    if t >= 5:
        return top == (3, 1) and m >= 2 and m % 3 == 2
    return top == (5, 1) and m >= 1 and m % 3 == 1


def contains_by_rules(family: Family, p: Partition, t: int) -> bool:
    """Family membership asked of the rules directly, one call per distinct part.

    The reference for ``Family.membership``, which tabulates the rules.
    """
    parts, ones, needs = family.predicates(t)
    return (
        all(parts(v) for v, _ in p.items())
        and ones(p.frequency(1))
        and (not needs or p.frequency(needs) >= 1)
    )


def contains(family: Family, p: Partition, t: int) -> bool:
    """Family membership through the family's one membership test, built at p's weight."""
    return family.membership(p.weight, t)(p)


@dataclass(frozen=True)
class SubsetLabel:
    """Classification of a partition inside one of the named families.

    ``index`` is the subset number where the family is subdivided (O: 1..5,
    R: 1..4, A and S: 1..3); ``None`` marks a family member outside the
    indexed subsets (possible for R and S, whose listed subsets do not cover
    the family) or a member of an undivided family.
    """

    family: str
    index: int | None


def label(family: Family, p: Partition, t: int) -> SubsetLabel | None:
    """The first subset of ``family`` that p falls in; None outside the family."""
    if not contains(family, p, t):
        return None
    ms = family.subsets(p, t)
    return SubsetLabel(family.name, ms[0] if ms else None)


def projection(family: Family, p: Partition, t: int) -> Partition:
    """p with only the parts ``family.reads`` names."""
    return Partition({v: m for v, m in p.items() if family.reads(v, t)})


# each family's part rule, 1-count rule and needed part (0: none) as plain
# predicates, written from the paper's definitions: the reference for the rules
# declared in ``hookgf.FAMILY_RULES`` (D1 and D2 at t = 2, where they are used)
FAMILY_PREDICATES: dict[str, tuple[Callable, Callable, Callable]] = {
    # t-regular with an odd number of 1s
    "O": (lambda v, t: v % t != 0, lambda f1, t: f1 % 2 == 1, lambda t: 0),
    # no part is a multiple of t other than 2t, and the part 2t+1 appears
    "R": (lambda v, t: v % t != 0 or v == 2 * t, lambda f1, t: True, lambda t: 2 * t + 1),
    # t-regular, no part 3, and the number of 1s is -2 mod 2t
    "A": (
        lambda v, t: v % t != 0 and v != 3,
        lambda f1, t: f1 % (2 * t) == 2 * t - 2,
        lambda t: 0,
    ),
    # t-regular with the number of 1s congruent to 2 or 4, 2 or 5, resp. 3 mod 6
    "S": (lambda v, t: v % t != 0, lambda f1, t: f1 % 6 in (2, 4), lambda t: 0),
    "B": (lambda v, t: v % t != 0, lambda f1, t: f1 % 6 in (2, 5), lambda t: 0),
    "C": (lambda v, t: v % t != 0, lambda f1, t: f1 % 6 == 3, lambda t: 0),
    # 2-regular, with the number of 1s 4 resp. 6 mod 12
    "D1": (lambda v, t: v % 2 != 0, lambda f1, t: f1 % 12 == 4, lambda t: 0),
    "D2": (lambda v, t: v % 2 != 0, lambda f1, t: f1 % 12 == 6, lambda t: 0),
}


def _one_mod_ks(p: Partition, t: int) -> list[int]:
    """All k >= 1 such that 2kt+1 appears as a part."""
    step = 2 * t
    return sorted((v - 1) // step for v, _ in p.items() if v > 1 and v % step == 1)


def o_subsets_by_passes(p: Partition, t: int) -> list[int]:
    """The O-subset of p, one pass over the items per condition.

    The reference for the one-scan ``injections._o_subsets``.
    """
    if _one_mod_ks(p, t):
        return [1]
    if p.largest() >= 8 * t * t + 1:
        return [2]
    if any(v >= 2 and m >= 6 * t + 1 for v, m in p.items()):
        return [3]
    return [4] if p.frequency(1) >= 12 * t + 3 else [5]


def r_subsets_by_passes(p: Partition, t: int) -> list[int]:
    """The R-subsets of p, each read by its own frequency lookups.

    The reference for the one-scan ``injections._r_subsets``.
    """
    if p.frequency(1) % 2 == 1:
        return [1]
    out = []
    ks = set(_one_mod_ks(p, t))
    f = p.frequency
    if f(4 * t + 1) + f(2 * t + 1) >= 2 and ks <= {1, 2}:
        out.append(2)
    if f(6 * t + 1) > 0 and ks <= {1, 3}:
        out.append(3)
    if f(8 * t + 1) > 0 and ks <= {1, 4}:
        out.append(4)
    return out
