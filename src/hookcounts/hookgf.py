"""Hook-count series for t-regular partitions, plus the enumeration oracle.

Two independent routes to the same numbers:

* :func:`btk_enum_table` counts cells by hook length on the diagrams'
  boundary paths.  It reads every n <= n_max and every t of a set off one
  walk of the partitions of n_max, each standing for its parts >= 2 with
  any fewer 1s and counting for each t that divides none of its parts.
  The walk yields heads (:func:`partition_heads`), each followed by a run
  of copies of the smallest allowed part and 1s: a head's mask and rim are
  read once, and each partition of its run costs a constant number of
  big-int operations besides its hook reads.
* :func:`btk_series` expands, in exact truncated arithmetic, a generating
  function derived for each (t, k) from the arm and leg of a diagram cell.

They deliberately share no code, so agreement of the two routes is a real
cross-check.  Every series here is a numerator table: T, the t-regular
series (the one stored build), times a sum of polynomials over 1 - q^m.
One evaluator, :func:`blocks`, yields a table's coefficients a block of
:data:`BLOCK` at a time, each row carrying its last m coefficients into
the next block, so a scan holds T and about one block per row; a
``Series`` is its blocks end to end.  The k-hook tables are derived on
each call, up to the order only, the family counts from the rules in
:data:`FAMILY_RULES` that ``injections`` walks; the pieces B and F are
typed by hand.  Piece A is family O's count, C is R's; D keeps the
paper's form of family A's count, which differs from the exact one at
t = 3.  Differences and sums :func:`merge` their tables first, so
cancelling terms cost nothing.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from operator import add, sub
from typing import Callable, Iterator, NamedTuple, Sequence

from .partitions import partition_heads
from .series import Series, check_t, t_regular_gf


def _check_tk(t: int, k: int) -> None:
    check_t(t)
    if k < 1:
        raise ValueError("k must be at least 1")


def btk_enum_table(
    ts: tuple[int, ...], n_max: int, ks: tuple[int, ...]
) -> dict[int, dict[tuple[int, int], int]]:
    """Hook counts ``{t: {(k, n): count}}`` for t in ts, k in ks and n <= n_max, from one walk.

    A t-regular partition p of n_max is mu + 1^r, mu its parts >= 2 of
    weight w = n_max - r, and it stands for mu + 1^r' at every n = w + r'
    with r' <= r: the part 1 is t-regular, so each t-regular partition of
    n <= n_max is read exactly once.  Adding r' rows of length 1 to mu
    keeps the hooks of the columns >= 2, adds one hook of each length
    1..r' in the new rows, and lifts mu's first-column hooks
    h_i = mu_i + (l(mu) - i) to h_i + r'.  So at n = w + r' the k-hooks of
    mu + 1^r' are the k-hooks of mu outside column 1 (read off mu's rim
    once), plus 1 when k <= r', plus one per h_i = k - r': over n, a
    constant from w on, a unit step from w + k on and a point at
    w + k - h_i for each h_i <= k.

    One walk serves every t: it keeps the parts regular for some t in ts,
    and a partition's kill mask, OR-ed from a table by part value, has bit
    j set when ts[j] divides one of its parts.  A partition whose mask is
    full is regular for no t and is skipped; the others file their
    contributions once, under their mask: the constants by w, the steps
    by w, the points by (h_i, w - h_i).  The table for t is the sum over
    the masks whose bit for t is clear, taken as the sum over all masks
    less the masks with that bit set, which are the fewer when ts is wide;
    it prefix-sums the constants and reads the steps and points at n - k.

    The walk is :func:`partition_heads`: a head's fill ends are its items
    above the smallest allowed part v, then c = 0, 1, ... copies of v and
    1s.  A head costs its kill mask, its rim and its row count, read off
    its items once; its fill ends share them.  Each c puts one more row
    of length v under mu, so mu's rim takes one more north step at v with
    the head's steps shifted up by one, and one more step in all, and the
    mask takes v's kill bits from c = 1 on.  A fill end costs that shift,
    a mask AND per distinct k and a step per first-column hook up to
    max(ks).  A repeated t or k is counted once; the tables come in the
    order ts first names each t.
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
    rows = (1 << (reach + 1)) - 2  # north steps 1..reach: first-column hooks of mu
    # by step count s: steps 1..s-1 of a rim; XOR with its north steps leaves
    # the east steps but step 0, which runs under column 1
    rim = [((1 << s) - 1) & -2 for s in range(size + 1)]
    kill = [0] * size  # by part value: bit j when ts[j] divides it
    for j, t in enumerate(ts):
        for v in range(t, size, t):
            kill[v] |= 1 << j
    full = (1 << len(ts)) - 1
    values = [v for v in range(2, size) if kill[v] != full]
    low = values[0] if values else 0
    # by mask, one flat record: mu by w, then the k-hooks of mu off column 1 by
    # w for each k, then for h = 0..reach the mu with a first-column hook h by w - h
    outside = [(i + 1) * size for i in range(len(ks))]
    shifts = list(zip(ks, outside))
    column = (len(ks) + 1) * size
    width = column + (reach + 1) * size
    records: defaultdict[int, list[int]] = defaultdict(lambda: [0] * width)
    for items, rest in partition_heads(n_max, values):
        mask = north = span = 0
        for v, m in reversed(items):  # the north steps of the rows of length v
            mask |= kill[v]
            north |= ((1 << m) - 1) << (v + span)
            span += m
        if mask == full:
            continue
        # an empty head's fill ends start at the empty mu, whose rim reads no hook
        span += items[0][0] if items else low
        w = n_max - rest
        record = records[mask]
        for c in range(rest // low + 1 if low else 1):
            if c:  # one more row of length low under mu
                if c == 1:
                    mask |= kill[low]
                    if mask == full:
                        break
                    record = records[mask]
                north = north << 1 | 1 << low
                span += 1
                w += low
            record[w] += 1
            east = rim[span] ^ north
            for shift, at in shifts:
                record[at + w] += (east & (north >> shift)).bit_count()
            # north step h ends the row whose first cell has hook h in mu,
            # filed at column + h * size + w - h = base + h * n_max
            first = north & rows
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


# {m: {e: x}} stands for T * sum_m (sum_e x q^e) / (1 - q^m), T = t_regular_gf(t);
# a row m = 0 divides by nothing
Table = dict[int, dict[int, int]]


def _hook_terms(t: int, k: int, order: int) -> Table:
    """The table of b(t,k), its terms cut at the order: every row has m = c t.

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
    terms: Table = {}
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
                    row = terms.setdefault(c * t, {})
                    row[c * v - d] = row.get(c * v - d, 0) + x
    return {m: {e: x for e, x in row.items() if x} for m, row in terms.items()}


def merge(*parts: tuple[int, Table]) -> Table:
    """The table of the sum of ``w * table`` over the ``(w, table)`` parts; cancelled terms read 0."""
    merged: Table = {}
    for w, table in parts:
        for m, row in table.items():
            into = merged.setdefault(m, {})
            for e, x in row.items():
                into[e] = into.get(e, 0) + w * x
    return merged


# coefficients per block of :func:`blocks`: a scan holds T and about one block
# per row, and a block is long enough that its slices and sums run in C
BLOCK = 4096


def blocks(t: int, table: Table, order: int) -> Iterator[list[int]]:
    """The coefficients 0..order of the series of ``table``, in lists of :data:`BLOCK`.

    The order is checked and T built on the call, so a bad t or order
    raises there; each block is computed by :func:`_block` as it is read.
    Zero terms, terms past the order and rows left empty are dropped, and
    T is not built for a table with no term left.  A row keeps its terms
    in exponent order, but for its seed: its first term with x = 1, whose
    slice of T is copied rather than multiplied, or else its lowest term.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    rows = []  # m, the lowest exponent, the seed, the other terms, the carried coefficients
    for m, row in table.items():
        terms = sorted([(e, x) for e, x in row.items() if x and e <= order])
        if not terms:
            continue
        # the seed is copied from T, not multiplied, if some term has x = 1
        for seed in terms:
            if seed[1] == 1:
                break
        else:
            seed = terms[0]
        rows.append((m, terms[0][0], seed, [term for term in terms if term is not seed], [0] * m))
    T = t_regular_gf(t, order).coeffs if rows else ()
    return (_block(T, rows, lo, min(lo + BLOCK, order + 1)) for lo in range(0, order + 1, BLOCK))


def _block(T: Sequence[int], rows: list, lo: int, hi: int) -> list[int]:
    """Coefficients lo..hi-1 of the series of ``rows``, the blocks before read.

    A row is 0 below its lowest term.  From there its block starts as its
    carried last m coefficients (0 before q^0), then zeros up to its seed
    and the seed's slice of T; each other term below hi adds its own
    slice.  Unless m = 0 the block is divided by 1 - q^m, each coefficient
    adding the one m before it, and its last m are carried on.  The first
    row's block becomes the total, each later one is added in.
    """
    total = None
    for m, start, (e, x), rest, carry in rows:
        if start >= hi:
            continue
        # acc[m + n - lo] is the row's coefficient of q^n
        acc = carry + [0] * (min(e, hi) - lo) if e > lo else carry[:]
        if e < hi:
            shifted = T[max(lo - e, 0) : hi - e]  # q^e T from q^max(e, lo) on
            acc += shifted if x == 1 else map(x.__mul__, shifted)
        for e, x in rest:  # acc += x q^e T
            if e >= hi:
                break
            at = m + max(e - lo, 0)
            shifted = T[max(lo - e, 0) : hi - e]
            if x == 1:
                acc[at:] = map(add, acc[at:], shifted)
            elif x == -1:
                acc[at:] = map(sub, acc[at:], shifted)
            else:
                acc[at:] = map(add, acc[at:], map(x.__mul__, shifted))
        if m:  # acc /= 1 - q^m
            for i in range(m, len(acc)):
                acc[i] += acc[i - m]
            carry[:] = acc[-m:]
            del acc[:m]
        total = acc if total is None else list(map(add, total, acc))
    return [0] * (hi - lo) if total is None else total


def _combination(t: int, table: Table, order: int) -> Series:
    """The series of ``table``: its :func:`blocks`, end to end."""
    coeffs: list[int] = []
    for block in blocks(t, table, order):
        coeffs += block
    return Series(coeffs, order)


def hook_table(t: int, k: int, order: int) -> Table:
    """The table of b(t,k), cut at the order: :func:`_hook_terms`, none when k > order."""
    _check_tk(t, k)
    if k > order:  # a partition of n has no hook longer than n
        return {}
    return _hook_terms(t, k, order)


def hook_difference_table(t: int, k: int, order: int) -> Table:
    """The table of b(t,2) - b(t,k), cut at the order; terms cancelling cost no pass."""
    return merge((1, hook_table(t, 2, order)), (-1, hook_table(t, k, order)))


def btk_series(t: int, k: int, order: int) -> Series:
    """Series whose q^n coefficient is the total number of k-hooks, for any k >= 1."""
    return _combination(t, hook_table(t, k, order), order)


def btk_gf(t: int, k: int, n: int) -> int:
    """Hook count read off the generating function."""
    _check_tk(t, k)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return btk_series(t, k, n)[n]


def diff_bt2_bt1(t: int, order: int) -> Series:
    return _combination(t, hook_difference_table(t, 1, order), order)


def diff_bt2_bt3(t: int, order: int) -> Series:
    return _combination(t, hook_difference_table(t, 3, order), order)


def _paper_a_table(t: int) -> Table:
    """(1 - q)(1 - q^3) q^(2t-2) / (1 - q^2t): the paper's count of family A.

    The factor 1 - q^3 drops the part 3, which T has only if t != 3.
    """
    s = 2 * t
    return {s: {s - 2: 1, s - 1: -1, s + 1: -1, s + 2: 1}}


class Rules(NamedTuple):
    """A family at one t: parts in ``allow``, or not multiples of t and not in ``forbid``;
    the 1-count in ``ones`` mod ``mod``; the part ``needs``, unless 0, at least once."""

    allow: tuple[int, ...] = ()
    forbid: tuple[int, ...] = ()
    ones: tuple[int, ...] = (0,)
    mod: int = 1
    needs: int = 0


def _at_t2(t: int, rules: Rules) -> Rules:
    """D1's or D2's rules: the paper's 2-regular families exist at t = 2 only."""
    if t != 2:
        raise ValueError("D1 and D2 are defined for t=2 only")
    return rules


# every partition family the injections use, declared once: its predicate, its
# walk (``injections.FAMILIES``) and its counting table (:func:`_family_table`)
# are all read off these rules
FAMILY_RULES: dict[str, Callable[[int], Rules]] = {
    "O": lambda t: Rules(ones=(1,), mod=2),
    "R": lambda t: Rules(allow=(2 * t,), needs=2 * t + 1),
    "A": lambda t: Rules(forbid=(3,), ones=(2 * t - 2,), mod=2 * t),
    "S": lambda t: Rules(ones=(2, 4), mod=6),
    "B": lambda t: Rules(ones=(2, 5), mod=6),
    "C": lambda t: Rules(ones=(3,), mod=6),
    "D1": lambda t: _at_t2(t, Rules(ones=(4,), mod=12)),
    "D2": lambda t: _at_t2(t, Rules(ones=(6,), mod=12)),
}


def _times(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two polynomials {exponent: coefficient}."""
    out: dict[int, int] = {}
    for e, x in a.items():
        for f, y in b.items():
            out[e + f] = out.get(e + f, 0) + x * y
    return out


def _family_table(set_id: str, t: int) -> Table:
    """The counting table of a family, derived from its :data:`FAMILY_RULES` at t.

    On T: a needed part x gives q^x, a forbidden x with t not dividing x
    (1 - q^x), an allowed multiple x of t the row m = x, and 1-counts r mod
    M > 1 (1 - q) sum q^r in the row m = M.  Rules needing two rows raise.
    """
    if set_id not in FAMILY_RULES:
        raise ValueError(f"unknown set id {set_id!r}")
    allow, forbid, ones, mod, needs = FAMILY_RULES[set_id](t)
    terms = {needs: 1}
    for x in forbid:
        if x % t:
            terms = _times(terms, {0: 1, x: -1})
    rows = list(allow)
    if mod > 1:
        terms = _times(_times(terms, {0: 1, 1: -1}), dict.fromkeys(ones, 1))
        rows.append(mod)
    if len(rows) > 1:
        raise ValueError(f"the rules of {set_id!r} need the rows {rows}, more than one")
    return {rows[0] if rows else 0: {e: x for e, x in terms.items() if x}}


# each decomposition piece's table at t: A is O's, C is R's, D = S - A and
# E = B - C, D subtracting the paper's form of family A's count at every t
PIECES: dict[str, Callable[[int], Table]] = {
    "A": lambda t: _family_table("O", t),
    # (1 - q) q^(2t-1) / (1 - q^2t)
    "B": lambda t: {2 * t: {2 * t - 1: 1, 2 * t: -1}},
    "C": lambda t: _family_table("R", t),
    "D": lambda t: merge((1, _family_table("S", t)), (-1, _paper_a_table(t))),
    "E": lambda t: merge((1, _family_table("B", t)), (-1, _family_table("C", t))),
    # (1 - q)(1 - q^2)(1 + q^3) q^(3t-3) / (1 - q^3t)
    "F": lambda t: {3 * t: dict(zip(range(3 * t - 3, 3 * t + 4), (1, -1, -1, 2, -1, -1, 1)))},
}


def piece_table(name: str, t: int) -> Table:
    """The table of the decomposition piece ``name`` at t, from :data:`PIECES`."""
    check_t(t)
    if name not in PIECES:
        raise ValueError(f"unknown decomposition series {name!r}")
    return PIECES[name](t)


def decomposition_series(name: str, t: int, order: int) -> Series:
    """The six named pieces of the 2-hook minus 1-hook and 2-hook minus 3-hook splits.

    A is the family O's count and C is R's; B has no set interpretation.
    D = S - A and E = B - C are differences of the counts of the families
    A, B, C (not the pieces), so their signs are those of the injections
    A -> S and C -> B; D takes the paper's form of A's count, which at t = 3
    is not A's count (see :func:`set_cardinality_series`).  -A + B + C is
    the 2-hook minus 1-hook difference for every t, and D + E + F the 2-hook
    minus 3-hook one for t >= 3; at t = 2 it matches the four-term 3-hook
    form, which over-counts 3-hooks (first at n = 6).
    """
    return _combination(t, piece_table(name, t), order)


def set_cardinality_series(set_id: str, t: int, order: int) -> Series:
    """Counting series of a partition family, read off its :data:`FAMILY_RULES`.

    Every series is exact: A's at t = 3 has no factor 1 - q^3 for a part 3
    that T lacks.  D1 and D2 exist at t = 2 only (their rules raise elsewhere).
    """
    check_t(t)
    return _combination(t, _family_table(set_id, t), order)


def t2_remainder_series(order: int) -> Series:
    """(q^2 - q^3)(1 - q)(q^2;q^2)_inf / (q;q)_inf.

    Nonnegativity of this series away from n in {3, 6} is the convexity
    input behind the t=2 sign analysis of E.
    """
    return _combination(2, {0: {2: 1, 3: -2, 4: 1}}, order)


def distinct_partition_count(n: int) -> int:
    """Q(n): partitions of n into distinct parts, via the 2-regular series."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return t_regular_gf(2, n)[n]
