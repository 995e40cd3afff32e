"""Truncated formal power series over arbitrary-precision integers.

All arithmetic is exact; there is no floating point anywhere.  Operations on
series of different truncation orders truncate to the smaller order, so
pipeline code composes.  Series are immutable and therefore safe to share
across threads and to cache.

The Euler products ``(q^s;q^s)_inf`` are written down term by term from
Euler's pentagonal number theorem, in O(order) time.  Only the t-regular
counting series :func:`t_regular_gf` is kept, one series per t that serves
every smaller order as a slice: its unit division makes
O(order * sqrt(order)) big-integer additions, gathered and summed in C a
group of divisor offsets at a time.  Everything built from it is
recomputed on each call by ``hookgf.coefficients``, a block at a
time, with O(order) additions per term and row of its table.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Sequence


class Series:
    """Coefficients of a power series up to and including q**order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[int], order: int | None = None):
        coeffs = tuple(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) < order + 1:
            coeffs = coeffs + (0,) * (order + 1 - len(coeffs))
        else:
            coeffs = coeffs[: order + 1]
        self.order = order
        self.coeffs = coeffs

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __neg__(self) -> "Series":
        return Series([-a for a in self.coeffs], self.order)

    def __rmul__(self, scalar: int) -> "Series":
        if not isinstance(scalar, int):
            return NotImplemented
        return Series([scalar * a for a in self.coeffs], self.order)

    def __mul__(self, other: "Series | int") -> "Series":
        if isinstance(other, int):
            return self.__rmul__(other)
        n = min(self.order, other.order)
        # Cauchy product; iterate over the operand with fewer nonzero terms.
        a, b = self, other
        na = sum(1 for c in a.coeffs[: n + 1] if c)
        nb = sum(1 for c in b.coeffs[: n + 1] if c)
        if na > nb:
            a, b = b, a
        out = [0] * (n + 1)
        bc = b.coeffs
        for i, ci in enumerate(a.coeffs[: n + 1]):
            if not ci:
                continue
            for j in range(0, n - i + 1):
                d = bc[j]
                if d:
                    out[i + j] += ci * d
        return Series(out, n)

    def __truediv__(self, other: "Series") -> "Series":
        return divide_unit(self, other)

    def shift(self, j: int) -> "Series":
        """Multiply by q**j (coefficients beyond the order are dropped)."""
        if j < 0:
            raise ValueError("shift must be nonnegative")
        return Series((0,) * j + self.coeffs[: self.order + 1 - j], self.order)

    def times_geometric(self, k: int) -> "Series":
        """Multiply by 1/(1 - q**k).

        Uses the telescoping recurrence c'[i] = c[i] + c'[i-k], which is the
        same multiplication in O(order) operations.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        out = list(self.coeffs)
        for i in range(k, self.order + 1):
            out[i] += out[i - k]
        return Series(out, self.order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*q^{i}" if i else str(c))
            if len(terms) == 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<Series order={self.order}: {body}>"


def pochhammer_inf(s: int, order: int) -> Series:
    """Truncation of the infinite product (1 - q^s)(1 - q^2s)(1 - q^3s)...

    By Euler's pentagonal number theorem the product is the sum over k of
    (-1)^k q^(s k(3k-1)/2), k running over all integers, so its
    O(sqrt(order)) nonzero terms are written down directly.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    c = [1] + [0] * order
    k, e = 1, s  # e = s k(3k-1)/2; its partner s k(3k+1)/2 is e + s k
    while e <= order:
        sign = -1 if k % 2 else 1
        c[e] += sign
        if e + s * k <= order:
            c[e + s * k] += sign
        e += s * (3 * k + 1)
        k += 1
    return Series(c, order)


def divide_unit(num: Series, den: Series) -> Series:
    """Exact division by a series with constant term +1 or -1.

    The divisor's nonzero tail offsets are grouped by coefficient (the Euler
    products have two groups, +1 and -1).  Each quotient coefficient then
    costs, per group, one ``itemgetter`` gather of the earlier quotient terms
    at those offsets and one ``sum``, both in C; a group's getter is rebuilt
    only when a new offset comes into range.  The work is still
    O(order * nnz(den)) big-integer additions, but the interpreter steps once
    per coefficient and group, not once per offset.
    """
    n = min(num.order, den.order)
    d0 = den.coeffs[0]
    if d0 not in (1, -1):
        raise ValueError("divisor must have constant term 1 or -1")
    # q[i] = d0 * (num[i] - sum_j den[j] q[i-j]), with d0 folded into both
    offsets: list[int] = []
    groups: dict[int, list[int]] = {}
    for j, c in enumerate(den.coeffs[1 : n + 1], start=1):
        if c:
            offsets.append(j)
            groups.setdefault(d0 * c, []).append(j)
    numc = num.coeffs if d0 == 1 else [-a for a in num.coeffs]
    # After a leading sentinel 0, q[-j] is the quotient term j places back,
    # and a getter over the sentinel and one offset still returns a tuple.
    q = [0]
    for lo, hi in zip([0] + offsets, offsets + [n + 1]):
        gets = [
            (c, itemgetter(0, *[-j for j in js if j <= lo]))
            for c, js in groups.items()
            if js[0] <= lo
        ]
        for i in range(lo, hi):
            acc = numc[i]
            for c, get in gets:
                acc -= c * sum(get(q))
            q.append(acc)
    return Series(q[1:], n)


def check_t(t: int) -> None:
    """Refuse a t below 2, the one rule on t of every series, table and family here."""
    if t < 2:
        raise ValueError("t must be at least 2")


# t -> the t-regular series at the largest order built for that t
_T_STORE: dict[int, Series] = {}


def t_regular_gf(t: int, order: int) -> Series:
    """(q^t;q^t)_inf / (q;q)_inf: coefficient of q^n counts t-regular partitions.

    Served from one stored series per t.  A truncated quotient is
    prefix-stable, so an order below the stored one is an exact slice of
    it, equal to a fresh build; the stored order returns the stored object.
    An order past it rebuilds at ``max(order, 2 * stored order)``, and the
    first request for a t builds at exactly its order.  Memory stays at one
    series per t, below twice the largest order asked.  The store takes no
    lock: concurrent callers may build the same series twice, and every
    result is still exact.
    """
    check_t(t)
    held = _T_STORE.get(t)
    if held is None or held.order < order:
        grown = order if held is None else max(order, 2 * held.order)
        held = divide_unit(pochhammer_inf(t, grown), pochhammer_inf(1, grown))
        _T_STORE[t] = held
    return held if held.order == order else Series(held.coeffs, order)


def csv_lines(coeffs: Iterable[int]) -> Iterator[str]:
    """Rows 'n,coefficient' with exact decimal integers, after a header, for a
    ``Series`` or any stream of coefficients from q^0 on."""
    yield "n,coefficient"
    for n, c in enumerate(coeffs):
        yield f"{n},{c}"
