"""Integer partitions as frequency multisets, their enumeration, and hook lengths.

A partition is stored as a map from part value to multiplicity, which is the
natural shape for the multiset algebra (union / difference) that the
injection machinery is built on.  Partitions are immutable and hashable.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable, Dict, Iterator, Mapping, Tuple

# hook length -> number of cells carrying it
HookMultiset = Dict[int, int]

_TOKEN = re.compile(r"^(\d+)(?:\^(\d+))?$")


class Partition:
    """An integer partition with parts kept in descending order.

    The canonical textual form writes multiplicities with a caret, e.g.
    ``"6,5^2,2^4,1^5"``; ``str()`` and :meth:`parse` round-trip it.
    """

    __slots__ = ("_items", "_weight")

    def __init__(self, freq: Mapping[int, int] | None = None):
        items = []
        if freq:
            for part, mult in freq.items():
                if not (isinstance(part, int) and part >= 1):
                    raise ValueError(f"part must be a positive integer, got {part!r}")
                if not (isinstance(mult, int) and mult >= 1):
                    raise ValueError(f"multiplicity must be a positive integer, got {mult!r}")
                items.append((part, mult))
        items.sort(reverse=True)
        self._items = tuple(items)
        self._weight = sum(p * m for p, m in items)

    @classmethod
    def _from_sorted_items(cls, items: Tuple[Tuple[int, int], ...], weight: int) -> "Partition":
        # Trusted fast path for the enumerators; items already descending.
        self = object.__new__(cls)
        self._items = items
        self._weight = weight
        return self

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls.from_parts(parts)

    @classmethod
    def from_parts(cls, parts) -> "Partition":
        freq: Dict[int, int] = {}
        for p in parts:
            freq[p] = freq.get(p, 0) + 1
        return cls(freq)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the canonical text form; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        freq: Dict[int, int] = {}
        previous = None
        for token in text.split(","):
            m = _TOKEN.match(token.strip())
            if m is None:
                raise ValueError(f"bad partition token {token!r}")
            part = int(m.group(1))
            mult = int(m.group(2)) if m.group(2) else 1
            if part < 1 or mult < 1:
                raise ValueError(f"bad partition token {token!r}")
            if previous is not None and part >= previous:
                raise ValueError(f"parts must be strictly descending, got {text!r}")
            if part in freq:
                raise ValueError(f"repeated part value in {text!r}")
            freq[part] = mult
            previous = part
        return cls(freq)

    @property
    def weight(self) -> int:
        return self._weight

    def items(self) -> Tuple[Tuple[int, int], ...]:
        """(part, multiplicity) pairs, descending by part value."""
        return self._items

    def parts(self) -> list[int]:
        """Parts expanded with multiplicity, descending."""
        out = []
        for part, mult in self._items:
            out.extend([part] * mult)
        return out

    def frequency(self, k: int) -> int:
        """Multiplicity of the part value k; 0 for any value not present."""
        for part, mult in self._items:
            if part == k:
                return mult
            if part < k:
                break
        return 0

    def length(self) -> int:
        """Number of parts."""
        return sum(m for _, m in self._items)

    def largest(self) -> int:
        """The largest part, 0 for the empty partition."""
        return self._items[0][0] if self._items else 0

    def union(self, other: "Partition") -> "Partition":
        """Multiset union: multiplicities add."""
        freq = {p: m for p, m in self._items}
        for p, m in other._items:
            freq[p] = freq.get(p, 0) + m
        items = tuple(sorted(freq.items(), reverse=True))
        return Partition._from_sorted_items(items, self._weight + other._weight)

    def diff(self, other: "Partition") -> "Partition":
        """Multiset difference; every part of ``other`` must fit inside self."""
        freq = {p: m for p, m in self._items}
        for p, m in other._items:
            have = freq.get(p, 0)
            if have < m:
                raise ValueError(
                    f"cannot remove {p}^{m} from {self}: only {have} available"
                )
            if have == m:
                del freq[p]
            else:
                freq[p] = have - m
        items = tuple(sorted(freq.items(), reverse=True))
        return Partition._from_sorted_items(items, self._weight - other._weight)

    def __iter__(self) -> Iterator[int]:
        for part, mult in self._items:
            for _ in range(mult):
                yield part

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __str__(self) -> str:
        return ",".join(
            f"{p}^{m}" if m > 1 else str(p) for p, m in self._items
        )

    def __repr__(self) -> str:
        return f"Partition.parse({str(self)!r})"


def partitions_of(n: int, part_filter: Callable[[int], bool] | None = None) -> Iterator[Partition]:
    """Yield the partitions of n whose parts all satisfy ``part_filter``.

    Order is descending lexicographic on the expanded part list, e.g. for
    n=4: (4), (3,1), (2,2), (2,1,1), (1,1,1,1), because the walk picks part
    values largest first and gives each the largest multiplicity first.  The
    order is stable and is relied on by golden tests.  n=0 yields exactly the
    empty partition.  ``part_filter`` is called once for each v from 1 to
    n, before the walk starts; the walk keeps (part, multiplicity) pairs, so it
    recurses at most one level deeper than the number of distinct parts.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # ascending, so bisect finds the largest allowed value that still fits
    values = [v for v in range(1, n + 1) if part_filter is None or part_filter(v)]
    items: list[Tuple[int, int]] = []

    def walk(rest: int, below: int) -> Iterator[Partition]:
        # complete items with parts from values[:below] summing to rest
        if rest == 0:
            yield Partition._from_sorted_items(tuple(items), n)
            return
        for i in range(bisect_right(values, rest, 0, below) - 1, -1, -1):
            v = values[i]
            for m in range(rest // v, 0, -1):
                items.append((v, m))
                yield from walk(rest - m * v, i)
                items.pop()

    return walk(n, len(values))


def t_regular_partitions(n: int, t: int) -> Iterator[Partition]:
    """Yield the partitions of n with no part divisible by t."""
    if t < 2:
        raise ValueError("t must be at least 2")
    return partitions_of(n, lambda v: v % t != 0)


def conjugate_column_heights(p: Partition) -> list[int]:
    """Column heights of the diagram, i.e. the conjugate partition's parts."""
    lam1 = p.largest()
    heights = [0] * lam1
    for part, mult in p.items():
        for j in range(part):
            heights[j] += mult
    return heights


def hook_multiset(p: Partition) -> HookMultiset:
    """Count diagram cells by hook length.

    Hook length of a cell = cells to its right + cells below it + 1; computed
    from row lengths and conjugate column heights in O(cells).
    """
    rows = p.parts()
    if not rows:
        return {}
    heights = conjugate_column_heights(p)
    counts: HookMultiset = {}
    for i, row in enumerate(rows):
        for j in range(row):
            h = (row - j) + (heights[j] - i) - 1
            counts[h] = counts.get(h, 0) + 1
    return counts
