"""Integer partitions as frequency multisets, their enumeration, and hook lengths.

A partition is stored as a map from part value to multiplicity, which is the
natural shape for the part trades (:meth:`Partition.trade`) that the
injection maps are written in.  Partitions are immutable and hashable.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable, Dict, Iterable, Iterator, Mapping, Tuple

# hook length -> number of cells carrying it
HookMultiset = Dict[int, int]

_TOKEN = re.compile(r"^([0-9]+)(?:\^([0-9]+))?$")  # ASCII digits only


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
                # bool is an int subclass, but True would print as "True"
                if isinstance(part, bool) or not (isinstance(part, int) and part >= 1):
                    raise ValueError(f"part must be a positive integer, got {part!r}")
                if isinstance(mult, bool) or not (isinstance(mult, int) and mult >= 1):
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
    def from_parts(cls, parts) -> "Partition":
        freq: Dict[int, int] = {}
        for p in parts:
            freq[p] = freq.get(p, 0) + 1
        return cls(freq)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the canonical text form, parts strictly descending; "" is the empty partition."""
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
            freq[part] = mult
            previous = part
        return cls(freq)

    @property
    def weight(self) -> int:
        return self._weight

    def items(self) -> Tuple[Tuple[int, int], ...]:
        """(part, multiplicity) pairs, descending by part value."""
        return self._items

    def frequency(self, k: int) -> int:
        """Multiplicity of the part value k; 0 for any value not present.

        The scan starts at the end of the items nearer k, picked by comparing
        k with the middle item's part.  A k of at most 2, like the 1- and
        2-counts the injections read most, sits among the last two items, so
        it is read from the smallest part without that comparison.
        """
        items = self._items
        if k > 2 and items and k > items[len(items) >> 1][0]:
            for part, mult in items:
                if part <= k:
                    return mult if part == k else 0
        else:
            for part, mult in reversed(items):
                if part >= k:
                    return mult if part == k else 0
        return 0

    def length(self) -> int:
        """Number of parts."""
        return sum(m for _, m in self._items)

    def largest(self) -> int:
        """The largest part, 0 for the empty partition."""
        return self._items[0][0] if self._items else 0

    def trade(self, removed: Iterable[int], added: Iterable[int]) -> "Partition":
        """Take the parts ``removed`` out and put the parts ``added`` in.

        Both are iterables of parts, each repeat counted as one more copy;
        removing a part that has no copy left raises ValueError.
        """
        freq = dict(self._items)
        weight = self._weight
        for p in removed:
            have = freq.get(p, 0)
            if not have:
                raise ValueError(f"cannot remove {p} from {self}: no copy left")
            if have == 1:
                del freq[p]
            else:
                freq[p] = have - 1
            weight -= p
        for p in added:
            freq[p] = freq.get(p, 0) + 1
            weight += p
        return Partition._from_sorted_items(tuple(sorted(freq.items(), reverse=True)), weight)

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


def partition_heads(n: int, values: list[int]) -> Iterator[Tuple[list[Tuple[int, int]], int]]:
    """Yield the heads of the partitions of n into 1s and the parts ``values``.

    ``values`` are the allowed parts >= 2, ascending; low is the first.  A
    head is the items (part, multiplicity), descending, of the parts above
    low, and the weight ``rest`` they leave.  It stands for its fill ends:
    the head, m copies of low and rest - m low 1s, for m from rest // low
    down to 0, which is the order of :func:`partitions_of`.  The walk
    yields its own items list and keeps changing it: a consumer copies
    what it keeps.  One loop over the items fills the weight left greedily
    with the largest value above low that fits, then takes one copy off
    the last item and fills again from the values below it.
    """
    idx: list[int] = []  # index into values of each item's part
    items: list[Tuple[int, int]] = []
    rest, below = n, len(values)
    while True:
        i = bisect_right(values, rest, 0, below) - 1
        while i > 0:
            v = values[i]
            m, rest = divmod(rest, v)
            idx.append(i)
            items.append((v, m))
            i = bisect_right(values, rest, 0, i) - 1
        yield items, rest
        if not idx:
            return
        below = idx.pop()
        v, m = items.pop()
        rest += v
        if m > 1:
            idx.append(below)
            items.append((v, m - 1))


def partitions_of(
    n: int,
    part_filter: Callable[[int], bool] | None = None,
    ones: Callable[[int], bool] | None = None,
    needs: int = 0,
) -> Iterator[Partition]:
    """Yield the partitions of n whose parts satisfy ``part_filter`` and 1-count ``ones``.

    ``None`` allows any part, resp. any number of 1s.  Order is descending
    lexicographic on the expanded part list, e.g. for n=4: (4), (3,1),
    (2,2), (2,1,1), (1,1,1,1); golden tests rely on it.  n=0 yields exactly
    the empty partition if ``ones(0)`` holds.  A ``needs`` part x >= 2,
    which ``part_filter`` must allow, is held at least once: the partitions
    of n - x, in their order, with one more x each, so an n below x yields
    nothing.  ``part_filter`` is called once for each v from 1 to n - x
    (and on x) and ``ones`` once for each r from 0 to n - x, before the walk.

    The partitions are the fill ends of :func:`partition_heads`: a head
    with weight rest left ends in m copies of the smallest allowed value
    v >= 2 and rest - m v 1s, m from as many as fit down to none.  The
    allowed 1-counts are listed once per residue mod v, so a head reads
    the list of rest's residue up to rest and builds only the fill ends
    whose 1-count is allowed, and none at all if there is no such end.
    x is spliced into each head once, or, when it is v, every fill end
    holds one more copy of v.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if needs and (needs < 2 or not (part_filter is None or part_filter(needs))):
        raise ValueError(f"the needed part must be an allowed part >= 2, got {needs}")
    w = n - needs  # the weight the heads are walked at
    if w < 0:
        return iter(())
    # ascending, as partition_heads reads them
    values = [v for v in range(2, w + 1) if part_filter is None or part_filter(v)]
    one_ok = w >= 1 and (part_filter is None or part_filter(1))
    low = values[0] if values else 0
    step = low or w + 1  # with no value >= 2 a head's one fill end has rest 1s
    # by rest mod step, ascending: the allowed 1-counts of the fill ends of a head
    # are those in rest's class up to rest, one per number of copies of low
    counts = [
        [r for r in range(c, w + 1, step) if (r == 0 or one_ok) and (ones is None or ones(r))]
        for c in range(step)
    ]
    extra = int(needs == low > 0)  # the needed part is low: one more copy in every fill end

    def walk() -> Iterator[Partition]:
        for items, rest in partition_heads(w, values):
            rs = counts[rest % step]
            if not rs or rs[0] > rest:
                continue
            if needs > low:  # once per head: one more copy of x among the head's parts
                freq = dict(items)
                freq[needs] = freq.get(needs, 0) + 1
                head = tuple(sorted(freq.items(), reverse=True))
            else:
                head = tuple(items)
            for r in rs:
                if r > rest:
                    break
                m = (rest - r) // step + extra
                if m:
                    end = head + ((low, m), (1, r)) if r else head + ((low, m),)
                else:
                    end = head + ((1, r),) if r else head
                yield Partition._from_sorted_items(end, n)

    return walk()


def boundary_masks(p: Partition) -> Tuple[int, int]:
    """The rim of the diagram, walked from bottom-left to top-right, as ``(east, north)``.

    Bit s of ``east`` (``north``) is set if step s runs under a column (up a
    row end).  A cell's hook joins the east step under its column to the north
    step at its row's end: ``(east & (north >> k)).bit_count()`` cells have hook k.
    """
    north = rows = v = 0
    for v, m in reversed(p.items()):  # the north steps of the rows of length v
        north |= ((1 << m) - 1) << (v + rows)
        rows += m
    # v is now the largest part: the walk has v + rows steps, the rest east
    return ((1 << (v + rows)) - 1) ^ north, north


def hook_multiset(p: Partition) -> HookMultiset:
    """Count diagram cells by hook length, from the boundary masks."""
    east, north = boundary_masks(p)
    counts = {k: (east & (north >> k)).bit_count() for k in range(1, north.bit_length())}
    return {k: c for k, c in counts.items() if c}
