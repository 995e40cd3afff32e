import random
import re

import pytest
from hypothesis import given

from conftest import partitions
from hookcounts.injections import FAMILIES
from hookcounts.partitions import (
    Partition,
    hook_multiset,
    partition_heads,
    partitions_of,
)
from hookcounts.series import t_regular_gf
from oracles import (
    diff,
    hook_multiset_by_heights,
    partition_gf,
    partitions_by_frames,
    partitions_by_items_stack,
    partitions_by_recursion,
    t_regular_partitions,
    union,
)

P = Partition.parse


class TestTextForm:
    def test_round_trip_examples(self):
        for text in ("6,5^2,2^4,1^5", "5,3^2,1^3", "1", "", "17,15,13,10,7,5,3,2,1^3"):
            assert str(P(text)) == text

    def test_parse_expands_multiplicities(self):
        assert list(P("3^2,1")) == [3, 3, 1]

    @pytest.mark.parametrize("bad", ["3,5", "2,2", "0", "3^0", "a", "5,,1", "3^-1"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            P(bad)

    @pytest.mark.parametrize("text", ["1,3", "3,3", "5,2,2,1"])
    def test_parse_rejects_ascending_and_repeated_parts(self, text):
        # a repeated value is not strictly below the one before it
        with pytest.raises(ValueError, match="strictly descending"):
            P(text)

    # int() reads full-width and Arabic-Indic digits; the text form does not
    @pytest.mark.parametrize("text", ["3^0", "x", "3,,1", "\uff13,1", "3^\uff12", "\u0663"])
    def test_parse_rejects_bad_tokens(self, text):
        with pytest.raises(ValueError, match="bad partition token"):
            P(text)

    def test_parse_empty_is_the_empty_partition(self):
        assert P("") == P("  ") == Partition()
        assert not P("")

    @given(partitions())
    def test_round_trip_property(self, p):
        assert P(str(p)) == p


class TestPartitionBasics:
    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            Partition({0: 1})
        with pytest.raises(ValueError):
            Partition({2: 0})

    @pytest.mark.parametrize("freq", [{True: 2}, {2: True}, {False: 1}, {3: False}])
    def test_constructor_rejects_bools(self, freq):
        # Partition({True: 2}) would print "True^2", which parse cannot read
        with pytest.raises(ValueError, match="must be a positive integer"):
            Partition(freq)

    def test_weight_length_largest(self):
        p = P("5,3^2,1^3")
        assert (p.weight, p.length(), p.largest()) == (14, 6, 5)
        empty = Partition()
        assert (empty.weight, empty.length(), empty.largest()) == (0, 0, 0)

    def test_frequency(self):
        p = P("5,3^2,1^3")
        assert p.frequency(3) == 2
        assert p.frequency(4) == 0
        assert Partition().frequency(1) == 0
        assert p.frequency(0) == 0  # total: anything absent counts zero

    def test_frequency_matches_the_items_on_every_small_partition(self):
        # every value from 0 to one past the weight, present or not, on every
        # partition of n <= 14 and on partitions with 10 to 15 distinct parts,
        # spaced and repeated in several ways, where the scan's two ends differ
        spread = [
            Partition({first + gap * i: 1 + i % 3 for i in range(d)})
            for d in range(10, 16) for gap in (1, 2, 3) for first in (1, 2, 5)
        ]
        for p in [*(p for n in range(15) for p in partitions_of(n)), *spread]:
            freq, ks = dict(p.items()), range(p.weight + 2)
            assert [p.frequency(k) for k in ks] == [freq.get(k, 0) for k in ks]

    def test_iteration_descends(self):
        assert list(P("5,3^2,1^3")) == [5, 3, 3, 1, 1, 1]

    def test_hash_and_equality(self):
        assert P("3,1") == Partition.from_parts((1, 3))
        assert hash(P("3,1")) == hash(Partition.from_parts((1, 3)))
        assert len({P("3,1"), Partition.from_parts((3, 1)), P("2^2")}) == 2


class TestMultisetAlgebra:
    """``Partition.trade`` against the multiset union and difference it replaced."""

    def test_union_worked_example(self):
        a, b = P("6,5^2,2^4,1^5"), P("5,2^3,1^2")
        assert a.trade((), b) == union(a, b) == P("6,5^3,2^7,1^7")

    def test_diff_worked_example(self):
        a, b = P("6,5^2,2^4,1^5"), P("5,2^3,1^2")
        assert a.trade(b, ()) == diff(a, b) == P("6,5,2,1^3")

    def test_identities(self):
        a = P("4,2,1")
        empty = Partition()
        assert a.trade((), empty) == union(a, empty) == a
        assert a.trade(empty, ()) == diff(a, empty) == a
        assert P("2").trade((), (2,)) == union(P("2"), P("2")) == P("2^2")

    def test_repeated_parts_count_each_copy(self):
        # tau's third case at top part 3 adds two copies of 2
        lam = P("3^2,1^3")
        mu = lam.trade((3, 1), (2, 2))
        assert mu == union(diff(lam, P("3,1")), P("2^2")) == P("3,2^2,1^2")
        assert mu.weight == lam.weight

    def test_diff_deficit_is_error(self):
        with pytest.raises(ValueError):
            diff(P("2"), P("1"))
        with pytest.raises(ValueError):
            P("2").trade((1,), ())
        with pytest.raises(ValueError):
            P("2,1").trade((1, 1), (2,))

    def test_trade_error_contract(self):
        # removal is checked against the partition itself, before any part comes back
        for text, removed, added, part in (
            ("3,1", (2,), (2,), 2),
            ("3^2,1", (3, 3, 3), (), 3),
            ("3^2,1", (3, 1, 3, 3), (3,), 3),
            ("5,1^2", (1, 1, 1), (1, 1), 1),
        ):
            message = f"cannot remove {part} from {text}: no copy left"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                P(text).trade(removed, added)

    def test_trade_matches_union_of_diff_on_random_triples(self):
        rng = random.Random(21)
        raised = 0
        for _ in range(3000):
            lam = Partition.from_parts(rng.randint(1, 9) for _ in range(rng.randint(0, 8)))
            pool = list(lam) + [rng.randint(1, 9) for _ in range(rng.randint(0, 2))]
            removed = rng.sample(pool, rng.randint(0, len(pool)))
            added = [
                rng.choice(removed) if removed and rng.random() < 0.5 else rng.randint(1, 9)
                for _ in range(rng.randint(0, 4))
            ]
            try:
                expected = union(
                    diff(lam, Partition.from_parts(removed)), Partition.from_parts(added)
                )
            except ValueError:
                raised += 1
                message = rf"^cannot remove \d+ from {re.escape(str(lam))}: no copy left$"
                with pytest.raises(ValueError, match=message):
                    lam.trade(removed, added)
                continue
            mu = lam.trade(removed, added)
            assert mu.items() == expected.items()
            assert mu.weight == lam.weight - sum(removed) + sum(added)
        assert 300 < raised < 2700

    @given(partitions(), partitions())
    def test_union_then_diff_round_trips(self, a, b):
        grown = a.trade((), b)
        assert grown == union(a, b)
        assert grown.trade(b, ()) == diff(union(a, b), b) == a
        assert grown.weight == a.weight + b.weight
        assert a.trade(a, b) == b


class TestEnumeration:
    def test_zero_yields_empty(self):
        assert list(partitions_of(0)) == [Partition()]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(partitions_of(-1))

    def test_descending_lex_order_n4(self):
        got = [str(p) for p in partitions_of(4)]
        assert got == ["4", "3,1", "2^2", "2,1^2", "1^4"]

    def test_odd_parts_filter(self):
        got = [str(p) for p in partitions_of(5, lambda v: v % 2 == 1)]
        assert got == ["5", "3,1^2", "1^5"]

    @pytest.mark.parametrize("n", [0, 1, 12])
    def test_filter_called_once_per_value(self, n):
        calls, ones_calls = [], []

        def counted(v):
            calls.append(v)
            return v % 3 != 0

        def counted_ones(r):
            ones_calls.append(r)
            return True

        walked = list(partitions_of(n, counted, counted_ones))
        assert sorted(calls) == list(range(1, n + 1))
        assert sorted(ones_calls) == list(range(n + 1))
        assert len(walked) == sum(1 for _ in t_regular_partitions(n, 3))

    def test_needed_part(self):
        assert [str(p) for p in partitions_of(7, lambda v: v % 2 == 1, needs=3)] == [
            "3^2,1", "3,1^4",
        ]
        assert list(partitions_of(4, needs=5)) == []
        assert list(partitions_of(5, needs=5)) == [Partition({5: 1})]
        with pytest.raises(ValueError, match="n must be nonnegative"):
            partitions_of(-1, needs=5)
        for needs, part_filter in ((1, None), (3, lambda v: v % 3 != 0)):
            with pytest.raises(ValueError, match="the needed part must be an allowed part"):
                partitions_of(9, part_filter, needs=needs)

    def test_t_regular_small_cases(self):
        assert {str(p) for p in t_regular_partitions(3, 2)} == {"3", "1^3"}
        assert {str(p) for p in t_regular_partitions(3, 4)} == {"3", "2,1", "1^3"}
        assert list(t_regular_partitions(0, 5)) == [Partition()]
        with pytest.raises(ValueError):
            t_regular_partitions(3, 1)

    def test_counts_match_series_coefficients(self):
        gf = partition_gf(60)
        for n in range(61):
            assert sum(1 for _ in partitions_of(n)) == gf[n]

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_t_regular_counts_match_series(self, t):
        gf = t_regular_gf(t, 60)
        for n in range(61):
            count = sum(1 for _ in t_regular_partitions(n, t))
            assert count == gf[n] >= 0

    def test_two_regular_equals_distinct_parts(self):
        # Euler: partitions into odd parts vs partitions into distinct parts.
        for n in range(51):
            odd = sum(1 for _ in t_regular_partitions(n, 2))
            distinct = sum(
                1
                for p in partitions_of(n)
                if all(m == 1 for _, m in p.items())
            )
            assert odd == distinct


def _hooks_by_grid(p):
    # Literal cell-by-cell definition on a materialized diagram.
    rows = list(p)
    counts = {}
    for i, r in enumerate(rows):
        for j in range(r):
            arm = r - j - 1
            leg = sum(1 for rr in rows[i + 1 :] if rr > j)
            h = arm + leg + 1
            counts[h] = counts.get(h, 0) + 1
    return counts


class TestHooks:
    def test_worked_hook_multiset(self):
        got = hook_multiset(P("5,3^2,2,1^2"))
        assert got == {10: 1, 7: 2, 6: 1, 5: 1, 4: 2, 3: 1, 2: 3, 1: 4}

    def test_degenerate_cases(self):
        assert hook_multiset(Partition()) == {}
        assert hook_multiset(P("1")) == {1: 1}

    @given(partitions())
    def test_matches_grid_definition(self, p):
        assert hook_multiset(p) == _hooks_by_grid(p)

    def test_matches_heights_oracle(self):
        # the row-and-column-heights count that the boundary masks replaced
        for n in range(23):
            for p in partitions_of(n):
                assert hook_multiset(p) == hook_multiset_by_heights(p)

    def test_totals_and_max_on_random_sample(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            parts = [rng.randint(1, 25) for _ in range(rng.randint(0, 18))]
            p = Partition.from_parts(parts)
            counts = hook_multiset(p)
            assert sum(counts.values()) == p.weight
            if p:
                assert max(counts) == p.largest() + p.length() - 1

    def test_one_hooks_count_distinct_part_values(self):
        # a 1-hook sits exactly at the last cell of each maximal run
        for n in range(31):
            for p in partitions_of(n):
                assert hook_multiset(p).get(1, 0) == len(p.items())


def _regular(t):
    return lambda v: v % t != 0


def _family_rules(family, t):
    """The family's part and 1-count rules at t, as walk filters.

    D1 and D2 exist at t = 2 only; at another t their cases filter the walk
    by t-regular parts and the 1-count rule that D1 or D2 has at t = 2.
    """
    if family.name in ("D1", "D2") and t != 2:
        return _regular(t), family.predicates(2)[1]
    return family.predicates(t)[:2]


def _family_rule(family, t):
    return _family_rules(family, t)[0]


def _family_ones(family, t):
    return _family_rules(family, t)[1]


WALK_FILTERS = (
    [pytest.param(None, id="all")]
    + [pytest.param(_regular(t), id=f"{t}-regular") for t in range(2, 7)]
    + [
        pytest.param(_family_rule(family, t), id=f"{name}-t{t}")
        for name, family in FAMILIES.items()
        for t in range(2, 6)
    ]
    + [pytest.param(lambda v: v != 1, id="no-ones"), pytest.param(lambda v: False, id="nothing")]
    # no part 1 and gaps between the values: the greedy fill leaves remainders
    + [
        pytest.param(lambda v: v in (3, 5), id="3-and-5"),
        pytest.param(lambda v: v % 2 == 0, id="even"),
        pytest.param(lambda v: v >= 4, id="at-least-4"),
        pytest.param(lambda v: v in (2, 7), id="2-and-7"),
    ]
)


ONES_RULES = (
    pytest.param(lambda r: r % 2 == 1, id="odd"),
    pytest.param(lambda r: r % 6 == 3, id="3-mod-6"),
    pytest.param(lambda r: r % 12 == 6, id="6-mod-12"),
    pytest.param(lambda r: r == 0, id="zero"),
    pytest.param(lambda r: False, id="never"),
)


@pytest.mark.parametrize("ones", ONES_RULES)
@pytest.mark.parametrize("part_filter", WALK_FILTERS)
def test_ones_rule_matches_filtered_oracle(part_filter, ones):
    # the 1-count rule checked before a partition is built keeps exactly the
    # oracle's partitions with an allowed 1-count, in the oracle's order
    for n in range(29):
        expected = [p for p in partitions_by_recursion(n, part_filter) if ones(p.frequency(1))]
        assert list(partitions_of(n, part_filter, ones)) == expected


@pytest.mark.parametrize("part_filter", WALK_FILTERS)
def test_walk_matches_frame_stack_oracle(part_filter):
    # same partitions in the same order as the frame-stack walk it replaced
    for n in range(29):
        assert list(partitions_of(n, part_filter)) == list(partitions_by_frames(n, part_filter))


@pytest.mark.parametrize("part_filter", WALK_FILTERS)
def test_walk_matches_recursive_oracle(part_filter):
    # same partitions in the same order as the recursive walk it replaced
    for n in range(29):
        assert list(partitions_of(n, part_filter)) == list(partitions_by_recursion(n, part_filter))


# no part rule; t-regular with any 1-count; each family's part and 1-count rules
ITEMS_STACK_RULES = (
    [pytest.param(None, None, id="all")]
    + [pytest.param(_regular(t), None, id=f"{t}-regular") for t in range(2, 7)]
    + [
        pytest.param(_family_rule(family, t), _family_ones(family, t), id=f"{name}-t{t}")
        for name, family in FAMILIES.items()
        for t in range(2, 7)
    ]
)


@pytest.mark.parametrize("part_filter,ones", ITEMS_STACK_RULES)
def test_walk_matches_items_stack_oracle(part_filter, ones):
    # the fill that ends in one loop over the smallest value's copies gives
    # the same items, weights and order as the walk with one leaf per step
    for n in range(31):
        walked = [(p.items(), p.weight) for p in partitions_of(n, part_filter, ones)]
        oracle = partitions_by_items_stack(n, part_filter, ones)
        assert walked == [(p.items(), p.weight) for p in oracle]


@pytest.mark.parametrize("part_filter", WALK_FILTERS)
def test_heads_expand_to_the_walk(part_filter):
    # each head's fill ends, with low's copies descending and then none, are
    # the walk's partitions in its order; the heads share one changing list
    for n in range(29):
        values = [v for v in range(2, n + 1) if part_filter is None or part_filter(v)]
        low = values[0] if values else 0
        one_ok = part_filter is None or part_filter(1)
        ends, lists = [], set()
        for items, rest in partition_heads(n, values):
            lists.add(id(items))
            assert all(v in values and v > low and m >= 1 for v, m in items)
            assert [v for v, _ in items] == sorted({v for v, _ in items}, reverse=True)
            assert sum(v * m for v, m in items) + rest == n
            for m in range(rest // low if low else 0, -1, -1):
                r = rest - m * low
                if r == 0 or one_ok:
                    ends.append((*items, *([(low, m)] if m else []), *([(1, r)] if r else [])))
        assert len(lists) == 1
        assert ends == [p.items() for p in partitions_by_recursion(n, part_filter)]
