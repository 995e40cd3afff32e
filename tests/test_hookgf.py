import ast
import inspect
import random
import types
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given

from hookcounts import hookgf, partitions
from hookcounts.hookgf import (
    _hook_terms,
    btk_enum_table,
    coefficients,
    family_table,
    hook_difference_table,
    hook_table,
    piece_table,
)
from hookcounts.injections import FAMILIES
from hookcounts.partitions import Partition, hook_multiset
from hookcounts.series import Series, t_regular_gf
from oracles import (
    bt1_form,
    bt2_form,
    bt3_four_term_form,
    bt3_t2_form,
    btk_enum,
    btk_enum_table_by_partitions,
    btk_enum_table_by_walks,
    btk_enum_table_for_one_t,
    combination_by_whole_lists,
    decomposition_chain,
    hook3_marker_by_runs,
    hook_multiset_by_heights,
    partitions_by_recursion,
    parts_ge2_gf,
    series_of,
    set_cardinality_chain,
    t2_remainder_chain,
    t_regular_partitions,
)

# above every exponent of the k <= 8 tables, so that nothing is pruned
UNPRUNED = 10**6

# (q^2 - q^3)(1 - q) T at t = 2, the convexity input of E's sign at t = 2
T2_REMAINDER = {0: {2: 1, 3: -2, 4: 1}}


class TestEnumOracle:
    def test_boundary_pairs(self):
        assert btk_enum(2, 2, 3) == 2
        assert btk_enum(2, 3, 3) == 2
        assert btk_enum(4, 2, 3) == 2
        assert btk_enum(4, 3, 3) == 3

    def test_empty_weight(self):
        assert btk_enum(3, 2, 0) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            btk_enum(1, 1, 5)
        with pytest.raises(ValueError):
            btk_enum(2, 0, 5)
        with pytest.raises(ValueError):
            btk_enum(2, 1, -1)
        with pytest.raises(ValueError, match="need at least one t"):
            btk_enum_table((), 5, (1,))
        with pytest.raises(ValueError, match="need at least one k"):
            btk_enum_table((2,), 5, ())
        with pytest.raises(ValueError, match="t must be at least 2"):
            btk_enum_table((3, 1), 5, (1,))
        with pytest.raises(ValueError, match="k must be at least 1"):
            btk_enum_table((2,), 5, (2, 0))
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            btk_enum_table((2,), -1, (1,))

    def test_any_hook_length_supported(self):
        # no closed form needed: enumeration handles k = 7 too
        expected = sum(hook_multiset(p).get(7, 0) for p in t_regular_partitions(9, 2))
        assert btk_enum(2, 7, 9) == expected

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_matches_heights_oracle(self, t):
        # the per-cell count the boundary masks replaced, over the recursive walk
        ks = tuple(range(1, 9))
        expected = {(k, n): 0 for k in ks for n in range(25)}
        for n in range(25):
            for p in partitions_by_recursion(n, lambda v: v % t != 0):
                for h, c in hook_multiset_by_heights(p).items():
                    if h in ks:
                        expected[(h, n)] += c
        assert btk_enum_table((t,), 24, ks) == {t: expected}
        for (k, n), count in expected.items():
            assert btk_enum(t, k, n) == count

    def test_table_matches_pointwise(self):
        table = btk_enum_table((3,), 12, (1, 2, 3))[3]
        for k in (1, 2, 3):
            for n in range(13):
                assert table[(k, n)] == btk_enum(3, k, n)

    def test_repeated_k_is_counted_once(self):
        table = btk_enum_table((2,), 6, (2, 3, 2))[2]
        assert table[2, 6] == btk_enum(2, 2, 6) == 6
        assert table == btk_enum_table((2,), 6, (2, 3))[2]

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 11, 26])
    def test_one_walk_matches_walk_per_n(self, t, n_max):
        # k = 1..9, one k past n_max and a repeat of k = 3
        ks = (*range(1, 10), n_max + 2, 3)
        table = btk_enum_table((t,), n_max, ks)[t]
        expected = btk_enum_table_by_walks(t, n_max, ks)
        assert table == expected
        assert list(table) == list(expected)
        assert btk_enum_table_for_one_t(t, n_max, ks) == expected


class TestAllTTable:
    """One walk for a set of t against the per-t walk and the walk per n, t by t."""

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 5, 8, 13, 18])
    @pytest.mark.parametrize(
        "ts",
        [(2,), (9,), (5, 2, 7, 2, 3), (4, 3, 4, 11), (3, 2), "past n_max", "every t"],
    )
    def test_matches_per_t_references(self, ts, n_max):
        if ts == "past n_max":  # every partition is regular for both
            ts = (n_max + 3, n_max + 2)
        elif ts == "every t":  # t = 2..n_max+1 covers every t >= 2 for n <= n_max
            ts = tuple(range(2, n_max + 2)) or (2,)
        # (3, 2): a part 6 leaves a partition regular for neither t
        ks = (3, 1, 3, 2, n_max + 2, 5)  # unsorted, a repeat, one k past n_max
        tables = btk_enum_table(ts, n_max, ks)
        assert list(tables) == list(dict.fromkeys(ts))
        for t, table in tables.items():
            expected = btk_enum_table_by_walks(t, n_max, ks)
            assert table == expected == btk_enum_table_for_one_t(t, n_max, ks)
            assert list(table) == list(expected)


class TestHeadTable:
    """The table read off walk heads against the table that reads each partition whole."""

    @pytest.mark.parametrize(
        "ts",
        [(2,), (3, 7), (2, 3, 4, 5, 6), "every t", (5, 3, 5)],
        ids=["t2-low-3", "t3-t7", "t2-to-t6", "every-t", "repeated-t"],
    )
    def test_matches_per_partition_table(self, ts):
        for n_max in range(31):
            # t = 2..n_max+1 covers every t >= 2 for n <= n_max
            cur = (tuple(range(2, n_max + 2)) or (2,)) if ts == "every t" else ts
            for ks in ((1, 2, 3), (2, n_max + 1), (n_max + 4, 1)):
                # same t, (k, n) and counts, in the same order
                got, expected = (
                    [(t, list(table.items())) for t, table in f(cur, n_max, ks).items()]
                    for f in (btk_enum_table, btk_enum_table_by_partitions)
                )
                assert got == expected, (cur, n_max, ks)


class TestFirstColumnLemma:
    """Rows of 1s under mu: the diagram fact the one-walk hook table reads."""

    @given(
        st.lists(st.integers(2, 12), max_size=8).map(lambda ps: sorted(ps, reverse=True)),
        st.integers(0, 12),
    )
    def test_hooks_of_mu_plus_ones(self, mu, r):
        # mu's cells off column 1 are the diagram of the parts mu_i - 1
        outside = Counter(hook_multiset_by_heights(Partition.from_parts(v - 1 for v in mu)))
        first = Counter(v + (len(mu) - i) + r for i, v in enumerate(mu, start=1))
        ones = Counter(range(1, r + 1))
        lifted = Partition.from_parts([*mu, *[1] * r])
        assert Counter(hook_multiset_by_heights(lifted)) == outside + ones + first


class TestSeriesBuilders:
    def test_one_hook_values(self):
        s = series_of(2, hook_table(2, 1, 5), 5)
        assert [s[n] for n in (0, 1, 2, 3)] == [0, 1, 1, 2]
        assert series_of(4, hook_table(4, 1, 3), 3)[3] == btk_enum(4, 1, 3) == 4

    def test_two_hook_values(self):
        assert series_of(2, hook_table(2, 2, 4), 4)[2] == 1
        assert series_of(4, hook_table(4, 2, 4), 4)[3] == 2
        assert series_of(3, hook_table(3, 2, 4), 4)[0] == 0

    def test_three_hook_values(self):
        assert series_of(4, hook_table(4, 3, 4), 4)[3] == 3
        assert series_of(2, hook_table(2, 3, 4), 4)[3] == 2
        assert series_of(5, hook_table(5, 3, 4), 4)[1] == 0

    def test_gf_matches_enum(self):
        assert series_of(2, hook_table(2, 2, 6), 6)[6] == btk_enum(2, 2, 6)
        assert series_of(2, hook_table(2, 4, 10), 10)[10] == btk_enum(2, 4, 10) == 13
        # no hook is longer than n: answered without deriving the k = 100 table
        assert hook_table(2, 100, 5) == {} and btk_enum(2, 100, 5) == 0
        # long hooks at a short order: the pruned table stays small
        assert series_of(2, hook_table(2, 40, 50), 50)[50] == btk_enum(2, 40, 50) == 150
        with pytest.raises(ValueError, match="k must be at least 1"):
            hook_table(2, 0, 10)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            coefficients(2, hook_table(2, 2, -1), -1)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_oracle_equivalence_small_grid(self, t):
        table = btk_enum_table((t,), 25, (1, 2, 3))[t]
        for k in (1, 2, 3):
            s = series_of(t, hook_table(t, k, 25), 25)
            for n in range(26):
                assert table[(k, n)] == s[n]


class TestDerivedSeries:
    """The hook series derived for every k against the enumeration and the paper's forms."""

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_matches_enumeration_up_to_k8(self, t):
        ks = tuple(range(1, 9))
        table = btk_enum_table((t,), 30, ks)[t]
        for k in ks:
            s = series_of(t, hook_table(t, k, 30), 30).coeffs
            assert s == tuple(table[(k, n)] for n in range(31))

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_hand_typed_forms(self, t):
        assert series_of(t, hook_table(t, 1, 300), 300) == bt1_form(t, 300)
        assert series_of(t, hook_table(t, 2, 300), 300) == bt2_form(t, 300)
        three = bt3_t2_form(300) if t == 2 else bt3_four_term_form(t, 300)
        assert series_of(t, hook_table(t, 3, 300), 300) == three

    def test_term_counts(self):
        def count(t, k):
            return sum(len(row) for row in _hook_terms(t, k, UNPRUNED).values())

        assert [count(2, k) for k in range(1, 8)] == [1, 2, 4, 8, 13, 20, 31]
        assert [count(6, k) for k in range(1, 8)] == [5, 14, 23, 37, 66, 98, 149]


    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_pruned_terms_are_the_table_cut_at_the_order(self, t):
        for k in range(1, 9):
            full = _hook_terms(t, k, UNPRUNED)
            for order in (k, 2 * k, 30):
                cut = {c: {e: x for e, x in row.items() if e <= order} for c, row in full.items()}
                assert _hook_terms(t, k, order) == {c: row for c, row in cut.items() if row}

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7, 8])
    def test_merged_differences_match_difference_of_series(self, t):
        # o = 0, 1, 2 are the orders at which some of the hook tables are empty
        for o in range(301):
            two = series_of(t, hook_table(t, 2, o), o)
            for k in (1, 3):
                diff = series_of(t, hook_difference_table(t, k, o), o)
                assert diff == two - series_of(t, hook_table(t, k, o), o)


class TestThreeHookClosedForms:
    """The generic four-term closed form is valid for t >= 3 only."""

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7, 8])
    def test_run_analysis_matches_production_builder(self, t):
        runs = t_regular_gf(t, 120) * hook3_marker_by_runs(t, 120)
        assert runs.coeffs == series_of(t, hook_table(t, 3, 120), 120).coeffs

    @pytest.mark.parametrize("t", [3, 4, 5, 6])
    def test_four_term_form_agrees_for_t_at_least_3(self, t):
        assert bt3_four_term_form(t, 120) == series_of(t, hook_table(t, 3, 120), 120)

    def test_four_term_form_over_counts_at_t2(self):
        # first discrepancy is at n = 6: five actual 3-hooks, six claimed
        legacy = bt3_four_term_form(2, 40)
        true = series_of(2, hook_table(2, 3, 40), 40)
        assert legacy[6] == 6 and true[6] == 5
        assert btk_enum(2, 3, 6) == 5
        assert all(legacy[n] >= true[n] for n in range(41))
        assert legacy.coeffs[:6] == true.coeffs[:6]


class TestDecomposition:
    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_alternating_identity(self, t):
        lhs = (
            -series_of(t, piece_table("A", t), 120)
            + series_of(t, piece_table("B", t), 120)
            + series_of(t, piece_table("C", t), 120)
        )
        assert lhs.coeffs == series_of(t, hook_difference_table(t, 1, 120), 120).coeffs

    @pytest.mark.parametrize("t", [3, 4, 5, 6])
    def test_three_part_identity_t_at_least_3(self, t):
        lhs = (
            series_of(t, piece_table("D", t), 120)
            + series_of(t, piece_table("E", t), 120)
            + series_of(t, piece_table("F", t), 120)
        )
        assert lhs.coeffs == series_of(t, hook_difference_table(t, 3, 120), 120).coeffs

    def test_three_part_identity_t2_matches_legacy_form_only(self):
        # D+E+F reproduces the four-term form's difference, which over-counts
        # 3-hooks at t=2; against the true series the identity fails from n=6.
        lhs = (
            series_of(2, piece_table("D", 2), 120)
            + series_of(2, piece_table("E", 2), 120)
            + series_of(2, piece_table("F", 2), 120)
        )
        legacy_diff = series_of(2, hook_table(2, 2, 120), 120) - bt3_four_term_form(2, 120)
        assert lhs.coeffs == legacy_diff.coeffs
        true_diff = series_of(2, hook_difference_table(2, 3, 120), 120)
        assert lhs.coeffs != true_diff.coeffs
        assert lhs[6] - true_diff[6] == -1

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            piece_table("G", 2)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_a_counts_odd_ones_family(self, t):
        s = series_of(t, piece_table("A", t), 40)
        for n in range(41):
            assert s[n] == sum(1 for _ in FAMILIES["O"].members(n, t))

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_c_counts_r_family(self, t):
        s = series_of(t, piece_table("C", t), 40)
        for n in range(41):
            assert s[n] == sum(1 for _ in FAMILIES["R"].members(n, t))

    def test_c_vanishes_below_prefix(self):
        s = series_of(2, piece_table("C", 2), 10)
        assert all(s[n] == 0 for n in range(5))

    def test_a_first_coefficient(self):
        assert series_of(2, piece_table("A", 2), 4)[1] == 1


class TestDSeries:
    def test_single_negative_cell(self):
        negatives = [
            (t, n)
            for t in range(2, 7)
            for n, c in enumerate(series_of(t, piece_table("D", t), 200).coeffs)
            if c < 0
        ]
        assert negatives == [(2, 6)]
        assert series_of(2, piece_table("D", 2), 10)[6] == -1

    def test_t3_collapses_to_two_term_form(self):
        u = parts_ge2_gf(3, 200)
        closed = (u.shift(2) + u.shift(7)).times_geometric(6)
        assert closed.coeffs == series_of(3, piece_table("D", 3), 200).coeffs

    def test_t2_period_twelve_split(self):
        u = parts_ge2_gf(2, 200)
        nonneg_part = (
            u.shift(5) + u.shift(8) + u.shift(9) + u.shift(13)
        ).times_geometric(12)
        split = (
            series_of(2, family_table("D1", 2), 200)
            - series_of(2, family_table("D2", 2), 200)
            + nonneg_part
        )
        assert split.coeffs == series_of(2, piece_table("D", 2), 200).coeffs


SET_CASES = [(t, k) for t in range(2, 7) for k in FAMILIES if t == 2 or k not in ("D1", "D2")]
# checked up to n = 40 since before every family was covered; the rest up to n = 24
WIDE_SET_CASES = {(2, "S"), (4, "S"), (4, "A"), (5, "A"), (4, "B"), (5, "C")}


class TestSetSeries:
    @pytest.mark.parametrize(
        "t,set_id", SET_CASES, ids=[f"{t}-{k}-in_{k.lower()}" for t, k in SET_CASES]
    )
    def test_counting_series_match_predicates(self, t, set_id):
        n_max = 40 if (t, set_id) in WIDE_SET_CASES else 24
        s = series_of(t, family_table(set_id, t), n_max)
        counts = tuple(sum(1 for _ in FAMILIES[set_id].members(n, t)) for n in range(n_max + 1))
        assert counts == s.coeffs

    def test_t2_residue_families(self):
        d1 = series_of(2, family_table("D1", 2), 40)
        d2 = series_of(2, family_table("D2", 2), 40)
        for n in range(41):
            members = list(t_regular_partitions(n, 2))
            assert d1[n] == sum(1 for p in members if p.frequency(1) % 12 == 4)
            assert d2[n] == sum(1 for p in members if p.frequency(1) % 12 == 6)
        assert d2[6] == 1  # the all-ones column

    def test_s_empty_at_zero(self):
        assert series_of(3, family_table("S", 3), 5)[0] == 0

    @pytest.mark.parametrize("t", [4, 5, 6])
    def test_a_family_no_larger_than_s_family(self, t):
        # cardinality consequence of the injective rewrite into S
        a = series_of(t, family_table("A", t), 40)
        s = series_of(t, family_table("S", t), 40)
        for n in range(41):
            assert a[n] <= s[n]

    def test_d2_no_larger_than_d1_from_seven(self):
        d1 = series_of(2, family_table("D1", 2), 60)
        d2 = series_of(2, family_table("D2", 2), 60)
        for n in range(7, 61):
            assert d2[n] <= d1[n]

    def test_d_families_need_t2(self):
        with pytest.raises(ValueError):
            family_table("D1", 3)
        with pytest.raises(ValueError):
            family_table("X", 2)

    def test_rules_needing_two_rows_are_refused(self, monkeypatch):
        # an allowed 2t and a 1-count residue would divide by 1 - q^2t and 1 - q^2
        rules = lambda t: hookgf.Rules(allow=(2 * t,), ones=(1,), mod=2)  # noqa: E731
        monkeypatch.setitem(hookgf.FAMILY_RULES, "X", rules)
        with pytest.raises(ValueError, match=r"need the rows \[6, 2\]"):
            family_table("X", 3)


class TestTablesMatchSeriesChains:
    """The numerator tables against the ``Series`` operator chains they replace."""

    @staticmethod
    def _every_order(t):
        # every declared family, so a new declaration needs an independent chain
        sets = [name for name in FAMILIES if t == 2 or name not in ("D1", "D2")]
        for o in range(301):
            for name in "ABCDEF":
                assert series_of(t, piece_table(name, t), o) == decomposition_chain(name, t, o)
            for set_id in sets:
                s = series_of(t, family_table(set_id, t), o)
                assert s == set_cardinality_chain(set_id, t, o)
            if t == 2:
                assert series_of(2, T2_REMAINDER, o) == t2_remainder_chain(o)

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7, 8])
    def test_every_order(self, t):
        self._every_order(t)

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7, 8])
    def test_every_order_in_blocks_of_7(self, monkeypatch, t):
        # orders 0..300 end in every position of a block, and cross up to 43 blocks
        monkeypatch.setattr(hookgf, "BLOCK", 7)
        self._every_order(t)


class TestBlockEvaluator:
    """``hookgf.blocks`` against the whole-list evaluator it replaced, at small block sizes."""

    @staticmethod
    def _tables(t):
        """The tables of the library at t: hook counts and differences, pieces and families."""
        order = 120
        yield from (hookgf.hook_table(t, k, order) for k in range(1, 6))
        yield from (hookgf.hook_difference_table(t, k, order) for k in (1, 3))
        yield from (hookgf.piece_table(name, t) for name in hookgf.PIECES)
        yield from (family_table(set_id, t) for set_id in "ORASBC")
        # a seed above a lower term, and coefficients other than +-1
        yield {3 * t: {5: -1, 9: 1, 30: 2}, 0: {0: -3, 17: 1}, 2: {60: 1}}

    @pytest.mark.parametrize("block", [1, 7, "below m"])
    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_matches_whole_lists_at_block_edges(self, monkeypatch, t, block):
        for table in self._tables(t):
            size = max(max(table) - 1, 2) if block == "below m" else block
            monkeypatch.setattr(hookgf, "BLOCK", size)
            for k in (1, 2, 5, 9):
                for order in (k * size - 1, k * size, k * size + 1):
                    got = list(hookgf.blocks(t, table, order))
                    q, r = divmod(order + 1, size)
                    assert [len(b) for b in got] == [size] * q + [r] * (r > 0)
                    want = combination_by_whole_lists(t, table, order)
                    assert Series([c for b in got for c in b], order) == want, (table, order)

    def test_random_tables(self, monkeypatch):
        # rows m in 0..9, terms at exponents 0..40 with coefficients -3..3 (zeros
        # included), so that seeds, rows and terms start in any block
        rng = random.Random(31)
        for _ in range(400):
            table = {
                rng.randrange(10): {rng.randrange(41): rng.randint(-3, 3) for _ in range(rng.randint(1, 5))}
                for _ in range(rng.randint(1, 4))
            }
            order = rng.randrange(71)
            monkeypatch.setattr(hookgf, "BLOCK", rng.randint(1, 12))
            assert series_of(3, table, order) == combination_by_whole_lists(3, table, order), table

    def test_default_block_matches_whole_lists_past_one_block(self):
        order = 2 * hookgf.BLOCK + 1
        table = hookgf.hook_difference_table(3, 1, order)
        assert series_of(3, table, order) == combination_by_whole_lists(3, table, order)

    def test_bad_order_raises_on_the_call(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            hookgf.blocks(3, {0: {0: 1}}, -1)
        with pytest.raises(ValueError, match="t must be at least 2"):
            hookgf.blocks(1, {0: {0: 1}}, 5)

    def test_empty_table_is_zero_without_building_t(self, monkeypatch):
        monkeypatch.setattr(hookgf, "t_regular_gf", None)  # calling it would raise
        monkeypatch.setattr(hookgf, "BLOCK", 4)
        assert list(hookgf.blocks(3, {6: {}, 0: {9: 1, 2: 0}}, 8)) == [[0] * 4, [0] * 4, [0]]


def _code_names(code: types.CodeType) -> set[str]:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def _names_with_helpers(f) -> set[str]:
    """The names in f's code and in that of every hookgf function it reaches by name."""
    own = {
        name: value
        for name, value in vars(hookgf).items()
        if inspect.isfunction(value) and value.__module__ == hookgf.__name__
    }
    names, todo = set(), [f]
    while todo:
        found = _code_names(todo.pop().__code__) - names
        names |= found
        todo += [own[name] for name in found if name in own]
    return names


class TestRouteIndependence:
    """The series route shares no logic with the enumeration route."""

    def test_hookgf_does_not_import_injections(self):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(hookgf))):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
        assert "series.t_regular_gf" in imported  # the scan sees the relative imports
        assert not any("injections" in name.split(".") for name in imported)

    def test_series_builders_use_no_partitions_name(self):
        bound = {
            name
            for name, value in vars(partitions).items()
            if getattr(value, "__module__", None) == partitions.__name__
        }
        assert {"Partition", "partitions_of", "partition_heads", "hook_multiset"} <= bound
        bound.add("partitions")
        builders = (
            hookgf.blocks,
            hookgf._block,
            hookgf.coefficients,
            hookgf.merge,
            hookgf.hook_table,
            hookgf.hook_difference_table,
            hookgf._hook_terms,
            hookgf.family_table,
            hookgf.piece_table,
            *hookgf.PIECES.values(),
        )
        for f in builders:
            assert not _code_names(f.__code__) & bound, f.__name__

    def test_enumeration_uses_no_series_name(self):
        series_names = {
            "t_regular_gf",
            "divide_unit",
            "pochhammer_inf",
            "Series",
            "blocks",
            "_block",
            "coefficients",
            "hook_table",
            "hook_difference_table",
            "_hook_terms",
            "merge",
            "family_table",
            "piece_table",
        }
        # the scan follows helpers: coefficients names t_regular_gf only through one
        assert "t_regular_gf" not in _code_names(coefficients.__code__)
        assert "t_regular_gf" in _names_with_helpers(coefficients)
        names = _names_with_helpers(btk_enum_table)
        assert "partition_heads" in names  # the scan sees the walk
        assert not names & series_names
        # the module's code object holds every function, method and closure in it
        module_code = compile(inspect.getsource(partitions), partitions.__file__, "exec")
        names = _code_names(module_code)
        assert {"bisect_right", "boundary_masks"} <= names
        assert not names & series_names

    def test_partitions_imports_no_series_module(self):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(partitions))):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert "bisect" in imported
        assert not any({"series", "hookgf"} & set(name.split(".")) for name in imported)


class TestRemainderSeries:
    def test_negatives_exactly_three_and_six(self):
        s = series_of(2, T2_REMAINDER, 200)
        assert [n for n, c in enumerate(s.coeffs) if c < 0] == [3, 6]
        assert s[24] >= 1 and s[27] >= 1


class TestDistinctCounts:
    """Q(n), the partitions of n into distinct parts: the 2-regular series."""

    def test_small_values(self):
        q = t_regular_gf(2, 5)
        assert q[0] == 1 and q[5] == 3

    def test_matches_subset_sum_oracle(self):
        # independent 0/1 DP over part sizes
        n = 200
        dp = [1] + [0] * n
        for part in range(1, n + 1):
            for s in range(n, part - 1, -1):
                dp[s] += dp[s - part]
        assert t_regular_gf(2, n).coeffs == tuple(dp)

    def test_midpoint_convexity(self):
        q = t_regular_gf(2, 201).coeffs
        for n in range(4, 201):
            assert 2 * q[n] <= q[n - 1] + q[n + 1]

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            t_regular_gf(2, -1)
