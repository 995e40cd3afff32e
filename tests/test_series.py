import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import gappy_unit_series, small_series, unit_series
from hookcounts import series
from hookcounts.injections import verify_injection_range
from hookcounts.series import Series, csv_lines, divide_unit, pochhammer_inf, t_regular_gf
from oracles import (
    divide_unit_by_offsets,
    geometric,
    monomial,
    one,
    partition_gf,
    pochhammer_product,
    zero,
)


def S(*coeffs, order=None):
    return Series(coeffs, order)


class TestRingOps:
    def test_add_sub_neg(self):
        one_plus = S(1, 1)
        one_minus = S(1, -1)
        assert (one_plus + one_minus).coeffs == (2, 0)
        assert (one_plus - one_plus).coeffs == (0, 0)
        assert (S(0, 0, 1, 0) - S(0, 0, 0, 1)).coeffs == (0, 0, 1, -1)
        assert (-one_plus).coeffs == (-1, -1)

    def test_mul_truncates(self):
        assert (S(1, 1, order=2) * S(1, -1, order=2)).coeffs == (1, 0, -1)

    def test_mul_identity(self):
        a = S(3, -2, 7, 0, 5)
        assert a * one(4) == a

    def test_scalar_mul(self):
        assert (2 * S(1, -1)).coeffs == (2, -2)

    def test_scalar_mul_from_the_right(self):
        s = S(1, -1, 5)
        assert s * 3 == 3 * s == S(3, -3, 15)

    def test_true_division_is_unit_division(self):
        a, b = partition_gf(12), pochhammer_inf(2, 12)
        assert a / b == divide_unit(a, b)

    def test_float_scalars_rejected(self):
        with pytest.raises(TypeError):
            1.5 * S(1, -1)

    def test_inverse_pair_product(self):
        prod = partition_gf(10) * pochhammer_inf(1, 10)
        assert prod == one(10)

    def test_mixed_orders_truncate_to_smaller(self):
        a = Series([1] * 8, 7)
        b = Series([1] * 4, 3)
        assert (a + b).order == 3
        assert (a * b).order == 3

    def test_getitem_bounds(self):
        a = S(1, 2, 3)
        assert a[2] == 3
        with pytest.raises(IndexError):
            a[3]

    def test_shift(self):
        assert S(1, 2, 3).shift(1).coeffs == (0, 1, 2)
        with pytest.raises(ValueError):
            S(1).shift(-1)

    def test_monomial_beyond_order_is_zero(self):
        assert monomial(5, 3) == zero(3)


class TestGeometric:
    def test_examples(self):
        assert geometric(2, 6).coeffs == (1, 0, 1, 0, 1, 0, 1)
        assert geometric(1, 3).coeffs == (1, 1, 1, 1)
        assert geometric(7, 6).coeffs == (1, 0, 0, 0, 0, 0, 0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            geometric(0, 5)
        with pytest.raises(ValueError, match="k must be at least 1"):
            S(1, 2, 3).times_geometric(0)

    @given(small_series(), st.integers(1, 6))
    def test_times_geometric_is_multiplication(self, a, k):
        assert a.times_geometric(k) == a * geometric(k, a.order)


class TestPochhammer:
    def test_pentagonal_prefix(self):
        assert pochhammer_inf(1, 8).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0)

    def test_first_factor_beyond_order(self):
        assert pochhammer_inf(3, 2) == one(2)

    def test_even_product(self):
        assert pochhammer_inf(2, 4).coeffs == (1, 0, -1, 0, -1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            pochhammer_inf(0, 5)
        with pytest.raises(ValueError):
            pochhammer_inf(1, -1)

    @pytest.mark.parametrize("s", range(1, 8))
    def test_matches_quadratic_product(self, s):
        for order in range(301):
            assert pochhammer_inf(s, order) == pochhammer_product(s, s, order)
        assert pochhammer_inf(s, 3000) == pochhammer_product(s, s, 3000)

    def test_pentagonal_number_theorem(self):
        s = pochhammer_inf(1, 200)
        pentagonal = set()
        k = 1
        while k * (3 * k - 1) // 2 <= 200:
            pentagonal.add(k * (3 * k - 1) // 2)
            pentagonal.add(k * (3 * k + 1) // 2)
            k += 1
        pentagonal.add(0)
        for n, c in enumerate(s.coeffs):
            assert c in (-1, 0, 1)
            assert (c != 0) == (n in pentagonal)


class TestDivision:
    def test_partition_numbers(self):
        gf = partition_gf(10)
        assert gf.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

    def test_known_value_p100(self):
        assert partition_gf(100)[100] == 190569292

    def test_self_division(self):
        a = pochhammer_inf(1, 12)
        assert divide_unit(a, a) == one(12)

    def test_rejects_non_unit_divisor(self):
        with pytest.raises(ValueError):
            divide_unit(one(4), S(0, 1, order=4))
        with pytest.raises(ValueError):
            divide_unit(one(4), S(2, 1, order=4))

    @given(small_series(), unit_series())
    def test_division_inverts_multiplication(self, a, b):
        assert divide_unit(a * b, b) == a

    @given(st.lists(st.integers(), min_size=1, max_size=41), gappy_unit_series())
    def test_matches_per_offset_oracle(self, num, den):
        num = Series(num)
        assert divide_unit(num, den) == divide_unit_by_offsets(num, den)

    @pytest.mark.parametrize("t", range(2, 9))
    def test_euler_quotient_matches_per_offset_oracle(self, t):
        num, den = pochhammer_inf(t, 2000), pochhammer_inf(1, 2000)
        expected = divide_unit_by_offsets(num, den)
        assert divide_unit(num, den) == expected
        assert t_regular_gf(t, 2000) == expected

    def test_big_coefficients_vs_dp_oracle(self):
        # independent oracle: classic coin-style DP over part sizes
        n = 500
        dp = [1] + [0] * n
        for part in range(1, n + 1):
            for s in range(part, n + 1):
                dp[s] += dp[s - part]
        gf = partition_gf(n)
        assert list(gf.coeffs) == dp
        assert gf[n] > 2**64


class TestTRegularSeries:
    def test_distinct_counts(self):
        assert t_regular_gf(2, 9).coeffs == (1, 1, 1, 2, 2, 3, 4, 5, 6, 8)

    def test_small_values(self):
        assert t_regular_gf(3, 3)[3] == 2
        assert t_regular_gf(5, 8)[0] == 1

    def test_rejects_t_below_two(self):
        with pytest.raises(ValueError):
            t_regular_gf(1, 5)


# ascending, descending, repeated and zero orders, past and below the stored one
STORE_ORDERS = (7, 30, 30, 12, 0, 31, 61, 200, 199, 5, 0, 401, 401, 3, 450)


@pytest.fixture
def empty_store(monkeypatch):
    monkeypatch.setattr(series, "_T_STORE", {})
    return series._T_STORE


class TestTRegularStore:
    """One stored series per t serves every order exactly as a fresh build."""

    @pytest.mark.parametrize("t", range(2, 7))
    def test_mixed_orders_match_fresh_builds(self, empty_store, t):
        largest = 0
        for o in STORE_ORDERS:
            fresh = divide_unit(pochhammer_inf(t, o), pochhammer_inf(1, o))
            got = t_regular_gf(t, o)
            assert got == fresh and got.order == o
            largest = max(largest, o)
            assert list(empty_store) == [t]
            assert largest <= empty_store[t].order <= max(2 * largest - 1, 0)

    def test_growth_and_reuse(self, empty_store):
        held = t_regular_gf(3, 50)  # a first request builds at exactly its order
        assert empty_store[3] is held and held.order == 50
        assert t_regular_gf(3, 50) is held
        assert t_regular_gf(3, 20) == Series(held.coeffs[:21])
        assert t_regular_gf(3, 51).order == 51 and empty_store[3].order == 100
        assert t_regular_gf(3, 260).order == 260 and empty_store[3].order == 260
        assert t_regular_gf(4, 10).order == 10
        assert sorted(empty_store) == [3, 4]

    def test_bad_orders_are_rejected_warm_or_cold(self, empty_store):
        with pytest.raises(ValueError):
            t_regular_gf(2, -1)
        t_regular_gf(2, 8)
        with pytest.raises(ValueError):
            t_regular_gf(2, -1)
        assert empty_store[2].order == 8

    def test_injection_range_holds_one_series(self, empty_store):
        # one counting series per cell, at orders 0..40: one T for t = 2
        verify_injection_range("phi", 2, 40)
        assert list(empty_store) == [2]
        assert 40 <= empty_store[2].order < 80


class TestCsv:
    def test_exact_rows(self):
        lines = list(csv_lines(S(1, 0, -2)))
        assert lines == ["n,coefficient", "0,1", "1,0", "2,-2"]

    def test_big_integers_stay_decimal(self):
        row = list(csv_lines(partition_gf(500)))[-1]
        assert row == f"500,{partition_gf(500)[500]}"
        assert "e" not in row and "." not in row
