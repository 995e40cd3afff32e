import inspect
import itertools
import json
import warnings

import pytest

from hookcounts import hookgf, injections
from hookcounts.injections import (
    FAMILIES,
    Family,
    MAP_MIN_N,
    MAPS,
    delta3,
    epsilon,
    eta,
    o5_weight_bound,
    o5_weight_cap,
    phi1,
    phi1_inv,
    phi2,
    phi3,
    phi4,
    psi2,
    psi3,
    psi4,
    tau,
    verify_injection,
    verify_injection_range,
)
from hookcounts.partitions import Partition, partitions_of

from oracles import (
    FAMILY_PREDICATES,
    SubsetLabel,
    contains,
    contains_by_rules,
    is_tau_case4_image_by_shape,
    label,
    o_subsets_by_passes,
    projection,
    r_subsets_by_passes,
    with_part,
)

P = Partition.parse
O, R, A, S, B, C, D1, D2 = (FAMILIES[k] for k in ("O", "R", "A", "S", "B", "C", "D1", "D2"))


@pytest.mark.parametrize("name", list(FAMILIES))
def test_members_match_filtered_walk(name):
    # the part rule prunes the walk; the 1-count rule and extra condition
    # filter what it yields, so together they must keep the filter's order
    family = FAMILIES[name]
    for t in (2,) if name in ("D1", "D2") else range(2, 6):
        for n in range(23):
            expected = [p for p in partitions_of(n) if contains(family, p, t)]
            assert list(family.members(n, t)) == expected


class TestFamilies:
    def test_labels_name_the_family(self):
        assert label(O, P("1^5"), 2) == SubsetLabel("O", 5)
        assert label(B, P("1^5"), 3) == SubsetLabel("B", None)
        assert label(C, P("1^5"), 3) is None

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            contains(O, P("1"), 1)
        with pytest.raises(ValueError):
            R.members(5, 1)

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_negative_weight_is_rejected(self, name):
        # R's needed-part shortcut must not turn n = -1 into an empty walk
        with pytest.raises(ValueError, match="n must be nonnegative"):
            FAMILIES[name].members(-1, 2)

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_r_members_splice_the_needed_part(self, t):
        # the splice into each walk head gives the members that the trade and
        # the splice into each member of the walk over n - x gave, in the same order
        x = 2 * t + 1
        parts = R.predicates(t)[0]
        for n in range(31):
            walk = list(partitions_of(n - x, parts)) if n >= x else []
            members = list(R.members(n, t))
            for expected in ([p.trade((), (x,)) for p in walk], [with_part(p, x) for p in walk]):
                assert [p.items() for p in members] == [p.items() for p in expected]
            assert all(p.weight == n for p in members)

    @pytest.mark.parametrize("t,x", [(2, 3), (3, 2), (4, 2), (5, 2)])
    def test_needed_smallest_part_raises_its_count(self, t, x):
        # x is the smallest allowed part >= 2: every fill end holds one more copy
        family = Family("X", lambda t: hookgf.Rules(ones=(1,), mod=2, needs=x))
        parts, ones, _ = family.predicates(t)
        for n in range(31):
            walk = list(partitions_of(n - x, parts, ones)) if n >= x else []
            members = list(family.members(n, t))
            assert [p.items() for p in members] == [with_part(p, x).items() for p in walk]
            assert all(p.weight == n for p in members)
            assert members == [p for p in partitions_of(n) if contains(family, p, t)]

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_membership_tables_match_the_rules(self, name):
        # tables built at the weight, as the driver builds them, and past it
        family = FAMILIES[name]
        for t in (2,) if name in ("D1", "D2") else range(2, 6):
            for n in range(21):
                at_n, past_n = family.membership(n, t), family.membership(n + 3, t)
                for p in partitions_of(n):
                    expected = contains_by_rules(family, p, t)
                    assert at_n(p) == past_n(p) == contains(family, p, t) == expected, (t, p)

    @pytest.mark.parametrize("name", ["D1", "D2"])
    @pytest.mark.parametrize("t", [3, 4, 5, 12])
    def test_d_families_exist_at_t2_only(self, name, t):
        # the paper's 2-regular families: their rules raise at any other t, so
        # no walk, membership test or counting series reads them there
        family = FAMILIES[name]
        uses = (
            lambda: family.predicates(t),
            lambda: list(family.members(10, t)),
            lambda: family.membership(12, t),
            lambda: list(family.projections(12, t)),
            lambda: hookgf.family_table(name, t),
        )
        for use in uses:
            with pytest.raises(ValueError, match="^D1 and D2 are defined for t=2 only$"):
                use()

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_declared_rules_match_the_reference_predicates(self, name):
        parts_ref, ones_ref, needs_ref = FAMILY_PREDICATES[name]
        for t in (2,) if name in ("D1", "D2") else range(2, 13):
            parts, ones, needs = FAMILIES[name].predicates(t)
            assert [parts(v) for v in range(1, 200)] == [parts_ref(v, t) for v in range(1, 200)]
            assert [ones(r) for r in range(200)] == [ones_ref(r, t) for r in range(200)]
            assert needs == needs_ref(t)

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_r_starts_at_its_needed_part(self, t):
        # every member of R holds the part 2t+1, so none weighs less
        assert all(list(R.members(n, t)) == [] for n in range(2 * t + 1))
        assert list(R.members(2 * t + 1, t)) == [Partition({2 * t + 1: 1})]


class TestProjections:
    """``Family.projections`` against the read-part projections of the full walk."""

    @pytest.mark.parametrize("name", ["R", "S"])
    @pytest.mark.parametrize("t", range(2, 9))
    def test_one_per_projection_of_a_member(self, name, t):
        family = FAMILIES[name]
        for n in range(31):
            yielded = list(family.projections(n, t))
            assert len(set(yielded)) == len(yielded), (t, n)
            assert set(yielded) == {projection(family, p, t) for p in family.members(n, t)}, (t, n)

    @pytest.mark.parametrize("name", ["R", "S"])
    @pytest.mark.parametrize("t", range(2, 9))
    def test_subsets_read_only_the_read_parts(self, name, t):
        # a classifier reading a part its family leaves unread fails here
        family = FAMILIES[name]
        for n in range(31):
            for p in family.members(n, t):
                assert family.subsets(p, t) == family.subsets(projection(family, p, t), t), (t, p)

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_every_part_read_gives_the_members(self, name):
        family = FAMILIES[name]._replace(reads=Family._field_defaults["reads"])
        for t in (2,) if name in ("D1", "D2") else range(2, 6):
            for n in range(23):
                assert list(family.projections(n, t)) == list(family.members(n, t)), (t, n)

    @pytest.mark.parametrize(
        "name,reads", [("R", lambda v, t: v == 1), ("R", lambda v, t: v > 1), ("S", lambda v, t: v > 1)]
    )
    def test_the_one_count_and_the_needed_part_must_be_read(self, name, reads):
        family = FAMILIES[name]._replace(reads=reads)
        with pytest.raises(ValueError, match="must read the part 1 and the needed part"):
            family.projections(20, 3)


class TestClassifyO:
    def test_small_part_of_residue_shape_wins(self):
        # 17 = 2*2*4 + 1, so this input sits in the first subset
        assert label(O, P("17,15,13,10,7,5,3,2,1^3"), 4).index == 1

    def test_large_parts_of_residue_shape_still_win(self):
        # 137 and 33 are both 1 mod 8: the first-subset condition applies
        # even though the top part clears the large-part threshold.
        assert label(O, P("137,33,29,11,5,3,1^3"), 4).index == 1
        assert label(O, P("17,13,11,9,3^25,1^3"), 4).index == 1

    def test_genuine_class_two(self):
        assert label(O, P("157,34,29,11,5,3,1^3"), 4).index == 2

    def test_heavy_multiplicity_class(self):
        assert label(O, P("3^25,1^3"), 4).index == 3

    def test_many_ones_class(self):
        assert label(O, P("13,7,6,2^2,1^55"), 4).index == 4

    def test_residual_class(self):
        assert label(O, P("1^5"), 2).index == 5

    def test_non_members(self):
        assert label(O, P("4,1"), 2) is None  # not 2-regular
        assert label(O, P("3,1^2"), 2) is None  # even number of ones

    def test_memberships_partition_the_family(self):
        for t in (2, 3):
            for n in range(26):
                for lam in O.members(n, t):
                    assert len(O.subsets(lam, t)) == 1

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_one_scan_matches_the_passes(self, t):
        for n in range(31):
            for lam in O.members(n, t):
                assert O.subsets(lam, t) == o_subsets_by_passes(lam, t), lam


class TestClassifyR:
    def test_odd_ones_subset(self):
        assert label(R, P("15,13,10,9,8,5,3,2,1^3"), 4).index == 1

    def test_fourth_subset(self):
        assert label(R, P("33,13,9^2,7,6,2^2,1^4"), 4).index == 4

    def test_third_subset(self):
        assert label(R, P("25^2,9^2,1^10"), 4).index == 3

    def test_member_outside_listed_subsets(self):
        # 17 = 2*2*4+1 disqualifies every even-ones subset at t=4
        got = label(R, P("25^2,17,13,11,9^3,1^10"), 4)
        assert got is not None and got.index is None

    def test_non_members(self):
        assert label(R, P("8,5,1"), 4) is None  # no part 9
        assert label(R, P("12,9,1"), 4) is None  # 12 = 3t

    def test_base_allows_double_t_part(self):
        assert label(R, P("9,8^2,1"), 4) is not None

    def test_subsets_pairwise_disjoint(self):
        for t in (2, 3):
            for n in range(26):
                for mu in R.members(n, t):
                    assert len(R.subsets(mu, t)) <= 1

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_one_scan_matches_the_passes(self, t):
        for n in range(31):
            for mu in R.members(n, t):
                assert R.subsets(mu, t) == r_subsets_by_passes(mu, t), mu


class TestPhi1:
    def test_worked_example(self):
        # weight-consistent form of the reference pair (the recorded input
        # carries a stray part 7 that breaks weight preservation)
        lam = P("17,15,13,10,5,3,2,1^3")
        assert label(O, lam, 4).index == 1
        mu = phi1(lam, 4)
        assert mu == P("15,13,10,9,8,5,3,2,1^3")
        assert label(R, mu, 4).index == 1
        assert phi1_inv(mu, 4) == lam

    def test_recorded_input_keeps_its_extra_part(self):
        lam = P("17,15,13,10,7,5,3,2,1^3")
        assert label(O, lam, 4).index == 1
        assert phi1(lam, 4) == P("15,13,10,9,8,7,5,3,2,1^3")

    def test_minimal_k_is_fixed_point(self):
        assert label(O, P("5,1"), 2).index == 1
        assert phi1(P("5,1"), 2) == P("5,1")

    def test_round_trip_exhaustive(self):
        for t in (2, 3):
            for n in range(31):
                for lam in O.members(n, t):
                    if label(O, lam, t).index != 1:
                        continue
                    mu = phi1(lam, t)
                    assert mu.weight == n and label(R, mu, t).index == 1
                    assert phi1_inv(mu, t) == lam

    def test_inverse_is_only_valid_on_the_image(self):
        # (5,5,4,1) sits in the target family but outside the image: the
        # claimed inverse sends it to (9,5,1), which the map fixes instead.
        stray = P("5^2,4,1")
        assert label(R, stray, 2).index == 1
        back = phi1_inv(stray, 2)
        assert back == P("9,5,1")
        assert phi1(back, 2) != stray

    def test_validation(self):
        # an even ones count puts the input outside O, so no map runs on it
        assert label(O, P("3,1^2"), 2) is None


class TestPhi2:
    def test_worked_example_nonzero_case(self):
        lam = P("157,34,29,11,5,3,1^3")
        assert label(O, lam, 4).index == 2
        mu = phi2(lam, 4)
        assert mu == P("34,29,17^6,11,9^6,5,3,1^4")
        assert label(R, mu, 4).index == 2
        # no part 2t: the largest part split into 4t+1s and 2t+1s only
        assert mu.frequency(8) == 0
        assert psi2(mu, 4) == lam

    def test_worked_example_zero_case_formula(self):
        # the recorded input is actually first-subset material (137 is 1 mod
        # 8), so only the raw formula reproduces the recorded pair
        lam = P("137,33,29,11,5,3,1^3")
        assert label(O, lam, 4).index == 1
        mu = phi2(lam, 4)
        assert mu == P("33,29,17^7,11,9,8,5,3,1^4")
        # the zero case is the one that leaves a part 2t
        assert mu.frequency(8) == 1
        assert psi2(mu, 4) == lam

    def test_round_trip_exhaustive_t2(self):
        found = 0
        for n in range(36, 53):
            for lam in O.members(n, 2):
                if label(O, lam, 2).index != 2:
                    continue
                found += 1
                mu = phi2(lam, 2)
                assert mu.weight == n and label(R, mu, 2).index == 2
                assert psi2(mu, 2) == lam
        assert found > 0

    def test_validation(self):
        # 5 = 2*2*1 + 1 is of the first subset's shape, so 5,1 is no phi2 input
        assert label(O, P("5,1"), 2).index == 1


class TestPhi3:
    def test_worked_example_formula(self):
        lam = P("17,13,11,9,3^25,1^3")
        mu = phi3(lam, 4)
        assert mu == P("25^2,17,13,11,9^3,1^10")
        assert psi3(mu, 4) == lam

    def test_formula_on_small_even_run(self):
        assert phi3(P("2^13,1"), 2) == P("13,5^2,1^4")

    def test_genuine_member_round_trip(self):
        lam = P("3^25,1^3")
        assert label(O, lam, 4).index == 3
        mu = phi3(lam, 4)
        assert label(R, mu, 4).index == 3
        assert psi3(mu, 4) == lam

    def test_round_trip_exhaustive_t2(self):
        found = 0
        for n in range(39, 50):
            for lam in O.members(n, 2):
                if label(O, lam, 2).index != 3:
                    continue
                found += 1
                mu = phi3(lam, 2)
                assert mu.weight == n and label(R, mu, 2).index == 3
                assert psi3(mu, 2) == lam
        assert found > 0


class TestPhi4:
    def test_worked_example(self):
        lam = P("13,7,6,2^2,1^55")
        assert label(O, lam, 4).index == 4
        mu = phi4(lam, 4)
        assert mu == P("33,13,9^2,7,6,2^2,1^4")
        assert label(R, mu, 4).index == 4
        assert psi4(mu, 4) == lam

    def test_all_ones_column(self):
        assert label(O, P("1^27"), 2).index == 4
        mu = phi4(P("1^27"), 2)
        assert mu == P("17,5^2")
        assert label(R, mu, 2).index == 4

    def test_round_trip_exhaustive_t2(self):
        found = 0
        for n in range(27, 45):
            for lam in O.members(n, 2):
                if label(O, lam, 2).index != 4:
                    continue
                found += 1
                mu = phi4(lam, 2)
                assert mu.weight == n and label(R, mu, 2).index == 4
                assert psi4(mu, 2) == lam
        assert found > 0


class TestPhiTotal:
    """The combined map phi: one of phi1..phi4 per O-subset, the fifth not covered."""

    def test_dispatches_by_class(self):
        spec = MAPS["phi"]
        assert list(spec.forward) == [1, 2, 3, 4]
        for lam, mu in (
            (P("17,15,13,10,5,3,2,1^3"), P("15,13,10,9,8,5,3,2,1^3")),
            (P("13,7,6,2^2,1^55"), P("33,13,9^2,7,6,2^2,1^4")),
        ):
            cls = label(O, lam, 4).index
            assert spec.forward[cls](lam, 4) == mu
            assert spec.inverse[cls](mu, 4) == lam


class TestWeightBound:
    def test_reference_values(self):
        assert o5_weight_bound(2) == 2989
        assert o5_weight_bound(3) == 30691

    def test_dominates_exact_cap(self):
        for t in range(2, 51):
            assert o5_weight_bound(t) >= o5_weight_cap(t)

    def test_exact_cap_small_value(self):
        # t=2: eight usable part values {3,7,...,31} at multiplicity 12
        # plus at most 25 ones
        assert o5_weight_cap(2) == 12 * 136 + 25

    def test_residual_members_respect_cap(self):
        for n in range(61):
            for lam in O.members(n, 2):
                if label(O, lam, 2).index == 5:
                    assert lam.weight <= o5_weight_cap(2) <= o5_weight_bound(2)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            o5_weight_bound(1)


class TestGamma:
    gamma = MAPS["gamma"]

    def test_third_case_trades_ones_for_a_two(self):
        assert label(A, P("1^6"), 4).index == 3
        mu = self.gamma.forward[3](P("1^6"), 4)
        assert mu == P("2,1^4")
        assert label(S, mu, 4).index == 3

    def test_first_two_cases_are_identity(self):
        lam = P("1^14")  # ones count 14: 2 mod 6 and -2 mod 8, first subset
        assert label(A, lam, 4).index == 1
        assert self.gamma.forward[1](lam, 4) is lam
        assert label(S, lam, 4).index == 1

    def test_delta3_round_trip(self):
        lam = P("1^6")
        mu = self.gamma.forward[3](lam, 4)
        assert label(S, mu, 4).index == 3
        assert self.gamma.inverse[3] is delta3
        assert delta3(mu, 4) == lam

    def test_delta3_validation(self):
        # 1^4 lies in the third S-subset but has no part 2 to trade back,
        # so it is no image of the third case
        assert label(S, P("1^4"), 4).index == 3
        assert P("1^4").frequency(2) == 0


class TestEpsilon:
    def test_growth_case(self):
        assert label(D2, P("3,1^6"), 2) == SubsetLabel("D2", None)
        mu = epsilon(P("3,1^6"), 2)
        assert mu == P("5,1^4")
        assert label(D1, mu, 2) == SubsetLabel("D1", None)

    def test_all_ones_case(self):
        assert label(D2, P("1^18"), 2) == SubsetLabel("D2", None)
        mu = epsilon(P("1^18"), 2)
        assert mu == P("7^2,1^4")
        assert label(D1, mu, 2) == SubsetLabel("D1", None)

    def test_rejects_small_weight(self):
        # 1^6 is the only D2 member of weight 6, D1 has none, and the formula
        # leaves it unchanged: below epsilon's smallest n there is no image
        assert MAP_MIN_N["epsilon"] == 7
        assert list(D2.members(6, 2)) == [P("1^6")]
        assert list(D1.members(6, 2)) == []
        assert epsilon(P("1^6"), 2) == P("1^6")
        with pytest.raises(ValueError):
            verify_injection("epsilon", 2, 6)

    def test_rejects_non_member(self):
        # four 1s are 4 mod 12: the input is a D1 member, not a D2 one
        assert label(D2, P("3,1^4"), 2) is None

    def test_case_images_are_separated_by_top_parts(self):
        for n in range(7, 41):
            for lam in D2.members(n, 2):
                mu = epsilon(lam, 2)
                assert contains(D1, mu, 2)
                tops = list(mu)[:2] + [0, 0]
                if lam.largest() >= 3:  # the growth case
                    assert tops[0] > tops[1]
                else:
                    assert tops[0] == tops[1]

    def test_injective_by_scan(self):
        for n in range(7, 61):
            seen = {}
            for lam in D2.members(n, 2):
                mu = epsilon(lam, 2)
                assert mu not in seen
                seen[mu] = lam


def tau_case(p: Partition, t: int) -> int:
    """Which of tau's four cases p falls in, in the order tau tests them."""
    if p.frequency(2) >= 1:
        return 1
    lam1 = p.largest()
    if lam1 >= 2 and lam1 % t != t - 1:
        return 2
    if lam1 >= 2:
        return 3
    return 4


class TestTauEta:
    @staticmethod
    def _tau(lam, t, case):
        """tau's image of a C-member in the given case, checked to land in B."""
        assert label(C, lam, t) == SubsetLabel("C", None)
        assert tau_case(lam, t) == case
        mu = tau(lam, t)
        assert label(B, mu, t) == SubsetLabel("B", None)
        return mu

    def test_case1(self):
        assert self._tau(P("2,1^3"), 3, 1) == P("1^5")

    def test_case3(self):
        assert self._tau(P("5,1^3"), 3, 3) == P("4,2,1^2")

    def test_case4(self):
        assert self._tau(P("1^9"), 3, 4) == P("5,2,1^2")
        assert self._tau(P("1^9"), 5, 4) == P("3,2^2,1^2")

    def test_case2(self):
        assert self._tau(P("4,1^3"), 3, 2) == P("5,1^2")

    def test_special_double_two(self):
        # at t=4 with top part 3 the rewrite stacks a second 2
        lam = P("3^2,1^3")
        mu = self._tau(lam, 4, 3)
        assert mu.frequency(2) == 2
        assert eta(mu, 4) == lam

    def test_needs_t_at_least_3(self):
        assert not MAPS["tau"].t_ok(2) and MAPS["tau"].t_ok(3)
        with pytest.raises(ValueError, match="t >= 3"):
            verify_injection("tau", 2, 9)
        with pytest.raises(ValueError, match="t >= 3"):
            verify_injection_range("tau", 2, 9)

    def test_smallest_all_ones_column_has_no_image(self):
        # 1^3 is the only C-member of weight 3 and B has none there; the
        # formula's output does not even keep the weight
        assert list(C.members(3, 3)) == [P("1^3")]
        assert list(B.members(3, 3)) == []
        assert tau(P("1^3"), 3).weight != 3
        assert MAP_MIN_N["tau"] == 4
        with pytest.raises(ValueError):
            verify_injection("tau", 3, 3)

    def test_round_trip_exhaustive(self):
        for t in (3, 4, 5):
            for n in range(4, 31):
                for lam in C.members(n, t):
                    mu = tau(lam, t)
                    assert mu.weight == n and contains(B, mu, t)
                    assert eta(mu, t) == lam

    def test_case4_recognizer_matches_the_shape_test(self):
        # eta takes an image holding a 2 for the all-ones column's exactly
        # when it equals tau(1^n); the reference reads the shape off the parts
        checked = matched = 0
        for t in (3, 4, 5, 6):
            for n in range(37):
                case4 = tau(Partition({1: n}), t) if n else None
                for p in partitions_of(n):
                    if not p.frequency(2):
                        continue
                    checked += 1
                    matched += p == case4
                    assert (p == case4) == is_tau_case4_image_by_shape(p, t)
        assert (checked, matched) == (265092, 20)

    def test_case_images_pairwise_disjoint(self):
        for t in (3, 4, 5):
            for n in range(4, 31):
                by_image = {}
                for lam in C.members(n, t):
                    mu = tau(lam, t)
                    case = tau_case(lam, t)
                    assert by_image.setdefault(mu, case) == case


class TestDriver:
    def test_phi1_cell_with_nonempty_domain(self):
        report = verify_injection("phi1", 4, 65)
        assert report.passed and report.domain_size > 0

    def test_weight_consistent_example_is_in_the_domain(self):
        lam = P("17,15,13,10,5,3,2,1^3")  # weight 68
        report = verify_injection("phi1", 4, 68)
        assert report.passed
        assert any(str(lam) == str(m) for m in O.members(68, 4) if label(O, m, 4).index == 1)

    def test_tau_cell(self):
        report = verify_injection("tau", 3, 9)
        assert report.passed and report.domain_size > 0

    def test_phi_total_cell(self):
        report = verify_injection("phi", 2, 45)
        assert report.passed and report.domain_size == report.image_size > 0

    @pytest.mark.parametrize("run", [
        lambda: verify_injection("gamma", 3, -1),
        lambda: verify_injection_range("gamma", 3, -1),
    ], ids=["lone-cell", "range"])
    def test_rejected_cell_emits_no_warning(self, run):
        # the library never warns: a rejected cell raises, and nothing else
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="is verified for n >= 0"):
                run()
        assert caught == []

    def test_report_serialization_shape(self):
        report = verify_injection("epsilon", 2, 18)
        payload = report.to_dict()
        assert set(payload) == {
            "map", "t", "n", "domain_size", "image_size", "passed", "violations",
        }
        json.dumps(payload)

    def test_range_helper_starts_at_map_minimum(self):
        reports = verify_injection_range("epsilon", 2, 9)
        assert [r.n for r in reports] == [7, 8, 9]

    def test_rejects_unknown_map_and_bad_cells(self):
        with pytest.raises(ValueError):
            verify_injection("sigma", 2, 10)
        with pytest.raises(ValueError):
            verify_injection("epsilon", 3, 10)
        with pytest.raises(ValueError):
            verify_injection("epsilon", 2, 5)
        with pytest.raises(ValueError):
            verify_injection("tau", 2, 10)
        with pytest.raises(ValueError):
            verify_injection("phi", 2, -1)

    def test_range_that_scans_nothing_is_an_error(self):
        with pytest.raises(ValueError):
            verify_injection_range("tau", 3, 3)
        with pytest.raises(ValueError):
            verify_injection_range("phi", 2, -1)

    def test_all_map_ids_run(self):
        for map_id in MAPS:
            t = {"tau": 3, "gamma": 4}.get(map_id, 2)
            n = {"epsilon": 12, "tau": 9}.get(map_id, 10)
            assert verify_injection(map_id, t, n).passed

    def test_every_map_and_t_on_its_range(self):
        # every MAPS entry at each t in 2..5 its rule allows, n up to 20: all
        # cells pass but the gamma t = 2 ones whose images leave S
        reports = [
            r
            for map_id, spec in MAPS.items()
            for t in range(2, 6)
            if spec.t_ok(t)
            for r in verify_injection_range(map_id, t, 20)
        ]
        assert len(reports) == 569
        failed = [(r.map_id, r.t, r.n) for r in reports if not r.passed]
        assert failed == [("gamma", 2, n) for n in (6, 11, 13, 15, 16, 17, 18, 19, 20)]
        kinds = {v.kind for r in reports if not r.passed for v in r.violations}
        assert kinds == {"NotInCodomain"}
        gamma_t3 = [r for r in reports if (r.map_id, r.t) == ("gamma", 3)]
        assert gamma_t3 and all(r.passed for r in gamma_t3)


class TestCheckedEntries:
    """``verify_injection`` is the one checked entry into ``MAPS``: it names what it refuses."""

    def test_rejects_unknown_map_and_bad_cells(self):
        with pytest.raises(ValueError, match="unknown map 'sigma'"):
            verify_injection("sigma", 2, 1)
        with pytest.raises(ValueError, match="unknown map 'sigma'"):
            verify_injection_range("sigma", 2, 10)
        with pytest.raises(ValueError, match=MAPS["epsilon"].t_error):
            verify_injection_range("epsilon", 3, 10)
        with pytest.raises(ValueError, match=MAPS["phi"].t_error):
            verify_injection("phi", 1, 4)


class TestDriverFailures:
    """Broken ``MAPS``/``FAMILIES`` entries: the driver reports each fault it is built to find."""

    @staticmethod
    def _kinds(monkeypatch, spec, t, n, families=()):
        for family in families:
            monkeypatch.setitem(injections.FAMILIES, family.name, family)
        monkeypatch.setitem(injections.MAPS, "broken", spec)
        report = verify_injection("broken", t, n)
        assert report.passed is False
        return [v.kind for v in report.violations], report

    def test_weight_change(self, monkeypatch):
        spec = MAPS["tau"]._replace(
            forward={None: lambda p, t: p.trade((), (1,))}, inverse={}
        )
        kinds, report = self._kinds(monkeypatch, spec, 3, 9)
        assert kinds and set(kinds) == {"NotInCodomain"}
        assert all(v.detail == "weight changed to 10" for v in report.violations)

    def _images_outside(self, monkeypatch, spec, t, n):
        """Every image of the one class of ``spec`` is reported outside its target subset."""
        kinds, report = self._kinds(monkeypatch, spec, t, n)
        assert len(kinds) == report.domain_size > 0 and set(kinds) == {"NotInCodomain"}
        ((cls, image),) = spec.forward.items()
        images = [image(P(v.input), t) for v in report.violations]
        for v, mu in zip(report.violations, images):
            assert v.detail == f"image {mu} outside target subset"
        return cls, images

    # At t = 2 the fourth-subset members of O hold no part 1 mod 4 but 1,
    # and at least 27 ones, which phi4 trades for 17, 5, 5.  Each broken
    # image below misses R by one rule: with that rule relaxed it lies in
    # the fourth R-subset.

    def test_image_with_a_forbidden_part(self, monkeypatch):
        spec = injections.MapSpec("O", "R", {4: lambda p, t: p.trade([1] * 27, (17, 5, 3, 2))}, {})
        cls, images = self._images_outside(monkeypatch, spec, 2, 37)
        # 2 allowed as well: the image's one part that t = 2 divides
        relaxed = R._replace(rules=lambda t: R.rules(t)._replace(allow=(2, 2 * t)))
        for mu in images:
            assert label(R, mu, 2) is None and label(relaxed, mu, 2) == SubsetLabel("R", cls)

    def test_image_without_the_needed_part(self, monkeypatch):
        spec = injections.MapSpec("O", "R", {4: lambda p, t: p.trade([1] * 27, (17, 7, 3))}, {})
        cls, images = self._images_outside(monkeypatch, spec, 2, 37)
        relaxed = R._replace(rules=lambda t: R.rules(t)._replace(needs=0))
        for mu in images:
            assert label(R, mu, 2) is None and label(relaxed, mu, 2) == SubsetLabel("R", cls)

    def test_image_with_a_rejected_one_count(self, monkeypatch):
        # tau left as the identity keeps the 1-count at 3 mod 6
        spec = MAPS["tau"]._replace(forward={None: lambda p, t: p}, inverse={})
        _, images = self._images_outside(monkeypatch, spec, 3, 9)
        relaxed = B._replace(rules=lambda t: B.rules(t)._replace(ones=(0,), mod=1))
        for mu in images:
            assert label(B, mu, 3) is None and label(relaxed, mu, 3) == SubsetLabel("B", None)

    def test_image_in_the_wrong_subset(self, monkeypatch):
        # one 1 fewer traded leaves the 1-count odd: every image lies in R's first subset
        spec = injections.MapSpec("O", "R", {4: lambda p, t: p.trade([1] * 26, (17, 5, 4))}, {})
        _, images = self._images_outside(monkeypatch, spec, 2, 37)
        assert all(label(R, mu, 2) == SubsetLabel("R", 1) for mu in images)

    def test_collision(self, monkeypatch):
        spec = MAPS["tau"]._replace(
            forward={None: lambda p, t: Partition({1: p.weight})}, inverse={}
        )
        kinds, report = self._kinds(monkeypatch, spec, 3, 9)
        assert kinds.count("Collision") == report.domain_size - 1 > 0
        assert report.image_size == 1

    def test_inverse_mismatch(self, monkeypatch):
        spec = MAPS["tau"]._replace(
            forward={None: lambda p, t: p},
            inverse={None: lambda p, t: Partition({1: p.weight})},
        )
        kinds, report = self._kinds(monkeypatch, spec, 3, 9)
        # only 1^9 itself comes back from the inverse unchanged
        assert kinds.count("InverseMismatch") == report.domain_size - 1 > 0
        assert "Collision" not in kinds

    def test_classification_gap_and_overlaps(self, monkeypatch):
        # an odd 1-count falls in no subset, an even one in both
        family = injections.Family(
            "X", lambda t: hookgf.Rules(), subsets=lambda p, t: [] if p.frequency(1) % 2 else [1, 2]
        )
        keep = lambda p, t: p  # noqa: E731
        spec = injections.MapSpec("X", "X", {1: keep, 2: keep}, {})
        # X is the t-regular partitions, so its counting table is T itself
        monkeypatch.setattr(hookgf, "family_table", lambda name, t: {0: {0: 1}})
        kinds, report = self._kinds(monkeypatch, spec, 3, 7, families=(family,))
        members = list(family.members(7, 3))
        odd = sum(1 for p in members if p.frequency(1) % 2)
        assert 0 < odd < len(members)
        assert kinds.count("ClassificationGap") == odd
        # once as a domain member, once as a codomain member
        assert kinds.count("ClassificationOverlap") == 2 * (len(members) - odd)
        assert report.domain_size == 0

    def test_overlapping_codomain_subsets_list_every_member(self, monkeypatch):
        # R's subsets put the read parts 5^2 in two subsets: every member holding
        # exactly them is listed, as the walk of all the members lists them
        t, n = 2, 24

        def subsets(p, t):
            return [2, 3] if projection(R, p, t) == P("5^2") else injections._r_subsets(p, t)

        overlapping = R._replace(subsets=subsets)
        expected = sorted(
            (str(mu), f"R-subsets {subsets(mu, t)} all hold")
            for mu in R.members(n, t)
            if len(subsets(mu, t)) > 1
        )
        assert expected
        monkeypatch.setitem(injections.FAMILIES, "R", overlapping)
        report = verify_injection("phi", t, n)
        found = [(v.input, v.detail) for v in report.violations if v.kind == "ClassificationOverlap"]
        assert found == expected

    def test_walk_that_drops_a_member_is_incomplete(self, monkeypatch):
        # the counting series notices the one C-member the walk skipped
        walk = injections.Family.members
        full = verify_injection("tau", 3, 9)
        skip_first = lambda self, n, t: itertools.islice(walk(self, n, t), 1, None)  # noqa: E731
        monkeypatch.setattr(injections.Family, "members", skip_first)
        kinds, report = self._kinds(monkeypatch, MAPS["tau"], 3, 9)
        assert kinds == ["DomainIncomplete"]
        assert report.violations[0].detail == (
            f"walked {full.domain_size - 1} members, the counting series has {full.domain_size}"
        )
        assert full.passed and report.domain_size == full.domain_size - 1


class TestRawFormulas:
    """The maps are plain ``f(p, t)`` formulas with no checking knob."""

    def test_no_function_takes_validate(self):
        functions = []
        for obj in vars(injections).values():
            if inspect.isclass(obj) and obj.__module__ == injections.__name__:
                functions.extend(f for f in vars(obj).values() if inspect.isfunction(f))
            elif inspect.isfunction(obj):
                functions.append(obj)
        assert functions
        for f in functions:
            assert "validate" not in inspect.signature(f).parameters, f.__qualname__
        for spec in MAPS.values():
            for f in [*spec.forward.values(), *spec.inverse.values()]:
                assert list(inspect.signature(f).parameters) == ["p", "t"], f.__qualname__

    def test_phi_tables_hold_public_module_functions(self):
        # the benchmark tracer rebinds these tables by the identity of each value
        for table in (injections._PHI_FORWARD, injections._PHI_INVERSE):
            for f in table.values():
                assert not f.__name__.startswith("_")
                assert getattr(injections, f.__name__) is f
        # so the combined map must hold the tables themselves, not copies
        assert MAPS["phi"].forward is injections._PHI_FORWARD
        assert MAPS["phi"].inverse is injections._PHI_INVERSE
        for k in (1, 2, 3, 4):
            assert MAPS[f"phi{k}"].forward == {k: injections._PHI_FORWARD[k]}
            assert MAPS[f"phi{k}"].inverse == {k: injections._PHI_INVERSE[k]}

    def test_min_n_table_follows_maps(self):
        assert MAP_MIN_N == {k: s.min_n for k, s in MAPS.items()}
