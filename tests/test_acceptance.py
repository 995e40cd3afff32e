"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with:  pytest tests/test_acceptance.py -v -s

Criteria 2 and 5 pin statements from the project checklist that the verifier
itself demonstrates to be false as stated: the three-part decomposition
identity does not hold at t=2 against true 3-hook counts (the generic
closed form over-counts there), and the E-series has an undeclared negative
coefficient at (t, n) = (2, 6).  Both tests are kept exactly as stated and
are expected to stay red; the corrected statements are covered in the
module test files and the defect signatures are pinned there.
"""

import warnings

from hookcounts.checks import (
    run_identity_check,
    run_oracle_crosscheck,
    run_sign_check,
    run_thm12,
    run_thm13,
)
from hookcounts.hookgf import hook_difference_table
from hookcounts.injections import FAMILIES, phi1, phi2, phi3, phi4, verify_injection_range
from hookcounts.partitions import Partition, hook_multiset
from hookcounts.series import t_regular_gf

from oracles import label, series_of

P = Partition.parse
O = FAMILIES["O"]


def _verdict(number: int, slug: str, ok: bool) -> bool:
    print(f"[acceptance] criterion {number} ({slug}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_oracle_equivalence():
    check = run_oracle_crosscheck(6, 40, (1, 2, 3))
    ok = _verdict(1, "oracle equivalence t<=6 k<=3 n<=40", check.passed)
    assert ok, check.witnesses[:5]


def test_criterion_2_identity_suites():
    ts = (2, 3, 4, 5, 6)
    abc = run_identity_check("abc", ts, 200)
    de = run_identity_check("def", ts, 200)
    ok = _verdict(2, "decomposition identities at order 200", abc.passed and de.passed)
    assert ok, {"abc": abc.witnesses[:3], "def": de.witnesses[:3]}


def test_criterion_3_exact_characterization():
    check = run_thm13(10, 60)
    ok = _verdict(3, "2-hooks >= 3-hooks fails exactly at n=3 for t>=3", check.passed)
    assert ok, {
        "witnesses": check.witnesses,
        "mismatches": check.info["oracle_mismatches"][:5],
    }


def test_criterion_4_bound_for_2_vs_1_at_t2():
    check = run_thm12(2, 3100)
    diff = series_of(2, hook_difference_table(2, 1, 3100), 3100)
    tail_ok = all(diff[n] >= 0 for n in range(2990, 3101))
    ok = _verdict(4, "2-hooks >= 1-hooks for 2990 <= n <= 3100", check.passed and tail_ok)
    assert ok, check.witnesses[:5]


def test_criterion_5_exception_pinning():
    results = {name: run_sign_check(name, (2, 3, 4), 200) for name in "DEF"}
    ok = _verdict(5, "sign-scan exception sets", all(c.passed for c in results.values()))
    assert ok, {name: c.witnesses for name, c in results.items() if not c.passed}


def test_criterion_6_injection_certification():
    grids = [
        ("phi1", 2, 60), ("phi2", 2, 60), ("phi3", 2, 60), ("phi4", 2, 60), ("phi", 2, 60),
        ("phi1", 3, 45), ("phi2", 3, 45), ("phi3", 3, 45), ("phi4", 3, 45), ("phi", 3, 45),
        ("phi1", 4, 45), ("phi2", 4, 45), ("phi3", 4, 45), ("phi4", 4, 45), ("phi", 4, 45),
        ("gamma", 4, 40), ("gamma", 5, 40),
        ("epsilon", 2, 60),
        ("tau", 3, 45), ("tau", 4, 45), ("tau", 5, 45),
    ]
    failed = []
    domain_totals: dict[str, int] = {}
    for map_id, t, n_max in grids:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reports = verify_injection_range(map_id, t, n_max)
        domain_totals[map_id] = domain_totals.get(map_id, 0) + sum(
            r.domain_size for r in reports
        )
        failed.extend(
            (r.map_id, r.t, r.n, r.violations[:2]) for r in reports if not r.passed
        )
    nonempty = all(total > 0 for total in domain_totals.values())
    ok = _verdict(
        6, "injection certificates over the full grids", not failed and nonempty
    )
    assert ok, {"failed": failed[:5], "domain_totals": domain_totals}


def test_criterion_7_worked_examples():
    checks = []

    def in_class(lam, index):
        return label(O, lam, 4).index == index

    # the long-trade map; input is the weight-consistent form of the
    # reference pair (its recorded input carries a stray 7)
    lam = P("17,15,13,10,5,3,2,1^3")
    checks.append(in_class(lam, 1) and phi1(lam, 4) == P("15,13,10,9,8,5,3,2,1^3"))
    lam = P("17,15,13,10,7,5,3,2,1^3")
    checks.append(in_class(lam, 1) and phi1(lam, 4) == P("15,13,10,9,8,7,5,3,2,1^3"))
    # top-part splitting map, both reference pairs (the first is reachable
    # by the raw formula only: its input houses parts of the traded shape,
    # which puts it in the first O-subset)
    checks.append(
        phi2(P("137,33,29,11,5,3,1^3"), 4) == P("33,29,17^7,11,9,8,5,3,1^4")
    )
    lam = P("157,34,29,11,5,3,1^3")
    checks.append(in_class(lam, 2) and phi2(lam, 4) == P("34,29,17^6,11,9^6,5,3,1^4"))
    # heavy-multiplicity dissolution, raw formula for the reference input
    checks.append(
        phi3(P("17,13,11,9,3^25,1^3"), 4) == P("25^2,17,13,11,9^3,1^10")
    )
    # ones-to-big-parts trade
    lam = P("13,7,6,2^2,1^55")
    checks.append(in_class(lam, 4) and phi4(lam, 4) == P("33,13,9^2,7,6,2^2,1^4"))
    # hook multiset of the worked diagram
    checks.append(
        hook_multiset(P("5,3^2,2,1^2"))
        == {10: 1, 7: 2, 6: 1, 5: 1, 4: 2, 3: 1, 2: 3, 1: 4}
    )
    ok = _verdict(7, "reference worked examples, bit-exact", all(checks))
    assert ok, checks


def test_criterion_8_convexity_and_remainder():
    q = t_regular_gf(2, 201).coeffs  # Q(n), the partitions of n into distinct parts
    convex = all(2 * q[n] <= q[n - 1] + q[n + 1] for n in range(4, 201))
    # (q^2 - q^3)(1 - q) T at t = 2
    remainder = series_of(2, {0: {2: 1, 3: -2, 4: 1}}, 200)
    negatives = [n for n, c in enumerate(remainder.coeffs) if c < 0]
    ok = _verdict(8, "distinct-count convexity and remainder negatives", convex and negatives == [3, 6])
    assert ok, {"convex": convex, "negatives": negatives}
