"""Theorem-level checks binding the series, the oracle, and the injections.

Each runner scans a parameter window and reports the sign violations it
finds as witnesses.  A check passes exactly when the witnesses match the
declared exception set restricted to the scanned window, so reruns with the
same flags are byte-identical.  A t or k listed twice is scanned once.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import IO, Callable, Iterable, Mapping, NamedTuple, Sequence

from .hookgf import (
    Table,
    btk_enum_table,
    coefficients,
    hook_difference_table,
    hook_table,
    merge,
    piece_table,
)
from .injections import o5_weight_bound

# thm13 re-derives both hook counts by enumeration up to this n
ENUM_LIMIT = 40

# each identity: its pieces with their signs, and the k of the hook difference
# b(t,2) - b(t,k) that their signed sum must equal
IDENTITIES = {"abc": ({"A": -1, "B": 1, "C": 1}, 1), "def": ({"D": 1, "E": 1, "F": 1}, 3)}

# each sign statement: the n it starts at, and the (t, n) cells where the
# scan is allowed to go negative
SIGN_STATEMENTS = {
    "D": (0, {(2, 6)}),
    "E": (4, {(2, 9)}),
    "F": (0, {(2, 5), (2, 8), (2, 11), (2, 14)}),
}


class TheoremCheck(NamedTuple):
    which: str
    params: dict
    passed: bool
    witnesses: Sequence = ()
    info: Mapping = MappingProxyType({})  # read-only, so no check shares a dict

    def to_dict(self) -> dict:
        d = self._asdict()
        d["witnesses"] = [list(w) for w in self.witnesses]
        d["info"] = dict(self.info)
        return d


def _negatives(
    table: Callable[[int], Table], t_values: Iterable[int], order: int
) -> list[tuple[int, int, int]]:
    """(t, n, c) for each negative coefficient c of the series of table(t), t by t in n order.

    No whole series is held: each is scanned as its blocks are computed.
    """
    return [
        (t, n, c)
        for t in t_values
        for n, c in enumerate(coefficients(t, table(t), order))
        if c < 0
    ]


def thm12_bound(t: int) -> int:
    """The n from which 2-hooks are asserted to dominate 1-hooks."""
    return o5_weight_bound(t) + 1


def _thm12_from_flags(t: int, order: int | None, full: bool) -> TheoremCheck:
    """thm12 to ``order`` (3100 at t = 2, else 2000); ``full`` scans 100 past the bound at least."""
    if full:
        order = max(order or 0, thm12_bound(t) + 100)
    elif order is None:
        order = 3100 if t == 2 else 2000
    return run_thm12(t, order)


def run_thm12(t: int, order: int) -> TheoremCheck:
    """2-hooks dominate 1-hooks from :func:`thm12_bound` on.

    Scans the difference series up to ``order``; the check asserts
    nonnegativity only at and above the bound (runs that stop short of the
    bound are informational and pass vacuously).  The largest n with a
    negative coefficient anywhere in range is recorded.
    """
    bound = thm12_bound(t)
    negatives = _negatives(lambda t: hook_difference_table(t, 1, order), (t,), order)
    witnesses = [(t, n, c) for t, n, c in negatives if n >= bound]
    return TheoremCheck(
        which="thm12",
        params={"t": t, "order": order},
        passed=not witnesses,
        witnesses=witnesses,
        info={
            "bound": bound,
            "asserted_range": [bound, order] if bound <= order else None,
            "largest_negative_n": negatives[-1][1] if negatives else None,
        },
    )


def run_thm13(t_max: int, n_max: int) -> TheoremCheck:
    """2-hooks dominate 3-hooks except at n=3 for t >= 3.

    Series scan over the full window; the oracle cross-check of
    :func:`run_oracle_crosscheck` re-derives both hook counts up to
    :data:`ENUM_LIMIT` and any disagreement fails the check.
    """
    if t_max < 2 or n_max < 3:
        raise ValueError("need t_max >= 2 and n_max >= 3")
    enum_to = min(ENUM_LIMIT, n_max)
    failures = _negatives(lambda t: hook_difference_table(t, 3, n_max), range(2, t_max + 1), n_max)
    mismatches = _oracle_mismatches(tuple(range(2, t_max + 1)), enum_to, (2, 3))
    expected = {(t, 3) for t in range(3, t_max + 1)}
    return TheoremCheck(
        which="thm13",
        params={"t_max": t_max, "n_max": n_max, "enum_limit": enum_to},
        passed={(t, n) for t, n, _ in failures} == expected and not mismatches,
        witnesses=failures,
        info={
            "expected_failures": sorted(expected),
            "oracle_mismatches": mismatches,
        },
    )


def run_sign_check(name: str, t_values: tuple[int, ...], order: int) -> TheoremCheck:
    """Scan one of D, E, F for negative coefficients.

    Passes when the negatives found in range are exactly the declared
    exception cells.  For E the statement starts at n=4; negatives below
    that are recorded as information only.
    """
    if name not in SIGN_STATEMENTS:
        raise ValueError(f"sign checks exist for D, E, F, not {name!r}")
    if order < 30:
        raise ValueError("order must be at least 30")
    if not t_values:
        raise ValueError("need at least one t to scan")
    t_values = tuple(dict.fromkeys(t_values))
    min_n, declared = SIGN_STATEMENTS[name]
    negatives = _negatives(partial(piece_table, name), t_values, order)
    witnesses = [(t, n, c) for t, n, c in negatives if n >= min_n]
    below = [(t, n, c) for t, n, c in negatives if n < min_n]
    expected = {(t, n) for t, n in declared if t in t_values and min_n <= n <= order}
    return TheoremCheck(
        which=f"sign_{name}",
        params={"name": name, "t_values": list(t_values), "order": order, "min_n": min_n},
        passed={(t, n) for (t, n, _) in witnesses} == expected,
        witnesses=sorted(witnesses),
        info={
            "declared_exceptions": sorted(expected),
            "below_range_negatives": sorted(below),
        },
    )


def run_identity_check(which: str, t_values: tuple[int, ...], order: int) -> TheoremCheck:
    """Coefficient-wise identity between a decomposition and a hook difference.

    'abc' checks -A + B + C against the 2-hook minus 1-hook series, 'def'
    checks D + E + F against the 2-hook minus 3-hook series.  The witnesses
    are the nonzero coefficients of the difference of the two sides, one
    merged table whose terms cancelling between the sides cost no pass.
    """
    if which not in IDENTITIES:
        raise ValueError(f"identity checks are {' or '.join(map(repr, IDENTITIES))}, not {which!r}")
    if not t_values:
        raise ValueError("need at least one t to scan")
    t_values = tuple(dict.fromkeys(t_values))
    pieces, k = IDENTITIES[which]
    witnesses = []
    for t in t_values:
        lhs = [(sign, piece_table(name, t)) for name, sign in pieces.items()]
        diff = merge(*lhs, (-1, hook_difference_table(t, k, order)))
        witnesses.extend((t, n, d) for n, d in enumerate(coefficients(t, diff, order)) if d)
    return TheoremCheck(
        which=f"identity_{which}",
        params={"t_values": list(t_values), "order": order},
        passed=not witnesses,
        witnesses=sorted(witnesses),
    )


def _oracle_mismatches(ts: tuple[int, ...], n_max: int, ks: tuple[int, ...]) -> list[tuple]:
    """(t, k, n, enumerated, series) for each cell where the two routes disagree.

    One walk of the partitions of n_max gives the enumerated counts of every
    t; the cells come t by t, then k by k, in n order.
    """
    mismatches = []
    for t, table in btk_enum_table(ts, n_max, ks).items():
        for k in ks:
            s = list(coefficients(t, hook_table(t, k, n_max), n_max))
            mismatches.extend(
                (t, k, n, table[(k, n)], s[n]) for n in range(n_max + 1) if table[(k, n)] != s[n]
            )
    return mismatches


def run_oracle_crosscheck(
    t_max: int, n_max: int, ks: tuple[int, ...] = (1, 2, 3)
) -> TheoremCheck:
    """Enumeration and generating-function hook counts must agree on the grid."""
    if t_max < 2 or n_max < 0 or not ks:
        raise ValueError("need t_max >= 2, n_max >= 0 and at least one k")
    ks = tuple(dict.fromkeys(ks))
    witnesses = _oracle_mismatches(tuple(range(2, t_max + 1)), n_max, ks)
    return TheoremCheck(
        which="oracle",
        params={"t_max": t_max, "n_max": n_max, "ks": list(ks)},
        passed=not witnesses,
        witnesses=sorted(witnesses),
    )


def _sign_from_flags(name: str, t_max: int, order: int) -> TheoremCheck:
    return run_sign_check(name, tuple(range(2, t_max + 1)), order)


def _oracle_from_flags(t_max: int, n_max: int, k_max: int) -> TheoremCheck:
    return run_oracle_crosscheck(t_max, n_max, tuple(range(1, k_max + 1)))


class CheckSpec(NamedTuple):
    """A theorem check: the flags it reads with their defaults, and its runner."""

    defaults: dict
    run: Callable[..., TheoremCheck]


# every check of ``hooks verify theorem --which``, in the order its help lists
# them, one sign check per entry of SIGN_STATEMENTS: the runner is called with
# the check's flags as keywords, and giving a check a theorem flag it does not
# read is a usage error.  Each runner looks its run_* function up when called
# (hence thm13's lambda), so one rebound on this module, by a test's
# monkeypatch or the benchmark's tracer, is the one run
CHECKS = {
    "thm12": CheckSpec({"t": 2, "order": None, "full": False}, _thm12_from_flags),
    "thm13": CheckSpec({"t_max": 10, "n_max": 60}, lambda t_max, n_max: run_thm13(t_max, n_max)),
    **{
        name.lower(): CheckSpec({"t_max": 4, "order": 200}, partial(_sign_from_flags, name))
        for name in SIGN_STATEMENTS
    },
    "oracle": CheckSpec({"t_max": 6, "n_max": 40, "k_max": 3}, _oracle_from_flags),
}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def emit(obj, fmt: str, stream: IO[str]) -> None:
    """Serialize a check, or a list of injection reports, in a format of :data:`FORMATS`."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    FORMATS[fmt](obj, stream)


def _emit_json(obj, stream: IO[str]) -> None:
    import json  # here, so the other formats and every import of cli skip loading it

    payload = obj.to_dict() if isinstance(obj, TheoremCheck) else [r.to_dict() for r in obj]
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _emit_csv(obj, stream: IO[str]) -> None:
    if isinstance(obj, TheoremCheck):
        stream.write("which,passed,witness\n")
        if not obj.witnesses:
            stream.write(f"{obj.which},{obj.passed},\n")
        for w in obj.witnesses:
            cell = ";".join(str(x) for x in w)
            stream.write(f"{obj.which},{obj.passed},{cell}\n")
        return
    stream.write("map,t,n,domain_size,image_size,passed\n")
    for r in obj:
        stream.write(f"{r.map_id},{r.t},{r.n},{r.domain_size},{r.image_size},{r.passed}\n")


def _emit_human(obj, stream: IO[str]) -> None:
    if isinstance(obj, TheoremCheck):
        verdict = "PASS" if obj.passed else "FAIL"
        stream.write(f"{obj.which}: {verdict}  params={obj.params}\n")
        for w in obj.witnesses:
            stream.write(f"  witness: {w}\n")
        for key, value in sorted(obj.info.items()):
            stream.write(f"  {key}: {value}\n")
        return
    for r in obj:
        verdict = "PASS" if r.passed else "FAIL"
        stream.write(
            f"{r.map_id} t={r.t} n={r.n}: {verdict}  "
            f"domain={r.domain_size} image={r.image_size}\n"
        )
        for v in r.violations:
            stream.write(f"  {v.kind}: {v.input} ({v.detail})\n")


# every output format, by the name ``--format`` takes, with its writer; all are
# deterministic
FORMATS = {"json": _emit_json, "csv": _emit_csv, "human": _emit_human}
