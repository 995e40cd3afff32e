"""Partition families, the weight-preserving injections, and their driver.

Every map here transforms a partition of n into another partition of n.  Each
is a raw formula ``f(p, t)``, written as one part trade per case: a forward
map is right on its class of a frequency-congruence family of t-regular
partitions, an inverse on the forward images, and neither checks its input.

Each family is described once, as a :class:`Family` record in
:data:`FAMILIES`; each injection once, as a :class:`MapSpec` entry in
:data:`MAPS`.  :func:`verify_injection`, the one runner of those entries,
walks the domain, classifies each member and certifies, for one (map, t, n)
cell, that the map is well defined into its codomain, weight preserving,
collision free, inverted by its declared inverse, that the relevant subset
classifications partition / stay disjoint, and that the walk met as many
domain members as the family's counting series counts.  Failures become
report entries, never exceptions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from . import hookgf
from .partitions import Partition, partitions_of


@dataclass(frozen=True)
class SubsetLabel:
    """Classification of a partition inside one of the named families.

    ``index`` is the subset number where the family is subdivided (O: 1..5,
    R: 1..4, A and S: 1..3); ``None`` marks a family member outside the
    indexed subsets (possible for R and S, whose listed subsets do not cover
    the family) or a member of an undivided family.
    """

    family: str
    index: int | None


@dataclass(frozen=True)
class Violation:
    input: str
    kind: str
    detail: str


@dataclass
class VerificationReport:
    map_id: str
    t: int
    n: int
    domain_size: int
    image_size: int
    violations: list[Violation] = field(default_factory=list)
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "map": self.map_id,
            "t": self.t,
            "n": self.n,
            "domain_size": self.domain_size,
            "image_size": self.image_size,
            "passed": self.passed,
            "violations": [
                {"input": v.input, "kind": v.kind, "detail": v.detail}
                for v in self.violations
            ],
        }


# ---------------------------------------------------------------------------
# partition families
# ---------------------------------------------------------------------------


def _check_t(t: int) -> None:
    if t < 2:
        raise ValueError("t must be at least 2")


@dataclass(frozen=True)
class Family:
    """A family of partitions: a part rule, a 1-count rule and a needed part.

    ``parts(v, t)`` is the rule every part value v obeys and ``ones(f1, t)``
    the rule on the number of 1s (by default any number); :meth:`members`
    hands both to :func:`partitions_of`, which asks each once per value, so
    partitions breaking either are never built.  ``needs(t)``, if set, is a
    part >= 2 of the part rule that every member holds at least once.
    ``subsets(p, t)``, called on members only, lists the indices of the
    named subsets whose defining condition p satisfies (by default none).
    """

    name: str
    parts: Callable[[int, int], bool]
    ones: Callable[[int, int], bool] = lambda f1, t: True
    needs: Callable[[int], int] | None = None
    subsets: Callable[[Partition, int], list[int]] = lambda p, t: []

    def contains(self, p: Partition, t: int) -> bool:
        _check_t(t)
        return (
            all(self.parts(v, t) for v, _ in p.items())
            and self.ones(p.frequency(1), t)
            and (self.needs is None or p.frequency(self.needs(t)) >= 1)
        )

    def members(self, n: int, t: int) -> Iterator[Partition]:
        """The members of weight n, in the order of :func:`partitions_of`.

        With a needed part x, the walk runs over n - x and puts one x back
        into each partition; adding the same part to all of them keeps
        their order.
        """
        _check_t(t)
        parts = lambda v: self.parts(v, t)  # noqa: E731
        ones = lambda r: self.ones(r, t)  # noqa: E731
        if self.needs is None:
            return partitions_of(n, parts, ones)
        x = self.needs(t)
        if 0 <= n < x:
            return iter(())
        return (p.trade((), (x,)) for p in partitions_of(n - x, parts, ones))

    def label(self, p: Partition, t: int) -> SubsetLabel | None:
        """The first subset p falls in; None outside the family."""
        if not self.contains(p, t):
            return None
        ms = self.subsets(p, t)
        return SubsetLabel(self.name, ms[0] if ms else None)


def _one_mod_ks(p: Partition, t: int) -> list[int]:
    """All k >= 1 such that 2kt+1 appears as a part."""
    step = 2 * t
    return sorted((v - 1) // step for v, _ in p.items() if v > 1 and v % step == 1)


def _o_subsets(p: Partition, t: int) -> list[int]:
    """The one O-subset p falls in: each condition holds only where those before it fail."""
    if _one_mod_ks(p, t):
        return [1]
    if p.largest() >= 8 * t * t + 1:
        return [2]
    if any(v >= 2 and m >= 6 * t + 1 for v, m in p.items()):
        return [3]
    return [4] if p.frequency(1) >= 12 * t + 3 else [5]


def _r_subsets(p: Partition, t: int) -> list[int]:
    if p.frequency(1) % 2 == 1:
        return [1]
    out = []
    ks = set(_one_mod_ks(p, t))
    f = p.frequency
    if f(4 * t + 1) + f(2 * t + 1) >= 2 and ks <= {1, 2}:
        out.append(2)
    if f(6 * t + 1) > 0 and ks <= {1, 3}:
        out.append(3)
    if f(8 * t + 1) > 0 and ks <= {1, 4}:
        out.append(4)
    return out


def _a_subsets(p: Partition, t: int) -> list[int]:
    return [{2: 1, 4: 2, 0: 3}[p.frequency(1) % 6]]


def _s_subsets(p: Partition, t: int) -> list[int]:
    f1 = p.frequency(1)
    out = []
    if f1 % 6 == 2:
        out.append(1)
    if f1 % 6 == 4 and f1 % (2 * t) == (2 * t - 2):
        out.append(2)
    if f1 % 6 == 4 and f1 % (2 * t) == (-4) % (2 * t):
        out.append(3)
    return out


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        # t-regular with an odd number of 1s
        Family("O", lambda v, t: v % t != 0, lambda f1, t: f1 % 2 == 1, subsets=_o_subsets),
        # no part is a multiple of t other than 2t, and the part 2t+1 appears
        Family(
            "R",
            lambda v, t: v % t != 0 or v == 2 * t,
            needs=lambda t: 2 * t + 1,
            subsets=_r_subsets,
        ),
        # t-regular, no part 3, and the number of 1s is -2 mod 2t
        Family(
            "A",
            lambda v, t: v % t != 0 and v != 3,
            lambda f1, t: f1 % (2 * t) == 2 * t - 2,
            subsets=_a_subsets,
        ),
        # t-regular with the number of 1s congruent to 2 or 4 mod 6
        Family("S", lambda v, t: v % t != 0, lambda f1, t: f1 % 6 in (2, 4), subsets=_s_subsets),
        # t-regular with the number of 1s congruent to 2 or 5 mod 6
        Family("B", lambda v, t: v % t != 0, lambda f1, t: f1 % 6 in (2, 5)),
        # t-regular with the number of 1s congruent to 3 mod 6
        Family("C", lambda v, t: v % t != 0, lambda f1, t: f1 % 6 == 3),
        # 2-regular whatever t, with the number of 1s 4 resp. 6 mod 12
        Family("D1", lambda v, t: v % 2 != 0, lambda f1, t: f1 % 12 == 4),
        Family("D2", lambda v, t: v % 2 != 0, lambda f1, t: f1 % 12 == 6),
    )
}


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------

# a raw formula f(p, t), right only on its class
RawMap = Callable[[Partition, int], Partition]


def phi1(p: Partition, t: int) -> Partition:
    """Trade the smallest part of shape 2kt+1 for one 2t+1 and (k-1) parts 2t."""
    k = _one_mod_ks(p, t)[0]
    return p.trade((2 * k * t + 1,), [2 * t + 1] + [2 * t] * (k - 1))


def phi1_inv(p: Partition, t: int) -> Partition:
    """Inverse of phi1 on its image: k is recovered as 1 + (number of 2t parts)."""
    m = p.frequency(2 * t)
    return p.trade([2 * t + 1] + [2 * t] * m, (2 * (m + 1) * t + 1,))


def _phi2_xy(lam1: int, t: int) -> tuple[int, int]:
    """The (x, y) with lam1 - 1 = x(2t+1) + y(4t+1) and 0 <= y <= 2t.

    y is solved by modular inversion: 4t+1 is -1 modulo 2t+1, so
    y = (1 - lam1) mod (2t+1).  x >= 0 once lam1 > 8t^2.
    """
    y = (1 - lam1) % (2 * t + 1)
    return (lam1 - 1 - y * (4 * t + 1)) // (2 * t + 1), y


def phi2(p: Partition, t: int) -> Partition:
    """Break the largest part into parts 4t+1 and 2t+1 (plus a fixed tail)."""
    lam1 = p.largest()
    x, y = _phi2_xy(lam1, t)
    if x:
        added = [4 * t + 1] * y + [2 * t + 1] * x + [1]
    else:
        added = [4 * t + 1] * (y - 1) + [2 * t + 1, 2 * t, 1]
    return p.trade((lam1,), added)


def psi2(p: Partition, t: int) -> Partition:
    """Inverse of phi2 on its image: reassemble the removed largest part."""
    f = p.frequency
    a, b, c = f(4 * t + 1), f(2 * t + 1), f(2 * t)
    lam1 = 1 + (4 * t + 1) * a + (2 * t + 1) * b + 2 * t * c
    return p.trade([4 * t + 1] * a + [2 * t + 1] * b + [2 * t] * c + [1], (lam1,))


def phi3(p: Partition, t: int) -> Partition:
    """Dissolve the smallest heavily repeated part value into a fixed pattern."""
    l = min(v for v, m in p.items() if v >= 2 and m >= 6 * t + 1)
    return p.trade([l] * (6 * t + 1), [6 * t + 1] * (l - 1) + [2 * t + 1] * 2 + [1] * (2 * t - 1))


def psi3(p: Partition, t: int) -> Partition:
    """Inverse of phi3 on its image: the repeated value is 1 + (count of 6t+1 parts)."""
    m = p.frequency(6 * t + 1)
    return p.trade([6 * t + 1] * m + [2 * t + 1] * 2 + [1] * (2 * t - 1), [m + 1] * (6 * t + 1))


def phi4(p: Partition, t: int) -> Partition:
    """Convert 12t+3 ones into the parts 8t+1, 2t+1, 2t+1."""
    return p.trade([1] * (12 * t + 3), (8 * t + 1, 2 * t + 1, 2 * t + 1))


def psi4(p: Partition, t: int) -> Partition:
    """Inverse of phi4 on its image."""
    return p.trade((8 * t + 1, 2 * t + 1, 2 * t + 1), [1] * (12 * t + 3))


_PHI_FORWARD: dict[int, RawMap] = {1: phi1, 2: phi2, 3: phi3, 4: phi4}
_PHI_INVERSE: dict[int, RawMap] = {1: phi1_inv, 2: psi2, 3: psi3, 4: psi4}


def o5_weight_cap(t: int) -> int:
    """Exact largest weight a residual-class (index 5) partition can have.

    Parts are at most 8t^2, avoid multiples of t and values 1 mod 2t, carry
    multiplicity at most 6t, and at most 12t+1 ones (odd and <= 12t+2).
    """
    _check_t(t)
    m = 8 * t * t
    sum_all = m * (m + 1) // 2 - 1
    sum_mult_t = t * (8 * t) * (8 * t + 1) // 2
    sum_one_mod = (4 * t - 1) * (4 * t * t + 1)
    return 6 * t * (sum_all - sum_mult_t - sum_one_mod) + 12 * t + 1


def o5_weight_bound(t: int) -> int:
    """Polynomial weight bound above which the residual class is empty.

    Returns 192t^5 - 192t^4 - 24t^3 + 24t^2 + 6t + 1 and checks that it
    dominates the exact cap from :func:`o5_weight_cap`, so emptiness beyond
    the polynomial is safe.
    """
    _check_t(t)
    bound = 192 * t**5 - 192 * t**4 - 24 * t**3 + 24 * t**2 + 6 * t + 1
    cap = o5_weight_cap(t)
    if bound < cap:
        raise RuntimeError(f"polynomial bound {bound} fails to dominate cap {cap}")
    return bound


def _keep(p: Partition, t: int) -> Partition:
    return p


def _two_ones_to_two(p: Partition, t: int) -> Partition:
    return p.trade((1, 1), (2,))


def delta3(p: Partition, t: int) -> Partition:
    """Inverse of the third gamma case: trade a 2 back for two 1s."""
    return p.trade((2,), (1, 1))


# gamma: the identity on the first two A-subsets, two 1s traded for a 2 on the third
_GAMMA_FORWARD: dict[int, RawMap] = {1: _keep, 2: _keep, 3: _two_ones_to_two}
_GAMMA_INVERSE: dict[int, RawMap] = {1: _keep, 2: _keep, 3: delta3}


def epsilon(p: Partition, t: int) -> Partition:
    """t=2 map: grow the largest part by 2 at the cost of two 1s.

    The all-ones column (largest part 1) maps to the two-equal-parts pattern
    instead; the two case images are disjoint since only the second produces
    equal top parts.
    """
    lam1 = p.largest()
    if lam1 >= 3:
        return p.trade((lam1, 1, 1), (lam1 + 2,))
    k = (p.weight - 6) // 12
    return Partition.from_parts([6 * k + 1] * 2 + [1] * 4)


def _tau_case4_pattern(n: int, t: int) -> Partition:
    k = (n - 3) // 6
    if t >= 5:
        return Partition.from_parts([3] + [2] * (3 * k - 1) + [1, 1])
    return Partition.from_parts([5] + [2] * (3 * k - 2) + [1, 1])


def tau(p: Partition, t: int) -> Partition:
    """Move the 1-count from 3 mod 6 to 2 or 5 mod 6, in four cases.

    With a 2, trade it for two 1s; else with a top part l >= 2, merge a 1
    into l when l is not t-1 mod t, or trade l and a 1 for l-1 and a 2
    when it is; the all-ones column 1^n becomes a fixed pattern whose top
    part is 3 (t >= 5) or 5 (t = 3, 4) over 2s and two 1s.
    """
    lam1 = p.largest()
    if p.frequency(2) >= 1:
        return p.trade((2,), (1, 1))
    if lam1 >= 2 and lam1 % t != t - 1:
        return p.trade((lam1, 1), (lam1 + 1,))
    if lam1 >= 2:
        return p.trade((lam1, 1), (lam1 - 1, 2))
    return _tau_case4_pattern(p.weight, t)


def eta(p: Partition, t: int) -> Partition:
    """Inverse of tau on its image, dispatched by 1-count residue and 2-parts.

    1-count 5 mod 6 undoes the first case and no 2 the second.  An image
    holding a 2 is the all-ones column's exactly when it equals the pattern
    tau builds at its weight; any other undoes the third case.
    """
    if p.frequency(1) % 6 == 5:
        return p.trade((1, 1), (2,))
    if p.frequency(2) == 0:
        lam1 = p.largest()
        return p.trade((lam1,), (lam1 - 1, 1))
    if p.weight % 6 == 3 and p == _tau_case4_pattern(p.weight, t):
        return Partition({1: p.weight})
    v = max(v for v, _ in p.items() if v % t == t - 2)
    return p.trade((v, 2), (v + 1, 1))


# ---------------------------------------------------------------------------
# the maps as data, and the verification driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapSpec:
    """One injection: domain and codomain families, and its maps per class.

    ``forward`` and ``inverse`` map a class to a raw formula ``f(p, t)``:
    the keys of ``forward`` are the domain subsets the map covers (``None``
    for the members in no subset, so for all of an undivided domain), and a
    class absent from ``inverse`` has no declared inverse.  A raw formula
    checks nothing and is right only on its class (the inverse on the
    forward images), so only :func:`verify_injection` calls one, on the
    domain members it has classified.  The map is verified for
    ``n >= min_n`` and the t for which ``t_ok(t)`` holds; ``t_error`` says
    which those are.  The paper proves the images t-regular for
    ``t >= regular_from`` only; a smaller allowed t runs with a warning.
    """

    domain: str
    codomain: str
    forward: Mapping[int | None, RawMap]
    inverse: Mapping[int | None, RawMap]
    min_n: int = 0
    t_ok: Callable[[int], bool] = lambda t: t >= 2
    t_error: str = "t must be at least 2"
    regular_from: int = 2


# phi holds the _PHI_* tables themselves, not copies: bench/tracer.py rebinds them in place
MAPS: dict[str, MapSpec] = {
    **{
        f"phi{k}": MapSpec("O", "R", {k: _PHI_FORWARD[k]}, {k: _PHI_INVERSE[k]})
        for k in (1, 2, 3, 4)
    },
    "phi": MapSpec("O", "R", _PHI_FORWARD, _PHI_INVERSE),
    "gamma": MapSpec("A", "S", _GAMMA_FORWARD, _GAMMA_INVERSE, regular_from=4),
    "epsilon": MapSpec(
        "D2", "D1", {None: epsilon}, {}, min_n=7,
        t_ok=lambda t: t == 2, t_error="epsilon is a t=2 map",
    ),
    "tau": MapSpec(
        "C", "B", {None: tau}, {None: eta}, min_n=4,
        t_ok=lambda t: t >= 3, t_error="tau needs t >= 3",
    ),
}

# smallest verified n per map
MAP_MIN_N = {map_id: spec.min_n for map_id, spec in MAPS.items()}


def _spec(map_id: str, t: int, n: int, warn: bool, suffix: str = "") -> MapSpec:
    """Check (map, t, n), then warn below ``regular_from``; ``suffix`` ends the n error."""
    spec = MAPS.get(map_id)
    if spec is None:
        raise ValueError(f"unknown map {map_id!r}")
    if not spec.t_ok(t):
        raise ValueError(spec.t_error)
    if n < spec.min_n:
        raise ValueError(f"{map_id} is verified for n >= {spec.min_n}{suffix}")
    if warn and t < spec.regular_from:
        message = f"{map_id} images need not stay {t}-regular for t < {spec.regular_from}"
        warnings.warn(message, RuntimeWarning)
    return spec


def verify_injection(map_id: str, t: int, n: int, *, warn: bool = True) -> VerificationReport:
    """Certify one (map, t, n) cell exhaustively; see the module docstring.

    A map with several classes also reports domain members in no class or
    in several (gap, overlap) and codomain members in several subsets.  The
    number of domain members walked is checked against the family's
    counting series, an independent route (DomainIncomplete).
    Single-threaded; violations are sorted by canonical input text, so
    reports are deterministic.  ``warn=False`` leaves out the warning of
    a t below the entry's ``regular_from``, which belongs to the (map, t)
    pair: a caller running many cells of one pair warns once itself.
    """
    spec = _spec(map_id, t, n, warn)
    domain, codomain = FAMILIES[spec.domain], FAMILIES[spec.codomain]
    several = len(spec.forward) > 1
    violations: list[Violation] = []

    def violate(p: Partition, kind: str, detail: str) -> None:
        violations.append(Violation(str(p), kind, detail))

    images: dict[Partition, Partition] = {}
    domain_size = walked = 0
    for lam in domain.members(n, t):
        walked += 1
        ms = domain.subsets(lam, t)
        if several and not ms:
            violate(lam, "ClassificationGap", f"no {domain.name}-subset condition holds")
            continue
        if several and len(ms) > 1:
            violate(lam, "ClassificationOverlap", f"{domain.name}-subsets {ms} all hold")
            continue
        cls = ms[0] if ms else None
        if cls not in spec.forward:
            continue
        domain_size += 1
        mu = spec.forward[cls](lam, t)
        if mu.weight != n:
            violate(lam, "NotInCodomain", f"weight changed to {mu.weight}")
        elif (label := codomain.label(mu, t)) is None or label.index != cls:
            violate(lam, "NotInCodomain", f"image {mu} outside target subset")
        if mu in images:
            violate(lam, "Collision", f"image {mu} already produced by {images[mu]}")
        else:
            images[mu] = lam
        inverse = spec.inverse.get(cls)
        if inverse is not None:
            back = inverse(mu, t)
            if back != lam:
                violate(lam, "InverseMismatch", f"inverse returned {back}")

    counted = hookgf.set_cardinality_series(spec.domain, t, n)[n]
    if walked != counted:
        detail = f"walked {walked} members, the counting series has {counted}"
        violations.append(Violation(domain.name, "DomainIncomplete", detail))

    if several:
        for mu in codomain.members(n, t):
            ms = codomain.subsets(mu, t)
            if len(ms) > 1:
                violate(mu, "ClassificationOverlap", f"{codomain.name}-subsets {ms} all hold")

    violations.sort(key=lambda v: (v.input, v.kind, v.detail))
    return VerificationReport(
        map_id=map_id,
        t=t,
        n=n,
        domain_size=domain_size,
        image_size=len(images),
        violations=violations,
        passed=not violations and len(images) == domain_size,
    )


def verify_injection_range(map_id: str, t: int, n_max: int) -> list[VerificationReport]:
    """Reports for every n from the map's smallest verified n up to n_max.

    A t below the entry's ``regular_from`` warns once for the range, not
    once per cell.
    """
    start = _spec(map_id, t, n_max, True, f"; n_max={n_max} scans nothing").min_n
    return [verify_injection(map_id, t, n, warn=False) for n in range(start, n_max + 1)]
