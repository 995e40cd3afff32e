"""Partition families, the weight-preserving injections, and their driver.

Every map here transforms a partition of n into another partition of n.  Each
is a raw formula ``f(p, t)``, written as one part trade per case: a forward
map is right on its class of a frequency-congruence family of t-regular
partitions, an inverse on the forward images, and neither checks its input.
Each returns a :class:`Partition`, which the driver keys and compares by its
``items()``, so equal partitions built separately are one image.

Each family's part rule, 1-count rule and needed part are declared once,
in ``hookgf.FAMILY_RULES``, whose counting tables come from the same
record; :data:`FAMILIES` adds each family's subsets.  Each injection is
declared once, as a :class:`MapSpec` entry in :data:`MAPS`.
:func:`verify_injection`, the one runner of those entries, walks the
domain, classifies each member and certifies, for one (map, t, n) cell,
that the map is well defined into its codomain, weight preserving,
collision free, inverted by its declared inverse, that the relevant subset
classifications partition / stay disjoint, and that the walk met as many
domain members as the family's counting series counts (a check of the walk
and of the table's derivation, not of the declaration they share).  The
codomain subsets are checked disjoint on one partition per multiset of the
parts their classifier reads (R: the parts 1 mod 2t, S: the 1s); the
codomain members are walked, to list them, only when one of those lies in
two.  Failures become report entries, never exceptions.
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from . import hookgf
from .partitions import Partition, partitions_of
from .series import check_t


class Violation(NamedTuple):
    input: str
    kind: str
    detail: str


class VerificationReport(NamedTuple):
    map_id: str
    t: int
    n: int
    domain_size: int
    image_size: int
    violations: Sequence[Violation] = ()
    passed: bool = False

    def to_dict(self) -> dict:
        d = self._asdict()
        d["map"] = d.pop("map_id")
        d["violations"] = [v._asdict() for v in self.violations]
        return d


# ---------------------------------------------------------------------------
# partition families
# ---------------------------------------------------------------------------


class Family(NamedTuple):
    """A family of partitions: its rules, declared in ``hookgf.FAMILY_RULES``, and its subsets.

    ``rules(t)`` is the family's :class:`~hookcounts.hookgf.Rules` at t, and
    :meth:`predicates` reads it once per call.  :meth:`members` hands its
    part rule, 1-count rule and needed part to :func:`partitions_of`, so
    partitions breaking a rule are never built; :meth:`membership`
    tabulates them once up to a weight n and is the one membership test.
    ``subsets(p, t)`` lists the indices of the named subsets whose defining
    condition p satisfies (by default none).  It reads only the parts v for
    which ``reads(v, t)`` holds (by default every part), so it gives a
    member and the member's read parts alone, its projection, the same
    verdict; :meth:`projections` lists one partition per such verdict.
    """

    name: str
    rules: Callable[[int], hookgf.Rules]
    subsets: Callable[[Partition, int], list[int]] = lambda p, t: []
    reads: Callable[[int, int], bool] = lambda v, t: True

    def predicates(self, t: int) -> tuple[Callable[[int], bool], Callable[[int], bool], int]:
        """The part rule and the 1-count rule at t, and the needed part (0: none)."""
        check_t(t)
        allow, forbid, ones, mod, needs = self.rules(t)
        parts = lambda v: v % t != 0 and v not in forbid or v in allow  # noqa: E731
        return parts, lambda f1: f1 % mod in ones, needs

    def membership(self, n: int, t: int) -> Callable[[Partition], bool]:
        """The membership test for weights up to n: rules tabulated once, one loop over p's items."""
        parts, ones, x = self.predicates(t)  # x = 0 is no part, so never missing
        part_ok = [False] + [parts(v) for v in range(1, n + 1)]
        ones_ok = [ones(r) for r in range(n + 1)]

        def holds(p: Partition) -> bool:
            f1, has_x = 0, x == 0
            for v, m in p.items():
                if not part_ok[v]:
                    return False
                if v == x:
                    has_x = True
                elif v == 1:
                    f1 = m
            return has_x and ones_ok[f1]

        return holds

    def members(self, n: int, t: int) -> Iterator[Partition]:
        """The members of weight n, in the order of :func:`partitions_of`."""
        return partitions_of(n, *self.predicates(t))

    def projections(self, n: int, t: int) -> Iterator[Partition]:
        """One partition per multiset of read parts among the members of weight n.

        A member's projection keeps the parts ``reads`` names, so it weighs
        w <= n.  1 and the needed part must be read (else ValueError), so a
        read-part partition is a projection when it obeys the 1-count rule,
        holds the needed part and n - w is a sum of allowed unread parts.
        The walk is the partitions of n into read parts: one with c 1s
        stands for its parts >= 2 with r <= c 1s, the c - r others left to
        the unread parts.  With every part read these are :meth:`members`,
        in their order.
        """
        parts, ones, x = self.predicates(t)
        reads = self.reads
        if not reads(1, t) or x and not reads(x, t):
            raise ValueError(f"the subsets of {self.name} must read the part 1 and the needed part")
        size = max(n, x, 0) + 1  # the walk asks its part rule about x even when n < x
        read_ok = [False] * size
        fill, full = 1, (1 << size) - 1  # bit r: r is a sum of allowed unread parts
        for v in range(1, size):
            if not parts(v):
                continue
            if reads(v, t):
                read_ok[v] = True
            else:  # each doubling of s adds up to as many copies of v again
                s = v
                while s <= n:
                    fill = (fill | fill << s) & full
                    s *= 2
        ones_ok = [ones(r) for r in range(n + 1)]
        walk = partitions_of(n, read_ok.__getitem__, None, x)

        def ends() -> Iterator[Partition]:
            for p in walk:
                items, c = p.items(), p.frequency(1)
                head = items[:-1] if c else items
                for r in range(c, -1, -1):
                    if ones_ok[r] and fill >> (c - r) & 1:
                        yield Partition._from_sorted_items(head + ((1, r),) if r else head, n - c + r)

        return ends()


def _o_subsets(p: Partition, t: int) -> list[int]:
    """The one O-subset p falls in: each condition holds only where those before it fail."""
    step, heavy_at = 2 * t, 6 * t + 1
    f1, heavy = 0, False
    items = p.items()
    for v, m in items:
        if v == 1:
            f1 = m
        elif v % step == 1:
            return [1]
        elif m >= heavy_at:
            heavy = True
    if items and items[0][0] >= 8 * t * t + 1:  # the largest part
        return [2]
    if heavy:
        return [3]
    return [4] if f1 >= 12 * t + 3 else [5]


def _r_subsets(p: Partition, t: int) -> list[int]:
    step = 2 * t
    ks: dict[int, int] = {}  # k -> multiplicity of the part 2kt+1; k = 0 holds the 1-count
    for v, m in p.items():
        if v % step == 1:
            ks[v // step] = m
    if ks.pop(0, 0) % 2 == 1:
        return [1]
    out = []
    if ks.get(1, 0) + ks.get(2, 0) >= 2 and ks.keys() <= {1, 2}:
        out.append(2)
    if 3 in ks and ks.keys() <= {1, 3}:
        out.append(3)
    if 4 in ks and ks.keys() <= {1, 4}:
        out.append(4)
    return out


_A_SUBSET = {2: 1, 4: 2, 0: 3}  # A's subset by the 1-count mod 6


def _a_subsets(p: Partition, t: int) -> list[int]:
    return [_A_SUBSET[p.frequency(1) % 6]]


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


def _one_mod_2t(v: int, t: int) -> bool:
    return v % (2 * t) == 1


# name -> the subsets, and the part values they read where not every part;
# the undivided families keep Family's defaults, no subsets
_SUBSETS = {
    "O": (_o_subsets,),
    "R": (_r_subsets, _one_mod_2t),
    "A": (_a_subsets,),
    "S": (_s_subsets, lambda v, t: v == 1),
}

FAMILIES: dict[str, Family] = {
    name: Family(name, rules, *_SUBSETS.get(name, ()))
    for name, rules in hookgf.FAMILY_RULES.items()
}


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------

# a raw formula f(p, t), right only on its class
RawMap = Callable[[Partition, int], Partition]


def phi1(p: Partition, t: int) -> Partition:
    """Trade the smallest part of shape 2kt+1 for one 2t+1 and (k-1) parts 2t."""
    step = 2 * t
    for v, _ in reversed(p.items()):
        if v > 1 and v % step == 1:
            break
    return p.trade((v,), [2 * t + 1] + [2 * t] * (v // step - 1))


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
    check_t(t)
    m = 8 * t * t
    sum_all = m * (m + 1) // 2 - 1
    sum_mult_t = t * (8 * t) * (8 * t + 1) // 2
    sum_one_mod = (4 * t - 1) * (4 * t * t + 1)
    return 6 * t * (sum_all - sum_mult_t - sum_one_mod) + 12 * t + 1


def o5_weight_bound(t: int) -> int:
    """Polynomial weight bound above which the residual class is empty.

    Returns 192t^5 - 192t^4 - 24t^3 + 24t^2 + 6t + 1 and checks that it
    dominates the exact cap from :func:`o5_weight_cap`, which checks t, so
    emptiness beyond the polynomial is safe.
    """
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


class MapSpec(NamedTuple):
    """One injection: domain and codomain families, and its maps per class.

    ``forward`` and ``inverse`` map a class to a raw formula ``f(p, t)``:
    the keys of ``forward`` are the domain subsets the map covers (``None``
    for the members in no subset, so for all of an undivided domain), and a
    class absent from ``inverse`` has no declared inverse.  A raw formula
    checks nothing and is right only on its class (the inverse on the
    forward images), so only :func:`verify_injection` calls one, on the
    domain members it has classified.  It returns a :class:`Partition`:
    the driver keys the images and compares the inverse's result by
    ``items()``, so equal partitions built separately count as one image.
    The map is verified for ``n >= min_n`` and the t for which ``t_ok(t)``
    holds; ``t_error`` says which those are.  The paper proves the images
    t-regular for ``t >= regular_from`` only; a smaller allowed t runs with
    a warning.
    """

    domain: str
    codomain: str
    forward: Mapping[int | None, RawMap]
    inverse: Mapping[int | None, RawMap]
    min_n: int = 0
    t_ok: Callable[[int], bool] = lambda t: t >= 2
    t_error: str = "t must be at least 2"
    regular_from: int = 2


# only phi holds the _PHI_* tables themselves, which bench/tracer.py rebinds in
# place; phi1..phi4 hold one-entry dicts of their own, so a traced run sees none
# of their calls
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
    codomain is checked by its :meth:`Family.projections`, one per multiset
    of the parts its subsets read; only when one of them lies in two subsets
    are the codomain members walked, each one in several subsets reported.
    The number of domain members walked is checked against the family's
    counting series, an independent route (DomainIncomplete).
    Single-threaded; violations are sorted by canonical input text, so
    reports are deterministic.  ``warn=False`` leaves out the warning of
    a t below the entry's ``regular_from``, which belongs to the (map, t)
    pair: a caller running many cells of one pair warns once itself.
    """
    spec = _spec(map_id, t, n, warn)
    domain, codomain = FAMILIES[spec.domain], FAMILIES[spec.codomain]
    in_codomain = codomain.membership(n, t)
    several = len(spec.forward) > 1
    violations: list[Violation] = []

    def violate(p: Partition, kind: str, detail: str) -> None:
        violations.append(Violation(str(p), kind, detail))

    forward, inverses = spec.forward, spec.inverse
    domain_subsets, codomain_subsets = domain.subsets, codomain.subsets
    images: dict[tuple, Partition] = {}  # an image's items -> its first preimage
    domain_size = walked = 0
    for lam in domain.members(n, t):
        walked += 1
        ms = domain_subsets(lam, t)
        if several and not ms:
            violate(lam, "ClassificationGap", f"no {domain.name}-subset condition holds")
            continue
        if several and len(ms) > 1:
            violate(lam, "ClassificationOverlap", f"{domain.name}-subsets {ms} all hold")
            continue
        cls = ms[0] if ms else None
        f = forward.get(cls)
        if f is None:  # the map does not cover cls
            continue
        domain_size += 1
        mu = f(lam, t)
        if mu.weight != n:
            violate(lam, "NotInCodomain", f"weight changed to {mu.weight}")
        elif not in_codomain(mu) or (codomain_subsets(mu, t) or [None])[0] != cls:
            # outside the codomain, or the first subset it falls in is not cls
            violate(lam, "NotInCodomain", f"image {mu} outside target subset")
        first = images.setdefault(mu.items(), lam)
        if first is not lam:
            violate(lam, "Collision", f"image {mu} already produced by {first}")
        inverse = inverses.get(cls)
        if inverse is not None:
            back = inverse(mu, t)
            if back.items() != lam.items():
                violate(lam, "InverseMismatch", f"inverse returned {back}")

    counted = list(hookgf.coefficients(t, hookgf.family_table(spec.domain, t), n))[n]
    if walked != counted:
        detail = f"walked {walked} members, the counting series has {counted}"
        violations.append(Violation(domain.name, "DomainIncomplete", detail))

    # the subsets read only the read parts: one multiset of them in two subsets puts
    # every member holding it in both, and only then are the members walked to list them
    if several and any(len(codomain_subsets(p, t)) > 1 for p in codomain.projections(n, t)):
        for mu in codomain.members(n, t):
            ms = codomain_subsets(mu, t)
            if len(ms) > 1:
                violate(mu, "ClassificationOverlap", f"{codomain.name}-subsets {ms} all hold")

    violations.sort()  # by input, kind, detail: the field order
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
