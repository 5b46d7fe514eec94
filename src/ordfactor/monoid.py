"""Ordered-monoid instances over a finite carrier.

An instance is a finite poset whose least element is the monoid unit,
an optional partial commutative multiplication (products that would leave
the carrier are simply undefined, and every law is quantified over defined
products only), and a designated or derived set of prime powers: the
in-carrier powers of elements that are both atoms and primes, tagged with
base and exponent.

Two flavors exist.  "ordered-monoid" instances carry the multiplication
table and derive order and prime powers from it; "poset-with-B" instances
designate order and prime powers directly and multiplication-dependent
operations raise NotApplicableError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .poset import FinitePoset, _mask_bits
from .reporting import FALSE, NOT_APPLICABLE, TRUE, ConditionReport

ORDERED_MONOID = "ordered-monoid"
POSET_WITH_B = "poset-with-B"


class NotApplicableError(Exception):
    """The operation needs multiplication the instance does not carry."""


class InstanceError(ValueError):
    """Structural validation failure while building an instance."""


@dataclass(frozen=True, order=True)
class PrimePower:
    """A designated prime power: element = base^exponent."""

    base: int
    exponent: int
    element: int


class MonoidInstance:
    """Immutable instance; law flags are computed once on first use."""

    def __init__(
        self,
        name: str,
        poset: FinitePoset,
        unit: int,
        mult: Optional[dict] = None,
        prime_powers: Optional[Iterable[PrimePower]] = None,
        kind: Optional[str] = None,
        check: bool = True,
    ):
        self.name = name
        self.poset = poset
        self.unit = unit
        self.kind = kind if kind is not None else (ORDERED_MONOID if mult is not None else POSET_WITH_B)
        self._cache: dict = {}
        if self.kind == ORDERED_MONOID and mult is None:
            raise InstanceError("ordered-monoid instances need a multiplication table")
        if self.kind == POSET_WITH_B and mult is not None:
            raise InstanceError("poset-with-B instances must not carry multiplication")
        self.mult = self._normalize_mult(mult) if mult is not None else None
        if poset.bottom() != unit:
            raise InstanceError("the unit must be the least element of the carrier")
        if check and self.mult is not None:
            self._validate_mult()
        if prime_powers is None:
            if self.mult is None:
                raise InstanceError("poset-with-B instances must designate their prime powers")
            prime_powers = compute_prime_powers(self)
        self.prime_powers: tuple[PrimePower, ...] = tuple(sorted(prime_powers))
        self._validate_prime_powers(check)
        self.power_elements: frozenset[int] = frozenset(pp.element for pp in self.prime_powers)
        self.power_mask = poset.mask_of(self.power_elements)
        self.bases: tuple[int, ...] = tuple(sorted({pp.base for pp in self.prime_powers}))
        self._by_element = {pp.element: pp for pp in self.prime_powers}

    # -- construction helpers ------------------------------------------------

    def _normalize_mult(self, mult: dict) -> dict:
        table: dict[tuple[int, int], int] = {}
        for (a, b), c in mult.items():
            self.poset.check_ids([a, b, c])
            key = (a, b) if a <= b else (b, a)
            if table.get(key, c) != c:
                raise InstanceError(
                    f"multiplication not commutative at {self.lab(a)}*{self.lab(b)}"
                )
            table[key] = c
        for x in range(self.poset.size):
            key = (min(self.unit, x), max(self.unit, x))
            if table.get(key, x) != x:
                raise InstanceError(f"unit is not an identity at {self.lab(x)}")
            table[key] = x
        return table

    def _validate_mult(self) -> None:
        p = self.poset
        items = list(self.mult.items())
        for (a, b), ab in items:
            for c in range(p.size):
                ab_c = self.product(ab, c)
                bc = self.product(b, c)
                a_bc = self.product(a, bc) if bc is not None else None
                if ab_c is not None and a_bc is not None and ab_c != a_bc:
                    raise InstanceError(
                        f"multiplication not associative at ({self.lab(a)}*{self.lab(b)})*{self.lab(c)}"
                    )
        for (a, c), ac in items:
            for b in _mask_bits(p.up[a]):
                bc = self.product(b, c)
                if bc is not None and not p.leq(ac, bc):
                    raise InstanceError(
                        f"multiplication not order-compatible at {self.lab(a)} <= {self.lab(b)}, *{self.lab(c)}"
                    )
            for b in _mask_bits(p.up[c]):
                bs = self.product(a, b)
                if bs is not None and not p.leq(ac, bs):
                    raise InstanceError(
                        f"multiplication not order-compatible at {self.lab(c)} <= {self.lab(b)}, *{self.lab(a)}"
                    )

    def _validate_prime_powers(self, check: bool) -> None:
        p = self.poset
        seen_elements = set()
        atom_set = atoms(self)
        by_base: dict[int, list[PrimePower]] = {}
        for pp in self.prime_powers:
            p.check_ids([pp.element, pp.base])
            if pp.element == self.unit:
                raise InstanceError("prime powers never contain the unit")
            if pp.exponent < 1:
                raise InstanceError("exponents are positive")
            if pp.element in seen_elements:
                raise InstanceError(f"element {self.lab(pp.element)!r} designated twice")
            seen_elements.add(pp.element)
            if pp.base not in atom_set:
                raise InstanceError(f"base {self.lab(pp.base)!r} is not an atom")
            if not p.leq(pp.base, pp.element):
                raise InstanceError(
                    f"power {self.lab(pp.element)!r} does not lie above its base {self.lab(pp.base)!r}"
                )
            by_base.setdefault(pp.base, []).append(pp)
        for base, pps in by_base.items():
            pps.sort(key=lambda pp: pp.exponent)
            if len({pp.exponent for pp in pps}) != len(pps):
                raise InstanceError(f"duplicate exponent for base {self.lab(base)!r}")
            for lo, hi in zip(pps, pps[1:]):
                if not p.lt(lo.element, hi.element):
                    raise InstanceError(
                        f"powers of {self.lab(base)!r} must form a chain matching exponent order"
                    )
        if check and self.mult is not None:
            for pp in self.prime_powers:
                acc = self.unit
                for _ in range(pp.exponent):
                    nxt = self.product(acc, pp.base)
                    if nxt is None:
                        raise InstanceError(
                            f"power {self.lab(pp.base)!r}^{pp.exponent} not a defined product"
                        )
                    acc = nxt
                if acc != pp.element:
                    raise InstanceError(
                        f"{self.lab(pp.element)!r} is not {self.lab(pp.base)!r}^{pp.exponent}"
                    )

    # -- basics ---------------------------------------------------------------

    def lab(self, i: int) -> str:
        return self.poset.labels[i]

    @property
    def size(self) -> int:
        return self.poset.size

    @property
    def has_mult(self) -> bool:
        return self.mult is not None

    def require_mult(self, op: str) -> None:
        if self.mult is None:
            raise NotApplicableError(f"{op} needs multiplication; instance {self.name!r} is {self.kind}")

    def product(self, a: int, b: int) -> Optional[int]:
        if self.mult is None:
            raise NotApplicableError(f"instance {self.name!r} carries no multiplication")
        return self.mult.get((a, b) if a <= b else (b, a))

    def powers_of(self, base: int) -> tuple[PrimePower, ...]:
        return tuple(sorted((pp for pp in self.prime_powers if pp.base == base)))

    def power_at(self, element: int) -> Optional[PrimePower]:
        return self._by_element.get(element)


# -- derived order -------------------------------------------------------------


def derive_order(labels: Sequence[str], unit: int, mult: dict) -> FinitePoset:
    """The divisibility order of a multiplication table: a <= b iff b = a*c.

    Reflexively closed; antisymmetry violations (unit-like cycles) raise a
    PosetError naming the cycle, as do transitivity gaps of a defective table.
    """
    n = len(labels)
    up = [1 << i for i in range(n)]
    for (a, b), c in mult.items():
        up[a] |= 1 << c
        up[b] |= 1 << c
    if n:
        up[unit] = (1 << n) - 1  # the implicit unit rows: unit * x = x
    return FinitePoset(labels, up)


# -- atoms, primes, prime powers ------------------------------------------------


def atoms(inst: MonoidInstance) -> frozenset[int]:
    """Minimal elements of the carrier without its unit."""
    if "atoms" not in inst._cache:
        p = inst.poset
        rest = p.full_mask & ~(1 << inst.unit)
        inst._cache["atoms"] = p.minimal_of(rest)
    return inst._cache["atoms"]


def primes(inst: MonoidInstance) -> frozenset[int]:
    """Non-units p with p <= x*y implying p <= x or p <= y (defined products);
    each x*y rules out down(x*y) minus down(x) and down(y)."""
    inst.require_mult("primes")
    if "primes" not in inst._cache:
        down = inst.poset.down
        out = inst.poset.full_mask & ~(1 << inst.unit)
        for (x, y), xy in inst.mult.items():
            out &= ~(down[xy] & ~down[x] & ~down[y])
        inst._cache["primes"] = inst.poset.set_of(out)
    return inst._cache["primes"]


def compute_prime_powers(inst: MonoidInstance) -> frozenset[PrimePower]:
    """All in-carrier powers of the elements that are both atoms and primes."""
    inst.require_mult("compute_prime_powers")
    out = []
    for base in sorted(atoms(inst) & primes(inst)):
        exponent = 1
        current = base
        seen = {inst.unit}
        while current is not None and current not in seen:
            out.append(PrimePower(base=base, exponent=exponent, element=current))
            seen.add(current)
            current = inst.product(current, base)
            exponent += 1
    return frozenset(out)


def valuation(inst: MonoidInstance, a: int, base: int) -> int:
    """Largest n with base^n below a; 0 when no designated power divides a."""
    if base not in inst.bases:
        raise InstanceError(f"{inst.lab(base)} is not a prime-power base of {inst.name!r}")
    inst.poset.check_ids([a])
    best = 0
    for pp in inst.powers_of(base):
        if inst.poset.leq(pp.element, a):
            best = max(best, pp.exponent)
    return best


# -- law report -------------------------------------------------------------------


@dataclass(frozen=True)
class LawReport:
    dist: bool
    dist_witness: Optional[tuple]
    defi: bool
    defi_witness: Optional[tuple]
    cancellation: bool
    cancellation_witness: Optional[tuple]


def law_report(inst: MonoidInstance) -> LawReport:
    """Distributivity over meet (weak form), order-definedness, cancellation.

    The weak form of the distributive law quantifies over triples whose
    products are all defined and then requires existence of the two meets to
    transfer, with equal values.
    """
    inst.require_mult("law_report")
    if "law_report" in inst._cache:
        return inst._cache["law_report"]
    p = inst.poset
    n = p.size
    dist, dist_w = True, None
    for a in range(n):
        for b in range(n):
            ab = inst.product(a, b)
            if ab is None:
                continue
            for c in range(b, n):
                ac = inst.product(a, c)
                if ac is None:
                    continue
                mbc = p.meet_mask((1 << b) | (1 << c))
                left = None
                if mbc is not None:
                    left = inst.product(a, mbc)
                    if left is None:
                        continue  # quantified over defined products only
                right = p.meet_mask((1 << ab) | (1 << ac))
                if (left is None) != (right is None) or left != right:
                    dist, dist_w = False, (inst.lab(a), inst.lab(b), inst.lab(c))
                    break
            if not dist:
                break
        if not dist:
            break
    defi, defi_w = True, None
    divides = [1 << a for a in range(n)]
    for (a, b), c in inst.mult.items():
        divides[a] |= 1 << c
        divides[b] |= 1 << c
    for a in range(n):
        if divides[a] != p.up[a]:
            diff = divides[a] ^ p.up[a]
            b = next(_mask_bits(diff))
            defi, defi_w = False, (inst.lab(a), inst.lab(b))
            break
    canc, canc_w = True, None
    by_factor: dict[int, dict[int, int]] = {}
    for (a, b), c in inst.mult.items():
        by_factor.setdefault(a, {})[b] = c
        by_factor.setdefault(b, {})[a] = c
    for z, row in by_factor.items():
        seen: dict[int, int] = {}
        for x, xz in row.items():
            if xz in seen and seen[xz] != x:
                canc, canc_w = False, (inst.lab(seen[xz]), inst.lab(x), inst.lab(z))
                break
            seen[xz] = x
        if not canc:
            break
    report = LawReport(dist, dist_w, defi, defi_w, canc, canc_w)
    inst._cache["law_report"] = report
    return report


# -- the lattice-monoid law suite ---------------------------------------------------


def arithmetic_law_suite(inst: MonoidInstance, condensed_cap: int = 4096) -> tuple[ConditionReport, ...]:
    """Exhaustive checks of the coprimality laws of ordered monoids.

    Each sub-check is gated on the law hypotheses it needs and reports
    not_applicable when they fail (or when multiplication is absent).
    """
    if not inst.has_mult:
        names = (
            "coprime_meet_absorption",
            "coprime_divisibility",
            "coprime_product_coprime",
            "coprime_join_is_product",
            "coprime_join_exists",
            "atoms_are_prime",
            "primes_are_atoms",
            "strict_multiplication",
            "power_downsets_finite",
            "condensed_join_is_product",
            "prime_power_cover",
        )
        return tuple(
            ConditionReport(nm, NOT_APPLICABLE, note="instance carries no multiplication")
            for nm in names
        )
    laws = law_report(inst)
    p = inst.poset
    n = p.size
    out = []

    def gated(name, needed, fn):
        if not needed:
            out.append(ConditionReport(name, NOT_APPLICABLE, note="hypotheses not satisfied"))
            return
        verdict, witness = fn()
        out.append(ConditionReport(name, TRUE if verdict else FALSE, witness))

    def coprime_pairs():
        for x in range(n):
            for y in range(n):
                if p.meet_mask((1 << x) | (1 << y)) == inst.unit:
                    yield x, y

    def absorption():
        # x meet y = 1 makes x meet z and x meet (y*z) agree, weakly
        for x, y in coprime_pairs():
            for z in range(n):
                yz = inst.product(y, z)
                if yz is None:
                    continue
                left = p.meet_mask((1 << x) | (1 << z))
                right = p.meet_mask((1 << x) | (1 << yz))
                if left != right:
                    return False, (inst.lab(x), inst.lab(y), inst.lab(z))
        return True, None

    def divisibility():
        for x, y in coprime_pairs():
            for z in range(n):
                yz = inst.product(y, z)
                if yz is not None and p.leq(x, yz) and not p.leq(x, z):
                    return False, (inst.lab(x), inst.lab(y), inst.lab(z))
        return True, None

    def product_coprime():
        for x, y in coprime_pairs():
            for z in range(n):
                if p.meet_mask((1 << x) | (1 << z)) != inst.unit:
                    continue
                yz = inst.product(y, z)
                if yz is None:
                    continue
                if p.meet_mask((1 << x) | (1 << yz)) != inst.unit:
                    return False, (inst.lab(x), inst.lab(y), inst.lab(z))
        return True, None

    def join_is_product():
        for x, y in coprime_pairs():
            j = p.join_mask((1 << x) | (1 << y))
            xy = inst.product(x, y)
            if j is not None and xy is not None and j != xy:
                return False, (inst.lab(x), inst.lab(y))
        return True, None

    def join_exists():
        for x, y in coprime_pairs():
            xy = inst.product(x, y)
            if xy is None:
                continue
            if p.join_mask((1 << x) | (1 << y)) != xy:
                return False, (inst.lab(x), inst.lab(y))
        return True, None

    def atoms_prime():
        pr = primes(inst)
        for a in sorted(atoms(inst)):
            if a not in pr:
                return False, inst.lab(a)
        return True, None

    def primes_atoms():
        at = atoms(inst)
        for a in sorted(primes(inst)):
            if a not in at:
                return False, inst.lab(a)
        return True, None

    def strict_mult():
        for (x, z), xz in inst.mult.items():
            for y in _mask_bits(p.up[x]):
                if y == x:
                    continue
                yz = inst.product(y, z)
                if yz is not None and yz == xz:
                    return False, (inst.lab(x), inst.lab(y), inst.lab(z))
        return True, None

    def b3():
        # finite carrier: every power down-set is finite by inspection
        return True, None

    def condensed_join():
        for entries in _condensed_subsets(inst, None, condensed_cap):
            prod = inst.unit
            for pp in entries:
                if prod is None:
                    break
                prod = inst.product(prod, pp.element)
            j = p.join_mask(_mask_of_entries(entries))
            if prod is None:
                if j is not None:
                    return False, _element_labels(inst, (pp.element for pp in entries))
            elif j != prod:
                return False, _element_labels(inst, (pp.element for pp in entries))
        return True, None

    meet_sl = all(
        p.meet_mask((1 << x) | (1 << y)) is not None for x in range(n) for y in range(x + 1, n)
    )
    gated("coprime_meet_absorption", laws.dist, absorption)
    gated("coprime_divisibility", laws.dist, divisibility)
    gated("coprime_product_coprime", laws.dist, product_coprime)
    gated("coprime_join_is_product", laws.dist, join_is_product)
    gated("coprime_join_exists", laws.dist and laws.defi, join_exists)
    gated("atoms_are_prime", laws.dist and meet_sl, atoms_prime)
    gated("primes_are_atoms", laws.cancellation and laws.defi, primes_atoms)
    gated("strict_multiplication", laws.cancellation, strict_mult)
    gated("power_downsets_finite", True, b3)
    gated("condensed_join_is_product", laws.dist and laws.defi, condensed_join)
    if laws.dist and laws.defi and laws.cancellation:
        b4 = check_B4(inst)
        out.append(
            ConditionReport("prime_power_cover", b4.verdict, b4.witness, b4.note)
        )
    else:
        out.append(
            ConditionReport("prime_power_cover", NOT_APPLICABLE, note="hypotheses not satisfied")
        )
    return tuple(out)


# -- condensation and decomposition ---------------------------------------------------


def condense(inst: MonoidInstance, entries: Iterable[PrimePower]) -> tuple[PrimePower, ...]:
    """Merge same-base powers keeping the maximal exponent; idempotent."""
    best: dict[int, PrimePower] = {}
    for pp in entries:
        if inst.power_at(pp.element) != pp:
            raise InstanceError(f"{pp} is not a designated prime power of {inst.name!r}")
        cur = best.get(pp.base)
        if cur is None or pp.exponent > cur.exponent:
            best[pp.base] = pp
    return tuple(sorted(best.values()))


def decompose(inst: MonoidInstance, a: int) -> Optional[tuple[PrimePower, ...]]:
    """The condensed set of maximal prime powers below ``a`` when it joins
    back to ``a``; None when it does not (the instance fails full
    decomposability at ``a``); the unit decomposes as the empty family."""
    inst.poset.check_ids([a])
    if a == inst.unit:
        return ()
    entries = []
    for base in inst.bases:
        v = valuation(inst, a, base)
        if v > 0:
            pick = [pp for pp in inst.powers_of(base) if pp.exponent == v]
            if pick:
                entries.append(pick[0])
    if inst.poset.join_mask(_mask_of_entries(entries)) != a:
        return None
    return tuple(sorted(entries))


def _element_labels(inst, elements) -> list[str]:
    return sorted(inst.lab(e) for e in elements)


def _mask_of_entries(entries) -> int:
    m = 0
    for pp in entries:
        m |= 1 << pp.element
    return m


def _condensed_subsets(inst: MonoidInstance, size_cap: Optional[int], total_cap: int):
    """All condensed subsets (one power per base at most), nonempty.

    Yields tuples of PrimePower.  With ``size_cap`` set, only subsets with at
    most that many bases are produced (the by-size witness search); otherwise
    enumeration stops hard at total_cap yields.
    """
    chains = [inst.powers_of(b) for b in inst.bases]
    count = 0
    max_size = size_cap if size_cap is not None else len(chains)
    for k in range(1, max_size + 1):
        for picked in itertools.combinations(range(len(chains)), k):
            for combo in itertools.product(*[chains[i] for i in picked]):
                yield tuple(combo)
                count += 1
                if count >= total_cap:
                    return


def _condensed_count(inst: MonoidInstance) -> int:
    total = 1
    for b in inst.bases:
        total *= 1 + len(inst.powers_of(b))
    return total - 1


def covering_law_failure(
    poset: FinitePoset, groups: Sequence[int]
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """A failure (j, x, M) of the covering law over the members of
    ``groups`` (element masks), or None when the law holds.

    The law: a member below the join of a family holding at most one member
    of each group lies below a member of the family.  For each element j
    and member x <= j, let A_g = {e in g : e <= j, x not <= e}; the law
    fails iff some M, one maximal element of each nonempty A_g, has join j,
    and x is then below j but below no member of M.  The scan is exact: a
    failing family S with join j and uncovered x has its members in the
    A_g, so some such M dominates S member by member; M stays below j, so
    its upper bounds are those of S and its join is j too.  On chains, as
    the prime-power bases are, each nonempty A_g has one maximal element.
    Members lie above the least element (prime and atom powers do), so
    the empty M, whose join is that element, never joins to j.
    """
    members = 0
    for g in groups:
        members |= g
    up = poset.up
    for j in range(poset.size):
        below = [a for a in (g & poset.down[j] for g in groups) if a]
        for x in _mask_bits(poset.down[j] & members):
            options = [sorted(poset.maximal_of(a)) for a in (g & ~up[x] for g in below) if a]
            for choice in itertools.product(*options):
                bounds = poset.full_mask
                for e in choice:
                    bounds &= up[e]
                if bounds == up[j]:  # j is then the join of the choice
                    return j, x, choice
    return None


def _base_masks(inst: MonoidInstance) -> list[int]:
    return [inst.poset.mask_of(pp.element for pp in inst.powers_of(b)) for b in inst.bases]


# -- condition checks -----------------------------------------------------------------


def check_F1(inst: MonoidInstance) -> ConditionReport:
    """Every element is a (finite) join of prime powers below it."""
    p = inst.poset
    for a in range(p.size):
        if a == inst.unit:
            continue
        if p.join_mask(p.down[a] & inst.power_mask) != a:
            return ConditionReport("F1", FALSE, inst.lab(a))
    return ConditionReport("F1", TRUE)


def check_D5(inst: MonoidInstance) -> ConditionReport:
    """Per-element decomposition into maximal prime powers succeeds."""
    for a in range(inst.poset.size):
        if decompose(inst, a) is None:
            return ConditionReport("D5", FALSE, inst.lab(a))
    return ConditionReport("D5", TRUE)


def check_B3(inst: MonoidInstance) -> ConditionReport:
    return ConditionReport("B3", TRUE, note="finite carrier: all power down-sets are finite")


def check_B4(inst: MonoidInstance) -> ConditionReport:
    """Prime powers below an existing join of prime powers sit below a member.

    Arbitrary finite families reduce to condensed ones (same-base powers
    form chains); the covering-law kernel decides it over the base chains.
    """
    failure = covering_law_failure(inst.poset, _base_masks(inst))
    if failure is None:
        return ConditionReport("B4", TRUE)
    _, x, members = failure
    return ConditionReport("B4", FALSE, (inst.lab(x), _element_labels(inst, members)))


def uniqueness_check(inst: MonoidInstance) -> ConditionReport:
    """Distinct pairwise-incomparable prime-power families never share a join.

    Equivalent to B4.  If B4 holds and antichains S, S' share the join j,
    each s in S lies below some t in S' and t below some s' in S, so
    s <= t <= s' forces s = t and S = S'.  If B4 fails at (j, x, M), M and
    M plus x lie below j and so both join to j; the maximal members of each
    are antichains, and they differ at x, which is below no member of M.
    The base chains put M's entry of x's base below x, so the second keeps
    one power per base.
    """
    failure = covering_law_failure(inst.poset, _base_masks(inst))
    if failure is None:
        return ConditionReport("uniqueness", TRUE)
    j, x, members = failure
    p = inst.poset
    family = p.mask_of(members)
    return ConditionReport(
        "uniqueness",
        FALSE,
        (
            inst.lab(j),
            _element_labels(inst, p.maximal_of(family)),
            _element_labels(inst, p.maximal_of(family | 1 << x)),
        ),
    )


def check_DCC(inst: MonoidInstance) -> ConditionReport:
    """Descending chains stabilize; trivially true on a materialized finite carrier."""
    return ConditionReport("DCC", TRUE, note="finite carrier: every descending chain stabilizes")


def finitely_irreducible_elements(inst: MonoidInstance) -> frozenset[int]:
    """Elements not expressible as a join of a finite family excluding them.

    a fails exactly when the join of its strict down-set is a itself; the
    unit is excluded because it is the empty join.
    """
    p = inst.poset
    out = set()
    for a in range(p.size):
        strict = p.down[a] & ~(1 << a)
        if p.join_mask(strict) != a:
            out.add(a)
    return frozenset(out)


def check_ir_subset(inst: MonoidInstance) -> ConditionReport:
    """The finitely join-irreducible elements all carry prime-power labels."""
    bad = finitely_irreducible_elements(inst) - inst.power_elements
    if bad:
        return ConditionReport("ir_subset_B", FALSE, inst.lab(min(bad)))
    return ConditionReport("ir_subset_B", TRUE)
