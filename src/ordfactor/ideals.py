"""Power ideals: the lower sets closed under forced joins of prime powers.

A power ideal is a nonempty lower set J such that whenever all prime powers
below some carrier element a lie in J and their join exists, that join lies
in J too.  The family M of all power ideals, ordered by inclusion, is a
complete lattice with meet = intersection and join = closure of the union.

The production enumerator walks the closed sets of the forced-join closure
operator in lectic order (the closure-system analogue of subset counting),
which is exact and scales with |M| rather than with the number of lower
sets; the raw lower-set filter survives as the brute-force oracle used by
the test suite on small carriers.  A bitmask pre-check rejects candidates
whose down-set already breaks canonicity, so on the generator families
(div, free, hilbert) the walk makes one closure per member, and each
closure is one sweep of the forced-join list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .monoid import MonoidInstance, InstanceError, check_D5, check_F1, check_DCC, check_ir_subset, uniqueness_check
from .poset import FinitePoset, _mask_bits
from .reporting import FALSE, NOT_EVALUATED, TRUE, ConditionReport


# -- forced-join machinery -----------------------------------------------------


def _ctx(inst: MonoidInstance):
    """Per-instance precomputation: deduped (power-downset, forced-target)
    pairs, without those whose target already lies below a premise power."""
    if "ideal_ctx" not in inst._cache:
        p = inst.poset
        pairs = {}
        for a in range(p.size):
            dbm = p.down[a] & inst.power_mask
            if dbm not in pairs:
                pairs[dbm] = p.join_mask(dbm)
        forced = tuple(
            (dbm, tgt, p.down[tgt])
            for dbm, tgt in sorted(pairs.items())
            if tgt is not None and not (p.down_mask(dbm) >> tgt & 1)
        )
        inst._cache["ideal_ctx"] = forced
    return inst._cache["ideal_ctx"]


def ideal_closure_mask(inst: MonoidInstance, mask: int) -> int:
    """The least power ideal containing the masked set (as a mask).

    One sweep suffices.  Each forced pair comes from some element a with
    dbm = down(a) ∩ B and tgt = join(dbm) ≤ a, so down(tgt) ∩ B = dbm:
    firing a pair adds no prime power.  The powers of the closure are thus
    those of D = down(mask), and the closure is D together with down(tgt)
    for every pair whose dbm lies in D.  `_ctx` drops the pairs with tgt in
    down(dbm): there down(tgt) ⊆ down(dbm) ⊆ D, so they add nothing.
    """
    cur = down = inst.poset.down_mask(mask)
    for dbm, _tgt, tgt_down in _ctx(inst):
        if not (dbm & ~down):
            cur |= tgt_down
    return cur


def ideal_closure(inst: MonoidInstance, members: Iterable[int]) -> frozenset[int]:
    """The power ideal generated by a subset; the empty set generates the
    least ideal (the unit's down-set)."""
    return inst.poset.set_of(ideal_closure_mask(inst, inst.poset.mask_of(members)))


def is_power_ideal_mask(inst: MonoidInstance, mask: int):
    p = inst.poset
    if mask == 0:
        return False, ("empty",)
    if p.down_mask(mask) != mask:
        extra = p.down_mask(mask) & ~mask
        a = next(_mask_bits(extra))
        return False, ("not_lower", inst.lab(a))
    for dbm, tgt, _down in _ctx(inst):
        if not (dbm & ~mask) and not (mask >> tgt & 1):
            return False, ("forced_join", inst.lab(tgt), sorted(inst.lab(i) for i in _mask_bits(dbm)))
    return True, None


def is_power_ideal(inst: MonoidInstance, members: Iterable[int]):
    """Literal check of the defining conditions; returns (bool, witness)."""
    return is_power_ideal_mask(inst, inst.poset.mask_of(members))


def avoiding_ideal(inst: MonoidInstance, b: int) -> frozenset[int]:
    """The set of elements not above the prime power b: the greatest power
    ideal missing b.  Prime, and strongly completely meet-irreducible in M."""
    if b not in inst.power_elements:
        raise InstanceError(f"{inst.lab(b)} is not a designated prime power")
    p = inst.poset
    mask = p.full_mask & ~p.up[b]
    ok, witness = is_power_ideal_mask(inst, mask)
    if not ok:  # pragma: no cover - theorem: the complement of an up-set of a power
        raise AssertionError(f"avoiding ideal of {inst.lab(b)} failed validation: {witness}")
    return p.set_of(mask)


def hull_mask(inst: MonoidInstance, mask: int) -> int:
    """hull(J) = full & ~up(B ∖ J): the intersection of the avoiding ideals
    containing J, one mask operation per prime power.  A power ideal J lies
    in its hull, and equals it iff D2 and D3 hold at J, iff the complement
    of J is a b_set."""
    p = inst.poset
    return p.full_mask & ~p.up_mask(inst.power_mask & ~mask)


# -- the ideal family -----------------------------------------------------------


@dataclass(frozen=True)
class IdealFamily:
    """The enumerated power ideals of an instance, canonically sorted."""

    instance: MonoidInstance
    masks: tuple[int, ...]
    complete: bool
    note: str = ""

    def __len__(self) -> int:
        return len(self.masks)

    def sets(self) -> tuple[frozenset[int], ...]:
        p = self.instance.poset
        return tuple(p.set_of(m) for m in self.masks)

    def least(self) -> int:
        return min(self.masks, key=_mask_key)

    def greatest(self) -> int:
        return max(self.masks, key=_mask_key)

    def poset(self) -> tuple[FinitePoset, tuple[int, ...]]:
        """The family as an inclusion-ordered poset plus the mask table."""
        masks = self.masks
        labels = ["{" + ",".join(sorted(self.instance.lab(i) for i in _mask_bits(m))) + "}" for m in masks]
        up = [0] * len(masks)
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if a | b == b:
                    up[i] |= 1 << j
        return FinitePoset(labels, up, _validated=True), masks


# Each byte bit-reversed, then complemented.
_KEY_BYTES = bytes(255 - int(f"{x:08b}"[::-1], 2) for x in range(256))


def _mask_key(m: int) -> tuple[int, bytes]:
    """Canonical order: by size, then by the ascending list of members.

    Among masks of one size, that list order puts first the mask holding the
    lowest differing bit; the key encodes it as the mask's bytes, least
    significant first, each bit-reversed and complemented.  That is a few
    bytes per mask where a list of members costs tens per member, which
    bounds the peak memory of sorting a 20,000-member family.
    """
    return (m.bit_count(), m.to_bytes((m.bit_length() + 7) // 8, "little").translate(_KEY_BYTES))


def enumerate_ideals(inst: MonoidInstance, cap: int = 20000) -> IdealFamily:
    """All power ideals via lectic closure walking; partial above ``cap``.

    A partial family is flagged complete=False and still contains every
    principal ideal and every avoiding ideal.
    """
    n = inst.poset.size
    found = [ideal_closure_mask(inst, 0)]
    while (nxt := _next_closure(inst, found[-1], n)) is not None:
        if len(found) == cap:
            return _partial_family(inst, found, cap)
        found.append(nxt)
    found.sort(key=_mask_key)
    return IdealFamily(inst, tuple(found), complete=True)


def _next_closure(inst: MonoidInstance, mask: int, n: int) -> Optional[int]:
    """Ganter's NextClosure step.  A candidate i whose down-set holds a
    lower-numbered element outside ``a`` is skipped unclosed: its closure
    would hold that element too and fail the canonicity test."""
    down = inst.poset.down
    a = mask
    for i in reversed(range(n)):
        bit = 1 << i
        if a & bit:
            a &= ~bit
        elif not (down[i] & ~a & (bit - 1)):
            b = ideal_closure_mask(inst, a | bit)
            if not ((b & ~a) & (bit - 1)):
                return b
    return None


def _partial_family(inst: MonoidInstance, walked: list[int], cap: int) -> IdealFamily:
    """The walked prefix plus the closures of the principal and avoiding seeds."""
    p = inst.poset
    seeds = [p.down[a] for a in range(p.size)]
    seeds += [p.full_mask & ~p.up[b] for b in sorted(inst.power_elements)]
    masks = set(walked).union(ideal_closure_mask(inst, m) for m in seeds)
    return IdealFamily(
        inst,
        tuple(sorted(masks, key=_mask_key)),
        complete=False,
        note=f"walk stopped at cap {cap}; {len(masks)} ideals listed: the walked prefix"
        " plus the principal and avoiding ideals",
    )


def lower_set_filter_ideals(inst: MonoidInstance) -> tuple[frozenset[int], ...]:
    """Brute-force oracle: filter every lower set by the ideal definition.

    Exponential in the carrier; intended for cross-checks on small instances.
    """
    p = inst.poset
    if p.size > 16:
        raise InstanceError("lower-set filter oracle limited to 16 elements")
    out = []
    for mask in range(1, 1 << p.size):
        if p.down_mask(mask) != mask:
            continue
        ok, _ = is_power_ideal_mask(inst, mask)
        if ok:
            out.append(p.set_of(mask))
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


# -- B-sets, B-filters, prime ideals ------------------------------------------------


@dataclass(frozen=True)
class SubsetClassification:
    b_set: bool
    b_filter: bool
    prime_ideal: bool
    witness: Optional[tuple]


def classify_subset(inst: MonoidInstance, members: Iterable[int]) -> SubsetClassification:
    """Upper-set-with-power-witness / meet-closure / prime-ideal checks.

    Cross-asserts: a complement of a b_set is a power ideal and a complement
    of a b_filter is prime (violations raise, they would be internal bugs).
    """
    p = inst.poset
    mask = p.mask_of(members)
    witness = None
    b_set = p.up_mask(mask) == mask
    if b_set:
        for a in _mask_bits(mask):
            if not (p.down[a] & inst.power_mask & mask):
                b_set = False
                witness = (inst.lab(a),)
                break
    b_filter = b_set
    if b_filter:
        for a in _mask_bits(mask):
            for b in _mask_bits(mask):
                m = p.meet_mask((1 << a) | (1 << b))
                if m is not None and not (mask >> m & 1):
                    b_filter = False
                    break
            if not b_filter:
                break
    comp = p.full_mask & ~mask
    prime_ideal = False
    if comp and is_power_ideal_mask(inst, comp)[0]:
        prime_ideal = _is_prime_ideal_mask(inst, comp)
    if b_set and not is_power_ideal_mask(inst, comp)[0]:  # pragma: no cover - theorem
        raise AssertionError("complement of a b_set failed the ideal check")
    if b_filter and not prime_ideal:  # pragma: no cover - theorem
        raise AssertionError("complement of a b_filter failed the prime-ideal check")
    return SubsetClassification(b_set, b_filter, prime_ideal, witness)


def _is_prime_ideal_mask(inst: MonoidInstance, mask: int) -> bool:
    p = inst.poset
    for a in range(p.size):
        for b in range(a, p.size):
            m = p.meet_mask((1 << a) | (1 << b))
            if m is not None and (mask >> m & 1) and not (mask >> a & 1) and not (mask >> b & 1):
                return False
    return True


def is_prime_ideal(inst: MonoidInstance, members: Iterable[int]) -> bool:
    mask = inst.poset.mask_of(members)
    ok, _ = is_power_ideal_mask(inst, mask)
    return ok and _is_prime_ideal_mask(inst, mask)


# -- condition checks ------------------------------------------------------------------


def check_condition(
    inst: MonoidInstance,
    which: str,
    family: Optional[IdealFamily] = None,
    cap_m: int = 20000,
    b2_total_cap: int = 100000,
    b2_size_cap: int = 6,
) -> ConditionReport:
    """Literal evaluation of D1-D4, B1, B2, F2, F3.

    D2/D3/D4 quantify over the complete ideal family and report
    not_evaluated when only a partial enumeration is available.  F2 and F3
    are theorem-level true on a finite carrier: F2's finite subfamily is an
    element's whole power down-set, whose join lies above every member, and
    F3's is the ideal family itself, which is finite.
    """
    p = inst.poset
    if which == "D1":
        for a in range(p.size):
            if p.join_mask(p.down[a] & inst.power_mask) != a:
                return ConditionReport("D1", FALSE, inst.lab(a))
        return ConditionReport("D1", TRUE)
    if which == "B1":
        return ConditionReport(
            "B1", TRUE, note="finite carrier: every base power set below an element is finite"
        )
    if which == "B2":
        return _check_b2(inst, b2_size_cap, b2_total_cap)
    if which == "F2":
        return ConditionReport(
            "F2", TRUE, note="finite carrier: the full power down-set is its own finite subfamily"
        )
    if which == "F3":
        return ConditionReport(
            "F3",
            TRUE,
            note="finite carrier: every ideal family is finite, so the family itself is the"
            " required finite subfamily",
        )
    if which not in ("D2", "D3", "D4"):
        raise InstanceError(f"unknown condition {which!r}")
    if family is None:
        family = enumerate_ideals(inst, cap_m)
    if not family.complete:
        return ConditionReport(
            which, NOT_EVALUATED, note="complete ideal enumeration unavailable"
        )
    if which in ("D2", "D3"):  # one hull per member; D2 names the gap's lowest element
        for jmask in family.masks:
            gap = hull_mask(inst, jmask) & ~jmask
            if gap:
                members = sorted(inst.lab(i) for i in _mask_bits(jmask))
                witness = (inst.lab(next(_mask_bits(gap))), members) if which == "D2" else members
                return ConditionReport(which, FALSE, witness)
        return ConditionReport(which, TRUE)
    # D4
    for jmask in family.masks:
        gen = ideal_closure_mask(inst, jmask & inst.power_mask)
        if gen != jmask:
            return ConditionReport("D4", FALSE, sorted(inst.lab(i) for i in _mask_bits(jmask)))
    return ConditionReport("D4", TRUE)


def _check_b2(inst: MonoidInstance, size_cap: int, total_cap: int) -> ConditionReport:
    from .monoid import _condensed_subsets, _condensed_count

    p = inst.poset
    exhaustive = _condensed_count(inst) <= total_cap
    for entries in _condensed_subsets(inst, None if exhaustive else size_cap, total_cap):
        m = 0
        for pp in entries:
            m |= 1 << pp.element
        if p.join_mask(m) is None:
            return ConditionReport(
                "B2", FALSE, sorted(inst.lab(pp.element) for pp in entries)
            )
    if exhaustive:
        return ConditionReport("B2", TRUE, note="quantified over condensed subsets (chains make this exact)")
    return ConditionReport("B2", NOT_EVALUATED, note=f"condensed enumeration exceeds cap {total_cap}")


# -- missing-ideal structure ---------------------------------------------------------


def ideals_missing(family: IdealFamily, a: int) -> tuple[int, ...]:
    """Masks of the family members not containing a."""
    family.instance.poset.check_ids([a])
    return tuple(m for m in family.masks if not (m >> a & 1))


def maximal_missing(family: IdealFamily, a: int) -> tuple[int, ...]:
    """Maximal members among those missing a."""
    missing = sorted(ideals_missing(family, a), key=lambda m: -bin(m).count("1"))
    out: list[int] = []
    for m in missing:
        if not any(m | o == o for o in out):
            out.append(m)
    return tuple(sorted(out, key=_mask_key))


def maximal_extension_missing(inst: MonoidInstance, start_mask: int, a: int) -> int:
    """A maximal power ideal above ``start_mask`` still missing ``a``.

    Deterministic greedy in element order; a single pass suffices because a
    rejected candidate stays rejected under any larger ideal; a candidate
    above ``a``, whose closure would contain ``a``, is skipped unclosed.
    """
    p = inst.poset
    cur = ideal_closure_mask(inst, start_mask)
    if cur >> a & 1:
        raise InstanceError(f"seed ideal already contains {inst.lab(a)}")
    for c in range(p.size):
        if cur >> c & 1 or p.down[c] >> a & 1:
            continue
        cand = ideal_closure_mask(inst, cur | (1 << c))
        if not (cand >> a & 1):
            cur = cand
    return cur


def completely_meet_irreducible(family: IdealFamily) -> tuple[int, ...]:
    """Members not recoverable as the intersection of their strict supersets."""
    out = []
    full = family.instance.poset.full_mask
    for m in family.masks:
        acc = full
        for o in family.masks:
            if o != m and (m | o) == o:
                acc &= o
        if acc != m:
            out.append(m)
    return tuple(sorted(out, key=_mask_key))


def maximal_missing_family(inst: MonoidInstance, family: IdealFamily) -> tuple[int, ...]:
    """All ideals maximal among those missing some element (requires a
    complete enumeration).  These are exactly the completely
    meet-irreducible members, which the test suite checks against
    completely_meet_irreducible."""
    if not family.complete:
        raise InstanceError("maximal_missing_set requires a complete enumeration")
    p = inst.poset
    out: set[int] = set()
    for a in range(p.size):
        out.update(maximal_missing(family, a))
    return tuple(sorted(out, key=_mask_key))


def verify_missing_extension_laws(inst: MonoidInstance, family: IdealFamily) -> bool:
    """Every ideal missing an element extends to a maximal one, and the
    intersection of those maximal extensions recovers the ideal."""
    p = inst.poset
    maximal_missing_set = set(maximal_missing_family(inst, family))
    for jmask in family.masks:
        outside = p.full_mask & ~jmask
        acc = p.full_mask
        for a in _mask_bits(outside):
            k = maximal_extension_missing(inst, jmask, a)
            if k not in maximal_missing_set:
                return False
            acc &= k
        if outside and acc != jmask:
            return False
    return True


def check_maximal_missing_are_avoiding(
    inst: MonoidInstance, family: Optional[IdealFamily] = None, cap_m: int = 20000
) -> ConditionReport:
    """Every maximal missing ideal is an avoiding ideal.

    With a complete enumeration the check is exhaustive; otherwise a greedy
    maximal-extension search runs per element, certifying false with a
    witness or reporting not_evaluated.
    """
    p = inst.poset
    avoiding_set = {p.full_mask & ~p.up[b] for b in inst.power_elements}
    if family is None:
        family = enumerate_ideals(inst, cap_m)
    if family.complete:
        # true iff every member equals its hull (each member is the meet of
        # the maximal missing ideals above it); the scan only names a witness
        if any(hull_mask(inst, m) != m for m in family.masks):
            for k in maximal_missing_family(inst, family):
                if k not in avoiding_set:
                    return ConditionReport(
                        "maximal_missing_are_avoiding", FALSE, sorted(inst.lab(i) for i in _mask_bits(k))
                    )
        return ConditionReport("maximal_missing_are_avoiding", TRUE)
    least = ideal_closure_mask(inst, 0)
    for a in range(p.size):
        if least >> a & 1:
            continue
        k = maximal_extension_missing(inst, least, a)
        if k not in avoiding_set:
            return ConditionReport(
                "maximal_missing_are_avoiding",
                FALSE,
                (inst.lab(a), sorted(inst.lab(i) for i in _mask_bits(k))),
                note="greedy witness search (enumeration capped)",
            )
    return ConditionReport(
        "maximal_missing_are_avoiding", NOT_EVALUATED, note="enumeration capped; greedy search found no witness"
    )


# -- the equivalence harness ------------------------------------------------------------


@dataclass(frozen=True)
class HarnessReport:
    instance: str
    entries: tuple[ConditionReport, ...]
    disagreements: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def entry(self, name: str) -> ConditionReport:
        for e in self.entries:
            if e.condition == name:
                return e
        raise KeyError(name)


def _and_verdicts(name: str, a: ConditionReport, b: ConditionReport) -> ConditionReport:
    if FALSE in (a.verdict, b.verdict):
        w = a.witness if a.verdict == FALSE else b.witness
        return ConditionReport(name, FALSE, w)
    if a.verdict == TRUE and b.verdict == TRUE:
        return ConditionReport(name, TRUE)
    return ConditionReport(name, NOT_EVALUATED, note=f"{a.verdict} and {b.verdict}")


def equivalence_harness(
    inst: MonoidInstance, family: Optional[IdealFamily] = None, cap_m: int = 20000
) -> HarnessReport:
    """Evaluate the decomposition-condition clusters independently and flag
    any disagreement among decided members.

    Cluster one: D1, D2, D3, D4 and per-element decomposition (D5).  Cluster
    two: F1; F2 with D1; F3 with D1; F3 with the maximal-missing containment;
    chain stabilization with irreducible containment; unique decomposition.
    A disagreement is the repo's strongest regression signal.

    Equal by theorem, so no independent evidence: on a complete family D2,
    D3 and the maximal-missing containment are one test, hull(J) = J on
    each member (``hull_mask``); F2 and F3 are true on a finite carrier.
    """
    if family is None:
        family = enumerate_ideals(inst, cap_m)
    d1 = check_condition(inst, "D1", family)
    entries = [
        d1,
        check_condition(inst, "D2", family),
        check_condition(inst, "D3", family),
        check_condition(inst, "D4", family),
        check_D5(inst),
    ]
    f1 = check_F1(inst)
    f2 = check_condition(inst, "F2", family)
    f3 = check_condition(inst, "F3", family)
    sigma = check_maximal_missing_are_avoiding(inst, family)
    dcc = check_DCC(inst)
    ir = check_ir_subset(inst)
    unique = uniqueness_check(inst)
    cluster2 = [
        ConditionReport("F1", f1.verdict, f1.witness, f1.note),
        _and_verdicts("F2_and_D1", f2, d1),
        _and_verdicts("F3_and_D1", f3, d1),
        _and_verdicts("F3_and_maximal_missing_are_avoiding", f3, sigma),
        _and_verdicts("DCC_and_ir_subset_B", dcc, ir),
        _and_verdicts("unique_decomposition", f1, unique),
    ]
    entries.extend(cluster2)
    disagreements: list[tuple[str, str]] = []
    for group in (entries[:5], cluster2):
        decided = [e for e in group if e.verdict in (TRUE, FALSE)]
        for x, y in itertools.combinations(decided, 2):
            if x.verdict != y.verdict:
                disagreements.append((x.condition, y.condition))
    return HarnessReport(inst.name, tuple(entries), tuple(disagreements))


# -- structural properties of the ideal lattice ------------------------------------------


def structure_report(inst: MonoidInstance, family: IdealFamily) -> tuple[ConditionReport, ...]:
    """Hypothesis-gated structural assertions about the ideal lattice."""
    from .poset import is_irreducible, lattice_class

    if not family.complete:
        raise InstanceError("structure report requires a complete enumeration")
    p = inst.poset
    fam_poset, masks = family.poset()
    pos = {m: i for i, m in enumerate(masks)}
    avoiding_set = {p.full_mask & ~p.up[b] for b in inst.power_elements}
    principal = {p.down[a] for a in range(p.size)}
    d1 = check_condition(inst, "D1", family).is_true
    d3 = check_condition(inst, "D3", family).is_true
    d4 = check_condition(inst, "D4", family).is_true
    f1 = check_F1(inst).is_true
    b2 = _check_b2(inst, 6, 100000)
    out = []

    def verdict(name, ok, witness=None, note=""):
        out.append(ConditionReport(name, TRUE if ok else FALSE, witness if not ok else None, note))

    bad = next(
        (
            m
            for m in avoiding_set
            if not is_irreducible(fam_poset, pos[m], "meet", "strong", "complete")
        ),
        None,
    )
    verdict(
        "avoiding_ideals_strongly_meet_irreducible",
        bad is None,
        witness=None if bad is None else sorted(inst.lab(i) for i in _mask_bits(bad)),
    )
    if d3:
        bad = next(
            (
                m
                for m in masks
                if is_irreducible(fam_poset, pos[m], "meet", "strong", "complete")
                and m not in avoiding_set
            ),
            None,
        )
        verdict(
            "strongly_meet_irreducible_are_avoiding",
            bad is None,
            witness=None if bad is None else sorted(inst.lab(i) for i in _mask_bits(bad)),
            note="under D3",
        )
    if d3:
        bad = next(
            (
                b
                for b in sorted(inst.power_elements)
                if not is_irreducible(fam_poset, pos[p.down[b]], "join", "strong", "complete")
            ),
            None,
        )
        verdict(
            "principal_powers_strongly_join_irreducible",
            bad is None,
            witness=None if bad is None else inst.lab(bad),
            note="under D3",
        )
    if d4:
        bad = next(
            (
                m
                for m in masks
                if is_irreducible(fam_poset, pos[m], "join", "strong", "complete")
                and m not in {p.down[b] for b in inst.power_elements}
            ),
            None,
        )
        verdict(
            "strongly_join_irreducible_are_principal_powers",
            bad is None,
            witness=None if bad is None else sorted(inst.lab(i) for i in _mask_bits(bad)),
            note="under D4",
        )
    if d1 and b2.verdict in (TRUE, FALSE):
        all_principal = all(m in principal for m in masks)
        verdict(
            "all_principal_iff_B2",
            b2.is_true == all_principal,
            witness=(b2.verdict, all_principal),
            note="under D1",
        )
    if d4:
        profile = lattice_class(fam_poset)
        verdict(
            "family_completely_distributive",
            profile.is_completely_distributive,
            witness=str(profile),
            note="under D4",
        )
    if f1 and p.size <= 16:
        lattice_ideals = set()
        for mask in range(1, 1 << p.size):
            if p.down_mask(mask) != mask:
                continue
            if all(
                p.join_mask(mask & p.down[u]) != u
                for u in range(p.size)
                if not (mask >> u & 1)
            ):
                lattice_ideals.add(mask)
        verdict(
            "family_equals_lattice_ideals",
            lattice_ideals == set(masks),
            witness=sorted(
                sorted(inst.lab(i) for i in _mask_bits(m))
                for m in lattice_ideals.symmetric_difference(masks)
            ),
            note="under F1",
        )
    return tuple(out)
