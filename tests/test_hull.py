"""The hull kernel and the join-prime points against the loops they replaced.

``ideals.hull_mask`` decides D2, D3, the maximal-missing containment and
``open_dual`` on complete families, and ``topology.join_primes`` finds the
points of a representation.  The oracles below are the code they replaced:
D2's scan of every element outside each member, D3's AND of avoiding
ideals, the scan of every maximal missing ideal, the enumeration of every
b_set of a carrier of at most 16 elements, and the pairwise strong
irreducibility test.  Each is compared on every complete family of the
shared theorem instances, the ones where D1 fails included.
"""

from ordfactor.ideals import (
    check_condition,
    check_maximal_missing_are_avoiding,
    maximal_missing_family,
)
from ordfactor.poset import _mask_bits, is_irreducible, lattice_class
from ordfactor.reporting import FALSE, TRUE, ConditionReport
from ordfactor.topology import _open_dual_report, join_primes
from tests.test_poset import SMALL_POSETS
from tests.test_theorems import complete_families


def labels(inst, mask):
    return sorted(inst.lab(i) for i in _mask_bits(mask))


def oracle_d2(inst, family) -> ConditionReport:
    """The first element outside a member with no power outside it."""
    p = inst.poset
    for jmask in family.masks:
        for a in _mask_bits(p.full_mask & ~jmask):
            if not (p.down[a] & inst.power_mask & ~jmask):
                return ConditionReport("D2", FALSE, (inst.lab(a), labels(inst, jmask)))
    return ConditionReport("D2", TRUE)


def oracle_d3(inst, family) -> ConditionReport:
    """The first member that is not the meet of the avoiding ideals above it."""
    p = inst.poset
    avoid = {b: p.full_mask & ~p.up[b] for b in inst.power_elements}
    for jmask in family.masks:
        acc = p.full_mask
        for b, am in avoid.items():
            if not (jmask >> b & 1):
                acc &= am
        if acc != jmask:
            return ConditionReport("D3", FALSE, labels(inst, jmask))
    return ConditionReport("D3", TRUE)


def oracle_maximal_missing(inst, family) -> ConditionReport:
    p = inst.poset
    avoiding = {p.full_mask & ~p.up[b] for b in inst.power_elements}
    for k in maximal_missing_family(inst, family):
        if k not in avoiding:
            return ConditionReport("maximal_missing_are_avoiding", FALSE, labels(inst, k))
    return ConditionReport("maximal_missing_are_avoiding", TRUE)


def oracle_open_dual(inst, family) -> ConditionReport:
    """Every b_set by enumeration, matched against the members' complements,
    then each one covered by the avoiding ideals' complements inside it."""
    p = inst.poset
    b_sets = set()
    for mask in range(1 << p.size):
        if p.up_mask(mask) == mask and all(
            p.down[a] & inst.power_mask & mask for a in _mask_bits(mask)
        ):
            b_sets.add(mask)
    complements = {p.full_mask & ~m for m in family.masks}
    if b_sets != complements:
        return ConditionReport(
            "open_dual",
            FALSE,
            sorted(labels(inst, m) for m in b_sets.symmetric_difference(complements)),
            note="b_sets do not match the complements of the family",
        )
    for mask in b_sets:
        cover = 0
        for b in inst.power_elements:
            if p.up[b] & ~mask == 0:
                cover |= p.up[b]
        if cover != mask:
            return ConditionReport(
                "open_dual", FALSE, labels(inst, mask),
                note="open set is not a union of avoiding-ideal complements",
            )
    return ConditionReport("open_dual", TRUE)


def oracle_points(p) -> tuple[int, ...]:
    return tuple(a for a in range(p.size) if is_irreducible(p, a, "join", "strong", "finite"))


def test_hull_decisions_equal_their_loops():
    seen = set()
    for inst, family in complete_families():
        pairs = [
            (check_condition(inst, "D2", family), oracle_d2(inst, family)),
            (check_condition(inst, "D3", family), oracle_d3(inst, family)),
            (
                check_maximal_missing_are_avoiding(inst, family),
                oracle_maximal_missing(inst, family),
            ),
        ]
        if inst.size <= 16:
            pairs.append((_open_dual_report(inst, family), oracle_open_dual(inst, family)))
        for got, want in pairs:
            assert got == want, (inst.name, got, want)
            seen.add((got.condition, got.verdict))
    assert {verdict for _, verdict in seen} == {TRUE, FALSE}
    assert len(seen) == 8  # each of the four checks is seen both ways


def test_join_primes_equal_pairwise_irreducibility_on_small_lattices():
    lattices = [p for p in SMALL_POSETS if lattice_class(p).is_complete]
    assert len(lattices) == 5  # M3 and N5, whose representations fail, included
    for p in lattices:
        assert join_primes(p) == oracle_points(p), p.labels


def test_join_primes_equal_pairwise_irreducibility_on_families():
    checked = 0
    for _inst, family in complete_families():
        if len(family) <= 32:
            fam_poset = family.poset()[0]
            assert join_primes(fam_poset) == oracle_points(fam_poset)
            checked += 1
    assert checked > 150
