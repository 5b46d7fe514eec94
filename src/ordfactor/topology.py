"""Closed-set representations of complete lattices.

A complete lattice whose elements are all joins of strongly join-irreducible
elements is order-isomorphic to the closed-set lattice of a T0 space on
those irreducibles, via a |-> (irreducibles below a).  The power-ideal
family of a fully decomposable instance is represented the same way, with
the principal power ideals as point closures and the avoiding ideals as a
base for closed sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import IdealFamily, check_condition, hull_mask
from .monoid import MonoidInstance, InstanceError
from .poset import FinitePoset, _mask_bits, lattice_class
from .reporting import FALSE, TRUE, ConditionReport


class RepresentationError(ValueError):
    """A failed representation carries a witness; a cap or refusal carries none."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Representation:
    lattice: FinitePoset
    points: tuple[int, ...]
    closed_sets: tuple[frozenset[int], ...]
    assignment: tuple[frozenset[int], ...]

    def closure_of_point(self, x: int) -> frozenset[int]:
        best = None
        for c in self.closed_sets:
            if x in c and (best is None or c < best):
                best = c
        return best


def build_representation(
    p: FinitePoset, size_cap: int = 64, assume_complete: bool = False
) -> Representation:
    """Representation of a complete lattice on its strongly join-irreducible
    elements; raises RepresentationError (with witness) when an element is
    not the join of the irreducibles below it.

    When every element is such a join, the assignment a |-> (irreducibles
    below a) is an order isomorphism onto the closed sets of a T0 space,
    turning joins into unions and meets into intersections; the test suite
    checks those laws.  Inputs beyond ``size_cap`` are refused rather than
    silently sampled; ``assume_complete`` skips the completeness scan for
    callers that construct complete lattices.
    """
    if p.size > size_cap:
        raise RepresentationError(
            f"representation limited to {size_cap} elements (got {p.size})"
        )
    if not assume_complete:
        profile = lattice_class(p)
        if not profile.is_complete:
            raise RepresentationError("representation needs a complete lattice")
    points = join_primes(p)
    pmask = p.mask_of(points)
    for a in range(p.size):
        if p.join_mask(p.down[a] & pmask) != a:
            raise RepresentationError(
                f"{p.labels[a]!r} is not a join of strongly irreducible elements",
                witness=p.labels[a],
            )
    assignment = tuple(p.set_of(p.down[a] & pmask) for a in range(p.size))
    closed = tuple(sorted(set(assignment), key=lambda s: (len(s), sorted(s))))
    if len(closed) != p.size:  # pragma: no cover - injectivity follows from decomposability
        raise AssertionError("the closed-set assignment must be injective")
    bottom, top = p.bottom(), p.top()
    if assignment[bottom] != frozenset() or assignment[top] != frozenset(points):
        raise AssertionError("extrema must map to the empty set and the whole space")
    return Representation(p, points, closed, assignment)


def join_primes(p: FinitePoset) -> tuple[int, ...]:
    """The strongly join-irreducible elements of a complete lattice: each
    a != bottom not below the join of the elements not above it."""
    bottom = p.bottom()
    return tuple(
        a for a in range(p.size) if a != bottom and not p.leq(a, p.join_mask(p.full_mask & ~p.up[a]))
    )


# -- the power-ideal family as a space ---------------------------------------------


@dataclass(frozen=True)
class FamilyRepresentation:
    representation: Representation
    point_masks: tuple[int, ...]
    closed_base: tuple[ConditionReport, ...]

    @property
    def ok(self) -> bool:
        return all(r.is_true for r in self.closed_base)


def represent_ideal_family(
    inst: MonoidInstance, family: IdealFamily, size_cap: int = 64
) -> FamilyRepresentation:
    """Representation of the power-ideal lattice with the principal power
    ideals as points and the avoiding ideals as a base for closed sets.

    Refuses (citing the witness) when the instance is not fully
    decomposable, and refuses partial enumerations and families above
    ``size_cap`` members outright.
    """
    if not family.complete:
        raise RepresentationError("representation needs the complete ideal family")
    d1 = check_condition(inst, "D1", family)
    if not d1.is_true:
        raise RepresentationError(
            f"full decomposability fails at {d1.witness}", witness=d1.witness
        )
    if len(family) > size_cap:  # refuse before building the family poset
        raise RepresentationError(
            f"representation limited to {size_cap} elements (got {len(family)})"
        )
    fam_poset, masks = family.poset()
    rep = build_representation(fam_poset, size_cap=size_cap, assume_complete=True)
    p = inst.poset
    expected_points = {p.down[b] for b in inst.power_elements}
    got_points = {masks[i] for i in rep.points}
    if got_points != expected_points:
        raise AssertionError("the space must consist of the principal power ideals")
    reports = [_closed_base_report(inst, family, rep, masks)]
    reports.append(_open_dual_report(inst, family))
    return FamilyRepresentation(rep, tuple(masks[i] for i in rep.points), tuple(reports))


def _closed_base_report(inst, family, rep, masks) -> ConditionReport:
    """Every closed set is an intersection of avoiding-ideal images."""
    p = inst.poset
    pos = {m: i for i, m in enumerate(masks)}
    space = frozenset(rep.points)
    base = []
    for b in sorted(inst.power_elements):
        jb = p.full_mask & ~p.up[b]
        base.append(rep.assignment[pos[jb]])
    for i, m in enumerate(masks):
        target = rep.assignment[i]
        inter = space
        for bs in base:
            if target <= bs:
                inter &= bs
        if inter != target:
            return ConditionReport(
                "closed_base",
                FALSE,
                sorted(inst.lab(x) for x in _mask_bits(m)),
                note="not an intersection of avoiding-ideal closed sets",
            )
    return ConditionReport("closed_base", TRUE)


def _open_dual_report(inst, family) -> ConditionReport:
    """Complements of members are exactly the b_sets, and the avoiding
    ideals' complements form a base for the open sets.

    Both come down to hull(J) = J on each member J.  The complement of every
    b_set holds the unit and is a power ideal, since each forced pair has
    down(tgt) ∩ B = dbm; and a b_set is the union of the up-sets of its
    powers, the avoiding ideals' complements.
    """
    p = inst.poset
    bad = [p.full_mask & ~m for m in family.masks if hull_mask(inst, m) != m]
    if bad:
        return ConditionReport(
            "open_dual",
            FALSE,
            sorted(sorted(inst.lab(x) for x in _mask_bits(m)) for m in bad),
            note="b_sets do not match the complements of the family",
        )
    return ConditionReport("open_dual", TRUE)


# -- neighborhood view ------------------------------------------------------------


@dataclass(frozen=True)
class NeighborhoodView:
    power: int
    complements: tuple[frozenset[int], ...]
    least_member: frozenset[int]
    neighborhood_axiom: ConditionReport


def neighborhood_view(inst: MonoidInstance, family: IdealFamily, b: int) -> NeighborhoodView:
    """The complements of the ideals missing a prime power: its open
    neighborhood base, least member the complement of the avoiding ideal."""
    if not family.complete:
        raise RepresentationError("neighborhood view needs the complete ideal family")
    if b not in inst.power_elements:
        raise InstanceError(f"{inst.lab(b)} is not a designated prime power")
    p = inst.poset
    missing = [m for m in family.masks if not (m >> b & 1)]
    complements = tuple(p.set_of(p.full_mask & ~m) for m in missing)
    least = p.set_of(p.up[b])
    if least not in complements:
        raise AssertionError("the avoiding ideal's complement must appear")
    for c in complements:
        if not (least <= c):
            raise AssertionError("the avoiding ideal's complement must be the least member")
        if b not in c:
            raise AssertionError("every neighborhood contains its point")
    d2 = check_condition(inst, "D2", family)
    if d2.is_true:
        powers = sorted(inst.power_elements)
        for m in missing:
            ok = any(
                not (m >> b2 & 1) and p.leq(b2, b)  # smaller base neighborhood inside
                for b2 in powers
            )
            if not ok:
                axiom = ConditionReport(
                    "neighborhood_axiom", FALSE, sorted(inst.lab(x) for x in _mask_bits(m))
                )
                break
        else:
            axiom = ConditionReport("neighborhood_axiom", TRUE)
    else:
        axiom = ConditionReport(
            "neighborhood_axiom", d2.verdict, d2.witness, note="gated on D2"
        )
    return NeighborhoodView(b, complements, least, axiom)
