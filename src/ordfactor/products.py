"""Internal and external products of pointed posets, their adjunctions, and
the exponent-vector order representations.

On finite index sets the finite-support variants coincide with the full
products; operations take a support flag and report the coincidence instead
of maintaining two code paths.  Truncated chain factors carry their bound so
isomorphism claims stay claims about the truncation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .galois import GaloisConnection, MonotoneMap, inclusion_map, subposet_kind, upper_adjoint_of
from .ideals import IdealFamily, check_condition, ideal_closure_mask, is_power_ideal_mask
from .monoid import MonoidInstance, InstanceError, check_F1, valuation
from .poset import FinitePoset, _mask_bits, product_up_masks
from .reporting import FALSE, TRUE, ConditionReport


class ProductRefusal(ValueError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# -- external products ---------------------------------------------------------------


@dataclass(frozen=True)
class ExternalProduct:
    poset: FinitePoset
    tuples: tuple[tuple[int, ...], ...]
    factors: tuple[FinitePoset, ...]
    projections: tuple[MonotoneMap, ...]
    injections: tuple[MonotoneMap, ...]
    support_note: str


def external_product(
    factors: Sequence[FinitePoset], support: str = "full", cap: int = 100000
) -> ExternalProduct:
    """Cartesian product under componentwise order, with the projection and
    bottom-padded injection maps verified adjoint, projections onto, and
    every element the join of its injected projections."""
    if support not in ("full", "finite"):
        raise InstanceError("support must be 'full' or 'finite'")
    bottoms = []
    for f in factors:
        b = f.bottom()
        if b is None:
            raise InstanceError("external products need pointed factors")
        bottoms.append(b)
    size = 1
    for f in factors:
        size *= f.size
        if size > cap:
            raise ProductRefusal(f"external product exceeds cap {cap}")
    tuples = list(itertools.product(*[range(f.size) for f in factors]))
    index = {t: i for i, t in enumerate(tuples)}
    labels = ["(" + ",".join(f.labels[x] for f, x in zip(factors, t)) + ")" for t in tuples]
    poset = FinitePoset(labels, product_up_masks(tuples, factors), _validated=True)
    projections = []
    injections = []
    for t_idx, f in enumerate(factors):
        proj = MonotoneMap(poset, f, tuple(t[t_idx] for t in tuples))
        inj_vals = []
        for x in range(f.size):
            padded = tuple(x if k == t_idx else bottoms[k] for k in range(len(factors)))
            inj_vals.append(index[padded])
        inj = MonotoneMap(f, poset, tuple(inj_vals))
        GaloisConnection(lower=inj, upper=proj)  # raises unless adjoint
        if not proj.is_onto():  # pragma: no cover - projections are onto by construction
            raise AssertionError("projections must be onto")
        projections.append(proj)
        injections.append(inj)
    for i in range(poset.size):
        mask = 0
        for proj, inj in zip(projections, injections):
            mask |= 1 << inj(proj(i))
        if poset.join_mask(mask) != i:  # pragma: no cover - product-order identity
            raise AssertionError("each element must be the join of its injected projections")
    note = (
        "finite index set: the finite-support product coincides with the full product"
        if support == "finite"
        else "full-support product"
    )
    return ExternalProduct(poset, tuple(tuples), tuple(factors), tuple(projections), tuple(injections), note)


# -- internal products ----------------------------------------------------------------


@dataclass(frozen=True)
class ProductWitness:
    ambient: FinitePoset
    factor_ids: tuple[tuple[int, ...], ...]
    factor_posets: tuple[FinitePoset, ...]
    decomposition: dict[int, tuple[int, ...]]  # ambient element -> factor-local selection
    projections: tuple[MonotoneMap, ...]  # upper adjoints of the inclusions
    inclusions: tuple[MonotoneMap, ...]


def internal_product_witness(
    p: FinitePoset, factors: Sequence[Iterable[int]], cap: int = 100000
):
    """Verify that the factor subposets decompose the ambient poset.

    Returns (witness, None) on success, (None, failing_clause) otherwise.
    Clauses: every factor contains the bottom and is of the first kind,
    every selection has a join, distinct selections have distinct joins
    (the uniqueness reading of existence "uniquely"), and the joins cover
    the ambient poset.
    """
    bottom = p.bottom()
    if bottom is None:
        return None, "ambient poset has no least element"
    factor_ids = [tuple(sorted(p.check_ids(f))) for f in factors]
    subs = []
    inclusions = []
    projections = []
    for ids in factor_ids:
        if bottom not in ids:
            return None, "factor does not contain the least element"
        sub, old = p.restrict(ids)
        incl = inclusion_map(sub, p, old)
        r = upper_adjoint_of(incl)
        if r is None:
            return None, "factor is not of the first kind"
        subs.append(sub)
        inclusions.append(incl)
        projections.append(r)
    total = 1
    for sub in subs:
        total *= sub.size
        if total > cap:
            raise ProductRefusal(f"internal product selections exceed cap {cap}")
    decomposition: dict[int, tuple[int, ...]] = {}
    for selection in itertools.product(*[range(s.size) for s in subs]):
        mask = 0
        for incl, x in zip(inclusions, selection):
            mask |= 1 << incl(x)
        j = p.join_mask(mask)
        if j is None:
            return None, "a selection has no join"
        if j in decomposition and decomposition[j] != selection:
            return None, "distinct selections share a join"
        decomposition.setdefault(j, selection)
    if len(decomposition) != p.size:
        return None, "selection joins do not cover the poset"
    witness = ProductWitness(
        p,
        tuple(factor_ids),
        tuple(subs),
        decomposition,
        tuple(projections),
        tuple(inclusions),
    )
    _verify_witness_laws(witness)
    return witness, None


def _verify_witness_laws(w: ProductWitness) -> None:
    """Projection/selection identities and pairwise-bottom intersections;
    theorems once the witness clauses hold, so violations raise."""
    p = w.ambient
    for a, selection in w.decomposition.items():
        mask = 0
        for incl, r in zip(w.inclusions, w.projections):
            mask |= 1 << incl(r(a))
        if p.join_mask(mask) != a:
            raise AssertionError("every element must be the join of its projections")
        for r, x in zip(w.projections, selection):
            if r(a) != x:
                raise AssertionError("projections must recover the defining selection")
    bottom = p.bottom()
    for i in range(len(w.factor_ids)):
        for j in range(i + 1, len(w.factor_ids)):
            inter = set(w.factor_ids[i]) & set(w.factor_ids[j])
            if inter != {bottom}:
                raise AssertionError("factors must intersect pairwise in the bottom")


def internal_external_iso(witness: ProductWitness) -> dict[int, int]:
    """The order isomorphism from the internally decomposed poset onto the
    external product of the factor subposets (element -> product element)."""
    ext = external_product(witness.factor_posets)
    index = {t: i for i, t in enumerate(ext.tuples)}
    mapping = {}
    for a in range(witness.ambient.size):
        selection = tuple(r(a) for r in witness.projections)
        mapping[a] = index[selection]
    if len(set(mapping.values())) != ext.poset.size:
        raise AssertionError("internal-external map must be a bijection")
    p = witness.ambient
    for a in range(p.size):
        for b in range(p.size):
            if p.leq(a, b) != ext.poset.leq(mapping[a], mapping[b]):
                raise AssertionError("internal-external map must preserve order both ways")
    return mapping


# -- order representation ----------------------------------------------------------------


@dataclass(frozen=True)
class OrderRepresentation:
    bases: tuple[int, ...]
    bounds: tuple[int, ...]
    vectors: dict[int, tuple[int, ...]]
    om: bool
    note: str


def order_representation_monoid(inst: MonoidInstance) -> OrderRepresentation:
    """Exponent-vector representation of a fully decomposable instance onto
    an external direct power of truncated chains; refuses with the witness
    when full decomposability fails.  A multiplication that is not the
    truncated vector addition leaves ``om`` false; the note names its pair."""
    f1 = check_F1(inst)
    if not f1.is_true:
        raise ProductRefusal(f"full decomposability fails at {f1.witness}", witness=f1.witness)
    bases = inst.bases
    bounds = tuple(max(pp.exponent for pp in inst.powers_of(b)) for b in bases)
    vectors = {
        a: tuple(valuation(inst, a, b) for b in bases) for a in range(inst.size)
    }
    mult_failure = _verify_vector_map(inst.poset, vectors, bounds, "carrier", inst.mult)
    note = f"chains truncated at bounds {list(bounds)}"
    om = inst.has_mult and mult_failure is None
    if om:
        note += "; OM-isomorphism (multiplication adds vectors, truncation-aligned)"
    elif mult_failure is not None:
        reason, (a, b) = mult_failure
        pair = f"{inst.lab(a)}*{inst.lab(b)}"
        if reason == "definedness":
            note += f"; no OM-isomorphism: definedness of {pair} does not match the truncation bounds"
        else:
            note += f"; no OM-isomorphism: {pair} does not add exponent vectors"
    return OrderRepresentation(bases, bounds, vectors, om, note)


def order_representation_family(inst: MonoidInstance, family: IdealFamily) -> OrderRepresentation:
    """Exponent-vector representation of the power-ideal family, gated on
    full decomposability (chain power-sets are finite automatically)."""
    d1 = check_condition(inst, "D1", family)
    if not d1.is_true:
        raise ProductRefusal(f"full decomposability fails at {d1.witness}", witness=d1.witness)
    if not family.complete:
        raise ProductRefusal("representation needs the complete ideal family")
    bases = inst.bases
    bounds = tuple(max(pp.exponent for pp in inst.powers_of(b)) for b in bases)
    fam_poset, masks = family.poset()
    vectors = {}
    for i, m in enumerate(masks):
        vec = []
        for b, bound in zip(bases, bounds):
            level = 0
            for pp in inst.powers_of(b):
                if m >> pp.element & 1:
                    level = max(level, pp.exponent)
            vec.append(level)
        vectors[i] = tuple(vec)
    _verify_vector_map(fam_poset, vectors, bounds, "ideal family")
    return OrderRepresentation(bases, bounds, vectors, False, f"chains truncated at bounds {list(bounds)}")


def _verify_vector_map(p: FinitePoset, vectors, bounds, what: str, mult=None):
    """Refuse unless the vectors map ``p`` isomorphically onto the chain
    power; return the first failure of ``mult`` to be its truncated vector
    addition, if any."""
    failure = chain_power_failure(p, list(vectors.values()), bounds, mult)
    reason = failure and failure[0]
    if reason == "cardinality":
        size, total = failure[1]
        raise ProductRefusal(f"the {what} is not a full chain power (size {size} vs {total})")
    if reason == "injective":
        raise ProductRefusal(f"vector map on the {what} is not injective")
    if reason == "order":
        raise ProductRefusal(f"vector map on the {what} is not an order isomorphism")
    return failure


def chain_power_failure(p: FinitePoset, vectors, bounds, mult=None):
    """Why ``vectors[a]``, each within the bounds, is not an isomorphism of
    ``p`` onto the direct power of the chains 0..bounds[t], as (reason,
    witness); None when it is one.

    In order: "cardinality" (witness: both sizes), "injective", "order" (the
    first pair a, b it gets wrong).  Given a table keyed (a, b) with a <= b,
    then over those pairs, row by row, "definedness" (a*b is defined iff the
    vector sum stays within the bounds) before "addition" (vectors add).
    """
    n, total = len(vectors), math.prod(b + 1 for b in bounds)
    if total != n:
        return "cardinality", (n, total)
    element_of = {v: a for a, v in enumerate(vectors)}
    if len(element_of) != n:
        return "injective", None
    up = product_up_masks(vectors, [FinitePoset.chain(b + 1) for b in bounds])
    for a in range(n):
        if up[a] != p.up[a]:
            return "order", (a, next(_mask_bits(up[a] ^ p.up[a])))
    if mult is None:
        return None
    partners = [0] * n
    for a, b in mult:
        partners[a] |= 1 << b
        partners[b] |= 1 << a
    for a in range(n):
        # a*b stays within the bounds iff b lies below the complement of a
        complement = element_of[tuple(bd - x for bd, x in zip(bounds, vectors[a]))]
        misfit = (partners[a] ^ p.down[complement]) >> a << a
        first = (misfit & -misfit).bit_length() - 1 if misfit else n
        for b in _mask_bits(partners[a] >> a << a):
            if b >= first:
                break
            if vectors[mult[(a, b)]] != tuple(x + y for x, y in zip(vectors[a], vectors[b])):
                return "addition", (a, b)
        if misfit:
            return "definedness", (a, first)
    return None


# -- algebraic view ---------------------------------------------------------------------


def algebraic_view(inst: MonoidInstance, family: IdealFamily) -> tuple[ConditionReport, ...]:
    """Transport componentwise multiplication to the ideal family through
    the vector representation and report its agreement with the principal
    multiplication (vectors add; products of principal ideals are the
    principal ideals of products)."""
    rep = order_representation_family(inst, family)
    fam_poset, masks = family.poset()
    pos = {m: i for i, m in enumerate(masks)}
    out = []
    bad = None
    least = pos[ideal_closure_mask(inst, 0)]
    for i in range(len(masks)):
        summed = tuple(x + y for x, y in zip(rep.vectors[least], rep.vectors[i]))
        if summed != rep.vectors[i]:
            bad = i
            break
    out.append(
        ConditionReport(
            "unit_neutral", TRUE if bad is None else FALSE, None if bad is None else bad
        )
    )
    if inst.has_mult:
        bad = None
        mp = inst.poset
        for (x, y), xy in inst.mult.items():
            ix, iy, ixy = pos[mp.down[x]], pos[mp.down[y]], pos[mp.down[xy]]
            summed = tuple(u + v for u, v in zip(rep.vectors[ix], rep.vectors[iy]))
            if summed != rep.vectors[ixy]:
                bad = (inst.lab(x), inst.lab(y))
                break
        out.append(
            ConditionReport(
                "principal_products_add_vectors", TRUE if bad is None else FALSE, bad
            )
        )
    else:
        out.append(
            ConditionReport(
                "principal_products_add_vectors",
                "not_applicable",
                note="instance carries no multiplication",
            )
        )
    return tuple(out)


# -- the complementary-factor structure -----------------------------------------------------


@dataclass(frozen=True)
class ComplementaryFactorReport:
    checks: tuple[ConditionReport, ...]

    @property
    def ok(self) -> bool:
        return all(c.is_true for c in self.checks)

    def check(self, name: str) -> ConditionReport:
        for c in self.checks:
            if c.condition == name:
                return c
        raise KeyError(name)


def complementary_factor_structure(
    inst: MonoidInstance, family: IdealFamily
) -> ComplementaryFactorReport:
    """For each base q: the join of the other bases' power chains is exactly
    the avoiding ideal of q; all of them intersect to the least ideal, and
    they join pairwise to the top.

    Both subposet kinds are reported.  In the direct orientation the
    inclusion of an avoiding ideal can only have an upper adjoint (no member
    lies above the avoided power, so a least member above it cannot exist);
    the lower adjoint appears in the order dual, which is therefore the
    orientation under which the complementary factors are of the second
    kind.
    """
    p = inst.poset
    f1 = check_F1(inst)
    if not f1.is_true:
        raise ProductRefusal(f"full decomposability fails at {f1.witness}", witness=f1.witness)
    chain_masks = {}
    for b in inst.bases:
        mask = 1 << inst.unit
        for pp in inst.powers_of(b):
            mask |= 1 << pp.element
        chain_masks[b] = mask
        ok, witness = is_power_ideal_mask(inst, mask)
        if not ok:
            return ComplementaryFactorReport(
                (ConditionReport("chain_ideal", FALSE, witness),)
            )
    comp = {}
    for q in inst.bases:
        union = 0
        for b in inst.bases:
            if b != q:
                union |= chain_masks[b]
        comp[q] = ideal_closure_mask(inst, union)
    checks = []
    inter = p.full_mask
    for q in inst.bases:
        inter &= comp[q]
    least = ideal_closure_mask(inst, 0)
    checks.append(
        ConditionReport(
            "intersection_is_least",
            TRUE if inter == least else FALSE,
            None if inter == least else sorted(inst.lab(i) for i in _mask_bits(inter)),
        )
    )
    bad = None
    for q1, q2 in itertools.combinations(inst.bases, 2):
        if ideal_closure_mask(inst, comp[q1] | comp[q2]) != p.full_mask:
            bad = (inst.lab(q1), inst.lab(q2))
            break
    checks.append(ConditionReport("pairwise_join_is_top", TRUE if bad is None else FALSE, bad))
    bad = None
    for q in inst.bases:
        if comp[q] != p.full_mask & ~p.up[q]:
            bad = inst.lab(q)
            break
    checks.append(ConditionReport("equals_avoiding_ideal", TRUE if bad is None else FALSE, bad))
    kinds_direct = {subposet_kind(p, p.set_of(comp[q])) for q in inst.bases}
    kinds_dual = {subposet_kind(p.dual(), p.set_of(comp[q])) for q in inst.bases}
    checks.append(
        ConditionReport(
            "kind_direct_first",
            TRUE if kinds_direct <= {"first", "both"} else FALSE,
            None if kinds_direct <= {"first", "both"} else sorted(kinds_direct),
        )
    )
    checks.append(
        ConditionReport(
            "kind_dual_second",
            TRUE if kinds_dual <= {"second", "both"} else FALSE,
            None if kinds_dual <= {"second", "both"} else sorted(kinds_dual),
        )
    )
    return ComplementaryFactorReport(tuple(checks))


def principal_power_chain_factors(inst: MonoidInstance, family: IdealFamily):
    """The per-base chains of principal power ideals inside the family poset:
    the canonical first-kind factors of the decomposable ideal lattice."""
    fam_poset, masks = family.poset()
    pos = {m: i for i, m in enumerate(masks)}
    p = inst.poset
    least = pos[ideal_closure_mask(inst, 0)]
    factors = []
    for b in inst.bases:
        ids = [least]
        for pp in inst.powers_of(b):
            ids.append(pos[p.down[pp.element]])
        factors.append(tuple(ids))
    return fam_poset, tuple(factors)
