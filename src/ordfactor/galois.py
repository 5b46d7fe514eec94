"""Galois connections between finite posets.

A connection is a pair of monotone maps d: P1 -> P2 (lower adjoint) and
g: P2 -> P1 (upper adjoint) with a <= g(b) exactly when d(a) <= b.  Both the
definitional test and the unit/counit test are implemented and cross-checked,
guarding against transcription slips in either form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .poset import FinitePoset


class AdjunctionError(ValueError):
    """Raised for orientation mismatches or failed adjointness at construction."""


class MonotoneMap:
    """A total isotone map between two finite posets.

    ``check=False`` skips the isotonicity validation, producing a raw
    candidate for verify_connection (adjointness implies monotonicity, so
    candidate pairs can be rejected with a witness instead of erroring).
    """

    __slots__ = ("source", "target", "values")

    def __init__(self, source: FinitePoset, target: FinitePoset, values, check: bool = True):
        self.source = source
        self.target = target
        self.values = tuple(values)
        if len(self.values) != self.source.size:
            raise AdjunctionError("map must be total on its source")
        for v in self.values:
            self.target.check_ids([v])
        if check:
            for a in range(self.source.size):
                for b in range(self.source.size):
                    if self.source.leq(a, b) and not self.target.leq(self.values[a], self.values[b]):
                        raise AdjunctionError(
                            f"map not monotone at {self.source.labels[a]!r} <= {self.source.labels[b]!r}"
                        )

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.source, self.target, self.values))

    def __repr__(self):
        return f"MonotoneMap({self.source!r} -> {self.target!r})"

    def __call__(self, a: int) -> int:
        return self.values[a]

    def image(self) -> frozenset[int]:
        return frozenset(self.values)

    def is_onto(self) -> bool:
        return len(self.image()) == self.target.size

    def is_one_one(self) -> bool:
        return len(self.image()) == self.source.size

    def compose(self, inner: "MonotoneMap") -> "MonotoneMap":
        """self after inner."""
        if inner.target != self.source:
            raise AdjunctionError("composition orientation mismatch")
        return MonotoneMap(inner.source, self.target, tuple(self.values[v] for v in inner.values))


def identity_map(p: FinitePoset) -> MonotoneMap:
    return MonotoneMap(p, p, tuple(range(p.size)))


def inclusion_map(sub: FinitePoset, ambient: FinitePoset, old_ids: tuple[int, ...]) -> MonotoneMap:
    return MonotoneMap(sub, ambient, old_ids)


def verify_connection(d: MonotoneMap, g: MonotoneMap) -> tuple[bool, Optional[tuple[int, int]]]:
    """True iff (g, d) is a Galois connection; on failure a violating (a, b).

    Checks the adjunction equivalence and the unit/counit inequalities and
    insists the two routes agree pointwise.
    """
    if d.source != g.target or d.target != g.source:
        raise AdjunctionError("adjoint candidates must have opposite orientations")
    p1, p2 = d.source, d.target
    ok_units = all(p2.leq(d(g(b)), b) for b in range(p2.size)) and all(
        p1.leq(a, g(d(a))) for a in range(p1.size)
    )
    witness = None
    ok_def = True
    for a in range(p1.size):
        for b in range(p2.size):
            if p1.leq(a, g(b)) != p2.leq(d(a), b):
                ok_def = False
                if witness is None:
                    witness = (a, b)
    both_monotone = _is_monotone(d) and _is_monotone(g)
    if both_monotone and ok_def != ok_units:  # pragma: no cover - equivalent forms
        raise AssertionError("definitional and unit/counit adjunction tests disagree")
    if not both_monotone and ok_def:  # pragma: no cover - adjointness implies isotone
        raise AssertionError("adjunction held for a non-monotone candidate")
    if ok_def:
        return True, None
    if witness is None:
        # failure detected only by the unit/counit route; surface a witness
        for b in range(p2.size):
            if not p2.leq(d(g(b)), b):
                witness = (g(b), b)
                break
        else:
            for a in range(p1.size):
                if not p1.leq(a, g(d(a))):
                    witness = (a, d(a))
                    break
    return False, witness


@dataclass(frozen=True)
class GaloisConnection:
    """A verified adjoint pair; construction fails on non-adjoint input."""

    lower: MonotoneMap  # d : P1 -> P2
    upper: MonotoneMap  # g : P2 -> P1

    def __post_init__(self):
        ok, witness = verify_connection(self.lower, self.upper)
        if not ok:
            a, b = witness
            raise AdjunctionError(
                f"not a Galois connection; witness a={self.lower.source.labels[a]!r}, "
                f"b={self.lower.target.labels[b]!r}"
            )

    @property
    def p1(self) -> FinitePoset:
        return self.lower.source

    @property
    def p2(self) -> FinitePoset:
        return self.lower.target

    def closure(self) -> MonotoneMap:
        """g after d: a closure operator on P1."""
        return self.upper.compose(self.lower)

    def kernel(self) -> MonotoneMap:
        """d after g: a kernel (interior) operator on P2."""
        return self.lower.compose(self.upper)


def lower_adjoint_of(g: MonotoneMap) -> Optional[MonotoneMap]:
    """Synthesize d with d(a) = min of the g-preimage of the up-set of a.

    Absent (None) when any minimum fails to exist; when all minima exist the
    pair is automatically adjoint, which is re-verified defensively.
    """
    p1, p2 = g.target, g.source
    values = []
    for a in range(p1.size):
        pre = [b for b in range(p2.size) if p1.leq(a, g(b))]
        m = _minimum(p2, pre)
        if m is None:
            return None
        values.append(m)
    d = MonotoneMap(p1, p2, tuple(values))
    ok, _ = verify_connection(d, g)
    if not ok:  # pragma: no cover - impossible when minima exist
        raise AssertionError("synthesized lower adjoint failed verification")
    return d


def upper_adjoint_of(d: MonotoneMap) -> Optional[MonotoneMap]:
    """Synthesize g with g(b) = max of the d-preimage of the down-set of b."""
    p1, p2 = d.source, d.target
    values = []
    for b in range(p2.size):
        pre = [a for a in range(p1.size) if p2.leq(d(a), b)]
        m = _maximum(p1, pre)
        if m is None:
            return None
        values.append(m)
    g = MonotoneMap(p2, p1, tuple(values))
    ok, _ = verify_connection(d, g)
    if not ok:  # pragma: no cover
        raise AssertionError("synthesized upper adjoint failed verification")
    return g


def _is_monotone(f: MonotoneMap) -> bool:
    return all(
        f.target.leq(f.values[a], f.values[b])
        for a in range(f.source.size)
        for b in range(f.source.size)
        if f.source.leq(a, b)
    )


def _minimum(p: FinitePoset, ids: list[int]) -> Optional[int]:
    for m in ids:
        if all(p.leq(m, x) for x in ids):
            return m
    return None


def _maximum(p: FinitePoset, ids: list[int]) -> Optional[int]:
    for m in ids:
        if all(p.leq(x, m) for x in ids):
            return m
    return None


@dataclass(frozen=True)
class PreservationReport:
    lower_preserves_joins: bool
    upper_preserves_meets: bool
    lower_onto: bool
    lower_one_one: bool
    upper_onto: bool
    upper_one_one: bool
    kernel_is_identity: bool  # d(g(b)) = b for all b
    closure_is_identity: bool  # g(d(a)) = a for all a
    images_isomorphic: bool
    exhaustive: bool  # subset quantification ran over all subsets


def _preserves_joins(f: MonotoneMap, exhaustive: bool) -> bool:
    """f maps existing joins to joins; all subsets when exhaustive, else
    pairs plus the empty and full sets (equivalent on finite lattices by
    binary induction)."""
    src, tgt = f.source, f.target
    if exhaustive:
        masks = range(1 << src.size)
    else:
        base = [0, src.full_mask]
        base += [(1 << a) | (1 << b) for a, b in combinations(range(src.size), 2)]
        masks = base
    for mask in masks:
        j = src.join_mask(mask)
        if j is None:
            continue
        im = 0
        m = mask
        while m:
            low = m & -m
            im |= 1 << f(low.bit_length() - 1)
            m ^= low
        if tgt.join_mask(im) != f(j):
            return False
    return True


def preservation_report(conn: GaloisConnection, subset_cap: int = 12) -> PreservationReport:
    """Exhaustive preservation and injectivity/surjectivity law report.

    Join/meet preservation quantifies over all subsets up to ``subset_cap``
    elements in the source; beyond that the binary+extrema reduction is used.
    The one-one/onto/identity triples are cross-checked against each other
    (they are equivalent for adjoint pairs) and a violation raises.
    """
    d, g = conn.lower, conn.upper
    p1, p2 = conn.p1, conn.p2
    lower_pj = _preserves_joins(d, exhaustive=p1.size <= subset_cap)
    # upper preserves meets = dual statement of join preservation
    g_dual = MonotoneMap(p2.dual(), p1.dual(), g.values)
    upper_pm = _preserves_joins(g_dual, exhaustive=p2.size <= subset_cap)
    kernel_id = all(d(g(b)) == b for b in range(p2.size))
    closure_id = all(g(d(a)) == a for a in range(p1.size))
    rep = PreservationReport(
        lower_preserves_joins=lower_pj,
        upper_preserves_meets=upper_pm,
        lower_onto=d.is_onto(),
        lower_one_one=d.is_one_one(),
        upper_onto=g.is_onto(),
        upper_one_one=g.is_one_one(),
        kernel_is_identity=kernel_id,
        closure_is_identity=closure_id,
        images_isomorphic=_images_isomorphic(conn),
        exhaustive=p1.size <= subset_cap and p2.size <= subset_cap,
    )
    if not (rep.lower_onto == rep.upper_one_one == rep.kernel_is_identity):
        raise AssertionError("onto/one-one/identity laws disagree (lower side)")
    if not (rep.upper_onto == rep.lower_one_one == rep.closure_is_identity):
        raise AssertionError("onto/one-one/identity laws disagree (upper side)")
    return rep


def _images_isomorphic(conn: GaloisConnection) -> bool:
    """The images of the two adjoints are order-isomorphic via the canonical
    maps (checked directly, no search needed)."""
    d, g = conn.lower, conn.upper
    p1, p2 = conn.p1, conn.p2
    g_img = sorted(g.image())
    d_img = sorted(d.image())
    if len(g_img) != len(d_img):
        return False
    fwd = {a: d(a) for a in g_img}
    if sorted(set(fwd.values())) != d_img:
        return False
    for a in g_img:
        for b in g_img:
            if p1.leq(a, b) != p2.leq(fwd[a], fwd[b]):
                return False
    return True


def closure_laws_hold(conn: GaloisConnection) -> bool:
    """g∘d is a closure operator on P1 and d∘g a kernel operator on P2."""
    c = conn.closure()
    k = conn.kernel()
    p1, p2 = conn.p1, conn.p2
    for a in range(p1.size):
        if not p1.leq(a, c(a)) or c(c(a)) != c(a):
            return False
    for b in range(p2.size):
        if not p2.leq(k(b), b) or k(k(b)) != k(b):
            return False
    # monotone by MonotoneMap construction
    return True


def round_trip_laws_hold(conn: GaloisConnection) -> bool:
    """d∘g∘d = d and g∘d∘g = g."""
    d, g = conn.lower, conn.upper
    return all(d(g(d(a))) == d(a) for a in range(conn.p1.size)) and all(
        g(d(g(b))) == g(b) for b in range(conn.p2.size)
    )


def subposet_kind(p: FinitePoset, member_ids) -> str:
    """Classify a subposet: 'first' iff its inclusion has an upper adjoint,
    'second' iff it has a lower adjoint; 'both'/'neither' accordingly."""
    sub, old_ids = p.restrict(member_ids)
    incl = inclusion_map(sub, p, old_ids)
    first = upper_adjoint_of(incl) is not None
    second = lower_adjoint_of(incl) is not None
    if first and second:
        return "both"
    if first:
        return "first"
    if second:
        return "second"
    return "neither"
