"""Finite posets with partial joins and meets.

Elements are dense integer ids 0..size-1; display names live in a label
table.  The order relation is stored as per-element bitmasks, which keeps
the exhaustive quantifications used throughout the package cheap: a subset
of the carrier is an int, and subset/containment tests are single AND/OR
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence


class PosetError(ValueError):
    """Raised when the order axioms fail or an element id is out of range."""


def _mask_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """An immutable finite poset.

    ``up[i]`` is the bitmask of elements >= i and ``down[i]`` the bitmask of
    elements <= i.  Construction validates reflexivity, antisymmetry and
    transitivity and fails loudly on violations.
    """

    __slots__ = ("size", "labels", "up", "down", "full_mask", "_label_index", "_hash")

    def __init__(self, labels: Sequence[str], up_masks: Sequence[int], *, _validated: bool = False):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if len(set(labels)) != n:
            raise PosetError("labels must be pairwise distinct")
        up = tuple(int(m) for m in up_masks)
        if len(up) != n:
            raise PosetError("up_masks length must equal number of labels")
        full = (1 << n) - 1
        down = [0] * n
        for i in range(n):
            if up[i] & ~full:
                raise PosetError("up mask references element out of range")
            for j in _mask_bits(up[i]):
                down[j] |= 1 << i
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", tuple(down))
        object.__setattr__(self, "full_mask", full)
        object.__setattr__(self, "_label_index", {lab: i for i, lab in enumerate(labels)})
        object.__setattr__(self, "_hash", hash((labels, up)))
        if not _validated:
            self._validate()

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FinitePoset is immutable")

    def _validate(self) -> None:
        for i in range(self.size):
            if not self.up[i] >> i & 1:
                raise PosetError(f"order not reflexive at {self.labels[i]!r}")
        for i in range(self.size):
            for j in _mask_bits(self.up[i]):
                if j != i and self.up[j] >> i & 1:
                    raise PosetError(
                        f"order not antisymmetric: {self.labels[i]!r} <= {self.labels[j]!r} <= {self.labels[i]!r}"
                    )
                if self.up[j] & ~self.up[i]:
                    k = next(_mask_bits(self.up[j] & ~self.up[i]))
                    raise PosetError(
                        f"order not transitive: {self.labels[i]!r} <= {self.labels[j]!r} <= {self.labels[k]!r} "
                        f"but {self.labels[i]!r} !<= {self.labels[k]!r}"
                    )

    # -- constructors -------------------------------------------------

    @classmethod
    def from_leq(cls, labels: Sequence[str], leq: Callable[[int, int], bool]) -> "FinitePoset":
        """Build from a predicate ``leq(i, j)`` over element indices."""
        n = len(labels)
        up = [0] * n
        for i in range(n):
            for j in range(n):
                if leq(i, j):
                    up[i] |= 1 << j
        return cls(labels, up)

    @classmethod
    def from_pairs(cls, labels: Sequence[str], pairs: Iterable[tuple[int, int]]) -> "FinitePoset":
        """Build from generating pairs i <= j; reflexive-transitively closed."""
        n = len(labels)
        up = [1 << i for i in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise PosetError("pair index out of range")
            up[i] |= 1 << j
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = up[i]
                for j in _mask_bits(up[i]):
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True
        return cls(labels, up)

    @classmethod
    def divisors(cls, n: int) -> "FinitePoset":
        """The divisors of ``n`` ordered by divisibility."""
        if n < 1:
            raise PosetError("n must be positive")
        divs = [d for d in range(1, n + 1) if n % d == 0]
        idx = {d: i for i, d in enumerate(divs)}
        up = [0] * len(divs)
        for i, d in enumerate(divs):
            for j, e in enumerate(divs):
                if e % d == 0:
                    up[i] |= 1 << j
        return cls([str(d) for d in divs], up, _validated=True)

    @classmethod
    def chain(cls, length: int, labels: Sequence[str] | None = None) -> "FinitePoset":
        labs = labels if labels is not None else [str(i) for i in range(length)]
        return cls.from_leq(labs, lambda i, j: i <= j)

    @classmethod
    def antichain(cls, labels: Sequence[str]) -> "FinitePoset":
        return cls.from_leq(labels, lambda i, j: i == j)

    # -- basics --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePoset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FinitePoset({self.size} elements)"

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise PosetError(f"unknown label {label!r}") from None

    def elements(self) -> range:
        return range(self.size)

    def check_ids(self, ids: Iterable[int]) -> frozenset[int]:
        s = frozenset(ids)
        for i in s:
            if not (0 <= i < self.size):
                raise PosetError(f"element id {i} out of range for poset of size {self.size}")
        return s

    def mask_of(self, ids: Iterable[int]) -> int:
        m = 0
        for i in self.check_ids(ids):
            m |= 1 << i
        return m

    def set_of(self, mask: int) -> frozenset[int]:
        return frozenset(_mask_bits(mask))

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    # -- down/up sets ---------------------------------------------------

    def down_mask(self, mask: int) -> int:
        acc = 0
        for i in _mask_bits(mask):
            acc |= self.down[i]
        return acc

    def up_mask(self, mask: int) -> int:
        acc = 0
        for i in _mask_bits(mask):
            acc |= self.up[i]
        return acc

    def down_set(self, ids: Iterable[int]) -> frozenset[int]:
        """All elements below some member: the lower closure of the set."""
        return self.set_of(self.down_mask(self.mask_of(ids)))

    def up_set(self, ids: Iterable[int]) -> frozenset[int]:
        """All elements above some member: the upper closure of the set."""
        return self.set_of(self.up_mask(self.mask_of(ids)))

    def is_lower_set(self, mask: int) -> bool:
        return self.down_mask(mask) == mask

    def is_upper_set(self, mask: int) -> bool:
        return self.up_mask(mask) == mask

    # -- joins and meets -------------------------------------------------

    def join_mask(self, mask: int) -> Optional[int]:
        """Least upper bound of the masked set, or None.

        The empty join is the least element of the poset when one exists.
        """
        ubs = self.full_mask
        for i in _mask_bits(mask):
            ubs &= self.up[i]
        for m in _mask_bits(ubs):
            if not (ubs & ~self.up[m]):
                return m
        return None

    def meet_mask(self, mask: int) -> Optional[int]:
        """Greatest lower bound; the empty meet is the greatest element."""
        lbs = self.full_mask
        for i in _mask_bits(mask):
            lbs &= self.down[i]
        for m in _mask_bits(lbs):
            if not (lbs & ~self.down[m]):
                return m
        return None

    def join(self, ids: Iterable[int]) -> Optional[int]:
        return self.join_mask(self.mask_of(ids))

    def meet(self, ids: Iterable[int]) -> Optional[int]:
        return self.meet_mask(self.mask_of(ids))

    def bottom(self) -> Optional[int]:
        return self.join_mask(0)

    def top(self) -> Optional[int]:
        return self.meet_mask(0)

    def minimal_of(self, mask: int) -> frozenset[int]:
        return frozenset(i for i in _mask_bits(mask) if not (self.down[i] & mask & ~(1 << i)))

    def maximal_of(self, mask: int) -> frozenset[int]:
        return frozenset(i for i in _mask_bits(mask) if not (self.up[i] & mask & ~(1 << i)))

    # -- derived posets ----------------------------------------------------

    def dual(self) -> "FinitePoset":
        """The order dual (every comparability reversed)."""
        return FinitePoset(self.labels, self.down, _validated=True)

    def restrict(self, ids: Iterable[int]) -> tuple["FinitePoset", tuple[int, ...]]:
        """Induced subposet on ``ids``; returns it plus the old-id table."""
        keep = sorted(self.check_ids(ids))
        pos = {old: new for new, old in enumerate(keep)}
        up = [0] * len(keep)
        for new, old in enumerate(keep):
            for j in _mask_bits(self.up[old]):
                if j in pos:
                    up[new] |= 1 << pos[j]
        sub = FinitePoset([self.labels[o] for o in keep], up, _validated=True)
        return sub, tuple(keep)


# -- product order ------------------------------------------------------------


def product_up_masks(tuples: Sequence[Sequence[int]], factors: Sequence[FinitePoset]) -> list[int]:
    """Up-masks of the componentwise order on ``tuples``.

    Coordinate t of every tuple is an element of ``factors[t]``; integer
    vectors use chain factors.  up(v) is the intersection over t of the
    tuples whose coordinate t lies above v_t (Davey & Priestley, ch. 1), so
    each factor costs one mask per value, OR'd over that value's up-set.
    """
    n = len(tuples)
    up = [(1 << n) - 1] * n
    for t, f in enumerate(factors):
        level = [0] * f.size
        for i, v in enumerate(tuples):
            level[v[t]] |= 1 << i
        above = []
        for x in range(f.size):
            acc = 0
            for y in _mask_bits(f.up[x]):
                acc |= level[y]
            above.append(acc)
        for i, v in enumerate(tuples):
            up[i] &= above[v[t]]
    return up


# -- irreducibility ---------------------------------------------------------


def is_irreducible(
    p: FinitePoset,
    a: int,
    kind: str = "join",
    strength: str = "plain",
    arity: str = "finite",
) -> bool:
    """The four definitional irreducibility variants (and their meet duals).

    finite variants quantify over pairs, complete variants over arbitrary
    subsets (evaluated through the partial join, so nonexistent joins never
    constrain the predicate).  The least element is never irreducible, by
    convention; dually the greatest element is never meet-irreducible.
    """
    if kind not in ("join", "meet"):
        raise ValueError("kind must be 'join' or 'meet'")
    if strength not in ("plain", "strong"):
        raise ValueError("strength must be 'plain' or 'strong'")
    if arity not in ("finite", "complete"):
        raise ValueError("arity must be 'finite' or 'complete'")
    if kind == "meet":
        return is_irreducible(p.dual(), a, "join", strength, arity)
    p.check_ids([a])
    if p.bottom() == a:
        return False
    if arity == "finite":
        for b in range(p.size):
            for c in range(b, p.size):
                j = p.join_mask((1 << b) | (1 << c))
                if j is None:
                    continue
                if strength == "plain":
                    if j == a and a != b and a != c:
                        return False
                else:
                    if p.leq(a, j) and not p.leq(a, b) and not p.leq(a, c):
                        return False
        return True
    if strength == "plain":
        # a = join(A) with a not in A forces join(strict down-set) = a.
        strict = p.down[a] & ~(1 << a)
        return p.join_mask(strict) != a
    # Strong complete: a <= join(A) with no member above a.  The largest
    # candidate below a given bound u is (non-upper-bounds of a) & down(u),
    # so a counterexample exists iff some u >= a is the join of that set.
    avoid = 0
    for s in range(p.size):
        if not p.leq(a, s):
            avoid |= 1 << s
    for u in _mask_bits(p.up[a]):
        if p.join_mask(avoid & p.down[u]) == u:
            return False
    return True


# -- lattice classification --------------------------------------------------


@dataclass(frozen=True)
class LatticeProfile:
    """Flags of a finite poset, each decided exactly."""

    is_join_semilattice: bool
    is_meet_semilattice: bool
    is_lattice: bool
    is_complete: bool
    is_distributive: bool
    is_completely_distributive: bool


def lattice_class(p: FinitePoset) -> LatticeProfile:
    """Classify the poset by its pairwise joins and meets.

    A finite lattice is distributive iff every join-irreducible j is
    join-prime, that is, j is not below the join of the elements not above
    it (Davey & Priestley, ch. 5); its families are finite, so it is
    completely distributive iff it is distributive.
    """
    join_sl = meet_sl = p.size > 0
    for b in range(p.size):
        for c in range(b + 1, p.size):
            m = (1 << b) | (1 << c)
            if p.join_mask(m) is None:
                join_sl = False
            if p.meet_mask(m) is None:
                meet_sl = False
        if not join_sl and not meet_sl:
            break
    lattice = join_sl and meet_sl
    complete = lattice and p.bottom() is not None and p.top() is not None
    distributive = lattice and not any(
        p.join_mask(p.down[j] & ~(1 << j)) != j
        and p.leq(j, p.join_mask(p.full_mask & ~p.up[j]))
        for j in range(p.size)
    )
    return LatticeProfile(join_sl, meet_sl, lattice, complete, distributive, complete and distributive)


def definitional_complete_distributivity(p: FinitePoset, family_cap: int = 2) -> bool:
    """The raw definitional identity over families of nonempty subsets.

    Doubly exponential even when capped by family size; used only as a
    cross-check oracle on tiny complete lattices, where all joins and meets
    exist.
    """
    from itertools import combinations, product

    subsets = [m for m in range(1, 1 << p.size)]
    for k in range(1, family_cap + 1):
        for fam in combinations(subsets, k):
            jm = 0
            for m in fam:
                j = p.join_mask(m)
                if j is None:
                    raise PosetError("definitional oracle requires a complete lattice")
                jm |= 1 << j
            left = p.meet_mask(jm)
            meet_ids = 0
            for pick in product(*[list(_mask_bits(m)) for m in fam]):
                mm = 0
                for x in pick:
                    mm |= 1 << x
                mt = p.meet_mask(mm)
                if mt is None:
                    raise PosetError("definitional oracle requires a complete lattice")
                meet_ids |= 1 << mt
            if left != p.join_mask(meet_ids):
                return False
    return True


# -- order isomorphism --------------------------------------------------------


class IsomorphismCapExceeded(PosetError):
    """Raised when the brute-force search cap is exceeded."""


def order_isomorphism(
    p: FinitePoset, q: FinitePoset, cap: int = 10
) -> Optional[dict[int, int]]:
    """An order-preserving bijection with order-preserving inverse, or None.

    Brute force with degree-signature pruning; refuses beyond ``cap``.
    """
    if p.size > cap or q.size > cap:
        raise IsomorphismCapExceeded(
            f"order_isomorphism cap {cap} exceeded (sizes {p.size}, {q.size})"
        )
    if p.size != q.size:
        return None

    def sig(r: FinitePoset, i: int) -> tuple[int, int]:
        return (bin(r.down[i]).count("1"), bin(r.up[i]).count("1"))

    psig = [sig(p, i) for i in range(p.size)]
    qsig = [sig(q, j) for j in range(q.size)]
    if sorted(psig) != sorted(qsig):
        return None
    order = sorted(range(p.size), key=lambda i: psig[i])
    mapping: dict[int, int] = {}
    used = [False] * q.size

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in range(q.size):
            if used[j] or qsig[j] != psig[i]:
                continue
            good = True
            for i2, j2 in mapping.items():
                if p.leq(i, i2) != q.leq(j, j2) or p.leq(i2, i) != q.leq(j2, j):
                    good = False
                    break
            if good:
                mapping[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                del mapping[i]
                used[j] = False
        return False

    if extend(0):
        return dict(mapping)
    return None
