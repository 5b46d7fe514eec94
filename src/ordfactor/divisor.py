"""Ideal systems: divisorial closure, the principal-label Galois connection,
and the Krull / Dedekind / UFD / PID classifier.

An ideal system is a finite meet-closed poset of "ideals" ordered by
inclusion, with a zero ideal at the bottom, an order-reversing embedding of
a monoid instance as the principal ideals, and optional multiplication.
The divisor lattice of the model is the nonzero part under reverse
inclusion; classification verdicts are stated about that finite model
(reports label them in-model) via the order-theoretic criteria, so systems
without multiplicative data still classify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .galois import GaloisConnection, MonotoneMap, subposet_kind
from .ideals import IdealFamily
from .monoid import MonoidInstance, InstanceError, covering_law_failure
from .poset import FinitePoset, _mask_bits, is_irreducible
from .products import chain_power_failure
from .reporting import FALSE, NOT_EVALUATED, TRUE, ConditionReport


class IdealSystem:
    """Immutable ideal system; construction validates the model axioms."""

    def __init__(
        self,
        name: str,
        poset: FinitePoset,
        zero: int,
        principal: dict[int, int],
        monoid: MonoidInstance,
        mult: Optional[dict] = None,
    ):
        self.name = name
        self.poset = poset
        self.zero = zero
        self.principal = dict(principal)
        self.monoid = monoid
        self.mult = self._normalize_mult(mult) if mult is not None else None
        self.principal_mask = poset.mask_of(self.principal.values())
        self._cache: dict = {}
        self._validate()

    def _normalize_mult(self, mult: dict) -> dict:
        table: dict[tuple[int, int], int] = {}
        for (a, b), c in mult.items():
            self.poset.check_ids([a, b, c])
            key = (a, b) if a <= b else (b, a)
            if table.get(key, c) != c:
                raise InstanceError("ideal multiplication not commutative")
            table[key] = c
        return table

    def _validate(self) -> None:
        """The model axioms, each decided by masks.  Exact: the common lower
        bounds of two ideals form a down-set, which has a greatest element
        iff it is that element's down-set."""
        p = self.poset
        if p.bottom() != self.zero:
            raise InstanceError("the zero ideal must sit below every ideal")
        if p.top() is None:
            raise InstanceError("ideal systems need a unit (top) ideal")
        down = p.down
        down_sets = set(down)
        for a in range(p.size):
            for b in range(a + 1, p.size):
                if down[a] & down[b] not in down_sets:
                    raise InstanceError(
                        f"ideals must be closed under intersection: {p.labels[a]} with {p.labels[b]}"
                    )
        mp = self.monoid.poset
        if set(self.principal) != set(range(mp.size)):
            raise InstanceError("the principal embedding must be total on the monoid")
        vals = list(self.principal.values())
        if len(set(vals)) != len(vals):
            raise InstanceError("the principal embedding must be injective")
        if self.zero in vals:
            raise InstanceError("the zero ideal is never principal")
        if self.principal[self.monoid.unit] != p.top():
            raise InstanceError("the unit's principal ideal must be the unit (top) ideal")
        label = {o: x for x, o in self.principal.items()}
        for x in range(mp.size):
            below = 0  # the y whose principal ideal lies inside x's
            for o in _mask_bits(down[self.principal[x]] & self.principal_mask):
                below |= 1 << label[o]
            if below != mp.up[x]:
                y = next(_mask_bits(below ^ mp.up[x]))
                raise InstanceError(
                    f"the principal embedding must reverse order at {mp.labels[x]}, {mp.labels[y]}"
                )
        if self.mult is not None:
            if self.monoid.mult is None:
                raise InstanceError(
                    f"ideal multiplication needs a monoid with one; {self.monoid.name!r} has none"
                )
            for (x, y), xy in sorted(self.monoid.mult.items()):
                pi = self.product(self.principal[x], self.principal[y])
                if pi is not None and pi != self.principal[xy]:
                    raise InstanceError(
                        f"ideal multiplication disagrees with the monoid at {mp.labels[x]}*{mp.labels[y]}"
                    )

    def product(self, a: int, b: int) -> Optional[int]:
        if self.mult is None:
            return None
        return self.mult.get((a, b) if a <= b else (b, a))

    def lab(self, i: int) -> str:
        return self.poset.labels[i]

    def nonzero(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.poset.size) if i != self.zero)


def derive_system(inst: MonoidInstance) -> IdealSystem:
    """The divisibility model of a monoid instance: each element x gives the
    principal ideal of its multiples (an upper set), the family is completed
    under intersections, and the empty intersection is the zero ideal.

    On instances with all least common multiples the completion adds nothing
    beyond zero; otherwise honest non-principal ideals appear.
    """
    mp = inst.poset
    n = mp.size
    principal_sets = {mp.up[x]: x for x in range(n)}
    fam = set(principal_sets)
    frontier = set(fam)
    while frontier:
        new = set()
        for a in frontier:
            for b in principal_sets:
                c = a & b
                if c and c not in fam and c not in new:
                    new.add(c)
        fam |= new
        frontier = new
    ordered = [0] + sorted(fam, key=lambda m: (-bin(m).count("1"), sorted(_mask_bits(m))))
    pos = {m: i for i, m in enumerate(ordered)}
    labels = []
    for m in ordered:
        if m == 0:  # equal to no "(x)" or "<...>" label, whatever the element labels
            labels.append("0")
        elif m in principal_sets:
            labels.append(f"({mp.labels[principal_sets[m]]})")
        else:
            gens = sorted(mp.labels[i] for i in mp.minimal_of(m))
            labels.append("<" + ",".join(gens) + ">")
    containing = [0] * n  # per element: the ideals that contain it
    for j, b in enumerate(ordered):
        for e in _mask_bits(b):
            containing[e] |= 1 << j
    up = []  # set inclusion is ideal inclusion
    for a in ordered:
        acc = (1 << len(ordered)) - 1
        for e in _mask_bits(a):
            acc &= containing[e]
        up.append(acc)
    poset = FinitePoset(labels, up, _validated=True)
    mult = None
    if inst.has_mult:
        mult = {}
        for (a, b), c in inst.mult.items():
            mult[(pos[mp.up[a]], pos[mp.up[b]])] = pos[mp.up[c]]
        for i in range(len(ordered)):
            mult[(0, i)] = 0
    return IdealSystem(
        name=f"{inst.name}-system",
        poset=poset,
        zero=0,
        principal={x: pos[mp.up[x]] for x in range(n)},
        monoid=inst,
        mult=mult,
    )


# -- divisorial closure ------------------------------------------------------------


def divisorial_closure(sys: IdealSystem, a: int) -> int:
    """Meet of the principal ideals containing ``a``; zero closes to itself."""
    sys.poset.check_ids([a])
    if a == sys.zero:
        return a
    m = sys.poset.meet_mask(sys.poset.up[a] & sys.principal_mask)
    if m is None:  # pragma: no cover - meets validated at construction
        raise AssertionError("meet of principal ideals missing")
    return m


@dataclass(frozen=True)
class DivisorialData:
    closure: tuple[int, ...]
    fixed_points: frozenset[int]
    classes: tuple[tuple[int, ...], ...]


def divisorial_data(sys: IdealSystem) -> DivisorialData:
    """Closure map, divisorial (fixed) ideals, and the divisor classes
    (ideals sharing their principal upper sets)."""
    closure = tuple(divisorial_closure(sys, a) for a in range(sys.poset.size))
    p = sys.poset
    groups: dict[int, list[int]] = {}
    for a in range(p.size):
        groups.setdefault(closure[a], []).append(a)
    return DivisorialData(
        closure=closure,
        fixed_points=frozenset(a for a in range(p.size) if closure[a] == a),
        classes=tuple(tuple(v) for _, v in sorted(groups.items())),
    )


# -- the principal-label connection ---------------------------------------------------


def build_principal_connection(sys: IdealSystem, family: IdealFamily) -> GaloisConnection:
    """The Galois connection between the reversed ideal poset and the power
    ideals: an ideal maps to its principal labels, a power ideal to the
    intersection of its principals.

    Phases of the infinite theory that need infinitely many principals (the
    zero ideal as an intersection) degenerate in a finite model: the meet of
    all principals is the top element's principal ideal, so d never reaches
    zero and "d(J) = zero implies J is everything" holds vacuously.
    """
    if not family.complete:
        raise InstanceError("the principal connection needs the complete ideal family")
    if family.instance is not sys.monoid:
        raise InstanceError("ideal family belongs to a different monoid")
    fam_poset, masks = family.poset()
    pos = {m: i for i, m in enumerate(masks)}
    idual = sys.poset.dual()
    mp = sys.monoid.poset
    d_vals = []
    for m in masks:
        members = [sys.principal[x] for x in _mask_bits(m)]
        glb = sys.poset.meet(members)
        if glb is None:  # pragma: no cover - meets validated
            raise AssertionError("principal meet missing")
        d_vals.append(glb)
    g_vals = []
    for a in range(sys.poset.size):
        label_mask = 0
        for x in range(mp.size):
            if sys.poset.leq(a, sys.principal[x]):
                label_mask |= 1 << x
        if label_mask not in pos:
            raise InstanceError(
                f"principal labels above {sys.lab(a)} do not form a power ideal"
            )
        g_vals.append(pos[label_mask])
    d = MonotoneMap(fam_poset, idual, tuple(d_vals))
    g = MonotoneMap(idual, fam_poset, tuple(g_vals))
    conn = GaloisConnection(d, g)
    full = pos[sys.monoid.poset.full_mask]
    if g_vals[sys.zero] != full:
        raise AssertionError("the zero ideal must collect every principal label")
    data = divisorial_data(sys)
    for i in range(len(masks)):
        if data.closure[d_vals[i]] != d_vals[i]:
            raise AssertionError("principal intersections must be divisorial")
    return conn


@dataclass(frozen=True)
class ClosedFamilyReport:
    closed: tuple[int, ...]
    kind: str
    principal_hull_identity: bool
    hull_witness: object = None


def galois_closed_ideals(
    sys: IdealSystem, family: IdealFamily, conn: GaloisConnection
) -> ClosedFamilyReport:
    """Image of the upper adjoint over the nonzero ideals, as indices into
    the family poset.

    The closure-operator laws (hulls contain their ideals, hulls of nonzero
    images are closed) are enforced; the identity "a closed member equals
    the intersection of the principal down-sets containing it" needs every
    ideal to be the sum of its principal sub-ideals, which sparse models can
    violate, so it is reported rather than enforced.
    """
    fam_poset, masks = family.poset()
    g = conn.upper
    d = conn.lower
    closed = tuple(sorted({g(a) for a in sys.nonzero()}))
    closed_set = set(closed)
    mp = sys.monoid.poset
    hull_identity, hull_witness = True, None
    for j in closed:
        meet_of_principals = mp.full_mask
        for x in range(mp.size):
            if masks[j] | mp.down[x] == mp.down[x]:
                meet_of_principals &= mp.down[x]
        if meet_of_principals != masks[j]:
            hull_identity, hull_witness = False, sorted(
                sys.monoid.lab(i) for i in _mask_bits(masks[j])
            )
            break
    for j in range(len(masks)):
        hull = g(d(j))
        if masks[j] | masks[hull] != masks[hull]:
            raise AssertionError("the closure hull must contain its ideal")
        if d(j) != sys.zero and hull not in closed_set:
            raise AssertionError("closure hulls of nonzero images must be closed")
    kind = subposet_kind(fam_poset, closed)
    return ClosedFamilyReport(closed, kind, hull_identity, hull_witness)


# -- the divisor lattice ------------------------------------------------------------


def divisor_lattice(sys: IdealSystem):
    """The nonzero ideals under reverse inclusion (the in-model divisors),
    plus the id table back into the system and transported multiplication."""
    if "divisor_lattice" not in sys._cache:
        keep = sys.nonzero()
        sub, old = sys.poset.dual().restrict(keep)
        back = {o: i for i, o in enumerate(old)}
        mult = None
        if sys.mult is not None:
            mult = {}
            for (a, b), c in sys.mult.items():
                if a in back and b in back and c in back:
                    ka, kb = back[a], back[b]
                    mult[(ka, kb) if ka <= kb else (kb, ka)] = back[c]
        sys._cache["divisor_lattice"] = (sub, old, mult)
    return sys._cache["divisor_lattice"]


def _atom_powers(lattice: FinitePoset, mult: Optional[dict]):
    """The atom-power family: with multiplication, genuine powers of atoms;
    without, the join-irreducible elements above a single atom.

    Returns (chains, elements) where chains maps each atom to its ordered
    power list.
    """
    bottom = lattice.bottom()
    if bottom is None:
        raise InstanceError("the divisor lattice needs a least element")
    atom_mask = lattice.minimal_of(lattice.full_mask & ~(1 << bottom))
    chains: dict[int, list[int]] = {}
    if mult is not None:
        def product(a, b):
            return mult.get((a, b) if a <= b else (b, a))

        for atom in sorted(atom_mask):
            chain = []
            current = atom
            seen = {bottom}
            while current is not None and current not in seen:
                chain.append(current)
                seen.add(current)
                current = product(current, atom)
            chains[atom] = chain
    else:
        # The complete test (the join of x's strict down-set is not x) equals
        # the pairwise one here: every family with an upper bound in the
        # divisor lattice has a join (the intersection of its ideals is
        # nonzero), so if the strict down-set joins to x, adding its members
        # one at a time reaches x first at some pair t v b with t, b < x.
        amask = lattice.mask_of(atom_mask)
        for atom in sorted(atom_mask):
            members = [
                x
                for x in range(lattice.size)
                if x != bottom
                and lattice.down[x] & amask == 1 << atom
                and is_irreducible(lattice, x, "join", "plain", "complete")
            ]
            members.sort(key=lambda x: bin(lattice.down[x]).count("1"))
            chains[atom] = members
    elements = tuple(sorted({e for ch in chains.values() for e in ch}))
    return chains, elements


def check_D6(sys: IdealSystem) -> ConditionReport:
    """Every in-model divisor is a finite join of atom powers, uniquely.

    Uniqueness is the covering law on the atom-power family, one member per
    atom: a member below an existing join of members must sit below one of
    them.  The covering-law kernel decides it.  Without multiplication an
    atom's group need not be a chain; the kernel tries its maximal members.
    """
    lattice, old, mult = divisor_lattice(sys)
    chains, elements = _atom_powers(lattice, mult)
    emask = lattice.mask_of(elements)
    for x in range(lattice.size):
        if x == lattice.bottom():
            continue
        if lattice.join_mask(lattice.down[x] & emask) != x:
            return ConditionReport("D6", FALSE, sys.lab(old[x]), note="no atom-power decomposition")
    failure = covering_law_failure(lattice, [lattice.mask_of(chains[a]) for a in sorted(chains)])
    if failure is None:
        return ConditionReport("D6", TRUE)
    _, x, members = failure
    return ConditionReport(
        "D6",
        FALSE,
        (sys.lab(old[x]), sorted(sys.lab(old[e]) for e in members)),
        note="atom-power covering law fails (non-unique decomposition)",
    )


# -- classification ---------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationVerdict:
    krull: bool
    dedekind: bool
    ufd: bool
    pid: bool
    krull_witness: object = None
    dedekind_witness: object = None
    ufd_witness: object = None

    def __post_init__(self):
        if self.pid != (self.dedekind and self.ufd):  # pragma: no cover - by construction
            raise AssertionError("pid must equal dedekind and ufd")


def classify(sys: IdealSystem) -> ClassificationVerdict:
    """In-model Krull/Dedekind/UFD/PID verdicts.

    Krull is atom-power decomposability of the divisor lattice; Dedekind
    adds that every nonzero ideal is divisorial; UFD adds that every nonzero
    ideal is principal; PID is their conjunction.  Divisoriality stands in
    for the lemma-level criterion, the principal connection's lower adjoint
    reaching every nonzero ideal: the adjoint's image is exactly the
    divisorial ideals, which the test suite checks.  A false Dedekind or
    UFD verdict carries its own clause's witness, or D6's when the clause
    holds.
    """
    d6 = check_D6(sys)
    krull = d6.is_true
    data = divisorial_data(sys)
    non_div = [a for a in sys.nonzero() if data.closure[a] != a]
    non_principal = [a for a in sys.nonzero() if not sys.principal_mask >> a & 1]
    dedekind = krull and not non_div
    ufd = krull and not non_principal
    return ClassificationVerdict(
        krull=krull,
        dedekind=dedekind,
        ufd=ufd,
        pid=dedekind and ufd,
        krull_witness=d6.witness,
        dedekind_witness=sys.lab(non_div[0]) if non_div else d6.witness,
        ufd_witness=sys.lab(non_principal[0]) if non_principal else d6.witness,
    )


# -- atom/prime structure on the closed family --------------------------------------------


def atom_prime_check(sys: IdealSystem, family: IdealFamily, closed: tuple[int, ...]):
    """For each prime-power base of the monoid: its principal power ideal is
    an atom of the closed family, and a prime element when ideal
    multiplication is available; reports per base."""
    fam_poset, masks = family.poset()
    pos = {m: i for i, m in enumerate(masks)}
    mp = sys.monoid.poset
    closed_set = set(closed)
    least = min(closed, key=lambda j: bin(masks[j]).count("1"))
    conn = build_principal_connection(sys, family) if sys.mult is not None else None

    def closed_product(a: int, b: int) -> Optional[int]:
        prod = sys.product(conn.lower(a), conn.lower(b))
        if prod is None or prod == sys.zero:
            return None
        return conn.upper(prod)

    out = []
    for base in sys.monoid.bases:
        j = pos.get(mp.down[base])
        if j is None or j not in closed_set:
            out.append(ConditionReport(f"atom:{sys.monoid.lab(base)}", FALSE, sys.monoid.lab(base)))
            continue
        is_atom = j != least and all(
            not (masks[k] | masks[j] == masks[j]) or k in (j, least) for k in closed
        )
        out.append(
            ConditionReport(
                f"atom:{sys.monoid.lab(base)}",
                TRUE if is_atom else FALSE,
                None if is_atom else sys.monoid.lab(base),
            )
        )
        if conn is not None:
            prime = True
            for a in closed:
                for b in closed:
                    ab = closed_product(a, b)
                    if ab is None:
                        continue
                    if (
                        masks[j] | masks[ab] == masks[ab]
                        and masks[j] | masks[a] != masks[a]
                        and masks[j] | masks[b] != masks[b]
                    ):
                        prime = False
            out.append(
                ConditionReport(
                    f"prime:{sys.monoid.lab(base)}",
                    TRUE if prime else FALSE,
                    None if prime else sys.monoid.lab(base),
                )
            )
        else:
            out.append(
                ConditionReport(
                    f"prime:{sys.monoid.lab(base)}",
                    NOT_EVALUATED,
                    note="no multiplicative structure on the closed family",
                )
            )
    return tuple(out)


# -- the clause harness --------------------------------------------------------------------


@dataclass(frozen=True)
class ClauseReport:
    instance: str
    clauses: tuple[ConditionReport, ...]
    disagreements: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def clause(self, name: str) -> ConditionReport:
        for c in self.clauses:
            if c.condition == name:
                return c
        raise KeyError(name)


def krull_clause_harness(sys: IdealSystem) -> ClauseReport:
    """Independent evaluation of the Krull-characterization clauses on the
    divisor lattice, with pairwise agreement of the evaluable ones flagged.

    Clause names: decomposition (atom-power decomposability with uniqueness),
    irreducibles_in_powers (chain stabilization plus irreducibles inside the
    atom-power family), arithmetic (join distributivity, cancellation,
    order-defined multiplication, chain stabilization), chain_power
    (isomorphism with an external direct power of truncated chains).
    """
    lattice, old, mult = divisor_lattice(sys)
    chains, elements = _atom_powers(lattice, mult)
    clauses = [ConditionReport("decomposition", *_strip(check_D6(sys)))]
    emask = lattice.mask_of(elements)
    bottom = lattice.bottom()
    bad = None
    for x in range(lattice.size):
        strict = lattice.down[x] & ~(1 << x)
        if lattice.join_mask(strict) != x and not (emask >> x & 1) and x != bottom:
            bad = x
            break
    clauses.append(
        ConditionReport(
            "irreducibles_in_powers",
            TRUE if bad is None else FALSE,
            None if bad is None else sys.lab(old[bad]),
            note="chain stabilization is trivial on a finite lattice",
        )
    )
    if mult is None:
        clauses.append(
            ConditionReport("arithmetic", NOT_EVALUATED, note="no multiplicative data")
        )
    else:
        clauses.append(_arithmetic_clause(sys, lattice, old, mult))
    clauses.append(_chain_power_clause(sys, lattice, old, mult, chains))
    decided = [c for c in clauses if c.verdict in (TRUE, FALSE)]
    disagreements = tuple(
        (x.condition, y.condition)
        for x, y in itertools.combinations(decided, 2)
        if x.verdict != y.verdict
    )
    return ClauseReport(sys.name, tuple(clauses), disagreements)


def _strip(rep: ConditionReport):
    return rep.verdict, rep.witness, rep.note


def _arithmetic_clause(sys, lattice, old, mult) -> ConditionReport:
    def product(a, b):
        return mult.get((a, b) if a <= b else (b, a))

    n = lattice.size
    for a in range(n):
        for b in range(n):
            ab = product(a, b)
            if ab is None:
                continue
            for c in range(b, n):
                ac = product(a, c)
                if ac is None:
                    continue
                jbc = lattice.join_mask((1 << b) | (1 << c))
                left = product(a, jbc) if jbc is not None else None
                if jbc is not None and left is None:
                    continue
                right = lattice.join_mask((1 << ab) | (1 << ac))
                if (left is None) != (right is None) or left != right:
                    return ConditionReport(
                        "arithmetic", FALSE, (sys.lab(old[a]), sys.lab(old[b]), sys.lab(old[c])),
                        note="join distributivity fails",
                    )
    seen: dict[tuple[int, int], int] = {}
    for (x, y), xy in mult.items():
        if seen.get((y, xy), x) != x:
            return ConditionReport(
                "arithmetic", FALSE, (sys.lab(old[x]), sys.lab(old[y])), note="cancellation fails"
            )
        seen[(y, xy)] = x
        seen_key = (x, xy)
        if seen.get(seen_key, y) != y:
            return ConditionReport(
                "arithmetic", FALSE, (sys.lab(old[x]), sys.lab(old[y])), note="cancellation fails"
            )
        seen[seen_key] = y
    divides = [1 << a for a in range(n)]
    for (a, b), c in mult.items():
        divides[a] |= 1 << c
        divides[b] |= 1 << c
    for a in range(n):
        if divides[a] != lattice.up[a]:
            b = next(_mask_bits(divides[a] ^ lattice.up[a]))
            return ConditionReport(
                "arithmetic", FALSE, (sys.lab(old[a]), sys.lab(old[b])),
                note="order is not defined by multiplication",
            )
    return ConditionReport("arithmetic", TRUE, note="chain stabilization trivial on a finite lattice")


def _chain_power_clause(sys, lattice, old, mult, chains) -> ConditionReport:
    name = "chain_power"
    for atom, chain in chains.items():
        for lo, hi in zip(chain, chain[1:]):
            if not lattice.lt(lo, hi):
                return ConditionReport(
                    name, FALSE, sys.lab(old[atom]), note="atom powers do not form a chain"
                )
    order = sorted(chains)
    bounds = [len(chains[a]) for a in order]
    vectors = []
    for x in range(lattice.size):
        vec = []
        for a in order:
            level = 0
            for k, e in enumerate(chains[a], start=1):
                if lattice.leq(e, x):
                    level = k
            vec.append(level)
        vectors.append(tuple(vec))
    failure = chain_power_failure(lattice, vectors, bounds, mult)
    if failure is None:
        kind = "order isomorphism" if mult is None else "OM-isomorphism"
        return ConditionReport(name, TRUE, note=f"{kind} with the external direct power of truncated chains")
    reason, witness = failure
    if reason == "cardinality":
        return ConditionReport(name, FALSE, witness, note="cardinality differs from the chain power")
    if reason == "injective":
        return ConditionReport(name, FALSE, "not injective", note="vector map collapses elements")
    note = {
        "order": "not an order isomorphism",
        "definedness": "definedness does not match the truncated bounds",
        "addition": "multiplication does not add exponent vectors",
    }[reason]
    return ConditionReport(name, FALSE, tuple(sys.lab(old[x]) for x in witness), note=note)
