"""The covering-law kernel against the condensed-family enumerations.

``check_B4``, ``uniqueness_check`` and ``check_D6`` decide the covering law
through ``monoid.covering_law_failure``.  The oracles below are the
enumerations they replaced: every condensed family, one member per group,
∏(1 + group size) of them.  They are compared on the shared theorem
instances, on drawn posets-with-B of up to 8 elements, and on a divisor
lattice whose atom group is not a chain; every false verdict's witness is
checked on its own, including on the Hilbert monoids where the
enumerations are too large to run.
"""

import itertools

from hypothesis import given, settings, strategies as st

from ordfactor.builders import gen_hilbert
from ordfactor.divisor import _atom_powers, check_D6, derive_system, divisor_lattice
from ordfactor.monoid import (
    POSET_WITH_B,
    MonoidInstance,
    PrimePower,
    check_B4,
    covering_law_failure,
    uniqueness_check,
)
from ordfactor.poset import FinitePoset, _mask_bits
from tests.test_theorems import theorem_monoids, theorem_systems


def condensed_families(groups):
    """Every nonempty family holding at most one element of each group."""
    for k in range(1, len(groups) + 1):
        for picked in itertools.combinations(groups, k):
            yield from itertools.product(*picked)


def mask(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def covering_fails(p: FinitePoset, groups) -> bool:
    """Some condensed family has a join with a member below it but below
    none of the family's members."""
    members = mask(e for g in groups for e in g)
    for family in condensed_families(groups):
        j = p.join_mask(mask(family))
        if j is not None and p.down[j] & members & ~p.down_mask(mask(family)):
            return True
    return False


def base_groups(inst):
    return [[pp.element for pp in inst.powers_of(b)] for b in inst.bases]


def oracle_b4(inst) -> str:
    return "false" if covering_fails(inst.poset, base_groups(inst)) else "true"


def oracle_uniqueness(inst) -> str:
    """Two distinct condensed antichains with one join."""
    p = inst.poset
    seen = {}
    for family in condensed_families(base_groups(inst)):
        if any(p.leq(a, b) or p.leq(b, a) for a, b in itertools.combinations(family, 2)):
            continue
        j = p.join_mask(mask(family))
        if j is not None and seen.setdefault(j, family) != family:
            return "false"
    return "true"


def oracle_d6(sys) -> str:
    lattice, _, mult = divisor_lattice(sys)
    chains, elements = _atom_powers(lattice, mult)
    emask = lattice.mask_of(elements)
    for x in range(lattice.size):
        if x != lattice.bottom() and lattice.join_mask(lattice.down[x] & emask) != x:
            return "false"
    return "false" if covering_fails(lattice, [chains[a] for a in sorted(chains)]) else "true"


# -- witnesses ---------------------------------------------------------------------------


def assert_covering_witness(p, groups, x, family):
    """family holds at most one member of each group and joins above x,
    and x is a member below none of family's members."""
    assert all(sum(e in g for e in family) <= 1 for g in groups), family
    assert any(x in g for g in groups)
    j = p.join_mask(mask(family))
    assert j is not None and p.leq(x, j)
    assert not any(p.leq(x, e) for e in family)


def assert_b4_witness(inst, rep):
    x, family = rep.witness
    index = inst.poset.index
    assert_covering_witness(inst.poset, base_groups(inst), index(x), [index(e) for e in family])


def assert_uniqueness_witness(inst, rep):
    p, index = inst.poset, inst.poset.index
    joined, first, second = rep.witness
    assert first != second
    for family in (first, second):
        ids = [index(e) for e in family]
        assert all(sum(e in g for e in ids) <= 1 for g in base_groups(inst))
        assert not any(p.leq(a, b) for a, b in itertools.permutations(ids, 2))
        assert p.join_mask(mask(ids)) == index(joined)


def assert_d6_witness(sys, rep):
    """A divisor that is no join of the atom powers below it, or a
    covering-law failure on the atom-power groups."""
    lattice, old, mult = divisor_lattice(sys)
    chains, elements = _atom_powers(lattice, mult)
    back = {sys.lab(o): i for i, o in enumerate(old)}
    if isinstance(rep.witness, str):
        x = back[rep.witness]
        assert lattice.join_mask(lattice.down[x] & lattice.mask_of(elements)) != x
        return
    x, family = rep.witness
    assert_covering_witness(lattice, list(chains.values()), back[x], [back[e] for e in family])


def check_monoid(inst):
    b4, unique = check_B4(inst), uniqueness_check(inst)
    assert b4.verdict == oracle_b4(inst), inst.name
    assert unique.verdict == oracle_uniqueness(inst), inst.name
    if b4.is_false:
        assert_b4_witness(inst, b4)
        assert_uniqueness_witness(inst, unique)
    return b4.verdict


def check_system(sys):
    d6 = check_D6(sys)
    assert d6.verdict == oracle_d6(sys), sys.name
    if d6.is_false:
        assert_d6_witness(sys, d6)
    return d6


# -- the comparisons -------------------------------------------------------------------------


def test_kernel_agrees_with_enumerations_on_theorem_instances():
    b4_verdicts = {check_monoid(inst) for inst in theorem_monoids()}
    assert b4_verdicts == {"true", "false"}
    d6_reports = [check_system(sys) for sys in theorem_systems()]
    assert any(isinstance(r.witness, tuple) for r in d6_reports)  # a covering failure


def non_chain_atom_group_system():
    """1 < a < p, q < t and 1 < c < t: without multiplication the atom a's
    group is {a, p, q}, not a chain, and p <= t = q v c breaks the law."""
    labels = ["1", "a", "c", "p", "q", "t"]
    pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (3, 5), (4, 5), (2, 5)]
    poset = FinitePoset.from_pairs(labels, pairs)
    powers = [PrimePower(1, 1, 1), PrimePower(2, 1, 2)]
    return derive_system(MonoidInstance("nonchain", poset, 0, prime_powers=powers, kind=POSET_WITH_B))


def test_d6_on_a_non_chain_atom_group():
    sys = non_chain_atom_group_system()
    lattice, old, mult = divisor_lattice(sys)
    chains, _ = _atom_powers(lattice, mult)
    group = [g for g in chains.values() if len(g) == 3][0]
    assert not lattice.leq(group[1], group[2]) and not lattice.leq(group[2], group[1])
    rep = check_system(sys)
    assert rep.verdict == "false"
    assert rep.witness == ("(p)", ["(c)", "(q)"])  # p <= t = q v c


def drawn_poset(draw) -> FinitePoset:
    """A poset on 2-8 elements with least element 0."""
    n = draw(st.integers(min_value=2, max_value=8))
    up = [(1 << n) - 1] + [1 << i for i in range(1, n)]
    for i in range(n - 1, 0, -1):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                up[i] |= up[j]  # up[j] is already transitively closed
    return FinitePoset([str(i) for i in range(n)], up)


@st.composite
def posets_with_b(draw):
    """A drawn poset with a chain of designated powers above each atom."""
    poset = drawn_poset(draw)
    up = poset.up
    used, powers = set(), []
    for base in sorted(poset.minimal_of(poset.full_mask & ~1)):
        current, exponent = base, 1
        while current is not None:
            used.add(current)
            powers.append(PrimePower(base, exponent, current))
            above = sorted(e for e in _mask_bits(up[current]) if e != current and e not in used)
            current = draw(st.sampled_from([None] + above))
            exponent += 1
    return MonoidInstance("drawn", poset, 0, prime_powers=powers, kind=POSET_WITH_B)


@settings(max_examples=300, deadline=None)
@given(posets_with_b())
def test_kernel_agrees_with_enumerations_on_drawn_posets(inst):
    check_monoid(inst)
    check_system(derive_system(inst))


@st.composite
def posets_with_groups(draw):
    """A drawn poset whose elements above 0 fall into up to three groups
    or none; the groups need not be chains."""
    poset = drawn_poset(draw)
    labels = [draw(st.sampled_from([None, 0, 1, 2])) for _ in range(1, poset.size)]
    groups = [[e for e, g in enumerate(labels, 1) if g == k] for k in range(3)]
    return poset, [g for g in groups if g]


@settings(max_examples=500, deadline=None)
@given(posets_with_groups())
def test_kernel_agrees_with_enumeration_on_any_groups(drawn):
    # a group with several maximal members below j needs every choice tried
    poset, groups = drawn
    failure = covering_law_failure(poset, [mask(g) for g in groups])
    assert (failure is not None) == covering_fails(poset, groups)
    if failure is not None:
        j, x, family = failure
        assert_covering_witness(poset, groups, x, family)
        assert poset.join_mask(mask(family)) == j


def test_hilbert_witnesses_where_enumeration_cannot_run():
    for n in (441, 2000):
        inst = gen_hilbert(n)
        groups = 1
        for b in inst.bases:
            groups *= 1 + len(inst.powers_of(b))
        assert groups > 100000  # beyond the enumerations' former cap
        assert check_B4(inst).verdict == "true"
        assert uniqueness_check(inst).verdict == "true"
        sys = derive_system(inst)
        d6 = check_D6(sys)
        assert d6.verdict == "false"
        assert_d6_witness(sys, d6)
        # D6 fails before its covering law there; run the kernel on its own
        lattice, _, mult = divisor_lattice(sys)
        chains, _ = _atom_powers(lattice, mult)
        groups = [chains[a] for a in sorted(chains)]
        failure = covering_law_failure(lattice, [lattice.mask_of(g) for g in groups])
        assert failure is not None
        j, x, family = failure
        assert_covering_witness(lattice, groups, x, family)
        assert lattice.join_mask(mask(family)) == j
