import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ordfactor.poset import (
    FinitePoset,
    IsomorphismCapExceeded,
    LatticeProfile,
    PosetError,
    definitional_complete_distributivity,
    is_irreducible,
    lattice_class,
    order_isomorphism,
)


DIV12 = FinitePoset.divisors(12)


def ids(p, *labels):
    return frozenset(p.index(str(x)) for x in labels)


def labs(p, s):
    return sorted(p.labels[i] for i in s)


# -- construction -----------------------------------------------------------


def test_validation_rejects_cycles():
    with pytest.raises(PosetError, match="antisymmetric"):
        FinitePoset(["a", "b"], [0b11, 0b11])


def test_validation_rejects_missing_reflexivity():
    with pytest.raises(PosetError, match="reflexive"):
        FinitePoset(["a", "b"], [0b10, 0b10])


def test_validation_rejects_intransitivity():
    with pytest.raises(PosetError, match="transitive"):
        FinitePoset(["a", "b", "c"], [0b011, 0b110, 0b100])


def test_duplicate_labels_rejected():
    with pytest.raises(PosetError, match="distinct"):
        FinitePoset(["a", "a"], [0b01, 0b10])


def test_from_pairs_closes_transitively():
    p = FinitePoset.from_pairs(["a", "b", "c"], [(0, 1), (1, 2)])
    assert p.leq(0, 2)


# -- down/up sets ------------------------------------------------------------


def test_down_set_of_top_is_everything():
    assert labs(DIV12, DIV12.down_set(ids(DIV12, 12))) == sorted(DIV12.labels)


def test_down_set_empty():
    assert DIV12.down_set(()) == frozenset()


def test_down_set_of_6():
    assert labs(DIV12, DIV12.down_set(ids(DIV12, 6))) == ["1", "2", "3", "6"]


def test_up_set_of_bottom_is_everything():
    assert labs(DIV12, DIV12.up_set(ids(DIV12, 1))) == sorted(DIV12.labels)


def test_up_set_of_4():
    assert labs(DIV12, DIV12.up_set(ids(DIV12, 4))) == ["12", "4"]


def test_up_set_empty():
    assert DIV12.up_set(()) == frozenset()


def test_out_of_range_is_input_error():
    with pytest.raises(PosetError, match="out of range"):
        DIV12.down_set([99])


# -- joins and meets ----------------------------------------------------------


def test_join_lcm():
    assert DIV12.labels[DIV12.join(ids(DIV12, 4, 3))] == "12"


def test_join_empty_is_least():
    assert DIV12.labels[DIV12.join(())] == "1"


def test_join_absent_in_antichain():
    p = FinitePoset.antichain(["a", "b"])
    assert p.join([0, 1]) is None


def test_meet_gcd():
    assert DIV12.labels[DIV12.meet(ids(DIV12, 4, 6))] == "2"


def test_meet_empty_is_greatest():
    assert DIV12.labels[DIV12.meet(())] == "12"


def test_meet_absent_in_antichain():
    p = FinitePoset.antichain(["a", "b"])
    assert p.meet([0, 1]) is None


def test_join_is_unique_minimal_upper_bound():
    for k in range(1, 4):
        for combo in itertools.combinations(range(DIV12.size), k):
            j = DIV12.join(combo)
            ubs = [u for u in DIV12.elements() if all(DIV12.leq(c, u) for c in combo)]
            if j is None:
                assert not ubs or len(DIV12.minimal_of(DIV12.mask_of(ubs))) != 1
            else:
                assert j in ubs
                assert all(DIV12.leq(j, u) for u in ubs)


# -- irreducibility -----------------------------------------------------------


def test_4_strongly_join_irreducible_in_div12():
    assert is_irreducible(DIV12, DIV12.index("4"), "join", "strong", "finite")


def test_6_not_plain_join_irreducible():
    assert not is_irreducible(DIV12, DIV12.index("6"), "join", "plain", "finite")


def test_bottom_never_irreducible():
    assert not is_irreducible(DIV12, DIV12.index("1"), "join", "strong", "finite")
    assert not is_irreducible(DIV12, DIV12.index("1"), "join", "plain", "complete")


def _brute_irreducible(p, a, strength, arity):
    """Quantify the definitions over all subsets / pairs directly."""
    if p.bottom() == a:
        return False
    if arity == "finite":
        for b in range(p.size):
            for c in range(p.size):
                j = p.join([b, c])
                if j is None:
                    continue
                if strength == "plain" and j == a and a not in (b, c):
                    return False
                if strength == "strong" and p.leq(a, j) and not (p.leq(a, b) or p.leq(a, c)):
                    return False
        return True
    for mask in range(1 << p.size):
        j = p.join_mask(mask)
        if j is None:
            continue
        members = [i for i in range(p.size) if mask >> i & 1]
        if strength == "plain" and j == a and a not in members:
            return False
        if strength == "strong" and p.leq(a, j) and not any(p.leq(a, b) for b in members):
            return False
    return True


SMALL_POSETS = [
    DIV12,
    FinitePoset.divisors(30),
    FinitePoset.chain(4),
    FinitePoset.antichain(["a", "b", "c"]),
    FinitePoset.from_pairs(["0", "a", "b", "c", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),  # M3
    FinitePoset.from_pairs(["0", "x", "z", "y", "1"], [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]),  # N5
]


@pytest.mark.parametrize("p", SMALL_POSETS)
def test_irreducibility_matches_brute_force(p):
    for a in p.elements():
        for strength in ("plain", "strong"):
            for arity in ("finite", "complete"):
                assert is_irreducible(p, a, "join", strength, arity) == _brute_irreducible(
                    p, a, strength, arity
                ), (p.labels[a], strength, arity)


@pytest.mark.parametrize("p", SMALL_POSETS)
def test_irreducibility_strength_implications(p):
    for a in p.elements():
        if is_irreducible(p, a, "join", "strong", "finite"):
            assert is_irreducible(p, a, "join", "plain", "finite")
        if is_irreducible(p, a, "join", "strong", "complete"):
            assert is_irreducible(p, a, "join", "strong", "finite")
        if is_irreducible(p, a, "join", "plain", "complete"):
            assert is_irreducible(p, a, "join", "plain", "finite")


def test_meet_irreducibility_is_dual():
    for a in DIV12.elements():
        assert is_irreducible(DIV12, a, "meet", "strong", "finite") == is_irreducible(
            DIV12.dual(), a, "join", "strong", "finite"
        )


# -- lattice classification ----------------------------------------------------


def test_div12_fully_classified():
    prof = lattice_class(DIV12)
    assert prof == lattice_class(DIV12).__class__(True, True, True, True, True, True)


def test_m3_not_distributive():
    m3 = SMALL_POSETS[4]
    prof = lattice_class(m3)
    assert prof.is_lattice
    assert not prof.is_distributive
    assert prof.is_completely_distributive is False


def test_antichain_not_lattice():
    prof = lattice_class(FinitePoset.antichain(["a", "b"]))
    assert not prof.is_lattice


def test_div360_decided_completely_distributive():
    assert lattice_class(FinitePoset.divisors(360)).is_completely_distributive is True


def _totally_below(p, b, a):
    """b is totally below a: every set whose join dominates a has a member above b."""
    avoid = 0
    for s in range(p.size):
        if not p.leq(b, s):
            avoid |= 1 << s
    for u in range(p.size):
        if p.leq(a, u) and p.join_mask(avoid & p.down[u]) == u:
            return False
    return True


def _oracle_profile(p):
    """The six flags by direct quantification: pairwise joins and meets, the
    distributive law over all triples, and complete distributivity as
    "every element is the join of the elements totally below it"."""
    pairs = list(itertools.combinations(range(p.size), 2))
    join_sl = p.size > 0 and all(p.join([b, c]) is not None for b, c in pairs)
    meet_sl = p.size > 0 and all(p.meet([b, c]) is not None for b, c in pairs)
    lattice = join_sl and meet_sl
    complete = lattice and p.bottom() is not None and p.top() is not None
    distributive = lattice and all(
        p.meet([a, p.join([b, c])]) == p.join([p.meet([a, b]), p.meet([a, c])])
        for a, b, c in itertools.product(range(p.size), repeat=3)
    )
    cd = complete and all(
        p.join([b for b in range(p.size) if _totally_below(p, b, a)]) == a for a in range(p.size)
    )
    return LatticeProfile(join_sl, meet_sl, lattice, complete, distributive, cd)


def _oracle_posets():
    """The posets of at most 16 elements among SMALL_POSETS, the shared
    theorem monoids, their complete families, their derived systems and
    those systems' divisor lattices."""
    from ordfactor.divisor import derive_system, divisor_lattice
    from ordfactor.ideals import enumerate_ideals
    from tests.test_theorems import theorem_monoids

    # N5 with its only non-prime join-irreducible, z, as the last element
    n5 = FinitePoset.from_pairs(["0", "x", "y", "1", "z"], [(0, 1), (1, 4), (4, 3), (0, 2), (2, 3)])
    posets = SMALL_POSETS + [n5]
    for inst in theorem_monoids():
        sys = derive_system(inst)
        posets += [inst.poset, enumerate_ideals(inst).poset()[0], sys.poset, divisor_lattice(sys)[0]]
    return [q for q in posets if q.size <= 16]


def test_lattice_class_agrees_with_oracle():
    posets = _oracle_posets()
    kinds = set()
    for q in posets:
        prof = lattice_class(q)
        assert prof == _oracle_profile(q), (q.labels, prof)
        kinds.add((prof.is_lattice, prof.is_distributive))
    assert kinds == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("p", [p for p in SMALL_POSETS if lattice_class(p).is_complete])
def test_cd_agrees_with_definitional_oracle_and_distributivity(p):
    prof = lattice_class(p)
    assert prof.is_completely_distributive == prof.is_distributive
    if p.size <= 6:
        assert definitional_complete_distributivity(p) == prof.is_completely_distributive


# -- order isomorphism -----------------------------------------------------------


def test_identity_isomorphism():
    iso = order_isomorphism(DIV12, DIV12)
    assert iso is not None


def test_div12_div18_isomorphic():
    iso = order_isomorphism(DIV12, FinitePoset.divisors(18))
    assert iso is not None
    q = FinitePoset.divisors(18)
    for a in DIV12.elements():
        for b in DIV12.elements():
            assert DIV12.leq(a, b) == q.leq(iso[a], iso[b])


def test_div12_div16_not_isomorphic():
    assert order_isomorphism(DIV12, FinitePoset.divisors(16)) is None


def test_isomorphism_cap():
    with pytest.raises(IsomorphismCapExceeded):
        order_isomorphism(FinitePoset.divisors(360), FinitePoset.divisors(360))


# -- property tests ---------------------------------------------------------------


@st.composite
def random_posets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                up[i] |= 1 << j
    # transitive closure
    for _ in range(n):
        for i in range(n):
            acc = up[i]
            m = up[i]
            while m:
                low = m & -m
                acc |= up[low.bit_length() - 1]
                m ^= low
            up[i] = acc
    return FinitePoset([f"e{i}" for i in range(n)], up)


@given(random_posets(), st.data())
@settings(max_examples=60, deadline=None)
def test_down_set_monotone_idempotent(p, data):
    members = data.draw(st.sets(st.integers(min_value=0, max_value=p.size - 1)))
    a = p.down_set(members)
    assert members <= p.down_set(members) or not members
    assert p.down_set(a) == a
    assert p.up_set(p.up_set(members)) == p.up_set(members)
    assert members <= p.down_set(p.up_set(members)) if members else True


@given(random_posets(), st.data())
@settings(max_examples=60, deadline=None)
def test_element_recovered_from_principal_down_set(p, data):
    a = data.draw(st.integers(min_value=0, max_value=p.size - 1))
    down = p.down_set([a])
    assert a in down
    assert p.join(down) == a
