import pytest

from ordfactor.builders import gen_div, gen_free, gen_hilbert
from ordfactor.ideals import enumerate_ideals
from ordfactor.poset import FinitePoset
from ordfactor.topology import (
    RepresentationError,
    build_representation,
    neighborhood_view,
    represent_ideal_family,
)
from tests.test_theorems import representation_laws_hold


DIV12 = FinitePoset.divisors(12)


def labset(p, s):
    return {p.labels[i] for i in s}


def test_div12_representation():
    rep = build_representation(DIV12)
    assert labset(DIV12, rep.points) == {"2", "3", "4"}
    assert labset(DIV12, rep.assignment[DIV12.index("6")]) == {"2", "3"}
    assert labset(DIV12, rep.assignment[DIV12.index("12")]) == {"2", "3", "4"}
    assert len(rep.closed_sets) == 6
    assert representation_laws_hold(rep)


def test_div60_representation():
    p = FinitePoset.divisors(60)
    rep = build_representation(p)
    assert labset(p, rep.points) == {"2", "4", "3", "5"}
    assert len(rep.closed_sets) == p.size


def test_one_point_lattice():
    rep = build_representation(FinitePoset.chain(1, ["1"]))
    assert rep.points == ()
    assert rep.closed_sets == (frozenset(),)


def test_m3_rejected_with_correct_witness():
    m3 = FinitePoset.from_pairs(
        ["0", "a", "b", "c", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    )
    with pytest.raises(RepresentationError) as err:
        build_representation(m3)
    w = err.value.witness
    assert w is not None
    # re-verify the witness: the element is not a join of strong irreducibles below it
    a = m3.index(w)
    points = [
        x
        for x in range(m3.size)
        if all(
            not m3.leq(x, m3.join([b, c])) or m3.leq(x, b) or m3.leq(x, c)
            for b in range(m3.size)
            for c in range(m3.size)
            if m3.join([b, c]) is not None
        )
        and x != m3.bottom()
    ]
    assert m3.join([x for x in points if m3.leq(x, a)]) != a


def test_incomplete_poset_rejected():
    with pytest.raises(RepresentationError, match="complete"):
        build_representation(FinitePoset.antichain(["a", "b"]))


def test_represent_ideal_family_div12():
    inst = gen_div(12, check=True)
    family = enumerate_ideals(inst)
    famrep = represent_ideal_family(inst, family)
    assert famrep.ok
    expected_points = {inst.poset.down_mask(1 << b) for b in inst.power_elements}
    assert set(famrep.point_masks) == expected_points


@pytest.mark.parametrize("make", [lambda: gen_div(60), lambda: gen_free(2, 2)])
def test_represent_ideal_family_base_property(make):
    inst = make()
    famrep = represent_ideal_family(inst, enumerate_ideals(inst))
    reports = {r.condition: r for r in famrep.closed_base}
    assert reports["closed_base"].verdict == "true"
    assert reports["open_dual"].verdict == "true"


def test_represent_refuses_non_decomposable():
    inst = gen_hilbert(441)
    family = enumerate_ideals(inst, cap=300)
    with pytest.raises(RepresentationError) as err:
        represent_ideal_family(inst, family)
    assert "complete" in str(err.value)
    # a complete-but-undecomposable instance is refused citing the witness:
    # chain 1 < a < b where only a carries a prime-power label
    from ordfactor.monoid import MonoidInstance, PrimePower, POSET_WITH_B

    chain = FinitePoset.chain(3, ["1", "a", "b"])
    small = MonoidInstance(
        "chain-gap",
        chain,
        0,
        prime_powers=[PrimePower(base=1, exponent=1, element=1)],
        kind=POSET_WITH_B,
    )
    with pytest.raises(RepresentationError) as err:
        represent_ideal_family(small, enumerate_ideals(small))
    assert err.value.witness == "b"


def test_neighborhood_view_div12():
    inst = gen_div(12, check=True)
    family = enumerate_ideals(inst)
    two = inst.poset.index("2")
    view = neighborhood_view(inst, family, two)
    assert {inst.lab(i) for i in view.least_member} == {"2", "4", "6", "12"}
    assert view.neighborhood_axiom.verdict == "true"
    four = inst.poset.index("4")
    view4 = neighborhood_view(inst, family, four)
    assert {inst.lab(i) for i in view4.least_member} == {"4", "12"}
    for comp in view4.complements:
        assert four in comp
