import pytest

from ordfactor.builders import gen_div, gen_free, gen_hilbert
from ordfactor.galois import preservation_report
from ordfactor.ideals import enumerate_ideals
from ordfactor.poset import FinitePoset, order_isomorphism
from ordfactor.products import (
    ProductRefusal,
    algebraic_view,
    complementary_factor_structure,
    external_product,
    internal_external_iso,
    internal_product_witness,
    order_representation_family,
    order_representation_monoid,
    principal_power_chain_factors,
)


def test_external_product_of_chains_is_grid():
    c3 = FinitePoset.chain(3)
    prod = external_product([c3, c3])
    assert prod.poset.size == 9
    # projections recover coordinates; adjunctions verified at construction
    for i, t in enumerate(prod.tuples):
        assert tuple(pr(i) for pr in prod.projections) == t


def test_external_product_singleton_family():
    c3 = FinitePoset.chain(3)
    prod = external_product([c3])
    assert order_isomorphism(prod.poset, c3) is not None


def test_external_product_finite_support_note():
    prod = external_product([FinitePoset.chain(2)] * 2, support="finite")
    assert "coincides" in prod.support_note


def test_external_product_cap_refusal():
    with pytest.raises(ProductRefusal):
        external_product([FinitePoset.chain(8)] * 8, cap=1000)


def power_chain_ids(inst, family, base):
    fam_poset, factors = principal_power_chain_factors(inst, family)
    return fam_poset, dict(zip(inst.bases, factors))[base]


@pytest.mark.parametrize("n", [12, 36, 360])
def test_internal_product_witness_on_divisor_ideal_lattices(n):
    inst = gen_div(n)
    family = enumerate_ideals(inst)
    fam_poset, factors = principal_power_chain_factors(inst, family)
    witness, failure = internal_product_witness(fam_poset, factors)
    assert failure is None
    assert witness is not None
    mapping = internal_external_iso(witness)
    assert len(mapping) == fam_poset.size


def test_internal_witness_gen_div12_grid_shape():
    inst = gen_div(12)
    family = enumerate_ideals(inst)
    fam_poset, factors = principal_power_chain_factors(inst, family)
    assert [len(f) for f in factors] == [3, 2]  # powers of 2 and of 3, with the least ideal
    witness, _ = internal_product_witness(fam_poset, factors)
    ext = external_product(witness.factor_posets)
    assert ext.poset.size == 6


def test_internal_witness_fails_on_overlapping_factors():
    inst = gen_div(12)
    family = enumerate_ideals(inst)
    fam_poset, factors = principal_power_chain_factors(inst, family)
    # second factor extended by the join-reducible ideal of 6: the selections
    # (least, that ideal) and (ideal of 2, ideal of 3) share their join
    six = fam_poset.index("{1,2,3,6}")
    overlapping = [factors[0], tuple(sorted(set(factors[1]) | {six}))]
    witness, failure = internal_product_witness(fam_poset, overlapping)
    assert witness is None
    assert failure == "distinct selections share a join"


def test_internal_witness_trivial_single_factor():
    p = FinitePoset.divisors(12)
    witness, failure = internal_product_witness(p, [range(p.size)])
    assert failure is None
    mapping = internal_external_iso(witness)
    assert sorted(mapping) == list(range(p.size))


def test_gen_free31_is_boolean_cube():
    inst = gen_free(3, 1)
    rep = order_representation_monoid(inst)
    assert rep.bounds == (1, 1, 1)
    assert rep.om


def test_order_representation_div360():
    inst = gen_div(360)
    rep = order_representation_monoid(inst)
    assert sorted(rep.bounds, reverse=True) == [3, 2, 1]
    assert rep.om
    # the round trip against the decomposition is a theorem in tests/test_theorems.py; spot-check 360
    top = inst.poset.index("360")
    by_base = dict(zip([inst.lab(b) for b in rep.bases], rep.vectors[top]))
    assert by_base == {"2": 3, "3": 2, "5": 1}


def test_order_representation_family_div12():
    inst = gen_div(12)
    rep = order_representation_family(inst, enumerate_ideals(inst))
    assert sorted(rep.bounds, reverse=True) == [2, 1]
    assert len(rep.vectors) == 6


def test_order_representation_refuses_hilbert():
    with pytest.raises(ProductRefusal) as err:
        order_representation_monoid(gen_hilbert(441))
    assert err.value.witness == "9"


def test_algebraic_view_div36():
    inst = gen_div(36)
    reports = {r.condition: r for r in algebraic_view(inst, enumerate_ideals(inst))}
    assert reports["unit_neutral"].verdict == "true"
    assert reports["principal_products_add_vectors"].verdict == "true"


def test_algebraic_view_gen_free_vectors_add():
    inst = gen_free(2, 2)
    rep = order_representation_monoid(inst)
    a = inst.poset.index("2")  # vector (1,0)
    b = inst.poset.index("18")  # vector (1,2)
    ab = inst.product(a, b)
    assert rep.vectors[ab] == (2, 2)


@pytest.mark.parametrize("n", [12, 36, 360])
def test_complementary_factor_structure(n):
    inst = gen_div(n)
    report = complementary_factor_structure(inst, enumerate_ideals(inst))
    assert report.check("intersection_is_least").verdict == "true"
    assert report.check("pairwise_join_is_top").verdict == "true"
    assert report.check("equals_avoiding_ideal").verdict == "true"
    assert report.check("kind_direct_first").verdict == "true"
    assert report.check("kind_dual_second").verdict == "true"


def test_connection_corpus_from_products():
    # every projection/injection pair from internal witnesses verifies
    inst = gen_div(36)
    family = enumerate_ideals(inst)
    fam_poset, factors = principal_power_chain_factors(inst, family)
    witness, _ = internal_product_witness(fam_poset, factors)
    from ordfactor.galois import GaloisConnection

    for incl, proj in zip(witness.inclusions, witness.projections):
        conn = GaloisConnection(lower=incl, upper=proj)
        rep = preservation_report(conn)
        assert rep.lower_preserves_joins and rep.upper_preserves_meets
