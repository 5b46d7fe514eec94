import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ordfactor import ideals
from ordfactor.builders import gen_div, gen_free, gen_hilbert, gen_random
from ordfactor.ideals import (
    _mask_key,
    avoiding_ideal,
    check_condition,
    check_maximal_missing_are_avoiding,
    classify_subset,
    completely_meet_irreducible,
    enumerate_ideals,
    equivalence_harness,
    ideal_closure,
    ideals_missing,
    is_power_ideal,
    is_prime_ideal,
    lower_set_filter_ideals,
    maximal_extension_missing,
    maximal_missing,
    maximal_missing_family,
    structure_report,
    verify_missing_extension_laws,
)
from ordfactor.instances import generate
from ordfactor.monoid import InstanceError, MonoidInstance, PrimePower
from ordfactor.poset import FinitePoset, _mask_bits
from tests.test_monoid import three_atom_top_instance
from tests.test_theorems import theorem_monoids


def elt(inst, label):
    return inst.poset.index(str(label))


def labset(inst, members):
    return {inst.lab(i) for i in members}


def famsets(inst, family):
    return {frozenset(labset(inst, s)) for s in family.sets()}


DIV12 = gen_div(12, check=True)


# -- is_power_ideal -------------------------------------------------------------


def test_j2_is_ideal():
    ok, _ = is_power_ideal(DIV12, [elt(DIV12, 1), elt(DIV12, 3)])
    assert ok


def test_missing_forced_join_detected():
    ok, witness = is_power_ideal(DIV12, [elt(DIV12, 1), elt(DIV12, 2), elt(DIV12, 3)])
    assert not ok
    assert witness[0] == "forced_join" and witness[1] == "6"


def test_empty_set_is_not_an_ideal():
    ok, witness = is_power_ideal(DIV12, [])
    assert not ok and witness == ("empty",)


def test_non_lower_set_detected():
    ok, witness = is_power_ideal(DIV12, [elt(DIV12, 4)])
    assert not ok and witness[0] == "not_lower"


# -- closure ----------------------------------------------------------------------


def test_closure_forces_join():
    got = labset(DIV12, ideal_closure(DIV12, [elt(DIV12, 2), elt(DIV12, 3)]))
    assert got == {"1", "2", "3", "6"}


def test_closure_of_empty_is_least_ideal():
    assert labset(DIV12, ideal_closure(DIV12, [])) == {"1"}


def test_closure_of_top_is_everything():
    assert labset(DIV12, ideal_closure(DIV12, [elt(DIV12, 12)])) == set(DIV12.poset.labels)


def test_closure_is_idempotent_and_validates():
    for seed in ([elt(DIV12, 2)], [elt(DIV12, 4), elt(DIV12, 3)]):
        c = ideal_closure(DIV12, seed)
        assert ideal_closure(DIV12, c) == c
        assert is_power_ideal(DIV12, c)[0]


# -- avoiding ideals -----------------------------------------------------------------


def test_avoiding_ideals_div12():
    assert labset(DIV12, avoiding_ideal(DIV12, elt(DIV12, 4))) == {"1", "2", "3", "6"}
    assert labset(DIV12, avoiding_ideal(DIV12, elt(DIV12, 2))) == {"1", "3"}


def test_avoiding_ideal_never_contains_its_power():
    for b in DIV12.power_elements:
        assert b not in avoiding_ideal(DIV12, b)


def test_avoiding_ideal_rejects_non_power():
    with pytest.raises(InstanceError):
        avoiding_ideal(DIV12, elt(DIV12, 6))


def test_avoiding_ideal_is_prime_and_complement_is_b_filter():
    for b in DIV12.power_elements:
        j = avoiding_ideal(DIV12, b)
        assert is_prime_ideal(DIV12, j)
        comp = set(range(DIV12.size)) - set(j)
        cls = classify_subset(DIV12, comp)
        assert cls.b_set and cls.b_filter


def test_avoiding_ideal_is_greatest_missing_its_power():
    family = enumerate_ideals(DIV12)
    for b in DIV12.power_elements:
        jb = DIV12.poset.mask_of(avoiding_ideal(DIV12, b))
        for m in ideals_missing(family, b):
            assert m | jb == jb


# -- enumeration --------------------------------------------------------------------


def test_div12_family_is_exactly_the_six_principal_ideals():
    family = enumerate_ideals(DIV12)
    assert family.complete
    expected = {
        frozenset({"1"}),
        frozenset({"1", "2"}),
        frozenset({"1", "3"}),
        frozenset({"1", "2", "4"}),
        frozenset({"1", "2", "3", "6"}),
        frozenset({"1", "2", "3", "4", "6", "12"}),
    }
    assert famsets(DIV12, family) == expected


def test_enumeration_matches_lower_set_oracle():
    for inst in (DIV12, gen_div(60), gen_free(2, 2), three_atom_top_instance()):
        family = enumerate_ideals(inst)
        oracle = lower_set_filter_ideals(inst)
        assert tuple(family.sets()) == oracle, inst.name


def test_enumeration_matches_oracle_on_random_corpus():
    for seed in range(25):
        inst = gen_random(8, seed)
        family = enumerate_ideals(inst)
        assert tuple(family.sets()) == lower_set_filter_ideals(inst), inst.name


def test_family_closed_under_intersection_with_extremes():
    family = enumerate_ideals(gen_div(60))
    masks = set(family.masks)
    for a, b in itertools.combinations(family.masks, 2):
        assert a & b in masks
    assert family.least() == gen_div(60).poset.mask_of(ideal_closure(gen_div(60), []))
    assert family.greatest() == gen_div(60).poset.full_mask


def test_trivial_monoid_family():
    inst = gen_div(1)
    family = enumerate_ideals(inst)
    assert famsets(inst, family) == {frozenset({"1"})}


def test_capped_enumeration_is_partial_with_guaranteed_members():
    inst = gen_div(60)
    family = enumerate_ideals(inst, cap=3)
    assert not family.complete
    masks = set(family.masks)
    for a in range(inst.size):
        assert inst.poset.down[a] in masks
    for b in inst.power_elements:
        assert inst.poset.mask_of(avoiding_ideal(inst, b)) in masks


def relabelled(inst, perm):
    """The same instance with element i renamed perm[i]."""
    p = inst.poset
    labels, up = [None] * p.size, [0] * p.size
    for i in range(p.size):
        labels[perm[i]] = p.labels[i]
        up[perm[i]] = sum(1 << perm[j] for j in _mask_bits(p.up[i]))
    mult = None if inst.mult is None else {(perm[a], perm[b]): perm[c] for (a, b), c in inst.mult.items()}
    powers = [PrimePower(base=perm[pp.base], exponent=pp.exponent, element=perm[pp.element])
              for pp in inst.prime_powers]
    return MonoidInstance(inst.name, FinitePoset(labels, up), perm[inst.unit], mult, powers, inst.kind, check=False)


def relabelling_instances():
    yield from (gen_random(size, seed) for size in range(1, 13) for seed in range(1, 21))
    yield from (gen_div(n) for n in range(1, 61))
    yield from (gen_free(2, 2), gen_free(3, 2), gen_hilbert(44))


def test_enumeration_does_not_depend_on_element_numbering():
    # shuffled ids are no longer a linear extension of the order, so the
    # walk's canonicity pre-check must stay exact without one
    for k, inst in enumerate(relabelling_instances()):
        perm = list(range(inst.size))
        random.Random(k).shuffle(perm)
        shuffled = relabelled(inst, perm)
        family = enumerate_ideals(shuffled)
        back = [sum(1 << i for i in range(inst.size) if m >> perm[i] & 1) for m in family.masks]
        assert tuple(sorted(back, key=_mask_key)) == enumerate_ideals(inst).masks, inst.name
        if inst.size <= 16:
            assert tuple(family.sets()) == lower_set_filter_ideals(shuffled), inst.name


@pytest.mark.parametrize(
    "token, members", [("div:5040", 60), ("free:4,3", 256), ("free:8,1", 256), ("free:2,9", 100), ("hilbert:44", 768)]
)
def test_walk_makes_one_closure_per_member(monkeypatch, token, members):
    calls = []
    closure = ideals.ideal_closure_mask
    monkeypatch.setattr(ideals, "ideal_closure_mask", lambda inst, mask: calls.append(mask) or closure(inst, mask))
    family = enumerate_ideals(generate(token))
    assert family.complete and len(family) == members
    assert len(calls) == members


@given(st.lists(st.integers(min_value=0, max_value=(1 << 70) - 1), max_size=40))
def test_mask_key_orders_by_size_then_member_list(masks):
    by_members = sorted(masks, key=lambda m: (bin(m).count("1"), sorted(_mask_bits(m))))
    assert sorted(masks, key=_mask_key) == by_members


# -- subset classification --------------------------------------------------------------


def test_up_set_of_4_is_b_set_and_filter():
    cls = classify_subset(DIV12, DIV12.poset.up_set([elt(DIV12, 4)]))
    assert cls.b_set and cls.b_filter


def test_top_alone_is_not_a_b_set():
    cls = classify_subset(DIV12, [elt(DIV12, 12)])
    assert not cls.b_set
    assert cls.witness == ("12",)


# -- conditions -------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["D1", "D2", "D3", "D4", "B1", "B2", "F2", "F3"])
def test_div60_all_conditions_true(which):
    inst = gen_div(60)
    family = enumerate_ideals(inst)
    assert check_condition(inst, which, family).verdict == "true", which


def test_hilbert_d1_false_with_witness_nine():
    rep = check_condition(gen_hilbert(441), "D1")
    assert rep.verdict == "false"
    assert rep.witness == "9"


def test_hilbert_b2_false():
    rep = check_condition(gen_hilbert(441), "B2")
    assert rep.verdict == "false"
    # witness: a condensed family of prime powers with no common multiple in range
    assert len(rep.witness) >= 2


def test_d_conditions_not_evaluated_on_partial_family():
    inst = gen_div(60)
    family = enumerate_ideals(inst, cap=3)
    for which in ("D2", "D3", "D4"):
        assert check_condition(inst, which, family).verdict == "not_evaluated"


def test_b1_trivially_true():
    assert check_condition(DIV12, "B1").verdict == "true"


# -- missing-ideal structure ---------------------------------------------------------------


def test_delta_4_contains_expected_ideals():
    family = enumerate_ideals(DIV12)
    four = elt(DIV12, 4)
    missing = {
        frozenset(labset(DIV12, DIV12.poset.set_of(m))) for m in ideals_missing(family, four)
    }
    assert frozenset({"1", "2", "3", "6"}) in missing  # the avoiding ideal of 4
    assert frozenset({"1", "3"}) in missing  # the avoiding ideal of 2


def test_maximal_missing_set_div12_subset_avoiding_set():
    family = enumerate_ideals(DIV12)
    maximal_missing_set = maximal_missing_family(DIV12, family)
    avoiding_set = {DIV12.poset.mask_of(avoiding_ideal(DIV12, b)) for b in DIV12.power_elements}
    assert set(maximal_missing_set) <= avoiding_set
    assert check_maximal_missing_are_avoiding(DIV12, family).verdict == "true"


def test_maximal_missing_set_trivial_monoid_empty():
    inst = gen_div(1)
    assert maximal_missing_family(inst, enumerate_ideals(inst)) == ()


def test_maximal_missing_set_equals_meet_irreducibles_on_corpus():
    for inst in theorem_monoids():
        family = enumerate_ideals(inst)
        assert set(maximal_missing_family(inst, family)) == set(completely_meet_irreducible(family))


def test_missing_extension_laws():
    for inst in (DIV12, gen_div(60), three_atom_top_instance()):
        family = enumerate_ideals(inst)
        assert verify_missing_extension_laws(inst, family)


def test_greedy_maximal_extension_is_maximal():
    family = enumerate_ideals(DIV12)
    four = elt(DIV12, 4)
    seed = DIV12.poset.mask_of(ideal_closure(DIV12, []))
    k = maximal_extension_missing(DIV12, seed, four)
    assert k in set(maximal_missing(family, four))


def test_maximal_missing_set_check_greedy_fallback_finds_hilbert_witness():
    inst = gen_hilbert(441)
    rep = check_maximal_missing_are_avoiding(inst, enumerate_ideals(inst, cap=500))
    assert rep.verdict == "false"
    assert rep.note.startswith("greedy")


# -- harness ----------------------------------------------------------------------------


@pytest.mark.parametrize("n", [12, 60, 360])
def test_harness_gen_div_all_true(n):
    report = equivalence_harness(gen_div(n))
    assert report.ok, report.disagreements
    for e in report.entries:
        assert e.verdict == "true", e


def test_harness_hilbert_uniformly_false_cluster_two():
    report = equivalence_harness(gen_hilbert(441), family=enumerate_ideals(gen_hilbert(441), cap=500))
    assert report.ok, report.disagreements
    for name in (
        "F1",
        "F2_and_D1",
        "F3_and_D1",
        "F3_and_maximal_missing_are_avoiding",
        "DCC_and_ir_subset_B",
        "unique_decomposition",
    ):
        assert report.entry(name).verdict == "false", name
    assert report.entry("D1").verdict == "false"
    assert report.entry("D5").verdict == "false"


def test_harness_random_corpus_no_disagreements():
    for seed in range(40):
        report = equivalence_harness(gen_random(9, seed))
        assert report.ok, (seed, report.disagreements)


# -- structural report ---------------------------------------------------------------------


def test_structure_report_div12():
    inst = DIV12
    family = enumerate_ideals(inst)
    reports = {r.condition: r for r in structure_report(inst, family)}
    for name, rep in reports.items():
        assert rep.verdict == "true", (name, rep)
    assert "family_completely_distributive" in reports
    assert "family_equals_lattice_ideals" in reports


def test_structure_report_free22_all_principal():
    inst = gen_free(2, 2)
    reports = {r.condition: r for r in structure_report(inst, enumerate_ideals(inst))}
    assert reports["all_principal_iff_B2"].verdict == "true"


def test_every_returned_ideal_validates():
    for inst in (DIV12, gen_div(60), gen_random(9, 3)):
        family = enumerate_ideals(inst)
        for s in family.sets():
            assert is_power_ideal(inst, s)[0]


def test_f1_instances_are_distributive_with_irreducible_powers():
    # on the multiplicative generator corpus, full decomposability comes with
    # a distributive lattice whose strongly join-irreducible non-units are
    # exactly the designated prime powers
    from ordfactor.poset import is_irreducible, lattice_class
    from ordfactor.monoid import check_F1

    for inst in (gen_div(12), gen_div(60), gen_free(2, 2), gen_free(3, 1)):
        assert check_F1(inst).is_true
        profile = lattice_class(inst.poset)
        assert profile.is_distributive
        strong = {
            a
            for a in range(inst.size)
            if a != inst.unit and is_irreducible(inst.poset, a, "join", "strong", "finite")
        }
        assert strong == set(inst.power_elements), inst.name


def test_complements_of_ideals_are_b_sets_under_d2():
    # with the second decomposition condition true, membership in the family
    # is equivalent to having a b_set complement, prime members a b_filter one
    inst = gen_div(12, check=True)
    family = enumerate_ideals(inst)
    assert check_condition(inst, "D2", family).is_true
    for s in family.sets():
        comp = set(range(inst.size)) - set(s)
        cls = classify_subset(inst, comp)
        assert cls.b_set
        if is_prime_ideal(inst, s):
            assert cls.b_filter


def test_strongly_meet_irreducible_members_are_prime():
    from ordfactor.poset import is_irreducible

    for make in (lambda: gen_div(12), lambda: gen_div(60), lambda: gen_random(8, 11)):
        inst = make()
        family = enumerate_ideals(inst)
        fam_poset, masks = family.poset()
        for i, m in enumerate(masks):
            if is_irreducible(fam_poset, i, "meet", "strong", "finite"):
                assert is_prime_ideal(inst, inst.poset.set_of(m)), inst.name


def test_harness_reports_genuine_disagreement():
    # on a designated-power instance violating the covering law, existence
    # and uniqueness of decompositions genuinely come apart; the harness
    # must name the disagreeing pair rather than hide it
    inst = three_atom_top_instance()
    report = equivalence_harness(inst)
    assert not report.ok
    assert ("F1", "unique_decomposition") in report.disagreements or (
        "unique_decomposition",
        "F1",
    ) in report.disagreements
    assert report.entry("F1").verdict == "true"
    assert report.entry("unique_decomposition").verdict == "false"


def test_family_closed_under_all_subfamily_intersections():
    import itertools as it

    inst = gen_div(12, check=True)
    family = enumerate_ideals(inst)
    masks = set(family.masks)
    for k in range(1, len(family.masks) + 1):
        for combo in it.combinations(family.masks, k):
            inter = family.masks[0] | family.masks[-1]
            inter = (1 << inst.size) - 1
            for m in combo:
                inter &= m
            assert inter in masks


def test_decompose_invariants_on_random_corpus():
    from ordfactor.monoid import condense, decompose

    for seed in range(30):
        inst = gen_random(9, seed)
        for a in range(inst.size):
            out = decompose(inst, a)
            if out is None:
                continue
            assert out == condense(inst, out)
            for x in out:
                for y in out:
                    if x != y:
                        assert not inst.poset.leq(x.element, y.element)
            assert inst.poset.join([pp.element for pp in out]) == a


def test_structure_report_gated_claims_hold_on_random_corpus():
    # the hypothesis-gated structural assertions are theorems on instances
    # whose designated powers are strongly join-irreducible, which the
    # random generator guarantees by construction
    for seed in range(40):
        inst = gen_random(9, seed)
        for rep in structure_report(inst, enumerate_ideals(inst)):
            assert rep.verdict != "false", (seed, rep)
