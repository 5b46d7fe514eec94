import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ordfactor.builders import gen_div, gen_hilbert, gen_krullZ2
from ordfactor.divisor import (
    IdealSystem,
    atom_prime_check,
    build_principal_connection,
    check_D6,
    classify,
    derive_system,
    divisor_lattice,
    divisorial_closure,
    divisorial_data,
    galois_closed_ideals,
    krull_clause_harness,
)
from ordfactor.galois import preservation_report, round_trip_laws_hold
from ordfactor.ideals import enumerate_ideals
from ordfactor.monoid import InstanceError, MonoidInstance, POSET_WITH_B
from ordfactor.poset import FinitePoset, order_isomorphism
from tests.test_theorems import closure_monoids, theorem_systems


def div_system(n):
    return derive_system(gen_div(n, check=True))


KRULL = gen_krullZ2()


def ideal_id(sys, label):
    return sys.poset.index(label)


# -- model validation ---------------------------------------------------------------


def test_krull_model_shape():
    assert KRULL.poset.size == 17  # 16 grid ideals plus zero
    assert KRULL.monoid.poset.size == 8  # even-coordinate-sum points
    assert KRULL.monoid.prime_powers == ()  # no atom of the monoid is prime


def test_principal_embedding_reverses_order():
    sys = div_system(12)
    mp = sys.monoid.poset
    for x in range(mp.size):
        for y in range(mp.size):
            assert mp.leq(x, y) == sys.poset.leq(sys.principal[y], sys.principal[x])


def test_invalid_system_rejected():
    # no zero bottom
    with pytest.raises(InstanceError, match="zero"):
        IdealSystem(
            "bad",
            FinitePoset.chain(2, ["a", "b"]),
            1,
            {0: 1},
            gen_div(1),
        )


# -- divisorial closure ---------------------------------------------------------------


def test_closure_identity_on_all_principal_model():
    sys = div_system(12)
    for a in sys.nonzero():
        assert divisorial_closure(sys, a) == a


def test_closure_collapses_odd_krull_points():
    # only the unit ideal's principal lies above (1,0), so it closes to the top
    a = ideal_id(KRULL, "(1,0)")
    assert divisorial_closure(KRULL, a) == KRULL.poset.top()


def test_closure_fixes_top_and_zero():
    assert divisorial_closure(KRULL, KRULL.poset.top()) == KRULL.poset.top()
    assert divisorial_closure(KRULL, KRULL.zero) == KRULL.zero


def test_divisorial_data_laws_and_classes():
    data = divisorial_data(KRULL)
    assert KRULL.poset.top() in data.fixed_points
    # classes partition the ideals
    assert sorted(i for cl in data.classes for i in cl) == list(range(KRULL.poset.size))


# -- the principal connection ------------------------------------------------------------


def test_fundamental_connection_div12():
    inst = gen_div(12, check=True)
    sys = derive_system(inst)
    family = enumerate_ideals(inst)
    conn = build_principal_connection(sys, family)
    fam_poset, masks = family.poset()
    pos = {m: i for i, m in enumerate(masks)}
    four = inst.poset.index("4")
    # the ideal (4) collects exactly the labels dividing 4
    g_of_4 = conn.upper(sys.principal[four])
    assert masks[g_of_4] == inst.poset.down[four]
    # and the down-set ideal of 4 intersects back to (4)
    assert conn.lower(pos[inst.poset.down[four]]) == sys.principal[four]


def test_connection_laws_on_builtin_systems():
    systems = [div_system(12), div_system(60), KRULL]
    for sys in systems:
        family = enumerate_ideals(sys.monoid)
        conn = build_principal_connection(sys, family)
        assert round_trip_laws_hold(conn)
        rep = preservation_report(conn)
        assert rep.lower_preserves_joins and rep.upper_preserves_meets
        # d reaches zero only at the full family (vacuously true in finite models)
        for i in range(len(family.masks)):
            if conn.lower(i) == sys.zero:
                assert family.masks[i] == sys.monoid.poset.full_mask


def test_zero_ideal_collects_every_label():
    family = enumerate_ideals(KRULL.monoid)
    conn = build_principal_connection(KRULL, family)
    assert family.masks[conn.upper(KRULL.zero)] == KRULL.monoid.poset.full_mask


# -- the closed family ----------------------------------------------------------------------


def test_closed_family_div12_is_all_principal_ideals():
    inst = gen_div(12, check=True)
    sys = derive_system(inst)
    family = enumerate_ideals(inst)
    conn = build_principal_connection(sys, family)
    closed = galois_closed_ideals(sys, family, conn).closed
    _, masks = family.poset()
    assert {masks[j] for j in closed} == {inst.poset.down[a] for a in range(inst.size)}


def expected_krull_closed_sets():
    """Independent oracle: down-sets of even points below each grid ideal,
    deduplicated (the collapse of integral-only principals)."""
    even = [(i, j) for i in range(4) for j in range(4) if (i + j) % 2 == 0]
    out = set()
    for gi in range(4):
        for gj in range(4):
            out.add(frozenset((a, b) for a, b in even if a <= gi and b <= gj))
    return out


def test_closed_family_krull_matches_oracle():
    family = enumerate_ideals(KRULL.monoid)
    conn = build_principal_connection(KRULL, family)
    report = galois_closed_ideals(KRULL, family, conn)
    closed = report.closed
    assert report.kind in ('second', 'both')
    assert not report.principal_hull_identity  # sparse principals collapse (see ledger)
    _, masks = family.poset()
    mp = KRULL.monoid.poset
    got = set()
    for j in closed:
        labels = {mp.labels[i] for i in range(mp.size) if masks[j] >> i & 1}
        got.add(frozenset(labels))
    expected = {
        frozenset(f"({a},{b})" for a, b in s) for s in expected_krull_closed_sets()
    }
    assert got == expected
    assert len(closed) == 12  # the 4x4 grid collapses to twelve closed members


def test_atom_prime_check_div12():
    inst = gen_div(12, check=True)
    sys = derive_system(inst)
    family = enumerate_ideals(inst)
    report = galois_closed_ideals(sys, family, build_principal_connection(sys, family))
    assert report.kind in ('second', 'both')
    assert report.principal_hull_identity
    reports = {r.condition: r for r in atom_prime_check(sys, family, report.closed)}
    assert reports["atom:2"].verdict == "true"
    assert reports["atom:3"].verdict == "true"
    assert reports["prime:2"].verdict == "true"


def test_atom_prime_check_krull_vacuous():
    family = enumerate_ideals(KRULL.monoid)
    closed = galois_closed_ideals(KRULL, family, build_principal_connection(KRULL, family)).closed
    assert atom_prime_check(KRULL, family, closed) == ()
    # honest structure: the collapsed family has three atoms, none principal-power shaped
    _, masks = family.poset()
    least = min((masks[j] for j in closed), key=lambda m: bin(m).count("1"))
    atoms = [
        j
        for j in closed
        if masks[j] != least
        and all(masks[k] | masks[j] != masks[j] or masks[k] in (least, masks[j]) for k in closed)
    ]
    assert len(atoms) == 3


# -- D6 and the divisor lattice ----------------------------------------------------------------


def test_divisor_lattice_of_div_system_is_divisor_poset():
    inst = gen_div(60, check=True)
    sys = derive_system(inst)
    lattice, old, mult = divisor_lattice(sys)
    assert order_isomorphism(lattice, inst.poset, cap=12) is not None


def test_check_d6_true_on_builtins():
    assert check_D6(div_system(60)).verdict == "true"
    assert check_D6(KRULL).verdict == "true"


def test_check_d6_false_on_join_reducible_non_decomposable():
    # 0 < p,q < w < t: t is join-irreducible but not an atom power
    poset = FinitePoset.from_pairs(
        ["(0)", "(t)", "(w)", "(p)", "(q)", "(1)"],
        [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)],
    )
    trivial = gen_div(1)
    sys = IdealSystem("pentagonish", poset, 0, {0: 5}, trivial)
    rep = check_D6(sys)
    assert rep.verdict == "false"
    assert rep.witness == "(t)"


def test_check_d6_false_on_hilbert_derived():
    rep = check_D6(derive_system(gen_hilbert(441)))
    assert rep.verdict == "false"
    assert rep.witness is not None


# -- classification ----------------------------------------------------------------------------


@pytest.mark.parametrize("n", [12, 60, 360])
def test_gen_div_systems_classify_pid(n):
    inst = gen_div(n)
    verdict = classify(derive_system(inst))
    assert verdict.krull and verdict.dedekind and verdict.ufd and verdict.pid


def test_krull_classifies_krull_not_ufd():
    verdict = classify(KRULL)
    assert verdict.krull is True
    assert verdict.ufd is False
    assert verdict.pid is False
    # the model's witness: an odd-coordinate-sum divisor is not principal
    assert verdict.ufd_witness in ("(0,1)", "(1,0)")
    # integral-only closure cannot fix the odd points, so in-model
    # divisoriality fails and dedekind is honestly false (see decisions ledger)
    assert verdict.dedekind is False


def test_hilbert_derived_classifies_not_krull():
    verdict = classify(derive_system(gen_hilbert(441)))
    assert verdict.krull is False
    assert verdict.krull_witness is not None
    assert verdict.pid is False


def test_false_verdicts_carry_witnesses_from_d6_when_the_clause_holds():
    sys = derive_system(gen_hilbert(441))
    verdict = classify(sys)
    assert verdict.dedekind is False and verdict.dedekind_witness == verdict.krull_witness
    assert verdict.ufd is False and verdict.ufd_witness is not None


def test_pid_is_dedekind_and_ufd_everywhere():
    systems = [div_system(12), div_system(60), KRULL, derive_system(gen_hilbert(441))]
    for sys in systems:
        v = classify(sys)
        assert v.pid == (v.dedekind and v.ufd)
        if v.ufd:
            assert v.krull
        if v.dedekind:
            assert v.krull


# -- clause harness ------------------------------------------------------------------------------


@pytest.mark.parametrize("n", [60, 360])
def test_theorem_harness_div_systems_agree_true(n):
    report = krull_clause_harness(div_system(n))
    assert report.ok, report.disagreements
    for c in report.clauses:
        assert c.verdict == "true", c


def test_theorem_harness_krull_agrees_true():
    report = krull_clause_harness(KRULL)
    assert report.ok, report.disagreements
    for c in report.clauses:
        assert c.verdict == "true", c
    assert report.clause("chain_power").note.startswith("OM-isomorphism")


def test_theorem_harness_failing_model_agrees_false():
    poset = FinitePoset.from_pairs(
        ["(0)", "(t)", "(w)", "(p)", "(q)", "(1)"],
        [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)],
    )
    sys = IdealSystem("pentagonish", poset, 0, {0: 5}, gen_div(1))
    report = krull_clause_harness(sys)
    assert report.ok, report.disagreements
    decided = [c for c in report.clauses if c.verdict in ("true", "false")]
    assert decided and all(c.verdict == "false" for c in decided)


def test_lower_adjoint_recovers_intersection_map():
    # synthesizing the lower adjoint of the principal-label map recovers the
    # intersection map of the fundamental connection
    from ordfactor.galois import lower_adjoint_of

    inst = gen_div(12, check=True)
    sys = derive_system(inst)
    conn = build_principal_connection(sys, enumerate_ideals(inst))
    assert lower_adjoint_of(conn.upper) == conn.lower


def test_atom_prime_check_without_multiplication():
    from ordfactor.builders import gen_random
    from ordfactor.ideals import enumerate_ideals

    inst = gen_random(8, 2)
    assert inst.bases, "seed chosen to have designated powers"
    sys_ = derive_system(inst)
    assert sys_.mult is None
    family = enumerate_ideals(inst)
    conn = build_principal_connection(sys_, family)
    closed = galois_closed_ideals(sys_, family, conn).closed
    reports = {r.condition: r for r in atom_prime_check(sys_, family, closed)}
    for base in inst.bases:
        assert reports[f"prime:{inst.lab(base)}"].verdict == "not_evaluated"


# -- the pairwise validation as an oracle for the mask kernel ---------------------------


def pairwise_validate(sys) -> None:
    """IdealSystem's model axioms by their definitions, pair by pair."""
    p = sys.poset
    if p.bottom() != sys.zero:
        raise InstanceError("the zero ideal must sit below every ideal")
    if p.top() is None:
        raise InstanceError("ideal systems need a unit (top) ideal")
    for a in range(p.size):
        for b in range(a + 1, p.size):
            if p.meet_mask((1 << a) | (1 << b)) is None:
                raise InstanceError(
                    f"ideals must be closed under intersection: {p.labels[a]} with {p.labels[b]}"
                )
    mp = sys.monoid.poset
    if set(sys.principal) != set(range(mp.size)):
        raise InstanceError("the principal embedding must be total on the monoid")
    vals = list(sys.principal.values())
    if len(set(vals)) != len(vals):
        raise InstanceError("the principal embedding must be injective")
    if sys.zero in vals:
        raise InstanceError("the zero ideal is never principal")
    if sys.principal[sys.monoid.unit] != p.top():
        raise InstanceError("the unit's principal ideal must be the unit (top) ideal")
    for x in range(mp.size):
        for y in range(mp.size):
            if mp.leq(x, y) != p.leq(sys.principal[y], sys.principal[x]):
                raise InstanceError(
                    f"the principal embedding must reverse order at {mp.labels[x]}, {mp.labels[y]}"
                )
    if sys.mult is not None:
        for x in range(mp.size):
            for y in range(x, mp.size):
                xy = sys.monoid.product(x, y)
                pi = sys.product(sys.principal[x], sys.principal[y])
                if xy is not None and pi is not None and pi != sys.principal[xy]:
                    raise InstanceError(
                        f"ideal multiplication disagrees with the monoid at {mp.labels[x]}*{mp.labels[y]}"
                    )


def validation_outcomes(poset, zero, principal, monoid, mult):
    """(pairwise oracle, mask kernel) outcomes: None or the InstanceError text."""
    oracle = IdealSystem.__new__(IdealSystem)
    oracle.poset, oracle.zero, oracle.principal, oracle.monoid = poset, zero, dict(principal), monoid
    oracle.mult = oracle._normalize_mult(mult) if mult is not None else None
    outcomes = []
    for validate in (
        lambda: pairwise_validate(oracle),
        lambda: IdealSystem("mutant", poset, zero, principal, monoid, mult),
    ):
        try:
            validate()
            outcomes.append(None)
        except InstanceError as err:
            outcomes.append(str(err))
    return tuple(outcomes)


def test_mask_validation_accepts_every_shared_and_ladder_system():
    ladder = closure_monoids()[-6:]  # the benchmark ladder's monoids outside the shared list
    systems = theorem_systems() + tuple(derive_system(inst) for inst in ladder)
    for sys in systems:
        assert validation_outcomes(sys.poset, sys.zero, sys.principal, sys.monoid, sys.mult) == (None, None)


def _small_systems():
    return tuple(s for s in theorem_systems() if s.poset.size <= 40)


def _mutate_order(sys, choose):
    # drop one covering pair i < j: the relation stays a partial order
    p = sys.poset
    covers = [
        (i, j)
        for i in range(p.size)
        for j in range(p.size)
        if p.lt(i, j) and not any(p.lt(i, k) and p.lt(k, j) for k in range(p.size))
    ]
    i, j = choose(covers)
    up = list(p.up)
    up[i] &= ~(1 << j)
    return FinitePoset(p.labels, up), sys.principal, sys.mult


def _incomparable_pairs_above_zero(sys):
    p = sys.poset
    return [
        (a, b)
        for a, b in itertools.combinations(range(p.size), 2)
        if not p.leq(a, b) and not p.leq(b, a) and p.meet_mask((1 << a) | (1 << b)) != sys.zero
    ]


def _mutate_meet(sys, choose):
    # a new ideal below a and b but not below their meet leaves a, b without a meet
    p = sys.poset
    a, b = choose(_incomparable_pairs_above_zero(sys))
    up = list(p.up) + [(1 << p.size) | p.up[a] | p.up[b]]
    up[sys.zero] |= 1 << p.size
    return FinitePoset(p.labels + ("mutant",), up), sys.principal, sys.mult


def _mutate_principal(sys, choose):
    x, y = choose(list(itertools.combinations(sorted(sys.principal), 2)))
    principal = dict(sys.principal)
    principal[x], principal[y] = principal[y], principal[x]
    return sys.poset, principal, sys.mult


def _mutate_product(sys, choose):
    key, value = choose(list(itertools.product(sorted(sys.mult), range(sys.poset.size))))
    return sys.poset, sys.principal, {**sys.mult, key: value}


def _mutations(sys):
    out = [_mutate_order]
    if len(sys.principal) > 1:
        out.append(_mutate_principal)
    if _incomparable_pairs_above_zero(sys):
        out.append(_mutate_meet)
    if sys.mult:
        out.append(_mutate_product)
    return out


def _mutant_outcomes(sys, mutate, choose):
    poset, principal, mult = mutate(sys, choose)
    return validation_outcomes(poset, sys.zero, principal, sys.monoid, mult)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mask_validation_matches_pairwise_oracle_on_mutants(data):
    sys = data.draw(st.sampled_from(_small_systems()))
    mutate = data.draw(st.sampled_from(_mutations(sys)))
    oracle, kernel = _mutant_outcomes(sys, mutate, lambda seq: data.draw(st.sampled_from(seq)))
    assert kernel == oracle


def test_mutants_reach_every_rejection():
    # the first and the last choice of every mutation on every small shared system
    rejections = set()
    for sys in _small_systems():
        for mutate in _mutations(sys):
            for pick in (0, -1):
                oracle, kernel = _mutant_outcomes(sys, mutate, lambda seq: seq[pick])
                assert kernel == oracle, (sys.name, mutate.__name__)
                rejections.add(kernel and kernel.split(":")[0].split(" at ")[0])
    assert rejections >= {
        None,
        "ideals must be closed under intersection",
        "the principal embedding must reverse order",
        "ideal multiplication disagrees with the monoid",
    }


def test_ideal_products_need_a_monoid_with_products():
    sys = derive_system(gen_div(6))
    bare = MonoidInstance("bare", sys.monoid.poset, sys.monoid.unit, prime_powers=sys.monoid.prime_powers, kind=POSET_WITH_B)
    with pytest.raises(InstanceError, match="ideal multiplication needs a monoid"):
        IdealSystem("products", sys.poset, sys.zero, sys.principal, bare, sys.mult)
