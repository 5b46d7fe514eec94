import pytest

from ordfactor.builders import gen_div, gen_free, gen_hilbert, gen_random
from ordfactor.monoid import (
    InstanceError,
    MonoidInstance,
    NotApplicableError,
    PrimePower,
    POSET_WITH_B,
    arithmetic_law_suite,
    atoms,
    check_B4,
    check_D5,
    check_DCC,
    check_F1,
    check_ir_subset,
    condense,
    decompose,
    derive_order,
    finitely_irreducible_elements,
    law_report,
    primes,
    uniqueness_check,
    valuation,
)
from ordfactor.poset import FinitePoset, PosetError


def trial_division_factors(m):
    """Independent oracle: exponent profile of m by trial division."""
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def elt(inst, label):
    return inst.poset.index(str(label))


# -- derived order -------------------------------------------------------------


def test_derive_order_matches_divisibility():
    inst = gen_div(12, check=True)
    derived = derive_order(inst.poset.labels, inst.unit, inst.mult)
    for a in range(inst.size):
        for b in range(inst.size):
            va, vb = int(inst.lab(a)), int(inst.lab(b))
            assert derived.leq(a, b) == (vb % va == 0)


def test_derive_order_trivial_monoid():
    p = derive_order(["1"], 0, {})
    assert p.size == 1


def test_derive_order_rejects_mutual_multiples():
    # a*a = b and b*b = a force a <= b <= a
    mult = {(0, 1): 1, (1, 1): 2, (2, 2): 1}
    with pytest.raises(PosetError, match="antisymmetric"):
        derive_order(["1", "a", "b"], 0, mult)


# -- atoms and primes -----------------------------------------------------------


def test_div12_atoms_equal_primes():
    inst = gen_div(12, check=True)
    want = {elt(inst, 2), elt(inst, 3)}
    assert atoms(inst) == want
    assert primes(inst) == want


def test_hilbert441_nine_is_atom_not_prime():
    inst = gen_hilbert(441)
    nine = elt(inst, 9)
    assert nine in atoms(inst)
    assert nine not in primes(inst)
    # witness: 9 divides 21*21 = 441 in the monoid, but divides neither factor
    tw = elt(inst, 21)
    assert inst.product(tw, tw) == elt(inst, 441)
    assert inst.poset.leq(nine, elt(inst, 441))
    assert not inst.poset.leq(nine, tw)


def test_trivial_monoid_no_atoms_no_primes():
    inst = gen_div(1, check=True)
    assert atoms(inst) == frozenset()
    assert primes(inst) == frozenset()


def pairwise_primes(inst):
    """Oracle: drop every remaining candidate below a product x*y but below
    neither factor, product by product."""
    p = inst.poset
    out = set(range(p.size)) - {inst.unit}
    for (x, y), xy in inst.mult.items():
        for a in list(out):
            if p.leq(a, xy) and not p.leq(a, x) and not p.leq(a, y):
                out.discard(a)
    return frozenset(out)


def test_primes_mask_kernel_matches_pairwise_loop():
    from tests.test_theorems import theorem_monoids

    insts = [inst for inst in theorem_monoids() if inst.has_mult]
    insts += [gen_div(5040), gen_free(4, 3), gen_free(8, 1), gen_free(2, 9), gen_hilbert(441)]
    assert any(primes(inst) != atoms(inst) for inst in insts)  # some atom is not prime
    for inst in insts:
        assert primes(inst) == pairwise_primes(inst), inst.name


# -- prime powers and valuation ----------------------------------------------------


def test_div60_prime_powers():
    inst = gen_div(60, check=True)
    got = {(inst.lab(pp.base), pp.exponent, inst.lab(pp.element)) for pp in inst.prime_powers}
    assert got == {("2", 1, "2"), ("2", 2, "4"), ("3", 1, "3"), ("5", 1, "5")}


def test_hilbert441_prime_powers_match_integer_oracle():
    inst = gen_hilbert(441)
    # Independent integer-level oracle, no instance machinery involved.
    N = 441
    H = [m for m in range(1, N + 1) if m % 4 == 1]
    hset = set(H)

    def hdiv(a, b):
        return b % a == 0 and (b // a) % 4 == 1

    atoms_ = [m for m in H if m > 1 and not any(hdiv(d, m) for d in H if 1 < d < m)]
    prime_atoms = []
    for m in atoms_:
        ok = True
        for x in H:
            for y in H:
                if x * y <= N and hdiv(m, x * y) and not hdiv(m, x) and not hdiv(m, y):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            prime_atoms.append(m)
    expected = set()
    for p in prime_atoms:
        q = p
        while q <= N:
            expected.add(str(q))
            q *= p
    assert {inst.lab(pp.element) for pp in inst.prime_powers} == expected
    # genuine 1-mod-4 primes are present; atoms with in-range prime violations are not
    for present in ("5", "25", "125", "13", "169"):
        assert present in expected
    for absent in ("9", "21", "49", "441"):
        assert absent not in expected


def test_gen_free_prime_powers():
    inst = gen_free(2, 2, check=True)
    assert len(inst.prime_powers) == 4


@pytest.mark.parametrize(
    "a,p,expect", [(12, 2, 2), (5, 2, 0), (60, 5, 1)]
)
def test_valuation_div60(a, p, expect):
    inst = gen_div(60, check=True)
    assert valuation(inst, elt(inst, a), elt(inst, p)) == expect


def test_valuation_rejects_non_base():
    inst = gen_div(60, check=True)
    with pytest.raises(InstanceError, match="base"):
        valuation(inst, elt(inst, 12), elt(inst, 6))


# -- laws -------------------------------------------------------------------------


@pytest.mark.parametrize("n", [12, 60, 90])
def test_gen_div_laws_all_true(n):
    laws = law_report(gen_div(n, check=True))
    assert laws.dist and laws.defi and laws.cancellation


def test_hilbert_laws():
    laws = law_report(gen_hilbert(441))
    assert laws.cancellation
    assert laws.defi
    assert not laws.dist
    assert laws.dist_witness is not None


def test_non_cancellative_table_detected():
    # 1 < a,b < z with a*a = a*b = b*b = z
    poset = FinitePoset.from_pairs(["1", "a", "b", "z"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    mult = {(1, 1): 3, (1, 2): 3, (2, 2): 3}
    inst = MonoidInstance("noncanc", poset, 0, mult=mult, check=True)
    laws = law_report(inst)
    assert not laws.cancellation
    assert laws.cancellation_witness is not None


def test_poset_with_b_rejects_mult_operations():
    inst = gen_random(6, 1)
    assert inst.kind == POSET_WITH_B
    with pytest.raises(NotApplicableError):
        primes(inst)
    with pytest.raises(NotApplicableError):
        law_report(inst)


# -- law suite ----------------------------------------------------------------------


@pytest.mark.parametrize("make", [lambda: gen_div(60, check=True), lambda: gen_free(3, 2)])
def test_law_suite_passes_on_free_models(make):
    suite = arithmetic_law_suite(make())
    for entry in suite:
        assert entry.verdict == "true", entry


def test_law_suite_hilbert_gated_not_applicable():
    suite = {e.condition: e for e in arithmetic_law_suite(gen_hilbert(441))}
    assert suite["coprime_meet_absorption"].verdict == "not_applicable"
    assert suite["coprime_join_is_product"].verdict == "not_applicable"
    assert suite["power_downsets_finite"].verdict == "true"


# -- condense ------------------------------------------------------------------------


def test_condense_merges_max_exponent():
    inst = gen_div(60, check=True)
    pp = {(inst.lab(x.element)): x for x in inst.prime_powers}
    got = condense(inst, [pp["2"], pp["4"], pp["3"]])
    assert {(inst.lab(x.element)) for x in got} == {"4", "3"}


def test_condense_empty_and_idempotent():
    inst = gen_div(60, check=True)
    assert condense(inst, []) == ()
    once = condense(inst, inst.prime_powers)
    assert condense(inst, once) == once


def test_condense_preserves_joins():
    inst = gen_div(360, check=False)
    import itertools

    for entries in itertools.combinations(inst.prime_powers, 3):
        j1 = inst.poset.join([pp.element for pp in entries])
        j2 = inst.poset.join([pp.element for pp in condense(inst, entries)])
        assert j1 == j2


# -- decompose ------------------------------------------------------------------------


def test_decompose_div60_against_trial_division():
    inst = gen_div(60, check=True)
    got = decompose(inst, elt(inst, 60))
    profile = {int(inst.lab(pp.base)): pp.exponent for pp in got}
    assert profile == trial_division_factors(60)
    assert inst.poset.join([pp.element for pp in got]) == elt(inst, 60)


def test_decompose_unit_is_empty():
    inst = gen_div(60, check=True)
    assert decompose(inst, elt(inst, 1)) == ()


def test_decompose_hilbert_9_absent():
    inst = gen_hilbert(441)
    assert decompose(inst, elt(inst, 9)) is None


def test_decompose_output_invariants():
    inst = gen_div(360, check=False)
    for a in range(inst.size):
        out = decompose(inst, a)
        assert out is not None
        assert out == condense(inst, out)
        for x in out:
            for y in out:
                if x != y:
                    assert not inst.poset.leq(x.element, y.element)
        assert {pp.base: pp.exponent for pp in out} == {
            inst.poset.index(str(p)): e
            for p, e in trial_division_factors(int(inst.lab(a))).items()
        }


# -- uniqueness / B4 --------------------------------------------------------------------


@pytest.mark.parametrize("make", [lambda: gen_div(60), lambda: gen_free(2, 2)])
def test_uniqueness_true_on_free_models(make):
    inst = make()
    assert uniqueness_check(inst).verdict == "true"
    assert check_B4(inst).verdict == "true"


def three_atom_top_instance():
    """x, y, z atops joining pairwise to the same top: uniqueness fails."""
    poset = FinitePoset.from_pairs(
        ["1", "x", "y", "z", "t"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    )
    powers = [
        PrimePower(base=1, exponent=1, element=1),
        PrimePower(base=2, exponent=1, element=2),
        PrimePower(base=3, exponent=1, element=3),
    ]
    return MonoidInstance("threeatoms", poset, 0, prime_powers=powers, kind=POSET_WITH_B)


def test_uniqueness_false_with_witness_and_b4_agrees():
    inst = three_atom_top_instance()
    rep = uniqueness_check(inst)
    assert rep.verdict == "false"
    joined, first, second = rep.witness
    assert joined == "t" and first != second
    assert check_B4(inst).verdict == "false"


# -- irreducibles, DCC ----------------------------------------------------------------


def test_ir_set_div60():
    inst = gen_div(60, check=True)
    ir = finitely_irreducible_elements(inst)
    assert {inst.lab(i) for i in ir} == {"2", "4", "3", "5"}
    assert check_ir_subset(inst).verdict == "true"


def test_ir_set_hilbert_escapes_prime_powers():
    inst = gen_hilbert(441)
    rep = check_ir_subset(inst)
    assert rep.verdict == "false"
    assert rep.witness == "9"


def test_dcc_trivially_true():
    assert check_DCC(gen_div(60)).verdict == "true"


# -- F1 / D5 ---------------------------------------------------------------------------


def test_f1_and_d5_on_div_and_hilbert():
    assert check_F1(gen_div(60)).verdict == "true"
    assert check_D5(gen_div(60)).verdict == "true"
    f1 = check_F1(gen_hilbert(441))
    assert f1.verdict == "false"
    assert f1.witness == "9"
    d5 = check_D5(gen_hilbert(441))
    assert d5.verdict == "false"
    assert d5.witness == "9"


# -- random corpus sanity ----------------------------------------------------------------


def test_gen_random_deterministic():
    a = gen_random(9, 5)
    b = gen_random(9, 5)
    assert a.poset == b.poset
    assert a.prime_powers == b.prime_powers


def test_gen_random_respects_size_and_validates():
    for seed in range(30):
        inst = gen_random(9, seed)
        assert 1 <= inst.size <= 9
        # full structural validation of the designated powers re-runs cleanly
        MonoidInstance(
            inst.name, inst.poset, inst.unit, prime_powers=inst.prime_powers, kind=POSET_WITH_B
        )


def test_gen_random_d5_matches_f1():
    for seed in range(40):
        inst = gen_random(8, seed)
        assert check_D5(inst).verdict == check_F1(inst).verdict, inst.name


# -- validation errors -------------------------------------------------------------------


def test_prime_power_base_must_be_atom():
    poset = FinitePoset.divisors(12)
    powers = [PrimePower(base=poset.index("4"), exponent=1, element=poset.index("4"))]
    with pytest.raises(InstanceError, match="atom"):
        MonoidInstance("bad", poset, 0, prime_powers=powers, kind=POSET_WITH_B)


def test_prime_power_chain_must_match_exponents():
    poset = FinitePoset.divisors(12)
    powers = [
        PrimePower(base=poset.index("2"), exponent=1, element=poset.index("2")),
        PrimePower(base=poset.index("2"), exponent=2, element=poset.index("3")),
    ]
    with pytest.raises(InstanceError, match="above its base|chain"):
        MonoidInstance("bad", poset, 0, prime_powers=powers, kind=POSET_WITH_B)


def test_unit_must_be_least():
    poset = FinitePoset.divisors(12)
    with pytest.raises(InstanceError, match="least"):
        MonoidInstance("bad", poset, poset.index("2"), prime_powers=[], kind=POSET_WITH_B)
