"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import json
import subprocess
import sys
import time

import pytest

from ordfactor.builders import gen_div, gen_free, gen_hilbert, gen_krullZ2, gen_random
from ordfactor.divisor import (
    build_principal_connection,
    classify,
    derive_system,
    krull_clause_harness,
)
from ordfactor.galois import (
    GaloisConnection,
    MonotoneMap,
    identity_map,
    lower_adjoint_of,
    preservation_report,
    round_trip_laws_hold,
    upper_adjoint_of,
    verify_connection,
)
from ordfactor.ideals import (
    avoiding_ideal,
    check_condition,
    enumerate_ideals,
    equivalence_harness,
    is_prime_ideal,
    lower_set_filter_ideals,
)
from ordfactor.instances import InstanceSpec, parse_instance, serialize_instance
from ordfactor.monoid import check_B4, decompose, uniqueness_check
from ordfactor.poset import FinitePoset, is_irreducible, lattice_class
from ordfactor.products import (
    complementary_factor_structure,
    internal_external_iso,
    internal_product_witness,
    order_representation_family,
    order_representation_monoid,
    principal_power_chain_factors,
)
from ordfactor.topology import RepresentationError, build_representation, represent_ideal_family
from tests.test_theorems import representation_laws_hold


def announce(number: int, ok: bool, label: str, started: float) -> None:
    verdict = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{verdict}] {label} ({time.monotonic() - started:.1f}s)")
    sys.stdout.flush()


def test_criterion_1_equivalence_master_suite():
    started = time.monotonic()
    disagreements = []
    for n in (12, 60, 360, 30030):
        report = equivalence_harness(gen_div(n))
        disagreements.extend((n, d) for d in report.disagreements)
        if not all(e.verdict == "true" for e in report.entries):
            disagreements.append((n, "non-true entry"))
    for seed in range(200):
        report = equivalence_harness(gen_random(9, seed))
        disagreements.extend((f"random:9,{seed}", d) for d in report.disagreements)
    elapsed = time.monotonic() - started
    ok = not disagreements and elapsed < 60.0
    announce(1, ok, "equivalence master suite, zero disagreements, <60s", started)
    assert not disagreements, disagreements[:5]
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_2_negative_instance():
    started = time.monotonic()
    inst = gen_hilbert(441)
    d1 = check_condition(inst, "D1")
    family = enumerate_ideals(inst, cap=500)
    report = equivalence_harness(inst, family)
    cluster = (
        "F1",
        "F2_and_D1",
        "F3_and_D1",
        "F3_and_maximal_missing_are_avoiding",
        "DCC_and_ir_subset_B",
        "unique_decomposition",
    )
    uniform_false = all(report.entry(name).verdict == "false" for name in cluster)
    ok = d1.verdict == "false" and d1.witness == "9" and uniform_false and report.ok
    announce(2, ok, "hilbert(441) fails D1 at 9; cluster uniformly false", started)
    assert d1.verdict == "false" and d1.witness == "9"
    for name in cluster:
        assert report.entry(name).verdict == "false", name
    assert report.ok


def connection_corpus():
    """Every kind of connection the package constructs."""
    conns = []
    # fundamental connections on the built-in ideal systems
    for sys_ in (derive_system(gen_div(12)), derive_system(gen_div(60)),
                 derive_system(gen_div(360)), gen_krullZ2()):
        family = enumerate_ideals(sys_.monoid)
        conns.append(build_principal_connection(sys_, family))
    # projection/injection pairs from internal product witnesses
    for n in (12, 36, 360):
        inst = gen_div(n)
        fam_poset, factors = principal_power_chain_factors(inst, enumerate_ideals(inst))
        witness, failure = internal_product_witness(fam_poset, factors)
        assert failure is None
        for incl, proj in zip(witness.inclusions, witness.projections):
            conns.append(GaloisConnection(lower=incl, upper=proj))
    # synthesized adjoints
    div12 = FinitePoset.divisors(12)
    conns.append(GaloisConnection(identity_map(div12), identity_map(div12)))
    c = div12.index("2")
    sub, old = div12.restrict(div12.up_set([c]))
    back = {o: i for i, o in enumerate(old)}
    d = MonotoneMap(div12, sub, tuple(back[div12.join([x, c])] for x in range(div12.size)))
    g = upper_adjoint_of(d)
    conns.append(GaloisConnection(d, g))
    d2 = lower_adjoint_of(g)
    conns.append(GaloisConnection(d2, g))
    return conns


def test_criterion_3_galois_law_suite():
    started = time.monotonic()
    failures = []
    corpus = connection_corpus()
    for conn in corpus:
        ok, _ = verify_connection(conn.lower, conn.upper)
        if not ok:
            failures.append(("verify", conn))
        if not round_trip_laws_hold(conn):
            failures.append(("round_trip", conn))
        rep = preservation_report(conn)
        if not (rep.lower_preserves_joins and rep.upper_preserves_meets):
            failures.append(("preservation", conn))
    ok = not failures and len(corpus) >= 10
    announce(3, ok, f"galois law suite over {len(corpus)} connections", started)
    assert not failures, failures


def test_criterion_4_ideal_family_structure():
    started = time.monotonic()
    problems = []
    corpus = [gen_div(12), gen_div(60), gen_div(360), gen_div(30030), gen_free(2, 2)]
    corpus += [gen_random(8, seed) for seed in range(20)]
    for inst in corpus:
        family = enumerate_ideals(inst)
        assert family.complete
        masks = set(family.masks)
        for a, b in itertools.combinations(family.masks, 2):
            if a & b not in masks:
                problems.append((inst.name, "intersection escapes"))
                break
        least = min(masks, key=lambda m: bin(m).count("1"))
        if least != inst.poset.down[inst.unit] or inst.poset.full_mask not in masks:
            problems.append((inst.name, "extrema missing"))
        fam_poset, mask_list = family.poset()
        pos = {m: i for i, m in enumerate(mask_list)}
        for b in inst.power_elements:
            jb = inst.poset.mask_of(avoiding_ideal(inst, b))
            if not is_prime_ideal(inst, inst.poset.set_of(jb)):
                problems.append((inst.name, f"avoiding ideal of {inst.lab(b)} not prime"))
            if not is_irreducible(fam_poset, pos[jb], "meet", "strong", "complete"):
                problems.append((inst.name, f"avoiding ideal of {inst.lab(b)} not meet-irreducible"))
        if check_condition(inst, "D4", family).is_true:
            profile = lattice_class(fam_poset)
            if profile.is_completely_distributive is not True:
                problems.append((inst.name, "family not completely distributive under D4"))
    # exact equality with the brute-force oracle on gen_div(12)
    inst12 = gen_div(12)
    enumerated = tuple(enumerate_ideals(inst12).sets())
    oracle = lower_set_filter_ideals(inst12)
    exact = enumerated == oracle and len(oracle) == 6
    ok = not problems and exact
    announce(4, ok, "ideal-family structure laws and exact div(12) enumeration", started)
    assert exact
    assert not problems, problems[:5]


def test_criterion_5_decomposition_against_trial_division():
    started = time.monotonic()
    N = 10**4
    spf = list(range(N + 1))
    for p in range(2, int(N**0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, N + 1, p):
                if spf[q] == q:
                    spf[q] = p

    def profile(m):
        out = {}
        while m > 1:
            p = spf[m]
            out[p] = out.get(p, 0) + 1
            m //= p
        return out

    bad = None
    for n in range(1, N + 1):
        inst = gen_div(n)
        for a in range(inst.size):
            entries = decompose(inst, a)
            if entries is None:
                bad = (n, inst.lab(a), "absent")
                break
            got = {int(inst.lab(pp.base)): pp.exponent for pp in entries}
            if got != profile(int(inst.lab(a))):
                bad = (n, inst.lab(a), got)
                break
        if bad:
            break
        u = uniqueness_check(inst)
        b4 = check_B4(inst)
        if u.verdict != b4.verdict:
            bad = (n, "uniqueness/B4 disagree")
            break
    ok = bad is None
    announce(5, ok, "decompose = trial division on every divisor of every n <= 10^4", started)
    assert bad is None, bad


def test_criterion_6_topological_representation():
    started = time.monotonic()
    reps = [build_representation(FinitePoset.divisors(12)), build_representation(FinitePoset.divisors(60))]
    inst12 = gen_div(12)
    famrep = represent_ideal_family(inst12, enumerate_ideals(inst12))
    base_ok = famrep.ok
    m3 = FinitePoset.from_pairs(
        ["0", "a", "b", "c", "1"], [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    )
    rejected = False
    witness_correct = False
    try:
        build_representation(m3)
    except RepresentationError as err:
        rejected = True
        a = m3.index(err.witness)
        points = [
            x
            for x in range(1, m3.size)
            if is_irreducible(m3, x, "join", "strong", "finite")
        ]
        witness_correct = m3.join([x for x in points if m3.leq(x, a)]) != a
    laws_ok = all(representation_laws_hold(r) for r in reps)
    ok = laws_ok and base_ok and rejected and witness_correct
    announce(6, ok, "representations of div(12), div(60), M(div(12)); M3 rejected", started)
    assert laws_ok
    assert base_ok
    assert rejected and witness_correct


def test_criterion_7_products():
    started = time.monotonic()
    problems = []
    for n in (12, 36, 360):
        inst = gen_div(n)
        family = enumerate_ideals(inst)
        fam_poset, factors = principal_power_chain_factors(inst, family)
        witness, failure = internal_product_witness(fam_poset, factors)
        if failure is not None:
            problems.append((n, failure))
            continue
        mapping = internal_external_iso(witness)
        if len(mapping) != fam_poset.size:
            problems.append((n, "iso not a bijection"))
        rep_m = order_representation_family(inst, family)
        rep_g = order_representation_monoid(inst)
        # exact round trip: vectors regenerate ideals and decompositions
        # (theorems checked in tests/test_theorems.py; re-assert the counts here)
        size = 1
        for b in rep_m.bounds:
            size *= b + 1
        if len(rep_m.vectors) != size or len(rep_g.vectors) != inst.size:
            problems.append((n, "representation size mismatch"))
        structure = complementary_factor_structure(inst, family)
        for name, expect in (
            ("intersection_is_least", "true"),
            ("pairwise_join_is_top", "true"),
            ("equals_avoiding_ideal", "true"),
            ("kind_direct_first", "true"),
            ("kind_dual_second", "true"),
        ):
            if structure.check(name).verdict != expect:
                problems.append((n, name))
    ok = not problems
    announce(7, ok, "internal products, isos, representations, factor structure", started)
    assert not problems, problems


def test_criterion_8_classification():
    started = time.monotonic()
    problems = []
    classified = []
    for n in (12, 60, 360):
        inst = gen_div(n)
        verdict = classify(derive_system(inst))
        classified.append(verdict)
        if not (verdict.krull and verdict.dedekind and verdict.ufd and verdict.pid):
            problems.append((n, verdict))
    krull_model = gen_krullZ2()
    kv = classify(krull_model)
    classified.append(kv)
    if not (kv.krull and not kv.ufd and not kv.pid):
        problems.append(("krullZ2", kv))
    hv = classify(derive_system(gen_hilbert(441)))
    classified.append(hv)
    if hv.krull:
        problems.append(("hilbert", hv))
    for v in classified:
        if v.pid != (v.dedekind and v.ufd):
            problems.append(("pid-conjunction", v))
    for sys_ in (derive_system(gen_div(60)), derive_system(gen_div(360)), krull_model):
        harness = krull_clause_harness(sys_)
        if not harness.ok:
            problems.append((sys_.name, harness.disagreements))
    ok = not problems
    announce(8, ok, "classification verdicts and clause agreement", started)
    assert not problems, problems


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ordfactor.cli", *args], capture_output=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_9_determinism_and_interface(tmp_path):
    started = time.monotonic()
    first = run_cli("report", "--gen", "div:60", "--format", "json")
    second = run_cli("report", "--gen", "div:60", "--format", "json")
    identical = first == second
    code_pass, _, _ = run_cli("check", "--gen", "div:60", "--conditions", "all")
    code_fail, _, _ = run_cli("check", "--gen", "hilbert:441", "--conditions", "D1")
    code_usage, _, _ = run_cli("check", "--gen", "bogus:1")
    codes_ok = (code_pass, code_fail, code_usage) == (0, 1, 2)
    spec = InstanceSpec(
        name="roundtrip",
        kind="poset-with-B",
        elements=("u", "p", "q", "t"),
        order_pairs=(("u", "p"), ("u", "q"), ("p", "t"), ("q", "t")),
        b_entries=(("p", "p", 1), ("q", "q", 1)),
    )
    text = serialize_instance(spec)
    round_trip = parse_instance(text) == spec and serialize_instance(parse_instance(text)) == text
    path = tmp_path / "roundtrip.om"
    path.write_text(text, encoding="utf-8")
    code_file, _, _ = run_cli("check", "--instance", str(path), "--conditions", "D1")
    ok = identical and codes_ok and round_trip and code_file in (0, 1)
    announce(9, ok, "byte-identical reports, exit-code contract, file round trip", started)
    assert identical
    assert codes_ok, (code_pass, code_fail, code_usage)
    assert round_trip
