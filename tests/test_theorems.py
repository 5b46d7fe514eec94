"""Theorems the report path relies on without re-checking them per run.

Each test states one theorem and checks it over one shared instance list:
seeded random instances of every size up to 12, the divisor monoids up to
60, two free models, the krullZ2 ideal system and three atoms with one
common join (where unique decomposition fails).  The closure theorems add
the benchmark's ladder instances.
"""

import functools
import itertools

from hypothesis import given, settings, strategies as st

from ordfactor.builders import gen_div, gen_free, gen_hilbert, gen_krullZ2, gen_random
from ordfactor.divisor import build_principal_connection, derive_system, divisor_lattice, divisorial_data
from ordfactor.ideals import _ctx, enumerate_ideals, ideal_closure_mask
from ordfactor.instances import generate
from ordfactor.monoid import check_B4, uniqueness_check
from ordfactor.poset import _mask_bits, is_irreducible
from ordfactor.topology import RepresentationError, represent_ideal_family
from tests.test_monoid import three_atom_top_instance

RANDOM_SEEDS = tuple(range(1, 11))


@functools.cache
def theorem_monoids():
    insts = [gen_random(size, seed) for size in range(1, 13) for seed in RANDOM_SEEDS]
    insts += [gen_div(n) for n in range(1, 61)]
    insts += [gen_free(2, 2), gen_free(3, 3), gen_krullZ2().monoid, three_atom_top_instance()]
    return tuple(insts)


@functools.cache
def closure_monoids():
    # the benchmark ladder; its free:3,3 and krullZ2 are in the shared list
    ladder = ("div:5040", "free:4,3", "free:8,1", "free:2,9", "hilbert:441", "hilbert:2000")
    return theorem_monoids() + tuple(generate(token) for token in ladder)


@functools.cache
def theorem_systems():
    return tuple(derive_system(inst) for inst in theorem_monoids()) + (gen_krullZ2(),)


def complete_families():
    for inst in theorem_monoids():
        family = enumerate_ideals(inst)
        assert family.complete, inst.name
        yield inst, family


def representation_laws_hold(rep) -> bool:
    """The closed-set assignment of a representation is an order isomorphism
    onto a T0 space's closed sets, turning joins into unions and meets into
    intersections: over all subsets up to 12 elements, above that over pairs
    and the empty set, which induction on finite joins makes equivalent."""
    p, assignment = rep.lattice, rep.assignment
    space = frozenset(rep.points)
    for a, b in itertools.product(range(p.size), repeat=2):
        if p.leq(a, b) != (assignment[a] <= assignment[b]):
            return False
    if p.size <= 12:
        masks = range(1 << p.size)
    else:
        masks = itertools.chain([0], ((1 << a) | (1 << b) for a, b in itertools.combinations(range(p.size), 2)))
    for mask in masks:
        ids = list(_mask_bits(mask))
        j, m = p.join_mask(mask), p.meet_mask(mask)
        if j is not None and assignment[j] != frozenset().union(*(assignment[i] for i in ids)):
            return False
        if m is not None and assignment[m] != space.intersection(*(assignment[i] for i in ids)):
            return False
    closed = set(rep.closed_sets)
    if frozenset() not in closed or space not in closed:
        return False
    for c, d in itertools.combinations(rep.closed_sets, 2):
        if c & d not in closed or c | d not in closed:
            return False
    closures = [rep.closure_of_point(x) for x in rep.points]
    return closures == [assignment[x] for x in rep.points] and len(set(closures)) == len(closures)


def test_lower_adjoint_onto_iff_every_nonzero_ideal_divisorial():
    for sys in theorem_systems() + (derive_system(gen_hilbert(44)),):
        family = enumerate_ideals(sys.monoid)
        conn = build_principal_connection(sys, family)
        reached = {conn.lower(i) for i in range(len(family))}
        closure = divisorial_data(sys).closure
        divisorial_all = all(closure[a] == a for a in sys.nonzero())
        assert (set(sys.nonzero()) <= reached) == divisorial_all, sys.name


def test_divisorial_closure_laws():
    for sys in theorem_systems():
        p = sys.poset
        closure = divisorial_data(sys).closure
        for a in range(p.size):
            assert p.leq(a, closure[a]) and closure[closure[a]] == closure[a], (sys.name, a)
            for b in range(p.size):
                assert not p.leq(a, b) or p.leq(closure[a], closure[b]), (sys.name, a, b)


def test_uniqueness_agrees_with_b4():
    verdicts = set()
    for inst in theorem_monoids():
        unique, b4 = uniqueness_check(inst), check_B4(inst)
        assert unique.verdict == b4.verdict, (inst.name, unique, b4)
        verdicts.add(b4.verdict)
    assert verdicts == {"true", "false"}  # both decided, both outcomes covered


def test_divisor_lattice_join_irreducibles_need_no_pairwise_test():
    # bounded families have joins there, which _atom_powers relies on
    for sys in theorem_systems():
        lattice = divisor_lattice(sys)[0]
        for x in range(lattice.size):
            pairwise = is_irreducible(lattice, x, "join", "plain", "finite")
            assert pairwise == is_irreducible(lattice, x, "join", "plain", "complete"), sys.name


def test_complete_families_are_meet_closed():
    for inst, family in complete_families():
        members = set(family.masks)
        for a, b in itertools.combinations(family.masks, 2):
            assert a & b in members, inst.name


def test_representation_laws_on_every_accepted_family():
    accepted = 0
    for inst, family in complete_families():
        try:
            famrep = represent_ideal_family(inst, family)
        except RepresentationError:
            continue
        assert representation_laws_hold(famrep.representation), inst.name
        accepted += 1
    assert accepted >= 60


def fixpoint_closure_mask(inst, mask: int) -> int:
    """The closure by its definition: from the down-set, add the down-set of
    every forced join whose power premise is present, until nothing changes."""
    p = inst.poset
    forced = []
    for a in range(p.size):
        dbm = p.down[a] & inst.power_mask
        tgt = p.join_mask(dbm)
        if tgt is not None:
            forced.append((dbm, p.down[tgt]))
    cur = p.down_mask(mask)
    changed = True
    while changed:
        changed = False
        for dbm, tgt_down in forced:
            if not (dbm & ~cur) and cur | tgt_down != cur:
                cur |= tgt_down
                changed = True
    return cur


def test_forced_joins_add_no_prime_power():
    # the reason one sweep of the forced pairs closes a set
    for inst in closure_monoids():
        for dbm, tgt, tgt_down in _ctx(inst):
            assert tgt_down == inst.poset.down[tgt], (inst.name, tgt)
            assert tgt_down & inst.power_mask == dbm, (inst.name, inst.lab(tgt))


def test_single_pass_closure_equals_fixpoint_on_principal_and_avoiding_seeds():
    for inst in closure_monoids():
        p = inst.poset
        seeds = [0] + [p.down[a] for a in range(p.size)]
        seeds += [p.full_mask & ~p.up[b] for b in sorted(inst.power_elements)]
        for mask in seeds:
            assert ideal_closure_mask(inst, mask) == fixpoint_closure_mask(inst, mask), inst.name


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_pass_closure_equals_fixpoint_on_drawn_masks(data):
    inst = data.draw(st.sampled_from(closure_monoids()))
    mask = data.draw(st.integers(min_value=0, max_value=inst.poset.full_mask))
    assert ideal_closure_mask(inst, mask) == fixpoint_closure_mask(inst, mask)
