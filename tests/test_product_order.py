"""The product-order kernel and the chain-power check against their pairwise
definitions.

The oracles are the pairwise loops the builders, `external_product` and the
chain-power clause used before they shared `product_up_masks`.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from ordfactor.builders import gen_free, gen_krullZ2, gen_random
from ordfactor.monoid import valuation
from ordfactor.poset import FinitePoset, product_up_masks
from ordfactor.products import chain_power_failure
from tests.test_theorems import theorem_monoids


def pairwise_up_masks(tuples, factors):
    up = [0] * len(tuples)
    for i, t in enumerate(tuples):
        for j, u in enumerate(tuples):
            if all(f.leq(x, y) for f, x, y in zip(factors, t, u)):
                up[i] |= 1 << j
    return up


@st.composite
def factors_and_tuples(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    factors = [
        gen_random(draw(st.integers(min_value=1, max_value=6)), draw(st.integers(min_value=1, max_value=200))).poset
        for _ in range(k)
    ]
    every = list(itertools.product(*[range(f.size) for f in factors]))
    keep = draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
    tuples = [t for t, kept in zip(every, keep) if kept]
    return factors, draw(st.permutations(tuples))


@settings(max_examples=300, deadline=None)
@given(factors_and_tuples())
def test_kernel_is_the_componentwise_order(drawn):
    factors, tuples = drawn
    assert product_up_masks(tuples, factors) == pairwise_up_masks(tuples, factors)


# -- the builders' loops before the kernel -------------------------------------------


def free_vectors(k, e):
    return list(itertools.product(*[range(e + 1) for _ in range(k)]))


def pairwise_free_mult(k, e):
    vectors = free_vectors(k, e)
    idx = {v: i for i, v in enumerate(vectors)}
    mult = {}
    for i, v in enumerate(vectors):
        for j in range(i, len(vectors)):
            s = tuple(x + y for x, y in zip(v, vectors[j]))
            if all(x <= e for x in s):
                mult[(i, j)] = idx[s]
    return mult


def test_gen_free_matches_the_pairwise_builder():
    # every allowed shape with at most 256 elements and e <= 15
    shapes = [(k, e) for k in range(1, 9) for e in range(1, 16) if (e + 1) ** k <= 256]
    for k, e in shapes:
        inst = gen_free(k, e)
        vectors = free_vectors(k, e)
        chains = [FinitePoset.chain(e + 1)] * k
        assert inst.poset.up == tuple(pairwise_up_masks(vectors, chains)), (k, e)
        assert list(inst.mult.items()) == list(pairwise_free_mult(k, e).items()), (k, e)


def test_random_boxes_match_the_pairwise_builder():
    boxes = 0
    for size in range(4, 13):
        for seed in range(1, 201):
            inst = gen_random(size, seed)
            if not inst.poset.labels[0].startswith("v"):
                continue
            vectors = [tuple(map(int, lab[1:].split("x"))) for lab in inst.poset.labels]
            chains = [FinitePoset.chain(max(v[t] for v in vectors) + 1) for t in range(len(vectors[0]))]
            assert inst.poset.up == tuple(pairwise_up_masks(vectors, chains)), (size, seed)
            boxes += 1
    assert boxes >= 400


def test_krullZ2_posets_match_the_pairwise_builder():
    system = gen_krullZ2()
    grid = [(i, j) for i in range(4) for j in range(4)]
    even = [v for v in grid if (v[0] + v[1]) % 2 == 0]
    up = [0] * len(even)
    for i, v in enumerate(even):
        for j, w in enumerate(even):
            if v[0] <= w[0] and v[1] <= w[1]:
                up[i] |= 1 << j
    assert system.monoid.poset.up == tuple(up)
    gidx = {v: k + 1 for k, v in enumerate(grid)}
    iup = [0] * (len(grid) + 1)
    iup[0] = (1 << (len(grid) + 1)) - 1
    for v in grid:
        for w in grid:
            if w[0] <= v[0] and w[1] <= v[1]:
                iup[gidx[v]] |= 1 << gidx[w]
    assert system.poset.up == tuple(iup)


# -- the chain-power check -------------------------------------------------------------


def pairwise_chain_power_failure(p, vectors, bounds, mult=None):
    total = 1
    for b in bounds:
        total *= b + 1
    if total != len(vectors):
        return "cardinality", (len(vectors), total)
    if len(set(vectors)) != len(vectors):
        return "injective", None
    for x, y in itertools.product(range(p.size), repeat=2):
        if p.leq(x, y) != all(u <= v for u, v in zip(vectors[x], vectors[y])):
            return "order", (x, y)
    if mult is None:
        return None
    for x in range(p.size):
        for y in range(x, p.size):
            xy = mult.get((x, y))
            summed = tuple(u + v for u, v in zip(vectors[x], vectors[y]))
            if (xy is not None) != all(s <= b for s, b in zip(summed, bounds)):
                return "definedness", (x, y)
            if xy is not None and vectors[xy] != summed:
                return "addition", (x, y)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chain_power_check_matches_the_pairwise_loop(data):
    inst = data.draw(st.sampled_from(theorem_monoids()))
    vectors = [tuple(valuation(inst, a, b) for b in inst.bases) for a in range(inst.size)]
    bounds = tuple(max(pp.exponent for pp in inst.powers_of(b)) for b in inst.bases)
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    if rng.random() < 0.2:  # swap two vectors
        a, b = rng.randrange(inst.size), rng.randrange(inst.size)
        vectors[a], vectors[b] = vectors[b], vectors[a]
    mult = dict(inst.mult) if inst.has_mult else None
    keys = sorted(mult or ())
    for _ in range(rng.randrange(3) if keys else 0):  # drop or redirect a product
        key = rng.choice(keys)
        if rng.random() < 0.5:
            mult.pop(key, None)
        else:
            mult[key] = rng.randrange(inst.size)
    assert chain_power_failure(inst.poset, vectors, bounds, mult) == pairwise_chain_power_failure(
        inst.poset, vectors, bounds, mult
    )
