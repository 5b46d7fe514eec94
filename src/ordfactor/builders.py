"""Built-in instance generators.

gen_div / gen_free / gen_hilbert produce ordered-monoid instances with a
multiplication table truncated to the carrier; gen_random produces seeded
poset-with-B instances; gen_krullZ2 produces the fixed divisor-model ideal
system with class group of order two.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

from .monoid import InstanceError, MonoidInstance, PrimePower, POSET_WITH_B
from .poset import FinitePoset, _mask_bits, is_irreducible, product_up_masks

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def gen_div(n: int, check: bool = False) -> MonoidInstance:
    """Divisors of n under divisibility, with truncated multiplication."""
    if not (1 <= n <= 10**6):
        raise InstanceError("gen_div requires 1 <= n <= 10^6")
    poset = FinitePoset.divisors(n)
    if poset.size > 64:
        raise InstanceError(f"gen_div({n}) has {poset.size} divisors; at most 64 supported")
    divs = [int(d) for d in poset.labels]
    idx = {d: i for i, d in enumerate(divs)}
    m = len(divs)
    mult = {}
    for i, a in enumerate(divs):
        for j in range(i, m):
            c = a * divs[j]
            if c <= n and n % c == 0:
                mult[(i, j)] = idx[c]
    return MonoidInstance(f"div:{n}", poset, idx[1], mult=mult, check=check)


def gen_free(k: int, e: int, check: bool = False) -> MonoidInstance:
    """Exponent vectors {0..e}^k: the free model on k generators, truncated."""
    if k < 1 or e < 1 or (e + 1) ** k > 4096 or k > len(_SMALL_PRIMES):
        raise InstanceError("gen_free requires small k and e")
    vectors = list(iproduct(*[range(e + 1) for _ in range(k)]))

    def value(v):
        out = 1
        for p, x in zip(_SMALL_PRIMES, v):
            out *= p**x
        return out

    up = product_up_masks(vectors, [FinitePoset.chain(e + 1)] * k)
    poset = FinitePoset([str(value(v)) for v in vectors], up, _validated=True)
    # Vectors are listed in base-(e + 1) order, so index(e - v) = last - index(v)
    # and v + w stays in the box iff w <= e - v, where index(v + w) = i + j.
    last = len(vectors) - 1
    mult = {}
    for i in range(len(vectors)):
        for j in _mask_bits(poset.down[last - i] >> i << i):
            mult[(i, j)] = i + j
    return MonoidInstance(f"free:{k},{e}", poset, 0, mult=mult, check=check)


def gen_hilbert(n: int, check: bool = False) -> MonoidInstance:
    """The 1-mod-4 multiplicative monoid truncated at n, under its own
    divisibility (quotients must stay in the monoid)."""
    if not (1 <= n <= 10**4):
        raise InstanceError("gen_hilbert requires 1 <= n <= 10^4")
    elems = [m for m in range(1, n + 1) if m % 4 == 1]
    idx = {m: i for i, m in enumerate(elems)}
    up = [0] * len(elems)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if b % a == 0 and (b // a) % 4 == 1:
                up[i] |= 1 << j
    poset = FinitePoset([str(m) for m in elems], up, _validated=True)
    mult = {}
    for i, a in enumerate(elems):
        for j in range(i, len(elems)):
            c = a * elems[j]
            if c <= n:
                mult[(i, j)] = idx[c]
    return MonoidInstance(f"hilbert:{n}", poset, idx[1], mult=mult, check=check)


def gen_random(size: int, seed: int) -> MonoidInstance:
    """A seeded poset-with-B instance of at most ``size`` elements.

    The prime powers are drawn from the strongly join-irreducible elements
    lying above a single atom, labeled along chains, so the designated set
    behaves like genuine prime powers (chains per base, covering law).
    Deterministic per (size, seed).
    """
    if not (1 <= size <= 12):
        raise InstanceError("gen_random requires 1 <= size <= 12")
    rng = random.Random(size * 1_000_003 + seed)
    if size >= 4 and rng.random() < 0.3:
        inst = _random_box(size, seed, rng)
        if inst is not None:
            return inst
    return _random_poset_instance(size, seed, rng)


def _random_box(size: int, seed: int, rng: random.Random) -> MonoidInstance | None:
    shapes = []
    for k in (1, 2, 3):
        for dims in iproduct(*[range(1, 4) for _ in range(k)]):
            total = 1
            for d in dims:
                total *= d + 1
            if 2 <= total <= size:
                shapes.append(dims)
    if not shapes:
        return None
    dims = rng.choice(shapes)
    vectors = list(iproduct(*[range(d + 1) for d in dims]))
    idx = {v: i for i, v in enumerate(vectors)}
    up = product_up_masks(vectors, [FinitePoset.chain(d + 1) for d in dims])
    poset = FinitePoset([f"v{'x'.join(map(str, v))}" for v in vectors], up, _validated=True)
    powers = []
    for axis, bound in enumerate(dims):
        base_vec = tuple(1 if t == axis else 0 for t in range(len(dims)))
        for expo in range(1, bound + 1):
            vec = tuple(expo if t == axis else 0 for t in range(len(dims)))
            powers.append(PrimePower(base=idx[base_vec], exponent=expo, element=idx[vec]))
    return MonoidInstance(
        f"random:{size},{seed}", poset, idx[vectors[0]], prime_powers=powers, kind=POSET_WITH_B
    )


def _random_poset_instance(size: int, seed: int, rng: random.Random) -> MonoidInstance:
    n = size
    up = [1 << i for i in range(n)]
    prob = rng.uniform(0.2, 0.5)
    for i in range(1, n):
        for j in range(i + 1, n):
            if rng.random() < prob:
                up[i] |= 1 << j
    for _ in range(n):
        for i in range(n):
            acc = up[i]
            m = up[i]
            while m:
                low = m & -m
                acc |= up[low.bit_length() - 1]
                m ^= low
            up[i] = acc
    up[0] = (1 << n) - 1
    poset = FinitePoset([f"e{i}" for i in range(n)], up, _validated=True)
    strong = {
        a
        for a in range(1, n)
        if is_irreducible(poset, a, "join", "strong", "complete")
    }
    atom_set = poset.minimal_of(poset.full_mask & ~1)
    atoms_below = [poset.down[x] & poset.mask_of(atom_set) for x in range(n)]
    powers = []
    used: set[int] = set()
    for atom in sorted(atom_set):
        if atom not in strong or rng.random() < 0.2:
            continue
        chain = [atom]
        used.add(atom)
        while rng.random() < 0.6:
            candidates = [
                x
                for x in sorted(strong - used)
                if poset.lt(chain[-1], x) and atoms_below[x] == 1 << atom
            ]
            if not candidates:
                break
            nxt = rng.choice(candidates)
            chain.append(nxt)
            used.add(nxt)
        for expo, elem in enumerate(chain, start=1):
            powers.append(PrimePower(base=atom, exponent=expo, element=elem))
    return MonoidInstance(
        f"random:{size},{seed}", poset, 0, prime_powers=powers, kind=POSET_WITH_B
    )


def gen_krullZ2():
    """The fixed two-class divisor model: monoid of even-coordinate-sum points
    of the 4x4 grid under truncated vector addition, inside the full grid of
    divisors plus an adjoined zero ideal."""
    from .divisor import IdealSystem

    grid = [(i, j) for i in range(4) for j in range(4)]
    even = [v for v in grid if (v[0] + v[1]) % 2 == 0]
    eidx = {v: i for i, v in enumerate(even)}
    side = FinitePoset.chain(4)
    up = product_up_masks(even, [side, side])
    mpos = FinitePoset([f"({v[0]},{v[1]})" for v in even], up, _validated=True)
    mult = {}
    for i, v in enumerate(even):
        for j in range(i, len(even)):
            w = even[j]
            s = (v[0] + w[0], v[1] + w[1])
            if s in eidx:
                mult[(i, j)] = eidx[s]
    monoid = MonoidInstance("krullZ2-monoid", mpos, eidx[(0, 0)], mult=mult, check=True)

    labels = ["(0)"] + [f"({v[0]},{v[1]})" for v in grid]
    gidx = {v: k + 1 for k, v in enumerate(grid)}
    # inclusion is reverse componentwise order on divisor vectors, and the
    # zero ideal (id 0) sits below everything
    grid_up = product_up_masks(grid, [side.dual(), side.dual()])
    iup = [(1 << (len(grid) + 1)) - 1] + [m << 1 for m in grid_up]
    ideals = FinitePoset(labels, iup, _validated=True)
    principal = {eidx[v]: gidx[v] for v in even}
    imult = {}
    for v in grid:
        for w in grid:
            s = (v[0] + w[0], v[1] + w[1])
            if s in gidx and gidx[v] <= gidx[w]:
                imult[(gidx[v], gidx[w])] = gidx[s]
    return IdealSystem(
        name="krullZ2",
        poset=ideals,
        zero=0,
        principal=principal,
        monoid=monoid,
        mult=imult,
    )
