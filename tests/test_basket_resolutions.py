"""Basket-shaped resolutions, seeded, against closed-form oracles.

A basket of cyclic quotient points 1/n(1, q), n <= 60 and gcd(n, q) = 1,
resolves to disjoint Hirzebruch-Jung chains n/q = [b_1, ..., b_r]: the
curves E_1, ..., E_r with E_i^2 = -b_i and 1 between neighbours
(Hirzebruch 1953). Some chains become star-shaped trees, with two
(-2)-curves on E_1, the hub. Strict (-1)-curves meet chosen chain ends once.
The basis is shuffled, or lists each component's E_1 first; the exceptional
rank stays within ``MAX_EXCEPTIONAL_RANK``.

The oracles:

- in chain order, the last leading minor of a chain is (-1)^r n, and over
  the whole exceptional Gram, in the resolution's order, it is the product
  of the components' determinants;
- a (-1)-curve meeting E_1 once pulls back to square -1 + q/n, one meeting
  E_r to -1 + q'/n with q q' = 1 mod n, and two curves meeting E_1 and E_r
  of one chain pair to 1/n: the corner entries of the inverse of minus the
  chain's Gram;
- ``weil_intersect`` equals the pairing of pullbacks solved here in
  Fractions, one component at a time in its own order;
- ``signature`` is (0, rank, 0).

Three seeded faults are put in by monkeypatching, and each is caught.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest

import folcan.surface_model
from folcan.lattice import SymmetricPairing, signature
from folcan.surface_model import MAX_EXCEPTIONAL_RANK, ResolutionData, SurfaceModel, weil_intersect


def continued_fraction(n, q):
    """[b_1, ..., b_r], every b_i >= 2, with n/q = b_1 - 1/(b_2 - 1/(... - 1/b_r))."""
    b = []
    while q:
        b.append(-(-n // q))
        n, q = q, b[-1] * q - n
    return b


@dataclass
class Component:
    n: int
    q: int
    length: int  # r, the chain's curves; a star adds two leaves after them
    star: bool
    positions: list  # ambient positions of E_1, ..., E_r, then a star's leaves


@dataclass
class Case:
    res: ResolutionData
    rows: list  # the ambient Gram as ints
    components: list
    strict: list  # (ambient position, component, chain end 0 or r - 1) of each strict (-1)-curve
    hub_first: bool


def basket_case(rng, hub_first):
    diagonal, edges, components = [], [], []
    for _ in range(rng.randint(1, 8)):
        n = rng.randint(2, 60)
        # q = n - 1 gives the longest chain, n - 1 (-2)-curves
        q = n - 1 if rng.random() < 0.3 else rng.choice([q for q in range(1, n) if math.gcd(n, q) == 1])
        b = continued_fraction(n, q)
        star = rng.random() < 0.3
        size = len(b) + 2 * star
        if len(diagonal) + size > MAX_EXCEPTIONAL_RANK:
            break
        first = len(diagonal)
        diagonal += [-x for x in b] + [-2] * (size - len(b))
        edges += [(first + i, first + i + 1) for i in range(len(b) - 1)]
        edges += [(first, leaf) for leaf in range(first + len(b), first + size)]
        components.append(Component(n, q, len(b), star, list(range(first, first + size))))
    rank = len(diagonal)
    strict = []
    for comp in components:
        for end in sorted({0, comp.length - 1}):
            if rng.random() < 0.6:
                strict.append((len(diagonal), comp, end))
                edges.append((len(diagonal), comp.positions[end]))
                diagonal.append(-1)
    # the basis order: shuffled, then with each component's E_1 moved to the front
    order = list(range(len(diagonal)))
    rng.shuffle(order)
    hubs = [comp.positions[0] for comp in components]
    if hub_first:
        order = hubs + [c for c in order if c not in hubs]
    where = {curve: i for i, curve in enumerate(order)}
    rows = [[0] * len(order) for _ in order]
    for curve, d in enumerate(diagonal):
        rows[where[curve]][where[curve]] = d
    for a, b in edges:
        rows[where[a]][where[b]] = rows[where[b]][where[a]] = 1
    exceptional = [where[c] for c in range(rank)]
    rng.shuffle(exceptional)
    if hub_first:
        exceptional = [where[c] for c in hubs] + [i for i in exceptional if order[i] not in hubs]
    for comp in components:
        comp.positions = [where[c] for c in comp.positions]
    strict = [(where[c], comp, end) for c, comp, end in strict]
    model = SurfaceModel(tuple(f"c{i}" for i in range(len(order))), SymmetricPairing.from_rows(rows))
    return Case(ResolutionData(model, tuple(exceptional)), rows, components, strict, hub_first)


def own_solve(rows, positions, rhs):
    """``(x, det)``: x over ``positions`` with rows[i] . x = rhs[i] for each i there, and the determinant there.

    Gaussian elimination in Fractions, pivoting in the order of ``positions``.
    """
    index = {p: k for k, p in enumerate(positions)}
    m = [{index[j]: F(rows[i][j]) for j in positions if rows[i][j]} for i in positions]
    b = [F(x) for x in rhs]
    det = F(1)
    for k, pivot_row in enumerate(m):
        det *= pivot_row[k]
        later = [(j, a) for j, a in pivot_row.items() if j > k]
        for i, _ in later:  # the rows below with an entry in column k: A is symmetric
            c = m[i].pop(k) / pivot_row[k]
            for j, a in later:
                m[i][j] = m[i].get(j, 0) - c * a
            b[i] -= c * b[k]
    x = [F(0)] * len(m)
    for k in reversed(range(len(m))):
        x[k] = (b[k] - sum(a * x[j] for j, a in m[k].items() if j > k)) / m[k][k]
    return x, det


def own_pullback(case, strict):
    """strict + sum x_i E_i with every E_i orthogonal to it, solved component by component."""
    pulled = [F(x) for x in strict]
    for comp in case.components:
        image = [sum(a * strict[j] for j, a in enumerate(case.rows[i]) if a) for i in comp.positions]
        for i, x in zip(comp.positions, own_solve(case.rows, comp.positions, [-y for y in image])[0]):
            pulled[i] += x
    return pulled


def own_pair(rows, u, v):
    """u^T A v, summed over the nonzero entries of u and of A's rows there."""
    return sum(x * a * v[j] for i, x in enumerate(u) if x for j, a in enumerate(rows[i]) if a)


def corner(comp, end1, end2):
    """The entry of the inverse of minus the chain's Gram at E_(end1 + 1), E_(end2 + 1), ends only."""
    if end1 != end2:
        return F(1, comp.n)
    if end1 == 0:
        return F(comp.q, comp.n)
    return F(pow(comp.q, -1, comp.n), comp.n)


def check_case(case, rng):
    res, rows = case.res, case.rows
    gram = res.exceptional_gram
    assert signature(gram) == (0, gram.dimension, 0)
    determinant = 1
    for comp in case.components:
        chain = comp.positions[: comp.length]
        assert res.ambient.pairing.restrict(chain).congruence.minors[-1] == (-1) ** comp.length * comp.n
        determinant *= own_solve(rows, comp.positions, [0] * len(comp.positions))[1]
    assert gram.congruence.minors[-1] == determinant
    rank = len(rows)
    unit = {a: tuple(int(i == a) for i in range(rank)) for a, _, _ in case.strict}
    for a, comp_a, end_a in case.strict:
        for b, comp_b, end_b in case.strict:
            if comp_a is comp_b and not comp_a.star:
                expected = rows[a][b] + corner(comp_a, end_a, end_b)
                assert weil_intersect(res, unit[a], unit[b]) == expected
    for _ in range(2):
        u, v = ([rng.choice((0, 0, 1, -1, 2)) for _ in range(rank)] for _ in range(2))
        assert weil_intersect(res, u, v) == own_pair(rows, own_pullback(case, u), own_pullback(case, v))


def basket_family():
    rng = random.Random(1953)
    for draw in range(36):
        yield basket_case(rng, hub_first=draw % 3 == 0), random.Random(draw)


def check_family():
    for case, rng in basket_family():
        check_case(case, rng)


def test_basket_shaped_resolutions_meet_their_closed_forms():
    seen = dict.fromkeys(("hub first", "shuffled", "star", "several components", "rank above 100"), 0)
    seen.update({"E_1 closed form": 0, "E_r closed form": 0, "both ends of one chain": 0})
    for case, rng in basket_family():
        check_case(case, rng)
        seen["hub first" if case.hub_first else "shuffled"] += 1
        seen["star"] += any(comp.star for comp in case.components)
        seen["several components"] += len(case.components) >= 3
        seen["rank above 100"] += case.res.exceptional_gram.dimension > 100
        chains = [(comp, end) for _, comp, end in case.strict if not comp.star]
        seen["E_1 closed form"] += sum(end == 0 and comp.length > 1 for comp, end in chains)
        seen["E_r closed form"] += sum(end > 0 for comp, end in chains)
        starts = [comp for comp, end in chains if end == 0]
        seen["both ends of one chain"] += sum(end > 0 and any(c is comp for c in starts) for comp, end in chains)
    assert min(seen.values()) >= 5, seen


def test_the_hirzebruch_jung_fractions():
    assert continued_fraction(5, 2) == [3, 2]
    assert continued_fraction(7, 6) == [2] * 6
    assert continued_fraction(60, 1) == [60]
    for n in range(2, 61):
        for q in range(1, n):
            if math.gcd(n, q) == 1:
                value = F(0)
                for b in reversed(continued_fraction(n, q)):
                    value = b - (1 / F(value) if value else 0)
                assert value == F(n, q)


# Seeded faults, each put in by monkeypatching a correct library, each of
# which the family's oracles must catch.


def first_b_off_by_one(monkeypatch):
    # every restricted Gram, the exceptional one among them, has its first
    # curve's b one larger: a chain read with one b_i off by one
    restrict = SymmetricPairing.restrict

    def faulty(self, indices):
        rows = [list(row) for row in restrict(self, indices).entries]
        rows[0][0] -= 1
        return SymmetricPairing.from_rows(rows)

    monkeypatch.setattr(SymmetricPairing, "restrict", faulty)


def component_of_the_first(gram):
    reached, stack = {0}, [0]
    while stack:
        for j, _ in gram.nonzeros[stack.pop()]:
            if j not in reached:
                reached.add(j)
                stack.append(j)
    return reached


def one_component_unsolved(monkeypatch):
    # the component of the first listed exceptional curve keeps zero coefficients
    solve = folcan.surface_model.solve_linear

    def faulty(gram, rhs):
        skipped = component_of_the_first(gram)
        return tuple(F(0) if i in skipped else x for i, x in enumerate(solve(gram, rhs)))

    monkeypatch.setattr(folcan.surface_model, "solve_linear", faulty)


def coefficient_misplaced(monkeypatch):
    # the first two coefficients land on each other's positions
    solve = folcan.surface_model.solve_linear

    def faulty(gram, rhs):
        x = list(solve(gram, rhs))
        x[:2] = x[1::-1]
        return tuple(x)

    monkeypatch.setattr(folcan.surface_model, "solve_linear", faulty)


@pytest.mark.parametrize("fault", [first_b_off_by_one, one_component_unsolved, coefficient_misplaced])
def test_a_seeded_fault_is_caught(monkeypatch, fault):
    fault(monkeypatch)
    with pytest.raises(AssertionError):
        check_family()
