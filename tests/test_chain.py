"""The batched stabilizer chain against the dict-based chain it replaced
(``fixture_groups.DictChainGroup``, one Schreier generator at a time) and
against sympy where it is installed.

The batched chain sifts its Schreier generators in the old loop's order and
adds the first nonidentity residue, so the two chains must agree level by
level: bases, strong generators, orbits in discovery order and inverse
transversals.  Everything derived from the chain (order, membership, the
order of ``chain_elements``, the kept list of ``reduce_generators``) follows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cencay.cayley import build_central_cayley, partition_from_class_merge
from cencay.errors import InternalError, InvalidInputError
from cencay.fixtures import builtin_group
from cencay.group import conjugacy_classes
from cencay.iso import analyze, automorphisms
from cencay import perm
from cencay.perm import PermutationGroup, compose, identity_perm, reduce_generators

from .fixture_groups import DictChainGroup, chain_elements, dict_reduce_generators

try:
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup
except ImportError:  # sympy is an optional test dependency
    SymGroup = None


def assert_same_chain(new: PermutationGroup, old: DictChainGroup) -> None:
    assert new.order == old.order
    new_levels, old_levels = new._levels, old._levels
    assert [lv.base for lv in new_levels] == [lv.base for lv in old_levels]
    for nl, ol in zip(new_levels, old_levels):
        assert [g.tobytes() for g in nl.gens] == [g.tobytes() for g in ol.gens]
        assert nl.points.tolist() == ol.points
        assert nl.inv.shape == (len(ol.points), new.degree)
        assert all(np.array_equal(nl.inv[k], ol.trans_inv[pt]) for k, pt in enumerate(ol.points))
        assert all(nl.pos[pt] == k for k, pt in enumerate(ol.points))
        assert int((nl.pos >= 0).sum()) == len(ol.points)


def random_products(gens, degree, rng, count=5, length=7):
    out = []
    for _ in range(count):
        f = identity_perm(degree)
        for _ in range(length if gens else 0):
            f = compose(f, gens[int(rng.integers(len(gens)))])
        out.append(f)
    return out


def invalid_inputs(degree):
    """Arrays of the right shape that are no permutation of 0..degree-1."""
    out = [np.full(degree, degree, dtype=np.int32), np.arange(degree) + 0.0]
    if degree > 1:
        out.append(np.zeros(degree, dtype=np.int32))
        out.append(np.arange(degree, dtype=np.int32) - 1)  # -1 must not wrap around
    return out


def check_against_oracles(gens, degree, rng, element_limit=2000):
    new, old = PermutationGroup(gens, degree), DictChainGroup(gens, degree)
    new._ensure_chain()
    old._ensure_chain()
    assert_same_chain(new, old)
    members = random_products(new.generators, degree, rng)
    strays = [rng.permutation(degree).astype(np.int32) for _ in range(6)]
    for f in members:
        assert f in new and f in old
    for f in strays:
        assert (f in new) == (f in old)
    for f in invalid_inputs(degree):
        assert f not in new and f not in old
    for bad in (np.arange(degree + 1), np.arange(2 * degree).reshape(2, degree)):
        with pytest.raises(InvalidInputError):
            bad in new
        with pytest.raises(InvalidInputError):
            bad in old
    if new.order <= element_limit:
        rows = [e.tobytes() for e in chain_elements(new)]
        assert rows == [e.tobytes() for e in old.elements()]
        assert len(set(rows)) == new.order
    kept = reduce_generators(gens, degree)
    expected = dict_reduce_generators(gens, degree)
    assert [g.tobytes() for g in kept] == [g.tobytes() for g in expected]
    assert PermutationGroup(kept, degree).order == new.order
    if SymGroup is not None:
        sym = SymGroup([SymPerm(g.tolist()) for g in new.generators] or [SymPerm(degree - 1)])
        assert sym.order() == new.order
        for f in members + strays:
            assert sym.contains(SymPerm(f.tolist())) == (f in new)
    return new


@st.composite
def generator_sets(draw):
    """A degree in 1..40 and up to five generators: permutations of a few
    points, of a block system, identities and repeats."""
    d = draw(st.integers(1, 40))
    gens = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["support", "support", "blocks", "identity", "repeat"]))
        g = np.arange(d, dtype=np.int32)
        if kind == "repeat" and gens:
            g = gens[draw(st.integers(0, len(gens) - 1))].copy()
        elif kind == "support":
            support = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=9))
            g[support] = draw(st.permutations(support))
        elif kind == "blocks" and d >= 4:
            m = d // 4
            tau = np.asarray(draw(st.permutations(range(m))))
            blocks = np.arange(4 * m).reshape(m, 4)
            g[blocks] = blocks[tau][:, draw(st.permutations(range(4)))]
        gens.append(g)
    return d, gens


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(generator_sets(), st.integers(0, 2**32 - 1))
def test_chain_matches_the_dict_chain_and_sympy(case, rng_seed):
    degree, gens = case
    group = check_against_oracles(gens, degree, np.random.default_rng(rng_seed))
    # the certified-order path: randomized descent to the true order
    new = PermutationGroup(gens, degree, known_order=group.order)
    old = DictChainGroup(gens, degree, known_order=group.order)
    new._ensure_chain()
    old._ensure_chain()
    assert_same_chain(new, old)
    rng = np.random.default_rng(rng_seed)
    for f in random_products(new.generators, degree, rng) + [rng.permutation(degree)]:
        assert (f in new) == (f in group)


def test_chain_matches_the_dict_chain_on_degree_40():
    rng = np.random.default_rng(40)
    gens = [rng.permutation(40).astype(np.int32) for _ in range(2)]
    group = check_against_oracles(gens, 40, rng)
    assert group.order in (math.factorial(40), math.factorial(40) // 2)


def full_colouring(name):
    G = builtin_group(name)
    k = conjugacy_classes(G).k
    return build_central_cayley(G, partition_from_class_merge(G, [[i] for i in range(k)]))


@pytest.mark.parametrize("name", ["alt5", "sym5", "psl27", "pgl27", "alt6", "sym6"])
def test_chain_matches_the_dict_chain_on_full_colouring_auts(name):
    gamma = full_colouring(name)
    result = automorphisms(gamma)
    n = gamma.group.order
    rng = np.random.default_rng(7)
    group = check_against_oracles(result.aut_generators, n, rng, element_limit=0)
    assert group.order == result.aut_order


# 32 rows a batch (the floor), the default budget, and one batch per level
SIFT_BUDGETS = (0, perm._SIFT_BUDGET, 1 << 18)


@pytest.mark.parametrize("name", ["alt5", "sym5", "psl27", "pgl27", "alt6"])
def test_sift_batch_size_keeps_the_chain(name, monkeypatch):
    gamma = full_colouring(name)
    gens, n = automorphisms(gamma).aut_generators, gamma.group.order
    old = DictChainGroup(gens, n)
    old._ensure_chain()
    for budget in SIFT_BUDGETS:
        monkeypatch.setattr(perm, "_SIFT_BUDGET", budget)
        new = PermutationGroup(gens, n)
        new._ensure_chain()
        assert_same_chain(new, old)


def test_sift_batch_size_keeps_a_residue_past_row_32(monkeypatch):
    # c = (0 1)(41 42) and the transpositions t_i = (2i+2 2i+3), i < 20, each
    # on a level of its own; at level 0 every Schreier generator sifts to the
    # identity but the one of (point 1, t_19), c t_19 c = (40 42), which is
    # row 41 of the 42: past the first 32-row batch
    k, degree = 20, 43
    c = np.arange(degree, dtype=np.int32)
    c[[0, 1, 41, 42]] = [1, 0, 42, 41]
    gens = [c]
    for i in range(k):
        t = np.arange(degree, dtype=np.int32)
        t[[2 * i + 2, 2 * i + 3]] = [2 * i + 3, 2 * i + 2]
        gens.append(t)
    old = DictChainGroup(gens, degree)
    old._ensure_chain()
    first = PermutationGroup._first_residue
    for budget in SIFT_BUDGETS:
        monkeypatch.setattr(perm, "_SIFT_BUDGET", budget)
        hits = []

        def recording(self, rows, start):
            hit = first(self, rows, start)
            hits.append(None if hit is None else hit[0])
            return hit

        monkeypatch.setattr(PermutationGroup, "_first_residue", recording)
        new = PermutationGroup(gens, degree)
        new._ensure_chain()
        monkeypatch.undo()
        assert_same_chain(new, old)
        assert new.order == 2**19 * 12  # <t_0..t_18> x <c, t_19>, c t_19 of order 6
        # row 41 of the 42 is row 39 of the non-identity ones that reach the
        # sift: a batch that holds all 42 reports it there, and 32-row
        # batches report it from the second batch
        assert (39 in hits) == (max(32, budget // degree) >= 42)


@pytest.mark.parametrize("name", ["alt5", "psl27"])
def test_known_order_on_full_colouring_auts(name):
    gamma = full_colouring(name)
    result = automorphisms(gamma)
    n = gamma.group.order
    new = PermutationGroup(result.aut_generators, n, known_order=result.aut_order)
    old = DictChainGroup(result.aut_generators, n, known_order=result.aut_order)
    new._ensure_chain()
    old._ensure_chain()
    assert_same_chain(new, old)
    rng = np.random.default_rng(8)
    for f in random_products(result.aut_generators, n, rng):
        assert f in new
    assert rng.permutation(n) not in new


def test_a_wrong_known_order_raises():
    gens = [(1, 2, 3, 4, 0, 5, 6), (1, 0, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 6, 5)]
    assert PermutationGroup(gens, 7).order == 240
    with pytest.raises(InternalError):
        PermutationGroup(gens, 7, known_order=480).order


def test_a_wrong_known_order_stops_the_descent_early(monkeypatch):
    # the descent strips one product per round and stops after 16 * 7
    # rounds in a row that add no strong generator; each one it adds grows
    # an orbit by a point, which happens at most 7 + 6 + ... + 1 = 28
    # times, so the count is bounded whatever the products are (it used to
    # run 200,000 rounds here)
    gens = [(1, 2, 3, 4, 0, 5, 6), (1, 0, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 6, 5)]
    rounds = [0]
    strip = PermutationGroup._strip

    def counting_strip(self, p, start=0):
        rounds[0] += 1
        return strip(self, p, start)

    monkeypatch.setattr(PermutationGroup, "_strip", counting_strip)
    with pytest.raises(InternalError):
        PermutationGroup(gens, 7, known_order=480).order
    assert 16 * 7 <= rounds[0] - len(gens) <= 28 + 29 * 16 * 7


def test_reduce_generators_builds_one_chain(monkeypatch):
    d_u = analyze(full_colouring("sym5")).d_u
    built, chains = [], []
    init, ensure = PermutationGroup.__init__, PermutationGroup._ensure_chain

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_ensure(self):
        if self._levels is None:
            chains.append(self)
        ensure(self)

    monkeypatch.setattr(PermutationGroup, "__init__", counting_init)
    monkeypatch.setattr(PermutationGroup, "_ensure_chain", counting_ensure)
    kept = reduce_generators(d_u.auts_plain, d_u.degree)
    monkeypatch.undo()
    assert len(kept) > 1  # a rebuild per kept generator would show
    assert len(built) == 1 and len(chains) == 1
    expected = dict_reduce_generators(d_u.auts_plain, d_u.degree)
    assert [g.tobytes() for g in kept] == [g.tobytes() for g in expected]
    assert len(d_u.generators) == len(d_u.translations.generators()) + len(kept) + 1


def test_reduce_generators_rejects_non_permutations():
    with pytest.raises(InvalidInputError):
        reduce_generators([(1, 2, 0), (0, 0, 1)], 3)
    with pytest.raises(InvalidInputError):
        reduce_generators([(1, 2, 3)], 3)
    with pytest.raises(InvalidInputError):
        reduce_generators([(1, 0)], 3)
    with pytest.raises(InvalidInputError):
        reduce_generators([np.zeros((2, 2), dtype=np.int32)], 2)
    assert reduce_generators([(0, 1, 2), (1, 2, 0), (2, 0, 1)], 3)[0].tolist() == [1, 2, 0]
    assert reduce_generators([], 3) == []
