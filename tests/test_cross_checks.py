"""Independent cross-checks of the chain machinery against sympy."""

import math

import numpy as np
import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from cencay.iso import automorphisms
from cencay.perm import PermutationGroup
from .fixture_groups import alt5, d2_group, regular_representations, sym5
from .test_iso import coset_graph, transposition_graph


def _sympy_order(gens, degree):
    perms = [sympy_comb.Permutation(list(map(int, g)), size=degree) for g in gens]
    return sympy_comb.PermutationGroup(perms).order()


def test_sympy_agrees_on_d2_orders():
    for G, expect in ((alt5(), 14_400), (sym5(), 28_800)):
        D = d2_group(G)
        assert D.order == expect
        assert _sympy_order(D.generators, G.order) == expect


def test_sympy_agrees_on_star_groups():
    reps = regular_representations(alt5())
    ours = PermutationGroup(reps.star_gens, 60)
    assert ours.order == _sympy_order(reps.star_gens, 60) == 3600


def test_sympy_recounts_emitted_aut_generators():
    res = automorphisms(transposition_graph())
    assert _sympy_order(res.aut_generators, 120) == res.aut_order == 28_800


def test_sympy_recounts_giant_symmetric_aut():
    # the symmetric-type fixture: an independent implementation confirms
    # that the emitted generators really generate a group of order 2*(60!)^2
    res = automorphisms(coset_graph())
    want = 2 * math.factorial(60) ** 2
    assert res.aut_order == want
    assert _sympy_order(res.aut_generators, 120) == want
