"""Shared test groups, built once per session, and n x n views of the
closure rows that the pipeline keeps."""

from functools import lru_cache

import numpy as np

from cencay.cayley import cayley_matrix
from cencay.coherent import AlgebraicIso, CoherentConfiguration
from cencay.group import (
    FiniteGroup,
    _class_fingerprints,
    _extend_partial_map,
    greedy_generators,
    group_from_generators,
)
from cencay.perm import PermutationGroup


@lru_cache(maxsize=None)
def alt5() -> FiniteGroup:
    return group_from_generators([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])


@lru_cache(maxsize=None)
def sym5() -> FiniteGroup:
    return group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])


@lru_cache(maxsize=None)
def alt6() -> FiniteGroup:
    return group_from_generators([(0, 2, 3, 4, 5, 1), (1, 2, 0, 3, 4, 5)])


@lru_cache(maxsize=None)
def sym6() -> FiniteGroup:
    return group_from_generators([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])


@lru_cache(maxsize=None)
def psl27() -> FiniteGroup:
    return group_from_generators([(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0)])


@lru_cache(maxsize=None)
def pgl27() -> FiniteGroup:
    return group_from_generators(
        [(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0), (0, 3, 6, 2, 5, 1, 4, 7)]
    )


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteGroup:
    return group_from_generators([tuple((i + 1) % n for i in range(n))])


@lru_cache(maxsize=None)
def c2_x_alt5() -> FiniteGroup:
    gens = [
        (1, 0, 2, 3, 4, 5, 6),
        (0, 1, 3, 4, 5, 6, 2),
        (0, 1, 3, 4, 2, 5, 6),
    ]
    return group_from_generators(gens)


def set_partitions(items):
    """Every partition of a list into nonempty blocks, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def d2_chain(K):
    """A parametric D(2,G) subgroup as a stabilizer chain on its generators:
    the oracle for its structural order and membership."""
    return PermutationGroup(K.generators, K.degree, known_order=K.order)


def isomorphisms_all(G: FiniteGroup, H: FiniteGroup) -> list[np.ndarray]:
    """Every isomorphism G -> H by plain backtracking over the images of a
    greedy generating sequence, pruned only by class fingerprints: the
    oracle for ``automorphism_group`` and ``group_isomorphisms``."""
    if G.order != H.order:
        return []
    if G.order == 1:
        return [np.zeros(1, dtype=np.int32)]
    _, fp_g = _class_fingerprints(G)
    _, fp_h = _class_fingerprints(H)
    if sorted(fp_g["elem"]) != sorted(fp_h["elem"]):
        return []
    gens = greedy_generators(G)
    pools = [[x for x in range(H.order) if fp_h["elem"][x] == fp_g["elem"][g]] for g in gens]
    out = []

    def rec(depth: int, images: list[int]) -> None:
        if depth == len(gens):
            m = _extend_partial_map(G, H, gens, images)
            if m is not None:
                out.append(m)
            return
        for cand in pools[depth]:
            if depth > 0:
                a = G.mul(gens[depth - 1], gens[depth])
                b = H.mul(images[-1], cand)
                if fp_g["elem"][a] != fp_h["elem"][b]:
                    continue
            rec(depth + 1, images + [cand])

    rec(0, [])
    return out


def pair_matrices(swp):
    """X, Y and the identity algebraic isomorphism phi of a ``SchemesWithPhi``,
    as n x n matrices gathered from its two closure rows."""
    X = CoherentConfiguration(cayley_matrix(swp.src.gamma.group, swp.src.row))
    Y = CoherentConfiguration(cayley_matrix(swp.dst.gamma.group, swp.row_b))
    X.verify_light()
    Y.verify_light()
    return X, Y, AlgebraicIso(X, Y, np.arange(X.rank, dtype=np.int32))


def restricted_matrix(rec):
    """XU, the closure restricted to U, as the |U| x |U| matrix of the U-row."""
    XU = CoherentConfiguration(cayley_matrix(rec.U, rec.u_row))
    XU.verify_light()
    return XU
