"""Shared test groups, built once per session."""

from functools import lru_cache

from cencay.group import FiniteGroup, group_from_generators
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
