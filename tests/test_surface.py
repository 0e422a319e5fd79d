"""The top-level namespace is pinned: ``cencay.__all__`` re-exports the
pipeline's types and operations and nothing else.  The n x n oracles of
``cencay.coherent``, the chain-based ``block_action_with_kernel`` and the
constructors only the tests use stay out of it; adding a name here is a
deliberate change to the package surface."""

import cencay

EXPORTS = {
    # errors
    "CapExceededError", "CencayError", "InternalError", "InvalidInputError",
    # group
    "ClassPartition", "FiniteGroup", "Subgroup", "automorphism_group", "conjugacy_classes",
    "group_from_generators", "group_isomorphisms", "is_almost_simple", "socle",
    "subgroups_over_socle",
    # perm
    "D2Subgroup", "PermutationGroup", "regular_subgroups", "symmetric_group_on",
    "wreath_group_on_blocks",
    # cayley
    "CayleyScheme", "ColorCayleyGraph", "PrincipalSection", "build_central_cayley", "cayley_wl",
    "compute_H0", "compute_H1", "partition_from_class_merge", "principal_section",
    # iso
    "Analysis", "IsoCoset", "IsoResult", "Majorant", "QuotientGraph", "analyze", "automorphisms",
    "brute_force_oracle", "c0_search", "iso_test", "lift_and_intersect", "majorant",
    "quotient_isos", "schemes_with_phi",
    # fixtures
    "BUILTIN_NAMES", "builtin_group",
}


def test_all_is_the_pinned_export_set():
    assert len(cencay.__all__) == len(set(cencay.__all__))
    assert set(cencay.__all__) == EXPORTS
