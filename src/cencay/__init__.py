"""Isomorphism testing for central colored Cayley graphs over almost simple groups.

The top-level namespace re-exports the main types and operations, and no
test oracle; see the README for the pipeline overview and the CLI.
"""

from types import ModuleType as _ModuleType

from .errors import CapExceededError, CencayError, InternalError, InvalidInputError
from .group import (
    ClassPartition,
    FiniteGroup,
    Subgroup,
    automorphism_group,
    conjugacy_classes,
    group_from_generators,
    group_isomorphisms,
    is_almost_simple,
    socle,
    subgroups_over_socle,
)
from .perm import (
    D2Subgroup,
    PermutationGroup,
    regular_subgroups,
    symmetric_group_on,
    wreath_group_on_blocks,
)
from .cayley import (
    CayleyScheme,
    ColorCayleyGraph,
    PrincipalSection,
    build_central_cayley,
    cayley_wl,
    compute_H0,
    compute_H1,
    partition_from_class_merge,
    principal_section,
)
from .iso import (
    Analysis,
    IsoCoset,
    IsoResult,
    Majorant,
    QuotientGraph,
    analyze,
    automorphisms,
    brute_force_oracle,
    c0_search,
    iso_test,
    lift_and_intersect,
    majorant,
    quotient_isos,
    schemes_with_phi,
)
from .fixtures import BUILTIN_NAMES, builtin_group

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
