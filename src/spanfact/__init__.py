"""Vertex-transitive digraphs of out-degree 2 from group data: 1-factorizations,
block/phase analysis, relocatable trees, and spanning word sets."""

__version__ = "0.1.0"

from .perm import Perm, Word, compose, evaluate, parse_perm, parse_word, word_str
from .groups import (
    CosetSpace,
    FiniteGroup,
    Presentation,
    coset_space,
    enumerate_group,
    local_action_kernel,
    normalize_degree2,
    presentation_from_config,
    validate_presentation,
)
from .digraph import (
    AltCycleDecomposition,
    CosetDigraph,
    Digraph2,
    Factorization,
    build_coset_digraph,
    build_shift,
    build_toy,
    classify_factorizations,
    enumerate_factorizations,
    factorization_at,
)
from .blocks import (
    BlockSystem,
    PhaseProfile,
    PositionSystem,
    atoms,
    block_action,
    block_construction,
    cycle_block_system,
    difference_class_orbits,
    invariant_refinements,
    law_suite,
    phase_profile,
    position_block_system,
    position_system,
    relative_block_permutation,
    swap_relabel,
)
from .spanning import (
    WordSet,
    max_relocatable_tree,
    phase_addressing,
    search_sharply_transitive,
    splice_generators,
    verify_reloc_tree,
    verify_sharply_transitive,
)
from .fixtures import Fixture, load_fixture
