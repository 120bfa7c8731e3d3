"""quivernc: torsion classes, cluster tilting objects, wide and semistable
subcategories, noncrossing partitions and sortable elements for quivers of
finite type, with exact linear algebra and brute-force oracles."""

__version__ = "0.1.0"  # before the imports: `verify` reads it while the package loads

from .errors import (
    FingerprintError,
    NotFiniteTypeError,
    OracleCapError,
    QuiverSyntaxError,
)
from .fields import GF2, GF3, QQ
from .quiver import (
    DimVector,
    Quiver,
    Root,
    classify,
    coxeter_element_word,
    euler_form,
    parse_quiver,
    positive_roots,
    symmetrized_form,
)
from .weyl import (
    GroupElement,
    ar_quiver,
    cover_reflections,
    coxeter_element,
    fixed_space,
    inversion_set,
    is_c_sortable,
    length_S,
    reflection,
    simple_reflection,
    tau,
    word_to_element,
)
from .tors import (
    a_of,
    enumerate_support_tilting,
    enumerate_torsion_classes,
    ext_projectives,
    is_support_tilting,
    split_projectives,
    torsion_closure,
    torsion_free_complement,
    wide_simples,
)
from .cluster import (
    CCIndec,
    cc_ext_orthogonal,
    cc_rep,
    cc_shift,
    cluster_tilting_objects,
    complete_support_tilting,
    gen_of,
    mutate,
    support_tilting_of,
)
from .replab import (
    Representation,
    decompose,
    ext_dim,
    gen,
    hom_basis,
    indecomposable,
    injective_rep,
    is_torsion_class,
    projective_rep,
    reflect,
    simple_rep,
    subrep_dimvectors,
    torsion_subobject,
)
from .stab import (
    is_semistable,
    semistable_indecs,
    theta_of_support_tilting,
    verify_semistable_theorem,
)
from .ncmap import (
    braid_act,
    complete_exceptional_sequences,
    cover_criterion_check,
    cox_of_wide,
    is_exceptional_sequence,
    nc_of_torsion,
    reading_cl,
    reading_nc,
    rs_check,
    sortable_of_torsion,
    torsion_of_sortable,
    upper_indecs,
    wide_of_nc,
)
from .latt import (
    FinitePoset,
    LatticeReport,
    absolute_length,
    absolute_leq,
    cambrian_poset,
    lattice_analyze,
    noncrossing_partitions,
    principal_torsion_classes,
    splitting_chain,
    torsion_join,
    weyl_group,
)
