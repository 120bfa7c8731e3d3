"""quivernc: torsion classes, cluster tilting objects, wide subcategories,
noncrossing partitions and sortable elements for quivers of finite type.

The package root is the integer fast path.  The oracles that `verify` and
the tests check it against are imported from their own modules:
`quivernc.replab`, `quivernc.latt`, `quivernc.stab` and `quivernc.verify`.
"""

__version__ = "0.1.0"

from .errors import (
    FingerprintError,
    NotFiniteTypeError,
    OracleCapError,
    QuiverSyntaxError,
)
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
