"""Group cohomology of finite groups with certificate-emitting cocycle
trivialization in explicit finite abelian extensions."""

from .cochains import (
    Cochain,
    RationalCochain,
    add_cochains,
    averaging_homotopy,
    coboundary,
    cochain_from_function,
    cochain_from_json,
    cochain_to_json,
    cohomology,
    first_cocycle_defect,
    is_cocycle,
    load_cochain,
    neg_cochain,
    scale_cochain,
    solve_coboundary,
    sub_cochains,
    zero_cochain,
)
from .cup import Pairing, cup, cup_with_pairing, d2, evaluation_pairing, ring_pairing
from .errors import (
    GroupcohError,
    NonTorsionValue,
    NotACocycle,
    ResourceLimit,
    WitnessedError,
)
from .extensions import (
    GroupExtension,
    build_extension,
    extension_from_json,
    extension_to_json,
    kernel_view,
    lift_cochain,
    module_through_projection,
    restrict_cochain,
)
from .groups import (
    FiniteGroup,
    builtin_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_json,
    group_from_table,
    group_to_json,
    load_group,
    symmetric_group,
)
from .modules import (
    GModule,
    HomModule,
    ModuleMap,
    TensorModule,
    hom_module,
    invariants,
    load_module,
    make_module,
    module_from_json,
    module_to_json,
    tensor_module,
    torsion_submodule,
    trivial_module,
)
from .trivialize import (
    TrivializationCertificate,
    VerificationReport,
    build_witness,
    certificate_from_json,
    certificate_to_json,
    load_certificate,
    save_certificate,
    torsion_exponent,
    trivialize_general,
    trivialize_torsion,
    universal_kernel,
    verify_certificate,
)

__version__ = "0.1.0"
