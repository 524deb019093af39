"""finring: finite commutative rings, their modules, and Gorenstein-style
classification with explicit witnesses.

Quick start::

    from finring import build_ring, parse_ring_spec, classify

    ring = build_ring(parse_ring_spec("Z/8"))
    report = classify(ring)
    assert report.quasi_frobenius and not report.sg_semisimple
"""

from .classify import (
    ClassificationReport,
    SQUARE_ZERO_PAIR,
    catalog_rings,
    classify,
    classify_spec,
    is_quasi_frobenius,
    is_semisimple,
    is_sg_semisimple,
    residue_field_sgp,
)
from .errors import (
    AxiomViolation,
    ConsistencyError,
    FinringError,
    GuardExceeded,
    NonLocalRingError,
    ParseError,
    PreconditionError,
    RingMismatchError,
    ValidationError,
)
from .guards import DEFAULT_GUARDS, Guards
from .homology import (
    CompleteResolutionReport,
    ExtGroup,
    FreeResolution,
    SgpObstruction,
    SgpVerdict,
    SgpWitness,
    check_complete_resolution,
    ext1,
    find_sgp_witness,
    free_cover,
    free_resolution,
    is_strongly_gorenstein_projective,
    strongly_complete_resolution,
)
from .ideals import (
    Ideal,
    IdempotentDecomposition,
    annihilator,
    enumerate_ideals,
    ideal_generated,
    idempotent_decomposition,
    is_local,
    jacobson_radical,
    maximal_ideals,
    unique_maximal_ideal,
)
from .modules import (
    Module,
    ModuleHom,
    Presentation,
    cokernel,
    decompose_over_product,
    direct_sum,
    free_module,
    free_summand_split,
    hom_set,
    ideal_as_module,
    image,
    is_isomorphic,
    is_projective,
    kernel,
    minimal_generators,
    quotient_by_ideal,
    regular_module,
)
from .parsing import format_element, parse_element, parse_presentation, parse_ring_spec
from .rings import (
    PolyQuotient,
    Product,
    Ring,
    RingSpec,
    StructureConstants,
    Zmod,
    build_ring,
    spec_text,
    unit_or_zero_divisor,
)

__version__ = "0.1.0"
