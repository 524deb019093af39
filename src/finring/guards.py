"""Resource guards.

Every potentially explosive search is gated by one of these limits.  Hitting
a guard raises :class:`finring.errors.GuardExceeded`; results are never
silently truncated.  A ring remembers the guards it was built with and every
module or search derived from it inherits them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ValidationError


@dataclass(frozen=True)
class Guards:
    #: largest ring we agree to construct at all
    max_ring_order: int = 4096
    #: largest ring for full ideal-lattice enumeration
    max_lattice_order: int = 1024
    #: largest raw tuple space R^k explored when presenting a module
    max_module_raw: int = 65536
    #: largest candidate count for hom-set style enumerations: the image
    #: tuples left after each listed element's images are filtered by its
    #: annihilator (and, in an injective search, by dropping zero for a
    #: nonzero element), counted for each hom search and each Ext^1 scan
    max_hom_candidates: int = 1_000_000
    #: fixed seed for the sampled axiom check of a Z/n too big for an
    #: exhaustive one; reports stay reproducible
    axiom_seed: int = 1729

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("max_") and value < 1:
                raise ValidationError(f"guard {f.name} must be at least 1, got {value}")

    def with_overrides(self, **kwargs) -> "Guards":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self


DEFAULT_GUARDS = Guards()
