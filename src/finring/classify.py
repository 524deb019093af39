"""Ring classification: semisimple, quasi-Frobenius, SG-semisimple.

The three classes are nested:

    semisimple  <  SG-semisimple  <  quasi-Frobenius

* semisimple: zero Jacobson radical (a finite product of fields);
* quasi-Frobenius: Ann(Ann(I)) = I for every ideal -- equivalently, every
  module is Gorenstein projective;
* SG-semisimple: every module is strongly Gorenstein projective --
  equivalently, every local factor has at most one nonzero proper ideal.

``classify`` runs all three with certificates and, on small local factors,
cross-validates the SG verdict through an independent module-level route:
a local ring is SG-semisimple exactly when its residue field R/m is a
strongly Gorenstein projective module (``residue_field_sgp(ring)`` builds
R/m itself), decided once on the factor's ``table_owner``, which keeps the
verdict.  Disagreement between the two routes is a hard internal error,
never an output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError
from .guards import DEFAULT_GUARDS, Guards
from .ideals import (
    Ideal,
    enumerate_ideals,
    idempotent_decomposition,
    is_local,
    jacobson_radical,
    maximal_ideals,
    quasi_frobenius_certificate,
    unique_maximal_ideal,
)
from .homology import SgpVerdict, is_strongly_gorenstein_projective
from .modules import is_projective, quotient_by_ideal
from .parsing import parse_ring_spec
from .rings import Ring, build_ring, kept, spec_order, table_owner


@dataclass(frozen=True)
class FactorSummary:
    order: int
    ideal_count: int
    max_ideal_order: int


@dataclass(frozen=True)
class SgCertificate:
    """An offending local factor exhibiting two nonzero proper ideals."""

    factor_index: int
    first: Ideal
    second: Ideal


@dataclass(frozen=True)
class ClassificationReport:
    spec: str
    order: int
    is_local: bool
    factors: tuple
    semisimple: bool
    quasi_frobenius: bool
    sg_semisimple: bool
    semisimple_certificate: object  # a nonzero radical element, or None
    qf_certificate: Ideal | None
    sg_certificate: SgCertificate | None


def is_semisimple(ring: Ring):
    """(verdict, certificate): zero radical, else its least nonzero element."""
    radical = jacobson_radical(ring)
    if radical.is_zero:
        return True, None
    witness = next(i for i in radical.indices if ring.elements[i] != ring.zero)
    return False, ring.elements[witness]


def is_quasi_frobenius(ring: Ring):
    """(verdict, certificate): double-annihilator test over the full lattice."""
    bad = quasi_frobenius_certificate(ring)
    return (True, None) if bad is None else (False, bad)


def nonzero_proper_ideals(ring: Ring) -> list:
    """The ideals strictly between 0 and R, in lattice order.  A local ring
    is SG-semisimple exactly when there is at most one of them."""
    return [i for i in enumerate_ideals(ring) if i.is_proper and not i.is_zero]


def is_sg_semisimple(ring: Ring):
    """(verdict, certificate): every local factor has <= 1 nonzero proper ideal."""
    dec = idempotent_decomposition(ring)
    for fi, factor in enumerate(dec.factor_rings):
        nonzero_proper = nonzero_proper_ideals(factor)
        if len(nonzero_proper) > 1:
            return False, SgCertificate(fi, nonzero_proper[0], nonzero_proper[1])
    return True, None


def residue_field_sgp(local_ring: Ring) -> SgpVerdict:
    """Is R/m strongly Gorenstein projective?  The module route to the SG test."""
    return is_strongly_gorenstein_projective(
        quotient_by_ideal(unique_maximal_ideal(local_ring))
    )


@kept("residue_sgp")
def _residue_sgp_decision(owner: Ring) -> bool:
    # taken on table_owner(factor), it is kept for all rings with its tables; a
    # projective P is SGP through the split 0 -> P -> P + P -> P -> 0, so a
    # field's R/m = R needs no witness search
    residue = quotient_by_ideal(unique_maximal_ideal(owner))
    return is_projective(residue) or residue_field_sgp(owner).decision


def factor_summary(factor: Ring) -> FactorSummary:
    """Order, ideal count and maximal-ideal order of a local factor."""
    return FactorSummary(
        factor.order, len(enumerate_ideals(factor)), maximal_ideals(factor)[0].order
    )


def classify(ring: Ring) -> ClassificationReport:
    """Full report with certificates, implication-chain and route checks."""
    # first, so the lattice guard is checked before any operation table is built
    ss, ss_cert = is_semisimple(ring)
    dec = idempotent_decomposition(ring)
    qf, qf_cert = is_quasi_frobenius(ring)
    sg, sg_cert = is_sg_semisimple(ring)
    if (ss and not sg) or (sg and not qf):
        raise ConsistencyError(
            f"classification chain broken on {ring.describe()}: "
            f"semisimple={ss}, sg={sg}, qf={qf}"
        )
    factors = []
    for fi, factor in enumerate(dec.factor_rings):
        factors.append(factor_summary(factor))
        if factor.order <= 64:
            ideal_route = len(nonzero_proper_ideals(factor)) <= 1
            module_route = _residue_sgp_decision(table_owner(factor))
            if ideal_route != module_route:
                raise ConsistencyError(
                    f"SG routes disagree on factor {fi} of {ring.describe()}: "
                    f"ideal-count={ideal_route}, residue-SGP={module_route}"
                )
    return ClassificationReport(
        spec=ring.describe(),
        order=ring.order,
        is_local=is_local(ring),
        factors=tuple(factors),
        semisimple=ss,
        quasi_frobenius=qf,
        sg_semisimple=sg,
        semisimple_certificate=ss_cert,
        qf_certificate=qf_cert,
        sg_certificate=sg_cert,
    )


def classify_spec(text: str, guards: Guards | None = None) -> ClassificationReport:
    return classify(build_ring(parse_ring_spec(text), guards))


# ---------------------------------------------------------------------------
# the default ring catalog

# the GF(2)-algebra on 1, x, y with x^2 = xy = y^2 = 0: the standard
# non-quasi-Frobenius control (Ann(Ann(xR)) = m != xR)
SQUARE_ZERO_PAIR = (
    "SC(2;3;"
    "1,0,0,0,1,0,0,0,1,"
    "0,1,0,0,0,0,0,0,0,"
    "0,0,1,0,0,0,0,0,0;"
    "1,0,0)"
)

# representative bases whose pairwise products exercise every classifier
# branch: fields, chain rings with one and with several nonzero proper
# ideals, a non-quasi-Frobenius ring, and mixed products
_PAIR_BASIS = [
    "Z/2",
    "Z/3",
    "Z/4",
    "Z/5",
    "Z/7",
    "Z/8",
    "Z/9",
    "Z/12",
    "Z/16",
    "Z/25",
    "Z/27",
    "GF(4)",
    "GF(8)",
    "GF(9)",
    "GF(2)[x]/(x^2)",
    "GF(2)[x]/(x^3)",
    "GF(3)[x]/(x^2)",
    SQUARE_ZERO_PAIR,
]


def catalog_specs(name: str = "default") -> list:
    """Named (label, spec text) lists used by property suites."""
    base = [f"Z/{n}" for n in range(2, 65)]
    base += ["GF(4)", "GF(8)", "GF(9)", "GF(16)"]
    base += [
        "GF(2)[x]/(x^2)",
        "GF(2)[x]/(x^3)",
        "GF(3)[x]/(x^2)",
        "GF(3)[x]/(x^3)",
    ]
    base.append(SQUARE_ZERO_PAIR)
    if name == "quick":
        picks = [
            "Z/2",
            "Z/4",
            "Z/5",
            "Z/8",
            "Z/9",
            "Z/12",
            "Z/27",
            "GF(4)",
            "GF(2)[x]/(x^2)",
            "GF(2)[x]/(x^3)",
            SQUARE_ZERO_PAIR,
            "Z/4 x Z/3",
            "Z/4 x Z/4",
            f"Z/8 x {SQUARE_ZERO_PAIR}",
        ]
        return [(s, s) for s in picks]
    if name != "default":
        raise ValueError(f"unknown catalog {name!r}")
    out = [(s, s) for s in base]
    sizes = {s: spec_order(parse_ring_spec(s)) for s in _PAIR_BASIS}
    for i, a in enumerate(_PAIR_BASIS):
        for b in _PAIR_BASIS[i:]:
            if sizes[a] * sizes[b] <= 256:
                text = f"{a} x {b}"
                out.append((text, text))
    return out


def catalog_rings(name: str = "default", guards: Guards | None = None):
    """Build the catalog lazily, yielding (label, ring)."""
    guards = guards or DEFAULT_GUARDS
    for label, text in catalog_specs(name):
        yield label, build_ring(parse_ring_spec(text), guards)
