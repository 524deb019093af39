"""The theorem-verification suite behind the ``verify-paper`` command.

Each check sweeps the ring catalog (or a documented slice of it) and
re-derives one law from first principles, reporting a pass/fail line with
either summary counts or the first counterexample.  ``inject_fault=True``
deliberately negates one classifier route so the harness can demonstrate
that it catches violations; it must make the suite exit nonzero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .classify import (
    SQUARE_ZERO_PAIR,
    _residue_sgp_decision,
    catalog_rings,
    classify,
    nonzero_proper_ideals,
)
from .errors import FinringError, GuardExceeded
from .guards import DEFAULT_GUARDS, Guards
from .homology import (
    ext1,
    free_resolution,
    is_strongly_gorenstein_projective,
    witness_rank,
)
from .ideals import (
    _span_bits,
    annihilator,
    enumerate_ideals,
    idempotent_decomposition,
    ideal_generated,
    is_local,
    unique_maximal_ideal,
)
from .modules import (
    direct_sum,
    decompose_over_product,
    free_summand_split,
    hom_set,
    ideal_as_module,
    image,
    is_isomorphic,
    kernel,
    cokernel,
    quotient_by_ideal,
    regular_module,
)
from .parsing import parse_ring_spec
from .rings import build_ring, table_owner, unit_or_zero_divisor


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Counterexample(Exception):
    """Raised by a check body at its first counterexample; the text is the detail."""


#: every check, in the order it is defined and run
CHECKS: list = []


def _check(name):
    """Declare a check's report name once and append it to ``CHECKS``.

    The decorated body returns its summary detail when the law holds and
    raises ``_Counterexample`` at the first violation; either way the check
    returns a ``CheckResult`` under ``name``, which ``run_verification``
    also gives to an internal error.
    """

    def declare(body):
        @functools.wraps(body)
        def check(rings, flags):
            try:
                detail, passed = body(rings, flags), True
            except _Counterexample as found:
                detail, passed = str(found), False
            return CheckResult(name, passed, detail)

        check.report_name = name
        CHECKS.append(check)
        return check

    return declare


def _sample_modules(ring, include_sums=False):
    """Small canonical test modules, each built when it is drawn: R, the
    quotients R/I, optionally the first R/I plus R."""
    yield "R", regular_module(ring)
    first = None
    for ideal in nonzero_proper_ideals(ring):
        gens = ",".join(map(repr, ideal.generators))
        name, m = f"R/({gens})", quotient_by_ideal(ideal)
        first = first or (name, m)
        yield name, m
    if include_sums and first:
        yield f"{first[0]}+R", direct_sum(first[1], regular_module(ring))


def _local(rings, max_order):
    """The (label, ring) pairs of the local rings of order at most ``max_order``."""
    for label, ring in rings:
        if ring.order <= max_order and is_local(ring):
            yield label, ring


# ---------------------------------------------------------------------------
# checks; each takes (rings, flags) and, through ``_check``, returns a
# CheckResult.  ``flags`` holds ``inject_fault`` and the run's ``guards``,
# which every ring a check builds itself must carry


@_check("ring-axioms")
def check_ring_axioms(rings, _flags):
    # construction checks the laws where arithmetic is defined (Z/n by the
    # axiom check, each quotient level and structure-constant ring on its
    # basis) and products inherit their factors'; arriving here means they held
    return f"{len(rings)} catalog rings built and verified"


@_check("double-annihilator-containment")
def check_double_annihilator_containment(rings, _flags):
    count = 0
    for label, ring in rings:
        for ideal in enumerate_ideals(ring):
            back = annihilator(annihilator(ideal))
            if ideal.bits & ~back.bits:
                raise _Counterexample(
                    f"{label}: I is not inside Ann(Ann(I)) for I of order {ideal.order}"
                )
            count += 1
    return f"{count} ideals checked"


@_check("ideal-lattice-fixpoint")
def check_ideal_lattice_fixpoint(rings, _flags):
    checked = 0
    for label, ring in rings:
        if ring.order > 64:
            continue
        lattice = enumerate_ideals(ring)
        keys = {ideal.bits for ideal in lattice}
        for x in range(ring.order):
            if _span_bits(ring, [x]) not in keys:
                raise _Counterexample(f"{label}: missing principal ideal")
        gens = [ideal.generator_indices for ideal in lattice]
        for a in gens:
            for b in gens:
                if _span_bits(ring, a + b) not in keys:
                    raise _Counterexample(f"{label}: missing ideal sum")
        checked += 1
    return f"{checked} lattices closed under sums"


@_check("idempotent-splitting")
def check_idempotent_splitting(rings, _flags):
    for label, ring in rings:
        dec = idempotent_decomposition(ring)
        total = ring.zero
        for e in dec.idempotents:
            if ring.mul(e, e) != e or e == ring.zero:
                raise _Counterexample(f"{label}: non-idempotent atom")
            total = ring.add(total, e)
        if total != ring.one:
            raise _Counterexample(f"{label}: atoms do not sum to 1")
        size = 1
        for f in dec.factor_rings:
            if not is_local(f):
                raise _Counterexample(f"{label}: non-local factor")
            size *= f.order
        if size != ring.order:
            raise _Counterexample(f"{label}: factor sizes do not multiply")
    return f"{len(rings)} decompositions validated"


@_check("zmod-quasi-frobenius")
def check_zmod_quasi_frobenius(rings, flags):
    held = dict(rings)  # build only the Z/n the catalog lacks
    for n in range(2, 65):
        label = f"Z/{n}"
        ring = held.get(label) or build_ring(parse_ring_spec(label), flags["guards"])
        if not classify(ring).quasi_frobenius:
            raise _Counterexample(f"Z/{n} failed the double-annihilator test")
    return "Z/n quasi-Frobenius for n=2..64"


@_check("module-counting-laws")
def check_module_counting_laws(rings, _flags):
    count = 0
    for label, ring in _local(rings, 16):
        for name, m in _sample_modules(ring, include_sums=True):
            if m.cardinality * len(m.span) != ring.order**m.k:
                raise _Counterexample(f"{label} {name}: |M|*|span| != |R|^k")
            count += 1
    return f"{count} presentations counted"


@_check("hom-linearity")
def check_hom_sets_are_exactly_the_linear_maps(rings, _flags):
    pairs = 0
    for label, ring in _local(rings, 9):
        add, mul, _ = ring.tables()
        r = np.arange(ring.order)[:, None, None]
        mods = list(islice(_sample_modules(ring), 3))
        for _, m1 in mods:
            # positions of a + b for every pair (a, b) and of r * a for every (r, a)
            d1 = m1._digits
            sums = m1._locate(add[d1[:, None], d1[None]])
            scaled = m1._locate(mul[r, d1[None]])
            for _, m2 in mods:
                homs = hom_set(m1, m2)
                for h in homs:
                    d2 = m2._digits[h.table]  # the image of every element of m1
                    if (h.table[sums] != m2._locate(add[d2[:, None], d2[None]])).any():
                        raise _Counterexample(f"{label}: non-additive hom")
                    if (h.table[scaled] != m2._locate(mul[r, d2[None]])).any():
                        raise _Counterexample(f"{label}: non-equivariant hom")
                pairs += 1
    return f"{pairs} hom sets re-verified elementwise"


@_check("kernel-image-counts")
def check_kernel_image_counts(rings, _flags):
    checked = 0
    for label, ring in _local(rings, 9):
        mods = list(islice(_sample_modules(ring), 3))
        for _, m1 in mods:
            for _, m2 in mods:
                for h in hom_set(m1, m2):
                    ker, _ = kernel(h)
                    img, _ = image(h)
                    cok, _ = cokernel(h)
                    if ker.cardinality * img.cardinality != m1.cardinality:
                        raise _Counterexample(f"{label}: |ker|*|im| != |M|")
                    if cok.cardinality * img.cardinality != m2.cardinality:
                        raise _Counterexample(f"{label}: |coker| != |N|/|im|")
                    checked += 1
    return f"{checked} homs counted"


@_check("iso-equivalence")
def check_isomorphism_is_equivalence(rings, _flags):
    for label, ring in rings:
        if ring.order != 8 or not is_local(ring):
            continue
        mods = [m for _, m in _sample_modules(ring, include_sums=True)]
        n = len(mods)
        rel = [[is_isomorphic(mods[i], mods[j])[0] for j in range(n)] for i in range(n)]
        for i in range(n):
            if not rel[i][i]:
                raise _Counterexample(f"{label}: not reflexive")
            for j in range(n):
                if rel[i][j] != rel[j][i]:
                    raise _Counterexample(f"{label}: not symmetric")
                for k in range(n):
                    if rel[i][j] and rel[j][k] and not rel[i][k]:
                        raise _Counterexample(f"{label}: not transitive")
    return "reflexive, symmetric, transitive"


@_check("free-summand-split")
def check_free_summand_split(rings, _flags):
    checked = 0
    for label, ring in _local(rings, 9):
        if classify(ring).quasi_frobenius:
            for name, m in _sample_modules(ring, include_sums=True):
                rank, rest = free_summand_split(m)
                resum = rest
                for _ in range(rank):
                    resum = direct_sum(regular_module(ring), resum)
                ok, _ = is_isomorphic(resum, m)
                if not ok:
                    raise _Counterexample(f"{label} {name}: re-sum failed")
                if rest.free_element_mask().any():
                    raise _Counterexample(f"{label} {name}: complement has a free element")
                checked += 1
    return f"{checked} splits re-summed"


@_check("product-decomposition")
def check_product_decomposition(rings, _flags):
    checked = 0
    for label, ring in rings:
        if idempotent_decomposition(ring).is_trivial or ring.order > 64:
            continue
        for name, m in islice(_sample_modules(ring), 3):
            comps = decompose_over_product(m)  # verifies the re-sum internally
            size = 1
            for c in comps:
                size *= c.cardinality
            if size != m.cardinality:
                raise _Counterexample(f"{label} {name}: sizes disagree")
            checked += 1
    return f"{checked} modules decomposed"


@_check("resolution-exactness")
def check_resolution_exactness(rings, _flags):
    checked = 0
    for label, ring in _local(rings, 16):
        for name, m in _sample_modules(ring):
            res = free_resolution(m, 3)  # construction verifies im = ker per stage
            for i in range(len(res.differentials) - 1):
                pair = res.differentials
                composed_is_zero = all(
                    pair[i].apply(pair[i + 1].apply(el)) == pair[i].target.zero
                    for el in pair[i + 1].source.elements
                )
                if not composed_is_zero:
                    raise _Counterexample(f"{label} {name}: d.d != 0")
            checked += 1
    return f"{checked} resolutions verified"


@_check("qf-ext-vanishing")
def check_qf_ext_vanishing(rings, flags):
    checked = 0
    for label, ring in rings:
        if ring.order > 27:
            continue
        report = classify(ring)
        reg = regular_module(ring)
        if report.quasi_frobenius:
            for name, m in _sample_modules(ring):
                ext = ext1(m, reg)
                if not ext.is_zero:
                    raise _Counterexample(
                        f"{label} {name}: Ext^1(M, R) has order {ext.order}"
                    )
                checked += 1
    control = build_ring(parse_ring_spec(SQUARE_ZERO_PAIR), flags["guards"])
    ext = ext1(
        quotient_by_ideal(unique_maximal_ideal(control)),
        regular_module(control),
    )
    if ext.is_zero:
        raise _Counterexample("non-QF control has vanishing Ext^1(R/m, R)")
    return f"{checked} modules over QF rings; control Ext order {ext.order}"


@_check("sgp-witness-cardinality")
def check_sgp_witness_cardinality(rings, _flags):
    found = 0
    for label, ring in _local(rings, 27):
        for name, m in _sample_modules(ring):
            verdict = is_strongly_gorenstein_projective(m)
            if verdict.decision and verdict.witness is not None:
                if ring.order**verdict.witness.rank != m.cardinality**2:
                    raise _Counterexample(f"{label} {name}: |R|^n != |M|^2")
                found += 1
    return f"{found} witnesses satisfy |R|^n = |M|^2"


@_check("sgp-sum-closure")
def check_sgp_sum_closure(rings, _flags):
    checked = 0
    for label, ring in _local(rings, 9):
        sgps = []
        for name, m in _sample_modules(ring):
            if m.k <= 1 and is_strongly_gorenstein_projective(m).decision:
                sgps.append((name, m))
        for name1, m1 in sgps[:2]:
            for name2, m2 in sgps[:2]:
                rank = witness_rank(ring.order, (m1.cardinality * m2.cardinality) ** 2)
                if (ring.order**rank) ** (m1.k + m2.k) > 200_000:
                    continue  # witness search too wide for the suite's budget
                total = direct_sum(m1, m2)
                if not is_strongly_gorenstein_projective(total).decision:
                    raise _Counterexample(
                        f"{label}: {name1} + {name2} lost the SGP property"
                    )
                checked += 1
    return f"{checked} direct sums stayed SGP"


@_check("sgp-summand-asymmetry")
def check_sgp_summand_asymmetry(rings, flags):
    ring = build_ring(parse_ring_spec("Z/8"), flags["guards"])
    small = quotient_by_ideal(ideal_generated(ring, [2]))
    medium = quotient_by_ideal(ideal_generated(ring, [4]))
    total = direct_sum(small, medium)
    v_small = is_strongly_gorenstein_projective(small)
    v_medium = is_strongly_gorenstein_projective(medium)
    v_total = is_strongly_gorenstein_projective(total)
    ok = (
        not v_small.decision
        and v_small.obstruction.kind == "cardinality"
        and not v_medium.decision
        and v_total.decision
        and v_total.witness.rank == 2
    )
    if not ok:
        raise _Counterexample(
            f"Z/8: expected (False, False, True), got "
            f"({v_small.decision}, {v_medium.decision}, {v_total.decision})"
        )
    if not v_total.resolution.passed:
        raise _Counterexample("periodic resolution failed its checks")
    return "over Z/8 the sum is SGP while both summands are not"


def _local_principal_zero_divisor_ideals(ring):
    seen = set()
    for x in ring.elements:
        if unit_or_zero_divisor(ring, x) != "zero_divisor":
            continue
        ideal = ideal_generated(ring, [x])
        if ideal.bits in seen:
            continue
        seen.add(ideal.bits)
        yield x, ideal


@_check("cyclic-sgp-ideal-laws")
def check_cyclic_sgp_ideal_laws(rings, _flags):
    hits = 0
    for label, ring in _local(rings, 64):
        for x, ideal in _local_principal_zero_divisor_ideals(ring):
            mod, _ = ideal_as_module(ideal)
            if not is_strongly_gorenstein_projective(mod).decision:
                continue
            hits += 1
            ann = annihilator(ideal)
            ann_mod, _ = ideal_as_module(ann)
            if not is_isomorphic(ann_mod, mod)[0]:
                raise _Counterexample(f"{label}: Ann(xR) not isomorphic to xR for x={x!r}")
            if annihilator(ann).bits != ann.bits:
                raise _Counterexample(f"{label}: Ann(Ann(xR)) != Ann(xR) for x={x!r}")
    return f"{hits} cyclic SGP ideals satisfied both laws"


@_check("sgp-quotient-laws")
def check_sgp_quotient_laws(rings, _flags):
    hits = 0
    for label, ring in _local(rings, 64):
        principal = {ideal.bits for _, ideal in _local_principal_zero_divisor_ideals(ring)}
        for ideal in nonzero_proper_ideals(ring):
            if not is_strongly_gorenstein_projective(quotient_by_ideal(ideal)).decision:
                continue
            hits += 1
            if ideal.bits not in principal:
                raise _Counterexample(
                    f"{label}: R/I SGP but I not principal on a zero divisor"
                )
            mod, _ = ideal_as_module(ideal)
            if not is_strongly_gorenstein_projective(mod).decision:
                raise _Counterexample(f"{label}: R/I SGP but I itself is not")
    return f"{hits} SGP quotients had cyclic SGP kernels"


@_check("classification-chain")
def check_classification_chain(rings, _flags):
    for label, ring in rings:
        report = classify(ring)  # raises on a broken chain; re-assert anyway
        if report.semisimple and not report.sg_semisimple:
            raise _Counterexample(f"{label}: semisimple but not SG")
        if report.sg_semisimple and not report.quasi_frobenius:
            raise _Counterexample(f"{label}: SG but not quasi-Frobenius")
    return f"semisimple => SG-semisimple => QF on {len(rings)} rings"


@_check("sg-route-agreement")
def check_sg_route_agreement(rings, flags):
    fault = flags.get("inject_fault", False)
    checked = 0
    for label, ring in _local(rings, 64):
        ideal_route = len(nonzero_proper_ideals(ring)) <= 1
        if fault:
            ideal_route = not ideal_route  # harness self-test: one classifier negated
        # kept on the table owner: classification-chain has already decided these
        module_route = _residue_sgp_decision(table_owner(ring))
        if ideal_route != module_route:
            raise _Counterexample(
                f"counterexample {label}: ideal-count route says {ideal_route}, "
                f"residue-field SGP route says {module_route}"
            )
        checked += 1
    return f"{checked} local rings agree on both routes"


@_check("landmark-classifications")
def check_landmark_classifications(rings, flags):
    expected = [
        ("Z/4", False, True, True),
        ("Z/8", False, True, False),
        ("Z/9", False, True, True),
        ("Z/25", False, True, True),
        ("Z/27", False, True, False),
        ("Z/125", False, True, False),
        ("GF(2)[x]/(x^2)", False, True, True),
        ("GF(2)[x]/(x^3)", False, True, False),
        ("Z/12", False, True, True),
        ("Z/6", True, True, True),
        ("Z/5", True, True, True),
        (SQUARE_ZERO_PAIR, False, False, False),
    ]
    for text, ss, qf, sg in expected:
        report = classify(build_ring(parse_ring_spec(text), flags["guards"]))
        got = (report.semisimple, report.quasi_frobenius, report.sg_semisimple)
        if got != (ss, qf, sg):
            raise _Counterexample(f"{text}: expected {(ss, qf, sg)}, got {got}")
    return f"{len(expected)} landmark rings match"


def run_verification(
    catalog: str = "default",
    inject_fault: bool = False,
    guards: Guards | None = None,
) -> list:
    guards = guards or DEFAULT_GUARDS
    rings = list(catalog_rings(catalog, guards))
    flags = {"inject_fault": inject_fault, "guards": guards}
    results = []
    for check in CHECKS:
        try:
            results.append(check(rings, flags))
        except GuardExceeded:
            raise  # a resource limit, not a failed law: the caller reports it
        except FinringError as exc:
            results.append(CheckResult(check.report_name, False, f"internal error: {exc}"))
    return results
