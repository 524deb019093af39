"""Command-line front end.

Commands::

    finring classify SPEC
    finring ideals SPEC
    finring decompose SPEC
    finring module sgp --ring SPEC --rel MATRIX
    finring resolve --ring SPEC --rel MATRIX --length N
    finring verify-paper [--catalog NAME] [--inject-fault]

Exit codes: 0 success, 1 property violation / negative verification (or
an internal consistency failure, printed as one ``internal error:`` line),
2 parse error, 3 guard exceeded.  ``--json`` switches every command to a
stable JSON report (fixed key order, canonical element literals, so equal
inputs give byte-identical output).  Each handler builds its report once:
``--json`` prints it, and text mode renders the same report through the
command's ``_*_text`` renderer, apart from the module's size in the first
line of ``module sgp`` and ``resolve``, which is no report key.

``main`` may serve many requests in one process, one at a time.  Its rings
come from ``rings.kept_ring``: up to order 64 one per spec and guards for
the process, with what their tables determine (lattice, split, free
modules, the residue field's SGP verdict).  Each request starts with
``rings.new_request()``, which drops the derived modules and Ext^1 results
of the one before, so serving many presentations does not grow the process.

A serving process must run the cyclic collector between requests, since
rings keep their caches in reference cycles.  So the first
``build_parser()`` call, which ``main`` makes before its first request,
ends with ``gc.freeze()``: what the process holds by then (numpy, argparse,
finring's modules, the parser) moves to the permanent generation, and no
later collection walks it.  This happens once per process, never on
``import finring`` and never per request, since a request's memos hold
cycles that a freeze would keep for ever.  A host that calls ``main`` in
process has its own live objects frozen with them at that first build: a
reference cycle among those is never collected.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from dataclasses import asdict

from .classify import classify, factor_summary
from .errors import (
    ConsistencyError,
    GuardExceeded,
    NonLocalRingError,
    ParseError,
    PreconditionError,
    RingMismatchError,
    ValidationError,
)
from .guards import DEFAULT_GUARDS
from .homology import free_resolution, is_strongly_gorenstein_projective
from .ideals import enumerate_ideals, idempotent_decomposition
from .modules import Module
from .parsing import format_element, parse_presentation, parse_ring_spec
from .rings import kept_ring, new_request
from .verify import run_verification

SCHEMA_VERSION = 1

EXT_NOTE = (
    "Ext^1 tested against R only: out of a finitely presented module it "
    "commutes with the finite direct sums that reach every projective here"
)


def _emit(args, report: dict, render, *context) -> None:
    """Print ``report`` as JSON, or the text lines ``render(report, *context)``
    makes of it; a ``--json`` request renders nothing."""
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in render(report, *context):
            print(line)


# the command-line override of each guard; the lattice guard has none
GUARD_FLAGS = {
    "max_ring_order": "--max-ring-size",
    "max_module_raw": "--max-module-size",
    "max_hom_candidates": "--max-hom-enumeration",
}


def _guards(args):
    return DEFAULT_GUARDS.with_overrides(
        **{guard: getattr(args, flag[2:].replace("-", "_")) for guard, flag in GUARD_FLAGS.items()}
    )


def _ring(text: str, guards):
    """The ring of a spec text, kept for the process up to order 64."""
    return kept_ring(parse_ring_spec(text), guards)


def _literals(ring, el) -> list:
    """The element literals of the coordinates of ``el``, a tuple of ring indices."""
    return [format_element(ring, ring.elements[c]) for c in el]


def _tuple_text(literals: list) -> str:
    """A free-module element's text from its coordinate literals."""
    return literals[0] if len(literals) == 1 else "(" + ",".join(literals) + ")"


def _yes(flag) -> str:
    return "yes" if flag else "no"


def _ideal_summary(ideal) -> dict:
    return {
        "order": ideal.order,
        "generators": [format_element(ideal.ring, g) for g in ideal.generators],
    }


# ---------------------------------------------------------------------------
# classify


def _classification_payload(ring, report) -> dict:
    certs = {"semisimple": None, "quasi_frobenius": None, "sg_semisimple": None}
    if report.semisimple_certificate is not None:
        # certificate is a nonzero radical element of the ring itself
        certs["semisimple"] = format_element(ring, report.semisimple_certificate)
    if report.qf_certificate is not None:
        certs["quasi_frobenius"] = {"ideal": _ideal_summary(report.qf_certificate)}
    if report.sg_certificate is not None:
        cert = report.sg_certificate
        certs["sg_semisimple"] = {
            "factor": cert.factor_index,
            "ideals": [_ideal_summary(cert.first), _ideal_summary(cert.second)],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": report.spec,
        "order": report.order,
        "local": report.is_local,
        "factors": [asdict(f) for f in report.factors],
        "semisimple": report.semisimple,
        "quasi_frobenius": report.quasi_frobenius,
        "sg_semisimple": report.sg_semisimple,
        "certificates": certs,
    }


def _classify_text(p: dict):
    certs = p["certificates"]
    ss, qf, sg = certs["semisimple"], certs["quasi_frobenius"], certs["sg_semisimple"]
    yield f"ring {p['spec']} (order {p['order']})"
    yield f"local: {_yes(p['local'])}"
    yield "factors: " + "; ".join(
        f"order {f['order']}, ideals {f['ideal_count']}, maximal ideal order {f['max_ideal_order']}"
        for f in p["factors"]
    )
    yield f"semisimple: {_yes(p['semisimple'])}" + (f" (radical element {ss})" if ss else "")
    yield f"quasi-Frobenius: {_yes(p['quasi_frobenius'])}" + (
        f" (ideal ({', '.join(qf['ideal']['generators'])}) fails the double-annihilator test)"
        if qf is not None
        else ""
    )
    yield f"SG-semisimple: {_yes(p['sg_semisimple'])}" + (
        f" (factor {sg['factor']} has nonzero proper ideals "
        f"of orders {sg['ideals'][0]['order']} and {sg['ideals'][1]['order']})"
        if sg is not None
        else ""
    )


def _run_classify(args) -> int:
    ring = _ring(args.spec, _guards(args))
    _emit(args, _classification_payload(ring, classify(ring)), _classify_text)
    return 0


# ---------------------------------------------------------------------------
# ideals / decompose


def _ideals_text(p: dict):
    yield f"ring {p['spec']} (order {p['order']}): {p['count']} ideals"
    for ideal in p["ideals"]:
        yield f"  order {ideal['order']}: ({', '.join(ideal['generators'])})"


def _run_ideals(args) -> int:
    ring = _ring(args.spec, _guards(args))
    lattice = enumerate_ideals(ring)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": ring.describe(),
        "order": ring.order,
        "count": len(lattice),
        "ideals": [
            {
                **_ideal_summary(ideal),
                "elements": [format_element(ring, v) for v in ideal.sorted_elements()],
            }
            for ideal in lattice
        ],
    }
    _emit(args, payload, _ideals_text)
    return 0


def _decompose_text(p: dict):
    yield f"ring {p['spec']} (order {p['order']}): {len(p['idempotents'])} local factor(s)"
    for e, f in zip(p["idempotents"], p["factors"]):
        yield f"  idempotent {e}: factor of order {f['order']}, {f['ideal_count']} ideals"


def _run_decompose(args) -> int:
    ring = _ring(args.spec, _guards(args))
    dec = idempotent_decomposition(ring)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": ring.describe(),
        "order": ring.order,
        "idempotents": [format_element(ring, e) for e in dec.idempotents],
        "factors": [asdict(factor_summary(f)) for f in dec.factor_rings],
    }
    _emit(args, payload, _decompose_text)
    return 0


# ---------------------------------------------------------------------------
# module sgp / resolve


def _verdict_payload(verdict) -> dict:
    """JSON fields of a verdict, with the periodic resolution it holds."""
    payload = {
        "sgp": verdict.decision,
        "rank": verdict.witness.rank if verdict.witness else None,
        "embedding": None,
        "obstruction": verdict.obstruction.kind if verdict.obstruction else None,
        "obstruction_detail": verdict.obstruction.detail if verdict.obstruction else None,
        "ext1_order": verdict.ext.order if verdict.ext else None,
        "ext1_test_object": "R",
        "ext1_note": EXT_NOTE,
    }
    if verdict.witness is not None:
        ring = verdict.module.ring
        payload["embedding"] = [_literals(ring, img) for img in verdict.witness.embedding.images]
        payload["resolution"] = {
            "rank": verdict.witness.rank,
            "map": [_literals(ring, img) for img in verdict.periodic.images],
            # forward_exact, dual_exact, then the four orders, in field order
            **asdict(verdict.resolution),
        }
    if verdict.components is not None:
        payload["factors"] = [_verdict_payload(v) for v in verdict.components]
    return payload


def _module_sgp_text(p: dict, module):
    # the module's size, here and in resolve's first line, is no report key
    yield f"ring {p['spec']}, module on {module.k} generator(s), {module.cardinality} elements"
    yield f"strongly Gorenstein projective: {_yes(p['sgp'])}"
    if p["embedding"] is not None:
        images = ", ".join(f"g{j} -> {_tuple_text(img)}" for j, img in enumerate(p["embedding"]))
        yield f"witness rank: {p['rank']}; embedding {images}".rstrip()
        yield f"Ext^1(M, R) order: {p['ext1_order']} ({p['ext1_note']})"
        rep = p["resolution"]
        yield (
            f"periodic map on R^{rep['rank']}: image order {rep['image_order']} = "
            f"kernel order {rep['kernel_order']}; dual exact: {_yes(rep['dual_exact'])}"
        )
    factors = p.get("factors")
    if p["obstruction"] is not None:
        # a product's verdict takes the obstruction of its first negative factor
        where = "" if factors is None else f" (factor {[f['sgp'] for f in factors].index(False)})"
        yield f"obstruction{where}: {p['obstruction']} -- {p['obstruction_detail']}"
    for fi, f in enumerate(factors or ()):
        rank = f", witness rank {f['rank']}" if f["rank"] is not None else ""
        yield f"factor {fi}: sgp={_yes(f['sgp'])}{rank}"


def _run_module_sgp(args) -> int:
    ring = _ring(args.ring, _guards(args))
    module = Module(parse_presentation(ring, args.rel))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": ring.describe(),
        "presentation": args.rel,
        **_verdict_payload(is_strongly_gorenstein_projective(module)),
    }
    _emit(args, payload, _module_sgp_text, module)
    return 0


def _resolve_text(p: dict, module):
    yield f"ring {p['spec']}, module with {module.cardinality} elements"
    yield f"free resolution ranks: {', '.join(map(str, p['ranks']))}"
    for i, d in enumerate(p["differentials"], start=1):
        yield f"d{i} columns: {'; '.join(map(_tuple_text, d))}".rstrip()
    yield "exactness verified at every computed stage"


def _run_resolve(args) -> int:
    ring = _ring(args.ring, _guards(args))
    module = Module(parse_presentation(ring, args.rel))
    res = free_resolution(module, args.length)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": ring.describe(),
        "presentation": args.rel,
        "length": res.length,
        "ranks": list(res.ranks),
        "differentials": [[_literals(ring, col) for col in d.images] for d in res.differentials],
        "exact": True,
    }
    _emit(args, payload, _resolve_text, module)
    return 0


# ---------------------------------------------------------------------------
# verify-paper


def _verify_text(p: dict):
    checks = p["checks"]
    for c in checks:
        yield f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} -- {c['detail']}"
    yield (
        f"{'all checks passed' if p['all_passed'] else 'verification FAILED'} "
        f"({sum(c['passed'] for c in checks)}/{len(checks)})"
    )


def _run_verify(args) -> int:
    results = run_verification(
        catalog=args.catalog, inject_fault=args.inject_fault, guards=_guards(args)
    )
    all_passed = all(r.passed for r in results)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "catalog": args.catalog,
        "fault_injected": args.inject_fault,
        "all_passed": all_passed,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    _emit(args, payload, _verify_text)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser, handler: str):
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    for flag in GUARD_FLAGS.values():
        parser.add_argument(flag, type=int, metavar="N")
    # the handler's name, looked up when main dispatches: the cached parser
    # must not hold a function that a later caller replaces on this module
    parser.set_defaults(handler=handler)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and shared by every
    later call and by ``main``: callers must treat it as read-only.  The
    first call also freezes the start-up heap (``gc.freeze()``)."""
    parser = argparse.ArgumentParser(
        prog="finring",
        description="finite commutative rings: ideals, witnesses, classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a ring")
    p.add_argument("spec")
    _add_common(p, "_run_classify")

    p = sub.add_parser("ideals", help="enumerate the ideal lattice")
    p.add_argument("spec")
    _add_common(p, "_run_ideals")

    p = sub.add_parser("decompose", help="split into local factors")
    p.add_argument("spec")
    _add_common(p, "_run_decompose")

    p = sub.add_parser("module", help="module-level checks")
    msub = p.add_subparsers(dest="module_command", required=True)
    sgp = msub.add_parser("sgp", help="strongly-Gorenstein-projective decision")
    sgp.add_argument("--ring", required=True)
    sgp.add_argument("--rel", required=True, help="presentation matrix")
    _add_common(sgp, "_run_module_sgp")

    p = sub.add_parser("resolve", help="free resolution of a presented module")
    p.add_argument("--ring", required=True)
    p.add_argument("--rel", required=True)
    p.add_argument("--length", type=int, default=3)
    _add_common(p, "_run_resolve")

    p = sub.add_parser("verify-paper", help="run the theorem-verification suite")
    p.add_argument("--catalog", default="default", choices=["default", "quick"])
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="negate one classifier route; the suite must then fail (self-test)",
    )
    # accepted and ignored: bench/workloads.py passes it on the held-out seed
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    _add_common(p, "_run_verify")
    gc.freeze()  # once per process: see the module docstring
    return parser


def main(argv=None) -> int:
    """Run one request and return its exit code; may be called repeatedly in
    one process.  An argv that argparse rejects raises ``SystemExit(2)``."""
    args = build_parser().parse_args(argv)
    new_request()
    try:
        return globals()[args.handler](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, NonLocalRingError, PreconditionError, RingMismatchError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        flag = GUARD_FLAGS.get(exc.guard)
        hint = f"raise it with {flag}" if flag else "this guard has no override flag"
        print(f"guard exceeded: {exc}; {hint}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so the interpreter's
        # shutdown flush cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
