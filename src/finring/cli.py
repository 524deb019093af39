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
inputs give byte-identical output).

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


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# the command-line override of each guard; the lattice guard has none
GUARD_FLAGS = {
    "max_ring_order": "--max-ring-size",
    "max_module_raw": "--max-module-size",
    "max_hom_candidates": "--max-hom-enumeration",
}


def _guards(args):
    overrides = {
        guard: getattr(args, flag[2:].replace("-", "_"), None)
        for guard, flag in GUARD_FLAGS.items()
    }
    return DEFAULT_GUARDS.with_overrides(axiom_seed=getattr(args, "seed", None), **overrides)


def _ring(text: str, guards):
    """The ring of a spec text, kept for the process up to order 64."""
    return kept_ring(parse_ring_spec(text), guards)


def _literals(ring, el) -> list:
    """The element literals of the coordinates of ``el``, a tuple of ring indices."""
    return [format_element(ring, ring.elements[c]) for c in el]


def _fmt_free_element(free_module, el) -> str:
    parts = _literals(free_module.ring, el)
    return "(" + ",".join(parts) + ")" if len(parts) != 1 else parts[0]


def _ideal_summary(ideal) -> dict:
    return {
        "order": ideal.order,
        "generators": [format_element(ideal.ring, g) for g in ideal.generators],
    }


# ---------------------------------------------------------------------------
# classify


def _classification_payload(report, radical_literal) -> dict:
    certs = {
        "semisimple": None,
        "quasi_frobenius": None,
        "sg_semisimple": None,
    }
    if report.semisimple_certificate is not None:
        # certificate is a nonzero radical element of the ring itself
        certs["semisimple"] = radical_literal
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


def _run_classify(args) -> int:
    ring = _ring(args.spec, _guards(args))
    report = classify(ring)
    literal = (
        format_element(ring, report.semisimple_certificate)
        if report.semisimple_certificate is not None
        else None
    )
    payload = _classification_payload(report, literal)
    qf_cert = payload["certificates"]["quasi_frobenius"]
    lines = [
        f"ring {report.spec} (order {report.order})",
        f"local: {'yes' if report.is_local else 'no'}",
        "factors: "
        + "; ".join(
            f"order {f.order}, ideals {f.ideal_count}, maximal ideal order {f.max_ideal_order}"
            for f in report.factors
        ),
        f"semisimple: {'yes' if report.semisimple else 'no'}"
        + (f" (radical element {literal})" if literal else ""),
        f"quasi-Frobenius: {'yes' if report.quasi_frobenius else 'no'}"
        + (
            f" (ideal ({', '.join(qf_cert['ideal']['generators'])})"
            f" fails the double-annihilator test)"
            if qf_cert is not None
            else ""
        ),
        f"SG-semisimple: {'yes' if report.sg_semisimple else 'no'}"
        + (
            f" (factor {report.sg_certificate.factor_index} has nonzero proper ideals "
            f"of orders {report.sg_certificate.first.order} and "
            f"{report.sg_certificate.second.order})"
            if report.sg_certificate is not None
            else ""
        ),
    ]
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# ideals / decompose


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
    lines = [f"ring {ring.describe()} (order {ring.order}): {len(lattice)} ideals"]
    for ideal in lattice:
        gens = ", ".join(format_element(ring, g) for g in ideal.generators)
        lines.append(f"  order {ideal.order}: ({gens})")
    _emit(args, payload, lines)
    return 0


def _run_decompose(args) -> int:
    ring = _ring(args.spec, _guards(args))
    dec = idempotent_decomposition(ring)
    factors = [factor_summary(f) for f in dec.factor_rings]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": ring.describe(),
        "order": ring.order,
        "idempotents": [format_element(ring, e) for e in dec.idempotents],
        "factors": [asdict(f) for f in factors],
    }
    lines = [
        f"ring {ring.describe()} (order {ring.order}): "
        f"{len(dec.idempotents)} local factor(s)"
    ]
    for e, f in zip(dec.idempotents, factors):
        lines.append(
            f"  idempotent {format_element(ring, e)}: factor of order {f.order}, "
            f"{f.ideal_count} ideals"
        )
    _emit(args, payload, lines)
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
        payload["embedding"] = [
            _literals(ring, img) for img in verdict.witness.embedding.images
        ]
        payload["resolution"] = {
            "rank": verdict.witness.rank,
            "map": [_literals(ring, img) for img in verdict.periodic.images],
            # forward_exact, dual_exact, then the four orders, in field order
            **asdict(verdict.resolution),
        }
    if verdict.components is not None:
        payload["factors"] = [_verdict_payload(v) for v in verdict.components]
    return payload


def _run_module_sgp(args) -> int:
    ring = _ring(args.ring, _guards(args))
    module = Module(parse_presentation(ring, args.rel))
    verdict = is_strongly_gorenstein_projective(module)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "spec": ring.describe(),
        "presentation": args.rel,
        **_verdict_payload(verdict),
    }
    lines = [
        f"ring {ring.describe()}, module on {module.k} generator(s), "
        f"{module.cardinality} elements",
        f"strongly Gorenstein projective: {'yes' if verdict.decision else 'no'}",
    ]
    if verdict.witness is not None:
        w = verdict.witness
        images = ", ".join(
            f"g{j} -> {_fmt_free_element(w.embedding.target, img)}"
            for j, img in enumerate(w.embedding.images)
        )
        lines.append(f"witness rank: {w.rank}; embedding {images}")
        lines.append(f"Ext^1(M, R) order: {verdict.ext.order} ({EXT_NOTE})")
        rep = payload["resolution"]
        lines.append(
            f"periodic map on R^{w.rank}: image order {rep['image_order']} = "
            f"kernel order {rep['kernel_order']}; dual exact: "
            f"{'yes' if rep['dual_exact'] else 'no'}"
        )
    if verdict.obstruction is not None:
        obs = verdict.obstruction
        where = f" (factor {obs.factor})" if obs.factor is not None else ""
        lines.append(f"obstruction{where}: {obs.kind} -- {obs.detail}")
    if verdict.components is not None:
        for fi, sub in enumerate(verdict.components):
            lines.append(
                f"factor {fi}: sgp={'yes' if sub.decision else 'no'}"
                + (f", witness rank {sub.witness.rank}" if sub.witness else "")
            )
    _emit(args, payload, lines)
    return 0


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
        "differentials": [
            [_literals(ring, col) for col in d.images] for d in res.differentials
        ],
        "exact": True,
    }
    lines = [
        f"ring {ring.describe()}, module with {module.cardinality} elements",
        f"free resolution ranks: {', '.join(map(str, res.ranks))}",
    ]
    for i, d in enumerate(res.differentials, start=1):
        cols = "; ".join(_fmt_free_element(d.target, col) for col in d.images)
        lines.append(f"d{i} columns: {cols}")
    lines.append("exactness verified at every computed stage")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# verify-paper


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
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} -- {r.detail}" for r in results]
    lines.append(
        f"{'all checks passed' if all_passed else 'verification FAILED'} "
        f"({sum(r.passed for r in results)}/{len(results)})"
    )
    _emit(args, payload, lines)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(parser, handler: str):
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    for flag in (*GUARD_FLAGS.values(), "--seed"):
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
