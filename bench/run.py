#!/usr/bin/env python3
"""finring benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a finring checkout.  The load is a closed loop: one
client, one process, no threads, requests one after another through
``finring.cli.main(argv + ["--json"])``.  Every pass is a fresh interpreter
(``child.py``), because finring keeps process-wide caches that a command-line
user never has warm.  A run makes ``--seconds // PASS_S`` passes over the
whole request list, each after a few interpreters that only import
``finring.cli`` (set-up time).

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates ``TRACED_ROUNDS`` untraced and traced passes and prints the
per-layer metrics.
Every output is checked against references that do not come from finring
(``oracles.py``) and, for the default seed, against the sha256 digests in
``digests.json``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads: verify-paper, module-ladder, ring-sweep (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES_PER_PASS = 2
# a run makes --seconds // PASS_S passes, whatever the load of the machine, so
# the median over passes depends on --seconds alone; a pass of any workload
# takes 10-13 s on a shared 2-vCPU Xeon virtual machine
PASS_S = 13
# a traced run alternates this many untraced and traced passes
TRACED_ROUNDS = 2
RUN_LIMIT_S = 170  # a run must end within 180 s
OUT_DIR = ROOT / ".bench_out"

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("decided_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

CHECK_LABELS = (
    "ring-axioms", "double-annihilator-containment", "ideal-lattice-fixpoint",
    "idempotent-splitting", "zmod-quasi-frobenius", "module-counting-laws",
    "hom-sets-are-exactly-the-linear-maps", "kernel-image-counts",
    "isomorphism-is-equivalence", "free-summand-split", "product-decomposition",
    "resolution-exactness", "qf-ext-vanishing", "sgp-witness-cardinality",
    "sgp-sum-closure", "sgp-summand-asymmetry", "cyclic-sgp-ideal-laws",
    "sgp-quotient-laws", "classification-chain", "sg-route-agreement",
    "landmark-classifications",
)


def _span(name, field):
    return lambda t: t["spans"].get(name, {}).get(field, 0)


def _count(name):
    return lambda t: t["counters"].get(name, 0)


def _ratio(num, den):
    return lambda t: (num(t) / den(t)) if den(t) else 0.0


def _layer(layer):
    return lambda t: t["layer_self_s"][layer]


# per-layer metric -> (unit, extractor over the traced pass summary)
PER_LAYER = {
    "rings.self_s": ("s", _layer("rings")),
    "rings.build_ring.self_s": ("s", _span("rings.build_ring", "self_s")),
    "rings.verify_ring_axioms.self_s": ("s", _span("rings.verify_ring_axioms", "self_s")),
    "rings.Ring.tables.self_s": ("s", _span("rings.Ring.tables", "self_s")),
    "rings.Ring.tables.builds": ("count", _count("rings.Ring.tables.builds")),
    "rings.Ring.tables.value_builds_over_64": (
        "count", _count("rings.Ring.tables.value_builds_over_64")),
    "rings.Ring.tables.value_build_s": (
        "s", lambda t: t["counters"].get("rings.Ring.tables.value_build_ns", 0) / 1e9),
    "ideals.self_s": ("s", _layer("ideals")),
    "ideals.enumerate_ideals.self_s": ("s", _span("ideals.enumerate_ideals", "self_s")),
    "ideals.enumerate_ideals.calls": ("count", _count("ideals.enumerate_ideals.calls")),
    "ideals.enumerate_ideals.rings": ("count", _count("ideals.enumerate_ideals.rings")),
    "ideals.enumerate_ideals.builds": ("count", _count("ideals.enumerate_ideals.builds")),
    "ideals.enumerate_ideals.trivial_factor_builds": (
        "count", _count("ideals.enumerate_ideals.trivial_factor_builds")),
    "ideals.idempotent_decomposition.self_s": (
        "s", _span("ideals.idempotent_decomposition", "self_s")),
    "ideals.is_local.self_s": ("s", _span("ideals.is_local", "self_s")),
    "modules.self_s": ("s", _layer("modules")),
    "modules.Module.self_s": ("s", _span("modules.Module", "self_s")),
    "modules.Module.calls": ("count", _count("modules.Module.calls")),
    "modules.Module.raw_tuples": ("count", _count("modules.Module.raw_tuples")),
    "modules.iter_homs.self_s": ("s", _span("modules.iter_homs", "self_s")),
    "modules.iter_homs.candidates": ("count", _count("modules.iter_homs.candidates")),
    "modules.iter_homs.yielded": ("count", _count("modules.iter_homs.yielded")),
    "modules.iter_homs.accept_ratio": ("ratio", _ratio(
        _count("modules.iter_homs.yielded"), _count("modules.iter_homs.candidates"))),
    "modules.submodule.self_s": ("s", _span("modules.submodule", "self_s")),
    "modules.submodule.raw_tuples": ("count", _count("modules.submodule.raw_tuples")),
    "modules.kernel.self_s": ("s", _span("modules.kernel", "self_s")),
    "modules.image.self_s": ("s", _span("modules.image", "self_s")),
    "modules.cokernel.self_s": ("s", _span("modules.cokernel", "self_s")),
    "modules.minimal_generators.self_s": ("s", _span("modules.minimal_generators", "self_s")),
    "modules.is_isomorphic.self_s": ("s", _span("modules.is_isomorphic", "self_s")),
    "modules.is_isomorphic.calls": ("count", _count("modules.is_isomorphic.calls")),
    "modules.is_isomorphic.found_ratio": ("ratio", _ratio(
        _count("modules.is_isomorphic.found"), _count("modules.is_isomorphic.calls"))),
    "modules.ModuleHom.self_s": ("s", _span("modules.ModuleHom", "self_s")),
    "modules.ModuleHom.calls": ("count", _count("modules.ModuleHom.calls")),
    "modules.decompose_over_product.self_s": (
        "s", _span("modules.decompose_over_product", "self_s")),
    "homology.self_s": ("s", _layer("homology")),
    "homology.free_resolution.self_s": ("s", _span("homology.free_resolution", "self_s")),
    "homology.free_resolution.calls": ("count", _count("homology.free_resolution.calls")),
    "homology.ext1.self_s": ("s", _span("homology.ext1", "self_s")),
    "homology.ext1.calls": ("count", _count("homology.ext1.calls")),
    "homology.find_sgp_witness.self_s": ("s", _span("homology.find_sgp_witness", "self_s")),
    "homology.find_sgp_witness.cokernels": (
        "count", _count("homology.find_sgp_witness.cokernels")),
    "homology.strongly_complete_resolution.self_s": (
        "s", _span("homology.strongly_complete_resolution", "self_s")),
    "homology.strongly_complete_resolution.calls": (
        "count", _count("homology.strongly_complete_resolution.calls")),
    "homology.check_complete_resolution.self_s": (
        "s", _span("homology.check_complete_resolution", "self_s")),
    "homology.check_complete_resolution.calls": (
        "count", _count("homology.check_complete_resolution.calls")),
    "homology.is_strongly_gorenstein_projective.self_s": (
        "s", _span("homology.is_strongly_gorenstein_projective", "self_s")),
    "classify.self_s": ("s", _layer("classify")),
    "classify.classify.self_s": ("s", _span("classify.classify", "self_s")),
    "classify.classify.calls": ("count", _count("classify.classify.calls")),
    "classify.residue_field_sgp.calls": ("count", _count("classify.residue_field_sgp.calls")),
    "verify.self_s": ("s", _layer("verify")),
    "verify.catalog_rings.s": ("s", _span("classify.catalog_rings", "s")),
    **{
        f"verify.check.{label}.s": ("s", _span(f"verify.check.{label}", "s"))
        for label in CHECK_LABELS
    },
    "parsing.self_s": ("s", _layer("parsing")),
    "parsing.parse_ring_spec.self_s": ("s", _span("parsing.parse_ring_spec", "self_s")),
    "parsing.parse_presentation.self_s": ("s", _span("parsing.parse_presentation", "self_s")),
    "parsing.format_element.self_s": ("s", _span("parsing.format_element", "self_s")),
    "parsing.format_element.calls": ("count", _count("parsing.format_element.calls")),
    "cli.self_s": ("s", _layer("cli")),
    "cli.main.self_s": ("s", _span("cli.main", "self_s")),
    "trace.spans": ("count", lambda t: t["span_count"]),
}
TRACE_OVERHEAD = ("trace.overhead_s", "s")
# per-layer metrics that only ring-sweep can move, since it alone builds tables
# above order 64 through value-level add/mul; they read 0 on every other
# workload, so only ring-sweep reports them and BENCHMARK.json, which does not
# list ring-sweep, leaves them out
RING_SWEEP_ONLY = ("rings.Ring.tables.value_builds_over_64", "rings.Ring.tables.value_build_s")


class BenchError(RuntimeError):
    pass


def require_checkout():
    cli = ROOT / "src" / "finring" / "cli.py"
    if not cli.is_file():
        raise BenchError(f"no finring sources at {cli.parent}; run from a finring checkout")


def run_child(job, deadline):
    """One fresh interpreter; returns its report plus the measured set-up time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("run deadline reached")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["setup_done"] - started
    return report


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_digests(workload, seed):
    """Digests captured for the default seed, or None for another seed."""
    if seed != DEFAULT_SEED:
        return None
    table = json.loads((BENCH / "digests.json").read_text())
    entry = table.get(workload)
    if entry is None or entry["seed"] != DEFAULT_SEED:
        raise BenchError(f"digests.json has no reference for {workload}")
    return entry["digests"]


class Checker:
    """Applies the oracles once per distinct output and tallies each pass."""

    def __init__(self, requests, digests):
        import oracles

        self.oracles = oracles
        self.requests = requests
        self.digests = digests
        self.verdicts = {}
        self.attempted = 0
        self.decided = 0
        self.problems = []
        self.guard_hits = set()

    def verdict(self, i, result):
        key = (i, result["code"], digest(result["stdout"]), result["traceback"] or "")
        if key not in self.verdicts:
            decided, problem = self.oracles.check(self.requests[i]["expect"], result)
            ref = self.digests[i] if self.digests else None
            if problem is None and decided and ref is not None and ref != key[2]:
                problem = "output differs byte-wise from the reference digest"
            self.verdicts[key] = (decided, problem)
        return self.verdicts[key]

    def tally(self, report):
        for i, result in enumerate(report["results"]):
            decided, problem = self.verdict(i, result)
            self.attempted += 1
            self.decided += decided
            if problem is not None:
                self.problems.append((i, problem))
            elif not decided:
                self.guard_hits.add(i)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_timings(passes):
    """Median over the passes of each pass's latency p50 and p90 (ms) and wall
    time (s).

    The speed of a shared machine drifts by 20-30% over seconds to minutes, so
    whole passes run fast or slow; the median of per-pass figures follows
    neither a lucky nor an unlucky pass.
    """
    per_pass = []
    for p in passes:
        latencies = [r["latency_ns"] / 1e6 for r in p["results"]]
        per_pass.append((percentile(latencies, 50), percentile(latencies, 90), sum(latencies) / 1e3))
    return tuple(statistics.median(column) for column in zip(*per_pass))


def run_plain(requests, planned, deadline, checker):
    argvs = [r["argv"] for r in requests]
    setups = []
    passes = []
    for _ in range(planned):
        # set-up probes are spread over the run, so one slow spell of the
        # machine does not decide the set-up figure
        for _ in range(SETUP_PROBES_PER_PASS):
            setups.append(run_child({"requests": []}, deadline)["setup_s"])
        report = run_child({"requests": argvs}, deadline)
        setups.append(report["setup_s"])
        checker.tally(report)
        passes.append(report)
    p50, p90, wall = pass_timings(passes)
    metrics = {
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "decided_ratio": checker.decided / checker.attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in passes),
    }
    notes = {
        "passes": len(passes),
        "latency_samples_per_pass": len(requests),
        "setup_samples": len(setups),
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, notes


def run_traced(requests, workload, seed, deadline, checker):
    """Untraced and traced passes in turn; per-layer metrics from the first
    traced pass, tracing overhead from the median wall time of each kind."""
    argvs = [r["argv"] for r in requests]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-{seed}.tsv"
    plain, traced = [], []
    for round_ in range(TRACED_ROUNDS):
        plain.append(run_child({"requests": argvs}, deadline))
        dump = str(spans_path) if round_ == 0 else None
        traced.append(run_child({"requests": argvs, "trace": True, "spans_path": dump}, deadline))
    reference = plain[0]["results"]
    for report in plain + traced:
        checker.tally(report)
        for i, (a, b) in enumerate(zip(reference, report["results"])):
            if (a["code"], a["stdout"]) != (b["code"], b["stdout"]):
                checker.problems.append((i, "output differs between untraced and traced passes"))
    summary = traced[0]["trace"]
    for report in traced:
        for problem in report["trace"]["problems"]:
            checker.problems.append((-1, f"tracer invariant: {problem}"))
    if workload == "verify-paper":
        missing = [c for c in CHECK_LABELS if f"verify.check.{c}" not in summary["spans"]]
        if missing:
            checker.problems.append((-1, f"checks not seen by the tracer: {missing}"))
    metrics = {
        name: (extract(summary), unit)
        for name, (unit, extract) in PER_LAYER.items()
        if workload == "ring-sweep" or name not in RING_SWEEP_ONLY
    }
    untraced_s = pass_timings(plain)[2]
    traced_s = pass_timings(traced)[2]
    metrics[TRACE_OVERHEAD[0]] = (traced_s - untraced_s, TRACE_OVERHEAD[1])
    notes = {
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, notes


def run(workload, seed, seconds, trace, digests=None):
    """Run one workload; returns the result line and the notes printed before it."""
    require_checkout()
    deadline = time.monotonic() + RUN_LIMIT_S
    requests = WORKLOADS[workload](seed)
    if digests is None:
        digests = reference_digests(workload, seed)
    checker = Checker(requests, digests)
    if trace:
        metrics, notes = run_traced(requests, workload, seed, deadline, checker)
    else:
        planned = max(1, int(seconds // PASS_S))
        metrics, notes = run_plain(requests, planned, deadline, checker)
    notes.update({
        "requests": len(requests),
        "attempted": checker.attempted,
        "error_ratio": len(checker.problems) / checker.attempted,
        "guard_hits": [" ".join(requests[i]["argv"][:-1]) for i in sorted(checker.guard_hits)],
        "problems": [
            (" ".join(requests[i]["argv"][:-1]) if i >= 0 else "trace") + ": " + p
            for i, p in checker.problems[:20]
        ],
    })
    line = {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": len(checker.problems),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return line, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=52)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
