"""Outside-in span tracer for finring.

``install()`` wraps, from outside the package, the public functions of every
loaded ``finring.*`` module, the entries of ``verify.CHECKS`` and the methods
``Ring.tables``, ``Module.__init__`` and ``ModuleHom.__init__``.  Every call
becomes a span (name, start, end, parent span, request id); a generator gets
one span per resume, because callers often stop it early.  Spans are kept in
memory in flat arrays and summarised, or written out, when the run ends.

Per-element arithmetic (``Ring.add``/``mul``, ``Module.add``/``scal``) is
deliberately left unwrapped: it runs millions of times and its cost stays in
the self time of the enclosing span.

Nothing inside finring is edited; references are rebound in every loaded
module, so ``from .modules import kernel`` callers see the wrapper too.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from array import array
from collections import Counter

LAYERS = ("rings", "ideals", "modules", "homology", "classify", "verify", "parsing", "cli")

# functions whose metrics the benchmark reports; install() fails if one is gone
REQUIRED = {
    "rings": ("build_ring", "verify_ring_axioms"),
    "ideals": ("enumerate_ideals", "idempotent_decomposition", "is_local"),
    "modules": (
        "iter_homs",
        "submodule",
        "kernel",
        "image",
        "cokernel",
        "minimal_generators",
        "is_isomorphic",
        "decompose_over_product",
    ),
    "homology": (
        "free_resolution",
        "ext1",
        "find_sgp_witness",
        "strongly_complete_resolution",
        "check_complete_resolution",
        "is_strongly_gorenstein_projective",
    ),
    "classify": ("classify", "residue_field_sgp", "catalog_rings"),
    "verify": ("run_verification",),
    "parsing": ("parse_ring_spec", "parse_presentation", "format_element"),
    "cli": ("main",),
}
METHODS = (
    ("rings", "Ring", "tables"),
    ("modules", "Module", "__init__"),
    ("modules", "ModuleHom", "__init__"),
)
# public but per-element: wrapping would only add overhead to the caller
UNWRAPPED = {("rings", "arithmetic")}
# verify.CHECKS holds 21 checks; spans are named after run_verification's labels
EXPECTED_CHECKS = 21


def check_label(fn) -> str:
    """The name ``run_verification`` reports for a check function."""
    return fn.__name__.removeprefix("check_").replace("_", "-")


class TraceError(RuntimeError):
    """The traced program no longer has a function the benchmark measures,
    or a recorded span breaks the nesting invariants."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in start order
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.child_ns = array("q")
        self._stack: list[int] = []
        self.current_request = -1
        self.counters: Counter = Counter()
        self._lattice_rings: weakref.WeakSet = weakref.WeakSet()
        self._base_build_tables = None

    # -- spans ----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.child_ns.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        now = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise TraceError("span stack out of order")
        self.end[idx] = now
        parent = self.parent[idx]
        if parent >= 0:
            self.child_ns[parent] += now - self.start[idx]

    # -- wrappers -------------------------------------------------------------

    def _wrap_call(self, name, fn, after=None, before=None):
        nid = self.name_id(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            state = before(args) if before else None
            idx = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after:
                after(state, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn, on_close=None):
        nid = self.name_id(name)
        counters = self.counters

        def resumes(gen, args):
            yielded = 0
            last = None
            exhausted = False
            try:
                while True:
                    idx = self._enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        exhausted = True
                        return
                    finally:
                        self._exit(idx)
                    yielded += 1
                    last = item
                    yield item
            finally:
                gen.close()
                counters[name + ".yielded"] += yielded
                if on_close:
                    on_close(args, yielded, last, exhausted)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name + ".calls"] += 1
            return resumes(fn(*args, **kwargs), args)

        return wrapper

    # -- counters taken at layer boundaries ------------------------------------

    def _after_module(self, _state, args, _result):
        module = args[0]
        self.counters["modules.Module.raw_tuples"] += module.ring.order**module.k

    def _after_submodule(self, _state, args, result):
        ring = args[0].ring
        self.counters["modules.submodule.raw_tuples"] += ring.order ** result[0].k

    def _after_is_isomorphic(self, _state, _args, result):
        self.counters["modules.is_isomorphic.found"] += bool(result[0])

    def _before_tables(self, args):
        return time.perf_counter_ns() if args[0]._tables is None else None

    def _after_tables(self, build_start, args, _result):
        if build_start is None:
            return
        ring = args[0]
        self.counters["rings.Ring.tables.builds"] += 1
        if ring.order > 64 and type(ring)._build_tables is self._base_build_tables:
            # the generic builder calls Python add/mul on values for every pair
            self.counters["rings.Ring.tables.value_builds_over_64"] += 1
            self.counters["rings.Ring.tables.value_build_ns"] += (
                time.perf_counter_ns() - build_start
            )

    def _before_lattice(self, args):
        ring = args[0]
        if ring not in self._lattice_rings:
            self._lattice_rings.add(ring)
            self.counters["ideals.enumerate_ideals.rings"] += 1
        return "ideal_lattice" not in ring._cache

    def _after_lattice(self, was_missing, args, _result):
        if not was_missing:
            return
        ring = args[0]
        self.counters["ideals.enumerate_ideals.builds"] += 1
        parent = getattr(ring, "parent", None)
        if parent is not None and parent.order == ring.order:
            # the single factor of a local ring: a second copy of its lattice
            self.counters["ideals.enumerate_ideals.trivial_factor_builds"] += 1

    def _close_iter_homs(self, args, _yielded, last, exhausted):
        source, target = args[0], args[1]
        space = target.cardinality**source.k
        if exhausted:
            scanned = space
        elif last is None:
            scanned = 0
        else:
            # candidates run in lexicographic order of generator-image tuples
            scanned = 0
            for im in last.images:
                scanned = scanned * target.cardinality + target.index[im]
            scanned += 1
        self.counters["modules.iter_homs.candidates"] += scanned

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind; raise TraceError if a measured function is missing."""
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("finring.") and mod is not None
        }
        missing = [layer for layer in LAYERS if layer not in mods]
        if missing:
            raise TraceError(f"finring modules not loaded: {missing}")
        self._base_build_tables = mods["rings"].Ring._build_tables

        for layer, names in REQUIRED.items():
            for fname in names:
                fn = getattr(mods[layer], fname, None)
                if not inspect.isfunction(fn):
                    raise TraceError(f"finring.{layer}.{fname} no longer exists")

        checks = mods["verify"].CHECKS
        if len(checks) != EXPECTED_CHECKS:
            raise TraceError(f"verify.CHECKS has {len(checks)} entries, not {EXPECTED_CHECKS}")

        # span name -> (after, before) hooks that take counts at the boundary
        hooks = {
            "modules.submodule": (self._after_submodule, None),
            "modules.is_isomorphic": (self._after_is_isomorphic, None),
            "ideals.enumerate_ideals": (self._after_lattice, self._before_lattice),
            "rings.Ring.tables": (self._after_tables, self._before_tables),
            "modules.Module": (self._after_module, None),
        }
        replacements = {}
        for layer in LAYERS:
            mod = mods[layer]
            for fname, fn in list(vars(mod).items()):
                if (
                    fname.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or (layer, fname) in UNWRAPPED
                ):
                    continue
                name = f"{layer}.{fname}"
                if fn in checks:
                    name = f"verify.check.{check_label(fn)}"
                if inspect.isgeneratorfunction(fn):
                    on_close = self._close_iter_homs if name == "modules.iter_homs" else None
                    replacements[fn] = self._wrap_generator(name, fn, on_close)
                else:
                    replacements[fn] = self._wrap_call(name, fn, *hooks.get(name, ()))
        missing_checks = [c for c in checks if c not in replacements]
        if missing_checks:
            raise TraceError(f"checks outside finring.verify: {missing_checks}")

        # rebind every reference to a wrapped function object
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("finring"):
                continue
            for key, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(mod, key, replacements[value])
        checks[:] = [replacements[c] for c in checks]

        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if not inspect.isfunction(fn):
                raise TraceError(f"finring.{layer}.{cls_name}.{meth} no longer exists")
            name = f"{layer}.{cls_name}" if meth == "__init__" else f"{layer}.{cls_name}.{meth}"
            setattr(cls, meth, self._wrap_call(name, fn, *hooks.get(name, ())))

    # -- results --------------------------------------------------------------

    def check_invariants(self, latencies_ns: dict) -> list:
        """Problems found: child time above parent time, or a request whose
        summed self time exceeds its traced latency."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans never closed")
        self_by_request: Counter = Counter()
        for i in range(len(self.name)):
            dur = self.end[i] - self.start[i]
            if self.child_ns[i] > dur:
                problems.append(
                    f"span {self.names[self.name[i]]} #{i}: child time "
                    f"{self.child_ns[i]} ns > span time {dur} ns"
                )
            self_by_request[self.request[i]] += dur - self.child_ns[i]
        for req, total in self_by_request.items():
            if req not in latencies_ns:
                problems.append(f"span outside any request (request id {req})")
            elif total > latencies_ns[req]:
                problems.append(
                    f"request {req}: self times sum to {total} ns > latency {latencies_ns[req]} ns"
                )
        return problems[:20]

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus counters and
        the number of modules.cokernel spans opened directly by the witness search."""
        incl: Counter = Counter()
        excl: Counter = Counter()
        layer_self: Counter = Counter()
        witness = self._name_ids.get("homology.find_sgp_witness", -2)
        coker = self._name_ids.get("modules.cokernel", -2)
        cokernels = 0
        for i in range(len(self.name)):
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            incl[nid] += dur
            excl[nid] += dur - self.child_ns[i]
            if nid == coker and self.parent[i] >= 0 and self.name[self.parent[i]] == witness:
                cokernels += 1
        spans = {}
        for nid, name in enumerate(self.names):
            spans[name] = {
                "calls": self.counters.get(name + ".calls", 0),
                "s": incl[nid] / 1e9,
                "self_s": excl[nid] / 1e9,
            }
            layer_self[name.split(".", 1)[0]] += excl[nid]
        counters = dict(self.counters)
        counters["homology.find_sgp_witness.cokernels"] = cokernels
        return {
            "spans": spans,
            "counters": counters,
            "layer_self_s": {layer: layer_self[layer] / 1e9 for layer in LAYERS},
            "span_count": len(self.name),
        }

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{self.request[i]}\t{i}\t{self.parent[i]}\t"
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )
