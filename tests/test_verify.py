import importlib

from finring.classify import catalog_rings
from finring.guards import Guards
from finring.parsing import parse_ring_spec
from finring.verify import CHECKS, check_zmod_quasi_frobenius, run_verification


def test_quick_catalog_all_pass():
    results = run_verification("quick")
    assert len(results) == len(CHECKS)
    failing = [r for r in results if not r.passed]
    assert not failing, failing


def test_fault_injection_is_caught_and_named():
    results = run_verification("quick", inject_fault=True)
    failing = [r for r in results if not r.passed]
    assert len(failing) == 1
    assert failing[0].name == "sg-route-agreement"
    assert "counterexample" in failing[0].detail
    assert "Z/" in failing[0].detail  # names the offending ring


def test_zmod_check_builds_only_the_rings_the_catalog_lacks(monkeypatch):
    from finring import verify

    guards = Guards()
    rings = list(catalog_rings("quick", guards))
    built = []
    real = verify.build_ring

    def spy(spec, guards=None):
        built.append(spec)
        return real(spec, guards)

    monkeypatch.setattr(verify, "build_ring", spy)
    result = check_zmod_quasi_frobenius(rings, {"inject_fault": False, "guards": guards})
    assert result.passed and result.detail == "Z/n quasi-Frobenius for n=2..64"
    held = {label for label, _ in rings}
    assert "Z/8" in held and "Z/64" not in held
    assert built == [parse_ring_spec(f"Z/{n}") for n in range(2, 65) if f"Z/{n}" not in held]


def test_check_names_are_unique():
    results = run_verification("quick")
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def _with_parts(ring):
    yield ring
    for part in set(getattr(ring, "_parts", ())):
        yield from _with_parts(part)


def test_checks_build_every_ring_with_the_run_guards(monkeypatch):
    from finring import rings, verify

    classify = importlib.import_module("finring.classify")  # the package exports a function of that name
    built = []
    real = rings.build_ring

    def spy(spec, guards=None):
        ring = real(spec, guards)
        built.append(ring)
        return ring

    monkeypatch.setattr(verify, "build_ring", spy)
    monkeypatch.setattr(classify, "build_ring", spy)
    guards = Guards(axiom_seed=7)
    results = run_verification("quick", guards=guards)
    assert all(r.passed for r in results)
    # the catalog plus the rings the checks build themselves, Z/125 among them
    assert {"Z/125", "Z/8", "Z/64"} <= {r.describe() for r in built}
    assert all(part.guards == guards for ring in built for part in _with_parts(ring))


def test_internal_errors_keep_the_check_report_name(monkeypatch):
    from finring import verify
    from finring.errors import ConsistencyError

    def boom(*_args, **_kwargs):
        raise ConsistencyError("boom")

    monkeypatch.setattr(verify, "hom_set", boom)
    monkeypatch.setattr(verify, "is_isomorphic", boom)
    reported = [(r.name, r.passed, r.detail) for r in run_verification("quick")]
    assert ("hom-linearity", False, "internal error: boom") in reported
    assert ("iso-equivalence", False, "internal error: boom") in reported


def test_checks_are_declared_once_in_report_order():
    # each check joins CHECKS where it is defined, so the run order is the
    # definition order
    assert [c.report_name for c in CHECKS] == [
        "ring-axioms",
        "double-annihilator-containment",
        "ideal-lattice-fixpoint",
        "idempotent-splitting",
        "zmod-quasi-frobenius",
        "module-counting-laws",
        "hom-linearity",
        "kernel-image-counts",
        "iso-equivalence",
        "free-summand-split",
        "product-decomposition",
        "resolution-exactness",
        "qf-ext-vanishing",
        "sgp-witness-cardinality",
        "sgp-sum-closure",
        "sgp-summand-asymmetry",
        "cyclic-sgp-ideal-laws",
        "sgp-quotient-laws",
        "classification-chain",
        "sg-route-agreement",
        "landmark-classifications",
    ]


def test_verify_paper_builds_each_derived_module_once_per_ring(monkeypatch):
    # the default catalog derives about 4,500 modules over 1,336 distinct
    # (ring, presentation) pairs; each ring keeps the modules it derives
    from finring.modules import Module

    builds = []
    build = Module._build

    def spy(self, *args):
        builds.append(1)
        return build(self, *args)

    monkeypatch.setattr(Module, "_build", spy)
    results = run_verification("default")
    assert all(r.passed for r in results)
    assert len(builds) <= 1400
