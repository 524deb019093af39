import importlib

from finring.guards import Guards
from finring.verify import CHECKS, run_verification


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
