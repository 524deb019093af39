"""What a ring or module keeps for its life: the ``rings.kept`` functions."""

import importlib
import inspect

import numpy as np
import pytest

from finring import homology, ideals, modules, rings
from finring.errors import GuardExceeded
from finring.guards import Guards
from finring.parsing import parse_ring_spec
from finring.rings import Zmod, build_ring

# the package exports the function classify, which hides the module
classify = importlib.import_module("finring.classify")


def _ring(text):
    return build_ring(parse_ring_spec(text))


def _module(text, k, columns):
    return modules.Module._on(_ring(text), k, np.array(columns))


# each kept function with a maker of a fresh argument for it
KEPT = {
    "units_mask": (rings.units_mask, lambda: _ring("Z/4 x Z/3")),
    "table_key": (rings._table_key, lambda: _ring("Z/8")),
    "ideal_bitsets": (ideals._bitsets, lambda: _ring("Z/8")),
    "ideal_lattice": (ideals.enumerate_ideals, lambda: _ring("Z/4 x Z/3")),
    "maximal_ideals": (ideals.maximal_ideals, lambda: _ring("Z/12")),
    "is_local": (ideals.is_local, lambda: _ring("Z/9")),
    "idempotent_decomposition": (ideals.idempotent_decomposition, lambda: _ring("Z/12")),
    "kills": (modules.Module.kill_counts, lambda: _module("Z/8", 2, [[2, 0], [0, 4]])),
    "minimal": (modules.minimal_generators, lambda: _module("Z/8", 2, [[2, 0]])),
    "components": (modules._components, lambda: _module("Z/4 x Z/3", 1, [[5]])),
    "free_modules": (modules._free_modules, lambda: _ring("Z/4")),
    "sgp": (
        homology.is_strongly_gorenstein_projective,
        lambda: _module("Z/8", 2, [[2, 0], [0, 4]]),
    ),
    "residue_sgp": (classify._residue_sgp_decision, lambda: rings.table_owner(_ring("GF(4)"))),
}

_ONCE = rings.kept("probe")(lambda obj: None).__code__


def test_every_kept_function_is_listed():
    found = {}
    for mod in (rings, ideals, modules, homology, classify):
        owners = [mod] + [c for c in vars(mod).values() if inspect.isclass(c)]
        for owner in owners:
            for fn in vars(owner).values():
                if getattr(fn, "__code__", None) is _ONCE:
                    found[inspect.getclosurevars(fn).nonlocals["key"]] = fn
    assert found == {key: fn for key, (fn, _) in KEPT.items()}


@pytest.mark.parametrize("key", sorted(KEPT))
def test_a_kept_value_lives_with_its_ring_or_module(key):
    fn, make = KEPT[key]
    obj = make()
    value = fn(obj)
    assert obj._cache[key] is value
    assert fn(obj) is value
    rings.new_request()  # a request drops request memos, not what is kept
    assert fn(obj) is value


def test_a_mirror_shares_its_bitsets_without_seeding_them():
    dec = ideals.idempotent_decomposition(_ring("Z/4 x Z/3"))
    for factor in dec.factor_rings:
        assert "ideal_bitsets" not in factor._cache
        assert ideals._bitsets(factor) is ideals._bitsets(factor.mirror)


@pytest.mark.parametrize(
    "key,fn,make,message",
    [
        (
            "ideal_lattice",
            ideals.enumerate_ideals,
            lambda: build_ring(Zmod(12), Guards(max_lattice_order=8)),
            "lattice guard",
        ),
        (
            "sgp",
            homology.is_strongly_gorenstein_projective,
            lambda: modules.Module._on(
                build_ring(Zmod(8), Guards(max_hom_candidates=3)), 2, np.array([[2, 0], [0, 4]])
            ),
            "hom enumeration would scan 45 candidates",
        ),
    ],
)
def test_a_call_that_raises_keeps_nothing(key, fn, make, message):
    obj = make()
    for _ in range(2):
        with pytest.raises(GuardExceeded, match=message):
            fn(obj)
        assert key not in obj._cache


def test_the_cache_names_the_benchmark_tracer_reads():
    # bench/tracer.py counts lattice builds by "ideal_lattice" in a ring's
    # _cache and table builds by Ring._tables; a product builds no table
    # of its own for its lattice
    ring = _ring("Z/4 x Z/3")
    assert "ideal_lattice" not in ring._cache
    ideals.enumerate_ideals(ring)
    assert "ideal_lattice" in ring._cache
    assert ring._tables is None
    tables = ring.tables()
    assert ring._tables is tables
