"""A closed-form oracle for modules over Z/p^k, computed outside finring.

As an abelian group, M = R^g / (columns of A) over R = Z/p^k is Z^g modulo
the columns of A and of p^k * I, so the Smith normal form of [A | p^k * I]
has diagonal p^a_1, ..., p^a_g and M = sum R/p^a_i R.  R is a chain ring of
length k, so:

* |M| = p^(sum a_i), and M needs #{a_i > 0} generators;
* the syzygy of R/p^a is p^a R = R/p^(k - a), so a minimal free resolution
  has ranks (#{a_i > 0}, t, t) with t = #{0 < a_i < k};
* M is strongly Gorenstein projective iff the multiset of its non-free,
  nonzero exponents is invariant under a -> k - a.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring.errors import GuardExceeded
from finring.homology import free_resolution, is_strongly_gorenstein_projective
from finring.modules import Module, Presentation, minimal_generators
from finring.parsing import parse_ring_spec
from finring.rings import build_ring

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form  # noqa: E402

_CHAIN_RINGS = {
    (p, k): build_ring(parse_ring_spec(f"Z/{p**k}")) for p, k in ((2, 2), (2, 3), (3, 2), (3, 3))
}


def _exponents(p, k, g, cols):
    """a_i with M = sum R/p^a_i R, one per generator."""
    q = p**k
    rows = [[c[i] for c in cols] + [q * (i == j) for j in range(g)] for i in range(g)]
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    return sorted(sympy.multiplicity(p, abs(int(snf[i, i]))) for i in range(g))


@st.composite
def _chain_presentations(draw):
    p, k = draw(st.sampled_from(sorted(_CHAIN_RINGS)))
    g = draw(st.integers(1, 3))
    entry = st.integers(0, p**k - 1)
    cols = draw(st.lists(st.tuples(*[entry] * g), max_size=3))
    return p, k, g, cols


@settings(max_examples=60, deadline=None)
@given(_chain_presentations())
def test_modules_over_zpk_match_the_smith_form(pres):
    p, k, g, cols = pres
    exps = _exponents(p, k, g, cols)
    nonzero = [a for a in exps if a > 0]
    nonfree = [a for a in nonzero if a < k]
    m = Module(Presentation(_CHAIN_RINGS[p, k], g, tuple(cols)))
    assert m.cardinality == p ** sum(exps)
    assert minimal_generators(m)[0] == len(nonzero)
    assert free_resolution(m, 3).ranks == (len(nonzero), len(nonfree), len(nonfree))
    try:
        verdict = is_strongly_gorenstein_projective(m)
    except GuardExceeded:
        return  # outside the search's reach; the counts above still hold
    assert verdict.decision == (sorted(nonfree) == sorted(k - a for a in nonfree))
