"""Seeded request lists for the three benchmark workloads.

Each request is an argv for ``finring.cli.main`` plus an ``expect`` record
that ``oracles.py`` checks the output against.  Inputs depend only on the
workload name and the seed; finring sees nothing but the generated argv.

Why these workloads:

* ``verify-paper`` runs every layer on thousands of small objects, so
  per-object overhead dominates.
* ``module-ladder`` runs few, large modules over local chain rings: hom
  enumeration, the witness search, cokernels, isomorphism tests and syzygy
  relation search do the work; rings and ideals do almost none.  It keeps
  the two cases that hit the hom guard today, so deciding more inputs shows
  in ``decided_ratio``.
* ``ring-sweep`` runs classify/ideals/decompose on rings of order 65-1024:
  table builds, sampled axiom checks, lattice enumeration, idempotent
  splitting and large lattice output, which the other two barely load.
"""

from __future__ import annotations

import itertools
import random

DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# ---------------------------------------------------------------------------
# module-ladder

# cases named in the ROADMAP, always present; the last two hit the hom guard
LADDER_FIXED = (
    ("Z/8", "2,0;0,4"),
    ("GF(2)[x]/(x^4)", "x,0;0,x^3"),
    ("Z/32", "4,0;0,8"),
    ("Z/9", "3,0,0;0,3,0;0,0,3"),
)

# The witness search scans homs in lexicographic order of the generators'
# images, so where it stops -- and with it the cost of a request -- depends on
# which elements generate the module: redrawing the generators of one class
# changed a request's time by up to 11x.  A seed therefore redraws only the
# relations of a class and keeps its generators: over Z/p^k the matrix is
# diag.V with a seeded invertible V (column operations, so the relations span
# the same submodule), over GF(p)[x]/(x^k) each diagonal entry is x^a times a
# seeded unit (the same relation).  The printed presentation changes with the
# seed; the module, its generators and the work of the search do not.

# module classes over Z/p^k: (p, k, exponents), M = sum of Z/p^a, presented
# on one generator per exponent.  Classes whose search would hit a guard are
# left to the fixed cases above.
ZPK_CLASSES = (
    (2, 2, (1,)), (2, 2, (2,)), (2, 2, (1, 1)), (2, 2, (1, 2)), (2, 2, (2, 2)),
    (2, 2, (0, 1, 1)), (2, 2, (1, 1, 1)),
    (2, 3, (1,)), (2, 3, (2,)), (2, 3, (3,)), (2, 3, (1, 2)), (2, 3, (1, 3)),
    (2, 3, (2, 2)), (2, 3, (0, 1, 2)), (2, 3, (1, 1, 2)), (2, 3, (2, 2, 3)),
    (3, 2, (1,)), (3, 2, (2,)), (3, 2, (1, 1)), (3, 2, (1, 2)), (3, 2, (0, 1, 1)),
    (2, 4, (1,)), (2, 4, (3,)), (2, 4, (1, 3)), (2, 4, (2, 2)), (2, 4, (1, 2)),
    (5, 2, (1,)), (5, 2, (2,)), (5, 2, (1, 1)),
    (3, 3, (1,)), (3, 3, (3,)), (3, 3, (1, 2)), (3, 3, (2, 3)),
    (2, 5, (2,)), (2, 5, (1, 1)), (2, 5, (2, 4)),
    (7, 2, (1,)), (7, 2, (0, 1)),
)

# module classes over GF(p)[x]/(x^k), presented diagonally by u*x^a with a
# seeded unit u
GF_CLASSES = (
    (2, 2, (1,)), (2, 2, (1, 1)), (2, 2, (1, 2)), (2, 2, (2, 2)),
    (2, 3, (1,)), (2, 3, (2,)), (2, 3, (1, 2)), (2, 3, (0, 3)), (2, 3, (2, 2)),
    (2, 4, (1,)), (2, 4, (2,)), (2, 4, (3,)), (2, 4, (1, 4)),
    (3, 2, (1,)), (3, 2, (1, 1)), (3, 2, (1, 2)),
    (3, 3, (1,)), (3, 3, (2,)), (3, 3, (0, 1)),
    (5, 2, (1,)), (5, 2, (2,)), (5, 2, (1, 1)),
)


def _det_mod(mat, m):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total % m


def _invertible(rnd, n, p, q):
    """A uniformly drawn n x n matrix over Z/q (q = p^k) that is invertible."""
    while True:
        mat = [[rnd.randrange(q) for _ in range(n)] for _ in range(n)]
        if _det_mod(mat, p) != 0:
            return mat


def _matmul(a, b, q):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) % q for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def zpk_presentation(rnd, p, k, exps, extra):
    """Rows = generators; columns = relations; module = sum Z/p^a on the
    standard generators, with ``extra`` redundant relation columns."""
    q = p**k
    g = len(exps)
    c = g + extra
    diag = [[(p**a % q) if i == j else 0 for j in range(c)] for i, a in enumerate(exps)]
    mat = _matmul(diag, _invertible(rnd, c, p, q), q)
    return ";".join(",".join(str(v) for v in row) for row in mat)


def poly_literal(coeffs) -> str:
    """Ascending integer coefficients as an element or modulus literal."""
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
            continue
        xj = "x" if j == 1 else f"x^{j}"
        terms.append(xj if c == 1 else f"{c}*{xj}")
    return "+".join(terms) if terms else "0"


def gf_presentation(rnd, p, k, exps):
    g = len(exps)
    entries = []
    for a in exps:
        coeffs = [0] * k
        if a < k:
            coeffs[a] = rnd.randrange(1, p)
            for j in range(a + 1, k):
                coeffs[j] = rnd.randrange(p)
        entries.append(poly_literal(coeffs))
    rows = [",".join(entries[i] if j == i else "0" for j in range(g)) for i in range(g)]
    return ";".join(rows)


def _ladder_case(ring, rel):
    return [
        {"argv": ["module", "sgp", "--ring", ring, "--rel", rel, "--json"],
         "expect": {"kind": "sgp", "ring": ring, "rel": rel}},
        {"argv": ["resolve", "--ring", ring, "--rel", rel, "--json"],
         "expect": {"kind": "resolve", "ring": ring, "rel": rel, "length": 3}},
    ]


def module_ladder(seed):
    rnd = random.Random(f"module-ladder:{seed}")
    requests = []
    for ring, rel in LADDER_FIXED:
        requests += _ladder_case(ring, rel)
    for i, (p, k, exps) in enumerate(ZPK_CLASSES):
        requests += _ladder_case(f"Z/{p ** k}", zpk_presentation(rnd, p, k, exps, i % 2))
    for p, k, exps in GF_CLASSES:
        requests += _ladder_case(f"GF({p})[x]/(x^{k})", gf_presentation(rnd, p, k, exps))
    rnd.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# ring-sweep

SQUARE_ZERO_PAIR = (
    "SC(2;3;1,0,0,0,1,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0;1,0,0)"
)

# Every slot fixes the size and shape of its ring and the command run on it;
# the seed picks a ring of that shape.  Costs then depend on the slot, not on
# the draw, so runs on different seeds can be compared.

# Z/n: n drawn from a narrow band with a fixed kind of factorization (prime,
# two distinct primes, or two primes one of them squared or higher); every
# command meets every band once with every kind.  The largest ring of a run
# is a prime near 1024 under the same command for every seed, so peak memory
# does not depend on the draw.
ZMOD_BANDS = (
    (66, 75), (80, 90), (100, 115), (120, 135), (150, 170), (180, 200), (230, 260),
    (300, 330), (400, 440), (460, 520), (600, 660), (700, 780), (990, 1024),
)
ZMOD_KINDS = ("prime", "squarefree", "square")

# product slots: factor atoms by kind and order -- c = chain ring (Z/p^k or
# GF(p)[x]/(x^k)), f = field (GF(q) or GF(p)[x]/(irreducible f)), s = the
# square-zero pair, z = Z/n.  The seed picks the representation, so a slot's
# lattice, and with it its cost, stays put.  Orders 65..1024.
PRODUCT_SLOTS = (
    "c4 c17", "f9 c8 c2", "c16 f16", "c25 f9", "s8 c31", "c27 c9", "c32 f16",
    "f25 c25", "c4 f4 c8", "c9 f27", "c8 f8 s8", "f16 c32", "c3 c25", "c27 c5 c2",
    "f8 c32 c2", "c16 c5", "z12 c9", "c8 c16 c2", "f27 c16", "c8 c9",
    "f4 c29", "c25 z6", "c9 c4 f9", "f9 c9 c8", "c11 s8", "c16 c4 c3",
    "c27 c3", "c25 c4", "c7 c16", "c8 c27", "f9 c25 c2", "c16 f9 c4",
    "c5 c25", "c32 s8", "f27 c5", "c4 c16 c16", "c9 c9", "f4 c8 c5", "c32 c3",
    "c13 c8", "f27 c4 c3", "c16 f16 c3", "c25 c27", "s8 c4 f4", "c29 f9",
)

# monic quotients: (p, a, factorization pattern of f mod p as (degree,
# multiplicity) pairs); orders 81..256, since one of order 1024 took 20 s
GF_QUOTIENTS = (
    (2, 1, ((7, 1),)), (2, 1, ((1, 3), (2, 2))),
    (3, 1, ((4, 1),)), (3, 1, ((1, 2), (2, 1))), (3, 1, ((1, 1), (1, 1), (2, 1))),
    (5, 1, ((3, 1),)), (5, 1, ((1, 1), (1, 1), (1, 1))), (5, 1, ((1, 3),)),
    (11, 1, ((2, 1),)), (13, 1, ((1, 2),)),
)
ZPA_QUOTIENTS = (
    (2, 2, ((1, 2), (1, 2))), (3, 2, ((1, 2),)),
    (3, 2, ((2, 1),)), (3, 2, ((1, 1), (1, 1))), (3, 2, ((1, 2),)),
    (11, 2, ((1, 1),)), (2, 7, ((1, 1),)),
)
COMMANDS = ("classify", "ideals", "decompose")


def _factor(n):
    """{prime: exponent} by trial division."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _zmod_kind(n):
    f = _factor(n)
    if len(f) == 1 and max(f.values()) == 1:
        return "prime"
    if len(f) == 2:
        return "squarefree" if max(f.values()) == 1 else "square"
    return None


def _random_irreducible(rnd, p, degree, avoid=()):
    while True:
        g = [rnd.randrange(p) for _ in range(degree)] + [1]
        if g not in avoid and _is_irreducible(g, p):
            return g


def _atom(rnd, code):
    kind, order = code[0], int(code[1:])
    if kind == "s":
        return SQUARE_ZERO_PAIR
    if kind == "z":
        return f"Z/{order}"
    ((p, k),) = _factor(order).items()
    if kind == "c":
        return rnd.choice((f"Z/{order}", f"GF({p})" if k == 1 else f"GF({p})[x]/(x^{k})"))
    return rnd.choice((f"GF({order})", f"GF({p})[x]/({poly_literal(_random_irreducible(rnd, p, k))})"))


def _is_irreducible(coeffs, p):
    """Monic coeffs (ascending) over GF(p): no factor of degree <= deg/2."""
    from sympy import Poly, symbols

    return Poly(list(reversed(coeffs)), symbols("x"), modulus=p).is_irreducible


def _polymul(a, b, mod):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % mod
    return out


def _quotient_modulus(rnd, p, a, pattern):
    """f monic over Z/p^a whose reduction mod p factors as the pattern says."""
    factors = []
    for degree, mult in pattern:
        g = _random_irreducible(rnd, p, degree, factors)
        factors.append(g)
        factors += [g] * (mult - 1)
    f = [1]
    for g in factors:
        f = _polymul(f, g, p)
    q = p**a
    # a lift: f + p*h with deg h < deg f keeps f monic and f mod p unchanged
    return [(c + p * rnd.randrange(q // p)) % q for c in f[:-1]] + [1]


def ring_sweep(seed):
    rnd = random.Random(f"ring-sweep:{seed}")
    specs = []
    for kind in ZMOD_KINDS:
        for low, high in ZMOD_BANDS:
            n = rnd.choice([n for n in range(low, high + 1) if _zmod_kind(n) == kind])
            specs.append((f"Z/{n}", {"type": "zmod", "n": n}))
    for slot in PRODUCT_SLOTS:
        picks = [_atom(rnd, code) for code in slot.split()]
        rnd.shuffle(picks)
        specs.append((" x ".join(picks), {"type": "product", "atoms": picks}))
    for p, a, pattern in GF_QUOTIENTS + ZPA_QUOTIENTS:
        f = _quotient_modulus(rnd, p, a, pattern)
        base = f"GF({p})" if a == 1 else f"Z/{p ** a}"
        specs.append((f"{base}[x]/({poly_literal(f)})",
                      {"type": "quotient", "p": p, "a": a, "f": f}))
    requests = []
    for i, (spec, ring) in enumerate(specs):
        command = COMMANDS[i % len(COMMANDS)]
        requests.append({
            "argv": [command, spec, "--json"],
            "expect": {"kind": command, "spec": spec, "ring": ring},
        })
    rnd.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# verify-paper


def verify_paper(seed):
    argv = ["verify-paper"]
    if seed != DEFAULT_SEED:
        # the only input verify-paper takes: the seed of its sampled axiom checks
        argv += ["--seed", str(random.Random(f"verify-paper:{seed}").randrange(1, 2**31))]
    return [{"argv": argv + ["--json"], "expect": {"kind": "verify-paper", "checks": 21}}]


WORKLOADS = {
    "verify-paper": verify_paper,
    "module-ladder": module_ladder,
    "ring-sweep": ring_sweep,
}
