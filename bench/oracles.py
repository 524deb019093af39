"""Reference answers computed without finring.

* Modules over Z/p^k: summand exponents from sympy's Smith normal form of
  the relation matrix augmented by p^k * I.  Over GF(p)[x]/(x^k) the
  presentations are diagonal, so the exponents are x-adic valuations.
  Over a finite chain ring of length k, M = sum R/m^a_i is strongly
  Gorenstein projective exactly when the multiset of non-free, nonzero
  exponents is invariant under a -> k - a, and its minimal free resolution
  has ranks (#nonzero, #non-free nonzero, #non-free nonzero, ...).
* Rings: Z/n and GF(p)[x]/(f) split into local factors by factoring n or
  f mod p (sympy); Z/p^a[x]/(f) splits along the factors of f mod p by
  Hensel's lemma.  Products combine a hand-written atom table
  componentwise.  A local factor of composition length L is a field iff
  L = 1 and has at most one nonzero proper ideal iff L <= 2; every monic
  quotient of Z/p^a[x] is quasi-Frobenius.
* verify-paper: all 21 checks pass.

``check(expect, result)`` returns ``(decided, problem)``: ``decided`` is
False for a request that stopped at a resource guard (exit 3), and
``problem`` is None when the output agrees with the reference.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import lru_cache

from sympy import Matrix, Poly, factorint, symbols
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.domains import ZZ

X = symbols("x")

# ---------------------------------------------------------------------------
# local-factor data


def _chain(p, d, length):
    """A finite chain ring with residue field of size p^d and length L."""
    return {
        "order": p ** (d * length),
        "max_ideal_order": p ** (d * (length - 1)),
        "length": length,
        "ideal_orders": [p ** (d * j) for j in range(length + 1)],
        "qf": True,
    }


def _zmod_factors(n):
    return [_chain(p, 1, e) for p, e in sorted(factorint(n).items())]


def _quotient_factors(p, a, coeffs):
    """Local factors of Z/p^a[x]/(f), f monic with ascending coefficients."""
    f = Poly(list(reversed(coeffs)), X, modulus=p)
    out = []
    for g, e in f.factor_list()[1]:
        d = g.degree()
        if a == 1 or e == 1:
            out.append(_chain(p, d, a * e))
        else:
            # not necessarily a chain ring: only the sizes are known
            length = a * e
            out.append({
                "order": p ** (d * length),
                "max_ideal_order": p ** (d * (length - 1)),
                "length": length,
                "ideal_orders": None,
                "qf": True,
            })
    return out


SQUARE_ZERO_FACTOR = {
    # GF(2)-algebra on 1, x, y with x^2 = xy = y^2 = 0: ideals 0, three lines
    # in m = <x, y>, m and R; Ann(Ann(xR)) = m, so not quasi-Frobenius
    "order": 8,
    "max_ideal_order": 4,
    "length": 3,
    "ideal_orders": [1, 2, 2, 2, 4, 8],
    "qf": False,
}


def _atom_factors(text):
    m = re.fullmatch(r"Z/(\d+)", text)
    if m:
        return _zmod_factors(int(m.group(1)))
    m = re.fullmatch(r"GF\((\d+)\)", text)
    if m:
        ((p, d),) = factorint(int(m.group(1))).items()
        return [_chain(p, d, 1)]
    m = re.fullmatch(r"GF\((\d+)\)\[x\]/\((.+)\)", text)
    if m:
        return _quotient_factors(int(m.group(1)), 1, tuple(_poly_coeffs(m.group(2))))
    if text.startswith("SC(2;3;"):
        return [SQUARE_ZERO_FACTOR]
    raise ValueError(f"no reference data for atom {text!r}")


def ring_factors(ring):
    if ring["type"] == "zmod":
        return _zmod_factors(ring["n"])
    if ring["type"] == "quotient":
        return _quotient_factors(ring["p"], ring["a"], tuple(ring["f"]))
    factors = []
    for atom in ring["atoms"]:
        factors += _atom_factors(atom)
    return factors


def ring_reference(ring):
    factors = ring_factors(ring)
    order = 1
    for f in factors:
        order *= f["order"]
    ideal_orders = [1]
    for f in factors:
        if f["ideal_orders"] is None:
            ideal_orders = None
            break
        ideal_orders = [a * b for a in ideal_orders for b in f["ideal_orders"]]
    return {
        "order": order,
        "factors": factors,
        "local": len(factors) == 1,
        "semisimple": all(f["length"] == 1 for f in factors),
        "sg": all(f["length"] <= 2 and f["qf"] for f in factors),
        "qf": all(f["qf"] for f in factors),
        "ideal_orders": sorted(ideal_orders) if ideal_orders else None,
    }


def _factor_rows(factors):
    return sorted(
        (f["order"], len(f["ideal_orders"]) if f["ideal_orders"] else None, f["max_ideal_order"])
        for f in factors
    )


def _reported_factor_rows(reported, reference):
    """Reported factor rows, with ideal counts blanked where the reference has none."""
    unknown = {f["order"] for f in reference if f["ideal_orders"] is None}
    return sorted(
        (f["order"], None if f["order"] in unknown else f["ideal_count"], f["max_ideal_order"])
        for f in reported
    )


# ---------------------------------------------------------------------------
# modules over local chain rings


def _parse_local_ring(text):
    m = re.fullmatch(r"Z/(\d+)", text)
    if m:
        ((p, k),) = factorint(int(m.group(1))).items()
        return "z", p, k
    m = re.fullmatch(r"GF\((\d+)\)\[x\]/\(x\^(\d+)\)", text)
    if m:
        return "x", int(m.group(1)), int(m.group(2))
    raise ValueError(f"not a local chain ring of the ladder: {text!r}")


def _poly_coeffs(literal):
    """Ascending integer coefficients of a literal such as 1+2*x^3."""
    coeffs = Counter()
    for term in literal.split("+"):
        m = re.fullmatch(r"(?:(\d+)\*?)?(x(?:\^(\d+))?)?", term.strip())
        if not m or not term.strip():
            raise ValueError(f"unexpected polynomial term {term!r}")
        coef = int(m.group(1)) if m.group(1) else 1
        power = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        coeffs[power] += coef
    return [coeffs[j] for j in range(max(coeffs) + 1)]


def _x_valuation(literal, p, k):
    """x-adic valuation of a polynomial literal, capped at k."""
    powers = [j for j, c in enumerate(_poly_coeffs(literal)) if c % p and j < k]
    return min(powers) if powers else k


@lru_cache(maxsize=None)
def module_exponents(ring_text, rel):
    """(p, k, exponents a_i with M = sum R/m^a_i), one per generator."""
    kind, p, k = _parse_local_ring(ring_text)
    rows = [r.split(",") for r in rel.split(";")]
    g = len(rows)
    if kind == "z":
        q = p**k
        entries = [[int(v) for v in row] for row in rows]
        aug = Matrix([row + [q if i == j else 0 for j in range(g)] for i, row in enumerate(entries)])
        snf = smith_normal_form(aug, domain=ZZ)
        exps = []
        for i in range(g):
            d = abs(int(snf[i, i]))
            a = 0
            while d % p == 0 and a < k:
                d //= p
                a += 1
            exps.append(a)
        return p, k, tuple(sorted(exps))
    exps = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if j != i and _x_valuation(v, p, k) < k:
                raise ValueError(f"presentation {rel!r} is not diagonal")
        exps.append(_x_valuation(row[i], p, k) if i < len(row) else k)
    return p, k, tuple(sorted(exps))


def module_reference(ring_text, rel):
    p, k, exps = module_exponents(ring_text, rel)
    nonzero = [a for a in exps if a > 0]
    nonfree = [a for a in nonzero if a < k]
    total = sum(exps)
    return {
        "sgp": sorted(nonfree) == sorted(k - a for a in nonfree),
        "card_ok": (2 * total) % k == 0,
        "rank": (2 * total) // k,
        "size": p**total,
        "ranks": [len(nonzero)] + [len(nonfree)] * 2,
    }


# ---------------------------------------------------------------------------
# per-request checks


def _check_sgp(expect, out):
    ref = module_reference(expect["ring"], expect["rel"])
    if out["sgp"] is not ref["sgp"]:
        return f"sgp={out['sgp']}, reference {ref['sgp']}"
    if ref["sgp"]:
        res = out.get("resolution") or {}
        if out["rank"] != ref["rank"] or out["ext1_order"] != 1:
            return f"witness rank {out['rank']} / ext1 {out['ext1_order']}, reference rank {ref['rank']}"
        if not (res.get("forward_exact") and res.get("dual_exact")):
            return "periodic resolution reported inexact"
        if res.get("image_order") != ref["size"] or res.get("kernel_order") != ref["size"]:
            return f"periodic image/kernel orders {res.get('image_order')}/{res.get('kernel_order')}, reference {ref['size']}"
        return None
    # over a chain ring Ext^1(M, R) vanishes, so only the search can fail
    want = "no_embedding_with_self_cokernel" if ref["card_ok"] else "cardinality"
    if out["obstruction"] != want:
        return f"obstruction {out['obstruction']}, reference {want}"
    return None


def _check_resolve(expect, out):
    ref = module_reference(expect["ring"], expect["rel"])
    if out["ranks"] != ref["ranks"]:
        return f"ranks {out['ranks']}, reference {ref['ranks']}"
    if out["exact"] is not True or out["length"] != expect["length"]:
        return "resolution not reported exact at the requested length"
    if len(out["differentials"]) != expect["length"] - 1:
        return "wrong number of differentials"
    return None


def _check_classify(expect, out):
    ref = ring_reference(expect["ring"])
    for key, want in (
        ("order", ref["order"]),
        ("local", ref["local"]),
        ("semisimple", ref["semisimple"]),
        ("quasi_frobenius", ref["qf"]),
        ("sg_semisimple", ref["sg"]),
    ):
        if out[key] != want:
            return f"{key}={out[key]}, reference {want}"
    certs = out["certificates"]
    for key, verdict in (("semisimple", ref["semisimple"]), ("quasi_frobenius", ref["qf"]),
                         ("sg_semisimple", ref["sg"])):
        if (certs[key] is None) != verdict:
            return f"certificate for {key} does not match the verdict"
    got = _reported_factor_rows(out["factors"], ref["factors"])
    if got != _factor_rows(ref["factors"]):
        return f"factors {got}, reference {_factor_rows(ref['factors'])}"
    return None


def _check_ideals(expect, out):
    ref = ring_reference(expect["ring"])
    if out["order"] != ref["order"]:
        return f"order {out['order']}, reference {ref['order']}"
    ideals = out["ideals"]
    if out["count"] != len(ideals):
        return "count disagrees with the listed ideals"
    orders = [i["order"] for i in ideals]
    if orders != sorted(orders) or orders[0] != 1 or orders[-1] != ref["order"]:
        return "lattice not sorted from the zero ideal to the ring"
    for ideal in ideals:
        if len(set(ideal["elements"])) != ideal["order"] or ref["order"] % ideal["order"]:
            return f"ideal of order {ideal['order']} lists {len(ideal['elements'])} elements"
    if ref["ideal_orders"] is not None and orders != ref["ideal_orders"]:
        return f"ideal orders {orders}, reference {ref['ideal_orders']}"
    return None


def _check_decompose(expect, out):
    ref = ring_reference(expect["ring"])
    if out["order"] != ref["order"]:
        return f"order {out['order']}, reference {ref['order']}"
    if len(out["idempotents"]) != len(ref["factors"]):
        return f"{len(out['idempotents'])} idempotents, reference {len(ref['factors'])}"
    got = _reported_factor_rows(out["factors"], ref["factors"])
    if got != _factor_rows(ref["factors"]):
        return f"factors {got}, reference {_factor_rows(ref['factors'])}"
    ring = expect["ring"]
    if ring["type"] == "zmod":
        n = ring["n"]
        es = [int(e) for e in out["idempotents"]]
        if sum(es) % n != 1 % n or any(e * e % n != e for e in es) or any(
            a * b % n for i, a in enumerate(es) for b in es[i + 1:]
        ):
            return f"idempotents {es} are not orthogonal idempotents summing to 1"
    return None


def _check_verify(expect, out):
    checks = out["checks"]
    if out["all_passed"] is not True or len(checks) != expect["checks"]:
        return f"all_passed={out['all_passed']} over {len(checks)} checks"
    failed = [c["name"] for c in checks if not c["passed"]]
    if failed or out["fault_injected"]:
        return f"failed checks {failed}"
    return None


CHECKERS = {
    "sgp": _check_sgp,
    "resolve": _check_resolve,
    "classify": _check_classify,
    "ideals": _check_ideals,
    "decompose": _check_decompose,
    "verify-paper": _check_verify,
}


def check(expect, result):
    """(decided, problem) for one request's exit code, output and traceback."""
    if result["traceback"]:
        return False, "traceback: " + result["traceback"].strip().splitlines()[-1]
    code = result["code"]
    if code == 3 and result["stderr"].startswith("guard exceeded"):
        return False, None
    if code not in (0, 1):
        return False, f"exit code {code}: {result['stderr'].strip()[:200]}"
    if code != 0:
        return True, f"exit code {code} where the reference expects 0"
    try:
        out = json.loads(result["stdout"])
        return True, CHECKERS[expect["kind"]](expect, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return True, f"unreadable output: {exc!r}"
