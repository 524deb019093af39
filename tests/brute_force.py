"""Scalar brute-force module arithmetic, the reference the array code is
tested against.

Element indices are combined one coordinate at a time through the ring's
operation tables, read as Python lists, and a raw tuple of R^k is reduced to
the least tuple of its coset by scanning the span of the relation columns,
which is grown by closure.  Nothing here reads a module's coset labels.
"""


def ring_lists(ring):
    """The (add, mul) tables of ``ring`` as nested Python lists."""
    add, mul, _ = ring.tables()
    return add.tolist(), mul.tolist()


def reference_span(ring, k, cols):
    """The R-span in R^k of the relation columns (ring indices), as a set."""
    addl, mull = ring_lists(ring)
    span = {(0,) * k}
    for col in cols:
        span = {
            tuple(addl[s][mull[r][c]] for s, c in zip(vec, col))
            for vec in span
            for r in range(ring.order)
        }
    return span


class BruteModule:
    """R^k modulo the span of ``cols``: every result is the least tuple of
    its coset, so it compares equal to the module's own element."""

    def __init__(self, ring, k, cols=()):
        self.addl, self.mull = ring_lists(ring)
        self.span = reference_span(ring, k, cols)
        self.zero = (0,) * k
        self._least = {}

    @classmethod
    def of(cls, m):
        return cls(m.ring, m.k, m.relation_columns)

    def least(self, raw):
        if raw not in self._least:
            addl = self.addl
            self._least[raw] = min(
                tuple(addl[x][s] for x, s in zip(raw, vec)) for vec in self.span
            )
        return self._least[raw]

    def add(self, a, b):
        return self.least(tuple(self.addl[x][y] for x, y in zip(a, b)))

    def scal(self, r, a):
        return self.least(tuple(self.mull[r][x] for x in a))

    def combination(self, coeffs, images):
        """sum_j coeffs[j] * images[j]."""
        acc = self.zero
        for coeff, im in zip(coeffs, images):
            acc = self.add(acc, self.scal(coeff, im))
        return acc
