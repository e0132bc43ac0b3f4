"""A Fraction Gauss-Jordan reference for the tests' rank and line oracles.

It shares no code with `modgem`: the rank of a few rows, and whether a
point lies on a line, are read off an echelon computed here, over `Fraction`
or, for the line test, fraction-free over the integers.
"""

import math
from fractions import Fraction


def reference_rref(rows):
    """Gauss-Jordan over Fraction; each row then scaled to be primitive with a
    positive leading entry (the leading entry is 1 before scaling)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    out = []
    for row in m[:len(pivots)]:
        den = math.lcm(*(v.denominator for v in row))
        ints = [int(v * den) for v in row]
        g = math.gcd(*ints)
        out.append([v // g for v in ints])
    return out, pivots


def reference_rank(rows):
    return len(reference_rref(rows)[0])


def on_line(line, pt):
    """Whether the point lies on the line: [p, q, pt] has rank 2. The rows are
    eliminated as `reference_rref` does, but fraction-free (each row scaled by
    the pivot instead of divided by it), which keeps integer rows integral and
    is fast enough for the scans over every line and point."""
    p, q, r = line.p.coords, line.q.coords, pt.coords
    i = next(k for k, v in enumerate(p) if v)
    q, r = ([p[i] * b - row[i] * a for a, b in zip(p, row)] for row in (q, r))
    j = next(k for k, v in enumerate(q) if v)  # p and q span a line
    return not any(q[j] * c - r[j] * b for b, c in zip(q, r))
