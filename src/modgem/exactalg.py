"""Exact rational polynomials, projective points and lines, exact linear algebra.

Everything downstream (arrangement censuses, Weyl actions, hypersurface
identities, nodal counts) reduces to computations in this module: sparse
multivariate polynomials over Q with a canonical graded reverse lexicographic
term order, primitive integer representatives for projective points and lines,
and integer-pivot row reduction whose ranks are cross-checked modulo two fixed
word-size primes.

Scalars are `fractions.Fraction`, which already guarantees lowest terms and a
positive denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

# Fixed word-size primes (both just below 2^31, so products of two reduced
# entries stay inside int64 during vectorized elimination).
SHADOW_PRIMES = (2147483629, 2147483587)


class ExactAlgError(Exception):
    """Base error for exact-algebra failures."""


class ShadowMismatch(ExactAlgError):
    """Exact rank and modular rank disagree: an arithmetic bug, never roundoff."""


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def grevlex_key(exp: tuple[int, ...]):
    """Sort key putting exponent vectors in descending grevlex when reverse-sorted.

    Higher total degree first; ties broken so that among equal-degree
    monomials the one whose trailing exponents are smaller wins (x1 > x2 > ...).
    """
    return (sum(exp), tuple(-e for e in reversed(exp)))


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, descending grevlex."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, nvars)
    out.sort(key=grevlex_key, reverse=True)
    return out


class MPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Immutable by convention: operations return new instances and never touch
    `terms` of an existing one. The zero polynomial has degree() None, a
    sentinel rather than a number, so nothing downstream can do arithmetic
    with it by accident.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                c = _frac(coeff)
                if c:
                    if len(exp) != nvars:
                        raise ExactAlgError(f"exponent length {len(exp)} != nvars {nvars}")
                    clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "MPoly":
        return cls(nvars, {(0,) * nvars: _frac(c)})

    @classmethod
    def var(cls, i: int, nvars: int) -> "MPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def linear(cls, coeffs: Sequence[Scalar]) -> "MPoly":
        """Linear form sum(coeffs[i] * x_i)."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                exp = [0] * n
                exp[i] = 1
                terms[tuple(exp)] = _frac(c)
        return cls(n, terms)

    @classmethod
    def from_terms(cls, nvars: int, pairs: Iterable[tuple[Sequence[int], Scalar]]) -> "MPoly":
        terms: dict[tuple[int, ...], Fraction] = {}
        for exp, c in pairs:
            key = tuple(exp)
            terms[key] = terms.get(key, Fraction(0)) + _frac(c)
        return cls(nvars, terms)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise ExactAlgError(f"variable counts differ: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return MPoly(self.nvars, terms)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if not c:
                return MPoly.zero(self.nvars)
            return MPoly(self.nvars, {e: v * c for e, v in self.terms.items()})
        self._check(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(exp, Fraction(0)) + c1 * c2
                if s:
                    terms[exp] = s
                else:
                    terms.pop(exp, None)
        return MPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ExactAlgError("negative power")
        result = MPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ExactAlgError("zero polynomial has no leading term")
        exp = max(self.terms, key=grevlex_key)
        return exp, self.terms[exp]

    def coefficient_vector(self, basis: Sequence[tuple[int, ...]]) -> list[Fraction]:
        return [self.terms.get(e, Fraction(0)) for e in basis]

    # -- calculus and substitution ------------------------------------------

    def diff(self, i: int) -> "MPoly":
        terms: dict[tuple[int, ...], Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i]:
                new = list(exp)
                new[i] -= 1
                terms[tuple(new)] = c * exp[i]
        return MPoly(self.nvars, terms)

    def partials(self) -> list["MPoly"]:
        return [self.diff(i) for i in range(self.nvars)]

    def subs(self, images: Sequence["MPoly"]) -> "MPoly":
        """Replace variable i by images[i]; a ring homomorphism."""
        if len(images) != self.nvars:
            raise ExactAlgError("substitution needs one image per variable")
        target = images[0].nvars if images else self.nvars
        for im in images:
            if im.nvars != target:
                raise ExactAlgError("substitution images live in different rings")
        pow_cache: dict[tuple[int, int], MPoly] = {}

        def power(i: int, k: int) -> MPoly:
            if k == 0:
                return MPoly.constant(target, 1)
            key = (i, k)
            if key not in pow_cache:
                pow_cache[key] = power(i, k - 1) * images[i]
            return pow_cache[key]

        acc = MPoly.zero(target)
        for exp, c in self.terms.items():
            piece = MPoly.constant(target, c)
            for i, e in enumerate(exp):
                if e:
                    piece = piece * power(i, e)
            acc = acc + piece
        return acc

    def restrict(self, basis: Sequence[Sequence[Scalar]]) -> "MPoly":
        """Restrict to the span of `basis`: substitute x = sum(u_j * basis[j]).

        Returns a polynomial in len(basis) fresh variables u_j.
        """
        k = len(basis)
        if any(len(b) != self.nvars for b in basis):
            raise ExactAlgError("basis vectors must match nvars")
        images = [
            MPoly(k, {tuple(1 if j == jj else 0 for jj in range(k)): _frac(basis[j][i])
                      for j in range(k) if basis[j][i]})
            for i in range(self.nvars)
        ]
        return self.subs(images)

    def restrict_to_line(self, p: Sequence[Scalar], q: Sequence[Scalar]) -> list[Fraction]:
        """Coefficients of the binary form self(s*p + t*q), ordered s^d .. t^d.

        Only defined for homogeneous polynomials.
        """
        if not self.is_homogeneous():
            raise ExactAlgError("line restriction needs a homogeneous polynomial")
        d = self.degree()
        if d is None:
            return [Fraction(0)]
        out = [Fraction(0)] * (d + 1)
        for exp, c in self.terms.items():
            conv = [Fraction(1)]
            for i, e in enumerate(exp):
                if not e:
                    continue
                pi, qi = _frac(p[i]), _frac(q[i])
                fac = [math.comb(e, k) * pi ** (e - k) * qi ** k for k in range(e + 1)]
                conv = _convolve(conv, fac)
            for j, v in enumerate(conv):
                out[j] += c * v
        return out

    def eval(self, values: Sequence[Scalar]) -> Fraction:
        if len(values) != self.nvars:
            raise ExactAlgError("value count mismatch")
        vals = [_frac(v) for v in values]
        total = Fraction(0)
        pow_cache: dict[tuple[int, int], Fraction] = {}

        def pw(i, e):
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = vals[i] ** e
            return pow_cache[key]

        for exp, c in self.terms.items():
            m = c
            for i, e in enumerate(exp):
                if e:
                    m *= pw(i, e)
            total += m
        return total

    # -- presentation --------------------------------------------------------

    def to_str(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = names or [f"x{i}" for i in range(self.nvars)]
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors)
            coeff = str(c)
            if mono:
                body = mono if c == 1 else (f"-{mono}" if c == -1 else f"{coeff}*{mono}")
            else:
                body = coeff
            parts.append(body)
        s = parts[0]
        for body in parts[1:]:
            s += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
        return s

    def __repr__(self):
        return f"MPoly({self.to_str()})"


def _convolve(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _reduce_fraction_mod(c: Fraction, p: int) -> int:
    den = c.denominator % p
    if den == 0:
        raise ExactAlgError(f"denominator of {c} not invertible mod {p}")
    return c.numerator % p * pow(den, p - 2, p) % p


# -- symmetric functions and determinants -------------------------------------


def elementary_symmetric(k: int, items: Sequence[MPoly]) -> MPoly:
    """sigma_k of the given polynomials, by the standard product recurrence."""
    n = len(items)
    if not 0 <= k <= n:
        raise ExactAlgError(f"sigma_{k} undefined for {n} items")
    nvars = items[0].nvars if items else 0
    acc = [MPoly.constant(nvars, 1)] + [MPoly.zero(nvars) for _ in range(k)]
    for idx, item in enumerate(items):
        for j in range(min(k, idx + 1), 0, -1):
            acc[j] = acc[j] + acc[j - 1] * item
    return acc[k]


def power_sum(k: int, items: Sequence[MPoly]) -> MPoly:
    acc = MPoly.zero(items[0].nvars)
    for item in items:
        acc = acc + item ** k
    return acc


def proportional(p: MPoly, q: MPoly) -> Optional[Fraction]:
    """The scalar c with p = c*q, if one exists; Fraction(1) for (0,0)."""
    if p.is_zero() and q.is_zero():
        return Fraction(1)
    if p.is_zero() or q.is_zero():
        return None
    exp, qc = q.leading()
    pc = p.terms.get(exp)
    if pc is None:
        return None
    c = pc / qc
    return c if p == q * c else None


def det_poly(mat: Sequence[Sequence[MPoly]]) -> MPoly:
    """Determinant of a small polynomial matrix by Laplace expansion.

    Minors are memoized on the column subset, so the cost is O(2^n * n)
    polynomial multiplications; fine for the n <= 6 matrices we meet.
    """
    n = len(mat)
    if n == 0:
        raise ExactAlgError("empty matrix")
    nvars = mat[0][0].nvars
    cache: dict[tuple[int, ...], MPoly] = {}

    def minor(cols: tuple[int, ...]) -> MPoly:
        row = n - len(cols)
        if not cols:
            return MPoly.constant(nvars, 1)
        if cols in cache:
            return cache[cols]
        acc = MPoly.zero(nvars)
        for pos, c in enumerate(cols):
            entry = mat[row][c]
            if entry.is_zero():
                continue
            rest = cols[:pos] + cols[pos + 1:]
            sub = minor(rest)
            term = entry * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        cache[cols] = acc
        return acc

    return minor(tuple(range(n)))


def hessian_det(p: MPoly) -> MPoly:
    """Determinant of the matrix of second partials."""
    grads = p.partials()
    mat = [[g.diff(j) for j in range(p.nvars)] for g in grads]
    return det_poly(mat)


# -- projective points and lines ----------------------------------------------


def _canonical_int_vector(coords: Sequence[Scalar]) -> tuple[int, ...]:
    fracs = [_frac(c) for c in coords]
    if all(f == 0 for f in fracs):
        raise ExactAlgError("zero vector has no projective class")
    denom = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


@dataclass(frozen=True)
class ProjPoint:
    """Point of projective space: primitive integer vector, first nonzero positive."""

    coords: tuple[int, ...]

    def __init__(self, coords: Sequence[Scalar]):
        object.__setattr__(self, "coords", _canonical_int_vector(coords))

    @property
    def n(self) -> int:
        return len(self.coords)

    def evaluate(self, form: MPoly) -> Fraction:
        return form.eval(self.coords)

    def __repr__(self):
        return f"ProjPoint{self.coords}"


class ProjLine:
    """Line in projective space, stored as two independent spanning points.

    Equality and hashing use the reduced row echelon form of the 2 x (n+1)
    span matrix, so any two spanning pairs of the same line compare equal.
    """

    __slots__ = ("p", "q", "_key")

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if p.n != q.n:
            raise ExactAlgError("spanning points in different spaces")
        ech, pivots = rref_int([list(p.coords), list(q.coords)])
        if len(ech) != 2:
            raise ExactAlgError("spanning points are proportional")
        self.p = p
        self.q = q
        self._key = tuple(tuple(r) for r in ech)

    @property
    def key(self) -> tuple[tuple[int, ...], ...]:
        return self._key

    def __eq__(self, other):
        return isinstance(other, ProjLine) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def contains(self, pt: ProjPoint) -> bool:
        r = list(pt.coords)
        for row in self._key:
            lead = next(i for i, v in enumerate(row) if v)
            if r[lead]:
                f, g = r[lead], row[lead]
                d = math.gcd(f, g)
                r = [a * (g // d) - b * (f // d) for a, b in zip(r, row)]
        return not any(r)

    def parameter_points(self, count: int) -> list[tuple[int, ...]]:
        """count distinct points: p, p+q, p+2q, ..., and q last.

        With count = d+1 these see every root of a degree-d binary form.
        """
        pts = []
        for k in range(count - 1):
            pts.append(tuple(a + k * b for a, b in zip(self.p.coords, self.q.coords)))
        pts.append(self.q.coords)
        return pts

    def __repr__(self):
        return f"ProjLine({self.p}, {self.q})"


# -- integer row reduction and kernels ----------------------------------------


def _primitive_row(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        row = [v // g for v in row]
    lead = next((v for v in row if v), 0)
    if lead < 0:
        row = [-v for v in row]
    return row


def _clear_row(row: Sequence[Scalar]) -> list[int]:
    fracs = [_frac(v) for v in row]
    denom = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * denom) for f in fracs]


def _int_products(rows: Sequence[Sequence[int]],
                  vecs: Sequence[Sequence[int]]) -> list[list[int]]:
    """Exact rows @ vecs^T for integer data.

    Uses int64 matrix multiplication when the worst-case entry provably
    fits, otherwise falls back to Python integers.
    """
    if not rows or not vecs:
        return [[] for _ in vecs]
    n = len(rows[0])
    max_r = max(abs(v) for row in rows for v in row)
    max_c = max((abs(v) for vec in vecs for v in vec), default=0)
    if max_r * max_c * n < 2 ** 62:
        a = np.array(rows, dtype=np.int64)
        b = np.array(vecs, dtype=np.int64).T
        prod = a @ b
        return [prod[:, k].tolist() for k in range(len(vecs))]
    return [[sum(r * c for r, c in zip(row, vec)) for row in rows]
            for vec in vecs]


class _IntEchelon:
    """Incremental integer echelon for independence testing.

    Stored rows are primitive, sorted by pivot, and zero at one another's
    pivots, so a single forward pass decides membership of a new vector.
    """

    def __init__(self) -> None:
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _reduce(self, vec: Sequence[int]) -> list[int]:
        v = [int(c) for c in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                a, b = row[p], v[p]
                g = math.gcd(a, b)
                ka, kb = a // g, b // g
                v = [ka * x - kb * y for x, y in zip(v, row)]
        return v

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec if independent of the span; report whether it was."""
        v = self._reduce(vec)
        pivot = next((j for j, c in enumerate(v) if c), None)
        if pivot is None:
            return False
        v = _primitive_row(v)
        for i, row in enumerate(self.rows):
            if row[pivot]:
                a, b = v[pivot], row[pivot]
                g = math.gcd(a, b)
                updated = [(a // g) * x - (b // g) * y for x, y in zip(row, v)]
                self.rows[i] = _primitive_row(updated)
        at = next((i for i, p in enumerate(self.pivots) if p > pivot),
                  len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True


def rref_int(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form over the integers.

    Returns (echelon rows as primitive integer vectors, pivot column list).
    Rows may contain Fractions; each is cleared to integers first. Updates
    use the gcd-balanced combination row_j*(p/g) - row_i*(e/g), with every
    row re-reduced to primitive form, which keeps growth tame on the
    structured matrices this package produces.
    """
    work = [_primitive_row(_clear_row(r)) for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    echelon: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        best = None
        for idx, row in enumerate(work):
            if row[col]:
                if best is None or abs(row[col]) < abs(work[best][col]):
                    best = idx
        if best is None:
            continue
        pivot_row = work.pop(best)
        pv = pivot_row[col]
        nxt = []
        for row in work:
            e = row[col]
            if e:
                d = math.gcd(pv, e)
                row = [a * (pv // d) - b * (e // d) for a, b in zip(row, pivot_row)]
                row = _primitive_row(row)
            if any(row):
                nxt.append(row)
        work = nxt
        echelon.append(pivot_row)
        pivots.append(col)
        if not work:
            break
    # back-eliminate for the reduced form
    for i in range(len(echelon) - 1, -1, -1):
        col = pivots[i]
        pv = echelon[i][col]
        for j in range(i):
            e = echelon[j][col]
            if e:
                d = math.gcd(pv, e)
                echelon[j] = _primitive_row(
                    [a * (pv // d) - b * (e // d) for a, b in zip(echelon[j], echelon[i])]
                )
    return echelon, pivots


def rank_exact(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(rref_int(rows)[0])


def kernel_int(rows: Sequence[Sequence[Scalar]]) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    echelon, pivots = rref_int(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reversed(echelon), reversed(pivots)):
            s = sum((Fraction(row[c]) * v[c] for c in range(pc + 1, ncols)), Fraction(0))
            v[pc] = -s / row[pc]
        vec = _canonical_int_vector(v)
        basis.append(vec)
    for vec in basis:
        for row in mat:
            if sum(_frac(a) * b for a, b in zip(row, vec)):
                raise ExactAlgError("kernel verification failed")
    return basis


def solve_exact(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> Optional[list[Fraction]]:
    """One solution of rows*x = rhs, or None if inconsistent."""
    mat = [list(r) + [v] for r, v in zip(rows, rhs)]
    aug, pivots = rref_int(mat)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(reversed(aug), reversed(pivots)):
        s = sum((Fraction(row[c]) * x[c] for c in range(pc + 1, ncols)), Fraction(0))
        x[pc] = (Fraction(row[ncols]) - s) / row[pc]
    return x


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss)."""
    a = [[int(v) for v in r] for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank_mod(rows: Sequence[Sequence[Scalar]], p: int) -> int:
    """Rank over GF(p), vectorized; entries are exactly reduced first."""
    reduced = []
    for r in rows:
        rr = []
        for v in r:
            f = _frac(v)
            rr.append(_reduce_fraction_mod(f, p))
        reduced.append(rr)
    if not reduced:
        return 0
    a = np.array(reduced, dtype=np.int64)
    m, n = a.shape
    rank = 0
    for col in range(n):
        if rank == m:
            break
        pivs = np.nonzero(a[rank:, col])[0]
        if pivs.size == 0:
            continue
        piv = rank + int(pivs[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * inv % p
        below = a[rank + 1:, col]
        mask = below != 0
        if mask.any():
            a[rank + 1:][mask] = (a[rank + 1:][mask] - below[mask, None] * a[rank]) % p
        rank += 1
    return rank


@dataclass(frozen=True)
class PrimeShadow:
    """Reduction map to GF(p) for probabilistic cross-checks.

    Never ground truth on its own: ranks mod p only bound the rational rank
    from below, and identity tests mod p carry an explicit failure bound.
    """

    modulus: int

    def rank(self, rows: Sequence[Sequence[Scalar]]) -> int:
        return rank_mod(rows, self.modulus)


DEFAULT_SHADOWS = tuple(PrimeShadow(p) for p in SHADOW_PRIMES)


def checked_rank(rows: Sequence[Sequence[Scalar]],
                 shadows: Sequence[PrimeShadow] = DEFAULT_SHADOWS) -> int:
    """Exact rank, with agreement of the modular ranks enforced."""
    r = rank_exact(rows)
    for shadow in shadows:
        rp = shadow.rank(rows)
        if rp != r:
            raise ShadowMismatch(f"rank {r} over Q but {rp} mod {shadow.modulus}")
    return r


# -- vanishing spaces ----------------------------------------------------------


@dataclass(frozen=True)
class VanishingSpace:
    """Forms of fixed degree vanishing on given points and lines.

    `dim` is always exact. `method` records which certification route
    produced it: "kernel" (exact row reduction of the evaluation matrix,
    modular ranks cross-checked) or "candidates" (a matching sandwich:
    exhibited independent members give a lower bound, the modular rank of
    the full evaluation matrix gives the upper bound, and the two meet).
    """

    degree: int
    nvars: int
    dim: int
    basis: tuple[MPoly, ...]
    method: str
    modular_ranks: dict[int, int]

    def contains(self, form: MPoly) -> bool:
        mono = monomials(self.nvars, self.degree)
        rows = [b.coefficient_vector(mono) for b in self.basis]
        target = form.coefficient_vector(mono)
        return solve_exact(list(zip(*rows)), target) is not None if rows else form.is_zero()


def evaluation_rows(degree: int, nvars: int,
                    points: Sequence[ProjPoint] = (),
                    lines: Sequence[ProjLine] = ()) -> list[list[int]]:
    """Evaluation matrix of all degree-d monomials against the constraints.

    A point contributes one row; a line contributes d+1 rows at the fixed
    parameters (1:0), (1:1), ..., (1:d-1), (0:1). A degree-d binary form
    vanishing at d+1 distinct points of a line is identically zero, so the
    rows capture line containment exactly, no genericity needed.
    """
    mono = monomials(nvars, degree)
    rows = []

    def point_row(coords: Sequence[int]) -> list[int]:
        maxdeg = degree
        pows = [[1] * (maxdeg + 1) for _ in range(nvars)]
        for i, c in enumerate(coords):
            for e in range(1, maxdeg + 1):
                pows[i][e] = pows[i][e - 1] * c
        out = []
        for exp in mono:
            v = 1
            for i, e in enumerate(exp):
                if e:
                    v *= pows[i][e]
            out.append(v)
        return out

    for pt in points:
        rows.append(point_row(pt.coords))
    for line in lines:
        for coords in line.parameter_points(degree + 1):
            rows.append(point_row(coords))
    return rows


def _vanishes_on_constraints(form: MPoly, points, lines) -> bool:
    for pt in points:
        if form.eval(pt.coords):
            return False
    for line in lines:
        if any(form.restrict_to_line(line.p.coords, line.q.coords)):
            return False
    return True


def vanishing_space(degree: int, nvars: int,
                    points: Sequence[ProjPoint] = (),
                    lines: Sequence[ProjLine] = (),
                    candidates: Sequence[MPoly] | None = None,
                    shadows: Sequence[PrimeShadow] = DEFAULT_SHADOWS) -> VanishingSpace:
    """Exact basis of degree-d forms vanishing on the given points and lines.

    Without candidates: kernel of the evaluation matrix by exact reduction,
    with the exact rank re-derived modulo two primes (mismatch raises).

    With candidates (needed when the evaluation matrix is too large for
    exact elimination, e.g. sextics against 216 lines): each candidate is
    verified to vanish on every constraint by exact restriction, a maximal
    independent subset provides dim >= k, and the modular rank of the full
    matrix provides dim <= k via n_cols - rank_p <= n_cols - rank_Q. The two
    bounds must meet; the result is exact, not probabilistic.
    """
    mono = monomials(nvars, degree)
    rows = evaluation_rows(degree, nvars, points, lines)

    if candidates is None:
        kernel = kernel_int(rows)
        r = len(mono) - len(kernel)
        for shadow in shadows:
            rp = shadow.rank(rows)
            if rp != r:
                raise ShadowMismatch(
                    f"evaluation matrix rank {r} over Q but {rp} mod {shadow.modulus}")
        basis = tuple(MPoly(nvars, {e: Fraction(c) for e, c in zip(mono, vec) if c})
                      for vec in kernel)
        for b in basis:
            if not _vanishes_on_constraints(b, points, lines):
                raise ExactAlgError("kernel element fails a constraint re-check")
        return VanishingSpace(degree, nvars, len(basis), basis, "kernel",
                              {s.modulus: r for s in shadows})

    cleared = []
    for cand in candidates:
        if cand.degree() != degree:
            raise ExactAlgError("candidate of wrong degree")
        cleared.append(_clear_row(cand.coefficient_vector(mono)))
    # vanishing at the d+1 sample points per line is vanishing on the line,
    # so annihilating every evaluation row certifies membership exactly
    for vals in _int_products(rows, cleared):
        if any(vals):
            raise ExactAlgError("candidate fails a constraint, not a member")
    ranks = {}
    upper = None
    for shadow in shadows:
        rp = shadow.rank(rows)
        ranks[shadow.modulus] = rp
        bound = len(mono) - rp
        upper = bound if upper is None else min(upper, bound)
    chosen: list[MPoly] = []
    echelon = _IntEchelon()
    for cand, vec in zip(candidates, cleared):
        if echelon.add(vec):
            chosen.append(cand)
            if len(chosen) == upper:
                break
    if len(chosen) != upper:
        raise ShadowMismatch(
            f"candidate span {len(chosen)} does not meet modular bound {upper}")
    return VanishingSpace(degree, nvars, upper, tuple(chosen), "candidates", ranks)
