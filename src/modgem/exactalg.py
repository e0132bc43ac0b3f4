"""Exact rational polynomials, projective points and lines, exact linear algebra.

Everything downstream (arrangement censuses, Weyl actions, hypersurface
identities, nodal counts) reduces to computations in this module: sparse
multivariate polynomials over Q with a canonical graded reverse lexicographic
term order, primitive integer representatives for projective points and lines,
and integer-pivot row reduction whose ranks are cross-checked modulo two fixed
word-size primes.

Scalars are integer-first: a rational with denominator 1 is a plain `int`,
any other is a `fractions.Fraction` (lowest terms, positive denominator), so
integral data never pays for Fraction arithmetic, and every division of one
coefficient by another goes through `Fraction`. A `float` is never a scalar.
Sampled checks draw from one seeded, bounded sampler.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar, Union

import numpy as np

Scalar = Union[int, Fraction]

# Fixed word-size primes (both just below 2^31, so products of two reduced
# entries stay inside int64 during vectorized elimination).
SHADOW_PRIMES = (2147483629, 2147483587)


class ExactAlgError(Exception):
    """Base error for exact-algebra failures."""


class ShadowMismatch(ExactAlgError):
    """Exact rank and modular rank disagree: an arithmetic bug, never roundoff."""


def _scalar(c) -> Scalar:
    """Normal form of a rational coefficient: an int if integral, else a Fraction.

    Any other `numbers.Rational` (a bool, a NumPy integer) is converted; a
    float, which would be taken at its binary value, raises ExactAlgError.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, numbers.Rational):
        return _scalar(Fraction(c))
    raise ExactAlgError(f"coefficient {c!r} is not an exact rational")


def grevlex_key(exp: tuple[int, ...]):
    """Sort key putting exponent vectors in descending grevlex when reverse-sorted.

    Higher total degree first; ties broken so that among equal-degree
    monomials the one whose trailing exponents are smaller wins (x1 > x2 > ...).
    """
    return (sum(exp), tuple(-e for e in reversed(exp)))


@lru_cache(maxsize=32)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given total degree, descending grevlex.

    Cached: every caller shares one basis per (nvars, degree), returned as a
    tuple so that none of them can change it for the others.
    """
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, nvars)
    out.sort(key=grevlex_key, reverse=True)
    return tuple(out)


#: bits per field of a packed exponent key: one byte, so `int.to_bytes` unpacks
EXP_BITS = 8
_EXP_LIMIT = 1 << EXP_BITS


def _pack(exp: Sequence[int], nvars: int) -> int:
    """The packed key of an exponent vector (see `MPoly`), checked."""
    if len(exp) != nvars or min(exp, default=0) < 0 or sum(exp) >= _EXP_LIMIT:
        raise ExactAlgError(f"exponents {tuple(exp)} are not {nvars} values >= 0 "
                            f"of degree < {_EXP_LIMIT}")
    return int.from_bytes(bytes((sum(exp), *exp)), "big")


def _normal_terms(terms: dict[int, Scalar]) -> dict[int, Scalar]:
    """The nonzero terms, each coefficient in `_scalar` normal form."""
    return {k: c for k, v in terms.items() if (c := v if type(v) is int else _scalar(v))}


@lru_cache(maxsize=32)
def _packed_monomials(nvars: int, degree: int) -> tuple[int, ...]:
    """The packed keys of `monomials(nvars, degree)`, in its order."""
    return tuple(_pack(exp, nvars) for exp in monomials(nvars, degree))


def _grouped(rows: np.ndarray, key: Callable[[int], int]) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows grouped by key(row index) through one dict, each
    group added up by one `np.add.reduceat`: the sums and their keys."""
    groups: dict[int, list[int]] = {}
    for j in rows.any(1).nonzero()[0].tolist():
        groups.setdefault(key(j), []).append(j)
    starts = list(itertools.accumulate(map(len, groups.values()), initial=0))[:-1]
    order = list(itertools.chain.from_iterable(groups.values()))
    return np.add.reduceat(rows.take(order, axis=0), starts, axis=0), list(groups)


def _level_step(polys: np.ndarray, keys: list[int], factors: np.ndarray,
                factor_keys: list[int]) -> tuple[np.ndarray, list[int]]:
    """Column j of `polys` times column j of `factors`, for every j: one
    polynomial per column, one row per packed key (`keys`, `factor_keys`).
    The outer product of the columns is `_grouped` by key sums. Returns the
    product columns and their keys."""
    width = len(factor_keys)
    prods = (polys[:, None, :] * factors[None, :, :]).reshape(-1, polys.shape[1])
    return _grouped(prods, lambda j: keys[j // width] + factor_keys[j % width])


class MPoly:
    """Sparse multivariate polynomial over Q with integer-first coefficients.

    `terms` maps packed keys to coefficients: x^e in n variables has the key
    deg << (EXP_BITS*n) | e0 << (EXP_BITS*(n-1)) | ... | e_{n-1}, deg = sum(e),
    so the largest key has the top degree. Constructors take exponent tuples
    and raise on a negative exponent or a degree >= 2**EXP_BITS; `iter_terms`
    gives tuples back. A product's key is the sum of the keys: no field
    exceeds the degree field, so `__mul__`'s one check of the top fields,
    deg(self) + deg(other) < 2**EXP_BITS, rules out a carry between fields.

    Each stored coefficient is nonzero and in `_scalar` normal form: an int
    when integral, otherwise a Fraction.

    Immutable by convention: operations return new instances and never touch
    `terms` of an existing one. The zero polynomial has degree() None, a
    sentinel rather than a number, so nothing downstream can do arithmetic
    with it by accident.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Scalar] | None = None):
        self.nvars = nvars
        self.terms = _normal_terms({_pack(e, nvars): c for e, c in (terms or {}).items()})

    @classmethod
    def _from_packed(cls, nvars: int, terms: dict[int, Scalar]) -> "MPoly":
        """Build from packed keys, which are trusted and not checked again."""
        poly = cls.__new__(cls)
        poly.nvars, poly.terms = nvars, _normal_terms(terms)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, i: int, nvars: int) -> "MPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def linear(cls, coeffs: Sequence[Scalar]) -> "MPoly":
        """Linear form sum(coeffs[i] * x_i)."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                exp = [0] * n
                exp[i] = 1
                terms[tuple(exp)] = c
        return cls(n, terms)

    @classmethod
    def from_terms(cls, nvars: int, pairs: Iterable[tuple[Sequence[int], Scalar]]) -> "MPoly":
        terms: dict[tuple[int, ...], Scalar] = {}
        for exp, c in pairs:
            key = tuple(exp)
            terms[key] = terms.get(key, 0) + _scalar(c)
        return cls(nvars, terms)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise ExactAlgError(f"variable counts differ: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return MPoly._from_packed(self.nvars, terms)

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __neg__(self) -> "MPoly":
        return MPoly._from_packed(self.nvars, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other: Union["MPoly", Scalar]) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            return MPoly._from_packed(self.nvars, {k: v * other for k, v in self.terms.items()})
        self._check(other)
        if (self.degree() or 0) + (other.degree() or 0) >= _EXP_LIMIT:
            raise ExactAlgError(f"product degree reaches the limit {_EXP_LIMIT}")
        terms: dict[int, Scalar] = {}
        get = terms.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                terms[k] = get(k, 0) + c1 * c2
        return MPoly._from_packed(self.nvars, terms)

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
        return max(self.terms) >> (EXP_BITS * self.nvars)

    def is_homogeneous(self) -> bool:
        shift = EXP_BITS * self.nvars
        return not self.terms or max(self.terms) >> shift == min(self.terms) >> shift

    def iter_terms(self) -> Iterator[tuple[tuple[int, ...], Scalar]]:
        """(exponent tuple, coefficient) of each term, in storage order."""
        return ((tuple(k.to_bytes(self.nvars + 1, "big")[1:]), c) for k, c in self.terms.items())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self.iter_terms(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[tuple[int, ...], Scalar]:
        """(exponent tuple, coefficient) of the term with the largest packed
        key: graded, then lex in x0, x1, ..., a monomial order (not the
        grevlex of `sorted_terms`)."""
        if not self.terms:
            raise ExactAlgError("zero polynomial has no leading term")
        key = max(self.terms)
        return tuple(key.to_bytes(self.nvars + 1, "big")[1:]), self.terms[key]

    def coefficient_vector(self, degree: int) -> list[Scalar]:
        """Coefficients on `monomials(nvars, degree)`; other degrees are left out."""
        get = self.terms.get
        return [get(k, 0) for k in _packed_monomials(self.nvars, degree)]

    def linear_coeffs(self) -> list[Fraction]:
        """Coefficient of each x_i in a linear form, as Fractions; the inverse
        of `linear`. Callers divide these and report them, so they stay
        Fractions even when integral."""
        out = [Fraction(0)] * self.nvars
        for exp, c in self.iter_terms():
            if sum(exp) != 1:
                raise ExactAlgError("linear_coeffs needs a linear form")
            out[exp.index(1)] = Fraction(c)
        return out

    # -- calculus and substitution ------------------------------------------

    def diff(self, i: int) -> "MPoly":
        """Partial in x_i: each term loses 1 in its x_i and degree fields and
        is multiplied by its e_i, so the terms with e_i = 0 drop."""
        shift = EXP_BITS * (self.nvars - 1 - i)
        step = (1 << shift) + (1 << (EXP_BITS * self.nvars))
        return MPoly._from_packed(self.nvars, {k - step: c * (k >> shift & (_EXP_LIMIT - 1))
                                               for k, c in self.terms.items()})

    def partials(self) -> list["MPoly"]:
        return [self.diff(i) for i in range(self.nvars)]

    def subs(self, images: Sequence["MPoly"]) -> "MPoly":
        """Replace variable i by images[i]; a ring homomorphism: `substitute`
        with this one form and this one substitution."""
        return substitute([self], [images])[0][0]

    def restrict(self, basis: Sequence[Sequence[Scalar]]) -> "MPoly":
        """Restrict to the span of `basis`: substitute x = sum(u_j * basis[j]).

        Returns a polynomial in len(basis) fresh variables u_j: `restrictions`
        with this one form and this one basis.
        """
        return restrictions([self], [basis])[0][0]

    def restrict_to_line(self, p: Sequence[Scalar], q: Sequence[Scalar]) -> list[Scalar]:
        """Coefficients of the binary form self(s*p + t*q), ordered s^d .. t^d:
        `restrictions` of this form to the basis [p, q], read on `monomials(2, d)`.

        Only defined for homogeneous polynomials; the zero form gives [0].
        """
        if not self.is_homogeneous():
            raise ExactAlgError("line restriction needs a homogeneous polynomial")
        binary = self.restrict([p, q])
        d = self.degree()
        return [0] if d is None else binary.coefficient_vector(d)

    def eval(self, values: Sequence[Scalar]) -> Scalar:
        """Value at a point, in `_scalar` normal form (an int when integral,
        otherwise a Fraction): the constant term of `subs` at the constant
        images, in no variables."""
        if len(values) != self.nvars:
            raise ExactAlgError("value count mismatch")
        return self.subs([MPoly.constant(0, v) for v in values]).terms.get(0, 0)

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


def substitute(forms: Sequence[MPoly],
               substitutions: Sequence[Sequence[MPoly]]) -> list[list[MPoly]]:
    """out[a][b] = forms[a] with x_i replaced by substitutions[b][i], by `_expanded`.
    A term with sum e_i * deg(image i) >= 2^EXP_BITS raises; a zero image has degree 0."""
    if not forms or not substitutions:
        return [[] for _ in forms]
    n, r = forms[0].nvars, len(substitutions)
    if any(len(images) != n for images in substitutions):
        raise ExactAlgError("substitution needs one image per variable")
    target = substitutions[0][0].nvars if n else n
    if any(im.nvars != target for images in substitutions for im in images):
        raise ExactAlgError("substitution images live in different rings")
    degs = [[im.degree() or 0 for im in images] for images in substitutions]
    if max((g for gs in degs for g in gs), default=0) * max(
            f.degree() or 0 for f in forms) >= _EXP_LIMIT and any(
            sum(e * g for e, g in zip(k.to_bytes(n + 1, "big")[1:], gs)) >= _EXP_LIMIT
            for gs in degs for f in forms for k in f.terms):
        raise ExactAlgError(f"substitution degree reaches the limit {_EXP_LIMIT}")
    dens = [math.lcm(*(c.denominator for im in images for c in im.terms.values()))
            for images in substitutions]
    variables: dict[int, int] = {}  # target key -> its row of the factors
    at, cleared = [], []
    for b, (images, den) in enumerate(zip(substitutions, dens)):
        for i, im in enumerate(images):
            at += [(variables.setdefault(k, len(variables)) * n + i) * r + b for k in im.terms]
            cleared += [c.numerator * (den // c.denominator) for c in im.terms.values()]
    factors = np.zeros(len(variables) * n * r, dtype=object)
    factors[at] = cleared
    return _expanded(forms, target, list(variables), factors.reshape(len(variables), n, r),
                     dens)


def restrictions(forms: Sequence[MPoly],
                 bases: Sequence[Sequence[Sequence[Scalar]]]) -> list[list[MPoly]]:
    """out[a][b] = forms[a] on the span of bases[b], all of one length k: x =
    sum(u_j * bases[b][j]) in fresh u_j, by `_expanded` of the cleared vectors."""
    if not forms or not bases:
        return [[] for _ in forms]
    n, k, r = forms[0].nvars, len(bases[0]), len(bases)
    if any(len(v) != n for basis in bases for v in basis):
        raise ExactAlgError("basis vectors must match nvars")
    if any(len(basis) != k for basis in bases):
        raise ExactAlgError("bases of different lengths")
    rows = [[_scalar(v) for vec in basis for v in vec] for basis in bases]
    dens = [math.lcm(*(v.denominator for v in row)) for row in rows]
    factors = np.array([[v.numerator * (den // v.denominator) for v in row]
                        for row, den in zip(rows, dens)], dtype=object)
    # the key of u_j, of k variables, is 1 << EXP_BITS*k | 1 << EXP_BITS*(k-1-j)
    return _expanded(forms, k, [1 << EXP_BITS * k | 1 << EXP_BITS * (k - 1 - j) for j in range(k)],
                     factors.reshape(r, k, n).transpose(1, 2, 0), dens)


def _expanded(forms: Sequence[MPoly], target: int, variables: list[int],
              factors: np.ndarray, dens: list[int]) -> list[list[MPoly]]:
    """The one expansion route: out[a][b] = forms[a] with x_i replaced by
    sum_u factors[u, i, b] u / dens[b], u over the target keys `variables`
    (factors: integers, dtype object, shape (len(variables), n, r)).

    One plan for the batch: each monomial is its parent (one power less of
    its first variable) times that variable. Column j*r + b of the degree-t
    array is the j-th degree-t parent under substitution b, made from degree
    t - 1 by one `_level_step`. The degree-t terms weight the variables'
    images at their parents (one product) and meet the parents' columns (one
    product, batched over b); one `_grouped` adds the pieces of all degrees
    up by key. Terms through a variable with no nonzero image are dropped.
    A degree-t term of form a is scaled by dens[b]^(d - t), over L_a
    dens[b]^d, L_a the lcm of a's denominators.
    The arrays are int64 while A^max(d, 1) * F < 2^62, else Python ints: A
    is the largest sum of an image's cleared |coefficients| and F of a
    form's, each times max(dens)^(d - t), both at least 1, d the top degree.
    """
    n, m, r = forms[0].nvars, len(forms), len(dens)
    if any(f.nvars != n for f in forms):
        raise ExactAlgError("forms in different rings")
    shift, width, big = EXP_BITS * n, len(variables), max(dens)
    zero = sum((_EXP_LIMIT - 1) << (EXP_BITS * (n - 1 - i))
               for i, used in enumerate((factors != 0).any(axis=(0, 2))) if not used)
    kept = [{k: c for k, c in f.terms.items() if not k & zero} for f in forms]
    d = max((k for terms in kept for k in terms), default=0) >> shift
    # the plan: (parent, variable) of each needed monomial, by degree
    levels: list[dict[int, tuple[int, int]]] = [{} for _ in range(d + 1)]
    for k in dict.fromkeys(k for terms in kept for k in terms):
        while k and k not in (level := levels[k >> shift]):
            v = ((k & ((1 << shift) - 1)).bit_length() - 1) // EXP_BITS
            parent = k - (1 << shift) - (1 << (EXP_BITS * v))
            level[k], k = (parent, n - 1 - v), parent
    by_level: list[list[tuple[int, int, int]]] = [[] for _ in range(d + 1)]  # (form, key, c)
    form_dens, size = [], 0
    for a, terms in enumerate(kept):
        form_dens.append(math.lcm(*(c.denominator for c in terms.values())))
        cs = [c.numerator * (form_dens[a] // c.denominator) for c in terms.values()]
        for k, c in zip(terms, cs):
            by_level[k >> shift].append((a, k, c))
        size = max(size, sum(abs(c) * big ** (d - (k >> shift)) for k, c in zip(terms, cs)))
    top = int(np.abs(factors).sum(axis=0).max(initial=0))
    dtype = np.int64 if max(top, 1) ** max(d, 1) * max(size, 1) < 2 ** 62 else object
    factors = factors.astype(dtype)
    images_of = factors.transpose(1, 0, 2).reshape(n, width * r)  # image i, column u*r + b
    factors = factors.reshape(width, n * r)  # column i * r + b: image i under b

    def spread(idx):  # column j * r + b of each index j, for every substitution b
        return (np.array(idx)[:, None] * r + np.arange(r)).ravel()
    consts = {a: c for a, _, c in by_level[0]}
    pieces = [np.array([[consts.get(a, 0) * den ** d for a in range(m) for den in dens]],
                       dtype=dtype)]
    pair_keys, polys, keys, position = [0], np.ones((1, r), dtype=dtype), [0], {0: 0}
    for t, level in enumerate(levels[1:], 1):  # polys holds the degree t - 1 parents
        if by_level[t]:
            a, ks, c = zip(*by_level[t])
            active = list(dict.fromkeys(a))  # the forms with terms of degree t
            row = {x: j for j, x in enumerate(active)}
            weights = np.zeros((len(active), len(position), n), dtype=dtype)
            weights[[row[x] for x in a], [position[level[k][0]] for k in ks],
                    [level[k][1] for k in ks]] = c
            # (form, parent, target key, substitution)
            weighted = (weights.reshape(-1, n) @ images_of).reshape(
                len(active), len(position), width, r)
            if big > 1:
                weighted *= np.array([den ** (d - t) for den in dens], dtype=dtype)
            prod = (polys.reshape(len(keys), len(position), r).transpose(2, 0, 1)
                    @ weighted.transpose(3, 1, 0, 2).reshape(r, len(position), len(active) * width))
            block = prod.reshape(r, len(keys), len(active), width).transpose(1, 3, 2, 0)
            pieces.append(np.zeros((len(keys) * width, m * r), dtype=dtype))
            pieces[-1][:, spread(active)] = block.reshape(len(keys) * width, len(active) * r)
            pair_keys += [s + u for s in keys for u in variables]
        if t < d:
            step = list(dict.fromkeys(p for p, _ in levels[t + 1].values()))
            parents, i = zip(*(level[k] for k in step))
            polys, keys = _level_step(polys.take(spread([position[p] for p in parents]), axis=1),
                                      keys, factors.take(spread(i), axis=1), variables)
            position = {k: j for j, k in enumerate(step)}
    sums, keys = _grouped(np.concatenate(pieces), pair_keys.__getitem__)
    columns = iter(sums.T.tolist())
    return [[MPoly._from_packed(target, {k: v if den == 1 else Fraction(v, den)
                                         for k, v in zip(keys, next(columns)) if v})
             for den in (form_den * den ** d for den in dens)] for form_den in form_dens]


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
    """sum of item^k: one `substitute` of y_0^k + ... + y_(n-1)^k, y_i -> items[i]."""
    n = len(items)
    form = MPoly.from_terms(n, [(tuple(k * (i == j) for j in range(n)), 1) for i in range(n)])
    return substitute([form], [items])[0][0]


def proportional(p: MPoly, q: MPoly) -> Optional[Fraction]:
    """The scalar c with p = c*q, if one exists; Fraction(1) for (0,0)."""
    if p.is_zero() and q.is_zero():
        return Fraction(1)
    if p.is_zero() or q.is_zero():
        return None
    key, qc = next(iter(q.terms.items()))
    pc = p.terms.get(key)
    if pc is None:
        return None
    c = Fraction(pc) / qc
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
    """Primitive integer vector, first nonzero entry positive, of a nonzero
    rational vector's projective class; a float raises, as in `_clear_row`."""
    ints = _clear_row(coords)
    if not any(ints):
        raise ExactAlgError("zero vector has no projective class")
    return tuple(_primitive_row(ints))


@dataclass(frozen=True)
class ProjPoint:
    """Point of projective space: primitive integer vector, first nonzero positive."""

    coords: tuple[int, ...]

    def __init__(self, coords: Sequence[Scalar]):
        object.__setattr__(self, "coords", _canonical_int_vector(coords))

    @property
    def n(self) -> int:
        return len(self.coords)

    def __repr__(self):
        return f"ProjPoint{self.coords}"


class ProjLine:
    """Line in projective space, stored as two independent spanning points.

    `key` is the fully reduced integer echelon of the spanning points (see
    `_IntEchelon`): that form is unique, so the key (and with it equality
    and hashing) is the same for any two spanning pairs of the same line.
    """

    __slots__ = ("p", "q", "key")

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if p.n != q.n:
            raise ExactAlgError("spanning points in different spaces")
        ech = _IntEchelon([p.coords])
        if not ech.add(q.coords):
            raise ExactAlgError("spanning points are proportional")
        self.p, self.q, self.key = p, q, ech.key()

    def __eq__(self, other):
        return isinstance(other, ProjLine) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

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


def _clear_row(row: Sequence[Scalar], p: int = 0) -> list[int]:
    """The row times the lcm of its denominators, as Python ints.

    Reads `numerator` and `denominator`, which ints and Fractions both have,
    so no Fraction is built; a float has neither and raises ExactAlgError.
    Scaling by the lcm keeps the span over Q, and keeps the rank mod a prime
    p when the lcm is a unit mod p: with p given, a row whose lcm p divides
    raises ExactAlgError.
    """
    try:
        denom = math.lcm(*(v.denominator for v in row))
    except AttributeError:
        raise ExactAlgError(f"row {list(row)!r} is not all exact rationals") from None
    if p and denom % p == 0:
        raise ExactAlgError(f"row denominator {denom} not invertible mod {p}")
    if denom == 1:
        return [v.numerator for v in row]
    return [v.numerator * (denom // v.denominator) for v in row]


def _cleared_rows(rows: Sequence[Sequence[Scalar]], p: int = 0) -> list[list[int]]:
    """Each row through `_clear_row`; rows of different lengths raise."""
    cleared = [_clear_row(row, p) for row in rows]
    if any(len(row) != len(cleared[0]) for row in cleared):
        raise ExactAlgError("rows of different lengths")
    return cleared


def _int_array(rows: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """The rows as a 2-D integer array: an integer array as it is, anything
    else as an object array. Ragged rows, and an entry that is not an
    integer (a float, a Fraction), raise ExactAlgError. One check per array:
    its dtype, or for an object array the set of its entries' types."""
    a = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    if a.ndim != 2:
        raise ExactAlgError("rows of different lengths")
    if a.dtype.kind not in "iu" and not (
            a.dtype == object
            and all(issubclass(t, (int, np.integer)) for t in set(map(type, a.flat)))):
        raise ExactAlgError("entries are not all integers")
    return a


def _max_abs(a: np.ndarray) -> int:
    """max |a| as a Python int, from the array's max and min: no entry is
    negated in the array's own dtype, where -(-2^63) wraps in int64."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _int_matmul(rows: np.ndarray | Sequence[Sequence[int]],
                vecs: Sequence[Sequence[int]]) -> np.ndarray:
    """Exact rows @ vecs^T of integer rows (lists, or an integer or object
    array) and vecs, both checked by `_int_array`, in the first of three
    tiers that the bound B = max|rows| * max|vecs| * width admits. No product
    and no partial sum exceeds B, in any summation order, so below 2^53 every
    one is an integer that float64 holds exactly, with or without a fused
    multiply-add: the BLAS float64 product is exact and so is its cast back
    to int64. Below 2^62 the product is taken in int64; otherwise in object
    arithmetic on Python integers."""
    if not len(rows) or not len(vecs):
        return np.zeros((len(rows), len(vecs)), dtype=np.int64)
    a, b = _int_array(rows), _int_array(vecs).T
    if a.shape[1] != b.shape[0]:
        raise ExactAlgError(f"rows of width {a.shape[1]} against vectors of {b.shape[0]}")
    bound = _max_abs(a) * _max_abs(b) * a.shape[1]
    if bound < 2 ** 53:
        # by blocks of rows, so that no float64 copy of a large `rows` is made
        out, bf = np.empty((len(a), b.shape[1]), dtype=np.int64), b.astype(np.float64)
        for i in range(0, len(a), 128):
            out[i:i + 128] = a[i:i + 128].astype(np.float64) @ bf
        return out
    if bound < 2 ** 62:
        return a.astype(np.int64) @ b.astype(np.int64)
    return a.astype(object) @ b


def _incidence(vectors: np.ndarray | Sequence[Sequence[int]],
               flats: np.ndarray | Sequence[Sequence[Sequence[int]]]) -> np.ndarray:
    """Bool (vector, flat): True where the vector pairs to zero with every
    row of the flat, from one `_int_matmul` against all the flats' rows. A
    flat given by the forms that cut it out holds the points it marks; one
    given by a spanning set lies on the forms it marks. Each flat has a row;
    flats of one size may come as a 3-D integer array."""
    if not all(map(len, flats)):
        raise ExactAlgError("a flat needs at least one row")
    rows = (flats.reshape(-1, flats.shape[-1]) if isinstance(flats, np.ndarray)
            else [row for flat in flats for row in flat])
    zero = _int_matmul(vectors, rows) == 0
    starts = np.cumsum([0, *map(len, flats)])[:-1]
    return np.logical_and.reduceat(zero, starts, axis=1)


def _reduce(rows: Sequence[Sequence[int]], pivots: Sequence[int],
            vec: Sequence[int]) -> list[int]:
    """vec reduced against echelon rows with the given pivot columns, by
    integer combinations; a vector of another length raises."""
    v = list(vec)
    if rows and len(v) != len(rows[0]):
        raise ExactAlgError(f"vector of length {len(v)} against rows of {len(rows[0])}")
    for row, p in zip(rows, pivots):
        if v[p]:
            a, b = row[p], v[p]
            g = math.gcd(a, b)
            ka, kb = a // g, b // g
            v = [ka * x - kb * y for x, y in zip(v, row)]
    return v


class _IntEchelon:
    """Incremental fully reduced integer echelon: the one exact elimination.

    Stored rows are primitive with a positive leading entry, sorted by
    pivot, and zero at one another's pivots. That form of a row space is
    unique, so the rows are a canonical key of the span whatever order the
    vectors came in, and a single forward pass decides membership of a new
    vector; one of another length raises. It names spans, tests membership
    and solves for chart coordinates, and certifies no rank: `ProjLine`'s
    key, `VanishingSpace.contains`, the tritangent P3 keys of `gems`,
    `rref_int`'s pencil keys and `_chart_coordinates`.
    """

    def __init__(self, vecs: Iterable[Sequence[int]] = ()) -> None:
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for vec in vecs:
            self.add(vec)

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.rows))

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(_reduce(self.rows, self.pivots, vec))

    def add(self, vec: Sequence[int]) -> bool:
        """Insert vec if independent of the span; report whether it was."""
        v = _reduce(self.rows, self.pivots, vec)
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
    """Fully reduced row echelon form over the integers: `_IntEchelon` in batch.

    Returns (echelon rows as primitive integer vectors, pivot column list).
    Rows may contain Fractions; they are cleared to integers by
    `_cleared_rows` (ragged rows raise) and added in order. The form is
    unique (see `_IntEchelon`), so it does not depend on the order of the rows.
    """
    ech = _IntEchelon(_cleared_rows(rows))
    return ech.rows, ech.pivots


@lru_cache(maxsize=128)
def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, deterministic below 3,215,031,751:
    with n - 1 = d * 2^s, d odd, each base a has a^d = 1 or a^(d 2^j) = -1.
    Cached: every `_echelon_mod` call tests its modulus."""
    if n < 11:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << j, n) == n - 1 for j in range(s))
               for a in (2, 3, 5, 7))


#: the primes `_kernel_primes` has found, in its order: each number below
#: them is tested once per process, where `_is_prime`'s cache would evict
_PRIMES: list[int] = list(SHADOW_PRIMES)


def _kernel_primes() -> Iterator[int]:
    """SHADOW_PRIMES, then every prime below them, descending (< 2^31) down to
    2, read from `_PRIMES`. A caller that needs more raises `_primes_ran_out`."""
    for i in itertools.count():
        if i == len(_PRIMES):
            below = next(filter(_is_prime, range(_PRIMES[-1] - 1, 1, -1)), None)
            if below is None:
                return
            _PRIMES.append(below)
        yield _PRIMES[i]


def _primes_ran_out(bound: int) -> ExactAlgError:
    return ExactAlgError(f"the kernel primes ran out before their product passed {bound}")


def _primes_past(bound: int) -> list[int]:
    """The shortest run of `_kernel_primes`, at least one, whose product
    exceeds bound: an integer of absolute value at most bound that all of
    them divide is zero."""
    primes = []
    for p in _kernel_primes():
        primes.append(p)
        if math.prod(primes) > bound:
            return primes
    raise _primes_ran_out(bound)


def _rational(x: int, m: int) -> Optional[tuple[int, int]]:
    """The a/b = x mod m with |a|, b <= sqrt(m/2), unique if any (Wang et al., 1982),
    as the reduced pair (a, b), b > 0, or None. Euclid's remainders halve
    every two steps: past 2 * bit_length(m) it raises."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, x % m, 0, 1
    for _ in range(2 * m.bit_length() + 2):
        if r1 <= bound:
            if abs(s1) > bound or math.gcd(r1, s1) != 1:
                return None
            return (r1, s1) if s1 > 0 else (-r1, -s1)
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    raise ExactAlgError(f"rational reconstruction mod {m} did not end")


def kernel_int(rows: Sequence[Sequence[Scalar]]) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel, one vector per free column
    over Q: elimination mod p, CRT, rational reconstruction, exact check.

    Each prime of `_kernel_primes` gives one vector per free column mod p
    (`_kernel_mod`). A prime whose (rank, pivots) is lower, or later at the
    same rank, than the best seen is unlucky and skipped; a better one
    restarts the CRT. The first reconstructed `_canonical_int_vector` basis
    that `_int_matmul` checks against the rows is returned, and it is the
    canonical one: the n - r_p checked vectors are independent kernel
    vectors, so r_Q <= r_p <= r_Q; by the echelon shape mod p each ends at
    its free column, and no kernel vector ends at a pivot column over Q, so
    the pivots agree. So for each free column fc the vector is unique: the
    `_canonical_int_vector` of the kernel vector that is 1 at fc and 0 at
    the other free columns, whose entry at each pivot column pc is
    -row[fc] / row[pc] in the `rref_int` echelon. With H the Hadamard bound
    of the cleared rows, entries are ratios of minors of size at most H and
    each unlucky prime divides one nonzero minor, so discarded primes
    multiply to at most H and a run past 2*H^2 is all lucky and
    reconstructs; passing either bound raises.
    """
    cleared = _cleared_rows(rows)
    if not cleared:
        return []
    mat = np.array(cleared, dtype=object)
    return _kernel(mat, *_echelon_mod(mat, SHADOW_PRIMES[0])[1:])


def _kernel(mat: np.ndarray, pivots: list[int], block: np.ndarray) -> list[tuple[int, ...]]:
    """`kernel_int` of the integer array `mat`, whose first prime p0 reads the
    given pivots and block of an `_echelon_mod` mod p0 of rows with mat's row
    space mod p0, on which alone the kernel mod p0 depends."""
    n = mat.shape[1]
    hadamard = math.prod(math.isqrt(sum(v * v for v in row)) + 1 for row in mat.tolist())
    primes = _kernel_primes()
    best, residues, modulus, discarded = None, None, 1, 1
    while modulus <= 2 * hadamard ** 2 and discarded <= hadamard:
        p = next(primes, None)
        if p is None:
            raise _primes_ran_out(2 * hadamard ** 2)
        if p != SHADOW_PRIMES[0]:
            _, pivots, block = _echelon_mod(mat, p)
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            discarded *= p
            continue
        vecs = _kernel_mod(block, pivots, n, p).astype(object)
        if key != best:
            best, residues, modulus, discarded = key, vecs, p, discarded * modulus
        else:
            residues = residues + modulus * ((vecs - residues) * pow(modulus, -1, p) % p)
            modulus *= p
        basis = _reconstructed_basis(residues, pivots, n, modulus)
        if basis is not None and not _int_matmul(mat, basis).any():
            return basis
    raise ExactAlgError("kernel did not verify within the Hadamard bound")


def _kernel_mod(block: np.ndarray, pivots: list[int], n: int, p: int) -> np.ndarray:
    """The kernel mod p of an `_echelon_mod` block, back-substituted: one
    vector per free column, 1 there and 0 at the other free columns, given
    by its entries at the pivot columns (one row per free column)."""
    a = block.reshape(len(pivots), n).copy()  # no pivots: (0, n), not (0, 0)
    for i, c in reversed(list(enumerate(pivots))):
        a[:i, c:] = (a[:i, c:] - a[:i, c, None] * a[i, c:]) % p
    free = sorted(set(range(n)) - set(pivots))
    return (-a[:, free].T) % p


def _reconstructed_basis(residues: np.ndarray, pivots: list[int], n: int,
                         modulus: int) -> Optional[list[tuple[int, ...]]]:
    """The canonical vectors of `_kernel_mod` residues, or None: `_rational`
    of each pivot entry, 1 at the vector's free column and 0 elsewhere, so
    only the pivot entries and that 1 are cleared, by the lcm of their
    denominators, and made primitive."""
    free = sorted(set(range(n)) - set(pivots))
    basis = []
    for fc, res in zip(free, residues.tolist()):
        pairs = [_rational(v, modulus) for v in res]
        if None in pairs:
            return None
        at = bisect.bisect(pivots, fc)
        lcm = math.lcm(*(b for _, b in pairs))
        ints = [a * (lcm // b) for a, b in pairs]
        vec = [0] * n
        cols = pivots[:at] + [fc] + pivots[at:]
        for c, v in zip(cols, _primitive_row(ints[:at] + [lcm] + ints[at:])):
            vec[c] = v
        basis.append(tuple(vec))
    return basis


def _chart_coordinates(basis: Sequence[Sequence[int]],
                       points: Sequence[ProjPoint]) -> list[ProjPoint]:
    """For each point x, the point u with sum(u_j * basis[j]) proportional to
    it. The `_IntEchelon` of the rows [basis[j] | e_j] has rows [E_i | T_i]
    with E_i = T_i B. The basis is independent exactly when every E_i has its
    pivot p_i in the first n columns; x in its span is then sum_i x[p_i] /
    E_i[p_i] E_i, so with L the lcm of the E_i[p_i], u = sum_i x[p_i] (L /
    E_i[p_i]) T_i: one `_int_matmul` for every point, and one more checks
    u B = L x. A dependent basis or a point off the span raises ExactAlgError."""
    k, n = len(basis), len(basis[0])
    ech = _IntEchelon([*b, *(int(i == j) for i in range(k))] for j, b in enumerate(basis))
    if ech.pivots[-1] < n:
        lcm = math.lcm(*(row[p] for row, p in zip(ech.rows, ech.pivots)))
        scaled = [[lcm // row[p] * t for t in row[n:]] for row, p in zip(ech.rows, ech.pivots)]
        us = _int_matmul([[pt.coords[p] for p in ech.pivots] for pt in points],
                         list(zip(*scaled)))
        if _int_matmul(us, list(zip(*basis))).tolist() == [[lcm * c for c in pt.coords]
                                                            for pt in points]:
            return [ProjPoint(u) for u in us.tolist()]
    raise ExactAlgError(f"a point is not in the span of {k} independent vectors")


#: columns per panel of `_echelon_mod`. A multiplier limb is at most
#: 2^16 - 1 and an entry reduced mod p at most 2^31 - 2, so the one product
#: [Lh | Ll] [U 2^16 mod p ; U], summed over 2W limb columns, is below
#: (2^16 - 1)(2^31 - 2) 2W; W = 32 is the largest power of two that keeps it
#: below 2^53, inside `_int_matmul`'s float64 tier (a wider panel would stay
#: exact, in its slower int64 tier).
_PANEL = 32


def _echelon_mod(rows: np.ndarray | Sequence[Sequence[Scalar]],
                 p: int) -> tuple[list[int], list[int], np.ndarray]:
    """Forward elimination over GF(p): (pivot rows, pivot columns, block).

    p must be a prime below 2^31 (else ExactAlgError), so a product of two
    reduced entries fits int64. `rows` is an integer or object array of
    integers (see `_int_array`), or rows of scalars of one length, each
    cleared by `_clear_row` (raising when p divides its denominator lcm).

    The columns go in panels of `_PANEL`. Inside a panel each column takes
    the per-column rule: rows from `rank` down are zero left of `col`, the
    first of them nonzero in `col` is swapped up to `rank` (the whole row
    from the panel on, `order` alike) and scaled to 1 at `col`, and only the
    rows below with a nonzero entry in `col` are updated, in the panel's
    columns, each keeping its multiplier in `col`. The panel's pivot rows
    then replay those steps on their trailing columns U, and every row
    below takes T -= L U mod p, with L its multipliers split into 16-bit
    limbs, L = Lh 2^16 + Ll: L U = [Lh | Ll] [U 2^16 mod p ; U] mod p is one
    exact float64 product (`_limb_product`) into one buffer. T
    takes the product unreduced, below 2^53, in place, and is then reduced
    once: T mod p = T - p floor(T / p), with the floor division written
    into the product's buffer, so no other buffer is made. The multipliers are
    zeroed afterwards. Every entry is the one the per-column rule over the
    whole width gives, so the pivot rows, columns and block are too. The
    pivot rows span the row space mod p; the block is the echelon they
    become, zero below each pivot.
    """
    if not (p < 2 ** 31 and _is_prime(p)):
        raise ExactAlgError(f"modulus {p} is not a prime below 2^31")
    if not len(rows):
        return [], [], np.zeros((0, 0), dtype=np.int64)
    if isinstance(rows, np.ndarray):
        a = (_int_array(rows) % p).astype(np.int64, copy=False)
    else:
        a = np.array([[v % p for v in r] for r in _cleared_rows(rows, p)], dtype=np.int64)
    m, n = a.shape
    order = list(range(m))
    cols: list[int] = []
    for start in range(0, n, _PANEL):
        top = len(cols)
        if top == m:
            break
        end = min(start + _PANEL, n)
        invs = []
        for col in range(start, end):
            rank = len(cols)
            if rank == m:
                break
            nonzero = rank + np.nonzero(a[rank:, col])[0]
            if nonzero.size == 0:
                continue
            piv = int(nonzero[0])
            if piv != rank:
                a[[rank, piv], start:] = a[[piv, rank], start:]
                order[rank], order[piv] = order[piv], order[rank]
            invs.append(pow(int(a[rank, col]), p - 2, p))
            a[rank, col:end] = a[rank, col:end] * invs[-1] % p
            # after the swap, the old row `rank` (zero in col) sits at `piv`
            below = nonzero[1:]
            if below.size:
                a[below, col + 1:end] = (a[below, col + 1:end]
                                         - a[below, col, None] * a[rank, col + 1:end]) % p
            cols.append(col)
        panel, mid = cols[top:], len(cols)
        if panel and end < n:
            for i, (col, inv) in enumerate(zip(panel, invs), top):
                a[i, end:] = a[i, end:] * inv % p
                a[i + 1:mid, end:] = (a[i + 1:mid, end:] - a[i + 1:mid, col, None] * a[i, end:]) % p
            if mid < m:
                t = a[mid:, end:]
                prod = _limb_product(a[mid:, panel], a[top:mid, end:], p)
                # T - L U lies in (-2^53, p): one floor division, into the
                # product's buffer, reduces it mod p
                t -= prod
                np.floor_divide(t, p, out=prod)
                prod *= p
                t -= prod
                del prod  # freed before the next panel's product is taken
        a[mid:, start:end] = 0
        a[top:mid, start:end][np.arange(start, end) < np.array(panel)[:, None]] = 0
    return order[:len(cols)], cols, a[:len(cols)]


def _limb_product(low: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """low @ u, congruent mod p, for int64 residues mod p and at most
    `_PANEL` columns in low: with low = Lh 2^16 + Ll in 16-bit limbs, the one
    float64 product [Lh | Ll] [u 2^16 mod p ; u] (`_int_matmul`), exact and
    unreduced, below 2^53 (see `_PANEL`)."""
    return _int_matmul(np.hstack([low >> 16, low & 0xFFFF]), np.vstack([(u << 16) % p, u]).T)


def _residue_products(rows: np.ndarray, vecs: np.ndarray, p: int) -> np.ndarray:
    """rows @ vecs^T mod p, in [0, p), for int64 residue rows mod p and an
    integer or object array of exact integer vecs. While (p - 1) max|vecs| n
    < 2^53, n the width, the product is `_int_matmul`'s exact float64 one,
    reduced once. Otherwise vecs are reduced mod p and the product goes in
    16-bit limbs (`_limb_product`), `_PANEL` columns of the width at a time,
    each piece reduced into the sum."""
    n = rows.shape[1]
    if (p - 1) * _max_abs(vecs) * n < 2 ** 53:
        return _int_matmul(rows, vecs) % p
    v = (vecs % p).astype(np.int64).T
    out = np.zeros((len(rows), v.shape[1]), dtype=np.int64)
    for j in range(0, n, _PANEL):
        out += _limb_product(rows[:, j:j + _PANEL], v[j:j + _PANEL], p)
        out %= p
    return out


def _pivot_rows(rows: np.ndarray | Sequence[Sequence[Scalar]], p: int) -> list[int]:
    """Indices of the rows that carry the pivots of an elimination over GF(p)
    (see `_echelon_mod`): independent mod p, spanning the row space mod p."""
    return _echelon_mod(rows, p)[0]


def rank_mod(rows: np.ndarray | Sequence[Sequence[Scalar]], p: int) -> int:
    """Rank over GF(p) of an integer array or of rows of scalars (see `_pivot_rows`).

    A minor that vanishes over Q vanishes mod p, so rank_p <= rank_Q, and
    full rank mod p is full rank over Q.
    """
    return len(_pivot_rows(rows, p))


def checked_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank r: with M the cleared rows, or their transpose when there
    are fewer rows than columns (the smaller kernel), and n its width, the
    `_kernel` of one `_echelon_mod` of M mod p0 = SHADOW_PRIMES[0] gives
    n - r_p0 independent, exactly checked kernel vectors of M (see
    `kernel_int`), so r_Q <= r_p0 <= r_Q = n - len(kernel), and r_p0 is read
    from that elimination's pivots. Every shadow prime must read r (else
    ShadowMismatch); rows of different lengths raise."""
    cleared = _cleared_rows(rows)
    if not cleared:
        return 0
    mat = np.array(cleared if len(cleared) >= len(cleared[0]) else list(zip(*cleared)),
                   dtype=object)
    first, second = SHADOW_PRIMES
    _, pivots, block = _echelon_mod(mat, first)
    r = mat.shape[1] - len(_kernel(mat, pivots, block))
    for p, rp in ((first, len(pivots)), (second, rank_mod(rows, second))):
        if rp != r:
            raise ShadowMismatch(f"rank {r} over Q but {rp} mod {p}")
    return r


# -- vanishing spaces ----------------------------------------------------------


@dataclass(frozen=True)
class VanishingSpace:
    """Forms of fixed degree vanishing on given points and lines.

    `dim` is always exact: independent members bound it from below and the
    modular rank of the evaluation rows at every prime bounds it from above.
    `method` records where the members came from: "kernel" (the integer
    kernel of the first prime's pivot rows, checked against every row) or
    "candidates" (forms supplied by the caller). `modular_ranks` holds the
    rank of the evaluation rows at each prime.
    """

    degree: int
    nvars: int
    dim: int
    basis: tuple[MPoly, ...]
    method: str
    modular_ranks: dict[int, int]

    def contains(self, form: MPoly) -> bool:
        """Whether form is in the span of the basis: its row of one
        `_member_array` with the basis, reduced against the echelon of theirs. A
        form in other variables raises; one with a term of another degree is not."""
        if form.nvars != self.nvars:
            raise ExactAlgError(f"form in {form.nvars} variables, space in {self.nvars}")
        if not form.is_homogeneous() or form.degree() not in (None, self.degree):
            return False
        *basis, vec = _member_array([*self.basis, form], self.nvars, self.degree).tolist()
        return _IntEchelon(basis).contains(vec)


def _evaluated(exps: Sequence[Sequence[int]], coords: np.ndarray | Sequence[Sequence[int]],
               p: int = 0) -> np.ndarray:
    """The monomials x^e, one column per exponent row e of `exps`, at the
    coordinate rows: the one evaluator, of `vanishing_space`'s rows and of
    `_values_at`. Each column is gathered from per-row power tables, and no
    exact entry exceeds max|coord|^d, d the top degree of `exps`.

    Without p the rows are exact: int64 when that bound is below 2^62, Python
    ints (dtype object) otherwise. With a prime p they are int64 residues in
    [0, p): below that bound computed exactly in int64 and reduced once,
    otherwise from the coordinates reduced mod p, reduced after every
    product, each of two residues below 2^31 and so inside int64.
    """
    e = np.array(exps, dtype=np.int64).reshape(len(exps), -1)
    a = (coords if isinstance(coords, np.ndarray) else np.array(coords, dtype=object)
         ).reshape(len(coords), e.shape[1])
    exact = _max_abs(a) ** int(e.sum(axis=1).max(initial=0)) < 2 ** 62
    step = 0 if exact else p  # past the int64 bound, a prime reduces every product
    if exact or step:
        a = (a % step if step else a).astype(np.int64)
    pows = np.ones((*a.shape, int(e.max(initial=0)) + 1), dtype=a.dtype)
    for k in range(1, pows.shape[2]):
        np.multiply(pows[:, :, k - 1], a, out=pows[:, :, k])
        if step:
            pows[:, :, k] %= step
    out = pows[:, 0, e[:, 0]]
    for i in range(1, e.shape[1]):
        out *= pows[:, i, e[:, i]]
        if step:
            out %= step
    if p and exact:
        out %= p
    return out


#: points per `_evaluated` call of `_values_at`
_BATCH = 2048


def _values_at(polys: Sequence[MPoly], points: np.ndarray | Sequence[Sequence[int]],
               p: int = 0) -> np.ndarray:
    """The forms at integer points: one row per point, one column per form.

    All coefficients of the call are cleared by one common denominator L
    (`_clear_row`, which raises when a prime p divides it), so each entry is
    L times a value: exact without p (int64, or Python ints past int64, as
    `_int_matmul` gives them), an int64 residue in [0, p) with p. One scale
    for the whole call keeps a projective image projective and a zero zero.
    The union of the forms' monomials, each packed key decoded once, is
    evaluated by `_evaluated`, `_BATCH` points at a time, and each batch
    takes one product with the cleared coefficient rows (`_int_matmul`, or
    `_residue_products` mod p).
    """
    terms = [poly.terms for poly in polys]
    keys = sorted(set().union(*terms))
    if not keys:  # every form is zero
        return np.zeros((len(points), len(polys)), dtype=np.int64)
    cleared = _clear_row([t.get(k, 0) for t in terms for k in keys], p)
    coeffs = np.array(cleared, dtype=object).reshape(len(polys), len(keys))
    exps = [tuple(k.to_bytes(polys[0].nvars + 1, "big")[1:]) for k in keys]
    out = [np.zeros((0, len(polys)), dtype=np.int64)]
    for i in range(0, len(points), _BATCH):
        rows = _evaluated(exps, points[i:i + _BATCH], p)
        out.append(_residue_products(rows, coeffs, p) if p else _int_matmul(rows, coeffs))
    return np.concatenate(out)


def _member_residues(exps: Sequence[Sequence[int]], coords: Sequence[Sequence[int]],
                     coeffs: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
    """The rows of `exps` at coords mod p0 = `SHADOW_PRIMES[0]` (`first`, when
    already evaluated), the first of `_primes_past(B)`, B = max|coord|^d
    max|coeff| n, after each row of coeffs is checked to vanish on the rows
    mod each of those primes (else ExactAlgError); each later prime's rows
    are freed once checked."""
    top = max((abs(c) for row in coords for c in row), default=0)
    bound = top ** sum(exps[0]) * _max_abs(coeffs) * len(exps)
    for q in _primes_past(bound):
        rows = first if q == SHADOW_PRIMES[0] and first is not None else _evaluated(exps, coords, q)
        if _residue_products(rows, coeffs, q).any():
            raise ExactAlgError("candidate fails a constraint, not a member")
        first = rows if first is None else first
    return first


def _member_array(polys: Sequence[MPoly], nvars: int, degree: int) -> np.ndarray:
    """`_clear_row(poly.coefficient_vector(degree))` of each form in nvars variables as the
    rows of one array (int64 where every entry fits, else Python ints) for member checks and
    span tests, from each form's own terms of that degree: one lcm, terms placed by key."""
    index = {k: i for i, k in enumerate(_packed_monomials(nvars, degree))}
    at, vals = [], []
    for r, poly in enumerate(polys):
        terms = [(r * len(index) + index[k], c) for k, c in poly.terms.items() if k in index]
        lcm = math.lcm(*(c.denominator for _, c in terms))
        at += [i for i, _ in terms]
        vals += [c.numerator * (lcm // c.denominator) for _, c in terms]
    top = max(map(abs, vals), default=0)
    out = np.zeros(len(polys) * len(index), dtype=np.int64 if top < 2 ** 63 else object)
    out[at] = vals
    return out.reshape(len(polys), len(index))


def _checked_pivots(exps: Sequence[Sequence[int]], blocks: Sequence[Sequence[tuple[int, ...]]],
                    coeffs: np.ndarray, target: int) -> list[tuple[int, ...]]:
    """The coordinate rows of p0's pivot rows in `vanishing_space`'s
    candidate route: each block's rows are checked, and their residues held
    and eliminated, until `target` are kept. Every residue array is freed
    on return."""
    first = SHADOW_PRIMES[0]
    kept: list[tuple[int, ...]] = []
    residues = np.zeros((0, len(exps)), dtype=np.int64)
    held: list[tuple[Sequence[tuple[int, ...]], np.ndarray]] = []
    for i, block in enumerate(blocks):
        if block:
            rows = _member_residues(exps, block, coeffs)
            if len(kept) < target:
                held.append((block, rows))
        if held and (len(kept) + sum(len(c) for c, _ in held) >= target
                     or i == len(blocks) - 1):
            # the held blocks are freed before the elimination copies its input
            rows = np.concatenate([residues, *(r for _, r in held)])
            kept += [c for cs, _ in held for c in cs]
            held.clear()
            pivots = _pivot_rows(rows, first)
            residues, kept = rows[pivots], [kept[j] for j in pivots]
    return kept


def vanishing_space(degree: int, nvars: int,
                    points: Sequence[ProjPoint] = (),
                    lines: Sequence[ProjLine] = (),
                    candidates: Sequence[MPoly] | None = None) -> VanishingSpace:
    """Exact basis of degree-d forms vanishing on the given points and lines.

    The rows: a point gives its coordinates and a line its d+1 parameter
    points (`ProjLine.parameter_points`); a degree-d binary form vanishing
    at d+1 points of a line vanishes on it, so a form that annihilates every
    evaluation row vanishes on the points and lines. The rows go in blocks
    in one fixed order: block j holds the j-th parameter row of every line,
    j from d down to 0, and the points come last as one block. A coordinate
    row that has already appeared, in its block or an earlier one, is
    dropped: its evaluation row is one already there, so it adds no rank
    and no check. Rows are evaluated on residues; only the kernel route
    builds exact rows, for the pivot rows that the first prime p0 keeps.

    The members are the supplied candidates, thinned to the pivot rows of
    their cleared coefficients (`_member_array`) mod p0, so independent mod
    p0 and over Q. Without candidates they are found first: p0 eliminates
    the residues of every row in one `_echelon_mod` call, and the members
    are the `_kernel` of the exact rows of its pivot rows, independent over
    Q, whose first prime takes that call's pivots and block: they span the
    same rows mod p0. Each member is checked against every row on residues
    (`_member_residues`): a residual row @ coeff is an integer of absolute
    value at most B = max|coord|^d max|coeff| n, and it is zero mod primes
    whose product exceeds B, so by the Chinese remainder theorem it is zero.
    A candidate that fails raises ExactAlgError; a kernel member that fails
    means p0 dropped the rank, and raises ShadowMismatch.

    With k exact independent members and n monomials, k <= dim and
    rank_p <= rank_Q <= n - k at every prime p, and a subset of the rows of
    rank n - k mod p0 proves rank_p0 = n - k. The candidate route stops
    there: until the pivot rows kept reach n - k, the blocks' residues mod
    p0 are held until the kept plus the held rows number n - k (or the
    blocks run out), and p0 then eliminates them in one call and keeps the
    new pivot rows, by their coordinate rows. A later prime evaluates and
    eliminates only p0's pivot rows: rank n - k there squeezes rank_p to
    n - k, and only a shortfall evaluates every row for it. Every n - rank_p
    must equal k (else ShadowMismatch), so dim = k; when p0 divides a minor
    that matters (candidates independent over Q but not mod p0), the call
    raises rather than certify a wrong dimension.
    """
    exps = monomials(nvars, degree)
    mono = _packed_monomials(nvars, degree)
    first, *later = SHADOW_PRIMES
    params = [line.parameter_points(degree + 1) for line in lines]
    blocks: list[list[tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    for block in [[pts[j] for pts in params] for j in range(degree, -1, -1)] + [
            [pt.coords for pt in points]]:
        blocks.append([c for c in dict.fromkeys(block) if c not in seen])
        seen.update(blocks[-1])
    rows = [c for block in blocks for c in block]
    if candidates is None:
        method = "kernel"
        residues = _evaluated(exps, rows, first)
        order, pivots, block = _echelon_mod(residues, first)
        kept = [rows[i] for i in order]
        vecs = _kernel(_evaluated(exps, kept), pivots, block)
        chosen = [MPoly._from_packed(nvars, dict(zip(mono, vec))) for vec in vecs]
        try:
            _member_residues(exps, rows, _member_array(chosen, nvars, degree), residues)
        except ExactAlgError:
            raise ShadowMismatch(f"rank mod {first} is below the rank over Q") from None
        del residues, block
    else:
        method = "candidates"
        if any(c.nvars != nvars or c.degree() != degree or not c.is_homogeneous()
               for c in candidates):
            raise ExactAlgError("candidate of wrong degree or ring")
        # the thinning takes the residues mod p0 of the member checks' array
        coeffs = _member_array(candidates, nvars, degree)
        thinned = _pivot_rows((coeffs % first).astype(np.int64), first)
        chosen = [candidates[i] for i in sorted(thinned)]
        kept = _checked_pivots(exps, blocks, coeffs, len(mono) - len(chosen))
    ranks = {first: len(kept)}
    for p in later:
        rp = len(_pivot_rows(_evaluated(exps, kept, p), p))
        ranks[p] = rp if rp == len(mono) - len(chosen) else rank_mod(_evaluated(exps, rows, p), p)
    for p, rp in ranks.items():
        if len(mono) - rp != len(chosen):
            raise ShadowMismatch(
                f"member span {len(chosen)} does not meet modular bound "
                f"{len(mono) - rp} mod {p}")
    return VanishingSpace(degree, nvars, len(chosen), tuple(chosen), method, ranks)


# -- seeded sampling -----------------------------------------------------------

#: trials allowed per requested result before a sampled check gives up
DRAWS_PER_RESULT = 100

_T = TypeVar("_T")


def _seed_digest(seed: int, name: str) -> bytes:
    """sha256 of "seed:name", from which every derived seed and stream is read."""
    return hashlib.sha256(f"{seed}:{name}".encode()).digest()


def _task_rng(seed: int, task: str) -> random.Random:
    """Task-owned generator: independent streams from one master seed."""
    return random.Random(int.from_bytes(_seed_digest(seed, task)[:8], "big"))


def _sample(rng: random.Random, count: int,
            draw: Callable[[random.Random, int], np.ndarray],
            check: Callable[[np.ndarray], list[_T]]) -> list[_T]:
    """The first `count` accepted results, in trial order, of trials drawn
    and checked a round at a time: the one sampler.

    A round draws k candidates at once, `draw(rng, k)`, and `check` returns
    the results of those it accepts, in order; a rule that depends on
    earlier trials is applied while walking the round in order, and a
    failing trial raises for the first one that fails. k is the number of
    results still missing, so every trial of a round is one that a loop of
    single trials would also run before it stops, and the results and the
    draws from rng are that loop's. After DRAWS_PER_RESULT * count trials
    (the last round is cut to that cap) the sampler gives up with
    ExactAlgError, so a degenerate stream fails the check instead of hanging.
    """
    cap = DRAWS_PER_RESULT * count
    out: list[_T] = []
    trials = 0
    while len(out) < count and trials < cap:
        k = min(count - len(out), cap - trials)
        out += check(draw(rng, k))
        trials += k
    if len(out) < count:
        raise ExactAlgError(f"draw cap of {cap} trials reached with "
                            f"{len(out)} of {count} results accepted")
    return out


def _draws_below(rng: random.Random, n: int, count: int) -> np.ndarray:
    """count values of `rng.randrange(n)`, in order, as int64, leaving rng
    in the state those calls leave: for 0 < n < 2^32 (else ExactAlgError)
    each try of `randrange` takes one 32-bit word, keeps its top
    n.bit_length() bits and rejects a value >= n, and getrandbits(32 m)
    takes the next m words, the first least significant. Each round asks
    for as many words as draws are missing, so the last word taken is the
    last accepted draw's."""
    if not 0 < n < 2 ** 32:
        raise ExactAlgError(f"draws below {n} need 0 < n < 2^32")
    out, missing = [np.zeros(0, dtype=np.int64)], count
    while missing:
        words = np.frombuffer(rng.getrandbits(32 * missing).to_bytes(4 * missing, "little"),
                              dtype="<u4") >> (32 - n.bit_length())
        out.append(words[words < n].astype(np.int64))
        missing -= len(out[-1])
    return np.concatenate(out)


def _draws(rng: random.Random, n: int, count: int) -> np.ndarray:
    """count nonzero vectors in [-9, 9]^n, the rows of an int64 array; small
    entries keep exact bit lengths down. Each vector is n values of
    `rng.randint(-9, 9)`, that is randrange(19) - 9 (`_draws_below`), and an
    all-zero vector is drawn again, through `_sample` and its cap: the
    vectors and the final state of count such draws made one at a time."""
    rows = _sample(rng, count, lambda rng, k: (_draws_below(rng, 19, n * k) - 9).reshape(k, n),
                   lambda rows: list(rows[rows.any(axis=1)]))
    return np.array(rows, dtype=np.int64).reshape(count, n)
