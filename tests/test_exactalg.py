"""Exact algebra layer: ring axioms, calculus rules, linear algebra oracles."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modgem import exactalg
from modgem.exactalg import (
    DRAWS_PER_RESULT,
    SHADOW_PRIMES,
    ExactAlgError,
    MPoly,
    ProjLine,
    ProjPoint,
    ShadowMismatch,
    checked_rank,
    det_poly,
    elementary_symmetric,
    hessian_det,
    kernel_int,
    monomials,
    power_sum,
    proportional,
    rank_mod,
    restrictions,
    rref_int,
    substitute,
    vanishing_space,
    _canonical_int_vector,
    _chart_coordinates,
    _clear_row,
    _draws,
    _draws_below,
    _IntEchelon,
    _evaluated,
    _incidence,
    _int_matmul,
    _is_prime,
    _kernel_primes,
    _member_array,
    _pivot_rows,
    _primes_past,
    _residue_products,
    _rational,
    _sample,
    _task_rng,
    _values_at,
)

from fraction_rank import on_line, reference_rank, reference_rref


def _vars(n):
    return [MPoly.var(i, n) for i in range(n)]


# -- random polynomial strategy ------------------------------------------------

coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw, nvars=3, max_deg=3, max_terms=5):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        exp = tuple(draw(st.integers(min_value=0, max_value=max_deg)) for _ in range(nvars))
        terms[exp] = terms.get(exp, 0) + draw(coeffs)
    return MPoly(nvars, {e: Fraction(c) for e, c in terms.items() if c})


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + MPoly.zero(3) == p
    assert p * MPoly.constant(3, 1) == p
    assert (p - p).is_zero()


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_product_rule(p, q):
    for i in range(3):
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


@given(polys(), polys(), st.lists(coeffs, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(p, q, vals):
    assert (p + q).eval(vals) == p.eval(vals) + q.eval(vals)
    assert (p * q).eval(vals) == p.eval(vals) * q.eval(vals)


@given(polys(nvars=2, max_deg=2, max_terms=4), polys(nvars=2, max_deg=2, max_terms=4))
@settings(max_examples=40, deadline=None)
def test_substitution_is_a_homomorphism(p, q):
    u = MPoly.var(0, 2)
    v = MPoly.var(1, 2)
    images = [u + v, u * v]
    assert (p + q).subs(images) == p.subs(images) + q.subs(images)
    assert (p * q).subs(images) == p.subs(images) * q.subs(images)


mixed_coeffs = st.one_of(coeffs, st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def mixed_polys(draw, nvars=2, max_deg=2, max_terms=4):
    """Polynomials given int and Fraction coefficients in the same term dict."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exp = tuple(draw(st.integers(min_value=0, max_value=max_deg)) for _ in range(nvars))
        terms[exp] = draw(mixed_coeffs)
    return MPoly(nvars, terms)


def assert_no_float(*polys):
    """Every coefficient is in normal form: an int, or a Fraction that is not one."""
    for poly in polys:
        for _, c in poly.iter_terms():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def fraction_eval(poly, point):
    """All-Fraction oracle for MPoly.eval."""
    total = Fraction(0)
    for exp, c in poly.iter_terms():
        m = Fraction(c)
        for v, e in zip(point, exp):
            m *= Fraction(v) ** e
        total += m
    return total


def top_part(poly):
    """The homogeneous part of highest degree."""
    d = poly.degree()
    return MPoly(poly.nvars, {e: c for e, c in poly.iter_terms() if sum(e) == d})


def assert_line_restriction(poly, p, q):
    """The binary form of restrict_to_line agrees with the Fraction oracle at
    d+1 distinct points (s:t) of the line, which determines a degree-d form."""
    out = poly.restrict_to_line(p, q)
    d = len(out) - 1
    for s, t in [(1, k) for k in range(d)] + [(0, 1)]:
        form = sum((v * Fraction(s) ** (d - j) * Fraction(t) ** j
                    for j, v in enumerate(out)), Fraction(0))
        assert form == fraction_eval(poly, [s * a + t * b for a, b in zip(p, q)])


point_ints = st.lists(coeffs, min_size=2, max_size=2)
point_fracs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                       min_size=2, max_size=2)


@given(mixed_polys(), mixed_polys(), mixed_polys(), mixed_coeffs,
       point_ints, point_ints, point_fracs, point_fracs)
@settings(max_examples=60, deadline=None)
def test_mixed_coefficients_keep_the_ring_exact(p, q, r, c, x, y, u, v):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p * c) * q == p * (q * c)
    images = [p + q, r * c]
    subs_sum, subs_prod = (p + q).subs(images), (p * q).subs(images)
    assert subs_sum == p.subs(images) + q.subs(images)
    assert subs_prod == p.subs(images) * q.subs(images)
    assert_no_float(p + q, p - q, p * q, p * c, p ** 2, p.diff(0), subs_sum, subs_prod)
    rows = [f.coefficient_vector(2) for f in (p, q, r, p * c)]
    for row in rows:
        assert all(type(v) is int for v in _clear_row(row))
    for prime in SHADOW_PRIMES:
        assert type(rank_mod(rows, prime)) is int
    for poly in (p, q, p * q, subs_prod, MPoly.constant(2, c), MPoly.zero(2)):
        for point in (x, u):
            assert poly.eval(point) == fraction_eval(poly, point)
        top = top_part(poly)
        assert_line_restriction(top, x, y)
        assert_line_restriction(top, u, v)
        assert_line_restriction(top, x, v)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3),
       st.data())
@settings(max_examples=80, deadline=None)
def test_member_array_holds_the_cleared_coefficient_vectors(nvars, degree, data):
    # Fraction coefficients, integers past int64, terms of other degrees
    # (which the row leaves out), and no forms at all: nvars is the call's;
    # int64 exactly when every entry fits
    exps = st.lists(st.integers(min_value=0, max_value=degree + 1), min_size=nvars,
                    max_size=nvars).map(tuple)
    values = st.one_of(mixed_coeffs, st.integers(min_value=-2 ** 90, max_value=2 ** 90),
                       st.fractions(max_denominator=2 ** 70))
    forms = data.draw(st.lists(st.dictionaries(exps, values, max_size=8).map(
        lambda terms: MPoly(nvars, terms)), max_size=4))
    got = _member_array(forms, nvars, degree)
    rows = [_clear_row(f.coefficient_vector(degree)) for f in forms]
    assert got.tolist() == rows
    top = max((abs(v) for row in rows for v in row), default=0)
    assert got.dtype == (np.int64 if top < 2 ** 63 else object)


@pytest.mark.parametrize("make", [
    lambda: MPoly(1, {(1,): 0.1}),
    lambda: MPoly(2, {(1, 0): 1, (0, 1): 0.0}),
    lambda: MPoly.constant(2, 0.5),
    lambda: MPoly.linear([1, 2.0]),
    lambda: MPoly.from_terms(1, [((1,), 0.25)]),
], ids=["init", "init-zero", "constant", "linear", "from-terms"])
def test_float_coefficient_is_rejected(make):
    # a float would be taken at its binary value, 0.1 as 3602879701896397/2^55
    with pytest.raises(ExactAlgError, match="not an exact rational"):
        make()


def test_integral_coefficients_are_stored_as_int():
    p = MPoly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): True})
    assert [type(c) for _, c in p.iter_terms()] == [int, Fraction, int]
    assert type(dict((p * 3).iter_terms())[(0, 1)]) is int
    assert type(proportional(p * 3, p)) is Fraction
    q = MPoly(2, {(2, 0): 3, (1, 1): -1, (0, 2): Fraction(4, 2)})
    assert type(q.eval([2, -5])) is int
    assert type(MPoly(1, {(1,): Fraction(1, 2)}).eval([Fraction(4)])) is int
    zero, half = MPoly.zero(3), MPoly.constant(3, Fraction(1, 2))
    assert zero.eval([1, 2, 3]) == 0 and type(zero.eval([1, 2, 3])) is int
    assert half.eval([Fraction(1, 3), 2, 3]) == Fraction(1, 2)
    assert all(type(v) is int for v in q.restrict_to_line([1, 2], [-3, 1]))


# -- packed exponent keys against a tuple-keyed reference ----------------------

LIMIT = 2 ** exactalg.EXP_BITS


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _nonzero(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _nonzero(out)


def ref_diff(a, i):
    return _nonzero({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]})


def ref_eval(a, point):
    return sum((Fraction(c) * math.prod(Fraction(v) ** e for v, e in zip(point, exp))
                for exp, c in a.items()), Fraction(0))


def ref_subs(a, images, nvars):
    """images[i] is a tuple-keyed dict in nvars variables."""
    out = {}
    for exp, c in a.items():
        piece = {(0,) * nvars: c}
        for image, e in zip(images, exp):
            for _ in range(e):
                piece = ref_mul(piece, image)
        out = ref_add(out, piece)
    return out


def ref_line(a, p, q, d):
    """The binary form of a degree-d form at s*p + t*q, ordered s^d .. t^d:
    each term's coefficient list multiplied by (s*p_i + t*q_i) e_i times."""
    out = [0] * (d + 1)
    for exp, c in a.items():
        form = [c]
        for x, y, e in zip(p, q, exp):
            for _ in range(e):
                form = [u * x + w * y for u, w in zip(form + [0], [0] + form)]
        out = [u + w for u, w in zip(out, form)]
    return out


@st.composite
def tuple_terms(draw, nvars, degree, max_terms=3, homogeneous=False):
    """A tuple-keyed term dict in nvars variables of degree at most `degree`,
    which it often reaches, with the degree split at random cut points."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        deg = degree if homogeneous else draw(st.one_of(
            st.just(degree), st.integers(min_value=0, max_value=degree)))
        cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=deg),
                                    min_size=nvars - 1, max_size=nvars - 1)))
        terms[tuple(b - a for a, b in zip([0, *cuts], [*cuts, deg]))] = draw(mixed_coeffs)
    return terms


near_limit = st.one_of(st.integers(min_value=0, max_value=LIMIT - 1),
                       st.integers(min_value=LIMIT - 4, max_value=LIMIT - 1))


int_or_mixed = st.sampled_from([coeffs, mixed_coeffs])


@given(st.integers(min_value=1, max_value=6), near_limit, int_or_mixed, st.data())
@settings(max_examples=60, deadline=None)
def test_packed_ring_operations_match_the_tuple_reference(n, d, xs, data):
    # a termless or degree-0 draw is the zero or a constant form; the points
    # are integer or mixed, and a value is in normal form, an int when integral
    a = data.draw(tuple_terms(n, d))
    b = data.draw(tuple_terms(n, LIMIT - 1 - d))
    p, q = MPoly(n, a), MPoly(n, b)
    assert dict(p.iter_terms()) == _nonzero(a)
    assert dict((p + q).iter_terms()) == ref_add(a, b)
    assert dict((p * q).iter_terms()) == ref_mul(a, b)
    for i in range(n):
        assert dict(p.diff(i).iter_terms()) == ref_diff(a, i)
    point = data.draw(st.lists(xs, min_size=n, max_size=n))
    value = p.eval(point)
    assert value == ref_eval(a, point)
    assert type(value) is int or value.denominator > 1
    with pytest.raises(ExactAlgError, match="value count mismatch"):
        p.eval(point + [1])
    assert (p * q).degree() == max((sum(e) for e in ref_mul(a, b)), default=None)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       near_limit, st.data())
@settings(max_examples=40, deadline=None)
def test_packed_subs_matches_the_tuple_reference(n, m, d, data):
    # images of high degree are monomials, so the reference stays small
    a = data.draw(tuple_terms(n, d))
    top = (LIMIT - 1) // max(d, 1)
    img_degree = data.draw(st.integers(min_value=0, max_value=top))
    wide = d * img_degree <= 12
    images = [data.draw(tuple_terms(m, img_degree, max_terms=3 if wide else 1))
              for _ in range(n)]
    packed = MPoly(n, a).subs([MPoly(m, im) for im in images])
    assert dict(packed.iter_terms()) == ref_subs(a, [_nonzero(im) for im in images], m)


@given(st.integers(min_value=1, max_value=6),
       st.one_of(st.integers(min_value=0, max_value=8),
                 st.integers(min_value=LIMIT - 3, max_value=LIMIT - 1)), st.data())
@settings(max_examples=30, deadline=None)
def test_packed_restrict_to_line_matches_the_tuple_reference(n, d, data):
    a = _nonzero(data.draw(tuple_terms(n, d, homogeneous=True)))
    p, q = (data.draw(st.lists(coeffs, min_size=n, max_size=n)) for _ in range(2))
    assert MPoly(n, a).restrict_to_line(p, q) == (ref_line(a, p, q, d) if a else [0])


@pytest.mark.parametrize("make", [
    lambda: MPoly(2, {(-1, 0): 1, (0, 0): 2}),
    lambda: MPoly.from_terms(2, [((1, -1), 3)]),
    lambda: MPoly(1, {(LIMIT,): 1}),
    lambda: MPoly(2, {(LIMIT // 2, LIMIT // 2): 1}),
    lambda: MPoly(1, {(LIMIT - 2,): 1}) * MPoly(1, {(2,): 1}),
    lambda: MPoly.var(0, 3) ** LIMIT,
    lambda: MPoly(1, {(2,): 1}).subs([MPoly(1, {(LIMIT // 2,): 1})]),
], ids=["negative", "negative-from-terms", "exponent-at-limit", "degree-at-limit",
        "product-at-limit", "power-at-limit", "subs-at-limit"])
def test_exponents_outside_the_packed_fields_raise(make):
    with pytest.raises(ExactAlgError):
        make()


def test_degree_one_below_the_limit_is_kept():
    x = MPoly.var(0, 2)
    p = x ** (LIMIT - 2) * MPoly.var(1, 2)
    assert p.degree() == LIMIT - 1 and p.is_homogeneous()
    assert dict(p.iter_terms()) == {(LIMIT - 2, 1): 1}
    assert dict(p.diff(0).iter_terms()) == {(LIMIT - 3, 1): LIMIT - 2}
    # x^2 -> y^127 gives y^254; a zero image counts degree 0
    y127 = MPoly(1, {(LIMIT // 2 - 1,): 1})
    assert MPoly(1, {(2,): 1}).subs([y127]) == MPoly(1, {(LIMIT - 2,): 1})
    assert MPoly(2, {(1, LIMIT - 2): 1}).subs([y127, MPoly.zero(1)]).is_zero()


# a form and images whose bound max_i |images[i]|^4 * |f| (sums of absolute
# values) is 2 (2k)^4: below 2^62 up to k = 19483, at or past it from 19484
SUBS_BOUND_K = 19483


@pytest.mark.parametrize("k", [SUBS_BOUND_K, SUBS_BOUND_K + 1])
def test_subs_rows_leave_int64_exactly_at_the_bound(monkeypatch, k):
    assert 2 * (2 * SUBS_BOUND_K) ** 4 < 2 ** 62 <= 2 * (2 * SUBS_BOUND_K + 2) ** 4
    dtypes = []
    step = exactalg._level_step

    def spy(polys, *args):
        dtypes.append(polys.dtype)
        return step(polys, *args)

    monkeypatch.setattr(exactalg, "_level_step", spy)
    a = {(4, 0): 1, (3, 1): -1}
    images = [{(1, 0): k, (0, 1): k}, {(1, 0): k, (0, 1): -k}]
    packed = MPoly(2, a).subs([MPoly(2, im) for im in images])
    assert dict(packed.iter_terms()) == ref_subs(a, images, 2)
    tier = {np.dtype(np.int64) if k == SUBS_BOUND_K else np.dtype(object)}
    assert set(dtypes) == tier
    # the bound is taken over the whole batch: a substitution past it sends
    # a small one beside it to Python ints too
    dtypes.clear()
    small = [{(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}]
    batch = substitute([MPoly(2, a)], [[MPoly(2, im) for im in small],
                                       [MPoly(2, im) for im in images]])[0]
    assert [dict(p.iter_terms()) for p in batch] == [ref_subs(a, small, 2),
                                                     ref_subs(a, images, 2)]
    assert set(dtypes) == tier


@pytest.mark.parametrize("scale", [1, 2 ** 70], ids=["int64", "past-int64"])
def test_subs_with_fraction_and_zero_images_matches_the_tuple_reference(scale):
    # images over different denominators (lcm 6 and 20), one of mixed
    # degree, and a zero image; the form is not homogeneous
    a = {(3, 0, 1): Fraction(2, 7), (1, 1, 1): -5, (0, 2, 0): Fraction(3, 4),
         (2, 0, 0): Fraction(scale, 11), (0, 0, 0): 9}
    images = [{(1, 0): Fraction(1, 3), (0, 1): Fraction(-5, 2)},
              {},
              {(2, 0): Fraction(7, 10), (0, 0): Fraction(1, 4), (1, 1): 3}]
    packed = MPoly(3, a).subs([MPoly(2, im) for im in images])
    assert dict(packed.iter_terms()) == ref_subs(a, images, 2)
    assert_no_float(packed)


wide_coeffs = st.one_of(mixed_coeffs, st.integers(min_value=-2 ** 70, max_value=2 ** 70))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_a_batch_is_each_form_under_each_substitution(n, m, data):
    # forms of degree 0-3 with int, Fraction and past-int64 coefficients,
    # always with a zero and a degree-1 form among them, under images of
    # degree 0-2, the first substitution with a zero image
    def terms(nvars, degree):
        return {e: data.draw(wide_coeffs) for e in data.draw(tuple_terms(nvars, degree))}
    forms = [terms(n, d) for d in data.draw(st.lists(st.integers(0, 3), max_size=3))]
    forms += [{}, terms(n, 1)]
    subs = [[terms(m, data.draw(st.integers(0, 2))) for _ in range(n)]
            for _ in range(data.draw(st.integers(1, 3)))]
    subs[0][0] = {}
    polys_, images = [MPoly(n, a) for a in forms], [[MPoly(m, im) for im in ims] for ims in subs]
    out = substitute(polys_, images)
    assert [len(row) for row in out] == [len(subs)] * len(forms)
    for a, f, row in zip(forms, polys_, out):
        for ims, im_polys, got in zip(subs, images, row):
            assert got == f.subs(im_polys)
            assert dict(got.iter_terms()) == ref_subs(_nonzero(a), [_nonzero(im) for im in ims], m)
    assert substitute(polys_, []) == [[] for _ in forms] and substitute([], images) == []
    # the same forms restricted to bases of m vectors: x = sum(u_j * basis[j])
    bases = [[[data.draw(wide_coeffs) for _ in range(n)] for _ in range(m)]
             for _ in range(data.draw(st.integers(1, 3)))]
    bases[0][0] = [0] * n
    units = [tuple(int(t == j) for t in range(m)) for j in range(m)]
    for a, row in zip(forms, restrictions(polys_, bases)):
        assert [dict(got.iter_terms()) for got in row] == [
            ref_subs(_nonzero(a), [_nonzero({u: v[i] for u, v in zip(units, basis)})
                                   for i in range(n)], m) for basis in bases]
    assert restrictions(polys_, []) == [[] for _ in forms] and restrictions([], bases) == []


def test_substitution_multiplies_no_polynomials(monkeypatch):
    x, y, z = _vars(3)
    f = x ** 3 - 2 * x * y * z + Fraction(1, 3) * z ** 2 * y
    images = [y + z, x * Fraction(2, 5), MPoly.zero(3)]
    basis, p, q = [[1, 0, 2], [0, 3, 1]], [1, -1, 2], [0, 4, Fraction(1, 2)]
    # and in a batch: two forms, one of them linear and not homogeneous
    g = MPoly.linear([Fraction(2, 3), 0, -1]) + MPoly.constant(3, 5)
    images2, basis2 = [z, x + y, x * x], [[2, 1, 0], [0, 0, Fraction(1, 7)]]
    batched = lambda: [substitute([f, g], [images, images2]),
                       restrictions([f, g], [basis, basis2])]
    on_span = lambda h, b: restrictions([h], [b])[0][0]
    want = [f.subs(images), on_span(f, basis), f.restrict_to_line(p, q), batched()]
    assert want[3] == [[[h.subs(ims) for ims in (images, images2)] for h in (f, g)],
                       [[on_span(h, b) for b in (basis, basis2)] for h in (f, g)]]
    calls = []
    mul = MPoly.__mul__

    def spy(self, other):
        calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(MPoly, "__mul__", spy)
    monkeypatch.setattr(MPoly, "__rmul__", spy)
    assert [f.subs(images), on_span(f, basis), f.restrict_to_line(p, q), batched()] == want
    assert calls == []


# -- degree and term order -----------------------------------------------------

def test_zero_degree_is_none():
    assert MPoly.zero(4).degree() is None
    assert MPoly.constant(4, 5).degree() == 0


def test_grevlex_monomial_order():
    # deg-2 monomials in 3 vars, x0 > x1 > x2
    mono = monomials(3, 2)
    assert mono == ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))
    assert len(monomials(5, 3)) == 35
    assert len(monomials(6, 5)) == 252


def test_leading_term_and_str():
    x, y, z = _vars(3)
    p = 2 * x * y - z ** 2 + 3 * y ** 2
    exp, c = p.leading()
    assert exp == (1, 1, 0) and c == 2
    assert p.to_str() == "2*x0*x1 + 3*x1^2 - x2^2"


def test_leading_term_is_graded_lex_not_grevlex():
    # grevlex puts x1^2 first (it is what `sorted_terms` and `to_str` use);
    # the leading term is the largest packed key, where x0*x2 wins on x0
    x, y, z = _vars(3)
    p = x * z + y ** 2
    assert p.leading() == ((1, 0, 1), 1)
    assert p.sorted_terms()[0] == ((0, 2, 0), 1)
    assert p.to_str() == "x1^2 + x0*x2"


# -- symmetric functions ---------------------------------------------------------

def test_elementary_symmetric_small():
    xs = _vars(4)
    s1 = elementary_symmetric(1, xs)
    s4 = elementary_symmetric(4, xs)
    assert s1 == xs[0] + xs[1] + xs[2] + xs[3]
    assert s4 == xs[0] * xs[1] * xs[2] * xs[3]
    assert len(elementary_symmetric(2, xs).terms) == 6
    assert elementary_symmetric(0, xs) == MPoly.constant(4, 1)


def test_newton_identity_degree_two():
    xs = _vars(5)
    p1 = power_sum(1, xs)
    p2 = power_sum(2, xs)
    s1 = elementary_symmetric(1, xs)
    s2 = elementary_symmetric(2, xs)
    assert p2 == s1 * p1 - 2 * s2


# -- proportionality -------------------------------------------------------------

def test_proportional_conventions():
    x, y, z = _vars(3)
    p = x * y - z ** 2
    assert proportional(3 * p, p) == 3
    assert proportional(p * Fraction(-2, 7), p) == Fraction(-2, 7)
    assert proportional(MPoly.zero(3), MPoly.zero(3)) == 1
    assert proportional(p, MPoly.zero(3)) is None
    assert proportional(MPoly.zero(3), p) is None
    assert proportional(p, p + x ** 2) is None


# -- calculus oracles -------------------------------------------------------------

def test_hessian_of_cubic_pair():
    x, y = _vars(2)
    assert hessian_det(x ** 3 + y ** 3) == 36 * x * y


def test_hessian_of_quadric_is_constant():
    xs = _vars(3)
    q = xs[0] ** 2 + 2 * xs[1] ** 2 + 3 * xs[2] ** 2
    assert hessian_det(q) == MPoly.constant(3, 48)


def test_det_poly_matches_bareiss_on_constants():
    mat = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    pm = [[MPoly.constant(1, v) for v in row] for row in mat]
    # 3*(25 - 54) - 1*(5 - 18) + 4*(6 - 10)
    assert det_poly(pm) == MPoly.constant(1, -90)


# -- restriction --------------------------------------------------------------

def test_restrict_to_subspace():
    x, y, z = _vars(3)
    f = x ** 2 + y ** 2 + z ** 2
    # span{(1,1,0),(0,0,1)}: u^2 coefficient doubles
    g = restrictions([f], [[[1, 1, 0], [0, 0, 1]]])[0][0]
    u, v = _vars(2)
    assert g == 2 * u ** 2 + v ** 2


def test_restrictions_check_the_shape_and_exactness_of_their_bases():
    f = MPoly.linear([1, 2, 3])
    for bases, match in [
            ([[[1, 0, 0], [0, 1, 0]], [[1, 0, 0]]], "bases of different lengths"),
            # one entry short: a bare zip would drop the third coordinate
            ([[[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1]]], "basis vectors must match nvars"),
            ([[[1, 0, 0], [0, 0.5, 0]]], "is not an exact rational")]:
        with pytest.raises(ExactAlgError, match=match):
            restrictions([f], bases)


def test_restrict_to_line_sees_all_roots():
    x, y, z = _vars(3)
    f = x * y * z  # cubic vanishing on the line z=0
    assert all(c == 0 for c in f.restrict_to_line([1, 0, 0], [0, 1, 0]))
    g = x ** 3
    assert any(c != 0 for c in g.restrict_to_line([1, 0, 0], [0, 1, 0]))


def test_restrict_to_line_checks_its_points_and_its_form():
    # points of any length but nvars raise, longer ones too, for the zero
    # form as well
    f = MPoly.linear([1, 2])
    for p, q in [([1, 0, 5], [0, 1, 7]), ([1], [0])]:
        for form in (f, MPoly.zero(2)):
            with pytest.raises(ExactAlgError, match="basis vectors must match nvars"):
                form.restrict_to_line(p, q)
    assert f.restrict_to_line([1, 0], [0, 1]) == [1, 2]
    assert MPoly.zero(2).restrict_to_line([1, 0], [0, 1]) == [0]
    x, y = _vars(2)
    with pytest.raises(ExactAlgError, match="needs a homogeneous polynomial"):
        (x ** 2 + y).restrict_to_line([1, 0], [0, 1])


# -- projective points and lines -----------------------------------------------

def test_point_canonicalization():
    assert ProjPoint([2, -4, 6]).coords == (1, -2, 3)
    assert ProjPoint([-1, 2]).coords == (1, -2)
    assert ProjPoint([Fraction(1, 2), Fraction(1, 3)]).coords == (3, 2)
    assert ProjPoint([0, 0, -5]).coords == (0, 0, 1)
    with pytest.raises(ExactAlgError):
        ProjPoint([0, 0, 0])


def _reference_point(coords):
    """Projective normal form by Fraction arithmetic: clear the denominators,
    divide by the gcd, make the first nonzero entry positive."""
    fracs = [Fraction(c) for c in coords]
    denom = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


@given(st.lists(st.one_of(st.integers(min_value=-60, max_value=60),
                          st.fractions(min_value=-60, max_value=60, max_denominator=40)),
                min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_point_normal_form_matches_the_fraction_reference(coords):
    if not any(coords):
        with pytest.raises(ExactAlgError, match="zero vector"):
            ProjPoint(coords)
        return
    pt = ProjPoint(coords)
    assert pt.coords == _reference_point(coords)
    assert all(type(c) is int for c in pt.coords)


@pytest.mark.parametrize("coords", [[0.1, 1], [1, 2.0], [Fraction(1, 3), 0.5]])
def test_float_coordinate_is_rejected(coords):
    # Fraction(0.1) would take 0.1 at its binary value, 3602879701896397/2^55
    with pytest.raises(ExactAlgError, match="not all exact rationals"):
        ProjPoint(coords)


def test_line_key_independent_of_spanning_pair():
    a = ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
    b = ProjLine(ProjPoint([1, 1, 0, 0]), ProjPoint([1, -3, 0, 0]))
    c = ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 0, 1, 0]))
    assert a == b and hash(a) == hash(b)
    assert a != c
    # a point of the line spans it with either spanning point
    assert a == ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([5, 7, 0, 0]))
    assert a != ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([5, 7, 1, 0]))


def test_degenerate_line_rejected():
    with pytest.raises(ExactAlgError):
        ProjLine(ProjPoint([1, 2, 3]), ProjPoint([2, 4, 6]))


def test_point_of_another_space_is_rejected():
    # the reduction used to zip the point down to the echelon's length
    ech = _IntEchelon([[1, 0, 0], [0, 1, 0]])
    for coords in ([1, 1, 0, 5], [1, 1]):
        with pytest.raises(ExactAlgError, match="length"):
            ech.contains(coords)
    with pytest.raises(ExactAlgError, match="different spaces"):
        ProjLine(ProjPoint([1, 0, 0]), ProjPoint([0, 1, 0, 0]))


# -- integer linear algebra ------------------------------------------------------

def test_rref_and_rank():
    ech, piv = rref_int([[2, 4, 6], [1, 2, 4]])
    assert piv == [0, 2]
    assert reference_rank([[1, 2], [2, 4], [3, 6]]) == 1
    assert reference_rank([[1, 0], [0, 1]]) == 2
    assert reference_rank([]) == 0


@st.composite
def mixed_matrices(draw):
    """Rows that are integer combinations of a few basis rows, so rank
    deficiency and zero rows are common, each divided by 1-7 and written
    with int entries where the denominator is 1 and Fraction entries
    elsewhere."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    basis = draw(st.lists(st.lists(coeffs, min_size=ncols, max_size=ncols),
                          min_size=1, max_size=3))
    mults = st.integers(min_value=-3, max_value=3)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        combo = [draw(mults) for _ in basis]
        d = draw(st.integers(min_value=1, max_value=7))
        row = [Fraction(sum(k * b[j] for k, b in zip(combo, basis)), d)
               for j in range(ncols)]
        rows.append([int(v) if v.denominator == 1 else v for v in row])
    return rows


@given(mixed_matrices())
@settings(max_examples=80, deadline=None)
def test_rref_int_matches_fraction_gauss_jordan(rows):
    ech, piv = rref_int(rows)
    assert (ech, piv) == reference_rref(rows)
    assert rref_int(rows[::-1]) == (ech, piv)
    assert all(type(v) is int for row in ech for v in row)


tiny = st.integers(min_value=-2, max_value=2)


@given(st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(*(st.lists(tiny, min_size=n, max_size=n) for _ in range(3)))),
    st.booleans(), tiny, tiny)
@settings(max_examples=80, deadline=None)
def test_line_membership_matches_rank(vecs, combine, a, b):
    p, q, r = vecs
    if combine:
        r = [a * x + b * y for x, y in zip(p, q)]
    if not any(p) or not any(q) or not any(r):
        return
    if reference_rank([p, q]) < 2:
        with pytest.raises(ExactAlgError, match="proportional"):
            ProjLine(ProjPoint(p), ProjPoint(q))
        return
    line = ProjLine(ProjPoint(p), ProjPoint(q))
    # r is on the line exactly when it spans the same line with a spanning
    # point that it is not proportional to
    other = q if reference_rank([p, r]) < 2 else p
    on = reference_rank([p, q, r]) == 2
    assert (ProjLine(ProjPoint(other), ProjPoint(r)) == line) == on
    assert on_line(line, ProjPoint(r)) == on  # the other tests' line oracle
    assert line == ProjLine(ProjPoint(q), ProjPoint([x + y for x, y in zip(p, q)]))


def test_kernel_is_exactly_verified():
    basis = kernel_int([[1, 1, 1, 1], [1, 2, 3, 4]])
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
        assert v[0] + 2 * v[1] + 3 * v[2] + 4 * v[3] == 0


@given(st.lists(st.lists(coeffs, min_size=5, max_size=5), min_size=6, max_size=6),
       st.lists(st.lists(coeffs, min_size=5, max_size=5), min_size=1, max_size=4),
       st.data())
@settings(max_examples=50, deadline=None)
def test_chart_coordinates_recover_the_chart_point(rows, us, data):
    # rows is a 6x5 matrix G whose columns are the basis of the chart
    assume(reference_rank(rows) == 5 and all(any(u) for u in us))
    basis = [list(col) for col in zip(*rows)]
    points = [ProjPoint([sum(g * x for g, x in zip(row, u)) for row in rows]) for u in us]
    charts = _chart_coordinates(basis, points)
    assert charts == [ProjPoint(u) for u in us]
    assert charts == [_chart_coordinates(basis, [pt])[0] for pt in points]
    assert _chart_coordinates(basis, []) == []
    # the size of the tangent nodes' charts: basis vectors scaled by nearly
    # coprime s_j near 2^40 and points from u near 2^40, so each chart point
    # (u_j / s_j) and with it the check product u B = L x leave int64
    scales = [2 ** 40 + 2 * j + 1 for j in range(5)]
    far = [[s * v for v in b] for s, b in zip(scales, basis)]
    big = data.draw(st.lists(st.lists(st.integers(min_value=2 ** 40 - 2 ** 10, max_value=2 ** 40),
                                      min_size=5, max_size=5), min_size=1, max_size=3))
    expected = [ProjPoint([Fraction(x, s) for x, s in zip(u, scales)]) for u in big]
    assert min(max(map(abs, pt.coords)) for pt in expected) >= 2 ** 63
    assert _chart_coordinates(far, [ProjPoint([sum(g * x for g, x in zip(row, u)) for row in rows])
                                    for u in big]) == expected
    # the normal of the span is orthogonal to it, and nonzero, so not in it
    (normal,) = kernel_int(basis)
    off = data.draw(st.integers(min_value=0, max_value=len(points)))
    with pytest.raises(ExactAlgError, match="not in the span"):
        _chart_coordinates(basis, points[:off] + [ProjPoint(normal)] + points[off:])
    # a dependent basis: one vector repeated, or one replaced by a sum of two
    i, j = data.draw(st.permutations(range(5)))[:2]
    dependent = list(basis)
    dependent[i] = data.draw(st.sampled_from(
        [basis[j], [a + b for a, b in zip(basis[i - 1], basis[j])]]))
    for pts in (points, []):
        with pytest.raises(ExactAlgError, match="not in the span"):
            _chart_coordinates(dependent, pts)


def test_chart_coordinates_take_no_kernel(monkeypatch):
    monkeypatch.setattr(exactalg, "kernel_int", mock.Mock(side_effect=AssertionError))
    basis = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    assert _chart_coordinates(basis, [ProjPoint([1, 2, 3, 6]), ProjPoint([0, 0, 2, 2])]) == [
        ProjPoint([1, 2, 3]), ProjPoint([0, 0, 1])]
    with pytest.raises(ExactAlgError, match="not in the span"):
        _chart_coordinates(basis, [ProjPoint([1, 0, 0, 0])])


@given(st.lists(st.lists(coeffs, min_size=4, max_size=4), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_modular_rank_agrees_with_exact(rows):
    r = reference_rank(rows)
    for p in SHADOW_PRIMES:
        assert rank_mod(rows, p) == r


@st.composite
def big_mixed_matrices(draw):
    """A small integer matrix hidden by unimodular row operations and scalings.

    Adding M times another row, |M| >= 2^64, leaves the rank over Q and mod
    every prime unchanged and pushes entries past 2^63 in both signs;
    dividing a row by d in [2, 999], a unit mod both shadow primes, then
    mixes Fraction and int entries. Returns (matrix, rank of the small one).
    """
    ncols = draw(st.integers(min_value=1, max_value=5))
    small = draw(st.lists(st.lists(coeffs, min_size=ncols, max_size=ncols),
                          min_size=1, max_size=5))
    rows = [list(r) for r in small]
    big = st.integers(min_value=2 ** 64, max_value=2 ** 80)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        if i != j:
            m = draw(big) * draw(st.sampled_from([1, -1]))
            rows[i] = [a + m * b for a, b in zip(rows[i], rows[j])]
    out = []
    for row in rows:
        d = draw(st.integers(min_value=1, max_value=999))
        out.append([int(v) if v.denominator == 1 else v
                    for v in (Fraction(a, d) for a in row)])
    return out, reference_rank(small)


@given(big_mixed_matrices())
@settings(max_examples=60, deadline=None)
def test_modular_rank_on_big_and_mixed_entries(case):
    rows, rank = case
    assert reference_rank(rows) == rank
    for p in SHADOW_PRIMES:
        assert rank_mod(rows, p) == rank


@st.composite
def sparse_matrices(draw):
    """Mostly-zero matrices with entries in -2..2, some columns all zero, and
    rows shuffled so that a pivot often lies below its row and needs a swap."""
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=8))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    entry = st.sampled_from([0, 0, 0, 0, 0, -2, -1, 1, 2])
    rows = [[0 if j in zero_cols else draw(entry) for j in range(n)] for _ in range(m)]
    # a staircase of leading zeros, then shuffled: pivots sit below their rows
    for i, row in enumerate(rows):
        row[:min(i, n - 1)] = [0] * min(i, n - 1)
    return draw(st.permutations(rows))


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_mod_on_sparse_matrices_with_swaps(rows):
    r = reference_rank(rows)
    for p in SHADOW_PRIMES:
        assert rank_mod(rows, p) == r


def test_rank_mod_rejects_a_denominator_divisible_by_p():
    p, q = SHADOW_PRIMES
    rows = [[1, Fraction(1, p)], [2, 3]]
    with pytest.raises(ExactAlgError, match=f"not invertible mod {p}"):
        rank_mod(rows, p)
    assert rank_mod(rows, q) == 2


def _reference_echelon_mod(rows, p):
    """The per-column elimination over GF(p) that `_echelon_mod`'s panels
    must reproduce entry for entry: (pivot rows, pivot columns, block)."""
    if not len(rows):
        return [], [], np.zeros((0, 0), dtype=np.int64)
    if isinstance(rows, np.ndarray):
        a = (rows % p).astype(np.int64)
    else:
        a = np.array([[v % p for v in _clear_row(r, p)] for r in rows], dtype=np.int64)
    m, n = a.shape
    order = list(range(m))
    cols = []
    for col in range(n):
        rank = len(cols)
        if rank == m:
            break
        nonzero = rank + np.nonzero(a[rank:, col])[0]
        if nonzero.size == 0:
            continue
        piv = int(nonzero[0])
        if piv != rank:
            a[[rank, piv], col:] = a[[piv, rank], col:]
            order[rank], order[piv] = order[piv], order[rank]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank, col:] = a[rank, col:] * inv % p
        below = nonzero[1:]
        if below.size:
            a[below, col:] = (a[below, col:] - a[below, col, None] * a[rank, col:]) % p
        cols.append(col)
    return order[:len(cols)], cols, a[:len(cols)]


@st.composite
def echelon_inputs(draw):
    """Matrices up to 100 columns wide, below, at and across the panel width:
    a product of random factors of inner size r (rank-deficient when r is
    small), some columns zeroed, rows in a staircase of leading zeros and
    then shuffled so that pivots need swaps. Entries are small, uniform mod
    a shadow prime or within 9 of one, and the matrix comes as an int64
    array, an object array with multiples of 2^64 added (past int64), or a
    list whose rows are divided by 1-999, a unit mod both primes."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=31), st.sampled_from([32, 64]),
                       st.integers(min_value=33, max_value=100)))
    m = draw(st.integers(min_value=1, max_value=80))
    r = draw(st.integers(min_value=1, max_value=min(m, n)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32)))
    kind = draw(st.sampled_from(["small", "uniform", "near-p"]))
    p = draw(st.sampled_from(SHADOW_PRIMES))
    if kind == "small":
        left = rng.integers(-3, 4, size=(m, r))
        right = rng.integers(-3, 4, size=(r, n))
        mat = left @ right
    else:
        left = rng.integers(0, 2, size=(m, r))
        right = rng.integers(0, p, size=(r, n)) if kind == "uniform" else \
            p - rng.integers(1, 10, size=(r, n))
        mat = left @ right
    mat[:, rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0
    if draw(st.booleans()):
        for i in range(m):
            mat[i, :min(i, n - 1)] = 0
    mat = mat[rng.permutation(m)]
    form = draw(st.sampled_from(["int64", "object", "fractions"]))
    if form == "object":
        big = rng.integers(-2 ** 20, 2 ** 20, size=(m, n)).astype(object) * 2 ** 64
        return mat.astype(object) + big
    if form == "fractions":
        return [[Fraction(int(v), d) for v in row]
                for row, d in zip(mat.tolist(), rng.integers(1, 1000, size=m).tolist())]
    return mat


@given(echelon_inputs())
@settings(max_examples=120, deadline=None)
def test_panel_elimination_matches_the_per_column_reference(rows):
    for p in SHADOW_PRIMES:
        order, cols, block = exactalg._echelon_mod(rows, p)
        want_order, want_cols, want_block = _reference_echelon_mod(rows, p)
        assert (order, cols) == (want_order, want_cols)
        assert block.dtype == np.int64 and np.array_equal(block, want_block)


def test_one_elimination_holds_less_than_three_matrices():
    # the rows below each panel take one limb product into one buffer, reduced
    # in place, and the reduced copy of the input is the only other full one
    rng = np.random.default_rng(0)
    mat = rng.integers(-2 ** 40, 2 ** 40, size=(458, 462))
    tracemalloc.start()
    try:
        exactalg._echelon_mod(mat, SHADOW_PRIMES[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * mat.nbytes


def test_modulus_must_be_a_prime_below_2_31():
    # p^2 > 2^63: the products of reduced entries used to wrap in int64, and
    # this matrix, of rank 1 mod 2^61 - 1 (det = 2p), came out as rank 2
    p = 2 ** 61 - 1
    rows = [[p - 1, 2], [p - 2, 4]]
    for modulus in (p, 2 ** 31 + 11, 2 ** 31 - 3, 4, 1):  # prime past 2^31, composites
        with pytest.raises(ExactAlgError, match="not a prime below 2"):
            rank_mod(rows, modulus)
        with pytest.raises(ExactAlgError, match="not a prime below 2"):
            rank_mod(np.array(rows, dtype=object), modulus)
    assert rank_mod(rows, 2 ** 31 - 1) == 2


@st.composite
def wide_matrices(draw):
    """Fewer rows than columns: a product of small factors of inner size r,
    so dependent rows are common, with some columns zeroed."""
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=n - 1))
    r = draw(st.integers(min_value=1, max_value=m))
    left = [[draw(coeffs) for _ in range(r)] for _ in range(m)]
    right = [[draw(coeffs) for _ in range(n)] for _ in range(r)]
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return [[0 if j in zero_cols else sum(a * b for a, b in zip(lrow, col))
             for j, col in enumerate(zip(*right))] for lrow in left]


@given(st.one_of(mixed_matrices(), big_mixed_matrices().map(lambda case: case[0]),
                 sparse_matrices(), wide_matrices()))
@settings(max_examples=150, deadline=None)
def test_checked_rank_matches_the_reference(rows):
    assert checked_rank(rows) == reference_rank(rows)


def test_checked_rank_takes_the_kernel_of_the_narrow_side(monkeypatch):
    shapes = []
    real = exactalg._kernel

    def recorded(mat, pivots, block):
        shapes.append(mat.shape)
        return real(mat, pivots, block)

    monkeypatch.setattr(exactalg, "_kernel", recorded)
    wide = [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]]
    assert checked_rank(wide) == 1
    assert checked_rank([list(col) for col in zip(*wide)]) == 1
    assert shapes == [(5, 2), (5, 2)]


def test_checked_rank_rejects_ragged_rows():
    # transposing [[1, 2, 3], [4, 5]] would drop the 3
    for rows in ([[1, 2, 3], [4, 5]], [[4, 5], [1, 2, 3]]):
        with pytest.raises(ExactAlgError, match="different lengths"):
            checked_rank(rows)


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5]], [[4, 5], [1, 2, 3]]],
                         ids=["long-first", "short-first"])
def test_kernel_and_modular_rank_reject_ragged_rows(rows):
    with pytest.raises(ExactAlgError, match="different lengths"):
        kernel_int(rows)
    for p in SHADOW_PRIMES:
        with pytest.raises(ExactAlgError, match="different lengths"):
            rank_mod(rows, p)


def _entry_points():
    """Each public exact-core entry point on a matrix, and `_int_matmul`
    with the matrix on either side against a well-formed partner."""
    return [kernel_int, checked_rank, rref_int,
            *(lambda rows, p=p: rank_mod(rows, p) for p in SHADOW_PRIMES),
            lambda rows: _int_matmul(rows, [[1] * len(max(rows, key=len))]),
            lambda rows: _int_matmul([[1] * len(max(rows, key=len))], rows)]


@st.composite
def ragged_rows(draw):
    rows = draw(st.lists(st.lists(coeffs, max_size=4), min_size=2, max_size=5))
    assume(len({len(row) for row in rows}) > 1)
    return rows


@st.composite
def rows_with_a_float(draw):
    ncols = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(coeffs, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
    j = draw(st.integers(min_value=0, max_value=ncols - 1))
    # integral or not, a float is refused: an int64 cast would truncate 2.5
    rows[i][j] = draw(st.floats(min_value=-9, max_value=9))
    return rows


@given(ragged_rows())
@settings(max_examples=40, deadline=None)
def test_entry_points_reject_ragged_rows(rows):
    for entry in _entry_points():
        with pytest.raises(ExactAlgError, match="different lengths|width"):
            entry(rows)


@given(rows_with_a_float())
@settings(max_examples=40, deadline=None)
def test_entry_points_reject_a_float(rows):
    for entry in _entry_points():
        with pytest.raises(ExactAlgError):
            entry(rows)
    floats = np.array(rows, dtype=float)
    with pytest.raises(ExactAlgError, match="not all integers"):
        _int_matmul(floats, [[1] * len(rows[0])])
    for p in SHADOW_PRIMES:
        with pytest.raises(ExactAlgError, match="not all integers"):
            rank_mod(floats, p)


def test_int_matmul_rejects_a_non_integer_entry():
    # an int64 cast would truncate 2.5 to 2 and answer [[3], [7]]
    with pytest.raises(ExactAlgError, match="not all integers"):
        _int_matmul([[1, 2.5], [3, 4]], [[1, 1]])
    with pytest.raises(ExactAlgError, match="not all integers"):
        _int_matmul([[1, 2], [3, 4]], [[1, Fraction(1, 2)]])


@pytest.mark.parametrize("m", [1, 3])
def test_rows_of_width_zero_have_rank_zero_and_no_kernel(m):
    rows = [[] for _ in range(m)]
    assert kernel_int(rows) == []
    assert checked_rank(rows) == 0
    assert rref_int(rows) == ([], [])
    assert all(rank_mod(rows, p) == 0 for p in SHADOW_PRIMES)
    assert _int_matmul(rows, [[], []]).tolist() == [[0, 0]] * m


def test_checked_rank_raises_on_forced_mismatch():
    # rank 2 over Q, but 1 mod the first shadow prime
    p = SHADOW_PRIMES[0]
    with pytest.raises(ShadowMismatch, match=f"mod {p}"):
        checked_rank([[1, 0], [0, p]])


def test_ranks_of_no_rows_are_zero():
    assert _pivot_rows([], SHADOW_PRIMES[0]) == []
    assert rank_mod([], SHADOW_PRIMES[0]) == reference_rank([]) == 0
    assert checked_rank([]) == 0


@given(st.lists(st.lists(coeffs, min_size=5, max_size=5), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_kernel_int_annihilates_and_has_full_size(rows):
    basis = kernel_int(rows)
    r = reference_rank(rows)
    assert len(basis) == 5 - r
    for p in SHADOW_PRIMES:
        assert rank_mod(rows, p) == r
    for vec in basis:
        assert all(isinstance(c, int) for c in vec)
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def _free_column_basis(echelon, pivots, ncols):
    """Kernel basis of a fully reduced integer echelon, one vector per free
    column, with no further elimination: with L the lcm of the pivot entries,
    the free column fc gets L and each pivot column pc gets -row[fc] * L/row[pc]."""
    lcm = math.lcm(*(row[pc] for row, pc in zip(echelon, pivots)))
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = lcm
        for row, pc in zip(echelon, pivots):
            v[pc] = -row[fc] * (lcm // row[pc])
        basis.append(v)
    return basis


def _reference_kernel(rows):
    """The kernel basis of the exact echelon route: read off `rref_int`."""
    echelon, pivots = rref_int(rows)
    return [_canonical_int_vector(v)
            for v in _free_column_basis(echelon, pivots, len(rows[0]))]


def test_a_later_unlucky_prime_is_skipped(monkeypatch):
    # mod SHADOW_PRIMES[1] the pivot of [p, 1] moves to column 1: that prime
    # is skipped, and the CRT run of the first prime goes on with the third
    p = SHADOW_PRIMES[1]
    seen = []
    real = exactalg._echelon_mod

    def recorded(mat, q):
        seen.append(q)
        return real(mat, q)

    monkeypatch.setattr(exactalg, "_echelon_mod", recorded)
    assert kernel_int([[p, 1]]) == [(1, -p)]
    # the entry -1/p needs a modulus past 2 p^2: three lucky primes
    assert seen == list(itertools.islice(_kernel_primes(), 4))


def test_kernel_survives_an_unlucky_first_prime():
    p = SHADOW_PRIMES[0]
    # mod p the pivot moves from column 0 to column 1
    assert kernel_int([[p, 1]]) == [(1, -p)]
    # mod p the rank drops: the first prime's kernel vector fails the check
    assert kernel_int([[1, 0], [0, p]]) == []
    # a 2x2 minor divisible by p moves the second pivot from column 1 to 2
    rows = [[1, 2, 3, 4], [1, 2 + p, 5, 7]]
    assert kernel_int(rows) == _reference_kernel(rows)


@st.composite
def wide_kernel_matrices(draw):
    """Full-rank small matrices with entries past 2^40, and integer
    combinations of their rows appended, so that the kernel entries are
    minors past 2^62 and need more than two primes."""
    n = draw(st.integers(min_value=2, max_value=6))
    r = draw(st.integers(min_value=1, max_value=n - 1))
    big = st.integers(min_value=-(2 ** 45), max_value=2 ** 45)
    rows = [[draw(big) for _ in range(n)] for _ in range(r)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        weights = [draw(coeffs) for _ in range(r)]
        rows.append([sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)])
    return draw(st.permutations(rows))


@given(wide_kernel_matrices())
@settings(max_examples=40, deadline=None)
def test_kernel_int_matches_the_echelon_route_past_two_primes(rows):
    basis = kernel_int(rows)
    assume(max(abs(c) for vec in basis for c in vec) > 2 ** 62)
    assert basis == _reference_kernel(rows)


def _trial_division_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_prime_test_matches_trial_division():
    assert [n for n in range(3000) if _is_prime(n)] == \
        [n for n in range(3000) if _trial_division_prime(n)]
    # strong pseudoprimes to the bases 2, 3 and to 2, 3, 5; 19*199*271 is
    # one to 3, 5 and 7 but not to 2
    assert not _is_prime(1373653) and not _is_prime(25326001)
    assert not _is_prime(1024651)


@given(st.sampled_from(SHADOW_PRIMES), st.data())
@settings(max_examples=100, deadline=None)
def test_rational_reconstruction_inverts_reduction(m, data):
    bound = math.isqrt(m // 2)
    a = data.draw(st.integers(min_value=-bound, max_value=bound))
    b = data.draw(st.integers(min_value=1, max_value=bound))
    assume(math.gcd(a, b) == 1)
    assert _rational(a * pow(b, -1, m) % m, m) == (a, b)


def test_kernel_primes_are_the_shadow_primes_then_every_prime_below():
    primes = list(itertools.islice(_kernel_primes(), 24))
    assert primes == list(itertools.islice(_kernel_primes(), 24))
    assert tuple(primes[:len(SHADOW_PRIMES)]) == SHADOW_PRIMES
    assert all(a > b for a, b in zip(primes, primes[1:]))
    assert all(_trial_division_prime(q) for q in primes)
    assert not any(_trial_division_prime(k) for a, b in zip(primes, primes[1:])
                   for k in range(b + 1, a))


def test_primes_past_is_the_shortest_run_whose_product_exceeds_the_bound():
    p0, p1 = SHADOW_PRIMES
    assert _primes_past(0) == _primes_past(p0 - 1) == [p0]
    assert _primes_past(p0) == _primes_past(p0 * p1 - 1) == [p0, p1]
    for bound in (p0 * p1, 2 ** 459, 3 ** 700):
        primes = _primes_past(bound)
        assert primes == list(itertools.islice(_kernel_primes(), len(primes)))
        assert math.prod(primes[:-1]) <= bound < math.prod(primes)


def test_running_out_of_kernel_primes_names_the_bound(monkeypatch):
    # from 13 and 11 the run goes down to 2, a product of 30030: too short
    # for 10^30, and for the kernel of rows with entries near 10^20; the
    # monkeypatch puts the module's own pair back afterwards
    monkeypatch.setattr(exactalg, "SHADOW_PRIMES", (13, 11))
    assert list(_kernel_primes()) == [13, 11, 7, 5, 3, 2]
    with pytest.raises(ExactAlgError, match=f"product passed {10 ** 30}$"):
        _primes_past(10 ** 30)
    with pytest.raises(ExactAlgError, match="kernel primes ran out"):
        kernel_int([[10 ** 20, 3, 7], [1, 10 ** 20 + 1, 5]])
    # the run goes on below both primes of the pair, in either order
    monkeypatch.setattr(exactalg, "SHADOW_PRIMES", (11, 13))
    assert list(_kernel_primes()) == [11, 13, 7, 5, 3, 2]


# -- vanishing spaces ------------------------------------------------------------

def assert_vanishes(vs, points=(), lines=()):
    """Independent oracle: exact evaluation and exact line restriction."""
    for form in vs.basis:
        for pt in points:
            assert form.eval(pt.coords) == 0
        for ln in lines:
            assert not any(form.restrict_to_line(ln.p.coords, ln.q.coords))


def test_conics_through_points():
    pts = [ProjPoint(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3])]
    vs = vanishing_space(2, 3, points=pts)
    assert vs.dim == 1  # five general points determine a conic
    assert vs.method == "kernel"
    assert_vanishes(vs, points=pts)


def test_line_constraints_use_enough_parameters():
    # quadrics in P^3 containing a line form a 7-dim space (10 monomials - 3)
    ln = ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
    vs = vanishing_space(2, 4, lines=[ln])
    assert vs.dim == 7
    assert_vanishes(vs, lines=[ln])
    z, w = MPoly.var(2, 4), MPoly.var(3, 4)
    assert vs.contains(z * w)
    assert not vs.contains(MPoly.var(0, 4) ** 2)


def test_forms_of_another_degree_are_not_members():
    # the quadrics through a line in P^3; the zero form is in every space
    ln = ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
    vs = vanishing_space(2, 4, lines=[ln])
    x0, z, w = MPoly.var(0, 4), MPoly.var(2, 4), MPoly.var(3, 4)
    assert vs.contains(z * w) and vs.contains(MPoly.zero(4))
    assert not vs.contains(x0)
    assert not vs.contains(x0 ** 3)
    assert not vs.contains(z * w + z)


def test_forms_of_another_ring_are_rejected():
    # the quadrics through the coordinate points of P^2: x0x1, x0x2, x1x2
    pts = [ProjPoint(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    vs = vanishing_space(2, 3, points=pts)
    x = _vars(3)
    assert vs.dim == 3 and vs.contains(x[0] * x[1]) and not vs.contains(x[0] ** 2)
    y, z = _vars(2), _vars(4)
    for form in (y[0] ** 2, z[0] * z[3], z[0] ** 3):
        with pytest.raises(ExactAlgError, match="variables"):
            vs.contains(form)
        with pytest.raises(ExactAlgError):
            vanishing_space(2, 3, points=pts, candidates=[x[0] * x[1], form])


def test_candidate_with_a_term_of_another_degree_is_rejected():
    # x1 + 1 has degree 1, but its constant term is no linear form
    x0, x1 = _vars(2)
    with pytest.raises(ExactAlgError, match="wrong degree"):
        vanishing_space(1, 2, candidates=[x0, x1 + MPoly.constant(2, 1)])


def test_candidate_route_matches_kernel_route():
    ln = ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
    direct = vanishing_space(2, 4, lines=[ln])
    z, w = MPoly.var(2, 4), MPoly.var(3, 4)
    gens = [z, w]
    lins = [MPoly.var(i, 4) for i in range(4)]
    cands = [g * l for g in gens for l in lins]
    certified = vanishing_space(2, 4, lines=[ln], candidates=cands)
    assert certified.dim == direct.dim == 7
    assert certified.method == "candidates"
    assert_vanishes(direct, lines=[ln])
    assert_vanishes(certified, lines=[ln])
    for b in certified.basis:
        assert direct.contains(b)


def test_candidate_that_does_not_vanish_is_rejected():
    ln = ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
    with pytest.raises(ExactAlgError):
        vanishing_space(2, 4, lines=[ln], candidates=[MPoly.var(0, 4) ** 2])


def test_candidates_rejected_when_one_prime_drops_rank():
    # the evaluation matrix [[1, 0], [1, p]] has rank 2 over Q but 1 mod p,
    # so that prime bounds the space by 1 while no member exists
    p = SHADOW_PRIMES[0]
    pts = [ProjPoint([1, 0]), ProjPoint([1, p])]
    with pytest.raises(ShadowMismatch):
        vanishing_space(1, 2, points=pts, candidates=[])


def test_candidates_dependent_mod_the_first_prime_are_refused():
    # x0 and x0 + p*x1 span every linear form over Q but one line mod p, so
    # the members found mod p fall short of the space and the call refuses
    p = SHADOW_PRIMES[0]
    x0, x1 = _vars(2)
    with pytest.raises(ShadowMismatch):
        vanishing_space(1, 2, candidates=[x0, x0 + x1 * p])


def test_kernel_route_rejects_a_first_prime_that_drops_rank():
    # the kernel of the first prime's pivot row [1, 0] misses the row [1, p]
    p = SHADOW_PRIMES[0]
    pts = [ProjPoint([1, 0]), ProjPoint([1, p])]
    with pytest.raises(ShadowMismatch):
        vanishing_space(1, 2, points=pts)


def test_vanishing_space_without_constraints_is_every_form():
    x = _vars(3)
    conics = [a * b for i, a in enumerate(x) for b in x[i:]]
    for vs in (vanishing_space(2, 3), vanishing_space(2, 3, candidates=conics)):
        assert vs.dim == 6
        assert vs.modular_ranks == {p: 0 for p in SHADOW_PRIMES}
    # without pivot rows the kernel route's basis is every monomial
    assert [b.coefficient_vector(2) for b in vanishing_space(2, 3).basis] == [
        [int(i == j) for j in range(6)] for i in range(6)]


def test_later_prime_falls_back_to_the_whole_matrix():
    # rows 0 and 1 are the pivot rows mod p1 but agree mod p2, where row 2
    # restores the rank: the recorded rank must be the whole matrix's
    p1, p2 = SHADOW_PRIMES
    pts = [ProjPoint([1, 1]), ProjPoint([1, 1 + p2]), ProjPoint([0, 1])]
    assert _pivot_rows(evaluation_rows(1, 2, pts), p1) == [0, 1]
    assert rank_mod([[1, 1], [1, 1 + p2]], p2) == 1
    vs = vanishing_space(1, 2, points=pts)
    assert vs.dim == 0
    assert vs.modular_ranks == {p1: 2, p2: 2}


@st.composite
def low_rank_points(draw):
    """The rows of a random low-rank integer matrix, as projective points.

    A product of small factors of inner size r, with rows repeated, rows
    scaled by M (which the primitive form of a ProjPoint divides out) and
    rows with M times another row added, 2^64 <= |M| <= 2^80: that keeps
    the rank over Q and mod both primes, and pushes entries past int64.
    Returns (number of columns, points).
    """
    n = draw(st.integers(min_value=2, max_value=5))
    r = draw(st.integers(min_value=1, max_value=n))
    m = draw(st.integers(min_value=1, max_value=8))
    left = [[draw(coeffs) for _ in range(r)] for _ in range(m)]
    right = [[draw(coeffs) for _ in range(n)] for _ in range(r)]
    rows = [[sum(a * b for a, b in zip(lrow, col)) for col in zip(*right)] for lrow in left]
    big = st.integers(min_value=2 ** 64, max_value=2 ** 80)
    index = st.integers(min_value=0, max_value=m - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        rows.append(list(rows[draw(index)]))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        scale = draw(big)
        rows.append([scale * v for v in rows[draw(index)]])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j = draw(index), draw(index)
        scale = draw(big) * draw(st.sampled_from([1, -1]))
        if i != j:
            rows[i] = [a + scale * b for a, b in zip(rows[i], rows[j])]
    # shuffled, so that a repeated row often comes before an independent one
    points = [ProjPoint(row) for row in draw(st.permutations(rows)) if any(row)]
    assume(points)
    return n, points


@given(low_rank_points())
@settings(max_examples=80, deadline=None)
def test_pivot_rows_give_the_whole_matrix_rank_and_kernel(case):
    # in degree 1 the evaluation matrix is the points' coordinate matrix
    n, points = case
    full = [list(pt.coords) for pt in points]
    vs = vanishing_space(1, n, points=points)
    assert vs.modular_ranks == {p: rank_mod(full, p) for p in SHADOW_PRIMES}
    assert [b.coefficient_vector(1) for b in vs.basis] == [list(v) for v in kernel_int(full)]


@given(low_rank_points(), st.data())
@settings(max_examples=60, deadline=None)
def test_candidate_route_on_random_spanning_sets_matches_kernel_route(case, data):
    # candidates: integer combinations of the kernel vectors, with repeats
    # and copies scaled by 2^64 or more, so that dependent candidates sit
    # among independent ones and entries pass int64
    n, points = case
    kernel = vanishing_space(1, n, points=points)
    vecs = [b.coefficient_vector(1) for b in kernel.basis]
    weights = st.lists(coeffs, min_size=len(vecs), max_size=len(vecs))
    rows = [[sum(c * v[j] for c, v in zip(cs, vecs)) for j in range(n)]
            for cs in data.draw(st.lists(weights, min_size=len(vecs), max_size=len(vecs) + 3))]
    rows = [row for row in rows if any(row)]
    assume(reference_rank(rows) == len(vecs))
    if rows:
        index = st.integers(min_value=0, max_value=len(rows) - 1)
        extra = st.integers(min_value=0, max_value=2)
        for _ in range(data.draw(extra)):
            rows.insert(data.draw(index), list(rows[data.draw(index)]))
        for _ in range(data.draw(extra)):
            scale = data.draw(st.integers(min_value=2 ** 64, max_value=2 ** 80))
            rows.insert(data.draw(index), [scale * v for v in rows[data.draw(index)]])
    certified = vanishing_space(1, n, points=points, candidates=[MPoly.linear(r) for r in rows])
    assert certified.method == "candidates"
    assert certified.dim == kernel.dim
    assert certified.modular_ranks == kernel.modular_ranks
    assert all(kernel.contains(b) for b in certified.basis)
    assert all(certified.contains(b) for b in kernel.basis)


def evaluation_rows(degree, nvars, points=(), lines=()):
    """The whole exact evaluation matrix, in Python ints: the degree-d
    monomials at each point, then at each line's d+1 parameter points (1:0),
    (1:1), ..., (1:d-1), (0:1), every row as it comes, repeats included."""
    coords = [pt.coords for pt in points]
    coords += [c for line in lines for c in line.parameter_points(degree + 1)]
    exps = monomials(nvars, degree)
    return np.array([[math.prod(c ** e for c, e in zip(row, exp)) for exp in exps]
                     for row in coords], dtype=object).reshape(len(coords), len(exps))


def _whole_matrix_reference(degree, nvars, points, lines, candidates):
    """The candidate route with the first prime on the whole matrix:
    (dim, modular ranks, members), or None when a prime's bound n - rank_p
    misses the number of members."""
    mat = evaluation_rows(degree, nvars, points, lines)
    cleared = [_clear_row(c.coefficient_vector(degree)) for c in candidates]
    members = [candidates[i] for i in sorted(_pivot_rows(cleared, SHADOW_PRIMES[0]))]
    ranks = {p: rank_mod(mat, p) for p in SHADOW_PRIMES}
    n = len(monomials(nvars, degree))
    if any(n - r != len(members) for r in ranks.values()):
        return None
    return len(members), ranks, members


def _blocks_to_reach(degree, npoints, mat, target):
    """The first prime's schedule, read off the whole matrix: the blocks in
    the documented order, parameter row j of every line (row npoints +
    l*(d+1) + j), j from d down to 0, then the points, each without the rows
    that appeared before it, held until the rank so far plus the held rows
    reach target or the blocks run out, then eliminated together. Returns
    (how many blocks run before the rank reaches target, or None when even
    all of them fall short; the row count of each elimination, the rank so
    far plus the held rows)."""
    nlines = (len(mat) - npoints) // (degree + 1)
    blocks = [[npoints + l * (degree + 1) + j for l in range(nlines)]
              for j in range(degree, -1, -1)] + [list(range(npoints))]
    seen, rows, held, rank, steps = set(), [], 0, 0, []
    for taken, block in enumerate(blocks, 1):
        if rank == target:
            return taken - 1, steps
        for r in block:
            row = tuple(mat[r].tolist())
            if row not in seen:
                seen.add(row)
                rows.append(r)
                held += 1
        if held and (rank + held >= target or taken == len(blocks)):
            steps.append(rank + held)
            rank, held = rank_mod(mat[rows], SHADOW_PRIMES[0]), 0
    return (len(blocks) if rank == target else None), steps


def _first_prime_steps(spy, candidates):
    """Row counts of the first prime's eliminations of the evaluation rows
    among a spy's calls. The first prime's first call thins the candidates,
    on the residues mod that prime of their cleared coefficients; it is
    checked to be that call and left out."""
    p0 = SHADOW_PRIMES[0]
    thinning, *steps = [rows for (rows, p), _ in spy.call_args_list if p == p0]
    assert thinning.dtype == np.int64
    assert thinning.tolist() == [[v % p0 for v in _clear_row(c.coefficient_vector(c.degree()))]
                                 for c in candidates]
    return [len(rows) for rows in steps]


@st.composite
def plane_line_systems(draw, kind):
    """Lines in a plane of P^3 and degree-d forms, for where the blocks stop.

    At least C(d+2, 2) lines force every degree-d form vanishing on them to
    vanish on the plane, so the target rank is C(d+2, 2) unless a point
    leaves the plane. "early": the lines' second points are general, and the
    first block alone reaches the target; "late": the lines share their
    second point, so the first block has rank 1 and a later line block
    reaches it; "last": as early, plus a point off the plane, which only the
    points block sees. Returns (degree, points, lines).
    """
    degree = draw(st.integers(min_value=1, max_value=3))
    plane = draw(st.lists(st.lists(coeffs, min_size=4, max_size=4), min_size=3, max_size=3))
    assume(reference_rank(plane) == 3)
    vec = st.lists(coeffs, min_size=3, max_size=3)

    def in_plane(c):
        return ProjPoint([sum(a * b for a, b in zip(c, col)) for col in zip(*plane)])

    shared = draw(vec)
    lines = []
    for _ in range(math.comb(degree + 2, 2) + draw(st.integers(min_value=0, max_value=2))):
        p, q = draw(vec), shared if kind == "late" else draw(vec)
        assume(reference_rank([p, q]) == 2)
        lines.append(ProjLine(in_plane(p), in_plane(q)))
    points = [in_plane(c) for c in draw(st.lists(vec.filter(any), max_size=2))]
    if kind == "last":
        off = draw(st.lists(coeffs, min_size=4, max_size=4))
        assume(reference_rank(plane + [off]) == 4)
        points.append(ProjPoint(off))
    return degree, points, lines


@pytest.mark.parametrize("kind", ["early", "late", "last"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_blockwise_first_prime_matches_the_whole_matrix_reference(kind, data):
    # candidates: the kernel route's members, shuffled, with nonzero
    # integer combinations of them mixed in as dependent candidates
    degree, points, lines = data.draw(plane_line_systems(kind))
    members = list(vanishing_space(degree, 4, points=points, lines=lines).basis)
    weights = st.lists(coeffs, min_size=len(members), max_size=len(members))
    combos = [sum((c * b for c, b in zip(cs, members)), MPoly.zero(4))
              for cs in data.draw(st.lists(weights, max_size=3))]
    cands = data.draw(st.permutations(members + [f for f in combos if not f.is_zero()]))
    mat = evaluation_rows(degree, 4, points, lines)
    want = _whole_matrix_reference(degree, 4, points, lines, cands)
    if want is None:
        with pytest.raises(ShadowMismatch):
            vanishing_space(degree, 4, points=points, lines=lines, candidates=cands)
        return
    target = len(monomials(4, degree)) - len(want[2])
    stop, schedule = _blocks_to_reach(degree, len(points), mat, target)
    expected = {"early": {1}, "late": set(range(2, degree + 2)), "last": {degree + 2}}
    assume(stop in expected[kind])
    with mock.patch.object(exactalg, "_pivot_rows", wraps=exactalg._pivot_rows) as spy:
        got = vanishing_space(degree, 4, points=points, lines=lines, candidates=cands)
    assert (got.dim, got.modular_ranks, list(got.basis)) == want
    assert _first_prime_steps(spy, cands) == schedule
    assert kind == "last" or max(schedule) < len(mat)


def test_first_prime_stops_before_the_whole_matrix():
    # six lines in the plane x3 = 0 whose second points lie on no conic, and
    # the quadrics x3*x0, ..., x3^2 through the plane: n - k = 10 - 4 = 6, so
    # the first block, the six second points, is all the first prime eliminates
    seconds = ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0], [1, 2, 3, 0],
               [2, -1, 1, 0])
    lines = [ProjLine(ProjPoint([3, -2, 5, 0]), ProjPoint(q)) for q in seconds]
    x = _vars(4)
    cands = [x[3] * v for v in x]
    with mock.patch.object(exactalg, "_pivot_rows", wraps=exactalg._pivot_rows) as spy:
        vs = vanishing_space(2, 4, lines=lines, candidates=cands)
    assert vs.dim == 4 and vs.modular_ranks == {p: 6 for p in SHADOW_PRIMES}
    assert len(evaluation_rows(2, 4, lines=lines)) == 18
    assert _first_prime_steps(spy, cands) == [6]


def test_blocks_short_of_n_minus_k_raise():
    # every row is (1, 0, 0) mod p: rank 1 mod p against n - k = 3 - 1 = 2,
    # with x2 an exact member; the two line blocks are held until they
    # number 2 rows, the points block joins the one kept row, and the call
    # raises after all three
    p = SHADOW_PRIMES[0]
    ln = ProjLine(ProjPoint([1, 0, 0]), ProjPoint([1, p, 0]))
    pts = [ProjPoint([1, 2 * p, 0])]
    cands = [MPoly.var(2, 3)]
    with mock.patch.object(exactalg, "_pivot_rows", wraps=exactalg._pivot_rows) as spy:
        with pytest.raises(ShadowMismatch, match=f"mod {p}"):
            vanishing_space(1, 3, points=pts, lines=[ln], candidates=cands)
    assert _first_prime_steps(spy, cands) == [2, 2]


@pytest.mark.parametrize("degree, spans, bad, steps", [
    # x0 vanishes at the second points of both lines, whose block alone
    # reaches n - k = 2, but not at the first point of the first line
    (1, [([1, 0, 0], [0, 1, 0]), ([1, 1, 1], [0, 0, 1])], lambda x: x[0], [2]),
    # x0 x1 vanishes on both lines, whose three blocks are held until their
    # 6 rows pass n - k = 5 and reach it in one elimination, but not at the
    # point, which only the points block sees
    (2, [([0, 1, 0], [0, 1, 1]), ([1, 0, 1], [1, 0, 0])], lambda x: x[0] * x[1], [6]),
], ids=["parameter-row-0", "points"])
def test_candidates_are_checked_on_blocks_past_the_first_prime_stop(degree, spans, bad,
                                                                      steps):
    lines = [ProjLine(ProjPoint(p), ProjPoint(q)) for p, q in spans]
    pts = [ProjPoint([1, 2, 3])]
    cands = [bad(_vars(3))]
    with mock.patch.object(exactalg, "_pivot_rows", wraps=exactalg._pivot_rows) as spy:
        with pytest.raises(ExactAlgError, match="candidate fails a constraint, not a member"):
            vanishing_space(degree, 3, points=pts, lines=lines, candidates=cands)
    assert _first_prime_steps(spy, cands) == steps


def test_repeated_rows_are_evaluated_once_and_match_the_whole_matrix_reference():
    # three lines of the plane x3 = 0 through the shared point (0, 0, 1, 0),
    # their last parameter point, and the points (1, 0, 0, 0), the first
    # point of the first line, and (1, 2, 3, 0) given twice: each distinct
    # coordinate row is evaluated once mod the first prime, in the first
    # block it appears in. Quadrics x3 * v: n - k = 10 - 4 = 6, reached by
    # one elimination of the first three blocks' 1 + 3 + 3 rows. Cubics
    # x3 * q: n - k = 20 - 10 = 10; the four line blocks' 10 rows leave out
    # x0 x1 (x0 - x1), the three lines, so rank 9, and the one new point
    # brings the rank to 10. Without candidates the first prime evaluates
    # and eliminates the 8 and 11 distinct rows in one `_echelon_mod` call,
    # which `kernel_int`'s first prime reuses, and the only exact rows are
    # those of its pivot rows.
    x = _vars(4)
    shared = ProjPoint([0, 0, 1, 0])
    lines = [ProjLine(ProjPoint(p), shared) for p in ([1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0])]
    pts = [ProjPoint([1, 0, 0, 0]), ProjPoint([1, 2, 3, 0]), ProjPoint([1, 2, 3, 0])]
    quadrics = [x[3] * v for v in x]
    cubics = [x[3] * a * b for i, a in enumerate(x) for b in x[i:]]
    p0 = SHADOW_PRIMES[0]
    real = exactalg._evaluated
    for degree, cands, sizes, steps in [(2, quadrics, [1, 3, 3, 1], [7]),
                                        (3, cubics, [1, 3, 3, 3, 1], [10, 10]),
                                        (2, None, [8], [8]), (3, None, [11], [11])]:
        evaluated, exact = [], []

        def spy(exps, coords, p=0):
            if p == p0:
                evaluated.append(list(coords))
            if not p:
                exact.append(len(coords))
            return real(exps, coords, p)

        mat = evaluation_rows(degree, 4, pts, lines)
        kernel = [MPoly.from_terms(4, zip(monomials(4, degree), vec))
                  for vec in kernel_int(mat.tolist())]
        want = _whole_matrix_reference(degree, 4, pts, lines, cands or kernel)
        with mock.patch.object(exactalg, "_evaluated", spy), \
                mock.patch.object(exactalg, "_echelon_mod", wraps=exactalg._echelon_mod) as piv:
            got = vanishing_space(degree, 4, points=pts, lines=lines, candidates=cands)
        assert want is not None
        assert (got.dim, got.modular_ranks, list(got.basis)) == want
        assert got.method == ("kernel" if cands is None else "candidates")
        assert [len(block) for block in evaluated] == sizes
        rows = [c for block in evaluated for c in block]
        assert len(set(rows)) == len(rows) < len(mat)
        assert set(rows) == ({pt.coords for pt in pts}
                             | {c for ln in lines for c in ln.parameter_points(degree + 1)})
        # no route builds an exact evaluation matrix: only the kernel route
        # builds exact rows, and only for the first prime's pivot rows
        assert bool(exact) == (cands is None)
        assert all(size <= got.modular_ranks[p0] for size in exact)
        if cands is None:
            assert [len(r) for (r, p), _ in piv.call_args_list if p == p0] == steps
        else:
            assert _first_prime_steps(piv, cands) == steps


@pytest.mark.parametrize("degree, points, lines", [
    (2, [[1, 0, 0, 0], [1, 2, 3, 0], [1, 2, 3, 0]],
     [([1, 0, 0, 0], [0, 0, 1, 0]), ([0, 1, 0, 0], [0, 0, 1, 0])]),
    # exact rows past int64: the kernel checks its basis against an object array
    (2, [[2 ** 40, 1, 0, 3], [1, -2 ** 40, 5, 0], [7, 1, 2 ** 40, 1]],
     [([1, 1, 0, 0], [0, 2, 1, 1])]),
    (3, [[1, 2, 3, 4], [4, 3, 2, 1]], [([1, 0, 0, 0], [0, 1, 0, 0]), ([0, 0, 1, 0], [0, 0, 0, 1]),
                                     ([1, 1, 1, 1], [1, -1, 2, 0])]),
], ids=["plane", "past-int64", "cubics"])
def test_kernel_route_eliminates_once_mod_the_first_prime(degree, points, lines):
    # the route's one elimination mod p0 also serves as `kernel_int`'s first
    # prime, and the basis is the `kernel_int` of the exact pivot rows alone
    p0 = SHADOW_PRIMES[0]
    exact, real = [], exactalg._evaluated

    def spy(exps, coords, p=0):
        rows = real(exps, coords, p)
        if not p:
            exact.append(rows)
        return rows

    pts = [ProjPoint(c) for c in points]
    lns = [ProjLine(ProjPoint(a), ProjPoint(b)) for a, b in lines]
    with mock.patch.object(exactalg, "_evaluated", spy), \
            mock.patch.object(exactalg, "_echelon_mod", wraps=exactalg._echelon_mod) as em:
        vs = vanishing_space(degree, 4, points=pts, lines=lns)
    assert [p for (_, p), _ in em.call_args_list].count(p0) == 1
    (rows,) = exact
    assert len(rows) == vs.modular_ranks[p0]
    assert ([tuple(b.coefficient_vector(degree)) for b in vs.basis]
            == kernel_int(rows.tolist()) != [])


def test_no_candidates_are_a_space_of_dimension_zero():
    # nvars comes from the call, not from a first candidate
    pts = [ProjPoint([1, 0]), ProjPoint([0, 1])]
    vs = vanishing_space(1, 2, points=pts, candidates=[])
    assert (vs.dim, vs.basis, vs.method) == (0, (), "candidates")


def test_a_residual_that_only_the_last_prime_sees_raises(monkeypatch):
    # (p0 - 1) x0 + 13 x1 at (13, 1): the residual 13 p0 is bounded by
    # B = max|coord|^d max|coeff| n = 13 (p0 - 1) 2, between p0 13 and
    # p0 13 11, so the check takes p0, 13 and 11; the residual is zero mod
    # p0 and mod 13, and only 11 sees that it is not a member. A bound
    # without any one of its three factors stops below p0 13 11.
    p0 = SHADOW_PRIMES[0]
    monkeypatch.setattr(exactalg, "SHADOW_PRIMES", (p0, 13))
    x0, x1 = _vars(2)
    checked = []
    real = exactalg._residue_products

    def spy(rows, vecs, p):
        checked.append(p)
        return real(rows, vecs, p)

    monkeypatch.setattr(exactalg, "_residue_products", spy)
    with pytest.raises(ExactAlgError, match="candidate fails a constraint, not a member"):
        vanishing_space(1, 2, points=[ProjPoint([13, 1])], candidates=[x0 * (p0 - 1) + x1 * 13])
    assert checked == [p0, 13, 11]


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.sampled_from([3, 65521, *SHADOW_PRIMES]), st.data())
@settings(max_examples=80, deadline=None)
def test_residue_rows_are_the_exact_rows_mod_p(nvars, degree, p, data):
    # coordinates near the int64 switch max|coord|^d < 2^62, on both sides
    # of it, past 2^63, where an int64 product would wrap, and far past it
    edge = int(2 ** (62 / degree))
    top = data.draw(st.sampled_from([9, edge - 1, edge, edge + 1, int(2 ** (63.5 / degree)),
                                     2 ** 90]))
    ints = st.one_of(st.sampled_from([top, -top]), st.integers(min_value=-top, max_value=top))
    coords = data.draw(st.lists(st.lists(ints, min_size=nvars, max_size=nvars),
                                min_size=1, max_size=6))
    exps = data.draw(st.lists(st.sampled_from(monomials(nvars, degree)), min_size=1, max_size=12))
    exact = _evaluated(exps, coords)
    assert exact.tolist() == [[math.prod(c ** e for c, e in zip(row, exp)) for exp in exps]
                              for row in coords]
    got = _evaluated(exps, coords, p)
    assert got.dtype == np.int64
    assert got.tolist() == [[v % p for v in row] for row in exact.tolist()]
    assert _evaluated(exps, np.array(coords, dtype=object), p).tolist() == got.tolist()


@given(st.integers(min_value=1, max_value=80), st.sampled_from([3, 65521, *SHADOW_PRIMES]),
       st.sampled_from([9, 2 ** 20, 2 ** 62, 2 ** 80]), st.data())
@settings(max_examples=80, deadline=None)
def test_residue_products_are_the_object_products_mod_p(width, p, top, data):
    # the float64 tier while (p - 1) max|vecs| width < 2^53, 16-bit limbs
    # over 32 columns at a time past it; widths past one panel included
    rows = data.draw(st.lists(st.lists(st.integers(min_value=0, max_value=p - 1),
                                       min_size=width, max_size=width), min_size=1, max_size=4))
    ints = st.one_of(st.sampled_from([top, -top]), st.integers(min_value=-top, max_value=top))
    vecs = data.draw(st.lists(st.lists(ints, min_size=width, max_size=width),
                              min_size=1, max_size=4))
    want = [[v % p for v in row] for row in _python_products(rows, vecs)]
    arrays = [np.array(vecs, dtype=object)] + ([np.array(vecs)] if top < 2 ** 63 else [])
    for arr in arrays:
        got = _residue_products(np.array(rows, dtype=np.int64), arr, p)
        assert got.dtype == np.int64 and got.tolist() == want


def test_edge_cases_of_the_blocks_match_the_whole_matrix_reference():
    # no constraints at all, and blocks that run out below n - k: the result
    # is the whole-matrix reference's, or ShadowMismatch where it has none,
    # naming the first prime whose whole-matrix bound misses the members
    # (the rows held when the blocks run out are eliminated too)
    x = _vars(3)
    conics = [a * b for i, a in enumerate(x) for b in x[i:]]
    ln = ProjLine(ProjPoint([1, 2, 0]), ProjPoint([0, 1, 0]))  # the line x2 = 0
    pts = [ProjPoint([1, 0, 0]), ProjPoint([3, 1, 0])]  # on the line
    through = [x[2] * v for v in x]  # the conics through the line
    cases = [((), (), conics), ((), (), conics[:5]), ((), (), []),
             ((), [ln], through), (pts, [ln], through), ((), [ln], through[:1]),
             (pts, [ln], through[:2]), (pts, (), through[:1])]
    outcomes = []
    for points, lines, cands in cases:
        want = _whole_matrix_reference(2, 3, points, lines, cands)
        outcomes.append(want is not None)
        if want is None:
            mat = evaluation_rows(2, 3, points, lines)
            cleared = [_clear_row(c.coefficient_vector(2)) for c in cands]
            k = len(_pivot_rows(cleared, SHADOW_PRIMES[0]))
            bound, p = next((6 - rank_mod(mat, p), p) for p in SHADOW_PRIMES
                            if 6 - rank_mod(mat, p) != k)
            with pytest.raises(ShadowMismatch, match=f"span {k} does not meet modular "
                                                     f"bound {bound} mod {p}$"):
                vanishing_space(2, 3, points=points, lines=lines, candidates=cands)
            continue
        got = vanishing_space(2, 3, points=points, lines=lines, candidates=cands)
        assert (got.dim, got.modular_ranks, list(got.basis)) == want
    assert outcomes == [True, False, False, True, True, False, False, False]


@pytest.mark.parametrize("top, dtype", [(2 ** 31 - 1, np.int64), (2 ** 31, object)])
def test_evaluated_switches_to_python_ints_past_int64(top, dtype):
    # the entry bound top^2 is just below 2^62, then equal to it
    pts = [ProjPoint([top, 1, 3]), ProjPoint([-top, top, 2]), ProjPoint([0, 0, 1])]
    ln = ProjLine(ProjPoint([1, -2, 0]), ProjPoint([3, 0, 1]))
    coords = [pt.coords for pt in pts] + ln.parameter_points(3)
    mat = _evaluated(monomials(3, 2), coords)
    assert mat.dtype == dtype
    assert mat.tolist() == [[math.prod(c ** e for c, e in zip(row, exp))
                             for exp in monomials(3, 2)] for row in coords]



@st.composite
def rational_polys(draw, nvars=3):
    """A few polynomials with Fraction coefficients of small denominators."""
    terms = st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=4)] * nvars),
        st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                  st.integers(min_value=1, max_value=9)), min_size=1, max_size=6)
    return [MPoly(nvars, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


def _lcm(polys):
    return math.lcm(*(Fraction(c).denominator for poly in polys for _, c in poly.iter_terms()))


@given(rational_polys(), st.sampled_from([3, 7, *SHADOW_PRIMES]), st.data())
@settings(max_examples=60, deadline=None)
def test_batch_evaluation_is_the_cleared_value_mod_p(polys, p, data):
    # every value scaled by the lcm of the call's denominators; batches of
    # two points, so that a call spans several
    assume(any(not poly.is_zero() for poly in polys))
    points = data.draw(st.lists(st.lists(st.integers(min_value=0, max_value=p - 1),
                                         min_size=3, max_size=3), min_size=1, max_size=7))
    lcm = _lcm(polys)
    with mock.patch.object(exactalg, "_BATCH", 2):
        if lcm % p == 0:
            with pytest.raises(ExactAlgError, match="not invertible"):
                _values_at(polys, np.array(points, dtype=np.int64), p)
            return
        got = _values_at(polys, np.array(points, dtype=np.int64), p)
    assert got.dtype == np.int64
    assert got.tolist() == [[int(lcm * poly.eval(pt)) % p for poly in polys] for pt in points]


@given(st.one_of(rational_polys(), st.lists(polys(), min_size=1, max_size=3)),
       st.sampled_from([9, 2 ** 15, 2 ** 40]), st.data())
@settings(max_examples=60, deadline=None)
def test_exact_evaluation_is_the_cleared_value(polys, top, data):
    # without p: lcm * value exactly, as Python ints, for Fraction and
    # integer forms (lcm 1); monomials of degree up to 12 at coordinates up
    # to 2^15 or 2^40 leave int64, and batches of two points span the call;
    # forms that are all zero are zero at every point
    ints = st.one_of(st.sampled_from([top, -top]), st.integers(min_value=-top, max_value=top))
    points = data.draw(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=7))
    lcm = _lcm(polys)
    with mock.patch.object(exactalg, "_BATCH", 2):
        got = _values_at(polys, points)
    assert all(type(v) is int for row in got.tolist() for v in row)
    assert got.tolist() == [[lcm * poly.eval(pt) for poly in polys] for pt in points]


def test_exact_evaluation_switches_to_python_ints_past_int64():
    x = _vars(3)
    f = x[0] ** 3 * Fraction(1, 2) + x[1] * x[2] * 3
    pts = [[2 ** 40, 1, 2], [3, -(2 ** 41), 2 ** 40], [0, 0, 1]]
    got = _values_at([f, x[2]], pts)
    assert got.dtype == object
    assert got.tolist() == [[2 * f.eval(pt), 2 * pt[2]] for pt in pts]
    small = _values_at([f, x[2]], [[1, 2, 3]])
    assert small.dtype == np.int64 and small.tolist() == [[37, 6]]
    assert _values_at([f], []).shape == (0, 1)
    assert _values_at([MPoly.zero(3)] * 2, [[1, 2, 3]]).tolist() == [[0, 0]]

def test_int_products_on_each_dtype_match_python_sums():
    rows = [[2 ** 31 - 1, -(2 ** 31 - 1), 3], [5, 0, -7]]
    wide = [[2 ** 70, 1, -3], [-(2 ** 65), 2, 0]]
    small_vecs = [[1, 2, 3], [-4, 0, 9]]
    big_vecs = [[2 ** 40, 1, -(2 ** 45)]]  # pushes the products past int64
    for mat, vecs in [(rows, small_vecs), (rows, big_vecs), (wide, small_vecs)]:
        want = [[sum(a * b for a, b in zip(row, vec)) for row in mat] for vec in vecs]
        arrays = [mat, np.array(mat, dtype=object)]
        if mat is rows:
            arrays.append(np.array(mat, dtype=np.int64))
        for arr in arrays:
            got = _int_matmul(arr, vecs).T.tolist()
            assert got == want
            assert all(type(v) is int for vals in got for v in vals)


def _python_products(rows, vecs):
    return [[sum(a * b for a, b in zip(row, vec)) for vec in vecs] for row in rows]


@pytest.mark.parametrize("rows, vecs", [
    # bound (2^27 - 1)(2^26 - 1) < 2^53, and the product is odd
    ([[2 ** 27 - 1]], [[2 ** 26 - 1]]),
    # bound 3 (2^26 - 1) 44739242 < 2^53, and the sum (2^26 - 1)(3 44739242 - 1) is odd
    ([[2 ** 26 - 1] * 3], [[44739242, 44739242, 44739241]]),
], ids=["one-term", "three-terms"])
def test_products_below_2_53_are_exact(rows, vecs):
    want = _python_products(rows, vecs)
    assert want[0][0] % 2 == 1 and 2 ** 52 < want[0][0] < 2 ** 53
    got = _int_matmul(rows, vecs)
    assert got.dtype == np.int64 and got.tolist() == want
    assert all(type(v) is int for row in got.tolist() for v in row)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=52),
       st.data())
@settings(max_examples=60, deadline=None)
def test_products_at_the_float_bound_match_python_sums(width, bits, data):
    top_a = 2 ** bits
    top_b = (2 ** 53 - 1) // (width * top_a)
    assume(top_b >= 1)
    ints = lambda top: st.one_of(st.sampled_from([top, -top, top - 1]),
                                 st.integers(min_value=-top, max_value=top))
    rows = data.draw(st.lists(st.lists(ints(top_a), min_size=width, max_size=width),
                              min_size=1, max_size=4))
    vecs = data.draw(st.lists(st.lists(ints(top_b), min_size=width, max_size=width),
                              min_size=1, max_size=4))
    got = _int_matmul(np.array(rows, dtype=np.int64), vecs)
    assert got.dtype == np.int64 and got.tolist() == _python_products(rows, vecs)


def test_an_entry_of_minus_2_63_reads_its_true_bound():
    # np.abs(-2^63) wraps to -2^63 in int64; a bound read through it was
    # negative and sent these products to the float64 tier, which wrapped
    rows, vecs = [[-2 ** 63, 3], [5, 7]], [[3, 1], [1, 1]]
    got = _int_matmul(np.array(rows), vecs)
    assert got.tolist() == _python_products(rows, vecs)
    assert got[0, 0] == -27670116110564327421
    assert _int_matmul(vecs, np.array(rows)).tolist() == _python_products(vecs, rows)


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_incidence_against_the_cutting_forms_is_echelon_membership(n, data):
    # a vector lies in the span of a flat's basis exactly when it pairs to
    # zero with every form of the basis's kernel, the forms that cut it out
    vec = st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n)
    flats = data.draw(st.lists(st.lists(vec, min_size=1, max_size=n - 1),
                               min_size=1, max_size=3))
    vectors = data.draw(st.lists(vec, max_size=4))
    for basis in flats:  # one vector inside each flat
        weights = data.draw(st.lists(coeffs, min_size=len(basis), max_size=len(basis)))
        vectors.append([sum(w * v[j] for w, v in zip(weights, basis)) for j in range(n)])
    got = _incidence(vectors, [kernel_int(basis) for basis in flats])
    assert got.dtype == bool
    assert got.tolist() == [[_IntEchelon(basis).contains(v) for basis in flats]
                            for v in vectors]


def test_incidence_needs_a_row_per_flat():
    with pytest.raises(ExactAlgError, match="at least one row"):
        _incidence([[1, 0]], [[[0, 1]], []])


def test_products_past_2_53_take_int64_and_stay_exact():
    # 2^53 + 2^27 + 2^26 + 1 is odd and past 2^53: float64 would round it
    rows, vecs = [[2 ** 27 + 1]], [[2 ** 26 + 1]]
    want = _python_products(rows, vecs)
    assert float(want[0][0]) != want[0][0]
    got = _int_matmul(rows, vecs)
    assert got.dtype == np.int64 and got.tolist() == want
    # bound 2 (2^30 + 1)^2 < 2^62; the odd sum 2^60 + 2^31 + 1 needs 61 bits
    rows, vecs = [[2 ** 30 + 1, 2 ** 30 + 1]], [[2 ** 30 - 1, 2]]
    got = _int_matmul(np.array(rows, dtype=np.int64), vecs)
    assert got.dtype == np.int64 and got.tolist() == [[2 ** 60 + 2 ** 31 + 1]]


# -- linear forms --------------------------------------------------------------


@given(st.lists(coeffs, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_linear_coeffs_inverts_linear(cs):
    assert MPoly.linear(cs).linear_coeffs() == [Fraction(c) for c in cs]


def test_linear_coeffs_rejects_nonlinear_forms():
    x, y = _vars(2)
    with pytest.raises(ExactAlgError):
        (x * y).linear_coeffs()
    with pytest.raises(ExactAlgError):
        (x + MPoly.constant(2, 1)).linear_coeffs()


# -- seeded sampling -----------------------------------------------------------


def test_task_rngs_are_independent_and_reproducible():
    a = _task_rng(5, "alpha").random()
    assert _task_rng(5, "alpha").random() == a
    assert _task_rng(5, "beta").random() != a
    assert _task_rng(6, "alpha").random() != a


def _reference_loop(rng, count, trial):
    """The sampler one trial at a time: `trial(rng)` until `count` results
    are accepted, giving up after DRAWS_PER_RESULT * count trials."""
    cap = DRAWS_PER_RESULT * count
    out = []
    for _ in range(cap):
        if len(out) == count:
            break
        result = trial(rng)
        if result is not None:
            out.append(result)
    if len(out) < count:
        raise ExactAlgError(f"draw cap of {cap} trials reached with "
                            f"{len(out)} of {count} results accepted")
    return out


def _reference_draw(rng, n, zeros=None):
    """One nonzero vector of n values randint(-9, 9), an all-zero one drawn
    again; each redraw is counted in `zeros`."""
    while True:
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if any(v):
            return v
        if zeros is not None:
            zeros.append(v)


def _outcome(run):
    try:
        return run(), None
    except ExactAlgError as exc:
        return None, str(exc)


@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=4),
       st.frozensets(st.integers(min_value=-9, max_value=9), max_size=12),
       st.booleans(), st.none() | st.integers(min_value=-12, max_value=12))
@settings(max_examples=80, deadline=None)
def test_sample_matches_the_reference_loop(seed, count, n, rejected, distinct, fail):
    """Rounds of bulk draws give the per-trial loop's results and final
    state, with a rule on earlier trials (distinct first entries), the cap's
    error, and a failing trial raising for the first in order that fails."""
    def judge(seen):
        def rule(v):
            if sum(v) == fail:
                raise ExactAlgError(f"trial {v} fails")
            if v[0] in rejected or (distinct and v[0] in seen):
                return None
            seen.add(v[0])
            return v
        return rule

    a, b = random.Random(seed), random.Random(seed)
    batched, single = judge(set()), judge(set())
    got = _outcome(lambda: _sample(
        a, count, lambda rng, k: _draws(rng, n, k),
        lambda rows: [r for r in map(batched, map(tuple, rows.tolist())) if r is not None]))
    want = _outcome(lambda: _reference_loop(b, count, lambda rng: single(_reference_draw(rng, n))))
    assert got == want
    if want[1] is None or want[1].startswith("draw cap"):
        assert a.getstate() == b.getstate()


@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_draws_match_repeated_single_draws(seed, n, count):
    a, b = random.Random(seed), random.Random(seed)
    got = _draws(a, n, count)
    assert got.dtype == np.int64 and got.shape == (count, n)
    assert got.tolist() == [list(_reference_draw(b, n)) for _ in range(count)]
    assert a.getstate() == b.getstate()


def test_draws_redraw_zero_vectors_as_single_draws_do():
    # at n = 1 one value in 19 is zero and is drawn again
    zeros = []
    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        assert _draws(a, 1, 30).ravel().tolist() == [
            _reference_draw(b, 1, zeros)[0] for _ in range(30)]
        assert a.getstate() == b.getstate()
    assert zeros


@pytest.mark.parametrize("n", [SHADOW_PRIMES[0], 2 ** 30 + 1, 1, 2 ** 32 - 1])
@pytest.mark.parametrize("count", [0, 1, 7, 5000])
def test_draws_below_match_randrange_and_its_final_state(n, count):
    # 2^30 + 1 keeps 31 bits of each word and rejects about half of them
    a, b = random.Random(count), random.Random(count)
    got = _draws_below(a, n, count)
    assert got.dtype == np.int64
    assert got.tolist() == [b.randrange(n) for _ in range(count)]
    assert a.getstate() == b.getstate()


@pytest.mark.parametrize("n", [0, -5, 2 ** 32, 2 ** 32 + 1])
def test_draws_below_refuse_a_bound_past_one_word(n):
    # randrange(2^32) already takes 33 bits, two words per try
    with pytest.raises(ExactAlgError, match="0 < n < 2"):
        _draws_below(random.Random(0), n, 3)


@pytest.mark.parametrize("count", [1, 3])
def test_sample_raises_at_the_cap(count):
    rounds = []

    def draw(rng, k):
        rounds.append(k)
        return np.array([rng.random() for _ in range(k)])

    with pytest.raises(ExactAlgError, match=f"draw cap of {DRAWS_PER_RESULT * count} "):
        _sample(random.Random(0), count, draw, lambda xs: [])
    assert rounds == [count] * DRAWS_PER_RESULT
