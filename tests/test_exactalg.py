"""Exact algebra layer: ring axioms, calculus rules, linear algebra oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modgem.exactalg import (
    DEFAULT_SHADOWS,
    ExactAlgError,
    MPoly,
    ProjLine,
    ProjPoint,
    ShadowMismatch,
    checked_rank,
    det_bareiss,
    det_poly,
    elementary_symmetric,
    hessian_det,
    kernel_int,
    monomials,
    power_sum,
    proportional,
    rank_exact,
    rank_mod,
    rref_int,
    solve_exact,
    vanishing_space,
)


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


# -- degree and term order -----------------------------------------------------

def test_zero_degree_is_none():
    assert MPoly.zero(4).degree() is None
    assert MPoly.constant(4, 5).degree() == 0


def test_grevlex_monomial_order():
    # deg-2 monomials in 3 vars, x0 > x1 > x2
    mono = monomials(3, 2)
    assert mono == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert len(monomials(5, 3)) == 35
    assert len(monomials(6, 5)) == 252


def test_leading_term_and_str():
    x, y, z = _vars(3)
    p = 2 * x * y - z ** 2 + 3 * y ** 2
    exp, c = p.leading()
    assert exp == (1, 1, 0) and c == 2
    assert p.to_str() == "2*x0*x1 + 3*x1^2 - x2^2"


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
    assert det_poly(pm) == MPoly.constant(1, det_bareiss(mat))


# -- restriction --------------------------------------------------------------

def test_restrict_to_subspace():
    x, y, z = _vars(3)
    f = x ** 2 + y ** 2 + z ** 2
    # span{(1,1,0),(0,0,1)}: u^2 coefficient doubles
    g = f.restrict([[1, 1, 0], [0, 0, 1]])
    u, v = _vars(2)
    assert g == 2 * u ** 2 + v ** 2


def test_restrict_to_line_sees_all_roots():
    x, y, z = _vars(3)
    f = x * y * z  # cubic vanishing on the line z=0
    assert all(c == 0 for c in f.restrict_to_line([1, 0, 0], [0, 1, 0]))
    g = x ** 3
    assert any(c != 0 for c in g.restrict_to_line([1, 0, 0], [0, 1, 0]))


# -- projective points and lines -----------------------------------------------

def test_point_canonicalization():
    assert ProjPoint([2, -4, 6]).coords == (1, -2, 3)
    assert ProjPoint([-1, 2]).coords == (1, -2)
    assert ProjPoint([Fraction(1, 2), Fraction(1, 3)]).coords == (3, 2)
    assert ProjPoint([0, 0, -5]).coords == (0, 0, 1)
    with pytest.raises(ExactAlgError):
        ProjPoint([0, 0, 0])


def test_line_key_independent_of_spanning_pair():
    a = ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
    b = ProjLine(ProjPoint([1, 1, 0, 0]), ProjPoint([1, -3, 0, 0]))
    c = ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 0, 1, 0]))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a.contains(ProjPoint([5, 7, 0, 0]))
    assert not a.contains(ProjPoint([0, 0, 1, 0]))


def test_degenerate_line_rejected():
    with pytest.raises(ExactAlgError):
        ProjLine(ProjPoint([1, 2, 3]), ProjPoint([2, 4, 6]))


# -- integer linear algebra ------------------------------------------------------

def test_rref_and_rank():
    ech, piv = rref_int([[2, 4, 6], [1, 2, 4]])
    assert piv == [0, 2]
    assert rank_exact([[1, 2], [2, 4], [3, 6]]) == 1
    assert rank_exact([[1, 0], [0, 1]]) == 2
    assert rank_exact([]) == 0


def test_kernel_is_exactly_verified():
    basis = kernel_int([[1, 1, 1, 1], [1, 2, 3, 4]])
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
        assert v[0] + 2 * v[1] + 3 * v[2] + 4 * v[3] == 0


def test_solve_exact():
    assert solve_exact([[1, 1], [1, -1]], [3, 1]) == [Fraction(2), Fraction(1)]
    assert solve_exact([[1, 1], [2, 2]], [1, 3]) is None


def test_det_bareiss():
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    hilbertish = [[60 // (i + j + 1) for j in range(3)] for i in range(3)]
    assert det_bareiss(hilbertish) != 0


@given(st.lists(st.lists(coeffs, min_size=4, max_size=4), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_modular_rank_agrees_with_exact(rows):
    r = rank_exact(rows)
    for shadow in DEFAULT_SHADOWS:
        assert rank_mod(rows, shadow.modulus) == r


def test_checked_rank_raises_on_forced_mismatch():
    # a matrix that drops rank mod the first shadow prime only
    p = DEFAULT_SHADOWS[0].modulus
    with pytest.raises(ShadowMismatch):
        checked_rank([[1, 0], [0, p]], shadows=DEFAULT_SHADOWS[:1])
    assert checked_rank([[1, 0], [0, p]], shadows=DEFAULT_SHADOWS[1:]) == 2


# -- vanishing spaces ------------------------------------------------------------

def test_conics_through_points():
    pts = [ProjPoint(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3])]
    vs = vanishing_space(2, 3, points=pts)
    assert vs.dim == 1  # five general points determine a conic
    conic = vs.basis[0]
    for pt in pts:
        assert conic.eval(pt.coords) == 0


def test_line_constraints_use_enough_parameters():
    # quadrics in P^3 containing a line form a 7-dim space (10 monomials - 3)
    ln = ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
    vs = vanishing_space(2, 4, lines=[ln])
    assert vs.dim == 7
    z, w = MPoly.var(2, 4), MPoly.var(3, 4)
    assert vs.contains(z * w)
    assert not vs.contains(MPoly.var(0, 4) ** 2)


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
    span_mono = monomials(4, 2)
    rows = [b.coefficient_vector(span_mono) for b in direct.basis]
    for b in certified.basis:
        assert solve_exact(list(zip(*rows)), b.coefficient_vector(span_mono)) is not None


def test_candidate_that_does_not_vanish_is_rejected():
    ln = ProjLine(ProjPoint([1, 0, 0, 0]), ProjPoint([0, 1, 0, 0]))
    with pytest.raises(ExactAlgError):
        vanishing_space(2, 4, lines=[ln], candidates=[MPoly.var(0, 4) ** 2])
