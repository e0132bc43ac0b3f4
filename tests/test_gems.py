"""The four hypersurfaces: singular loci, subspaces, invariants, duality."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modgem import gems
from modgem import lines27
from modgem.exactalg import (
    ExactAlgError,
    MPoly,
    ProjLine,
    ProjPoint,
    ShadowMismatch,
    _IntEchelon,
    _incidence,
    elementary_symmetric,
    power_sum,
    vanishing_space,
)

from fraction_rank import on_line, reference_rank


@pytest.fixture(scope="module")
def segre():
    return gems.build_segre(seed=0)


@pytest.fixture(scope="module")
def nieto():
    return gems.build_nieto()


@pytest.fixture(scope="module")
def quintic():
    return gems.build_invariant_quintic(seed=0, words=25)


@pytest.fixture(scope="module")
def locus():
    return gems.i5_singular_locus(seed=0, offline_samples=10)


@pytest.fixture(scope="module")
def subspaces():
    return gems.linear_subspaces_i5()


@pytest.fixture(scope="module")
def duality():
    return gems.duality_pipeline(seed=0)


# -- helpers -------------------------------------------------------------------


small_ints = st.integers(min_value=-6, max_value=6)


def lin(coeffs):
    return MPoly.linear(list(coeffs))


@given(st.lists(small_ints, min_size=3, max_size=3),
       st.lists(small_ints, min_size=3, max_size=3),
       st.lists(small_ints, min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_exact_division_inverts_multiplication(a, b, c):
    p = lin(a) * lin(b)
    d = lin(c)
    if d.is_zero():
        return
    assert gems._exact_div(p * d, d) == p


def test_exact_division_rejects_non_multiples():
    x0 = MPoly.var(0, 2)
    x1 = MPoly.var(1, 2)
    with pytest.raises(ExactAlgError, match="not an exact polynomial quotient"):
        gems._exact_div(x0 * x0 + x1 * x1, x0)
    with pytest.raises(ExactAlgError, match="division by the zero polynomial"):
        gems._exact_div(x0, MPoly.zero(2))


# forms in 3 variables, not homogeneous, with int and Fraction coefficients
mixed_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    st.one_of(small_ints, st.fractions(min_value=-6, max_value=6, max_denominator=5)),
    max_size=5).map(lambda terms: MPoly(3, terms))


@given(mixed_polys, mixed_polys, small_ints)
@settings(max_examples=60, deadline=None)
def test_exact_division_is_the_quotient_of_a_product(q, den, c):
    # a nonzero constant added to a multiple of a nonconstant form leaves a
    # remainder, so that sum has no exact quotient
    assume(not den.is_zero())
    num = q * den
    assert gems._exact_div(num, den) * den == num
    if den.degree() and c:
        with pytest.raises(ExactAlgError, match="not an exact polynomial quotient"):
            gems._exact_div(num + MPoly.constant(3, c), den)


# -- Segre cubic ---------------------------------------------------------------


def test_segre_census(segre):
    assert len(segre.nodes) == 10
    assert len(segre.planes) == 15
    assert segre.node_quadrics.dim == 5
    assert segre.node_quadrics.method == "candidates"
    assert len(segre.node_quadrics.modular_ranks) == 2


def test_node_quadrics_reject_a_short_candidate_list():
    # four partials vanish at the nodes but span less than the quadrics there
    with pytest.raises(ShadowMismatch, match="member span 4 does not meet modular bound 5"):
        vanishing_space(2, 5, points=gems._chart_nodes(),
                        candidates=gems.segre_chart().partials()[:4])


def test_segre_contains_reference_plane_and_node(segre):
    assert ((0, 3), (1, 4), (2, 5)) in segre.planes
    assert ProjPoint((1, 1, -1, -1, -1)) in segre.nodes


def test_segre_pair_sections_split_with_scalar_three(segre):
    assert set(segre.hyperplane_scalars) == set(
        tuple(sorted(p)) for p in itertools.combinations(range(6), 2))
    assert set(segre.hyperplane_scalars.values()) == {Fraction(3)}


def test_segre_chart_is_the_sum_of_six_cubes():
    F = gems.segre_chart()
    x = [MPoly.var(i, 5) for i in range(5)]
    assert F == power_sum(3, x) - elementary_symmetric(1, x) ** 3
    assert F.degree() == 3 and F.is_homogeneous()


def test_segre_nodes_are_the_sign_balanced_points():
    # exactly the triples: +1 on three coordinates of P^5, -1 on the rest
    for node in gems._nodes_p5():
        assert sorted(node.coords) == [-1, -1, -1, 1, 1, 1]


def test_param_identities_and_reference_images():
    rep = gems.segre_param(seed=0, samples=5)
    assert rep.samples_on_cubic == 5
    assert rep.degenerate_line_node == ProjPoint((1, 1, -1, -1, -1))
    assert gems.segre_chart().eval(rep.probe_point.coords) == 0


@given(st.lists(small_ints, min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_parametrization_lands_on_the_cubic(z):
    pt, = gems._beta_chart_points([z])
    if pt is not None:
        assert gems.segre_chart().eval(pt.coords) == 0


# -- Nieto quintic ---------------------------------------------------------------


def test_nieto_census(nieto):
    assert len(nieto.lines) == 20
    assert len(nieto.nodes) == 10
    assert len(nieto.cross_points) == 15
    assert len(nieto.matching_planes) == 15
    assert len(nieto.coordinate_planes) == 15
    assert nieto.line_labels == tuple(sorted(itertools.combinations(range(6), 3)))


def test_nieto_row_incidences_are_echelon_membership(monkeypatch):
    # build_nieto tests the chart points against the rows that cut out each
    # flat in P^5; the oracle is membership in the span of the flat's chart
    # basis: the 20 lines, then the 15 matching and 15 coordinate planes,
    # against the 10 nodes, the 15 difference points and the 40 line ends
    calls = []
    real = gems._incidence

    def spy(vectors, flats):
        calls.append(real(vectors, flats))
        return calls[-1]

    monkeypatch.setattr(gems, "_incidence", spy)
    model = gems.build_nieto()
    (got,) = [c for c in calls if c.shape == (65, 50)]
    flats = ([[line.p.coords, line.q.coords] for line in model.lines]
             + list(model.matching_planes) + list(model.coordinate_planes))
    points = [*model.nodes, *model.cross_points,
              *(pt for line in model.lines for pt in (line.p, line.q))]
    assert got.tolist() == [[_IntEchelon(basis).contains(pt.coords) for basis in flats]
                            for pt in points]


def test_nieto_coordinate_sections_split_into_five_planes(nieto):
    assert set(nieto.coordinate_scalars.values()) == {Fraction(1)}


def test_nieto_pair_sections_leave_a_double_plane(nieto):
    assert set(nieto.residual_quadrics) == set(
        tuple(sorted(p)) for p in itertools.combinations(range(6), 2))
    for quad in nieto.residual_quadrics.values():
        assert quad.degree() == 2
    assert nieto.residual_quadrics[(0, 1)] == MPoly.from_terms(
        4, [((2, 0, 0, 0), -1)])


def test_nieto_chart_form():
    x = [MPoly.var(i, 5) for i in range(5)]
    s = elementary_symmetric(1, x)
    assert gems.nieto_chart() == elementary_symmetric(5, x) - s * elementary_symmetric(4, x)


def test_hessian_of_cubic_is_the_nieto_quintic():
    rep = gems.hessian_equals_nieto()
    assert rep.scalar == 6 ** 5 == 7776
    assert rep.determinant_identity
    assert rep.singular_nodes == 10


# -- invariant quintic -----------------------------------------------------------


def test_invariant_quintic_shape():
    f = gems.invariant_quintic_form()
    assert f.degree() == 5 and f.is_homogeneous()
    terms = dict(f.iter_terms())
    assert len(terms) == 22
    # even in each of the first five variables except for the monomial term
    mono = tuple([1] * 5 + [0])
    for exp in terms:
        if exp != mono:
            assert all(e % 2 == 0 for e in exp[:5])


def test_invariance_and_power_sum_scalars(quintic):
    assert quintic.generator_checks == 6
    assert quintic.word_checks == 25
    assert quintic.symmetric_scalar == Fraction(-3, 8)
    assert quintic.power_scalars == {2: Fraction(6), 5: Fraction(-5, 54)}


def test_symmetric_model_coefficients():
    g = gems.double_six_quotient()
    a = [MPoly.var(i, 6) for i in range(6)]
    sig = [elementary_symmetric(k, a) for k in range(6)]
    assert g == (243 * sig[5] - 81 * sig[4] * sig[1] + 27 * sig[3] * sig[1] ** 2
                 - 9 * sig[2] * sig[1] ** 3 + 2 * sig[1] ** 5)


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6))
@settings(max_examples=10, deadline=None)
def test_random_words_fix_the_quintic(word):
    _, mats, _ = lines27.weyl_generators()
    mat = tuple(map(tuple, gems._word_products(mats, [word])[0].tolist()))
    # the product of len(word) matrices stored as 4M, pulling back a quintic
    f = gems.invariant_quintic_form()
    assert gems._pullback(f, [mat]) == [f * lines27.WEYL_SCALE ** (5 * len(word))]


def _python_product(mats):
    out = mats[0]
    for m in mats[1:]:
        out = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in out]
    return [list(row) for row in out]


words_of_generators = st.lists(st.lists(st.integers(min_value=0, max_value=5),
                                        min_size=1, max_size=10), min_size=1, max_size=8)


@given(words_of_generators)
@settings(max_examples=30, deadline=None)
def test_batched_word_reading_matches_each_word_alone(words):
    _, mats, _ = lines27.weyl_generators()
    products = gems._word_products(mats, words)
    assert products.tolist() == [_python_product([mats[k] for k in word]) for word in words]
    scales = [lines27.WEYL_SCALE ** len(word) for word in words]
    assert lines27.perm27_from_matrices(products, scales) == [
        lines27.perm27_from_matrices([mat], [scale])[0]
        for mat, scale in zip(products.tolist(), scales)]


@given(words_of_generators)
@settings(max_examples=10, deadline=None)
def test_word_products_past_int64_are_exact(words):
    # generators scaled by 2^40: a product of two already passes 2^62
    _, mats, _ = lines27.weyl_generators()
    big = [[[v << 40 for v in row] for row in mat] for mat in mats]
    assert gems._word_products(big, words).tolist() == [
        _python_product([big[k] for k in word]) for word in words]


def test_cutting_forms_mark_the_points_of_each_line():
    lines = lines27.special_loci().lines120
    pts = [pt for line in lines[:10] for pt in (line.p, line.q)]
    pts += [ProjPoint([a + 2 * b for a, b in zip(line.p.coords, line.q.coords)])
            for line in lines[10:20]]
    pts += [ProjPoint(v) for v in ([1, 2, 3, 4, 5, 6], [1, 0, 0, 0, 0, 0], [3, -1, 4, 1, -5, 9])]
    got = _incidence([pt.coords for pt in pts], gems._cutting_forms(lines))
    assert got.tolist() == [[on_line(line, pt) for line in lines] for pt in pts]


big_coords = st.integers(min_value=-2 ** 40, max_value=2 ** 40)


@given(st.lists(st.lists(big_coords, min_size=4, max_size=4), min_size=3, max_size=3),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_cutting_forms_of_lines_past_int64_products(vecs, a, b):
    # coordinates past 2^31, whose Pluecker products leave int64, are cut out
    # in Python integers: a combination of the ends is on the line, and a
    # random point is on it exactly when the three have rank 2
    p, q, r = vecs
    assume(reference_rank([p, q]) == 2 and any(r))
    line = ProjLine(ProjPoint(p), ProjPoint(q))
    pts = [ProjPoint([a * x + b * y for x, y in zip(p, q)]), ProjPoint(r)]
    got = _incidence([pt.coords for pt in pts], gems._cutting_forms([line]))
    assert got[:, 0].tolist() == [True, on_line(line, pts[1])]


# -- singular locus of the quintic -------------------------------------------------


def test_singular_locus_census(locus):
    assert locus.line_count == 120
    assert locus.point_count == 36
    assert locus.lines_in_simplex_wall == 40
    assert locus.lines_per_point == 10
    assert locus.points_per_line == 3
    assert locus.offline_checked == 10


def test_jacobian_quartics(locus):
    assert locus.jacobian_quartics.dim == 6
    assert locus.jacobian_quartics.method == "candidates"
    assert len(locus.jacobian_quartics.modular_ranks) == 2


def test_third_order_witnesses_cover_all_points(locus):
    assert len(locus.third_order_witness) == 36
    assert locus.third_order_witness["h23"] == (0, 0, 5)


def test_triple_cone_at_reference_point():
    cone = gems.triple_point_cone("h23")
    assert cone.point == ProjPoint((1, -1, 0, 0, 0, 0))
    assert cone.chart_axis == 0
    assert cone.dual_scalar == Fraction(-1)
    assert cone.s3.degree() == 3 and cone.s5.degree() == 5
    assert len(cone.directions) == 10
    assert cone.direction_quadrics.dim == 5


@pytest.mark.parametrize("label", ["h", "h12", "h45", "h123", "h234", "h345"])
def test_triple_cone_all_shapes(label):
    cone = gems.triple_point_cone(label)
    assert len(cone.directions) == 10
    assert cone.direction_quadrics.dim == 5


def test_triple_cone_rejects_unknown_label():
    with pytest.raises(ExactAlgError):
        gems.triple_point_cone("h99")


# -- linear subspaces ---------------------------------------------------------------


def test_subspace_census(subspaces):
    assert subspaces.p3_count == 45
    assert subspaces.p3_per_hyperplane == 5
    assert subspaces.hyperplanes_per_p3 == 3
    assert set(subspaces.hyperplane_scalars) == set(lines27.LINE_LABELS)


def test_subspace_scalars(subspaces):
    # sign depends on which of the two opposite co-tritangent forms cuts
    # each P3; the magnitude is canonical
    assert {abs(s) for s in subspaces.hyperplane_scalars.values()} == {Fraction(648)}
    assert subspaces.quotient_scalar == Fraction(243)
    assert subspaces.simplex_scalar == Fraction(-648)


def test_restriction_arrangements_census():
    rep = gems.restriction_arrangements()
    assert len(rep.root_classes) == 24
    assert len(rep.weight_classes) == 12
    assert rep.vanishing_labels == ("a1", "b2", "c12")
    assert set(rep.weight_classes) <= set(rep.root_classes)


# -- rationalization -----------------------------------------------------------------


def test_projection_maps_are_the_stated_products():
    maps = gems.phi_quartics()
    assert maps.l_names == ("a1", "a4", "a5", "c35")
    assert maps.m_names == ("b4", "b5", "b6", "c12")
    assert all(q.degree() == 4 for q in maps.phi)
    assert all(o.degree() == 8 for o in maps.psi)


@given(st.lists(small_ints, min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_octic_image_satisfies_the_quintic(y):
    vals = [o.eval(y) for o in gems.psi_octics()]
    if any(vals):
        assert gems.invariant_quintic_form().eval(vals) == 0


def test_rationalization_report():
    rep = gems.rationalize_i5(seed=0, exact_samples=20, modular_samples=2000,
                              roundtrip_samples=10)
    assert rep.base_p3_names == ("(14)", "(45)", "(56)", "(12.35.46)")
    assert rep.exact_checked == 20
    assert all(n == 2000 for n in rep.modular_checked.values())
    assert len(rep.modular_checked) == 2
    assert all(b < -1000 for b in rep.failure_log10.values())
    assert rep.roundtrip_phi_psi == 10
    assert rep.roundtrip_psi_phi == 10


# -- duality ---------------------------------------------------------------------


def test_duality_fit(duality):
    assert duality.fitted_dim == 1
    assert len(duality.image_lines) == 15
    assert duality.line_cubics.dim == 5
    assert duality.biduality_checked == 20


def test_fitted_quartic_fingerprint(duality):
    Q = duality.quartic
    terms = dict(Q.iter_terms())
    assert Q.degree() == 4 and len(terms) == 70
    assert terms[(4, 0, 0, 0, 0)] == 5
    assert terms[(3, 1, 0, 0, 0)] == -4
    assert terms[(2, 2, 0, 0, 0)] == -2
    assert terms[(2, 1, 1, 0, 0)] == 4
    assert terms[(1, 1, 1, 1, 0)] == -8


def test_fitted_quartic_symmetry_and_seed_independence(duality):
    Q = duality.quartic
    x = [MPoly.var(i, 5) for i in range(5)]
    swap = [x[1], x[0], x[2], x[3], x[4]]
    cycle = [x[1], x[2], x[3], x[4], x[0]]
    assert Q.subs(swap) == Q and Q.subs(cycle) == Q
    assert gems.duality_pipeline(seed=3).quartic == Q


def test_fitted_quartic_composite_is_divisible_by_the_cubic(duality):
    F = gems.segre_chart()
    quo = gems._exact_div(duality.quartic.subs(F.partials()), F)
    assert quo.degree() == 5


# -- auxiliary sections ------------------------------------------------------------


def test_auxiliary_sections():
    rep = gems.auxiliary_sections()
    assert rep.diagonal_identity
    assert rep.cayley_nodes == 4
    assert rep.squaring_identity


# -- type invariants -----------------------------------------------------------------


def test_hypersurface_rejects_wrong_degree():
    with pytest.raises(ExactAlgError):
        gems._require_form(gems.segre_chart(), 4)


def test_hypersurface_rejects_zero_form():
    with pytest.raises(ExactAlgError):
        gems._require_form(MPoly.zero(5), 3)


def test_rationalization_maps_reject_tampered_quartics(monkeypatch):
    maps = gems.phi_quartics()
    bad = dataclasses.replace(maps, phi=maps.phi[:4] + (maps.phi[4] * 2,))
    monkeypatch.setattr(gems, "phi_quartics", lambda: bad)
    with pytest.raises(ExactAlgError, match="must reproduce the point"):
        gems.rationalize_i5(seed=0, exact_samples=5, modular_samples=100,
                            roundtrip_samples=5)
