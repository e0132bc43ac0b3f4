"""Exact models of the classical modular hypersurfaces and their interplay.

Four actors share the stage: the ten-nodal Segre cubic threefold, the Igusa
quartic dual to it (derived here by fitting, never transcribed), the Nieto
quintic cut out by the first and fifth elementary symmetric functions, and
the Weyl-invariant quintic fourfold of the E6 reflection arrangement. Every
geometric claim is certified in exact rational arithmetic: singular loci
with their multiplicities, linear subspaces and how hyperplane sections
split, the Hessian identity tying the cubic to the Nieto quintic, power-sum
invariants, a rationalization of the invariant quintic with projective
round trips, and the cubic-quartic duality as an evaluation-matrix kernel.

Charts eliminate the last coordinate through the linear equation whenever
the hypersurface has one (x5 = -(x0+...+x4) for the symmetric actors); the
invariant quintic keeps all six coordinates. Operations that sample take a
seed and derive their generator from it, so certificates reproduce.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Collection, Sequence

import numpy as np

from .exactalg import (
    ExactAlgError,
    MPoly,
    ProjLine,
    ProjPoint,
    VanishingSpace,
    _IntEchelon,
    _chart_coordinates,
    _clear_row,
    _draws,
    _draws_below,
    _incidence,
    _max_abs,
    _sample,
    _span_images,
    _task_rng,
    _values_at,
    det_poly,
    elementary_symmetric,
    hessian_det,
    kernel_int,
    power_sum,
    proportional,
    restrictions,
    substitute,
    vanishing_space,
)
from . import exactalg, lines27
from .rootarr import RootSystemId, roots


# -- plumbing ----------------------------------------------------------------------------


def _product(forms: Sequence[MPoly]) -> MPoly:
    acc = MPoly.constant(forms[0].nvars, 1)
    for f in forms:
        acc = acc * f
    return acc


def _exact_div(num: MPoly, den: MPoly) -> MPoly:
    """Quotient num/den, defined only when den divides num exactly, by one long
    division that updates one remainder dict in place. Its keys are exponent
    tuples led by their degree, so the largest key is the leading term in the
    order of `MPoly.leading` (graded, then lex), and adding two keys multiplies."""
    if den.is_zero():
        raise ExactAlgError("division by the zero polynomial")
    rem = {(sum(e), *e): c for e, c in num.iter_terms()}
    dens = {(sum(e), *e): c for e, c in den.iter_terms()}
    (lead_exp, lead_c), quo = den.leading(), {}
    lead = (sum(lead_exp), *lead_exp)
    while rem:
        top = max(rem)
        step = tuple(map(operator.sub, top, lead))
        if min(step) < 0:
            raise ExactAlgError("not an exact polynomial quotient")
        c = Fraction(rem[top], lead_c)
        c = quo[step[1:]] = c.numerator if c.denominator == 1 else c
        for key, dc in dens.items():
            key = tuple(map(operator.add, step, key))
            if value := rem.get(key, 0) - c * dc:
                rem[key] = value
            else:
                del rem[key]
    return MPoly(num.nvars, quo)


def _lift5to6(p: MPoly) -> MPoly:
    return MPoly.from_terms(6, ((exp + (0,), c) for exp, c in p.iter_terms()))


def _flat_chart_basis(zeros: Sequence[int]) -> list[tuple[int, ...]]:
    """Chart basis of {x_i = 0 for i in zeros} inside {sum = 0}: solve, then
    drop the last coordinate, which is injective on {sum = 0}, so the
    truncated vectors span a flat of the same dimension."""
    full = [[1 if k == i else 0 for k in range(6)] for i in zeros] + [[1] * 6]
    return [v[:5] for v in kernel_int(full)]


def _word_products(mats: Sequence[lines27.IntMatrix],
                   words: Sequence[Sequence[int]]) -> np.ndarray:
    """The product of each word's matrices, left to right, as one stack of
    exact integer matrices: per letter position, one stacked product of
    the words that are still that long. It is taken in int64 while
    max|left| * max|right| * width < 2^62 bounds every entry and partial
    sum (as in `_int_matmul`), else on Python ints."""
    gens = np.array(mats, dtype=np.int64)
    out = gens[[word[0] for word in words]]
    for j in range(1, max(map(len, words), default=0)):
        live = [i for i, word in enumerate(words) if len(word) > j]
        right = gens[[words[i][j] for i in live]]
        if _max_abs(out[live]) * _max_abs(right) * gens.shape[2] >= 2 ** 62:
            out, right = out.astype(object), right.astype(object)
        out[live] = out[live] @ right
    return out


def _pullback(f: MPoly, mats: Sequence[lines27.IntMatrix]) -> list[MPoly]:
    """For each mat, f with each x_i replaced by the linear form of row i of
    mat: one `substitute` of f at the rows' forms."""
    return substitute([f], [[MPoly.linear(row) for row in mat] for mat in mats])[0]


def _require_form(form: MPoly, degree: int) -> None:
    """Raise unless form is a nonzero homogeneous form of the given degree."""
    if form.is_zero() or not form.is_homogeneous() or form.degree() != degree:
        raise ExactAlgError(f"defining form must be homogeneous of degree {degree}")


# -- domain types ------------------------------------------------------------------------


@dataclass(frozen=True)
class TripleCone:
    """Degree pieces of the invariant quintic at one of its 36 triple points.

    In the chart x = t*p + u (u running over a coordinate complement, t the
    coordinate along p) the quintic collapses to s5 + s3*(t*dual_scalar*ell + t**2)
    with ell the dual root form: the three highest t-powers vanish because the point
    has multiplicity 3, and the t-linear piece factors through the tangent cone cubic s3.
    """

    point: ProjPoint
    chart_axis: int
    s5: MPoly
    s3: MPoly
    dual_scalar: Fraction
    directions: tuple[ProjPoint, ...]
    direction_quadrics: VanishingSpace


@dataclass(frozen=True)
class RationalizationMaps:
    """The quartic projection and its octic inverse for the invariant quintic.

    Four pairwise-disjoint-enough P3's among the 45 are fixed; phi sends x to
    the five quartics built from their cutting forms, psi gives the six
    coordinates back as octics in the image coordinates.
    """

    l_names: tuple[str, ...]
    m_names: tuple[str, ...]
    l_forms: tuple[MPoly, ...]
    m_forms: tuple[MPoly, ...]
    phi: tuple[MPoly, ...]
    psi: tuple[MPoly, ...]

    def __post_init__(self):
        if len(self.l_forms) != 4 or len(self.m_forms) != 4:
            raise ExactAlgError("four P3's define the projection")
        if len(self.psi) != 6 or any(o.degree() != 8 for o in self.psi):
            raise ExactAlgError("inverse components must be octics")


# -- the Segre cubic ---------------------------------------------------------------------


@lru_cache(maxsize=1)
def segre_chart() -> MPoly:
    """Sum of six cubes on the hyperplane {sum of six coordinates = 0}."""
    x = [MPoly.var(i, 5) for i in range(5)]
    s = elementary_symmetric(1, x)
    return power_sum(3, x) - s ** 3


@lru_cache(maxsize=1)
def _six_cubes() -> MPoly:
    return power_sum(3, [MPoly.var(i, 6) for i in range(6)])


@lru_cache(maxsize=1)
def _nodes_p5() -> tuple[ProjPoint, ...]:
    pts = {ProjPoint([1 if i in triple else -1 for i in range(6)])
           for triple in itertools.combinations(range(6), 3)}
    if len(pts) != 10:
        raise ExactAlgError("the node orbit must have 10 projective points")
    return tuple(sorted(pts, key=lambda p: p.coords))


def _chart_nodes() -> tuple[ProjPoint, ...]:
    return tuple(ProjPoint(p.coords[:5]) for p in _nodes_p5())


@lru_cache(maxsize=1)
def _matchings() -> tuple[tuple[tuple[int, int], ...], ...]:
    """The 15 ways to split {0..5} into three unordered pairs, in sorted order:
    the pair partitions of {1..6} shifted down by one."""
    return tuple(tuple((i - 1, j - 1) for i, j in part) for part in lines27.pair_partitions())


def _matching_rows(matching) -> list[list[int]]:
    return [[1 if k in pair else 0 for k in range(6)] for pair in matching]


@lru_cache(maxsize=1)
def _plane_bases() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Integer bases of the 15 matching planes, each on the cubic with 4 nodes."""
    bases = []
    for matching in _matchings():
        basis = kernel_int(_matching_rows(matching))
        if len(basis) != 3:
            raise ExactAlgError("a matching plane must be 3-dimensional")
        if any(sum(v) != 0 for v in basis):
            raise ExactAlgError("matching planes must lie inside {sum = 0}")
        bases.append(tuple(tuple(v) for v in basis))
    on_planes = _incidence([p.coords for p in _nodes_p5()],
                           [_matching_rows(matching) for matching in _matchings()]).sum(axis=0)
    for matching, cut, on_plane in zip(_matchings(), restrictions([_six_cubes()], bases)[0],
                                       on_planes.tolist()):
        if not cut.is_zero():
            raise ExactAlgError(f"plane {matching} does not lie on the cubic")
        if on_plane != 4:
            raise ExactAlgError(f"plane {matching} holds {on_plane} nodes, wanted 4")
    return tuple(bases)


@dataclass(frozen=True)
class SegreModel:
    nodes: tuple[ProjPoint, ...]
    planes: tuple[tuple[tuple[int, int], ...], ...]
    hyperplane_scalars: dict[tuple[int, int], Fraction]
    node_quadrics: VanishingSpace


def build_segre(seed: int = 0, offnode_samples: int = 20) -> SegreModel:
    """The ten-nodal cubic threefold with its planes, nodes, and node quadrics.

    Certifies: the 15 matching planes lie on the cubic and hold 4 nodes each;
    every pair hyperplane meets the cubic in exactly the 3 planes through its
    pair (the restricted cubic splits into 3 linear factors); the gradient
    vanishes precisely at the nodes among all sampled points; the quadrics
    through the 10 nodes form the 5-dimensional span of the chart partials.
    """
    F = segre_chart()
    _require_form(F, 3)
    nodes = _chart_nodes()
    cubes = _six_cubes()

    grads = F.partials()
    planes = _matchings()
    _plane_bases()  # raises unless each plane lies on the cubic with 4 nodes

    # a pair hyperplane cuts the cubic in the three planes of the matchings
    # through that pair
    scalars: dict[tuple[int, int], Fraction] = {}
    sections = _pair_sections()
    cuts = restrictions([cubes], [section for section, _ in sections.values()])[0]
    for (pair, (_, planes_form)), cut in zip(sections.items(), cuts):
        scalar = proportional(cut, planes_form)
        if scalar is None:
            raise ExactAlgError(f"section at {pair} does not split into 3 planes")
        scalars[pair] = scalar

    # the partials vanish at the nodes, so the nodes are singular, and span
    # every quadric through them
    quadrics = vanishing_space(2, 5, points=nodes, candidates=grads)
    if quadrics.dim != 5:
        raise ExactAlgError(f"node quadrics have dimension {quadrics.dim}, wanted 5")

    def offnode(zs: np.ndarray) -> list[ProjPoint]:
        pts = _off_node_points(zs)
        for pt, (value, *grad) in zip(pts, _values_at([F, *grads], [pt.coords for pt in pts])):
            if value:
                raise ExactAlgError("parametrized point must land on the cubic")
            if not any(grad):
                raise ExactAlgError(f"unexpected singular point {pt}")
        return pts

    _sample(_task_rng(seed, "segre-offnode"), offnode_samples,
            lambda rng, k: _draws(rng, 4, k), offnode)
    return SegreModel(nodes, planes, scalars, quadrics)


@lru_cache(maxsize=1)
def _pair_sections() -> dict[tuple[int, int], tuple[list[tuple[int, ...]], MPoly]]:
    """Per pair of coordinates: a P3 basis of its hyperplane inside {sum = 0}
    and the product of the three linear forms that cut out, on that section,
    the matching planes through the pair.

    On the section the two leftover pair forms of a matching agree up to
    sign, so one linear form cuts each plane.
    """
    pairs = list(itertools.combinations(range(6), 2))
    sections = [kernel_int(_matching_rows([pair]) + [[1] * 6]) for pair in pairs]
    if any(len(section) != 4 for section in sections):
        raise ExactAlgError("pair hyperplane section must be a P3")
    forms = dict(zip(pairs, map(MPoly.linear, _matching_rows(pairs))))
    products = _split_sections(forms, _matchings(), sections)
    if any(product.degree() != 3 for product in products):
        raise ExactAlgError("each pair lies in exactly 3 matchings")
    return dict(zip(pairs, zip(sections, products)))


def _split_sections(forms: dict, triples: Sequence[Collection],
                    sections: Sequence[Sequence[Sequence[int]]]) -> list[MPoly]:
    """For each named linear form, with its section (a basis of the flat it
    cuts), the product over the zero-sum triples of names through that name
    of the first, in sorted order, of the other two forms restricted to its
    section; those two must be opposite there. One `restrictions` call."""
    cut = dict(zip(forms, restrictions(list(forms.values()), sections)))
    products = []
    for b, name in enumerate(forms):
        product = MPoly.constant(len(sections[b]), 1)
        for triple in triples:
            if name in triple:
                first, second = sorted(set(triple) - {name})
                if not (cut[first][b] + cut[second][b]).is_zero():
                    raise ExactAlgError(f"the forms of {sorted(triple)} other than {name} "
                                        "must be opposite on its section")
                product = product * cut[first][b]
        products.append(product)
    return products


# -- parametrizing the cubic -------------------------------------------------------------


@lru_cache(maxsize=1)
def _param_quadrics() -> tuple[MPoly, ...]:
    """The bilinear quadrics xi, eta, zeta and their primed partners xi', eta', zeta'."""
    z = [MPoly.var(i, 4) for i in range(4)]
    return (z[0] * (z[3] - z[1]), z[1] * (z[3] - z[2]), z[2] * (z[3] - z[0]),
            z[1] * (z[3] - z[0]), z[2] * (z[3] - z[1]), z[0] * (z[3] - z[2]))


@lru_cache(maxsize=1)
def beta_components() -> tuple[MPoly, ...]:
    """Quadratic basis of the plane-quartic system that parametrizes the cubic.

    Six bilinear combinations of four parameters; the first three and the
    last three have equal sums and equal products, which forces the sum and
    the sum of cubes of the assembled coordinates to vanish identically.
    """
    xi, eta, zeta, xi2, eta2, zeta2 = _param_quadrics()
    half = Fraction(1, 2)
    pos = (xi - eta + zeta, xi + eta - zeta, -xi + eta + zeta)
    neg = (xi2 - eta2 + zeta2, xi2 + eta2 - zeta2, -xi2 + eta2 + zeta2)
    return tuple([p * half for p in pos] + [q * -half for q in neg])


def _image_points(forms: Sequence[MPoly],
                  rows: np.ndarray | Sequence[Sequence[int]]) -> list[ProjPoint | None]:
    """The point the forms take at each integer row, None where all of them
    vanish: one `_values_at` call, whose one scale keeps each image projective."""
    return [ProjPoint(vals) if any(vals) else None
            for vals in _values_at(forms, rows).tolist()]


def _beta_chart_points(zs: np.ndarray | Sequence[Sequence[int]]) -> list[ProjPoint | None]:
    """The chart point of each parameter row z, the first five beta
    components at z, or None where they vanish: the six sum to zero, so the
    first five vanish exactly when all six do."""
    return _image_points(beta_components()[:5], zs)


def _off_node_points(zs: np.ndarray) -> list[ProjPoint]:
    """The chart points of the parameter rows that are defined and not nodes, in order."""
    nodes = set(_chart_nodes())
    return [pt for pt in _beta_chart_points(zs) if pt is not None and pt not in nodes]


@dataclass(frozen=True)
class ParamReport:
    samples_on_cubic: int
    degenerate_line_node: ProjPoint
    probe_point: ProjPoint


def segre_param(seed: int = 0, samples: int = 10) -> ParamReport:
    """Certifies the quadric identities behind the parametrization of the cubic.

    The two symmetric identities between the primed and unprimed triple hold
    as polynomial identities, the assembled six coordinates sum to zero with
    vanishing sum of cubes, random parameter points land on the cubic, and
    the degenerate parameter line hits a node.
    """
    xi, eta, zeta, xi2, eta2, zeta2 = _param_quadrics()
    if not (xi + eta + zeta - xi2 - eta2 - zeta2).is_zero():
        raise ExactAlgError("sum identity of the parametrizing quadrics fails")
    if not (xi * eta * zeta - xi2 * eta2 * zeta2).is_zero():
        raise ExactAlgError("product identity of the parametrizing quadrics fails")

    comps = beta_components()
    if not elementary_symmetric(1, comps).is_zero():
        raise ExactAlgError("assembled coordinates must sum to zero")
    if not power_sum(3, list(comps)).is_zero():
        raise ExactAlgError("assembled coordinates must have vanishing cube sum")

    F = segre_chart()

    def on_cubic(zs: np.ndarray) -> list[ProjPoint]:
        pts = [pt for pt in _beta_chart_points(zs) if pt is not None]
        if _values_at([F], [pt.coords for pt in pts]).any():
            raise ExactAlgError("parametrized point off the cubic")
        return pts

    found = len(_sample(_task_rng(seed, "segre-param"), samples,
                        lambda rng, k: _draws(rng, 4, k), on_cubic))

    # the parameter line z2 = z3 = 0 collapses to a single node
    node_img, probe = _beta_chart_points([(1, 1, 0, 0), (1, 2, 3, 5)])
    if node_img is None or node_img not in set(_chart_nodes()):
        raise ExactAlgError("degenerate parameter line must map to a node")

    if probe is None or _values_at([F], [probe.coords]).any():
        raise ExactAlgError("probe parameter point must land on the cubic")
    return ParamReport(found, node_img, probe)


# -- the Nieto quintic -------------------------------------------------------------------


@lru_cache(maxsize=1)
def nieto_chart() -> MPoly:
    """Fifth elementary symmetric function on the hyperplane {sum = 0}."""
    x = [MPoly.var(i, 5) for i in range(5)]
    s = elementary_symmetric(1, x)
    return elementary_symmetric(5, x) - s * elementary_symmetric(4, x)


@lru_cache(maxsize=1)
def _e5_six() -> MPoly:
    return elementary_symmetric(5, [MPoly.var(i, 6) for i in range(6)])


@dataclass(frozen=True)
class NietoModel:
    lines: tuple[ProjLine, ...]
    line_labels: tuple[tuple[int, int, int], ...]
    nodes: tuple[ProjPoint, ...]
    cross_points: tuple[ProjPoint, ...]
    matching_planes: tuple[tuple[tuple[int, ...], ...], ...]
    coordinate_planes: tuple[tuple[tuple[int, ...], ...], ...]
    residual_quadrics: dict[tuple[int, int], MPoly]
    coordinate_scalars: dict[int, Fraction]


def build_nieto() -> NietoModel:
    """The Nieto quintic with its singular locus and plane census.

    Certifies: the 20 coordinate-triple lines are singular (every chart
    partial restricts to the zero binary form), the 10 node points are
    singular, the 15 difference points lie on 4 lines each with 3 per line,
    all 30 planes lie on the quintic with the stated node and cross-point
    incidences, and both hyperplane families split as claimed: pair sections
    into three matching planes and a leftover quadric, coordinate sections
    into five planes.
    """
    N = nieto_chart()
    _require_form(N, 5)
    grads = N.partials()
    e5 = _e5_six()

    labels = tuple(sorted(itertools.combinations(range(6), 3)))
    line_bases = [_flat_chart_basis(triple) for triple in labels]
    if any(len(basis) != 2 for basis in line_bases):
        raise ExactAlgError("coordinate-triple flats must be lines")
    lines = [ProjLine(ProjPoint(p), ProjPoint(q)) for p, q in line_bases]
    on_lines = zip(*restrictions(grads, [[line.p.coords, line.q.coords] for line in lines]))
    for triple, cuts in zip(labels, on_lines):
        if not all(cut.is_zero() for cut in cuts):
            raise ExactAlgError(f"gradient does not vanish along line {triple}")
    if len(set(lines)) != 20:
        raise ExactAlgError("expected 20 distinct singular lines")

    nodes = _chart_nodes()
    for node, vals in zip(nodes, _values_at(grads, [node.coords for node in nodes])):
        if vals.any():
            raise ExactAlgError(f"node {node} is not singular on the quintic")

    pairs = list(itertools.combinations(range(6), 2))
    cross = [ProjPoint([int(k == i) - int(k == j) for k in range(5)]) for i, j in pairs]
    if len(set(cross)) != 15:
        raise ExactAlgError("expected 15 distinct difference points")

    # the matching planes of the cubic, in the chart: drop the last coordinate
    matching_bases = [[v[:5] for v in plane] for plane in _plane_bases()]
    coordinate_bases = [_flat_chart_basis(pair) for pair in pairs]
    if any(len(basis) != 3 for basis in coordinate_bases):
        raise ExactAlgError("coordinate pair flats must be planes")
    on_planes = restrictions([N], matching_bases + coordinate_bases)[0]
    for plane, cut in zip([*_matchings(), *pairs], on_planes):
        if not cut.is_zero():
            raise ExactAlgError(f"plane {plane} must lie on the quintic")

    # incidences: the chart point y is (y, -sum y) in P^5, against the rows
    # that cut out the 20 lines, the 15 matching and the 15 coordinate planes
    unit = [[int(k == i) for k in range(6)] for i in range(6)]
    ends = [pt for line in lines for pt in (line.p, line.q)]
    on = _incidence([(*pt.coords, -sum(pt.coords)) for pt in (*nodes, *cross, *ends)],
                    [[unit[k] for k in triple] for triple in labels]
                    + [_matching_rows(matching) for matching in _matchings()]
                    + [[unit[i], unit[j]] for i, j in pairs])
    node_on, cross_on, end_on = np.split(on, [len(nodes), len(nodes) + len(cross)])
    first = len(lines) + len(matching_bases)  # the first coordinate plane's column
    # 4 lines through each difference point, 3 on each line and matching
    # plane (whose 4 nodes `_plane_bases` certified), 6 and no node on each
    # coordinate plane
    if (set(cross_on[:, :len(lines)].sum(axis=1).tolist()) != {4}
            or cross_on.sum(axis=0).tolist() != [3] * first + [6] * len(pairs)
            or node_on[:, first:].any()):
        raise ExactAlgError("the lines and planes must meet the nodes and difference points "
                            "as stated")
    # a line lies in a coordinate plane when both its ends do: in the 3
    # planes of the pairs inside its triple, so 4 lines lie in each plane
    if ((end_on[0::2] & end_on[1::2])[:, first:]
            != [[set(pair) <= set(triple) for pair in pairs] for triple in labels]).any():
        raise ExactAlgError("the coordinate planes must hold the lines of their pairs")

    # e5 on the 15 pair sections, then on the 6 coordinate sections
    sections = _pair_sections()
    coordinate_sections = [kernel_int([[1 if k == i else 0 for k in range(6)], [1] * 6])
                           for i in range(6)]
    cuts = restrictions([e5], [section for section, _ in sections.values()]
                        + coordinate_sections)[0]
    residuals: dict[tuple[int, int], MPoly] = {}
    for (pair, (_, planes_form)), cut in zip(sections.items(), cuts):
        quad = _exact_div(cut, planes_form)
        if quad.degree() != 2:
            raise ExactAlgError("pair section must leave a quadric after the three planes")
        residuals[pair] = quad

    coord_scalars: dict[int, Fraction] = {}
    for i, (section, cut) in enumerate(zip(coordinate_sections, cuts[len(sections):])):
        prod = _product([x for j, x in enumerate(_span_images(section)) if j != i])
        scalar = proportional(cut, prod)
        if scalar is None:
            raise ExactAlgError(f"coordinate section {i} must split into five planes")
        coord_scalars[i] = scalar

    return NietoModel(tuple(lines), labels, nodes, tuple(cross),
                      tuple(tuple(map(tuple, basis)) for basis in matching_bases),
                      tuple(tuple(map(tuple, basis)) for basis in coordinate_bases),
                      residuals, coord_scalars)


# -- Hessian identity --------------------------------------------------------------------


@dataclass(frozen=True)
class HessianReport:
    scalar: Fraction
    determinant_identity: bool
    singular_nodes: int


def hessian_equals_nieto() -> HessianReport:
    """The Hessian determinant of the cubic chart is the Nieto quintic chart.

    An independent oracle pins the scalar: the second-partials matrix is 6
    times diag(x) - s*J, and expanding that determinant symbolically gives
    the chart quintic on the nose, so the Hessian is 6**5 times it.
    """
    F = segre_chart()
    N = nieto_chart()
    x = [MPoly.var(i, 5) for i in range(5)]
    s = elementary_symmetric(1, x)
    oracle = det_poly([[x[i] - s if i == j else -s for j in range(5)] for i in range(5)])
    if oracle != N:
        raise ExactAlgError("det(diag(x) - sJ) must equal the quintic chart")
    H = hessian_det(F)
    scalar = proportional(H, N)
    if scalar is None or H != 6 ** 5 * oracle:
        raise ExactAlgError("Hessian of the cubic is not proportional to the quintic")
    nodes = _chart_nodes()
    if _values_at(H.partials(), [node.coords for node in nodes]).any():
        raise ExactAlgError("Hessian quintic must be singular at every node")
    return HessianReport(scalar, True, len(nodes))


# -- the invariant quintic ---------------------------------------------------------------


@lru_cache(maxsize=1)
def invariant_quintic_form() -> MPoly:
    """The Weyl-invariant quintic in the six coordinates x1..x6.

    Written with the elementary symmetric functions of the squares of the
    first five coordinates; the last coordinate plays the role of the
    invariant line of the folding.
    """
    x = [MPoly.var(i, 6) for i in range(6)]
    sq = [x[i] * x[i] for i in range(5)]
    s1 = elementary_symmetric(1, sq)
    s2 = elementary_symmetric(2, sq)
    x6 = x[5]
    return (x6 ** 5 - 6 * x6 ** 3 * s1 - 27 * x6 * (s1 * s1 - 4 * s2)
            - 648 * _product(x[:5]))


@lru_cache(maxsize=1)
def double_six_quotient() -> MPoly:
    """Quintic symmetric-function model of the invariant: the double-six trick.

    The difference of the two six-term products of a double six of weight
    forms is divisible by the root form h; dividing and eliminating h through
    sum(a) = -3h leaves a quintic in the elementary symmetric functions,
    cleared here to integer coefficients.
    """
    a = [MPoly.var(i, 6) for i in range(6)]
    sig = [elementary_symmetric(k, a) for k in range(6)]
    return (243 * sig[5] - 81 * sig[4] * sig[1] + 27 * sig[3] * sig[1] ** 2
            - 9 * sig[2] * sig[1] ** 3 + 2 * sig[1] ** 5)


@dataclass(frozen=True)
class InvariantQuintic:
    symmetric_scalar: Fraction
    power_scalars: dict[int, Fraction]
    generator_checks: int
    word_checks: int


def build_invariant_quintic(seed: int = 0, words: int = 100) -> InvariantQuintic:
    """The invariant quintic, its symmetric model, and its invariance certificates.

    Certifies: the double-six product difference factors through the root
    form exactly; substituting the weight forms into the symmetric model
    reproduces the quintic up to a recorded scalar; the degree-5 power sum
    of all 27 weight forms is a nonzero multiple of it; the degree-2 power
    sum is a multiple of the invariant quadratic form; the quintic is fixed,
    scalar one, by all six reflection generators, pulled back by
    substitution. Each of `words` random words in the generators is checked
    through the weight forms: its matrix product permutes the 27 forms at
    scalar +1 (`lines27.perm27_from_matrices`), which fixes the power sum and
    hence the quintic, and that permutation is the composite of the
    generators' permutations in the word's order.

    All of it runs in int, on the forms 6·w and 6h and on the generators
    stored as 4·M: a generator's pullback must give 4^5·f, and a word of
    length L is 4^L times its product, which `perm27_from_matrices` divides
    exactly before it reads the permutation.
    """
    f = invariant_quintic_form()
    _require_form(f, 5)
    tables = lines27.coordinate_tables()
    aforms = [tables.weight_forms[f"a{i}"] * 6 for i in (1, 2, 3, 4, 5, 6)]
    bforms = [tables.weight_forms[f"b{i}"] * 6 for i in (1, 2, 3, 4, 5, 6)]
    h = tables.root_forms["h"] * 6

    # product difference of the double six, divisible by h with the stated
    # quotient; both sides are sextics, so over 6a, 6b and 6h each scales by 6^6
    sig = [elementary_symmetric(k, aforms) for k in range(6)]
    rhs = -(h * sig[5] + h ** 2 * sig[4] + h ** 3 * sig[3]
            + h ** 4 * sig[2] + h ** 5 * sig[1] + h ** 6)
    if _product(aforms) - _product(bforms) != rhs:
        raise ExactAlgError("double-six factorization identity fails")

    # g is a quintic, so g(a) = g(6a) / 6^5
    g = double_six_quotient()
    g_scalar = proportional(g.subs(aforms), f)
    if g_scalar is None or g_scalar == 0:
        raise ExactAlgError("symmetric model must be proportional to the quintic")
    g_scalar /= 6 ** 5

    # likewise over the integral forms 6w: a power sum of degree k scales by 6^k
    all27 = [tables.weight_forms[lab] * 6 for lab in lines27.LINE_LABELS]
    i5_scalar = proportional(power_sum(5, all27), f)
    i2_scalar = proportional(power_sum(2, all27), tables.killing)
    if not i5_scalar or not i2_scalar:
        raise ExactAlgError("power sums must be nonzero multiples of the invariants")
    i5_scalar /= 6 ** 5
    i2_scalar /= 6 ** 2

    # a generator is stored as 4M, and f is a quintic: f(4Mx) = 4^5 f(Mx)
    names, mats, perms = lines27.weyl_generators()
    fixed = f * lines27.WEYL_SCALE ** 5
    for name, pulled in zip(names, _pullback(f, mats)):
        if pulled != fixed:
            raise ExactAlgError(f"generator {name} does not fix the quintic")
    # the sum of w^5 over the 27 weight forms is i5_scalar * f, i5_scalar != 0,
    # so a word matrix that permutes the weight forms at scalar +1 fixes f;
    # its permutation must also be the composite of the generators' ones
    rng = _task_rng(seed, "quintic-words")
    drawn = [[rng.randrange(len(mats)) for _ in range(rng.randint(1, 10))]
             for _ in range(words)]
    read = lines27.perm27_from_matrices(_word_products(mats, drawn),
                                        [lines27.WEYL_SCALE ** len(word) for word in drawn])
    for word, got in zip(drawn, read):
        perm = perms[word[0]]
        for k in word[1:]:
            perm = lines27.compose(perms[k], perm)
        if got != perm:
            raise ExactAlgError("a generator word does not act as its permutation")

    return InvariantQuintic(g_scalar, {2: i2_scalar, 5: i5_scalar}, len(mats), words)


# -- singular locus of the invariant quintic ----------------------------------------------


@dataclass(frozen=True)
class SingularLocusReport:
    line_count: int
    point_count: int
    lines_in_simplex_wall: int
    lines_per_point: int
    points_per_line: int
    third_order_witness: dict[str, tuple[int, int, int]]
    offline_checked: int
    jacobian_quartics: VanishingSpace


def i5_singular_locus(seed: int = 0, offline_samples: int = 50) -> SingularLocusReport:
    """Singular locus of the invariant quintic: 120 lines and 36 triple points.

    Certifies: at each of the 36 dual points the value and all first and
    second partials vanish while some third partial does not (multiplicity
    exactly 3); 40 of the lines lie in the wall {x6 = 0}; sampled points
    of the quintic away from the lines are smooth; the quartics vanishing on
    all 120 lines are exactly the span of the six partials. That last
    certificate also proves the lines singular: `vanishing_space` takes the
    partials as members only if each vanishes on every line.
    """
    f = invariant_quintic_form()
    loci = lines27.special_loci()
    grads = f.partials()

    second = {(i, j): grads[i].diff(j) for i in range(6) for j in range(i, 6)}
    third = {(i, j, k): p.diff(k)
             for (i, j), p in second.items() for k in range(j, 6)}
    keys = sorted(third)
    # per point: f and its gradient, the second partials, the third partials
    vals = _values_at([f, *grads, *second.values(), *(third[key] for key in keys)],
                      [pt.coords for pt in loci.root_points.values()])
    cuts = [1 + len(grads), 1 + len(grads) + len(second)]
    witness: dict[str, tuple[int, int, int]] = {}
    for name, row in zip(loci.root_points, vals):
        low, seconds, thirds = np.split(row, cuts)
        if low.any():
            raise ExactAlgError(f"point {name} must kill the quintic and its gradient")
        if seconds.any():
            raise ExactAlgError(f"point {name} must kill all second partials")
        nonzero = np.flatnonzero(thirds)
        if not len(nonzero):
            raise ExactAlgError(f"point {name} has multiplicity above 3")
        witness[name] = keys[nonzero[0]]

    # `special_loci` raises unless each root point lies on 10 of the 120
    # lines, and its line census puts 3 root points on each
    per_point = sum(next(iter(loci.root_points)) in on for on in loci.points120)
    per_line = len(loci.points120[0])

    wall = sum(1 for line in loci.lines120
               if line.p.coords[5] == 0 and line.q.coords[5] == 0)
    if wall != 40:
        raise ExactAlgError(f"{wall} lines lie in the wall, wanted 40")

    quartics = vanishing_space(4, 6, lines=loci.lines120, candidates=grads)
    if quartics.dim != 6:
        raise ExactAlgError("quartics on the 120 lines must be the Jacobian span")

    cuts120 = _cutting_forms(loci.lines120)

    def offline(ys: np.ndarray) -> list[ProjPoint]:
        pts = [pt for pt in _image_points(psi_octics(), ys) if pt is not None]
        coords = [pt.coords for pt in pts]
        out = []
        for pt, on_line, (value, *grad) in zip(pts, _incidence(coords, cuts120).any(axis=1),
                                              _values_at([f, *grads], coords)):
            if value:
                raise ExactAlgError("octic image must land on the quintic")
            if on_line:
                continue
            if not any(grad):
                raise ExactAlgError(f"unexpected singular point {pt} off the 120 lines")
            out.append(pt)
        return out

    checked = len(_sample(_task_rng(seed, "quintic-offline"), offline_samples,
                          lambda rng, k: _draws(rng, 5, k), offline))

    return SingularLocusReport(len(loci.lines120), len(loci.root_points), wall,
                               per_point, per_line, witness, checked, quartics)


def triple_point_cone(label: str) -> TripleCone:
    """Tangent-cone data of the invariant quintic at the named triple point.

    Expands f(t*p + u) over a coordinate complement of p, one `restrictions`
    call, and certifies the shape s5 + s3*(t*ell + t**2): the t^3..t^5 pieces
    vanish identically, the t-linear piece is s3 times the dual root form
    scaled by 2 over its pairing with p (a dot product of its coefficients
    with p, in Fractions), and the tangent cone cubic s3 is singular exactly
    at the directions of the ten singular lines through p, with quadrics
    through those ten directions matching the span of s3's partials.
    """
    loci = lines27.special_loci()
    tables = lines27.coordinate_tables()
    if label not in loci.root_points:
        raise ExactAlgError(f"unknown triple point {label}")
    p = loci.root_points[label]
    hf = tables.root_forms[label]
    hval = sum(c * x for c, x in zip(hf.linear_coeffs(), p.coords))
    if hval == 0:
        raise ExactAlgError("dual pairing must not vanish at its own point")
    axis = next(i for i, c in enumerate(p.coords) if c)

    # x = t*p + u, u on the coordinates other than the axis: the quintic on
    # the span of their unit vectors and p, t the last variable
    t = MPoly.var(5, 6)
    expanded = restrictions([invariant_quintic_form()], [
        [[int(k == i) for k in range(6)] for i in range(6) if i != axis] + [p.coords]])[0][0]

    buckets: dict[int, list] = {j: [] for j in range(6)}
    for exp, c in expanded.iter_terms():
        buckets[exp[5]].append((exp[:5], c))
    pieces = [MPoly.from_terms(5, buckets[j]) for j in range(6)]
    if any(not pieces[j].is_zero() for j in (3, 4, 5)):
        raise ExactAlgError(f"{label}: multiplicity is below 3")
    s5, s3 = pieces[0], pieces[2]

    ell = MPoly.linear([c for i, c in enumerate(hf.linear_coeffs()) if i != axis])
    dual_scalar = Fraction(2) / hval
    # reassembly in the mixed ring: f(t*p + u) = s5 + s3*(t*dual + t^2)
    if expanded != _lift5to6(s5) + _lift5to6(s3) * (t * _lift5to6(ell * dual_scalar) + t * t):
        raise ExactAlgError(f"{label}: expansion does not reassemble")

    through = [line for line, on in zip(loci.lines120, loci.points120) if label in on]
    if len(through) != 10:
        raise ExactAlgError(f"{label}: expected 10 singular lines through the point")
    dirs = []
    for line in through:
        a, b = line.p.coords, line.q.coords
        d6 = [a[i] * b[axis] - b[i] * a[axis] for i in range(6)]
        dirs.append(ProjPoint([d6[i] for i in range(6) if i != axis]))
    if len(set(dirs)) != 10:
        raise ExactAlgError(f"{label}: line directions must be 10 distinct points")
    # the cone partials vanish at the directions and span every quadric through them
    quads = vanishing_space(2, 5, points=dirs, candidates=s3.partials())
    if quads.dim != 5:
        raise ExactAlgError(f"{label}: cone-node quadrics must match the Jacobian span")

    return TripleCone(p, axis, s5, s3, dual_scalar, tuple(dirs), quads)


# -- linear subspaces of the invariant quintic --------------------------------------------


@dataclass(frozen=True)
class SubspaceReport:
    p3_count: int
    hyperplane_scalars: dict[str, Fraction]
    p3_per_hyperplane: int
    hyperplanes_per_p3: int
    quotient_scalar: Fraction
    simplex_scalar: Fraction


def linear_subspaces_i5() -> SubspaceReport:
    """The 45 tritangent P3's on the quintic and the 27 hyperplane splittings.

    Certifies: the quintic restricts to zero on each tritangent P3; inside
    each of the 27 weight hyperplanes the quintic splits as the product of
    the five linear forms cutting the five tritangent P3's through that
    label (scalars recorded); the symmetric model reduces to the fifth
    elementary symmetric function modulo the first; the restriction to the
    wall {x6 = 0} is the coordinate simplex quintic.
    """
    f = invariant_quintic_form()
    tables = lines27.coordinate_tables()
    tri = lines27.tritangents()

    p3_bases: dict[str, list] = {}
    for name, labels in tri.items():
        forms = [tables.weight_forms[lab] for lab in labels]
        total = forms[0] + forms[1] + forms[2]
        if not total.is_zero():
            raise ExactAlgError(f"tritangent {name} forms must sum to zero")
        basis = kernel_int([g.linear_coeffs() for g in forms])
        if len(basis) != 4:
            raise ExactAlgError(f"tritangent {name} must cut a P3")
        p3_bases[name] = basis
    # the quintic on each P3, then on the P3 {x1 = x6 = 0} of the wall
    wall_basis = [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                  [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]
    *on_p3s, on_wall = restrictions([f], [*p3_bases.values(), wall_basis])[0]
    for name, cut in zip(p3_bases, on_p3s):
        if not cut.is_zero():
            raise ExactAlgError(f"quintic does not vanish on the P3 of {name}")
    keys = {_IntEchelon(basis).key() for basis in p3_bases.values()}
    if len(p3_bases) != 45 or len(keys) != 45:
        raise ExactAlgError("expected 45 distinct tritangent P3's")

    if not on_wall.is_zero():
        raise ExactAlgError("quintic must vanish on {x1 = x6 = 0}")

    # a weight form vanishes on a P3 when it does at the P3's four basis vectors
    contains = _incidence([_clear_row(tables.weight_forms[lab].linear_coeffs())
                           for lab in lines27.LINE_LABELS], list(p3_bases.values()))

    sections = [kernel_int([tables.weight_forms[lab].linear_coeffs()])
                for lab in lines27.LINE_LABELS]
    if any(len(section) != 5 for section in sections):
        raise ExactAlgError("weight hyperplane must be a P4")
    # the quintic on each weight section and on the wall {x6 = 0}, there the
    # coordinate simplex quintic; each section's split is a product of five
    # integral weight forms 6w, so it scales by 6^5
    simplex_basis = [[1 if j == i else 0 for j in range(6)] for i in range(5)]
    *cuts, simplex = restrictions([f], sections + [simplex_basis])[0]
    simplex_scalar = proportional(simplex, _product([MPoly.var(i, 5) for i in range(5)]))
    if simplex_scalar is None:
        raise ExactAlgError("wall restriction must be the coordinate simplex quintic")
    splits = _split_sections({lab: tables.weight_forms[lab] * 6 for lab in lines27.LINE_LABELS},
                             list(tri.values()), sections)
    scalars: dict[str, Fraction] = {}
    for lab, cut, split, inside in zip(lines27.LINE_LABELS, cuts, splits, contains):
        owners = {name for name, labels in tri.items() if lab in labels}
        if len(owners) != 5:
            raise ExactAlgError("each label lies in exactly five tritangents")
        scalar = proportional(cut, split)
        if scalar is None:
            raise ExactAlgError(f"section at {lab} does not split into five P3's")
        scalars[lab] = scalar * 6 ** 5

        # exactly the five owner P3's sit inside the section
        if {name for name, z in zip(p3_bases, inside) if z} != owners:
            raise ExactAlgError(f"P3's inside section {lab} disagree with the owners")

    g = double_six_quotient()
    chart = [MPoly.var(i, 5) for i in range(5)]
    g_chart = g.subs(chart + [-elementary_symmetric(1, chart)])
    quotient_scalar = proportional(g_chart, nieto_chart())
    if quotient_scalar is None:
        raise ExactAlgError("symmetric model must reduce to the quintic symmetric chart")

    return SubspaceReport(len(p3_bases), scalars, 5, 3, quotient_scalar, simplex_scalar)


# -- restriction of the arrangement to a tritangent P3 ------------------------------------


_D4_ROTATION = ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))


@dataclass(frozen=True)
class RestrictionReport:
    root_classes: tuple[tuple[int, ...], ...]
    weight_classes: tuple[tuple[int, ...], ...]
    vanishing_labels: tuple[str, ...]


def restriction_arrangements() -> RestrictionReport:
    """Induced arrangements on the P3 {x1 = x6 = 0}.

    The 36 root forms restrict to 24 projective classes forming the F4
    arrangement on the nose. The 27 weight forms lose the three cutting the
    P3 itself and restrict to 12 classes: the short-root subarrangement,
    carried onto the standard D4 presentation by an integral rotation.
    """
    tables = lines27.coordinate_tables()

    def restricted(g: MPoly) -> tuple[int, ...] | None:
        coeffs = g.linear_coeffs()[1:5]
        if not any(coeffs):
            return None
        return ProjPoint(coeffs).coords

    root_classes = set()
    for name, g in tables.root_forms.items():
        cls = restricted(g)
        if cls is None:
            raise ExactAlgError(f"root form {name} must not vanish on the P3")
        root_classes.add(cls)
    f4 = {ProjPoint(v).coords for v in roots(RootSystemId("F", 4))}
    if len(root_classes) != 24 or root_classes != f4:
        raise ExactAlgError("restricted root forms must give the F4 arrangement")

    weight_classes = set()
    vanishing = []
    for lab in lines27.LINE_LABELS:
        cls = restricted(tables.weight_forms[lab])
        if cls is None:
            vanishing.append(lab)
        else:
            weight_classes.add(cls)
    if sorted(vanishing) != ["a1", "b2", "c12"]:
        raise ExactAlgError("exactly the tritangent of the P3 must restrict to zero")
    if len(weight_classes) != 12 or not weight_classes <= root_classes:
        raise ExactAlgError("weight restrictions must be 12 of the 24 root classes")
    rotated = {
        ProjPoint([sum(row[c] * v[c] for c in range(4)) for row in _D4_ROTATION]).coords
        for v in weight_classes
    }
    d4 = {ProjPoint(v).coords for v in roots(RootSystemId("D", 4))}
    if rotated != d4:
        raise ExactAlgError("weight restrictions must rotate onto the D4 arrangement")

    return RestrictionReport(tuple(sorted(root_classes)),
                             tuple(sorted(weight_classes)),
                             tuple(sorted(vanishing)))


# -- rationalizing the invariant quintic ---------------------------------------------------


@lru_cache(maxsize=1)
def phi_quartics() -> RationalizationMaps:
    """The projection quartics and inverse octics, assembled and type-checked."""
    tables = lines27.coordinate_tables()
    l_names = ("a1", "a4", "a5", "c35")
    m_names = ("b4", "b5", "b6", "c12")
    l_forms = tuple(tables.weight_forms[n] for n in l_names)
    m_forms = tuple(tables.weight_forms[n] for n in m_names)
    phi = [_product(m_forms)]
    for i in range(4):
        keep = [m_forms[j] for j in range(4) if j != i]
        phi.append(l_forms[i] * _product(keep))
    return RationalizationMaps(l_names, m_names, l_forms, m_forms,
                               tuple(phi), psi_octics())


@lru_cache(maxsize=1)
def psi_octics() -> tuple[MPoly, ...]:
    """Inverse of the quartic projection: six octics in the image coordinates."""
    y0, y1, y2, y3 = (MPoly.var(i, 5) for i in range(4))
    # the classical inverse formulas invert the projection only after a flip
    # of the last auxiliary coordinate; negating y4 restores phi(psi(y)) = y
    y4 = -MPoly.var(4, 5)
    x1 = (y0**6*y1*y3 + y0**5*y1**2*y3 - 2*y0**6*y2*y3 - y0**5*y1*y2*y3
          + y0**4*y1**2*y2*y3 + 2*y0**4*y1*y2*y3**2 + 2*y0**3*y1**2*y2*y3**2
          - y0**6*y1*y4 - y0**5*y1**2*y4 - y0**5*y1*y2*y4 - 2*y0**4*y1**2*y2*y4
          - y0**3*y1**2*y2**2*y4 - y0**5*y1*y3*y4 - y0**4*y1**2*y3*y4
          - 2*y0**4*y1*y2*y3*y4 - 4*y0**3*y1**2*y2*y3*y4 - 2*y0**3*y1*y2**2*y3*y4
          - 3*y0**2*y1**2*y2**2*y3*y4 - 2*y0**3*y1*y2*y3**2*y4
          - 3*y0**2*y1**2*y2*y3**2*y4 - 2*y0**2*y1*y2**2*y3**2*y4
          - 2*y0*y1**2*y2**2*y3**2*y4 + y0**2*y1**2*y2*y3*y4**2
          + y0*y1**2*y2**2*y3*y4**2 + y0*y1**2*y2*y3**2*y4**2
          + y1**2*y2**2*y3**2*y4**2)
    x2 = (y0**6*y1*y3 + y0**5*y1**2*y3 + y0**5*y1*y2*y3 + y0**4*y1**2*y2*y3
          + 2*y0**5*y1*y3**2 + 2*y0**4*y1**2*y3**2 + 2*y0**4*y1*y2*y3**2
          + 2*y0**3*y1**2*y2*y3**2 - y0**6*y1*y4 - y0**5*y1**2*y4
          - y0**5*y1*y2*y4 - 2*y0**4*y1**2*y2*y4 - y0**3*y1**2*y2**2*y4
          - 5*y0**5*y1*y3*y4 - 5*y0**4*y1**2*y3*y4 - 6*y0**4*y1*y2*y3*y4
          - 8*y0**3*y1**2*y2*y3*y4 - 2*y0**3*y1*y2**2*y3*y4
          - 3*y0**2*y1**2*y2**2*y3*y4 - 4*y0**4*y1*y3**2*y4
          - 4*y0**3*y1**2*y3**2*y4 - 6*y0**3*y1*y2*y3**2*y4
          - 7*y0**2*y1**2*y2*y3**2*y4 - 2*y0**2*y1*y2**2*y3**2*y4
          - 2*y0*y1**2*y2**2*y3**2*y4 + 2*y0**5*y1*y4**2 + 2*y0**4*y1**2*y4**2
          + 2*y0**4*y1*y2*y4**2 + 4*y0**3*y1**2*y2*y4**2
          + 2*y0**2*y1**2*y2**2*y4**2 + 4*y0**4*y1*y3*y4**2
          + 4*y0**3*y1**2*y3*y4**2 + 6*y0**3*y1*y2*y3*y4**2
          + 9*y0**2*y1**2*y2*y3*y4**2 + 2*y0**2*y1*y2**2*y3*y4**2
          + 5*y0*y1**2*y2**2*y3*y4**2 + 2*y0**3*y1*y3**2*y4**2
          + 2*y0**2*y1**2*y3**2*y4**2 + 4*y0**2*y1*y2*y3**2*y4**2
          + 5*y0*y1**2*y2*y3**2*y4**2 + 2*y0*y1*y2**2*y3**2*y4**2
          + 3*y1**2*y2**2*y3**2*y4**2)
    x3 = (2*y0**7*y3 + 3*y0**6*y1*y3 + y0**5*y1**2*y3 + 2*y0**6*y2*y3
          + 3*y0**5*y1*y2*y3 + y0**4*y1**2*y2*y3 - 2*y0**7*y4 - 3*y0**6*y1*y4
          - y0**5*y1**2*y4 - 2*y0**6*y2*y4 - 5*y0**5*y1*y2*y4
          - 2*y0**4*y1**2*y2*y4 - 2*y0**4*y1*y2**2*y4 - y0**3*y1**2*y2**2*y4
          - 2*y0**6*y3*y4 - 3*y0**5*y1*y3*y4 - y0**4*y1**2*y3*y4
          - 4*y0**5*y2*y3*y4 - 6*y0**4*y1*y2*y3*y4 - 2*y0**3*y1**2*y2*y3*y4
          - 2*y0**3*y1*y2**2*y3*y4 - y0**2*y1**2*y2**2*y3*y4
          + 2*y0**3*y1*y2*y3**2*y4 + y0**2*y1**2*y2*y3**2*y4
          - 2*y0**3*y1*y2*y3*y4**2 - y0**2*y1**2*y2*y3*y4**2
          - 2*y0**2*y1*y2**2*y3*y4**2 - y0*y1**2*y2**2*y3*y4**2
          - 2*y0**2*y1*y2*y3**2*y4**2 - y0*y1**2*y2*y3**2*y4**2
          - 2*y0*y1*y2**2*y3**2*y4**2 - y1**2*y2**2*y3**2*y4**2)
    x4 = (2*y0**7*y3 + 3*y0**6*y1*y3 + y0**5*y1**2*y3 + y0**5*y1*y2*y3
          + y0**4*y1**2*y2*y3 - 2*y0**5*y1*y3**2 - 2*y0**4*y1**2*y3**2
          - 2*y0**7*y4 - 3*y0**6*y1*y4 - y0**5*y1**2*y4 - 3*y0**5*y1*y2*y4
          - 2*y0**4*y1**2*y2*y4 - y0**3*y1**2*y2**2*y4 - 2*y0**6*y3*y4
          - y0**5*y1*y3*y4 + y0**4*y1**2*y3*y4 - 2*y0**4*y1*y2*y3*y4
          - y0**2*y1**2*y2**2*y3*y4 + 4*y0**4*y1*y3**2*y4
          + 4*y0**3*y1**2*y3**2*y4 + 2*y0**3*y1*y2*y3**2*y4
          + 3*y0**2*y1**2*y2*y3**2*y4 - 2*y0**4*y1*y3*y4**2
          - 2*y0**3*y1**2*y3*y4**2 - 2*y0**3*y1*y2*y3*y4**2
          - 3*y0**2*y1**2*y2*y3*y4**2 - y0*y1**2*y2**2*y3*y4**2
          - 2*y0**3*y1*y3**2*y4**2 - 2*y0**2*y1**2*y3**2*y4**2
          - 2*y0**2*y1*y2*y3**2*y4**2 - 3*y0*y1**2*y2*y3**2*y4**2
          - y1**2*y2**2*y3**2*y4**2)
    x5 = (-y0**6*y1*y3 - y0**5*y1**2*y3 - y0**5*y1*y2*y3 - y0**4*y1**2*y2*y3
          + y0**6*y1*y4 + y0**5*y1**2*y4 + 2*y0**6*y2*y4 + 3*y0**5*y1*y2*y4
          + 2*y0**4*y1**2*y2*y4 + 2*y0**4*y1*y2**2*y4 + y0**3*y1**2*y2**2*y4
          + 3*y0**5*y1*y3*y4 + 3*y0**4*y1**2*y3*y4 + 2*y0**4*y1*y2*y3*y4
          + 4*y0**3*y1**2*y2*y3*y4 + 2*y0**3*y1*y2**2*y3*y4
          + y0**2*y1**2*y2**2*y3*y4 + y0**2*y1**2*y2*y3**2*y4
          - 2*y0**5*y1*y4**2 - 2*y0**4*y1**2*y4**2 - 2*y0**4*y1*y2*y4**2
          - 4*y0**3*y1**2*y2*y4**2 - 2*y0**2*y1**2*y2**2*y4**2
          - 2*y0**4*y1*y3*y4**2 - 2*y0**3*y1**2*y3*y4**2
          - 2*y0**3*y1*y2*y3*y4**2 - 5*y0**2*y1**2*y2*y3*y4**2
          - 3*y0*y1**2*y2**2*y3*y4**2 - y0*y1**2*y2*y3**2*y4**2
          - y1**2*y2**2*y3**2*y4**2)
    x6 = (-3*y0**6*y1*y3 - 3*y0**5*y1**2*y3 - 3*y0**5*y1*y2*y3
          - 3*y0**4*y1**2*y2*y3 + 3*y0**6*y1*y4 + 3*y0**5*y1**2*y4
          + 3*y0**5*y1*y2*y4 + 6*y0**4*y1**2*y2*y4 + 3*y0**3*y1**2*y2**2*y4
          + 3*y0**5*y1*y3*y4 + 3*y0**4*y1**2*y3*y4 + 6*y0**4*y1*y2*y3*y4
          + 6*y0**3*y1**2*y2*y3*y4 + 3*y0**2*y1**2*y2**2*y3*y4
          - 3*y0**2*y1**2*y2*y3**2*y4 + 3*y0**2*y1**2*y2*y3*y4**2
          + 3*y0*y1**2*y2**2*y3*y4**2 + 3*y0*y1**2*y2*y3**2*y4**2
          + 3*y1**2*y2**2*y3**2*y4**2)
    return (x1, x2, x3, x4, x5, x6)


def _cutting_forms(lines: Sequence[ProjLine]) -> np.ndarray:
    """For each line through p and q in P^(n-1), the linear forms x ^ p ^ q,
    the 3x3 minors of the rows x, p, q on each triple i < j < k of columns,
    x_i P_jk - x_j P_ik + x_k P_ij with P the Pluecker coordinates
    P_ab = p_a q_b - p_b q_a: all of them vanish at x exactly when x is in
    the span of p and q, so they cut the line out (`_incidence`). They are
    int64 while every coordinate is below 2^31, else Python ints."""
    ends = np.array([[line.p.coords, line.q.coords] for line in lines], dtype=object)
    if _max_abs(ends) < 2 ** 31:
        ends = ends.astype(np.int64)
    p, q = ends[:, 0], ends[:, 1]
    plucker = p[:, :, None] * q[:, None, :] - q[:, :, None] * p[:, None, :]
    i, j, k = np.array(list(itertools.combinations(range(ends.shape[2]), 3))).T
    t = np.arange(len(i))
    forms = np.zeros((len(lines), len(t), ends.shape[2]), dtype=ends.dtype)
    forms[:, t, i] = plucker[:, j, k]
    forms[:, t, j] = -plucker[:, i, k]
    forms[:, t, k] = plucker[:, i, j]
    return forms


@dataclass(frozen=True)
class RationalizationReport:
    base_p3_names: tuple[str, ...]
    exact_checked: int
    modular_checked: dict[int, int]
    failure_log10: dict[int, float]
    roundtrip_phi_psi: int
    roundtrip_psi_phi: int


def rationalize_i5(seed: int = 0, exact_samples: int = 50,
                   modular_samples: int = 10000,
                   roundtrip_samples: int = 25) -> RationalizationReport:
    """Certifies that the octics invert the quartic projection on the quintic.

    The image of the octic map satisfies the quintic: checked exactly at
    random rational points (any nonzero value is a hard failure) and by
    Schwartz-Zippel sampling over two prime fields, with the failure bound
    from the composite degree 40 reported. Round trips hold projectively in
    both directions, and all five projection quartics vanish on each of the
    four base P3's.
    """
    maps = phi_quartics()
    f = invariant_quintic_form()
    tables = lines27.coordinate_tables()
    tri = lines27.tritangents()

    bases = [kernel_int([lf.linear_coeffs(), mf.linear_coeffs()])
             for lf, mf in zip(maps.l_forms, maps.m_forms)]
    if any(len(basis) != 4 for basis in bases):
        raise ExactAlgError("a base locus component must be a P3")
    if any(not cut.is_zero() for cuts in restrictions(maps.phi, bases) for cut in cuts):
        raise ExactAlgError("every projection quartic must vanish on the base P3s")
    base_names = [next(name for name, labels in tri.items() if {ln, mn} <= labels)
                  for ln, mn in zip(maps.l_names, maps.m_names)]
    if len(set(base_names)) != 4:
        raise ExactAlgError("the four base P3's must be distinct tritangents")

    def draw(rng, k):
        return _draws(rng, 5, k)

    def on_quintic(ys: np.ndarray) -> list[tuple[int, ...]]:
        kept = [(tuple(y), pt) for y, pt in zip(ys.tolist(), _image_points(maps.psi, ys))
                if pt is not None]
        for (y, _), value in zip(kept, _values_at([f], [pt.coords for _, pt in kept])[:, 0]):
            if value:
                raise ExactAlgError(f"octic image of {y} misses the quintic")
        return [y for y, _ in kept]

    rng = _task_rng(seed, "rationalize")
    checked = len(_sample(rng, exact_samples, draw, on_quintic))

    modular: dict[int, int] = {}
    bounds: dict[int, float] = {}
    for p in exactalg.SHADOW_PRIMES:
        # the draws fill one coordinate of every point, then the next
        pts = _draws_below(rng, p, 5 * modular_samples).reshape(5, modular_samples).T
        if _values_at([f], _values_at(maps.psi, pts, p), p).any():
            raise ExactAlgError(f"octic image misses the quintic mod {p}")
        modular[p] = modular_samples
        # composite degree 5 * 8 = 40; independent uniform points multiply the bound
        bounds[p] = modular_samples * (math.log10(40) - math.log10(p))

    def projected(ys: np.ndarray) -> list[tuple[tuple[int, ...], ProjPoint, ProjPoint]]:
        """(y, psi(y), phi(psi(y))) of each row y where neither map vanishes;
        phi's values share one scale (`_values_at`), so the last is projective."""
        kept = [(tuple(y), x) for y, x in zip(ys.tolist(), _image_points(maps.psi, ys))
                if x is not None]
        backs = _values_at(maps.phi, [x.coords for _, x in kept]).tolist()
        return [(y, x, ProjPoint(back)) for (y, x), back in zip(kept, backs) if any(back)]

    def phi_psi(ys: np.ndarray) -> list[tuple[int, ...]]:
        trips = projected(ys)
        if any(back != ProjPoint(y) for y, _, back in trips):
            raise ExactAlgError("projection of the octic image must reproduce the point")
        return [y for y, _, _ in trips]

    def psi_phi(ys: np.ndarray) -> list[tuple[int, ...]]:
        trips = projected(ys)
        # psi is homogeneous of degree 8: at u's primitive integer point,
        # c u, it takes the value c^8 psi(u), the same projective point
        ws = _image_points(maps.psi, [u.coords for _, _, u in trips])
        kept = [(y, x, w) for (y, x, _), w in zip(trips, ws) if w is not None]
        if any(w != x for _, x, w in kept):
            raise ExactAlgError("octics of the projection must reproduce the point")
        return [y for y, _, _ in kept]

    phi_checked = len(_sample(rng, roundtrip_samples, draw, phi_psi))
    psi_checked = len(_sample(rng, roundtrip_samples, draw, psi_phi))

    return RationalizationReport(tuple(base_names), checked, modular, bounds,
                                 phi_checked, psi_checked)


# -- duality between the cubic and the quartic ---------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    """The fitted dual quartic and the certified duality geometry.

    `fitted_dim` is always 1: a fit of any other dimension raises, and the
    images are sampled once, with no second attempt.
    """

    quartic: MPoly
    fitted_dim: int
    image_lines: tuple[ProjLine, ...]
    line_cubics: VanishingSpace
    biduality_checked: int


def duality_pipeline(seed: int = 0, samples: int = 200,
                     biduality_samples: int = 20) -> DualityReport:
    """Derives the quartic dual to the cubic and certifies the duality geometry.

    The gradient map of the cubic chart sends sampled cubic points into the
    dual space; the quartics through at least 200 such images form a
    one-dimensional space whose generator is the dual hypersurface. The
    composite of the fitted quartic with the gradient map is divisible by
    the cubic, so the whole gradient image lies on the quartic, not just
    the samples. The 15 planes of the cubic contract to 15 lines, the
    cubics through those lines are exactly the span of the fitted quartic's
    partials, and composing the two gradient maps returns every sampled
    point projectively.
    """
    F = segre_chart()
    grads = F.partials()
    rng = _task_rng(seed, "duality")

    def chart_draw(rng, k):
        return _draws(rng, 4, k)

    def unseen(imgs: Sequence[ProjPoint | None], seen: set[ProjPoint]) -> list[ProjPoint]:
        """The images that are not None and not seen before, in order; each joins `seen`."""
        out = []
        for img in imgs:
            if img is not None and img not in seen:
                seen.add(img)
                out.append(img)
        return out

    seen_images: set[ProjPoint] = set()

    def new_image(zs: np.ndarray) -> list[ProjPoint]:
        pts = _off_node_points(zs)
        return unseen(_image_points(grads, [pt.coords for pt in pts]), seen_images)

    fitted = vanishing_space(4, 5, points=_sample(rng, samples, chart_draw, new_image))
    if fitted.dim != 1:
        raise ExactAlgError(f"fitted quartic space has dimension {fitted.dim}, wanted 1")
    quartic = fitted.basis[0]
    _exact_div(quartic.subs(grads), F)

    lines: dict[tuple, ProjLine] = {}
    for basis in _plane_bases():
        seen: set[ProjPoint] = set()

        def plane_image(combos: np.ndarray) -> list[ProjPoint]:
            vecs = (combos @ np.array(basis, dtype=np.int64))[:, :5].tolist()
            return unseen(_image_points(grads, [ProjPoint(v).coords for v in vecs if any(v)]), seen)

        imgs = _sample(rng, 3, lambda rng, k: _draws(rng, 3, k), plane_image)
        line = ProjLine(imgs[0], imgs[1])
        if not _incidence([imgs[2].coords], _cutting_forms([line]))[0, 0]:
            raise ExactAlgError("plane images must be collinear and span a line")
        lines[line.key] = line
    if len(lines) != 15:
        raise ExactAlgError(f"expected 15 contracted lines, found {len(lines)}")
    image_lines = tuple(lines.values())

    dual_grads = quartic.partials()
    cubics = vanishing_space(3, 5, lines=image_lines, candidates=dual_grads)
    if cubics.dim != 5:
        raise ExactAlgError("cubics through the 15 lines must match the dual Jacobian")

    def round_trip(zs: np.ndarray) -> list[ProjPoint]:
        pts = _off_node_points(zs)
        imgs = _image_points(grads, [pt.coords for pt in pts])
        pairs = [(pt, img) for pt, img in zip(pts, imgs) if img is not None]
        backs = _image_points(dual_grads, [img.coords for _, img in pairs])
        kept = [(pt, back) for (pt, _), back in zip(pairs, backs) if back is not None]
        if any(back != pt for pt, back in kept):
            raise ExactAlgError("gradient round trip must return the point")
        return [pt for pt, _ in kept]

    checked = len(_sample(rng, biduality_samples, chart_draw, round_trip))

    return DualityReport(quartic, fitted.dim, image_lines, cubics, checked)


# -- auxiliary sections --------------------------------------------------------------------


@dataclass(frozen=True)
class SectionsReport:
    diagonal_identity: bool
    cayley_nodes: int
    squaring_identity: bool


def auxiliary_sections() -> SectionsReport:
    """Three classical sections: diagonal cubic, Cayley cubic, squaring cover.

    Certifies: the section {x5 = 0} of the cubic carries the diagonal cubic
    surface of five coordinates summing to zero; the section {x0 = x1} holds
    exactly four of the ten nodes and is singular there; substituting
    squares into the Nieto equations gives exactly the two equations of the
    degree-2 cover inside the squared coordinates.
    """
    F = segre_chart()
    basis = kernel_int([[1] * 5])
    if len(basis) != 4:
        raise ExactAlgError("diagonal section must be a P3")
    ys = _span_images(basis)
    on_diagonal = restrictions([F], [basis])[0][0]
    if not elementary_symmetric(1, ys).is_zero() or on_diagonal != power_sum(3, ys):
        raise ExactAlgError("diagonal section must be the five-cube equation")

    cubes = _six_cubes()
    section = kernel_int([[1, -1, 0, 0, 0, 0], [1] * 6])
    if len(section) != 4:
        raise ExactAlgError("Cayley section must be a P3")
    cayley = restrictions([cubes], [section])[0][0]
    nodes = [node for node in _nodes_p5() if node.coords[0] == node.coords[1]]
    chart = _chart_coordinates(section, nodes)
    if _values_at(cayley.partials(), [pt.coords for pt in chart]).any():
        raise ExactAlgError("node must be singular on the Cayley section")
    if len(nodes) != 4:
        raise ExactAlgError(f"Cayley section holds {len(nodes)} nodes, wanted 4")

    x6 = [MPoly.var(i, 6) for i in range(6)]
    squares = [v * v for v in x6]
    (lin,), (e5,) = substitute([elementary_symmetric(1, x6), _e5_six()], [squares])
    if lin != power_sum(2, x6):
        raise ExactAlgError("squared linear equation must be the sum of squares")
    if e5 != elementary_symmetric(5, squares):
        raise ExactAlgError("squared quintic equation must be the symmetric function "
                            "of the squares")

    return SectionsReport(True, len(nodes), True)
