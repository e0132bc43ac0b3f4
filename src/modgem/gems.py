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

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exactalg import (
    ExactAlgError,
    MPoly,
    ProjLine,
    ProjPoint,
    SHADOW_PRIMES,
    VanishingSpace,
    _reduce_fraction_mod,
    checked_rank,
    det_poly,
    elementary_symmetric,
    hessian_det,
    kernel_int,
    monomials,
    power_sum,
    proportional,
    rank_exact,
    solve_exact,
    vanishing_space,
)
from . import lines27
from .rootarr import RootSystemId, roots


# -- plumbing ----------------------------------------------------------------------------


def _rng(seed: int, task: str) -> random.Random:
    """Task-owned generator: independent streams from one master seed."""
    digest = hashlib.sha256(f"{seed}:{task}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw(rng: random.Random, n: int) -> tuple[int, ...]:
    # small integer coordinates keep exact-arithmetic bit lengths down
    while True:
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if any(v):
            return v


def _unit_form(positions: Sequence[int], nvars: int = 6) -> MPoly:
    return MPoly.linear([1 if k in positions else 0 for k in range(nvars)])


def _product(forms: Sequence[MPoly]) -> MPoly:
    acc = MPoly.constant(forms[0].nvars, 1)
    for f in forms:
        acc = acc * f
    return acc


def _exact_div(num: MPoly, den: MPoly) -> MPoly:
    """Quotient num/den, defined only when den divides num exactly."""
    if den.is_zero():
        raise ExactAlgError("division by the zero polynomial")
    quo = MPoly.zero(num.nvars)
    rem = num
    d_exp, d_c = den.leading()
    while not rem.is_zero():
        r_exp, r_c = rem.leading()
        step = tuple(a - b for a, b in zip(r_exp, d_exp))
        if any(e < 0 for e in step):
            raise ExactAlgError("not an exact polynomial quotient")
        t = MPoly.from_terms(num.nvars, [(step, r_c / d_c)])
        quo = quo + t
        rem = rem - t * den
    return quo


def _lift5to6(p: MPoly) -> MPoly:
    return MPoly.from_terms(6, ((exp + (0,), c) for exp, c in p.terms.items()))


def _flat_chart_basis(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Chart basis of a flat inside {sum = 0}: solve, then drop the last coordinate.

    Dropping the last coordinate is injective on the hyperplane {sum = 0},
    so the truncated vectors still span a flat of the same dimension.
    """
    full = [list(r) for r in rows] + [[1] * 6]
    return [v[:5] for v in kernel_int(full)]


def _mat_mul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(6)), Fraction(0)) for j in range(6))
        for i in range(6)
    )


def _pullback(f: MPoly, mat) -> MPoly:
    images = [lines27.apply_to_form(MPoly.var(i, 6), mat) for i in range(6)]
    return f.subs(images)


# -- domain types ------------------------------------------------------------------------


@dataclass(frozen=True)
class Hypersurface:
    """A projective hypersurface in a fixed chart, plus the claim it certifies."""

    name: str
    chart: str
    form: MPoly
    degree: int
    claim: str

    def __post_init__(self):
        if self.form.is_zero() or not self.form.is_homogeneous() \
                or self.form.degree() != self.degree:
            raise ExactAlgError(
                f"{self.name}: defining form must be homogeneous of degree {self.degree}")


@dataclass(frozen=True)
class TripleCone:
    """Degree pieces of the invariant quintic at one of its 36 triple points.

    In the chart x = t*p + u (u running over a coordinate complement, t the
    coordinate along p) the quintic collapses to s5 + s3*(t*dual_form + t**2):
    the three highest t-powers vanish because the point has multiplicity 3,
    and the t-linear piece factors through the tangent cone cubic s3.
    """

    label: str
    point: ProjPoint
    chart_axis: int
    s5: MPoly
    s4: MPoly
    s3: MPoly
    dual_form: MPoly
    dual_scalar: Fraction
    directions: tuple[ProjPoint, ...]
    direction_quadrics: VanishingSpace

    def __post_init__(self):
        if self.s4 != self.s3 * self.dual_form:
            raise ExactAlgError("tangent data violates s4 = s3 * dual form")


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
        expected = [_product(self.m_forms)]
        for i in range(4):
            keep = [self.m_forms[j] for j in range(4) if j != i]
            expected.append(self.l_forms[i] * _product(keep))
        if len(self.phi) != 5 or any(a != b for a, b in zip(self.phi, expected)):
            raise ExactAlgError("projection quartics must be the stated products")
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
    """The 15 ways to split {0..5} into three unordered pairs."""
    out = []
    for j in range(1, 6):
        rest = [k for k in range(1, 6) if k != j]
        a, b, c, d = rest
        for second, third in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            out.append(((0, j), second, third))
    return tuple(sorted(out))


def _matching_rows(matching) -> list[list[int]]:
    return [[1 if k in pair else 0 for k in range(6)] for pair in matching]


@dataclass(frozen=True)
class SegreModel:
    surface: Hypersurface
    nodes: tuple[ProjPoint, ...]
    planes: tuple[tuple[tuple[int, int], ...], ...]
    plane_bases: tuple[tuple[tuple[int, ...], ...], ...]
    hyperplane_scalars: dict[tuple[int, int], Fraction]
    node_quadrics: VanishingSpace
    offnode_samples: int
    seed: int


def build_segre(seed: int = 0, offnode_samples: int = 20) -> SegreModel:
    """The ten-nodal cubic threefold with its planes, nodes, and node quadrics.

    Certifies: the 15 matching planes lie on the cubic and hold 4 nodes each;
    every pair hyperplane meets the cubic in exactly the 3 planes through its
    pair (the restricted cubic splits into 3 linear factors); the gradient
    vanishes precisely at the nodes among all sampled points; the quadrics
    through the 10 nodes form the 5-dimensional span of the chart partials.
    """
    F = segre_chart()
    surface = Hypersurface(
        "segre-cubic", "x5 eliminated by x5 = -(x0+...+x4)", F, 3,
        "ten-nodal cubic threefold: both elementary symmetric functions "
        "sigma1 and the sum of cubes vanish")
    nodes = _chart_nodes()
    cubes = _six_cubes()
    nodes6 = _nodes_p5()

    grads = F.partials()
    for node in nodes:
        if any(g.eval(node.coords) for g in grads):
            raise ExactAlgError(f"node {node} is not singular on the cubic")

    planes = _matchings()
    bases = []
    for matching in planes:
        rows = _matching_rows(matching)
        basis = kernel_int(rows)
        if len(basis) != 3:
            raise ExactAlgError("a matching plane must be 3-dimensional")
        if any(sum(v) != 0 for v in basis):
            raise ExactAlgError("matching planes must lie inside {sum = 0}")
        if not cubes.restrict(basis).is_zero():
            raise ExactAlgError(f"plane {matching} does not lie on the cubic")
        on_plane = [p for p in nodes6
                    if all(sum(r * c for r, c in zip(row, p.coords)) == 0 for row in rows)]
        if len(on_plane) != 4:
            raise ExactAlgError(f"plane {matching} holds {len(on_plane)} nodes, wanted 4")
        bases.append(tuple(tuple(v) for v in basis))

    # a pair hyperplane cuts the cubic in the three planes of the matchings
    # through that pair; on the section the two leftover pair forms of a
    # matching agree up to sign, so one linear form cuts each plane
    scalars: dict[tuple[int, int], Fraction] = {}
    for pair in itertools.combinations(range(6), 2):
        section = kernel_int([_pair_row(pair), [1] * 6])
        if len(section) != 4:
            raise ExactAlgError("pair hyperplane section must be a P3")
        cut = cubes.restrict(section)
        factors = []
        for matching in planes:
            if tuple(sorted(pair)) not in matching:
                continue
            others = [p for p in matching if p != tuple(sorted(pair))]
            f1 = _unit_form(others[0]).restrict(section)
            f2 = _unit_form(others[1]).restrict(section)
            if not (f1 + f2).is_zero():
                raise ExactAlgError("leftover pair forms must be opposite on the section")
            factors.append(f1)
        if len(factors) != 3:
            raise ExactAlgError("each pair lies in exactly 3 matchings")
        scalar = proportional(cut, _product(factors))
        if scalar is None:
            raise ExactAlgError(f"section at {pair} does not split into 3 planes")
        scalars[tuple(sorted(pair))] = scalar

    quadrics = vanishing_space(2, 5, points=nodes)
    if quadrics.dim != 5:
        raise ExactAlgError(f"node quadrics have dimension {quadrics.dim}, wanted 5")
    rows = [g.coefficient_vector(_monomials_cache(5, 2)) for g in grads]
    if checked_rank(rows) != 5 or not all(quadrics.contains(g) for g in grads):
        raise ExactAlgError("node quadrics must equal the span of the chart partials")

    rng = _rng(seed, "segre-offnode")
    node_set = set(nodes)
    checked = 0
    while checked < offnode_samples:
        pt = _beta_chart_point(_draw(rng, 4))
        if pt is None or pt in node_set:
            continue
        if F.eval(pt.coords):
            raise ExactAlgError("parametrized point must land on the cubic")
        if not any(g.eval(pt.coords) for g in grads):
            raise ExactAlgError(f"unexpected singular point {pt}")
        checked += 1

    return SegreModel(surface, nodes, planes, tuple(bases), scalars,
                      quadrics, checked, seed)


def _pair_row(pair) -> list[int]:
    return [1 if k in pair else 0 for k in range(6)]


@lru_cache(maxsize=8)
def _monomials_cache(nvars: int, degree: int):
    return monomials(nvars, degree)


# -- parametrizing the cubic -------------------------------------------------------------


@lru_cache(maxsize=1)
def beta_components() -> tuple[MPoly, ...]:
    """Quadratic basis of the plane-quartic system that parametrizes the cubic.

    Six bilinear combinations of four parameters; the first three and the
    last three have equal sums and equal products, which forces the sum and
    the sum of cubes of the assembled coordinates to vanish identically.
    """
    z = [MPoly.var(i, 4) for i in range(4)]
    xi = z[0] * (z[3] - z[1])
    eta = z[1] * (z[3] - z[2])
    zeta = z[2] * (z[3] - z[0])
    xi2 = z[1] * (z[3] - z[0])
    eta2 = z[2] * (z[3] - z[1])
    zeta2 = z[0] * (z[3] - z[2])
    half = Fraction(1, 2)
    pos = (xi - eta + zeta, xi + eta - zeta, -xi + eta + zeta)
    neg = (xi2 - eta2 + zeta2, xi2 + eta2 - zeta2, -xi2 + eta2 + zeta2)
    return tuple([p * half for p in pos] + [q * -half for q in neg])


def _beta_chart_point(z: Sequence[int]) -> ProjPoint | None:
    vals = [c.eval(z) for c in beta_components()]
    if all(v == 0 for v in vals):
        return None
    return ProjPoint(vals[:5])


@dataclass(frozen=True)
class ParamReport:
    samples_on_cubic: int
    degenerate_line_node: ProjPoint
    probe_point: ProjPoint
    seed: int


def segre_param(seed: int = 0, samples: int = 10) -> ParamReport:
    """Certifies the quadric identities behind the parametrization of the cubic.

    The two symmetric identities between the primed and unprimed triple hold
    as polynomial identities, the assembled six coordinates sum to zero with
    vanishing sum of cubes, random parameter points land on the cubic, and
    the degenerate parameter line hits a node.
    """
    z = [MPoly.var(i, 4) for i in range(4)]
    xi = z[0] * (z[3] - z[1])
    eta = z[1] * (z[3] - z[2])
    zeta = z[2] * (z[3] - z[0])
    xi2 = z[1] * (z[3] - z[0])
    eta2 = z[2] * (z[3] - z[1])
    zeta2 = z[0] * (z[3] - z[2])
    if not (xi + eta + zeta - xi2 - eta2 - zeta2).is_zero():
        raise ExactAlgError("sum identity of the parametrizing quadrics fails")
    if not (xi * eta * zeta - xi2 * eta2 * zeta2).is_zero():
        raise ExactAlgError("product identity of the parametrizing quadrics fails")

    comps = beta_components()
    total = comps[0]
    for c in comps[1:]:
        total = total + c
    if not total.is_zero():
        raise ExactAlgError("assembled coordinates must sum to zero")
    if not power_sum(3, list(comps)).is_zero():
        raise ExactAlgError("assembled coordinates must have vanishing cube sum")

    # the parameter line z2 = z3 = 0 collapses to a single node
    node_img = _beta_chart_point((1, 1, 0, 0))
    if node_img is None or node_img not in set(_chart_nodes()):
        raise ExactAlgError("degenerate parameter line must map to a node")

    F = segre_chart()
    probe = _beta_chart_point((1, 2, 3, 5))
    if probe is None or F.eval(probe.coords):
        raise ExactAlgError("probe parameter point must land on the cubic")

    rng = _rng(seed, "segre-param")
    found = 0
    while found < samples:
        pt = _beta_chart_point(_draw(rng, 4))
        if pt is None:
            continue
        if F.eval(pt.coords):
            raise ExactAlgError("parametrized point off the cubic")
        found += 1
    return ParamReport(found, node_img, probe, seed)


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
    surface: Hypersurface
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
    surface = Hypersurface(
        "nieto-quintic", "x5 eliminated by x5 = -(x0+...+x4)", N, 5,
        "first and fifth elementary symmetric functions of six coordinates vanish")
    grads = N.partials()
    e5 = _e5_six()

    labels = tuple(sorted(itertools.combinations(range(6), 3)))
    lines = []
    for triple in labels:
        rows = [[1 if k == i else 0 for k in range(6)] for i in triple]
        basis = _flat_chart_basis(rows)
        if len(basis) != 2:
            raise ExactAlgError("coordinate-triple flats must be lines")
        line = ProjLine(ProjPoint(basis[0]), ProjPoint(basis[1]))
        for g in grads:
            if any(g.restrict_to_line(line.p.coords, line.q.coords)):
                raise ExactAlgError(f"gradient does not vanish along line {triple}")
        lines.append(line)
    if len(set(lines)) != 20:
        raise ExactAlgError("expected 20 distinct singular lines")

    nodes = _chart_nodes()
    for node in nodes:
        if any(g.eval(node.coords) for g in grads):
            raise ExactAlgError(f"node {node} is not singular on the quintic")

    cross = []
    for i, j in itertools.combinations(range(6), 2):
        v = [0] * 6
        v[i], v[j] = 1, -1
        cross.append(ProjPoint(v[:5]))
    if len(set(cross)) != 15:
        raise ExactAlgError("expected 15 distinct difference points")
    per_point = [sum(1 for line in lines if line.contains(q)) for q in cross]
    per_line = [sum(1 for q in cross if line.contains(q)) for line in lines]
    if set(per_point) != {4} or set(per_line) != {3}:
        raise ExactAlgError("difference-point incidences must be 4 per point, 3 per line")

    def chart_span_contains(basis, pt) -> bool:
        return rank_exact([list(b) for b in basis] + [list(pt.coords)]) == len(basis)

    matching_planes = []
    for matching in _matchings():
        basis = _flat_chart_basis(_matching_rows(matching))
        if len(basis) != 3 or not N.restrict(basis).is_zero():
            raise ExactAlgError(f"matching plane {matching} must lie on the quintic")
        n_nodes = sum(1 for p in nodes if chart_span_contains(basis, p))
        n_cross = sum(1 for q in cross if chart_span_contains(basis, q))
        if (n_nodes, n_cross) != (4, 3):
            raise ExactAlgError(f"matching plane {matching} meets ({n_nodes},{n_cross})")
        matching_planes.append(tuple(tuple(v) for v in basis))

    coordinate_planes = []
    for i, j in itertools.combinations(range(6), 2):
        rows = [[1 if k == i else 0 for k in range(6)],
                [1 if k == j else 0 for k in range(6)]]
        basis = _flat_chart_basis(rows)
        if len(basis) != 3 or not N.restrict(basis).is_zero():
            raise ExactAlgError(f"coordinate plane {(i, j)} must lie on the quintic")
        n_nodes = sum(1 for p in nodes if chart_span_contains(basis, p))
        n_cross = sum(1 for q in cross if chart_span_contains(basis, q))
        inside = [lab for lab, line in zip(labels, lines)
                  if chart_span_contains(basis, line.p) and chart_span_contains(basis, line.q)]
        if n_nodes != 0 or n_cross != 6 or len(inside) != 4:
            raise ExactAlgError(f"coordinate plane {(i, j)} census failed")
        if any(not {i, j} <= set(lab) for lab in inside):
            raise ExactAlgError("lines inside a coordinate plane must extend its pair")
        coordinate_planes.append(tuple(tuple(v) for v in basis))

    # every singular line lies in exactly three of the coordinate planes
    for lab, line in zip(labels, lines):
        count = sum(1 for basis in coordinate_planes
                    if chart_span_contains(basis, line.p) and chart_span_contains(basis, line.q))
        if count != 3:
            raise ExactAlgError(f"line {lab} lies in {count} coordinate planes, wanted 3")

    residuals: dict[tuple[int, int], MPoly] = {}
    for pair in itertools.combinations(range(6), 2):
        section = kernel_int([_pair_row(pair), [1] * 6])
        cut = e5.restrict(section)
        factors = []
        for matching in _matchings():
            if tuple(sorted(pair)) not in matching:
                continue
            others = [p for p in matching if p != tuple(sorted(pair))]
            f1 = _unit_form(others[0]).restrict(section)
            if not (f1 + _unit_form(others[1]).restrict(section)).is_zero():
                raise ExactAlgError("leftover pair forms must be opposite on the section")
            factors.append(f1)
        quad = _exact_div(cut, _product(factors))
        if quad.degree() != 2:
            raise ExactAlgError("pair section must leave a quadric after the three planes")
        residuals[tuple(sorted(pair))] = quad

    coord_scalars: dict[int, Fraction] = {}
    for i in range(6):
        section = kernel_int([[1 if k == i else 0 for k in range(6)], [1] * 6])
        cut = e5.restrict(section)
        prod = _product([MPoly.var(j, 6).restrict(section) for j in range(6) if j != i])
        scalar = proportional(cut, prod)
        if scalar is None:
            raise ExactAlgError(f"coordinate section {i} must split into five planes")
        coord_scalars[i] = scalar

    return NietoModel(surface, tuple(lines), labels, nodes, tuple(cross),
                      tuple(matching_planes), tuple(coordinate_planes),
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
    sing = 0
    hgrads = H.partials()
    for node in _chart_nodes():
        if any(g.eval(node.coords) for g in hgrads):
            raise ExactAlgError("Hessian quintic must be singular at every node")
        sing += 1
    return HessianReport(scalar, True, sing)


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
    surface: Hypersurface
    symmetric_model: MPoly
    symmetric_scalar: Fraction
    power_scalars: dict[int, Fraction]
    generator_checks: int
    word_checks: int
    seed: int


def build_invariant_quintic(seed: int = 0, words: int = 100) -> InvariantQuintic:
    """The invariant quintic, its symmetric model, and its invariance certificates.

    Certifies: the double-six product difference factors through the root
    form exactly; substituting the weight forms into the symmetric model
    reproduces the quintic up to a recorded scalar; the quintic is fixed,
    scalar one, by all six reflection generators and by random words in
    them; the degree-5 power sum of all 27 weight forms is a nonzero
    multiple of it; the degree-2 power sum is a multiple of the invariant
    quadratic form.
    """
    f = invariant_quintic_form()
    surface = Hypersurface(
        "invariant-quintic", "all six homogeneous coordinates, no elimination", f, 5,
        "unique quintic fixed by the Weyl group of E6 acting on the "
        "six-dimensional reflection representation")
    tables = lines27.coordinate_tables()
    aforms = [tables.weight_forms[f"a{i}"] for i in (1, 2, 3, 4, 5, 6)]
    bforms = [tables.weight_forms[f"b{i}"] for i in (1, 2, 3, 4, 5, 6)]
    h = tables.root_forms["h"]

    # product difference of the double six, divisible by h with the stated quotient
    sig = [elementary_symmetric(k, aforms) for k in range(6)]
    rhs = -(h * sig[5] + h ** 2 * sig[4] + h ** 3 * sig[3]
            + h ** 4 * sig[2] + h ** 5 * sig[1] + h ** 6)
    if _product(aforms) - _product(bforms) != rhs:
        raise ExactAlgError("double-six factorization identity fails")

    g = double_six_quotient()
    g_scalar = proportional(g.subs(aforms), f)
    if g_scalar is None or g_scalar == 0:
        raise ExactAlgError("symmetric model must be proportional to the quintic")

    all27 = [tables.weight_forms[lab] for lab in lines27.LINE_LABELS]
    i5_scalar = proportional(power_sum(5, all27), f)
    i2_scalar = proportional(power_sum(2, all27), tables.killing)
    if not i5_scalar or not i2_scalar:
        raise ExactAlgError("power sums must be nonzero multiples of the invariants")

    names, mats, _ = lines27.weyl_generators()
    for name, mat in zip(names, mats):
        if _pullback(f, mat) != f:
            raise ExactAlgError(f"generator {name} does not fix the quintic")
    rng = _rng(seed, "quintic-words")
    for _ in range(words):
        word = [rng.randrange(len(mats)) for _ in range(rng.randint(1, 10))]
        mat = mats[word[0]]
        for k in word[1:]:
            mat = _mat_mul(mat, mats[k])
        if _pullback(f, mat) != f:
            raise ExactAlgError("a generator word does not fix the quintic")

    return InvariantQuintic(surface, g, g_scalar,
                            {2: i2_scalar, 5: i5_scalar}, len(mats), words, seed)


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
    seed: int


def i5_singular_locus(seed: int = 0, offline_samples: int = 50) -> SingularLocusReport:
    """Singular locus of the invariant quintic: 120 lines and 36 triple points.

    Certifies: all six partials restrict to zero on each of the 120 lines;
    at each of the 36 dual points the value and all first and second
    partials vanish while some third partial does not (multiplicity exactly
    3); the incidences are 10 lines through each point and 3 points on each
    line; 40 of the lines lie in the wall {x6 = 0}; sampled points of the
    quintic away from the lines are smooth; the quartics vanishing on all
    120 lines are exactly the span of the six partials.
    """
    f = invariant_quintic_form()
    loci = lines27.special_loci()
    grads = f.partials()

    for line in loci.lines120:
        for g in grads:
            if any(g.restrict_to_line(line.p.coords, line.q.coords)):
                raise ExactAlgError("a partial fails to vanish along a singular line")

    second = {(i, j): grads[i].diff(j) for i in range(6) for j in range(i, 6)}
    third = {(i, j, k): p.diff(k)
             for (i, j), p in second.items() for k in range(j, 6)}
    witness: dict[str, tuple[int, int, int]] = {}
    for name, pt in loci.root_points.items():
        if f.eval(pt.coords) or any(g.eval(pt.coords) for g in grads):
            raise ExactAlgError(f"point {name} must kill the quintic and its gradient")
        if any(p.eval(pt.coords) for p in second.values()):
            raise ExactAlgError(f"point {name} must kill all second partials")
        for key in sorted(third):
            if third[key].eval(pt.coords):
                witness[name] = key
                break
        else:
            raise ExactAlgError(f"point {name} has multiplicity above 3")

    per_point = [sum(1 for line in loci.lines120 if line.contains(pt))
                 for pt in loci.root_points.values()]
    per_line = [sum(1 for pt in loci.root_points.values() if line.contains(pt))
                for line in loci.lines120]
    if set(per_point) != {10} or set(per_line) != {3}:
        raise ExactAlgError("line-point incidences must be 10 and 3")

    wall = sum(1 for line in loci.lines120
               if line.p.coords[5] == 0 and line.q.coords[5] == 0)
    if wall != 40:
        raise ExactAlgError(f"{wall} lines lie in the wall, wanted 40")

    quartics = vanishing_space(4, 6, lines=loci.lines120, candidates=grads)
    if quartics.dim != 6:
        raise ExactAlgError("quartics on the 120 lines must be the Jacobian span")

    rng = _rng(seed, "quintic-offline")
    psi = psi_octics()
    checked = 0
    while checked < offline_samples:
        y = _draw(rng, 5)
        vals = [o.eval(y) for o in psi]
        if all(v == 0 for v in vals):
            continue
        if f.eval(vals):
            raise ExactAlgError("octic image must land on the quintic")
        pt = ProjPoint(vals)
        if any(line.contains(pt) for line in loci.lines120):
            continue
        if not any(g.eval(pt.coords) for g in grads):
            raise ExactAlgError(f"unexpected singular point {pt} off the 120 lines")
        checked += 1

    return SingularLocusReport(len(loci.lines120), len(loci.root_points), wall,
                               per_point[0], per_line[0], witness, checked,
                               quartics, seed)


def triple_point_cone(label: str) -> TripleCone:
    """Tangent-cone data of the invariant quintic at the named triple point.

    Expands f(t*p + u) over a coordinate complement of p and certifies the
    shape s5 + s3*(t*ell + t**2): the t^3..t^5 pieces vanish identically,
    the t-linear piece is s3 times a fixed rescaling of the dual root form,
    and the tangent cone cubic s3 is singular exactly at the directions of
    the ten singular lines through p, with quadrics through those ten
    directions matching the span of s3's partials.
    """
    loci = lines27.special_loci()
    tables = lines27.coordinate_tables()
    if label not in loci.root_points:
        raise ExactAlgError(f"unknown triple point {label}")
    p = loci.root_points[label]
    hf = tables.root_forms[label]
    hval = hf.eval(p.coords)
    if hval == 0:
        raise ExactAlgError("dual pairing must not vanish at its own point")
    axis = next(i for i, c in enumerate(p.coords) if c)

    slot = {}
    for i in range(6):
        if i != axis:
            slot[i] = len(slot)
    t = MPoly.var(5, 6)
    images = []
    for i in range(6):
        img = t * p.coords[i]
        if i != axis:
            img = img + MPoly.var(slot[i], 6)
        images.append(img)
    expanded = invariant_quintic_form().subs(images)

    buckets: dict[int, list] = {j: [] for j in range(6)}
    for exp, c in expanded.terms.items():
        buckets[exp[5]].append((exp[:5], c))
    pieces = [MPoly.from_terms(5, buckets[j]) for j in range(6)]
    if any(not pieces[j].is_zero() for j in (3, 4, 5)):
        raise ExactAlgError(f"{label}: multiplicity is below 3")
    s5, s4, s3 = pieces[0], pieces[1], pieces[2]

    wcoeffs = [hf.terms.get(tuple(1 if k == i else 0 for k in range(6)), Fraction(0))
               for i in range(6)]
    ell = MPoly.from_terms(
        5, (((tuple(1 if k == slot[i] else 0 for k in range(5))), wcoeffs[i])
            for i in range(6) if i != axis and wcoeffs[i]))
    dual_scalar = Fraction(2) / hval
    dual_form = ell * dual_scalar
    # reassembly in the mixed ring: f(t*p + u) = s5 + s3*(t*dual + t^2)
    if expanded != _lift5to6(s5) + _lift5to6(s3) * (t * _lift5to6(dual_form) + t * t):
        raise ExactAlgError(f"{label}: expansion does not reassemble")

    through = [line for line in loci.lines120 if line.contains(p)]
    if len(through) != 10:
        raise ExactAlgError(f"{label}: expected 10 singular lines through the point")
    dirs = []
    for line in through:
        a, b = line.p.coords, line.q.coords
        d6 = [a[i] * b[axis] - b[i] * a[axis] for i in range(6)]
        dirs.append(ProjPoint([d6[i] for i in range(6) if i != axis]))
    if len(set(dirs)) != 10:
        raise ExactAlgError(f"{label}: line directions must be 10 distinct points")
    s3_grads = s3.partials()
    for d in dirs:
        if any(g.eval(d.coords) for g in s3_grads):
            raise ExactAlgError(f"{label}: a line direction is not a cone node")
    quads = vanishing_space(2, 5, points=dirs)
    if quads.dim != 5 or not all(quads.contains(g) for g in s3_grads):
        raise ExactAlgError(f"{label}: cone-node quadrics must match the Jacobian span")
    if checked_rank([g.coefficient_vector(_monomials_cache(5, 2)) for g in s3_grads]) != 5:
        raise ExactAlgError(f"{label}: cone partials must be independent")

    return TripleCone(label, p, axis, s5, s4, s3, dual_form, dual_scalar,
                      tuple(dirs), quads)


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

    def form_row(g: MPoly) -> list[Fraction]:
        return [g.terms.get(tuple(1 if t == i else 0 for t in range(6)), Fraction(0))
                for i in range(6)]

    p3_bases: dict[str, list] = {}
    for name, labels in tri.items():
        forms = [tables.weight_forms[lab] for lab in labels]
        total = forms[0] + forms[1] + forms[2]
        if not total.is_zero():
            raise ExactAlgError(f"tritangent {name} forms must sum to zero")
        basis = kernel_int([form_row(g) for g in forms])
        if len(basis) != 4:
            raise ExactAlgError(f"tritangent {name} must cut a P3")
        if not f.restrict(basis).is_zero():
            raise ExactAlgError(f"quintic does not vanish on the P3 of {name}")
        p3_bases[name] = basis
    keys = {tuple(map(tuple, kernel_int([list(b) for b in basis])))
            for basis in p3_bases.values()}
    if len(p3_bases) != 45 or len(keys) != 45:
        raise ExactAlgError("expected 45 distinct tritangent P3's")

    # explicit wall checks: the P3 {x1 = x6 = 0} and the simplex quintic
    wall_basis = [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                  [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]
    if not f.restrict(wall_basis).is_zero():
        raise ExactAlgError("quintic must vanish on {x1 = x6 = 0}")
    simplex_basis = [[1 if j == i else 0 for j in range(6)] for i in range(5)]
    simplex = f.restrict(simplex_basis)
    mono = _product([MPoly.var(i, 5) for i in range(5)])
    simplex_scalar = proportional(simplex, mono)
    if simplex_scalar is None:
        raise ExactAlgError("wall restriction must be the coordinate simplex quintic")

    scalars: dict[str, Fraction] = {}
    per_label_count = None
    containment: dict[str, int] = {name: 0 for name in tri}
    for lab in lines27.LINE_LABELS:
        w = tables.weight_forms[lab]
        section = kernel_int([form_row(w)])
        if len(section) != 5:
            raise ExactAlgError("weight hyperplane must be a P4")
        cut = f.restrict(section)
        owners = [name for name, labels in tri.items() if lab in labels]
        if per_label_count is None:
            per_label_count = len(owners)
        if len(owners) != per_label_count or len(owners) != 5:
            raise ExactAlgError("each label lies in exactly five tritangents")
        factors = []
        for name in owners:
            others = sorted(tri[name] - {lab})
            g1 = tables.weight_forms[others[0]].restrict(section)
            g2 = tables.weight_forms[others[1]].restrict(section)
            if not (g1 + g2).is_zero():
                raise ExactAlgError("co-tritangent forms must be opposite on the section")
            factors.append(g1)
            containment[name] += 1
        scalar = proportional(cut, _product(factors))
        if scalar is None:
            raise ExactAlgError(f"section at {lab} does not split into five P3's")
        scalars[lab] = scalar

        # geometric containment: exactly the five owner P3's sit inside the section
        inside = [name for name, basis in p3_bases.items()
                  if all(w.eval(v) == 0 for v in basis)]
        if sorted(inside) != sorted(owners):
            raise ExactAlgError(f"P3's inside section {lab} disagree with the owners")

    if set(containment.values()) != {3}:
        raise ExactAlgError("every P3 must lie in exactly three weight hyperplanes")

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
        coeffs = [g.terms.get(tuple(1 if t == i else 0 for t in range(6)), Fraction(0))
                  for i in (1, 2, 3, 4)]
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


@dataclass(frozen=True)
class RationalizationReport:
    maps: RationalizationMaps
    base_p3_names: tuple[str, ...]
    exact_checked: int
    modular_checked: dict[int, int]
    failure_log10: dict[int, float]
    roundtrip_phi_psi: int
    roundtrip_psi_phi: int
    seed: int


def _proportional_vectors(v: Sequence, w: Sequence) -> bool:
    if len(v) != len(w) or not any(v) or not any(w):
        return False
    return all(v[i] * w[j] == v[j] * w[i]
               for i in range(len(v)) for j in range(i + 1, len(v)))


def _eval_batch_mod(polys: Sequence[MPoly], values: np.ndarray, p: int) -> list[np.ndarray]:
    """Evaluate polynomials at many points mod p; values has one column per point."""
    nvars = polys[0].nvars
    maxexp = max((e for poly in polys for exp in poly.terms for e in exp), default=0)
    tables = []
    for i in range(nvars):
        col = [np.ones(values.shape[1], dtype=np.int64), values[i] % p]
        for _ in range(maxexp - 1):
            col.append(col[-1] * col[1] % p)
        tables.append(col)
    out = []
    for poly in polys:
        acc = np.zeros(values.shape[1], dtype=np.int64)
        for exp, c in poly.terms.items():
            term = np.full(values.shape[1], _reduce_fraction_mod(c, p), dtype=np.int64)
            for i, e in enumerate(exp):
                if e:
                    term = term * tables[i][e] % p
            acc = (acc + term) % p
        out.append(acc)
    return out


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

    def form_row(g: MPoly) -> list[Fraction]:
        return [g.terms.get(tuple(1 if t == i else 0 for t in range(6)), Fraction(0))
                for i in range(6)]

    base_names = []
    for lf, mf, ln, mn in zip(maps.l_forms, maps.m_forms, maps.l_names, maps.m_names):
        basis = kernel_int([form_row(lf), form_row(mf)])
        if len(basis) != 4:
            raise ExactAlgError("a base locus component must be a P3")
        for quartic in maps.phi:
            if not quartic.restrict(basis).is_zero():
                raise ExactAlgError("every projection quartic must vanish on the base P3s")
        owner = next(name for name, labels in tri.items() if {ln, mn} <= labels)
        base_names.append(owner)
    if len(set(base_names)) != 4:
        raise ExactAlgError("the four base P3's must be distinct tritangents")

    rng = _rng(seed, "rationalize")
    checked = 0
    while checked < exact_samples:
        y = _draw(rng, 5)
        vals = [o.eval(y) for o in maps.psi]
        if all(v == 0 for v in vals):
            continue
        if f.eval(vals):
            raise ExactAlgError(f"octic image of {y} misses the quintic")
        checked += 1

    modular: dict[int, int] = {}
    bounds: dict[int, float] = {}
    for p in SHADOW_PRIMES:
        pts = np.array([[rng.randrange(p) for _ in range(modular_samples)]
                        for _ in range(5)], dtype=np.int64)
        images = _eval_batch_mod(list(maps.psi), pts, p)
        residues = _eval_batch_mod([f], np.array(images), p)[0]
        if np.any(residues):
            raise ExactAlgError(f"octic image misses the quintic mod {p}")
        modular[p] = modular_samples
        # composite degree 5 * 8 = 40; independent uniform points multiply the bound
        bounds[p] = modular_samples * (math.log10(40) - math.log10(p))

    phi_checked = 0
    while phi_checked < roundtrip_samples:
        y = _draw(rng, 5)
        x_vals = [o.eval(y) for o in maps.psi]
        if all(v == 0 for v in x_vals):
            continue
        back = [q.eval(x_vals) for q in maps.phi]
        if not any(back):
            continue
        if not _proportional_vectors(back, [Fraction(c) for c in y]):
            raise ExactAlgError("projection of the octic image must reproduce the point")
        phi_checked += 1

    psi_checked = 0
    while psi_checked < roundtrip_samples:
        y = _draw(rng, 5)
        x_vals = [o.eval(y) for o in maps.psi]
        if all(v == 0 for v in x_vals):
            continue
        u = [q.eval(x_vals) for q in maps.phi]
        if not any(u):
            continue
        w = [o.eval(u) for o in maps.psi]
        if not any(w):
            continue
        if not _proportional_vectors(w, x_vals):
            raise ExactAlgError("octics of the projection must reproduce the point")
        psi_checked += 1

    return RationalizationReport(maps, tuple(base_names), checked, modular, bounds,
                                 phi_checked, psi_checked, seed)


# -- duality between the cubic and the quartic ---------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    igusa: Hypersurface
    fitted_dim: int
    resampled: bool
    image_lines: tuple[ProjLine, ...]
    line_cubics: VanishingSpace
    biduality_checked: int
    seed: int


def _gradient_image(grads: Sequence[MPoly], pt: ProjPoint) -> ProjPoint | None:
    vals = [g.eval(pt.coords) for g in grads]
    if not any(vals):
        return None
    return ProjPoint(vals)


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
    rng = _rng(seed, "duality")
    node_set = set(_chart_nodes())

    def sample_images(count: int) -> list[ProjPoint]:
        images: dict[tuple, ProjPoint] = {}
        while len(images) < count:
            pt = _beta_chart_point(_draw(rng, 4))
            if pt is None or pt in node_set:
                continue
            img = _gradient_image(grads, pt)
            if img is not None:
                images[img.coords] = img
        return list(images.values())

    fitted = vanishing_space(4, 5, points=sample_images(samples))
    resampled = False
    if fitted.dim != 1:
        resampled = True
        fitted = vanishing_space(4, 5, points=sample_images(samples))
        if fitted.dim != 1:
            raise ExactAlgError("fitted quartic space must be one-dimensional")
    quartic = fitted.basis[0]
    igusa = Hypersurface(
        "igusa-quartic", "gradient-image coordinates of the cubic chart", quartic, 4,
        "dual hypersurface of the ten-nodal cubic, fitted through gradient "
        "images and singular along 15 lines")
    _exact_div(quartic.subs(grads), F)

    model = build_segre(seed=seed)
    lines: dict[tuple, ProjLine] = {}
    for basis in model.plane_bases:
        imgs: list[ProjPoint] = []
        while len(imgs) < 3:
            combo = _draw(rng, 3)
            vec = [sum(c * b[i] for c, b in zip(combo, basis)) for i in range(6)]
            if not any(vec[:5]):
                continue
            pt = ProjPoint(vec[:5])
            img = _gradient_image(grads, pt)
            if img is None or img in imgs:
                continue
            imgs.append(img)
        if rank_exact([list(p.coords) for p in imgs]) != 2:
            raise ExactAlgError("plane images must be collinear and span a line")
        line = ProjLine(imgs[0], imgs[1])
        if not line.contains(imgs[2]):
            raise ExactAlgError("third plane image must lie on the image line")
        lines[line.key] = line
    if len(lines) != 15:
        raise ExactAlgError(f"expected 15 contracted lines, found {len(lines)}")
    image_lines = tuple(lines.values())

    cubics = vanishing_space(3, 5, lines=image_lines)
    dual_grads = quartic.partials()
    if cubics.dim != 5 or not all(cubics.contains(g) for g in dual_grads):
        raise ExactAlgError("cubics through the 15 lines must match the dual Jacobian")
    if checked_rank([g.coefficient_vector(_monomials_cache(5, 3))
                     for g in dual_grads]) != 5:
        raise ExactAlgError("dual partials must be independent")

    checked = 0
    while checked < biduality_samples:
        pt = _beta_chart_point(_draw(rng, 4))
        if pt is None or pt in node_set:
            continue
        img = _gradient_image(grads, pt)
        if img is None:
            continue
        back = [g.eval(img.coords) for g in dual_grads]
        if not any(back):
            continue
        if not _proportional_vectors(back, [Fraction(c) for c in pt.coords]):
            raise ExactAlgError("gradient round trip must return the point")
        checked += 1

    return DualityReport(igusa, fitted.dim, resampled, image_lines, cubics,
                         checked, seed)


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
    chart = [MPoly.var(i, 5) for i in range(5)]
    if F + elementary_symmetric(1, chart) ** 3 != power_sum(3, chart):
        raise ExactAlgError("chart cubic must differ from five cubes by the sum cubed")
    basis = kernel_int([[1] * 5])
    if len(basis) != 4:
        raise ExactAlgError("diagonal section must be a P3")
    ys = [MPoly.from_terms(4, ((tuple(1 if t == k else 0 for t in range(4)), b[i])
                               for k, b in enumerate(basis) if b[i]))
          for i in range(5)]
    total = ys[0]
    for y in ys[1:]:
        total = total + y
    if not total.is_zero() or F.restrict(basis) != power_sum(3, ys):
        raise ExactAlgError("diagonal section must be the five-cube equation")

    cubes = _six_cubes()
    section = kernel_int([[1, -1, 0, 0, 0, 0], [1] * 6])
    if len(section) != 4:
        raise ExactAlgError("Cayley section must be a P3")
    cayley = cubes.restrict(section)
    cgrads = cayley.partials()
    on_section = 0
    for node in _nodes_p5():
        if node.coords[0] != node.coords[1]:
            continue
        coords = solve_exact([[b[i] for b in section] for i in range(6)],
                             list(node.coords))
        if coords is None:
            raise ExactAlgError("equal-coordinate node must lie on the section")
        if any(g.eval(coords) for g in cgrads):
            raise ExactAlgError("node must be singular on the Cayley section")
        on_section += 1
    if on_section != 4:
        raise ExactAlgError(f"Cayley section holds {on_section} nodes, wanted 4")

    x6 = [MPoly.var(i, 6) for i in range(6)]
    squares = [v * v for v in x6]
    lin = elementary_symmetric(1, x6)
    if lin.subs(squares) != power_sum(2, x6):
        raise ExactAlgError("squared linear equation must be the sum of squares")
    if _e5_six().subs(squares) != elementary_symmetric(5, squares):
        raise ExactAlgError("squared quintic equation must be the symmetric function "
                            "of the squares")

    return SectionsReport(True, on_section, True)
