"""Nodal quintic threefolds cut out of the invariant quintic by hyperplanes.

A hyperplane that avoids the 36 triple points and contains none of the 120
singular lines meets each line in exactly one point, so its section is a
quintic threefold in P^4 with 120 nodes; a hyperplane tangent at a smooth
point picks up that point as a 121st node. Everything here is exact: nodes
come from intersecting lines with the hyperplane and are certified once, in
the ambient P^5 (the gradient of the quintic vanishes at a line node, and
the hyperplane is tangent at the tangency node); the space of quintics
through the nodes is certified in a chart of the hyperplane by
vanishing_space with supplied members (products of the restricted partials
with linear forms) against the modular rank bound, and again in the chart
of a random invertible mix of the first chart's generators. The defect,
Betti and Hodge numbers follow by the classical node-count bookkeeping for
small resolutions.

First Betti numbers are deliberately not reported; published tables for
them disagree with the standard conventions, and nothing downstream needs
them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exactalg import (
    SHADOW_PRIMES,
    ExactAlgError,
    MPoly,
    ProjPoint,
    VanishingSpace,
    _chart_coordinates,
    _draws,
    _draws_below,
    _sample,
    _task_rng,
    _values_at,
    checked_rank,
    kernel_int,
    monomials,
    proportional,
    rank_mod,
    restrictions,
    vanishing_space,
)
from . import lines27
from .gems import _octic_points, invariant_quintic_form

#: quintic monomials in the five internal coordinates of a hyperplane
QUINTIC_MONOMIAL_COUNT = len(monomials(5, 5))

KINDS = ("generic", "tangent")


# -- section specifications ------------------------------------------------------------


@dataclass(frozen=True)
class SectionSpec:
    """A hyperplane slice of the invariant quintic, tagged by its kind.

    generic: avoids the 36 triple points and all 120 singular lines.
    tangent: the tangent hyperplane at a smooth point, carried along.
    Any other hyperplane, a reflection hyperplane for one (it passes through
    15 of the triple points), is refused by `section_nodes`.
    """

    hyperplane: MPoly
    kind: str
    tangency: ProjPoint | None = None

    def __post_init__(self):
        h = self.hyperplane
        if h.nvars != 6 or h.is_zero() or h.degree() != 1:
            raise ExactAlgError("hyperplane must be a nonzero linear form on P^5")
        if self.kind not in KINDS:
            raise ExactAlgError(f"unknown section kind {self.kind!r}")
        if (self.tangency is None) == (self.kind == "tangent"):
            raise ExactAlgError("tangency point is required exactly for tangent kind")


@lru_cache(maxsize=1)
def _section_points() -> np.ndarray:
    """The 36 root points, then the two spanning points of each of the 120 lines."""
    loci = lines27.special_loci()
    return np.array([pt.coords for pt in loci.root_points.values()]
                    + [pt.coords for line in loci.lines120 for pt in (line.p, line.q)])


def _hyperplane_check(h: MPoly) -> tuple[str, np.ndarray]:
    """Why the hyperplane h is refused, "" if it is not, and h at the
    `_section_points`, all scaled by h's denominator lcm."""
    loci = lines27.special_loci()
    vals = _values_at([h], _section_points())[:, 0]
    for name, v in zip(loci.root_points, vals):
        if v == 0:
            return f"hyperplane passes through the triple point {name}", vals
    if (vals[len(loci.root_points):].reshape(-1, 2) == 0).all(axis=1).any():
        return "hyperplane contains one of the 120 singular lines", vals
    return "", vals


def generic_section(seed: int = 0) -> SectionSpec:
    """Random small-integer hyperplane, redrawn (within the draw cap) until exactly valid."""
    def clear(rows: np.ndarray) -> list[MPoly]:
        hs = [MPoly.linear(row) for row in rows.tolist()]
        return [h for h in hs if not _hyperplane_check(h)[0]]

    return SectionSpec(_sample(_task_rng(seed, "generic-hyperplane"), 1,
                               lambda rng, k: _draws(rng, 6, k), clear)[0], "generic")


def tangent_section(seed: int = 0) -> SectionSpec:
    """Tangent hyperplane at a smooth rational point of the quintic.

    The tangency point is an image of the degree-8 parametrization, which
    lands on the quintic by construction; draws are rejected until the
    point is smooth and the tangent hyperplane passes the same validity
    predicates as a generic one.
    """
    grads = _partials(invariant_quintic_form())

    def tangent(ys: np.ndarray) -> list[SectionSpec]:
        pts = [pt for pt in _octic_points(ys) if pt is not None]
        # f is integral, so the gradients are not rescaled (`_values_at`)
        specs = [SectionSpec(MPoly.linear(grad), "tangent", pt) for pt, grad
                 in zip(pts, _values_at(grads, [pt.coords for pt in pts]).tolist()) if any(grad)]
        return [spec for spec in specs if not _hyperplane_check(spec.hyperplane)[0]]

    return _sample(_task_rng(seed, "tangent-hyperplane"), 1,
                   lambda rng, k: _draws(rng, 5, k), tangent)[0]


# -- node extraction --------------------------------------------------------------------


@lru_cache(maxsize=1)
def _partials(f: MPoly) -> tuple[MPoly, ...]:
    """The partials of f, built once per form."""
    return tuple(f.partials())


def _chart_generators(h: MPoly) -> list[tuple[int, ...]]:
    gens = kernel_int([h.linear_coeffs()])
    if len(gens) != 5:
        raise ExactAlgError("hyperplane chart must have five generators")
    return gens


def section_nodes(spec: SectionSpec) -> tuple[ProjPoint, ...]:
    """The nodes of the hyperplane section, exactly, as ambient points.

    Each of the 120 singular lines contributes its intersection with the
    hyperplane; a tangent section appends the tangency point. Every
    returned point is certified once: it lies on the hyperplane, and either
    kills the ambient gradient of the quintic (a line node) or is a smooth
    point of the quintic where the hyperplane is tangent (the tangency
    node). Either way the point is singular on the section, since the chart
    partials are combinations of the ambient ones and the quintic itself
    vanishes there by Euler's formula. A hyperplane through a triple point
    or containing a singular line is refused.
    """
    why, vals = _hyperplane_check(spec.hyperplane)
    if why:
        raise ExactAlgError(why)

    h = spec.hyperplane
    loci = lines27.special_loci()
    # h at the two ends of each line, both scaled by h's denominator lcm
    ends = vals[len(loci.root_points):].reshape(-1, 2).tolist()
    nodes = [ProjPoint([a * qc - b * pc for pc, qc in zip(line.p.coords, line.q.coords)])
             for line, (a, b) in zip(loci.lines120, ends)]

    f = invariant_quintic_form()
    grads = _partials(f)
    for node, vals in zip(nodes, _values_at(grads, [node.coords for node in nodes])):
        if vals.any():
            raise ExactAlgError(f"{node} is not a singular point of the section")
    if spec.kind == "tangent":
        pt = spec.tangency
        value, *grad = _values_at([f, *grads], [pt.coords])[0].tolist()
        if value or not any(grad):
            raise ExactAlgError("tangency point must be a smooth point of the quintic")
        if proportional(MPoly.linear(grad), h) is None:
            raise ExactAlgError("hyperplane must be tangent at the tangency point")
        nodes.append(pt)

    if _values_at([h], [node.coords for node in nodes]).any():
        raise ExactAlgError("a node does not lie on the hyperplane")
    if len(set(nodes)) != len(nodes):
        raise ExactAlgError("coincident nodes, hyperplane is too special")
    return tuple(nodes)


# -- reports -----------------------------------------------------------------------------


def defect_from_dimension(quintic_dim: int, node_count: int) -> int:
    """Defect of a nodal quintic threefold from the through-nodes dimension."""
    return quintic_dim - QUINTIC_MONOMIAL_COUNT + node_count


@dataclass(frozen=True)
class NodalSectionReport:
    """Node census and derived topology of one hyperplane section.

    h11 equals b2 = 1 + defect and h21 = quintic_dim minus the span of the
    section's own Jacobian quintics, following the small-resolution
    reading; euler = 2*h11 - 2*h21. b1 is intentionally absent.
    """

    kind: str
    node_count: int
    quintic_dim: int
    defect: int
    jacobian_rank: int
    h11: int
    h21: int
    b2: int
    b3: int
    euler: int
    vanishing: VanishingSpace


def _mixing_matrix(rng: random.Random) -> list[list[int]]:
    """A 5x5 matrix of `rng.randint(-3, 3)` entries, row by row, invertible
    mod p0 and so over Q, redrawn until it is."""
    def draw(rng: random.Random, k: int) -> np.ndarray:
        return (_draws_below(rng, 7, 25 * k) - 3).reshape(k, 5, 5)

    def invertible(mats: np.ndarray) -> list[list[list[int]]]:
        return [mat for mat in mats.tolist() if rank_mod(mat, SHADOW_PRIMES[0]) == 5]

    return _sample(rng, 1, draw, invertible)[0]


def _times_coordinates(forms) -> list[MPoly]:
    """Each form times each chart coordinate u_j; for the partials of a
    chart quintic q, the 25 Jacobian quintics u_j * dq/du_i."""
    uvars = [MPoly.var(j, 5) for j in range(5)]
    return [u * g for g in forms for u in uvars]


def _quintic_candidates(jacobian: list[MPoly] | None, restricted_partials: list[MPoly],
                        tangency_chart: ProjPoint | None) -> list[MPoly]:
    if tangency_chart is None:
        return _times_coordinates(restricted_partials)
    cands = list(jacobian)
    at = _values_at(restricted_partials, [tangency_chart.coords])[0]
    off = next((r for r, v in zip(restricted_partials, at) if v), None)
    if off is None:
        raise ExactAlgError("tangency point annihilates every restricted partial")
    for form in kernel_int([list(tangency_chart.coords)]):
        cands.append(MPoly.linear(form) * off)
    return cands


def _chart_dimension(f: MPoly, grads, gens, nodes, tangent: bool
                     ) -> tuple[int, VanishingSpace, MPoly, list[MPoly] | None]:
    """Through-nodes dimension and space, restricted f and, if tangent, its
    Jacobian quintics in the chart of gens; the nodes' chart coordinates
    come from one echelon of gens, the tangency point last (see
    `section_nodes`)."""
    q, *restricted = [cut for (cut,) in restrictions([f, *grads], [gens])]
    chart_nodes = _chart_coordinates(gens, nodes)
    jacobian = _times_coordinates(q.partials()) if tangent else None
    cands = _quintic_candidates(jacobian, restricted, chart_nodes[-1] if tangent else None)
    space = vanishing_space(5, 5, points=chart_nodes, candidates=cands)
    return space.dim, space, q, jacobian


def section_report(spec: SectionSpec, seed: int = 0) -> NodalSectionReport:
    """Extract nodes, measure quintics through them, derive the topology.

    The nodes come certified from `section_nodes`. The through-nodes
    dimension is recomputed in a second chart, the first chart's generators
    mixed by a random invertible matrix, and must agree.
    """
    nodes = section_nodes(spec)
    f = invariant_quintic_form()
    grads = _partials(f)
    s = len(nodes)

    gens = _chart_generators(spec.hyperplane)
    dim1, space, q, jacobian = _chart_dimension(f, grads, gens, nodes, spec.kind == "tangent")
    mix = _mixing_matrix(_task_rng(seed, "chart-mix"))
    mixed = [tuple(sum(mix[j][k] * gens[k][i] for k in range(5)) for i in range(6))
             for j in range(5)]
    dim2 = _chart_dimension(f, grads, mixed, nodes, spec.kind == "tangent")[0]
    if dim1 != dim2:
        raise ExactAlgError(f"chart choice leaked into the dimension: {dim1} vs {dim2}")

    jac_rows = [g.coefficient_vector(5)
                for g in jacobian or _times_coordinates(q.partials())]
    jac_rank = checked_rank(jac_rows)

    defect = defect_from_dimension(dim1, s)
    h21 = dim1 - jac_rank
    b2 = 1 + defect
    h11 = b2
    b3 = 2 + 2 * h21
    euler = 2 * h11 - 2 * h21
    return NodalSectionReport(spec.kind, s, dim1, defect, jac_rank, h11, h21,
                              b2, b3, euler, space)
