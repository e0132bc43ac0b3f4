"""Nodal hyperplane sections: node extraction, defect, Hodge bookkeeping."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgem import exactalg, lines27, nodalcy
from modgem.exactalg import ExactAlgError, MPoly, ProjPoint
from modgem.gems import invariant_quintic_form
from modgem.nodalcy import (
    QUINTIC_MONOMIAL_COUNT,
    SectionSpec,
    defect_from_dimension,
    generic_section,
    section_nodes,
    section_report,
    tangent_section,
)

from fraction_rank import on_line


@pytest.fixture(scope="module")
def generic():
    spec = generic_section(0)
    return spec, section_report(spec)


@pytest.fixture(scope="module")
def tangent():
    spec = tangent_section(0)
    return spec, section_report(spec)


# -- section specs -----------------------------------------------------------


def test_spec_rejects_nonlinear_hyperplane():
    with pytest.raises(ExactAlgError):
        SectionSpec(invariant_quintic_form(), "generic")


def test_spec_rejects_unknown_kind():
    h = MPoly.var(0, 6) - MPoly.var(3, 6)
    with pytest.raises(ExactAlgError):
        SectionSpec(h, "transverse")


def test_spec_ties_tangency_to_kind():
    h = MPoly.var(0, 6) - MPoly.var(3, 6)
    with pytest.raises(ExactAlgError):
        SectionSpec(h, "tangent")
    with pytest.raises(ExactAlgError):
        SectionSpec(h, "generic", ProjPoint((1, 0, 0, 0, 0, 1)))


def test_generic_section_is_deterministic():
    assert generic_section(3).hyperplane == generic_section(3).hyperplane


# -- node extraction ----------------------------------------------------------


def test_generic_nodes_census(generic):
    spec, _ = generic
    nodes = section_nodes(spec)
    assert len(nodes) == 120
    assert len(set(nodes)) == 120
    assert all(spec.hyperplane.eval(pt.coords) == 0 for pt in nodes)


def test_nodes_lie_on_singular_lines(generic):
    spec, _ = generic
    lines = lines27.special_loci().lines120
    for pt in section_nodes(spec):
        assert any(on_line(line, pt) for line in lines)


def test_tangent_nodes_census(tangent):
    spec, _ = tangent
    nodes = section_nodes(spec)
    assert len(nodes) == 121
    assert nodes[-1] == spec.tangency


def test_tangency_point_is_smooth_on_quintic(tangent):
    spec, _ = tangent
    f = invariant_quintic_form()
    pt = spec.tangency
    assert f.eval(pt.coords) == 0
    assert any(g.eval(pt.coords) for g in f.partials())
    assert spec.hyperplane.eval(pt.coords) == 0


def test_special_section_refuses_node_extraction():
    forms = lines27.coordinate_tables().root_forms
    name = sorted(forms)[0]
    with pytest.raises(ExactAlgError, match="triple point"):
        section_nodes(SectionSpec(forms[name], "generic"))


def test_invalid_generic_hyperplane_is_caught():
    pt = next(iter(lines27.special_loci().root_points.values()))
    i = next(k for k, c in enumerate(pt.coords) if c)
    j = (i + 1) % 6
    h = pt.coords[j] * MPoly.var(i, 6) - pt.coords[i] * MPoly.var(j, 6)
    with pytest.raises(ExactAlgError):
        section_nodes(SectionSpec(h, "generic"))


def test_node_off_the_singular_locus_is_caught(monkeypatch):
    # f + x0^5 leaves the hyperplane valid, but its gradient does not vanish
    # at the nodes with x0 != 0
    broken = invariant_quintic_form() + MPoly.var(0, 6) ** 5
    monkeypatch.setattr(nodalcy, "invariant_quintic_form", lambda: broken)
    with pytest.raises(ExactAlgError, match="not a singular point"):
        section_nodes(generic_section(0))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=5, deadline=None)
def test_generic_sections_always_yield_120_nodes(seed):
    assert len(section_nodes(generic_section(seed))) == 120


# -- reports -------------------------------------------------------------------


def test_quintic_monomial_count():
    assert QUINTIC_MONOMIAL_COUNT == 126


def test_defect_formula_degenerate_case():
    # a smooth quintic imposes no conditions: 126 quintics, zero defect
    assert defect_from_dimension(126, 0) == 0
    assert defect_from_dimension(30, 120) == 24


def test_generic_report(generic):
    _, rep = generic
    assert rep.kind == "generic"
    assert rep.node_count == 120
    assert rep.quintic_dim == 30
    assert rep.defect == 24
    assert rep.jacobian_rank == 25
    assert (rep.h11, rep.h21) == (25, 5)
    assert (rep.b2, rep.b3, rep.euler) == (25, 12, 40)


def test_report_raises_when_the_charts_disagree(generic, monkeypatch):
    # the second call measures the randomly mixed chart
    real = nodalcy._chart_dimension
    calls = []

    def skewed(*args):
        calls.append(args)
        dim, *rest = real(*args)
        return (dim + 1 if len(calls) == 2 else dim, *rest)

    monkeypatch.setattr(nodalcy, "_chart_dimension", skewed)
    with pytest.raises(ExactAlgError, match="chart choice"):
        section_report(generic[0])
    assert len(calls) == 2


def test_report_builds_the_chart_generators_once(generic, monkeypatch):
    real = nodalcy._chart_generators
    calls = []

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(nodalcy, "_chart_generators", counted)
    assert section_report(generic[0]) == generic[1]
    assert calls == [generic[0].hyperplane]


def test_report_differentiates_each_quintic_once(generic, tangent, monkeypatch):
    # section_nodes and both charts share the ambient partials; a tangent
    # chart's Jacobian quintics serve its candidates, and the first chart's
    # also serve jac_rows
    real = MPoly.partials
    calls = []

    def counted(self):
        calls.append(self.nvars)
        return real(self)

    monkeypatch.setattr(MPoly, "partials", counted)
    for (spec, rep), want in ((generic, [6, 5]), (tangent, [6, 5, 5])):
        nodalcy._partials.cache_clear()
        calls.clear()
        assert section_report(spec) == rep
        assert calls == want


def test_generic_vanishing_space_contract(generic):
    _, rep = generic
    vs = rep.vanishing
    assert vs.degree == 5 and vs.nvars == 5
    assert vs.dim == 30
    assert vs.method == "candidates"
    assert len(vs.modular_ranks) == 2
    assert set(vs.modular_ranks.values()) == {96}


def test_tangent_vanishing_space_builds_no_object_array(tangent, monkeypatch):
    # the chart nodes' coordinates put the exact evaluation rows past 2^400;
    # the members are checked on residues mod enough primes, and neither
    # the products nor the eliminations see a Python-int array
    dtypes, primes = [], set()
    inside = []
    real_vs, real_mm, real_em = (nodalcy.vanishing_space, exactalg._int_matmul,
                                 exactalg._echelon_mod)
    real_rp = exactalg._residue_products

    def spied_vs(*args, **kwargs):
        inside.append(True)
        try:
            return real_vs(*args, **kwargs)
        finally:
            inside.pop()

    def spied_mm(rows, vecs):
        if inside:
            dtypes.extend(np.asarray(a).dtype for a in (rows, vecs))
        return real_mm(rows, vecs)

    def spied_em(rows, p):
        if inside:
            dtypes.append(np.asarray(rows).dtype)
        return real_em(rows, p)

    def spied_rp(rows, vecs, p):
        primes.add(p)
        return real_rp(rows, vecs, p)

    monkeypatch.setattr(nodalcy, "vanishing_space", spied_vs)
    monkeypatch.setattr(exactalg, "_int_matmul", spied_mm)
    monkeypatch.setattr(exactalg, "_echelon_mod", spied_em)
    monkeypatch.setattr(exactalg, "_residue_products", spied_rp)
    assert section_report(tangent[0]) == tangent[1]
    assert dtypes and object not in dtypes
    assert len(primes) > len(exactalg.SHADOW_PRIMES)


def test_tangent_report(tangent):
    _, rep = tangent
    assert rep.kind == "tangent"
    assert rep.node_count == 121
    assert rep.quintic_dim == 29
    assert rep.defect == 24
    assert rep.jacobian_rank == 25
    assert (rep.h11, rep.h21) == (25, 4)
    assert (rep.b2, rep.b3, rep.euler) == (25, 10, 42)


def test_report_internal_consistency(generic, tangent):
    for _, rep in (generic, tangent):
        assert rep.b2 == 1 + rep.defect
        assert rep.euler == 2 * rep.h11 - 2 * rep.h21
        assert rep.defect == rep.quintic_dim - 126 + rep.node_count
        assert not hasattr(rep, "b1")


def test_mixing_matrix_is_the_first_invertible_of_single_draws():
    # 25 values randint(-3, 3) per matrix, drawn again until it has rank 5 mod p0
    redrawn = 0
    for seed in range(300):
        a, b = random.Random(seed), random.Random(seed)
        while True:
            mat = [[b.randint(-3, 3) for _ in range(5)] for _ in range(5)]
            if exactalg.rank_mod(mat, exactalg.SHADOW_PRIMES[0]) == 5:
                break
            redrawn += 1
        assert nodalcy._mixing_matrix(a) == mat
        assert a.getstate() == b.getstate()
    assert redrawn
