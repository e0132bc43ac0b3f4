"""Combinatorics of the 27 lines, the Weyl group, and the P^5 geometry."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modgem import exactalg, lines27 as L
from modgem.exactalg import (
    ExactAlgError,
    MPoly,
    ProjLine,
    ProjPoint,
    checked_rank,
    proportional,
)
from modgem.rootarr import IncidenceTable, cached_incidence

from flat_records import Flat, table_flats
from fraction_rank import on_line


# -- meets relation ------------------------------------------------------------


def test_meets_examples():
    assert not L.meets("a1", "b1")
    assert L.meets("a1", "b2")
    assert not L.meets("a1", "a2")
    assert L.meets("a1", "c12")
    assert not L.meets("a1", "c23")
    assert L.meets("c12", "c34")
    assert not L.meets("c12", "c13")


def test_each_line_meets_ten():
    for lab in L.LINE_LABELS:
        assert sum(1 for m in L.LINE_LABELS if m != lab and L.meets(lab, m)) == 10


def test_meeting_and_skew_pair_counts():
    pairs = list(itertools.combinations(L.LINE_LABELS, 2))
    meeting = sum(1 for a, b in pairs if L.meets(a, b))
    assert len(pairs) == 351
    assert meeting == 135
    assert len(pairs) - meeting == 216


# -- classical structures --------------------------------------------------------


def test_structure_counts():
    st_ = L.enumerate_structures()
    assert st_.counts() == {
        "tritangents": 45,
        "double_sixes": 36,
        "trihedral_pairs": 120,
        "triads": 40,
        "syzygetic_pairs": 270,
        "azygetic_triples": 120,
    }
    assert len(st_.azygetic_pairs) == 360


def test_tritangent_contents():
    tri = L.tritangents()
    assert tri["(12)"] == {"a1", "b2", "c12"}
    assert tri["(12.34.56)"] == {"c12", "c34", "c56"}


def test_double_six_overlaps():
    n = L.ds_lines("N")
    assert len(n & L.ds_lines("N_12")) == 4      # syzygetic
    assert len(n & L.ds_lines("N_456")) == 6     # azygetic
    st_ = L.enumerate_structures()
    for name in st_.double_sixes:
        syz = sum(1 for p in st_.syzygetic_pairs if name in p)
        azy = sum(1 for p in st_.azygetic_pairs if name in p)
        assert (syz, azy) == (15, 20)


def test_trihedral_pair_line_kinds():
    st_ = L.enumerate_structures()
    kinds = {}
    for name, lines in st_.trihedral_pairs.items():
        key = tuple(sorted(lab[0] for lab in lines))
        kinds.setdefault("".join(key), []).append(name)
    assert len(kinds["ccccccccc"]) == 10
    assert len(kinds["aaabbbccc"]) == 20
    assert len(kinds["aabbccccc"]) == 90


def test_triads_partition_lines():
    st_ = L.enumerate_structures()
    for triad in st_.triads:
        union = frozenset().union(*(st_.trihedral_pairs[n] for n in triad))
        assert union == frozenset(L.LINE_LABELS)


def test_trihedral_pairs_are_keyed_by_their_triples_and_every_triad_is_found():
    st_ = L.enumerate_structures()
    pairs = st_.trihedral_pairs
    assert set(pairs) == set(st_.azygetic_triples)
    brute = {frozenset(combo) for combo in itertools.combinations(pairs, 3)
             if len(frozenset().union(*(pairs[t] for t in combo))) == 27}
    assert brute == set(st_.triads)


def test_tritangent_tables_act_as_the_line_action():
    # reference: each tritangent of a partition mapped line by line through
    # the 27-label permutation, then named by its three lines
    tri = L.tritangents()
    by_lines = {v: k for k, v in tri.items()}
    partitions = L.enneahedra().partitions
    gens = L.weyl_generators()[2]
    assert len(gens) == 6
    for perm in gens:
        table = L._tritangent_permutation(perm)
        assert sorted(table.values()) == sorted(tri)
        for part in partitions:
            lines_wise = frozenset(
                by_lines[frozenset(L.LINE_LABELS[perm[L.LINE_INDEX[l]]] for l in tri[name])]
                for name in part)
            assert frozenset(table[name] for name in part) == lines_wise


def test_enneahedra_census():
    rep = L.enneahedra()
    assert len(rep.partitions) == 200
    assert rep.orbit_sizes == (40, 160)
    assert rep.triad_statistic == {1: 160, 4: 40}
    tri = L.tritangents()
    for part in rep.partitions:
        assert len(part) == 9
        covered = list(itertools.chain.from_iterable(tri[n] for n in part))
        assert len(covered) == 27 and len(set(covered)) == 27


# -- coordinates and duality ------------------------------------------------------


def test_form_inventories():
    t = L.coordinate_tables()
    assert len(t.root_forms) == 36
    assert len(t.weight_forms) == 27
    assert set(t.weight_forms) == set(L.LINE_LABELS)


def test_weight_sum_identities():
    t = L.coordinate_tables()
    suma = sum(
        (t.weight_forms[f"a{i}"] for i in range(1, 7)), MPoly.zero(6))
    sumb = sum(
        (t.weight_forms[f"b{i}"] for i in range(1, 7)), MPoly.zero(6))
    assert suma == t.root_forms["h"] * Fraction(-3)
    assert sumb == t.root_forms["h"] * Fraction(3)
    third = suma * Fraction(1, 3)
    for i in range(1, 7):
        assert t.weight_forms[f"b{i}"] == t.weight_forms[f"a{i}"] - third


def pairing_scalar(form: MPoly, dual: Sequence[Fraction]) -> Optional[Fraction]:
    """The scalar c with I2(dual, -) = c·form, or None when not proportional."""
    paired = MPoly.linear(list(dual[:5]) + [Fraction(dual[5]) / 3])
    return proportional(paired, form)


def test_pairing_scalars():
    t = L.coordinate_tables()
    halves = 0
    for name, form in t.root_forms.items():
        s = pairing_scalar(form, t.root_duals[name])
        assert s in (Fraction(1), Fraction(1, 2))
        halves += s == Fraction(1, 2)
    assert halves == 20  # the integer-coefficient pair and 1jk families
    for name, form in t.weight_forms.items():
        assert pairing_scalar(form, t.weight_duals[name]) == 1


def test_tritangent_form_sums_vanish():
    # a_i + b_j + c_ij is identically zero for the coordinate realization
    t = L.coordinate_tables()
    for i, j in itertools.permutations(range(1, 7), 2):
        c = f"c{min(i,j)}{max(i,j)}"
        total = t.weight_forms[f"a{i}"] + t.weight_forms[f"b{j}"] + t.weight_forms[c]
        assert total.is_zero()


# -- reflections and the Weyl group -------------------------------------------------


def test_reflection_involution_and_invariance():
    # the generators are stored as 4M: (4M)^2 = 16 I and I2(4Mx) = 16 I2(x)
    t = L.coordinate_tables()
    names, mats, perms = L.weyl_generators()
    for mat in mats:
        square = tuple(
            tuple(sum(mat[i][k] * mat[k][j] for k in range(6)) for j in range(6))
            for i in range(6)
        )
        assert all(square[i][j] == (16 if i == j else 0)
                   for i in range(6) for j in range(6))
        pulled = t.killing.subs([MPoly.linear(row) for row in mat])
        assert pulled == t.killing * 16


def test_generator_matrices_are_integral_at_scale_four():
    # 4M is integral for every root; among the generators only h12's 4M has
    # an entry that 4 does not divide, which is why the scale is 4
    assert L.WEYL_SCALE == 4
    for root in L.coordinate_tables().root_forms:
        assert all(type(v) is int for row in L.reflection_matrix(root) for v in row)
    names, mats, _ = L.weyl_generators()
    off_scale = [name for name, mat in zip(names, mats)
                 if any(v % 4 for row in mat for v in row)]
    assert off_scale == ["h12"]
    h12 = dict(zip(names, mats))["h12"]
    assert {abs(v) for row in h12 for v in row} == {1, 3}


def test_generator_perms_preserve_meets():
    for perm in L.weyl_generators()[2]:
        assert L.check_meets_preserved(perm)


def root_action_from_matrix(mat: L.IntMatrix, scale: int) -> dict[str, tuple[str, int]]:
    """Signed permutation induced on the 36 root forms by mat / scale."""
    tables = L.coordinate_tables()
    out = {}
    for name, f in tables.root_forms.items():
        img = f.subs([MPoly.linear(row) for row in mat])
        for name2, g in tables.root_forms.items():
            c = proportional(img, g)
            if c is not None:
                if c not in (scale, -scale):
                    raise ExactAlgError(f"root image off by scalar {c / scale}")
                out[name] = (name2, int(c) // scale)
                break
        else:
            raise ExactAlgError(f"image of root form {name} is not a root form")
    return out


def root_label(subset: frozenset[int]) -> str:
    if subset == frozenset(L.SIX):
        return "h"
    return "h" + "".join(str(i) for i in sorted(subset))


def action_table_rule(reflection: str, target: str) -> str:
    """The classical description of how s_J acts on the root form h_K.

    Encoding h as the full index set, a reflection sends K to the symmetric
    difference K^J whenever that lands on a legal label size (2, 3, or 6)
    and fixes the form otherwise; this reproduces the published table of
    sixteen cases verbatim.
    """
    j_set = frozenset(L.SIX) if reflection == "h" else frozenset(int(c) for c in reflection[1:])
    k_set = frozenset(L.SIX) if target == "h" else frozenset(int(c) for c in target[1:])
    diff = j_set ^ k_set
    if len(diff) in (2, 3, 6):
        return root_label(diff)
    return target


def test_action_table_rule_against_matrices():
    names, mats, _ = L.weyl_generators()
    for name, mat in zip(names, mats):
        derived = root_action_from_matrix(mat, L.WEYL_SCALE)
        for target, (image, sign) in derived.items():
            assert action_table_rule(name, target) == image
            assert sign in (1, -1)


def test_action_table_examples():
    assert action_table_rule("h123", "h") == "h456"
    assert action_table_rule("h12", "h23") == "h13"
    assert action_table_rule("h", "h123") == "h456"
    assert action_table_rule("h12", "h12") == "h12"  # sign flip, same form
    assert action_table_rule("h45", "h123") == "h123"


def test_action_table_involution():
    for refl in L.coordinate_tables().root_forms:
        for target in L.coordinate_tables().root_forms:
            once = action_table_rule(refl, target)
            assert action_table_rule(refl, once) == target


def _label_moves():
    return [lambda label, g=g: L.LINE_LABELS[g[L.LINE_INDEX[label]]]
            for g in L.weyl_group().generators]


def _set_moves():
    return [lambda labels, move=move: frozenset(map(move, labels)) for move in _label_moves()]


def test_weyl_group_order_and_transitivity():
    assert L.weyl_group().order == 51840
    assert [len(o) for o in L.orbit_partition(["a1"], _label_moves())] == [27]


def _closure(gens):
    """Every element of the group the permutations generate, by breadth-first closure."""
    return L.orbit_partition([L.IDENTITY27], [partial(L.compose, g) for g in gens])[0]


@pytest.fixture(scope="session")
def weyl_closure():
    return _closure(L.weyl_group().generators)


def test_closure_oracle_matches_chain_order(weyl_closure):
    assert len(weyl_closure) == 51840 == L.weyl_group().order


def test_weyl_group_lists_no_element():
    # listing the 51,840 elements takes a traced peak of about 7.9 MB; the
    # stabilizer chain needs a few kB
    L.weyl_generators()
    L.weyl_group.cache_clear()
    tracemalloc.start()
    try:
        order = L.weyl_group().order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == 51840
    assert peak < 2 ** 20


def _moving(points, images):
    """The permutation of 0..26 sending points[i] to images[i], fixing the rest."""
    perm = bytearray(L.IDENTITY27)
    for p, q in zip(points, images):
        perm[p] = q
    return bytes(perm)


@st.composite
def _small_generator_sets(draw):
    """Up to four permutations of one set of at most 7 of the 27 points,
    identities and repeats allowed."""
    points = draw(st.lists(st.integers(min_value=0, max_value=26), max_size=7, unique=True))
    perms = st.permutations(points).map(partial(_moving, points))
    gens = draw(st.lists(perms, max_size=4))
    return gens + draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else gens


_SWAP = _moving((0, 1), (1, 0))


@settings(max_examples=80, deadline=None)
@given(_small_generator_sets())
@example([])
@example([L.IDENTITY27])
@example([_SWAP, _SWAP])
@example([_SWAP, L.IDENTITY27, _moving((0, 1, 2), (1, 2, 0)), _SWAP])
def test_chain_order_is_the_closure_size(gens):
    assert L.stabilizer_chain_order(gens) == len(_closure(gens))


def test_weyl_orbits_on_structures():
    st_ = L.enumerate_structures()
    tri_orbits = L.orbit_partition(st_.tritangents.values(), _set_moves())
    assert sorted(len(o) for o in tri_orbits) == [45]
    ds_orbits = L.orbit_partition((L.ds_lines(n) for n in st_.double_sixes), _set_moves())
    assert sorted(len(o) for o in ds_orbits) == [36]


def _cycles(perm):
    cycles = set()
    for start in range(len(perm)):
        cycle, i = {start}, perm[start]
        while i != start:
            cycle.add(i)
            i = perm[i]
        cycles.add(frozenset(cycle))
    return cycles


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40).flatmap(lambda n: st.permutations(list(range(n)))))
def test_orbit_partition_of_one_permutation_is_its_cycles(perm):
    orbits = L.orbit_partition(range(len(perm)), [perm.__getitem__])
    assert len(orbits) == len(set(orbits))
    assert set(orbits) == _cycles(perm)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8))
def test_random_words_stay_in_group(weyl_closure, word):
    gens = L.weyl_group().generators
    perm = L.IDENTITY27
    for k in word:
        perm = L.compose(gens[k], perm)
    assert perm in weyl_closure
    assert L.check_meets_preserved(perm)


def _word_product(word):
    """The product of the word's stored generators, 4^len(word) times its matrix."""
    mats = L.weyl_generators()[1]
    mat = mats[word[0]]
    for k in word[1:]:
        mat = tuple(
            tuple(sum(mat[i][m] * mats[k][m][j] for m in range(6)) for j in range(6))
            for i in range(6)
        )
    return mat


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10))
def test_word_matrix_permutes_as_composed_generators(word):
    perms = L.weyl_generators()[2]
    perm = perms[word[0]]
    for k in word[1:]:
        perm = L.compose(perms[k], perm)
    assert L.perm27_from_matrices([_word_product(word)], [L.WEYL_SCALE ** len(word)]) == [perm]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=10),
       st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5),
       st.integers(min_value=-64, max_value=64).filter(bool))
def test_changed_word_entry_is_not_read_as_a_permutation(word, i, j, delta):
    # either an image is not divisible by the scale, or its quotient is not a weight form
    rows = [list(r) for r in _word_product(word)]
    rows[i][j] += delta
    with pytest.raises(ExactAlgError):
        L.perm27_from_matrices([rows], [L.WEYL_SCALE ** len(word)])


# -- special loci -------------------------------------------------------------------


def test_special_loci_counts():
    loci = L.special_loci()
    assert len(L.coordinate_tables().root_forms) == 36
    assert len(loci.root_points) == 36
    assert len(loci.weight_points) == 27
    assert len(loci.lines120) == 120
    assert len(loci.lines216) == 216
    assert len(loci.lines45) == 45
    assert loci.spanning_triples == 40
    # the dual points of each azygetic triple's root forms are the three root
    # points on one of the 120 lines
    triples = {_root_forms(triple) for triple in L.enumerate_structures().azygetic_triples}
    assert len(triples) == 120
    assert triples == set(loci.points120)


def _root_forms(triple):
    """The three root forms an azygetic triple of double sixes names."""
    return frozenset("h" + n[2:] if n != "N" else "h" for n in triple)


def _pair_scan_lines():
    """Reference: the 120, 45 and 216 lines by a scan of point pairs, each new
    line kept when `on_line` finds 3 root points on it (root pairs),
    or 3 weight points, or 2 weight points and 1 root point (weight pairs)."""
    loci = L.special_loci()
    roots, weights = loci.root_points, loci.weight_points
    lines120, lines45, lines216 = {}, {}, {}
    for n1, n2 in itertools.combinations(sorted(roots), 2):
        line = ProjLine(roots[n1], roots[n2])
        if line.key not in lines120:
            on = frozenset(n for n, p in roots.items() if on_line(line, p))
            if len(on) == 3:
                lines120[line.key] = (line, on)
    for n1, n2 in itertools.combinations(sorted(weights), 2):
        line = ProjLine(weights[n1], weights[n2])
        if line.key in lines45 or line.key in lines216:
            continue
        profile = (sum(on_line(line, p) for p in weights.values()),
                   sum(on_line(line, p) for p in roots.values()))
        {(3, 0): lines45, (2, 1): lines216}[profile][line.key] = line
    return lines120.values(), lines45.values(), lines216.values()


def test_special_lines_match_the_pair_scan_in_order_and_spanning_pairs():
    loci = L.special_loci()
    lines120, lines45, lines216 = _pair_scan_lines()

    def pairs(lines):
        return [(line.p, line.q) for line in lines]

    assert pairs(loci.lines120) == pairs(line for line, _ in lines120)
    assert list(loci.points120) == [on for _, on in lines120]
    assert pairs(loci.lines45) == pairs(lines45)
    assert pairs(loci.lines216) == pairs(lines216)


def _grouped_by_line_key(loci):
    """Reference: the 1,953 pairs of the 63 points, weight points then root
    points, each sorted by name, grouped by `ProjLine(p, q).key`, each line
    kept as the `ProjLine` of its first pair; the (3,0), (1,2) and (0,3)
    lines with the root points on each (3,0) line."""
    named = [(n, loci.weight_points[n]) for n in sorted(loci.weight_points)]
    named += [(n, loci.root_points[n]) for n in sorted(loci.root_points)]
    through = {}
    for (n1, p1), (n2, p2) in itertools.combinations(named, 2):
        line = ProjLine(p1, p2)
        through.setdefault(line.key, (line, set()))[1].update((n1, n2))
    by_census = {}
    for line, on in through.values():
        roots = sum(n in loci.root_points for n in on)
        by_census.setdefault((roots, len(on) - roots), []).append((line, frozenset(on)))
    return by_census[3, 0], by_census[1, 2], by_census[0, 3]


def test_plucker_grouping_matches_the_line_key_grouping():
    loci = L.special_loci()
    want120, want216, want45 = _grouped_by_line_key(loci)

    def spans(lines):
        return [(line.p, line.q, line.key) for line in lines]

    assert spans(loci.lines120) == spans(line for line, _ in want120)
    assert list(loci.points120) == [on for _, on in want120]
    assert spans(loci.lines216) == spans(line for line, _ in want216)
    assert spans(loci.lines45) == spans(line for line, _ in want45)


def test_special_loci_builds_only_the_lines_it_keeps(monkeypatch):
    built = []

    def counted(p, q):
        built.append((p, q))
        return ProjLine(p, q)

    monkeypatch.setattr(L, "ProjLine", counted)
    L.special_loci.__wrapped__()
    assert len(built) == 120 + 216 + 45 == 381


@pytest.mark.parametrize("top, match", [(2 ** 31 - 1, "line census"), (2 ** 31, "Plücker")])
def test_special_loci_checks_the_plucker_bound(monkeypatch, top, match):
    # the minors a_i b_j - a_j b_i are exact in int64 while 2 top^2 < 2^63,
    # that is top < 2^31: one coordinate below the bound moves a point off
    # the census, one at the bound raises before any minor is taken
    tables = L.coordinate_tables()
    moved = {**tables.weight_duals, "a1": tuple(map(Fraction, (top, 1, 0, 0, 0, 0)))}
    monkeypatch.setattr(L, "coordinate_tables",
                        lambda: dataclasses.replace(tables, weight_duals=moved))
    with pytest.raises(ExactAlgError, match=match):
        L.special_loci.__wrapped__()


def test_orthogonal_a2s_match_the_i2_pairing():
    # I2 pairs duals as u1v1 + .. + u5v5 + u6v6/3; each A2 of three root
    # points is orthogonal to exactly two others, orthogonal to each other,
    # and the 40 triangles are the triads, one line per trihedral pair
    loci = L.special_loci()
    pts = {n: p.coords for n, p in loci.root_points.items()}
    zero = {(a, b) for a, u in pts.items() for b, v in pts.items()
            if sum(x * y for x, y in zip(u[:5], v[:5])) + Fraction(u[5] * v[5], 3) == 0}
    a2s = loci.points120
    partners = [[j for j, other in enumerate(a2s)
                 if all((a, b) in zero for a in mine for b in other)] for mine in a2s]
    assert all(len(pair) == 2 for pair in partners)
    assert all(k in partners[j] for j, k in partners)
    triangles = {frozenset(a2s[k] for k in (i, *pair)) for i, pair in enumerate(partners)}
    assert len(triangles) == loci.spanning_triples == 40
    triads = L.enumerate_structures().triads
    assert triangles == {frozenset(map(_root_forms, triad)) for triad in triads}


@pytest.mark.parametrize("field, name", [("weight_duals", "a1"), ("root_duals", "h")])
def test_special_loci_raises_on_a_wrong_line_census(monkeypatch, field, name):
    # one point moved to a general position: the lines through it no longer
    # have the census of LINE_CENSUS
    tables = L.coordinate_tables()
    moved = {**getattr(tables, field), name: tuple(map(Fraction, (1, 2, 3, 5, 7, 11)))}
    monkeypatch.setattr(L, "coordinate_tables",
                        lambda: dataclasses.replace(tables, **{field: moved}))
    with pytest.raises(ExactAlgError, match="line census"):
        L.special_loci.__wrapped__()


def test_special_loci_raises_when_an_a2_loses_a_partner(monkeypatch):
    # a nonzero Gram entry where I2 vanishes breaks one orthogonal pair
    gram = L._int_matmul

    def broken(rows, vecs):
        out = gram(rows, vecs).copy()
        i, j = map(int, np.argwhere(out == 0)[0])
        out[i, j] = out[j, i] = 1
        return out

    monkeypatch.setattr(L, "_int_matmul", broken)
    with pytest.raises(ExactAlgError, match="orthogonal to exactly two"):
        L.special_loci.__wrapped__()


def test_special_loci_is_the_same_under_any_hash_seed():
    # string hashes decide the iteration order of sets of names; every field
    # of the table must come out the same under any PYTHONHASHSEED
    script = textwrap.dedent("""
        import dataclasses
        from modgem.lines27 import special_loci

        def canon(v):
            if isinstance(v, frozenset):
                return sorted(v)
            if isinstance(v, tuple):
                return [canon(x) for x in v]
            if isinstance(v, dict):
                return [(k, canon(x)) for k, x in v.items()]
            return v

        loci = special_loci()
        for field in dataclasses.fields(loci):
            print(field.name, repr(canon(getattr(loci, field.name))))
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for seed in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed})
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == len(dataclasses.fields(L.SpecialLoci))


def test_points120_are_the_root_points_on_each_line():
    loci = L.special_loci()
    assert len(loci.points120) == 120
    for line, on in zip(loci.lines120, loci.points120):
        assert on == {n for n, p in loci.root_points.items() if on_line(line, p)}
        assert len(on) == 3


def test_collinear_a2_example():
    # the dual points of an A2 triple of root forms lie on one line
    loci = L.special_loci()
    h12, h23, h13 = (loci.root_points[n] for n in ("h12", "h23", "h13"))
    assert checked_rank([list(h12.coords), list(h23.coords), list(h13.coords)]) == 2
    line = ProjLine(h12, h23)
    assert on_line(line, h13)


def test_line_through_two_weight_points_hits_a_root_point():
    loci = L.special_loci()
    line = ProjLine(loci.weight_points["a1"], loci.weight_points["a2"])
    assert on_line(line, loci.root_points["h12"])
    assert any(line.key == l.key for l in loci.lines216)


def test_line_of_a_tritangent_triple():
    loci = L.special_loci()
    line = ProjLine(loci.weight_points["a1"], loci.weight_points["b2"])
    assert on_line(line, loci.weight_points["c12"])
    assert any(line.key == l.key for l in loci.lines45)


def flats_of_dim(table: IncidenceTable, j: int) -> list[Flat]:
    return [f for f in table_flats(table) if f.dim == j]


def test_census_points_match_dual_points():
    table = cached_incidence("E", 6)
    loci = L.special_loci()
    pts20 = {ProjPoint(f.basis[0])
             for f in flats_of_dim(table, 0) if f.q == 20}
    pts15 = {ProjPoint(f.basis[0])
             for f in flats_of_dim(table, 0) if f.q == 15}
    assert pts20 == set(loci.weight_points.values())
    assert pts15 == set(loci.root_points.values())


def test_census_lines_match_120():
    table = cached_incidence("E", 6)
    loci = L.special_loci()
    keys6 = set()
    for f in flats_of_dim(table, 1):
        if f.q == 6:
            b = f.basis
            keys6.add(ProjLine(ProjPoint(b[0]), ProjPoint(b[1])).key)
    assert keys6 == {l.key for l in loci.lines120}


# -- vanishing ideals and incidence complexes -----------------------------------------


def test_macdonald_dimensions_and_memberships():
    rep = L.macdonald_membership()
    assert rep.dims == {
        "cubics_on_36_points": 20,
        "cubics_on_27_points": 30,
        "quartics_on_45_lines": 15,
        "sextics_on_216_lines": 24,
    }
    assert all(rep.memberships.values())
    for ranks in rep.modular_ranks.values():
        assert len(ranks) == 2  # two independent prime shadows agreed


def _forms_on_lines():
    """For each of the 120 lines, the cleared root forms that vanish at both
    spanning points, in the order of the root forms."""
    forms = [exactalg._clear_row(f.linear_coeffs())
             for f in L.coordinate_tables().root_forms.values()]
    return [[w for w in forms
             if not any(sum(a * b for a, b in zip(w, pt.coords)) for pt in (line.p, line.q))]
            for line in L.special_loci().lines120]


def test_a2a2_products_are_the_products_of_the_forms_vanishing_on_each_line():
    want = []
    for on in _forms_on_lines():
        assert len(on) == 6
        prod = MPoly.constant(6, 1)
        for w in on:
            prod = prod * MPoly.linear(w)
        want.append(prod)
    assert L._a2a2_products() == want


@pytest.mark.parametrize("k", [348, 349])
def test_a2a2_products_check_the_int64_bound(monkeypatch, k):
    # a line's bound is the product of its six forms' sums |w_i|, at most
    # 5184 = 6^4 2^2; with every cleared root form scaled by k the largest
    # is 5184 k^6, below 2^63 at k = 348 and at or past it at k = 349; on
    # both sides the products are exact, k^6 times the unscaled ones
    assert max(math.prod(sum(map(abs, w)) for w in on) for on in _forms_on_lines()) == 5184
    assert 5184 * 348 ** 6 < 2 ** 63 <= 5184 * 349 ** 6
    tables = L.coordinate_tables()
    want = L._a2a2_products()
    scaled = {n: MPoly.linear([k * c for c in exactalg._clear_row(f.linear_coeffs())])
              for n, f in tables.root_forms.items()}
    monkeypatch.setattr(L, "coordinate_tables",
                        lambda: dataclasses.replace(tables, root_forms=scaled))
    assert L._a2a2_products() == [p * k ** 6 for p in want]


def test_sextic_system_is_evaluated_one_block_at_a_time(monkeypatch):
    # each of the 1,070 distinct rows of the 1,512-row system is evaluated
    # and checked once, one block (one parameter of every line, without the
    # rows seen before) at a time, never all at once; the first prime
    # eliminates the first three blocks' 458 rows in one call and reaches
    # 462 - 24 = 438 there; every row is evaluated on residues mod primes,
    # never as an exact row
    sizes, eliminated, primes = [], [], []
    evaluated, pivot_rows = exactalg._evaluated, exactalg._pivot_rows

    def spy(exps, coords, p=0):
        primes.append(p)
        if p == exactalg.SHADOW_PRIMES[0]:
            sizes.append(len(coords))
        return evaluated(exps, coords, p)

    def pivot_spy(rows, p):
        if p == exactalg.SHADOW_PRIMES[0]:
            eliminated.append(len(rows))
        return pivot_rows(rows, p)

    monkeypatch.setattr(exactalg, "_evaluated", spy)
    monkeypatch.setattr(exactalg, "_pivot_rows", pivot_spy)
    cands = L._a2a2_products()
    vs = exactalg.vanishing_space(6, 6, lines=L.special_loci().lines216, candidates=cands)
    assert (vs.dim, sizes) == (24, [26, 216, 216, 216, 213, 182, 1])
    assert sum(sizes) == 1070
    assert 0 not in primes
    # the first call thins the 120 candidates
    assert eliminated == [len(cands), 458]
    assert vs.modular_ranks == {p: 438 for p in exactalg.SHADOW_PRIMES}


def test_incidence_complex_ranks():
    r = L.incidence_complex_ranks()
    assert r.tritangent_line == {
        "rows": 45, "cols": 27, "rank": 21, "kernel": 24, "cokernel": 6}
    assert r.segre_hyperplane_plane == {
        "rows": 15, "cols": 15, "rank": 10, "kernel": 5, "cokernel": 5}
