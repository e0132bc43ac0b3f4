"""The 27 lines: incidence combinatorics, W(E6), coordinates, rank checks.

Labels follow Schläfli: a_1..a_6, b_1..b_6, c_ij. Everything combinatorial
(tritangents, double sixes, trihedral pairs, triads, enneahedra) is
enumerated from the meets relation and then reconciled against the classical
named lists, so a transcription slip on either side cannot survive.

The Weyl group enters twice: as 6x6 rational reflection matrices built from
the root forms and their Killing-dual vectors, and as the permutation group
of the 27 labels those matrices induce on the weight forms. The permutations
are never hand-coded; they are read off the matrix action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .exactalg import (
    ExactAlgError,
    MPoly,
    ProjLine,
    ProjPoint,
    checked_rank,
    det_bareiss,
    proportional,
    rank_exact,
    rref_int,
    vanishing_space,
)

SIX = (1, 2, 3, 4, 5, 6)


# -- labels and the meets relation ------------------------------------------------


def line_labels() -> tuple[str, ...]:
    labels = [f"a{i}" for i in SIX] + [f"b{i}" for i in SIX]
    labels += [f"c{i}{j}" for i, j in itertools.combinations(SIX, 2)]
    return tuple(labels)


LINE_LABELS = line_labels()
LINE_INDEX = {lab: k for k, lab in enumerate(LINE_LABELS)}


def _kind(label: str) -> tuple[str, frozenset[int]]:
    return label[0], frozenset(int(ch) for ch in label[1:])


def meets(l1: str, l2: str) -> bool:
    """Whether two of the 27 lines intersect."""
    if l1 == l2:
        raise ExactAlgError("meets is defined for distinct labels")
    k1, s1 = _kind(l1)
    k2, s2 = _kind(l2)
    if k1 > k2:
        k1, s1, k2, s2 = k2, s2, k1, s1
    if k1 == k2:
        if k1 == "c":
            return not (s1 & s2)
        return False  # a_i/a_j and b_i/b_j are skew
    if (k1, k2) == ("a", "b"):
        return s1 != s2
    # a or b against c
    return bool(s1 & s2)


@lru_cache(maxsize=1)
def meets_matrix() -> tuple[tuple[bool, ...], ...]:
    return tuple(
        tuple(False if i == j else meets(LINE_LABELS[i], LINE_LABELS[j])
              for j in range(27))
        for i in range(27)
    )


# -- named structures --------------------------------------------------------------


def _csort(i: int, j: int) -> str:
    return f"c{min(i, j)}{max(i, j)}"


@lru_cache(maxsize=1)
def tritangents() -> dict[str, frozenset[str]]:
    """The 45 tritangent planes as triples of line labels."""
    out: dict[str, frozenset[str]] = {}
    for i, j in itertools.permutations(SIX, 2):
        out[f"({i}{j})"] = frozenset({f"a{i}", f"b{j}", _csort(i, j)})
    for part in _pair_partitions():
        name = "(" + ".".join(f"{i}{j}" for i, j in part) + ")"
        out[name] = frozenset(_csort(i, j) for i, j in part)
    if len(out) != 45:
        raise ExactAlgError("tritangent enumeration broke")
    return out


def _pair_partitions() -> list[tuple[tuple[int, int], ...]]:
    """The 15 partitions of {1..6} into three pairs, canonically ordered."""
    parts = []

    def rec(rest: tuple[int, ...], acc):
        if not rest:
            parts.append(tuple(acc))
            return
        first = rest[0]
        for other in rest[1:]:
            pair = (first, other)
            rec(tuple(x for x in rest[1:] if x != other), acc + [pair])

    rec(SIX, [])
    return parts


@lru_cache(maxsize=1)
def double_sixes() -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
    """The 36 double sixes as ordered row pairs; rows are mutually skew sixes."""
    out = {}
    out["N"] = (tuple(f"a{i}" for i in SIX), tuple(f"b{i}" for i in SIX))
    for i, j in itertools.combinations(SIX, 2):
        rest = [k for k in SIX if k not in (i, j)]
        row1 = (f"a{i}", f"b{i}") + tuple(_csort(j, k) for k in rest)
        row2 = (f"a{j}", f"b{j}") + tuple(_csort(i, k) for k in rest)
        out[f"N_{i}{j}"] = (row1, row2)
    for i, j, k in itertools.combinations(SIX, 3):
        l, m, n = (x for x in SIX if x not in (i, j, k))
        row1 = (f"a{i}", f"a{j}", f"a{k}", _csort(m, n), _csort(l, n), _csort(l, m))
        row2 = (_csort(j, k), _csort(i, k), _csort(i, j), f"b{l}", f"b{m}", f"b{n}")
        out[f"N_{i}{j}{k}"] = (row1, row2)
    if len(out) != 36:
        raise ExactAlgError("double six enumeration broke")
    mm = meets_matrix()
    for name, (r1, r2) in out.items():
        for (p1, l1), (p2, l2) in itertools.combinations(
                [(pos, l) for pos, l in enumerate(r1)] +
                [(pos, l) for pos, l in enumerate(r2)], 2):
            same_row = (l1 in r1) == (l2 in r1)
            expect = (not same_row) and p1 != p2
            if mm[LINE_INDEX[l1]][LINE_INDEX[l2]] != expect:
                raise ExactAlgError(f"double six {name} violates the meets pattern")
    return out


def ds_lines(name: str) -> frozenset[str]:
    r1, r2 = double_sixes()[name]
    return frozenset(r1) | frozenset(r2)


@lru_cache(maxsize=1)
def sixes() -> list[frozenset[str]]:
    """All 72 sixes: 6-element sets of mutually skew lines."""
    mm = meets_matrix()
    found: list[frozenset[str]] = []

    def rec(start: int, acc: list[int]):
        if len(acc) == 6:
            found.append(frozenset(LINE_LABELS[i] for i in acc))
            return
        for i in range(start, 27):
            if all(not mm[i][j] for j in acc):
                rec(i + 1, acc + [i])

    rec(0, [])
    return found


@dataclass(frozen=True)
class Structures:
    """Complete combinatorial inventory derived from the meets relation."""

    tritangents: dict[str, frozenset[str]]
    double_sixes: dict[str, frozenset[str]]
    syzygetic_pairs: frozenset[frozenset[str]]
    azygetic_pairs: frozenset[frozenset[str]]
    azygetic_triples: frozenset[frozenset[str]]
    trihedral_pairs: dict[str, frozenset[str]]
    azygetic_by_name: dict[str, frozenset[str]]
    triads: frozenset[frozenset[str]]

    def counts(self) -> dict[str, int]:
        return {
            "tritangents": len(self.tritangents),
            "double_sixes": len(self.double_sixes),
            "trihedral_pairs": len(self.trihedral_pairs),
            "triads": len(self.triads),
            "syzygetic_pairs": len(self.syzygetic_pairs),
            "azygetic_triples": len(self.azygetic_triples),
        }


def _trihedral_name(triple: frozenset[str]) -> str:
    """Canonical name of the azygetic triple / its trihedral pair."""
    names = sorted(triple)
    if "N" in triple:
        triples = sorted(n[2:] for n in names if n != "N")
        return "{%s}" % min(triples)
    subs = [n[2:] for n in names]
    if all(len(s) == 2 for s in subs):
        merged = sorted(set(int(c) for s in subs for c in s))
        return "{%d%d.%d%d}" % (merged[0], merged[1], merged[1], merged[2])
    pair = next(s for s in subs if len(s) == 2)
    other = sorted(set(int(c) for s in subs if len(s) == 3 for c in s)
                   - set(int(c) for c in pair))
    return "{%s.%d%d}" % (pair, other[0], other[1])


@lru_cache(maxsize=1)
def enumerate_structures() -> Structures:
    """Tritangents, double sixes, and everything built from their incidences.

    Tritangents are re-derived as the mutually-meeting triples (there are
    exactly 45, one per meeting pair of lines); double sixes are re-derived
    by pairing the 72 sixes; the named classical lists must coincide with
    both enumerations or construction fails.
    """
    mm = meets_matrix()
    tri = tritangents()
    mutually_meeting = set()
    for i, j, k in itertools.combinations(range(27), 3):
        if mm[i][j] and mm[i][k] and mm[j][k]:
            mutually_meeting.add(frozenset({LINE_LABELS[i], LINE_LABELS[j], LINE_LABELS[k]}))
    if mutually_meeting != set(tri.values()):
        raise ExactAlgError("mutually meeting triples differ from the 45 tritangents")

    named = {name: ds_lines(name) for name in double_sixes()}
    six_list = sixes()
    if len(six_list) != 72:
        raise ExactAlgError(f"expected 72 sixes, found {len(six_list)}")
    paired = set()
    for s in six_list:
        partner_lines = [
            l for l in LINE_LABELS
            if l not in s and sum(1 for x in s if meets(l, x)) == 5
        ]
        if len(partner_lines) != 6:
            raise ExactAlgError("a six lacks a unique partner")
        paired.add(frozenset(s | frozenset(partner_lines)))
    if paired != set(named.values()) or len(paired) != 36:
        raise ExactAlgError("paired sixes differ from the 36 named double sixes")

    ds_names = sorted(named)
    syz, azy = set(), set()
    for d1, d2 in itertools.combinations(ds_names, 2):
        common = len(named[d1] & named[d2])
        if common == 4:
            syz.add(frozenset({d1, d2}))
        elif common == 6:
            azy.add(frozenset({d1, d2}))
        else:
            raise ExactAlgError(f"double sixes {d1},{d2} share {common} lines")

    # a trihedral pair arises from a pairwise azygetic triple whose three
    # double sixes jointly cover 18 distinct lines (disjoint overlaps)
    az_adj: dict[str, set[str]] = {n: set() for n in ds_names}
    for pair in azy:
        d1, d2 = tuple(pair)
        az_adj[d1].add(d2)
        az_adj[d2].add(d1)
    triples = set()
    for d1 in ds_names:
        for d2, d3 in itertools.combinations(sorted(az_adj[d1]), 2):
            if d3 in az_adj[d2] and len(named[d1] | named[d2] | named[d3]) == 18:
                triples.add(frozenset({d1, d2, d3}))

    all_lines = frozenset(LINE_LABELS)
    trihedral: dict[str, frozenset[str]] = {}
    by_name: dict[str, frozenset[str]] = {}
    for triple in triples:
        covered = frozenset().union(*(named[d] for d in triple))
        residual = all_lines - covered
        if len(residual) != 9:
            raise ExactAlgError("azygetic triple does not leave nine residual lines")
        inside = [t for t, lines in tri.items() if lines <= residual]
        if len(inside) != 6:
            raise ExactAlgError("trihedral pair must contain exactly six tritangents")
        for line in residual:
            if sum(1 for t in inside if line in tri[t]) != 2:
                raise ExactAlgError("trihedral pair lines must lie on two tritangents each")
        name = _trihedral_name(triple)
        trihedral[name] = residual
        by_name[name] = triple
    if len(trihedral) != len(triples):
        raise ExactAlgError("trihedral pair naming collision")

    tp_names = sorted(trihedral)
    triads = set()
    for n1 in tp_names:
        for n2 in tp_names:
            if n2 <= n1 or trihedral[n1] & trihedral[n2]:
                continue
            rest = all_lines - trihedral[n1] - trihedral[n2]
            for n3 in tp_names:
                if n3 > n2 and trihedral[n3] == rest:
                    triads.add(frozenset({n1, n2, n3}))
    return Structures(tri, named, frozenset(syz), frozenset(azy), frozenset(triples),
                      trihedral, by_name, frozenset(triads))


# -- enneahedra ---------------------------------------------------------------------


def _exact_cover(items: Sequence[str], sets: dict[str, frozenset[str]]) -> list[frozenset[str]]:
    """All exact covers of items by the given sets (Algorithm X)."""
    item_to_sets: dict[str, set[str]] = {it: set() for it in items}
    for name, content in sets.items():
        for it in content:
            item_to_sets[it].add(name)
    solutions: list[frozenset[str]] = []
    chosen: list[str] = []
    uncovered = set(items)

    def rec():
        if not uncovered:
            solutions.append(frozenset(chosen))
            return
        pivot = min(uncovered, key=lambda it: len(item_to_sets[it] & live))
        for name in sorted(item_to_sets[pivot] & live):
            content = sets[name]
            removed = [s for s in live if sets[s] & content]
            for s in removed:
                live.discard(s)
            uncovered.difference_update(content)
            chosen.append(name)
            rec()
            chosen.pop()
            uncovered.update(content)
            live.update(removed)

    live = set(sets)
    rec()
    return solutions


@dataclass(frozen=True)
class EnneahedraReport:
    partitions: tuple[frozenset[str], ...]
    orbit_sizes: tuple[int, ...]
    orbits: tuple[frozenset[frozenset[str]], ...]
    triad_statistic: dict[int, int]


@lru_cache(maxsize=1)
def enneahedra() -> EnneahedraReport:
    """The 200 partitions of the 27 lines into nine tritangents.

    Orbits under the Weyl permutation group classify them (sizes 40 and 160).
    The triad statistic reports, for each partition, how many of the 40
    triads contain it as a choice of one trihedron per trihedral pair; it is
    descriptive output, not an assertion.
    """
    tri = tritangents()
    covers = _exact_cover(LINE_LABELS, tri)
    group = weyl_generator_perms()
    by_lines = {v: k for k, v in tri.items()}

    def act(perm: bytes, partition: frozenset[str]) -> frozenset[str]:
        mapped = []
        for name in partition:
            image = frozenset(LINE_LABELS[perm[LINE_INDEX[l]]] for l in tri[name])
            mapped.append(by_lines[image])
        return frozenset(mapped)

    remaining = set(covers)
    orbits = []
    while remaining:
        seed = remaining.pop()
        orbit = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for perm in group:
                img = act(perm, cur)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        remaining -= orbit
        orbits.append(frozenset(orbit))

    st = enumerate_structures()
    triad_count: dict[frozenset[str], int] = {c: 0 for c in covers}
    for triad in st.triads:
        pair_sets = [st.trihedral_pairs[n] for n in triad]
        trihedra_choices = []
        for lines9 in pair_sets:
            inside = [t for t, ls in tri.items() if ls <= lines9]
            halves = [
                frozenset(combo) for combo in itertools.combinations(inside, 3)
                if frozenset().union(*(tri[t] for t in combo)) == lines9
            ]
            trihedra_choices.append(halves)
        for combo in itertools.product(*trihedra_choices):
            partition = frozenset().union(*combo)
            if partition not in triad_count:
                raise ExactAlgError("triad trihedra must assemble into an exact cover")
            triad_count[partition] += 1
    stat: dict[int, int] = {}
    for v in triad_count.values():
        stat[v] = stat.get(v, 0) + 1

    return EnneahedraReport(
        tuple(sorted(covers, key=sorted)),
        tuple(sorted(len(o) for o in orbits)),
        tuple(orbits),
        stat,
    )


# -- coordinates ---------------------------------------------------------------------


def _half(vals: Sequence[int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v, 2) for v in vals)


def _form(coeffs: Sequence[Fraction | int]) -> MPoly:
    return MPoly.linear([Fraction(c) for c in coeffs])


def root_label(subset: frozenset[int]) -> str:
    if subset == frozenset(SIX):
        return "h"
    return "h" + "".join(str(i) for i in sorted(subset))


@dataclass(frozen=True)
class CoordinateTables:
    """Root forms, weight forms, and their Killing-dual points in P^5."""

    root_forms: dict[str, MPoly]
    weight_forms: dict[str, MPoly]
    root_duals: dict[str, tuple[Fraction, ...]]
    weight_duals: dict[str, tuple[Fraction, ...]]
    simple_roots: tuple[str, ...]
    killing: MPoly

    def bilinear(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        s = sum((Fraction(a) * Fraction(b) for a, b in zip(u[:5], v[:5])), Fraction(0))
        return s + Fraction(u[5]) * Fraction(v[5]) / 3

    def pairing_scalar(self, form: MPoly, dual: Sequence[Fraction]) -> Optional[Fraction]:
        paired = _form([Fraction(d) for d in dual[:5]] + [Fraction(dual[5]) / 3])
        return proportional(paired, form)


def _root_subsets() -> list[frozenset[int]]:
    subs = [frozenset(SIX)]
    subs += [frozenset(p) for p in itertools.combinations(SIX, 2)]
    subs += [frozenset(t) for t in itertools.combinations(SIX, 3)]
    return subs


@lru_cache(maxsize=1)
def coordinate_tables() -> CoordinateTables:
    """The classical coordinate dictionary in variables x1..x6.

    Root forms: h = (x1+..+x6)/2, the pair forms h_jk, and the triple forms;
    weight forms a_i, b_i, c_ij; duals taken with respect to the invariant
    quadric I2 = x1^2+..+x5^2+x6^2/3. Duals of the integer-coefficient root
    forms are stated classically at half scale, so their pairing scalar is
    1/2 while every other pairing scalar is exactly 1.
    """
    x = [MPoly.var(i, 6) for i in range(6)]
    half = Fraction(1, 2)

    def sigma_top() -> MPoly:
        acc = MPoly.zero(6)
        for i in range(5):
            acc = acc + x[i]
        return acc

    s5 = sigma_top()  # x1+..+x5

    root_forms: dict[str, MPoly] = {}
    root_forms["h"] = (s5 + x[5]) * half
    for j in range(2, 7):
        root_forms[f"h1{j}"] = x[j - 2] - (s5 - x[5]) * half
    for j, k in itertools.combinations(range(2, 7), 2):
        root_forms[f"h{j}{k}"] = x[k - 2] - x[j - 2]
        root_forms[f"h1{j}{k}"] = x[j - 2] + x[k - 2]
    for j, k, l in itertools.combinations(range(2, 7), 3):
        root_forms[f"h{j}{k}{l}"] = (
            x[j - 2] + x[k - 2] + x[l - 2] - (s5 - x[5]) * half
        )

    weight_forms: dict[str, MPoly] = {}
    weight_forms["a1"] = x[5] * Fraction(-2, 3)
    weight_forms["b1"] = (s5 - x[5] * Fraction(1, 3)) * half
    for j in range(2, 7):
        weight_forms[f"a{j}"] = x[j - 2] - (s5 + x[5] * Fraction(1, 3)) * half
        weight_forms[f"b{j}"] = x[j - 2] + x[5] * Fraction(1, 3)
        weight_forms[f"c1{j}"] = -x[j - 2] + x[5] * Fraction(1, 3)
    for i, j in itertools.combinations(range(2, 7), 2):
        weight_forms[f"c{i}{j}"] = (
            -x[j - 2] - x[i - 2] + (s5 - x[5] * Fraction(1, 3)) * half
        )

    def coeffs(f: MPoly) -> list[Fraction]:
        return [f.terms.get(tuple(1 if t == i else 0 for t in range(6)), Fraction(0))
                for i in range(6)]

    def killing_dual(f: MPoly) -> tuple[Fraction, ...]:
        w = coeffs(f)
        return tuple(w[:5]) + (3 * w[5],)

    root_duals: dict[str, tuple[Fraction, ...]] = {}
    for name, f in root_forms.items():
        dual = killing_dual(f)
        if all(v.denominator == 1 for v in coeffs(f)):
            dual = tuple(v / 2 for v in dual)  # classical half-scale statement
        root_duals[name] = dual
    weight_duals = {name: killing_dual(f) for name, f in weight_forms.items()}

    killing = sum((xi * xi for xi in x[:5]), MPoly.zero(6)) + x[5] * x[5] * Fraction(1, 3)
    simple = ("h12", "h123", "h23", "h34", "h45", "h56")
    return CoordinateTables(root_forms, weight_forms, root_duals, weight_duals,
                            simple, killing)


# -- reflections and the Weyl group ----------------------------------------------------


Matrix = tuple[tuple[Fraction, ...], ...]


def _mat_vec_row(row: Sequence[Fraction], mat: Matrix) -> tuple[Fraction, ...]:
    return tuple(
        sum((row[p] * mat[p][q] for p in range(6)), Fraction(0))
        for q in range(6)
    )


def reflection_matrix(root: str) -> Matrix:
    """6x6 matrix of the reflection fixing the root's hyperplane.

    s(x) = x - 2 B(x,R)/B(R,R) * R with B the I2 bilinear form and R any
    dual vector of the root; the formula is scale-invariant in R.
    """
    tables = coordinate_tables()
    if root not in tables.root_forms:
        raise ExactAlgError(f"unknown root form {root}")
    f = tables.root_forms[root]
    w = [f.terms.get(tuple(1 if t == i else 0 for t in range(6)), Fraction(0))
         for i in range(6)]
    r = list(w[:5]) + [3 * w[5]]
    norm = sum((w[i] * r[i] for i in range(6)), Fraction(0))
    mat = [
        [
            (Fraction(1) if p == q else Fraction(0)) - 2 * r[p] * w[q] / norm
            for q in range(6)
        ]
        for p in range(6)
    ]
    return tuple(tuple(row) for row in mat)


def apply_to_form(f: MPoly, mat: Matrix) -> MPoly:
    """Pullback of a linear form along the matrix (form of the composite map)."""
    w = [f.terms.get(tuple(1 if t == i else 0 for t in range(6)), Fraction(0))
         for i in range(6)]
    return _form(_mat_vec_row(w, mat))


def perm27_from_matrix(mat: Matrix) -> bytes:
    """Permutation of the 27 labels induced on the weight forms; exact match."""
    tables = coordinate_tables()
    images = []
    by_poly = {}
    for k, lab in enumerate(LINE_LABELS):
        by_poly[tables.weight_forms[lab]] = k
    for lab in LINE_LABELS:
        img = apply_to_form(tables.weight_forms[lab], mat)
        k = by_poly.get(img)
        if k is None:
            raise ExactAlgError(f"image of weight form {lab} not found at scalar +1")
        images.append(k)
    if len(set(images)) != 27:
        raise ExactAlgError("matrix action is not a permutation of the weights")
    return bytes(images)


def root_action_from_matrix(mat: Matrix) -> dict[str, tuple[str, int]]:
    """Signed permutation induced on the 36 root forms."""
    tables = coordinate_tables()
    out = {}
    for name, f in tables.root_forms.items():
        img = apply_to_form(f, mat)
        for name2, g in tables.root_forms.items():
            c = proportional(img, g)
            if c is not None:
                if c not in (1, -1):
                    raise ExactAlgError(f"root image off by scalar {c}")
                out[name] = (name2, int(c))
                break
        else:
            raise ExactAlgError(f"image of root form {name} is not a root form")
    return out


def action_table_rule(reflection: str, target: str) -> str:
    """The classical description of how s_J acts on the root form h_K.

    Encoding h as the full index set, a reflection sends K to the symmetric
    difference K^J whenever that lands on a legal label size (2, 3, or 6)
    and fixes the form otherwise; this reproduces the published table of
    sixteen cases verbatim.
    """
    j_set = frozenset(SIX) if reflection == "h" else frozenset(int(c) for c in reflection[1:])
    k_set = frozenset(SIX) if target == "h" else frozenset(int(c) for c in target[1:])
    diff = j_set ^ k_set
    if len(diff) in (2, 3, 6):
        return root_label(diff)
    return target


def check_meets_preserved(perm: bytes) -> bool:
    mm = meets_matrix()
    for i in range(27):
        for j in range(i + 1, 27):
            if mm[i][j] != mm[perm[i]][perm[j]]:
                return False
    return True


@lru_cache(maxsize=1)
def weyl_generators() -> tuple[tuple[str, ...], tuple[Matrix, ...], tuple[bytes, ...]]:
    """Simple reflections: names, matrices, and derived 27-label permutations."""
    tables = coordinate_tables()
    names = tables.simple_roots
    mats = tuple(reflection_matrix(n) for n in names)
    perms = []
    for name, mat in zip(names, mats):
        perm = perm27_from_matrix(mat)
        if not check_meets_preserved(perm):
            raise ExactAlgError(f"generator {name} does not preserve meets")
        perms.append(perm)
    return names, mats, tuple(perms)


def weyl_generator_perms() -> tuple[bytes, ...]:
    return weyl_generators()[2]


IDENTITY27 = bytes(range(27))
_PAD = bytes(range(27, 256))


def compose(outer: bytes, inner: bytes) -> bytes:
    """outer . inner as functions on 0..26 (apply inner first)."""
    return inner.translate(outer + _PAD)


@dataclass(frozen=True)
class WeylGroup:
    generators: tuple[bytes, ...]
    elements: frozenset[bytes]

    @property
    def order(self) -> int:
        return len(self.elements)

    def orbit_of_label(self, label: str) -> frozenset[str]:
        idx = LINE_INDEX[label]
        seen = {idx}
        frontier = [idx]
        while frontier:
            cur = frontier.pop()
            for g in self.generators:
                nxt = g[cur]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(LINE_LABELS[i] for i in seen)

    def orbits_of_sets(self, sets: Iterable[frozenset[str]]) -> list[frozenset[frozenset[str]]]:
        remaining = set(sets)
        orbits = []
        while remaining:
            seed = remaining.pop()
            orbit = {seed}
            frontier = [seed]
            while frontier:
                cur = frontier.pop()
                for g in self.generators:
                    img = frozenset(LINE_LABELS[g[LINE_INDEX[l]]] for l in cur)
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
            remaining -= orbit
            orbits.append(frozenset(orbit))
        return orbits


@lru_cache(maxsize=1)
def weyl_group() -> WeylGroup:
    """Full closure of the six generators; cross-checked by a stabilizer chain."""
    gens = weyl_generator_perms()
    tables = [g + _PAD for g in gens]
    elements = {IDENTITY27}
    frontier = [IDENTITY27]
    while frontier:
        nxt = []
        for p in frontier:
            for t in tables:
                q = p.translate(t)
                if q not in elements:
                    elements.add(q)
                    nxt.append(q)
        frontier = nxt
    group = WeylGroup(gens, frozenset(elements))
    chain = stabilizer_chain_order(gens)
    if chain != group.order:
        raise ExactAlgError(f"closure order {group.order} != chain order {chain}")
    return group


def _perm_inverse(p: bytes) -> bytes:
    inv = bytearray(27)
    for i, v in enumerate(p):
        inv[v] = i
    return bytes(inv)


def stabilizer_chain_order(gens: Sequence[bytes]) -> int:
    """Group order by iterated orbit-stabilizer with Schreier generators."""
    gens = [g for g in set(gens) if g != IDENTITY27]
    if not gens:
        return 1
    beta = next(i for i in range(27) if any(g[i] != i for g in gens))
    transversal: dict[int, bytes] = {beta: IDENTITY27}
    frontier = [beta]
    while frontier:
        delta = frontier.pop()
        for g in gens:
            image = g[delta]
            if image not in transversal:
                # coset representative mapping beta to image
                transversal[image] = compose(g, transversal[delta])
                frontier.append(image)
    stab_gens = set()
    for delta, u in transversal.items():
        for g in gens:
            rep = _perm_inverse(transversal[g[delta]])
            schreier = compose(rep, compose(g, u))
            if schreier != IDENTITY27:
                stab_gens.add(schreier)
    return len(transversal) * stabilizer_chain_order(tuple(stab_gens))


# -- special loci in P^5 ------------------------------------------------------------


@dataclass(frozen=True)
class SpecialLoci:
    """Table of distinguished subspaces cut out by the arrangement."""

    hyperplanes: dict[str, MPoly]                      # 36
    root_points: dict[str, ProjPoint]                  # 36
    weight_points: dict[str, ProjPoint]                # 27
    lines120: tuple[ProjLine, ...]
    lines216: tuple[ProjLine, ...]
    lines45: tuple[ProjLine, ...]
    spaces120: tuple[frozenset[str], ...]              # form triples cutting each P^3
    spanning_triples: int                              # triples of the 120 lines spanning P^5


@lru_cache(maxsize=1)
def special_loci() -> SpecialLoci:
    tables = coordinate_tables()
    root_points = {n: ProjPoint(v) for n, v in tables.root_duals.items()}
    weight_points = {n: ProjPoint(v) for n, v in tables.weight_duals.items()}

    root_list = sorted(root_points)
    lines120: dict[tuple, ProjLine] = {}
    per_point: dict[str, int] = {n: 0 for n in root_list}
    for n1, n2, n3 in itertools.combinations(root_list, 3):
        p1, p2, p3 = root_points[n1], root_points[n2], root_points[n3]
        if rank_exact([list(p1.coords), list(p2.coords), list(p3.coords)]) == 2:
            line = ProjLine(p1, p2)
            if line.key not in lines120:
                lines120[line.key] = line
                for n in (n1, n2, n3):
                    per_point[n] += 1
    if len(lines120) != 120:
        raise ExactAlgError(f"expected 120 collinear-root lines, found {len(lines120)}")
    for line in lines120.values():
        count = sum(1 for p in root_points.values() if line.contains(p))
        if count != 3:
            raise ExactAlgError("a root line does not contain exactly 3 root points")
    if any(v != 10 for v in per_point.values()):
        raise ExactAlgError("each root point must lie on 10 of the 120 lines")

    weight_list = sorted(weight_points)
    lines45: dict[tuple, ProjLine] = {}
    lines216: dict[tuple, ProjLine] = {}
    for n1, n2 in itertools.combinations(weight_list, 2):
        line = ProjLine(weight_points[n1], weight_points[n2])
        if line.key in lines45 or line.key in lines216:
            continue
        on27 = sum(1 for p in weight_points.values() if line.contains(p))
        on36 = sum(1 for p in root_points.values() if line.contains(p))
        if on27 == 3 and on36 == 0:
            lines45[line.key] = line
        elif on27 == 2 and on36 == 1:
            lines216[line.key] = line
        else:
            raise ExactAlgError(f"weight pair line with profile ({on27},{on36})")
    if len(lines45) != 45 or len(lines216) != 216:
        raise ExactAlgError("45/216 line census failed")
    if 3 * len(lines45) + len(lines216) != 351:
        raise ExactAlgError("pair bookkeeping failed")

    # each azygetic triple of double sixes names three root forms spanning a
    # pencil (the forms satisfy one linear relation), so they share a P^3
    st = enumerate_structures()
    spaces120 = []
    pencil_keys = set()
    for triple in st.azygetic_triples:
        forms = frozenset("h" + n[2:] if n != "N" else "h" for n in triple)
        rows = []
        for fname in forms:
            f = tables.root_forms[fname]
            rows.append([f.terms.get(tuple(1 if t == i else 0 for t in range(6)),
                                     Fraction(0)) for i in range(6)])
        ech, _ = rref_int(rows)
        if len(ech) != 2:
            raise ExactAlgError("azygetic form triple must span a pencil")
        pencil_keys.add(tuple(tuple(r) for r in ech))
        spaces120.append(forms)
    if len(set(spaces120)) != 120 or len(pencil_keys) != 120:
        raise ExactAlgError("expected 120 distinct P^3s")

    # orthogonality census: the three root points on each of the 120 lines
    # form an A2; each A2 is orthogonal to exactly one complementary pair of
    # A2s, so the orthogonality graph splits into triangles, and the
    # resulting line triples all span P^5
    lines_seq = list(lines120.values())
    a2_points = []
    for line in lines_seq:
        a2_points.append(frozenset(
            n for n, p in root_points.items() if line.contains(p)))

    def orthogonal(i: int, j: int) -> bool:
        for n1 in a2_points[i]:
            for n2 in a2_points[j]:
                u, v = root_points[n1].coords, root_points[n2].coords
                if tables.bilinear([Fraction(c) for c in u],
                                   [Fraction(c) for c in v]) != 0:
                    return False
        return True

    degree = [0] * len(lines_seq)
    partners: dict[int, list[int]] = {i: [] for i in range(len(lines_seq))}
    for i, j in itertools.combinations(range(len(lines_seq)), 2):
        if orthogonal(i, j):
            partners[i].append(j)
            partners[j].append(i)
            degree[i] += 1
            degree[j] += 1
    if set(degree) != {2}:
        raise ExactAlgError("each A2 must be orthogonal to exactly two others")
    triangles = set()
    for i in range(len(lines_seq)):
        j, k = partners[i]
        if not orthogonal(j, k):
            raise ExactAlgError("orthogonality partners must be mutually orthogonal")
        triangles.add(frozenset({i, j, k}))
    spanning = 0
    for tr in triangles:
        rows = []
        for i in tr:
            rows.append(list(lines_seq[i].key[0]))
            rows.append(list(lines_seq[i].key[1]))
        if det_bareiss([[int(v) for v in row] for row in rows]) == 0:
            raise ExactAlgError("an orthogonal A2 triple fails to span P^5")
        spanning += 1

    # the 40 triangles are the triads: one line per trihedral pair
    triad_formsets = set()
    for triad in st.triads:
        fs = frozenset(
            frozenset("h" + d[2:] if d != "N" else "h"
                      for d in st.azygetic_by_name[tp])
            for tp in triad
        )
        triad_formsets.add(fs)
    triangle_formsets = {
        frozenset(frozenset(a2_points[i]) for i in tr) for tr in triangles
    }
    # a2_points hold dual-point names, which coincide with form names here
    if triangle_formsets != triad_formsets:
        raise ExactAlgError("orthogonal triangles do not match the 40 triads")

    return SpecialLoci(
        dict(tables.root_forms),
        root_points,
        weight_points,
        tuple(lines120.values()),
        tuple(lines216.values()),
        tuple(lines45.values()),
        tuple(spaces120),
        spanning,
    )


def hyperplane_counts_through_points() -> tuple[int, int]:
    """(# of the 36 forms through each weight point, through each root point)."""
    tables = coordinate_tables()
    loci = special_loci()
    through_weight = {
        sum(1 for f in tables.root_forms.values() if f.eval(p.coords) == 0)
        for p in loci.weight_points.values()
    }
    through_root = {
        sum(1 for f in tables.root_forms.values() if f.eval(p.coords) == 0)
        for p in loci.root_points.values()
    }
    if len(through_weight) != 1 or len(through_root) != 1:
        raise ExactAlgError("hyperplane counts are not uniform over the orbits")
    return through_weight.pop(), through_root.pop()


# -- Macdonald-style memberships ------------------------------------------------------


@dataclass(frozen=True)
class MacdonaldReport:
    dims: dict[str, int]
    memberships: dict[str, bool]
    modular_ranks: dict[str, dict[int, int]]


def _a2a2_products() -> list[MPoly]:
    """For each of the 120 lines: product of the six root forms vanishing on it."""
    tables = coordinate_tables()
    loci = special_loci()
    out = []
    for line in loci.lines120:
        prod = MPoly.constant(6, 1)
        count = 0
        for f in tables.root_forms.values():
            if all(c == 0 for c in f.restrict_to_line(line.p.coords, line.q.coords)):
                prod = prod * f
                count += 1
        if count != 6:
            raise ExactAlgError("each of the 120 lines lies on exactly 6 hyperplanes")
        out.append(prod)
    return out


@lru_cache(maxsize=1)
def macdonald_membership() -> MacdonaldReport:
    """Vanishing-space dimensions for the four classical loci plus memberships.

    The sextic system (1512 constraint rows) uses the certified-candidates
    route: the 120 orthogonal-A2-pair products supply the exact lower bound
    and the modular rank of the evaluation matrix the upper bound. The other
    three systems are small enough for the direct exact kernel.
    """
    tables = coordinate_tables()
    loci = special_loci()
    dims: dict[str, int] = {}
    member: dict[str, bool] = {}
    ranks: dict[str, dict[int, int]] = {}

    pts36 = list(loci.root_points.values())
    pts27 = list(loci.weight_points.values())

    vs36 = vanishing_space(3, 6, points=pts36)
    dims["cubics_on_36_points"] = vs36.dim
    ranks["cubics_on_36_points"] = vs36.modular_ranks
    prod = (tables.weight_forms["a1"] * tables.weight_forms["b2"]
            * tables.weight_forms["c12"])
    member["tritangent_product_in_cubics36"] = vs36.contains(prod)

    vs27 = vanishing_space(3, 6, points=pts27)
    dims["cubics_on_27_points"] = vs27.dim
    ranks["cubics_on_27_points"] = vs27.modular_ranks
    prod = (tables.root_forms["h12"] * tables.root_forms["h13"]
            * tables.root_forms["h23"])
    member["a2_triple_product_in_cubics27"] = vs27.contains(prod)

    vs45 = vanishing_space(4, 6, lines=loci.lines45)
    dims["quartics_on_45_lines"] = vs45.dim
    ranks["quartics_on_45_lines"] = vs45.modular_ranks
    probe = (tables.root_forms["h24"] * tables.root_forms["h124"]
             * tables.root_forms["h35"] * tables.root_forms["h135"])
    member["pair_of_pairs_product_in_quartics45"] = vs45.contains(probe)

    vs216 = vanishing_space(6, 6, lines=loci.lines216,
                            candidates=_a2a2_products())
    dims["sextics_on_216_lines"] = vs216.dim
    ranks["sextics_on_216_lines"] = vs216.modular_ranks
    probe = (tables.root_forms["h12"] * tables.root_forms["h13"]
             * tables.root_forms["h23"] * tables.root_forms["h45"]
             * tables.root_forms["h46"] * tables.root_forms["h56"])
    member["a2a2_product_in_sextics216"] = vs216.contains(probe)

    return MacdonaldReport(dims, member, ranks)


# -- incidence complexes ---------------------------------------------------------------


@dataclass(frozen=True)
class IncidenceRanks:
    tritangent_line: dict[str, int]
    segre_hyperplane_plane: dict[str, int]


@lru_cache(maxsize=1)
def incidence_complex_ranks() -> IncidenceRanks:
    """Ranks of the two classical incidence matrices, over Q with prime checks.

    45x27 tritangent-vs-line: rank 21, kernel 24, cokernel 6 (transposed
    reading: 6/21/24). 15x15 pair-vs-partition for the Segre configuration:
    rank 10, kernel and cokernel 5.
    """
    tri = tritangents()
    rows = []
    for name in sorted(tri):
        rows.append([1 if lab in tri[name] else 0 for lab in LINE_LABELS])
    r = checked_rank(rows)
    t_report = {
        "rows": 45,
        "cols": 27,
        "rank": r,
        "kernel": 45 - r,
        "cokernel": 27 - r,
    }

    pairs = list(itertools.combinations(SIX, 2))
    partitions = _pair_partitions()
    seg_rows = []
    for p in pairs:
        seg_rows.append([1 if tuple(sorted(p)) in
                         [tuple(sorted(q)) for q in part] else 0
                         for part in partitions])
    r2 = checked_rank(seg_rows)
    s_report = {
        "rows": 15,
        "cols": 15,
        "rank": r2,
        "kernel": 15 - r2,
        "cokernel": 15 - r2,
    }
    return IncidenceRanks(t_report, s_report)


# -- JSON export -----------------------------------------------------------------------


def structures_json() -> dict:
    st = enumerate_structures()
    tables = coordinate_tables()
    return {
        "lines": list(LINE_LABELS),
        "tritangents": {k: sorted(v) for k, v in sorted(st.tritangents.items())},
        "double_sixes": {k: sorted(v) for k, v in sorted(st.double_sixes.items())},
        "trihedral_pairs": {k: sorted(v) for k, v in sorted(st.trihedral_pairs.items())},
        "triads": sorted(sorted(t) for t in st.triads),
        "root_forms": {k: tables.root_forms[k].to_str(
            ["x1", "x2", "x3", "x4", "x5", "x6"]) for k in sorted(tables.root_forms)},
        "counts": st.counts(),
    }
