"""The 27 lines: incidence combinatorics, W(E6), coordinates, rank checks.

Labels follow Schläfli: a_1..a_6, b_1..b_6, c_ij. Everything combinatorial
(tritangents, double sixes, trihedral pairs, triads, enneahedra) is
enumerated from the meets relation and then reconciled against the classical
named lists, so a transcription slip on either side cannot survive.

The Weyl group enters twice: as 6x6 reflection matrices built from the root
forms and their Killing-dual vectors, stored as the integer matrices 4·M, and
as the permutation group of the 27 labels those matrices induce on the
weight forms. The permutations are never hand-coded; they are read off the
matrix action in exact integer arithmetic. The group's order, 51,840, comes
from a stabilizer chain of the six generator permutations; the 51,840
elements are never listed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

import numpy as np

from .exactalg import (
    ExactAlgError,
    MPoly,
    ProjLine,
    ProjPoint,
    _IntEchelon,
    _clear_row,
    _incidence,
    _independent,
    _int_matmul,
    checked_rank,
    elementary_symmetric,
    substitute,
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
    for part in pair_partitions():
        name = "(" + ".".join(f"{i}{j}" for i, j in part) + ")"
        out[name] = frozenset(_csort(i, j) for i, j in part)
    if len(out) != 45:
        raise ExactAlgError("tritangent enumeration broke")
    return out


def pair_partitions() -> list[tuple[tuple[int, int], ...]]:
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
    trihedral_pairs: dict[frozenset[str], frozenset[str]]  # azygetic triple -> its 9 lines
    triads: frozenset[frozenset[frozenset[str]]]

    def counts(self) -> dict[str, int]:
        return {
            "tritangents": len(self.tritangents),
            "double_sixes": len(self.double_sixes),
            "trihedral_pairs": len(self.trihedral_pairs),
            "triads": len(self.triads),
            "syzygetic_pairs": len(self.syzygetic_pairs),
            "azygetic_triples": len(self.azygetic_triples),
        }


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
        on = [LINE_INDEX[x] for x in s]
        partner_lines = [
            l for l, row in zip(LINE_LABELS, mm)
            if l not in s and sum(row[k] for k in on) == 5
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
    trihedral: dict[frozenset[str], frozenset[str]] = {}
    for triple in triples:
        residual = all_lines.difference(*(named[d] for d in triple))
        if len(residual) != 9:
            raise ExactAlgError("azygetic triple does not leave nine residual lines")
        inside = [t for t, lines in tri.items() if lines <= residual]
        if len(inside) != 6:
            raise ExactAlgError("trihedral pair must contain exactly six tritangents")
        for line in residual:
            if sum(1 for t in inside if line in tri[t]) != 2:
                raise ExactAlgError("trihedral pair lines must lie on two tritangents each")
        trihedral[triple] = residual
    by_residual = {lines: triple for triple, lines in trihedral.items()}
    if len(by_residual) != len(trihedral):
        raise ExactAlgError("trihedral pairs must have distinct residual lines")

    # a triad is three trihedral pairs partitioning the 27 lines: each
    # disjoint pair of pairs names the third by its leftover nine lines
    triads = set()
    for t1, t2 in itertools.combinations(trihedral, 2):
        if trihedral[t1].isdisjoint(trihedral[t2]):
            t3 = by_residual.get(all_lines - trihedral[t1] - trihedral[t2])
            if t3 is not None:
                triads.add(frozenset({t1, t2, t3}))
    return Structures(tri, named, frozenset(syz), frozenset(azy), frozenset(triples),
                      trihedral, frozenset(triads))


# -- enneahedra ---------------------------------------------------------------------

_H = TypeVar("_H", bound=Hashable)


def orbit_partition(items: Iterable[_H],
                    moves: Sequence[Callable[[_H], _H]]) -> list[frozenset[_H]]:
    """Orbits of the items under the group the moves generate, in order of first item.

    Breadth-first closure under the moves alone: each move is a permutation
    of finite order, so its inverse is one of its powers. Orbits are
    disjoint, so one set of seen items serves every closure.
    """
    orbits: list[frozenset[_H]] = []
    seen: set[_H] = set()
    for start in items:
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for cur in queue:
            for move in moves:
                img = move(cur)
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
        orbits.append(frozenset(queue))
    return orbits


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
    triad_statistic: dict[int, int]


def _tritangent_permutation(perm: bytes) -> dict[str, str]:
    """The permutation of the 45 tritangents, by name, that a permutation of
    the 27 lines induces; an image that is no tritangent raises, its labels
    sorted, so the message reads the same in every process."""
    tri = tritangents()
    by_lines = {v: k for k, v in tri.items()}
    table = {}
    for name, lines in tri.items():
        image = frozenset(LINE_LABELS[perm[LINE_INDEX[l]]] for l in lines)
        if image not in by_lines:
            raise ExactAlgError(f"the Weyl generators must permute the tritangents, but "
                                f"{name} goes to {', '.join(sorted(image))}, no tritangent")
        table[name] = by_lines[image]
    return table


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
    tables = [_tritangent_permutation(perm) for perm in weyl_generators()[2]]

    def act(table: dict[str, str], partition: frozenset[str]) -> frozenset[str]:
        return frozenset(map(table.__getitem__, partition))

    orbits = orbit_partition(covers, [partial(act, table) for table in tables])

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
        stat,
    )


# -- coordinates ---------------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateTables:
    """Root forms, weight forms, and their Killing-dual points in P^5."""

    root_forms: dict[str, MPoly]
    weight_forms: dict[str, MPoly]
    root_duals: dict[str, tuple[Fraction, ...]]
    weight_duals: dict[str, tuple[Fraction, ...]]
    simple_roots: tuple[str, ...]
    killing: MPoly


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
    s5 = elementary_symmetric(1, x[:5])  # x1+..+x5

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

    def killing_dual(f: MPoly) -> tuple[Fraction, ...]:
        w = f.linear_coeffs()
        return tuple(w[:5]) + (3 * w[5],)

    root_duals: dict[str, tuple[Fraction, ...]] = {}
    for name, f in root_forms.items():
        dual = killing_dual(f)
        if all(v.denominator == 1 for v in f.linear_coeffs()):
            dual = tuple(v / 2 for v in dual)  # classical half-scale statement
        root_duals[name] = dual
    weight_duals = {name: killing_dual(f) for name, f in weight_forms.items()}

    killing = sum((xi * xi for xi in x[:5]), MPoly.zero(6)) + x[5] * x[5] * Fraction(1, 3)
    simple = ("h12", "h123", "h23", "h34", "h45", "h56")
    return CoordinateTables(root_forms, weight_forms, root_duals, weight_duals,
                            simple, killing)


# -- reflections and the Weyl group ----------------------------------------------------


IntMatrix = tuple[tuple[int, ...], ...]

# the generators are stored as WEYL_SCALE times their rational matrices
WEYL_SCALE = 4


def reflection_matrix(root: str) -> IntMatrix:
    """4·M in int, M the 6x6 matrix of the reflection fixing the root's hyperplane.

    s(x) = x - 2 B(x,R)/B(R,R) * R with B the I2 bilinear form and R any
    dual vector of the root; the formula is scale-invariant in R, so the
    root form is cleared to integers first. The entries of M lie in (1/4)Z
    (for the simple roots only h12 has entries outside Z, ±1/4 and ±3/4); an
    entry of 4·M outside Z raises ExactAlgError.
    """
    tables = coordinate_tables()
    if root not in tables.root_forms:
        raise ExactAlgError(f"unknown root form {root}")
    w = _clear_row(tables.root_forms[root].linear_coeffs())
    r = w[:5] + [3 * w[5]]
    norm = sum(wi * ri for wi, ri in zip(w, r))
    scaled = [[WEYL_SCALE * ((norm if p == q else 0) - 2 * r[p] * w[q]) for q in range(6)]
              for p in range(6)]
    if any(v % norm for row in scaled for v in row):
        raise ExactAlgError(f"reflection {root} is not integral at scale {WEYL_SCALE}")
    return tuple(tuple(v // norm for v in row) for row in scaled)


@lru_cache(maxsize=1)
def _weight_rows() -> np.ndarray:
    """The integral forms 6·w as the rows of an int64 array, in label order."""
    tables = coordinate_tables()
    return np.array([_clear_row((tables.weight_forms[lab] * 6).linear_coeffs())
                     for lab in LINE_LABELS], dtype=np.int64)


def perm27_from_matrices(mats: np.ndarray | Sequence[IntMatrix],
                         scales: Sequence[int]) -> list[bytes]:
    """Permutation of the 27 labels induced on the weight forms by each
    mat / scale, read for all the matrices in one pass.

    Each mat is an integer matrix, scale times a rational one (WEYL_SCALE**L
    for a word of L generators). The integral forms 6·w, as rows, are mapped
    through every mat by one `_int_matmul`; every image coefficient must be
    exactly divisible by its scale, and the quotient must be one of the 27
    forms 6·w, so the scalar is exactly +1. A failure raises ExactAlgError
    for the first matrix, and in it the first label, that fails.
    """
    rows = _weight_rows()
    stack = mats if isinstance(mats, np.ndarray) else np.array(mats, dtype=object)
    n = rows.shape[1]
    images = _int_matmul(rows, stack.transpose(0, 2, 1).reshape(-1, n))
    images = images.reshape(len(rows), len(stack), n).transpose(1, 0, 2)
    scale = np.array(scales)[:, None, None]
    divisible = (images % scale == 0).all(axis=2)
    hit = ((images // scale)[:, :, None, :] == rows).all(axis=3)
    perms = []
    for w, (ok, at) in enumerate(zip(divisible & hit.any(axis=2), hit.argmax(axis=2).tolist())):
        if not ok.all():
            i = int(ok.argmin())
            why = "not found at scalar +1" if divisible[w, i] else f"is not divisible by {scales[w]}"
            raise ExactAlgError(f"image of weight form {LINE_LABELS[i]} {why}")
        if len(set(at)) != 27:
            raise ExactAlgError("matrix action is not a permutation of the weights")
        perms.append(bytes(at))
    return perms


def check_meets_preserved(perm: bytes) -> bool:
    mm = meets_matrix()
    for i in range(27):
        for j in range(i + 1, 27):
            if mm[i][j] != mm[perm[i]][perm[j]]:
                return False
    return True


@lru_cache(maxsize=1)
def weyl_generators() -> tuple[tuple[str, ...], tuple[IntMatrix, ...], tuple[bytes, ...]]:
    """Simple reflections: names, matrices at WEYL_SCALE, and derived 27-label
    permutations."""
    tables = coordinate_tables()
    names = tables.simple_roots
    mats = tuple(reflection_matrix(n) for n in names)
    perms = tuple(perm27_from_matrices(mats, [WEYL_SCALE] * len(mats)))
    for name, perm in zip(names, perms):
        if not check_meets_preserved(perm):
            raise ExactAlgError(f"generator {name} does not preserve meets")
    return names, mats, perms


IDENTITY27 = bytes(range(27))
_PAD = bytes(range(27, 256))


def compose(outer: bytes, inner: bytes) -> bytes:
    """outer . inner as functions on 0..26 (apply inner first)."""
    return inner.translate(outer + _PAD)


@dataclass(frozen=True)
class WeylGroup:
    """The six simple reflections as permutations of the 27 labels, and the
    order of the group they generate."""

    generators: tuple[bytes, ...]
    order: int


@lru_cache(maxsize=1)
def weyl_group() -> WeylGroup:
    """W(E6) as a permutation group of the 27 labels, with its order read off a
    stabilizer chain of the six generators (`stabilizer_chain_order`); no
    element beyond the generators is listed."""
    gens = weyl_generators()[2]
    return WeylGroup(gens, stabilizer_chain_order(gens))


def _perm_inverse(p: bytes) -> bytes:
    inv = bytearray(27)
    for i, v in enumerate(p):
        inv[v] = i
    return bytes(inv)


def stabilizer_chain_order(gens: Sequence[bytes]) -> int:
    """Order of the group the permutations generate, down a stabilizer chain.

    |G| = |orbit of beta| * |G_beta| for the first moved point beta, and by
    Schreier's lemma G_beta is generated by u_{g(d)}^-1 g u_d over the orbit
    points d and the generators g, u_d the transversal element taking beta
    to d (Sims 1970; Seress, Permutation Group Algorithms, 2003, ch. 4).
    """
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
    """The 63 dual points in P^5 and the special lines through them.

    Each line is the `ProjLine` of the first pair of `special_loci`'s pair
    order that spans it; only these 381 lines are built as `ProjLine`s.
    """

    root_points: dict[str, ProjPoint]                  # 36, duals of the root forms
    weight_points: dict[str, ProjPoint]                # 27, duals of the weight forms
    lines120: tuple[ProjLine, ...]                     # 3 root points each
    points120: tuple[frozenset[str], ...]              # root points on each of lines120
    lines216: tuple[ProjLine, ...]                     # 1 root and 2 weight points each
    lines45: tuple[ProjLine, ...]                      # 3 weight points each
    spanning_triples: int                              # orthogonal triples of lines120 spanning P^5


#: lines through two of the 63 points, by (root points, weight points) on them
LINE_CENSUS = {(1, 1): 540, (2, 0): 270, (1, 2): 216, (3, 0): 120, (0, 3): 45}


@lru_cache(maxsize=1)
def special_loci() -> SpecialLoci:
    """The root and weight points, and every line through two of them.

    Lines: a point c lies on the line of (a, b) exactly when (a, c) spans
    the same line, so grouping the 1,953 pairs of the 63 points by line
    collects every point on every line without a membership test. The key
    of a pair's line is its Plücker vector (the 2x2 minors a_i b_j - a_j b_i,
    i < j), made primitive with its first nonzero entry positive: two pairs
    span the same line exactly when their Plücker vectors are proportional
    (Hodge & Pedoe, Methods of Algebraic Geometry I, ch. VII). All 1,953 are
    taken in one int64 array pass, exact while 2 max|coord|^2 < 2^63, which
    is checked. The 1,191 lines must have the census `LINE_CENSUS`, and each
    root point must lie on 10 of the 120 (3,0) lines. The pairs run in
    `itertools.combinations` order over the weight points and then the root
    points, each sorted by name, and each line is the `ProjLine` of its first
    pair, built only for the 120 + 216 + 45 lines kept, so lines120 is
    spanned by root points and lines45 and lines216 by weight points, each
    in order of its first pair (the order of lines216 is the row order of
    `macdonald_membership`'s sextic system).

    Orthogonality: the three root points of each of the 120 lines form an
    A2. 3·I2 is an integer Gram matrix G on the points' integer coordinates,
    and two A2s are orthogonal when all nine of their point pairs have
    G = 0, that is on·(G = 0)·onᵀ = 9 with `on` the 120x36 incidence
    matrix. Each A2 must be orthogonal to exactly two others, orthogonal to
    each other; the 40 triangles must each span P^5 and be the 40 triads.
    """
    tables = coordinate_tables()
    root_points = {n: ProjPoint(v) for n, v in tables.root_duals.items()}
    weight_points = {n: ProjPoint(v) for n, v in tables.weight_duals.items()}
    root_list = sorted(root_points)
    named = [(n, weight_points[n]) for n in sorted(weight_points)]
    named += [(n, root_points[n]) for n in root_list]

    top = max(abs(c) for _, pt in named for c in pt.coords)
    if 2 * top ** 2 >= 2 ** 63:
        raise ExactAlgError(f"coordinate {top} past the int64 Plücker bound")
    pts = np.array([pt.coords for _, pt in named], dtype=np.int64)
    first, second = np.triu_indices(len(named), 1)  # itertools.combinations order
    i, j = np.triu_indices(pts.shape[1], 1)
    a, b = pts[first], pts[second]
    plucker = a[:, i] * b[:, j] - a[:, j] * b[:, i]
    gcd = np.gcd.reduce(plucker, axis=1)
    if not gcd.all():
        raise ExactAlgError("two of the points are proportional")
    plucker //= gcd[:, None]
    lead = plucker[np.arange(len(plucker)), (plucker != 0).argmax(axis=1)]
    plucker *= np.sign(lead)[:, None]
    through: dict[tuple[int, ...], tuple[tuple[int, int], set[str]]] = {}
    for key, u, v in zip(map(tuple, plucker.tolist()), first.tolist(), second.tolist()):
        through.setdefault(key, ((u, v), set()))[1].update((named[u][0], named[v][0]))
    by_census: dict[tuple[int, int], list[tuple[tuple[int, int], set[str]]]] = {}
    for pair, on in through.values():
        roots = sum(n in root_points for n in on)
        by_census.setdefault((roots, len(on) - roots), []).append((pair, on))
    census = {kind: len(found) for kind, found in by_census.items()}
    if census != LINE_CENSUS:
        raise ExactAlgError(f"line census {census}, expected {LINE_CENSUS}")

    def lines_of(kind: tuple[int, int]) -> tuple[ProjLine, ...]:
        return tuple(ProjLine(named[u][1], named[v][1]) for (u, v), _ in by_census[kind])

    lines120 = lines_of((3, 0))
    points120 = tuple(frozenset(on) for _, on in by_census[3, 0])
    if any(sum(n in on for on in points120) != 10 for n in root_list):
        raise ExactAlgError("each root point must lie on 10 of the 120 lines")

    # each azygetic triple of double sixes names three root forms spanning a
    # pencil (the forms satisfy one linear relation), so they share a P^3
    st = enumerate_structures()
    forms_of: dict[frozenset[str], frozenset[str]] = {}
    pencil_keys = set()
    for triple in st.azygetic_triples:
        forms = frozenset("h" + n[2:] if n != "N" else "h" for n in triple)
        key = _IntEchelon(_clear_row(tables.root_forms[fname].linear_coeffs())
                          for fname in forms).key()
        if len(key) != 2:
            raise ExactAlgError("azygetic form triple must span a pencil")
        pencil_keys.add(key)
        forms_of[triple] = forms
    if len(set(forms_of.values())) != 120 or len(pencil_keys) != 120:
        raise ExactAlgError("expected 120 distinct P^3s")

    # 3·I2 = 3(u1v1 + .. + u5v5) + u6v6 is an integer on integer coordinates
    coords = [root_points[n].coords for n in root_list]
    gram = _int_matmul([[3 * a for a in c[:5]] + [c[5]] for c in coords], coords)
    on = [[int(n in pts) for n in root_list] for pts in points120]
    # (gram == 0) is symmetric, so this is on·(gram == 0)·onᵀ
    orthogonal = _int_matmul(_int_matmul(on, (gram == 0).astype(int)), on) == 9
    partners = [row.nonzero()[0].tolist() for row in orthogonal]
    if any(len(pair) != 2 for pair in partners):
        raise ExactAlgError("each A2 must be orthogonal to exactly two others")
    if not all(orthogonal[j, k] for j, k in partners):
        raise ExactAlgError("orthogonality partners must be mutually orthogonal")
    triangles = {frozenset((i, *pair)) for i, pair in enumerate(partners)}
    for tr in triangles:
        if not _independent([row for i in tr for row in lines120[i].key]):
            raise ExactAlgError("an orthogonal A2 triple fails to span P^5")

    # the 40 triangles are the triads: one line per trihedral pair; the root
    # points carry the names of their forms
    triad_formsets = {frozenset(forms_of[tp] for tp in triad) for triad in st.triads}
    if {frozenset(points120[i] for i in tr) for tr in triangles} != triad_formsets:
        raise ExactAlgError("orthogonal triangles do not match the 40 triads")

    return SpecialLoci(
        root_points,
        weight_points,
        lines120,
        points120,
        lines_of((1, 2)),
        lines_of((0, 3)),
        len(triangles),
    )


# -- Macdonald-style memberships ------------------------------------------------------


@dataclass(frozen=True)
class MacdonaldReport:
    dims: dict[str, int]
    memberships: dict[str, bool]
    modular_ranks: dict[str, dict[int, int]]


def _a2a2_products() -> list[MPoly]:
    """For each of the 120 lines: product of the six root forms vanishing on it.

    A linear form vanishes on a line exactly when it vanishes at both
    spanning points, so one `_incidence` of the 36 root forms, cleared to
    integers (which scales each product only), against the 120 lines finds
    the six of every line. The product of a line's forms w_0..w_5 is the
    monomial x0⋯x5 with x_i = w_i, so one `substitute` takes all 120.
    """
    forms = [_clear_row(f.linear_coeffs()) for f in coordinate_tables().root_forms.values()]
    lines = special_loci().lines120
    on = _incidence(forms, [[line.p.coords, line.q.coords] for line in lines]).T
    if (on.sum(axis=1) != 6).any():
        raise ExactAlgError("each of the 120 lines lies on exactly 6 hyperplanes")
    monomial = MPoly.from_terms(6, [((1,) * 6, 1)])
    linear = [MPoly.linear(form) for form in forms]
    return substitute([monomial], [[linear[i] for i in np.flatnonzero(row)] for row in on])[0]


@lru_cache(maxsize=1)
def macdonald_membership() -> MacdonaldReport:
    """Vanishing-space dimensions for the four classical loci plus memberships.

    All four are certified by vanishing_space, whose lower bound comes from
    independent members and whose upper bound is the modular rank of the
    evaluation matrix. For the sextic system (1,512 constraint rows, 1,070
    of them distinct) the members are the 120 orthogonal-A2-pair products,
    24 of them independent, so the rows are built block by block, and the
    first prime eliminates the first three blocks, the lines' last three
    parameter points (26 + 216 + 216 = 458 distinct rows), in one call and
    stops there at rank 462 - 24 = 438. The other three systems are small
    enough to take their members from the integer kernel.
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
    partitions = pair_partitions()
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

