"""Root arrangements: form counts, flat censuses, genuine singularities, weights."""

import hashlib
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from modgem import rootarr
from modgem.exactalg import ExactAlgError, _canonical_int_vector, rref_int
from modgem.rootarr import (
    Arrangement,
    IncidenceTable,
    RootSystemId,
    arrangement,
    cached_incidence,
    incidence,
    roots,
)

from flat_records import Flat, table_flats


def census(table):
    by = {}
    for f in table_flats(table):
        by.setdefault(f.dim, {}).setdefault(f.q, 0)
        by[f.dim][f.q] += 1
    return by


def singular_flats(table: IncidenceTable) -> list[Flat]:
    """Genuine singular flats: q > codim, minus those explained one level up.

    A singular flat is discarded exactly when its form set is the form set of
    a singular flat of one higher dimension plus a single extra hyperplane:
    such a flat is the transversal trace of the bigger singularity, not a
    singularity of its own.
    """
    n = table.arrangement.ambient
    singular = [f for f in table_flats(table) if f.q > n - f.dim]
    by_dim: dict[int, list[Flat]] = {}
    for f in singular:
        by_dim.setdefault(f.dim, []).append(f)
    genuine = []
    for f in singular:
        above = by_dim.get(f.dim + 1, ())
        explained = any(
            g.q + 1 == f.q and g.forms < f.forms
            for g in above
        )
        if not explained:
            genuine.append(f)
    return genuine


def genuine_by_dim(table):
    out = {}
    for f in singular_flats(table):
        out[f.dim] = out.get(f.dim, 0) + 1
    return out


# -- root lists -----------------------------------------------------------------


def test_root_counts():
    assert len(roots(RootSystemId("A", 2))) == 3
    assert len(roots(RootSystemId("A", 4))) == 10
    assert len(roots(RootSystemId("B", 4))) == 16
    assert len(roots(RootSystemId("D", 4))) == 12
    assert len(roots(RootSystemId("F", 4))) == 24
    assert len(roots(RootSystemId("E", 6))) == 36


def test_a2_forms():
    assert set(roots(RootSystemId("A", 2))) == {(1, 0), (0, 1), (1, -1)}


def test_b_and_c_agree_projectively():
    for n in (3, 4, 5):
        assert set(roots(RootSystemId("B", n))) == set(roots(RootSystemId("C", n)))


def test_e6_half_forms_have_even_sign_count():
    halves = [f for f in roots(RootSystemId("E", 6)) if all(f)]
    assert len(halves) == 16
    for f in halves:
        assert f[5] in (1, -1)
        assert sum(1 for v in f[:5] if v < 0) % 2 == (0 if f[5] == 1 else 1)


def test_unsupported_ranks_rejected():
    with pytest.raises(ExactAlgError):
        RootSystemId("A", 1)
    with pytest.raises(ExactAlgError):
        RootSystemId("F", 5)
    with pytest.raises(ExactAlgError):
        RootSystemId("E", 7)
    with pytest.raises(ExactAlgError):
        RootSystemId("G", 2)


def test_zero_or_repeated_form_rejected():
    with pytest.raises(ExactAlgError):
        Arrangement(2, ((0, 0, 0), (1, 0, 0)))
    with pytest.raises(ExactAlgError):
        Arrangement(2, ((1, 0, 0), (-2, 0, 0)))


# -- censuses -------------------------------------------------------------------


def test_a4_census():
    tab = cached_incidence("A", 4)
    assert census(tab) == {
        2: {1: 10},
        1: {2: 15, 3: 10},
        0: {4: 10, 6: 5},
    }


def test_b4_census():
    tab = cached_incidence("B", 4)
    assert census(tab) == {
        2: {1: 16},
        1: {2: 36, 3: 16, 4: 6},
        0: {4: 16, 5: 12, 6: 8, 9: 4},
    }


def test_d4_census():
    tab = cached_incidence("D", 4)
    assert census(tab) == {
        2: {1: 12},
        1: {2: 18, 3: 16},
        0: {3: 12, 6: 12},
    }


def test_f4_census():
    tab = cached_incidence("F", 4)
    assert census(tab) == {
        2: {1: 24},
        1: {2: 72, 3: 32, 4: 18},
        0: {4: 96, 9: 24},
    }


def test_e6_census_complete():
    tab = cached_incidence("E", 6)
    assert census(tab) == {
        4: {1: 36},
        3: {2: 270, 3: 120},
        2: {3: 540, 4: 720, 6: 270},
        1: {5: 1080, 6: 120, 7: 540, 10: 216, 12: 45},
        0: {7: 360, 11: 216, 15: 36, 20: 27},
    }


def _vanishing(forms, basis):
    """Indices of the forms that kill every row of basis, in Python ints."""
    return {i for i, f in enumerate(forms)
            if all(sum(a * b for a, b in zip(f, vec)) == 0 for vec in basis)}


def _check_bases(arr, flats):
    # each basis has dim + 1 independent rows, killed by exactly the flat's forms
    for flat in flats:
        assert len(rref_int(flat.basis)[0]) == len(flat.basis) == flat.dim + 1
        assert _vanishing(arr.forms, flat.basis) == set(flat.forms)


def _subset_flats(arr):
    """Oracle: every subset of at most `ambient` forms cuts a nonempty flat of
    dimension ambient minus the rank of its rref_int echelon, and its forms
    are those whose adjoining leaves the rank unchanged."""
    expected = set()
    for size in range(1, arr.ambient + 1):
        for subset in itertools.combinations(arr.forms, size):
            rows, _ = rref_int(subset)
            forms = frozenset(i for i, f in enumerate(arr.forms)
                              if len(rref_int(rows + [list(f)])[0]) == len(rows))
            expected.add((arr.ambient - len(rows), forms))
    return expected


@pytest.mark.parametrize("fam", ["A", "B", "D", "F"])
def test_incidence_matches_subset_enumeration(fam):
    # a closed form set fixes the flat, so (dim, forms) pairs compare the lattices
    arr = arrangement(RootSystemId(fam, 4))
    expected = _subset_flats(arr)
    flats = table_flats(cached_incidence(fam, 4))
    assert len(flats) == len(expected)
    assert {(f.dim, f.forms) for f in flats} == expected
    _check_bases(arr, flats)


@st.composite
def small_arrangements(draw):
    """3-9 distinct primitive forms in 3-4 coordinates; entries scaled by 2^40
    or 2^70 push the products F K^T past int64 onto object arrays. Where the
    only scale is 2^28, on two entries in five, F K^T stays in int64 while
    the cut's products w_j k_m pass 2^63."""
    width = draw(st.integers(3, 4))
    big = draw(st.sampled_from([(2 ** 28, 2 ** 28), (2 ** 40, 2 ** 70)]))
    entry = st.builds(operator.mul, st.integers(-3, 3), st.sampled_from((1, 1, 1) + big))
    vecs = draw(st.lists(st.lists(entry, min_size=width, max_size=width).filter(any),
                         min_size=3, max_size=9))
    forms = tuple(dict.fromkeys(_canonical_int_vector(v) for v in vecs))
    assume(len(forms) >= 3)
    return Arrangement(width - 1, forms)


@given(small_arrangements())
@example(Arrangement(2, ((0, 0, 1), (2 ** 29, -1, 1), (0, 1, -2 ** 27))))  # a cut past 2^63
# primitive rows past int64 that agree in their low 62 bits: only the
# higher limbs of the sort keys tell the first two forms' groups apart
@example(Arrangement(2, ((0, 1, 5), (0, 1, 2 ** 64 + 5), (1, 0, 0), (1, 1, 2 ** 64 + 5))))
@settings(max_examples=40, deadline=None)
def test_incidence_of_random_arrangements_matches_subset_enumeration(arr):
    # oracle as in test_incidence_matches_subset_enumeration
    expected = _subset_flats(arr)
    flats = table_flats(incidence(arr))
    assert len(flats) == len(expected)
    assert {(f.dim, f.forms) for f in flats} == expected
    _check_bases(arr, flats)


def test_form_sets_past_63_forms():
    # 72 lines of P^2: each point is the meet of a pair of lines, and its
    # forms are the lines through it, so form sets need more than 63 bits
    arr = Arrangement(2, tuple((a, b, 1) for a in range(-4, 5) for b in range(-4, 4)))
    forms = np.array(arr.forms)
    pairs = np.array(list(itertools.combinations(range(len(forms)), 2)))
    points = np.cross(forms[pairs[:, 0]], forms[pairs[:, 1]])
    on = points @ forms.T == 0
    expected = {(1, frozenset([i])) for i in range(len(forms))}
    expected |= {(0, frozenset(np.flatnonzero(row).tolist())) for row in on}
    flats = table_flats(incidence(arr))
    assert len(flats) == len(expected)
    assert {(f.dim, f.forms) for f in flats} == expected
    _check_bases(arr, flats)


def test_e6_form_sets_are_exact_and_distinct():
    # the subset oracle stops at rank 4: on E6 every form set is recomputed
    # from the flat's basis, and the 4,596 form sets are pairwise distinct,
    # which keying the lattice by form set relies on
    tab = cached_incidence("E", 6)
    forms = np.array(tab.arrangement.forms)
    for flat in table_flats(tab):
        assert len(rref_int(flat.basis)[0]) == len(flat.basis) == flat.dim + 1
        vanishing = np.flatnonzero(~(forms @ np.array(flat.basis).T).any(axis=1))
        assert set(vanishing.tolist()) == flat.forms
    assert len({f.forms for f in table_flats(tab)}) == len(table_flats(tab)) == 4596


def test_a_wrong_point_basis_is_caught(monkeypatch):
    # each point is cut out of a line; moving it to the line's first row that
    # the cutting form does not kill changes the forms vanishing on it
    real = rootarr._cut

    def corrupted(bases, values):
        rows = real(bases, values)
        if rows.shape[1] == 1:
            rows = bases[np.arange(len(values)), (values != 0).argmax(axis=1)][:, None, :]
        return rows

    monkeypatch.setattr(rootarr, "_cut", corrupted)
    with pytest.raises(ExactAlgError, match="forms vanishing on a flat are not its members"):
        incidence(arrangement(RootSystemId("A", 4)))


def test_cut_bound_reads_minus_2_63():
    # np.abs(-2^63) wraps in int64; a bound read through it kept this cut in
    # int64, where its row w_0 k_1 - w_1 k_0 = (-1, -3 2^63) wrapped
    bases, values = np.array([[[1, 0], [0, 3]]]), np.array([[-2 ** 63, 1]])
    assert rootarr._cut(bases, values).tolist() == [[[-1, -3 * 2 ** 63]]]


def test_census_is_pinned_flat_by_flat():
    # flat count and sha256 of the sorted (dim, sorted form indices) pairs
    pins = {
        ("A", 4): (50, "dda9fef37b68a8144186c8e2f441635458b6447ebbdbc17f52db559e249b333c"),
        ("B", 4): (114, "89e86aaec096052c540938e1f8b63d98d38bc6b4911f4e5f4b9dfe113ed3867f"),
        ("D", 4): (70, "c0c1a3942f5c43ace34e6a4052132e2ad386bc13021bd38346d5a25db47ccf4b"),
        ("F", 4): (266, "b6da61dc0237f931e27a9f195fe153a66d5c515e0737866d964568ed50bbaf2d"),
        ("E", 6): (4596, "c5f98f01292e78023e09c93148d8406bfc1eed6def6e2a1a32207bef79cfa008"),
    }
    for (fam, rank), pin in pins.items():
        flats = table_flats(cached_incidence(fam, rank))
        pairs = sorted((f.dim, tuple(sorted(f.forms))) for f in flats)
        assert (len(flats), hashlib.sha256(repr(pairs).encode()).hexdigest()) == pin


def test_incidence_double_count():
    # sum over forms of dim-j flats inside each form == sum_q q * t_q(j)
    for fam, rank in (("A", 4), ("D", 4), ("F", 4), ("E", 6)):
        tab = cached_incidence(fam, rank)
        nforms = len(tab.arrangement.forms)
        flats = table_flats(tab)
        dims = {f.dim for f in flats}
        for j in dims:
            per_form = sum(
                sum(1 for f in flats if f.dim == j and i in f.forms)
                for i in range(nforms)
            )
            weighted = sum(f.q for f in flats if f.dim == j)
            assert per_form == weighted


# -- genuine singular loci ---------------------------------------------------------


def test_a4_singular_locus():
    assert genuine_by_dim(cached_incidence("A", 4)) == {0: 5, 1: 10}


def test_b4_singular_locus():
    assert genuine_by_dim(cached_incidence("B", 4)) == {0: 12, 1: 22}


def test_d4_singular_locus():
    assert genuine_by_dim(cached_incidence("D", 4)) == {0: 12, 1: 16}


def test_f4_singular_locus():
    assert genuine_by_dim(cached_incidence("F", 4)) == {0: 24, 1: 50}


# -- weight systems ------------------------------------------------------------------


INF = float("inf")
NValue = Union[Fraction, float]  # Fraction, or INF when 1 - mu_i - mu_j = 0


@dataclass(frozen=True)
class DMParameters:
    """Branching numbers derived from a weight sextuple, and the verdict."""

    n_pairs: dict[tuple[int, int], NValue]
    n_triples: dict[tuple[int, int, int], NValue]
    accepted: bool
    failures: tuple[str, ...]


def _recip(v: NValue) -> Fraction:
    return Fraction(0) if v == INF else Fraction(1) / v


def dm_check(mu: Sequence[Union[int, Fraction]]) -> DMParameters:
    """Accept six weights iff they sum to 2 and every pair branching is integral.

    n_ij = (1 - mu_i - mu_j)^(-1) must be an integer or INF for all pairs.
    The triple numbers n_0ij = 2*(1/n_kl + 1/n_lm + 1/n_km)^(-1), taken over
    the complementary triple {k,l,m}, are derived data and reported as-is;
    they are not part of the acceptance condition.
    """
    if len(mu) != 6:
        raise ExactAlgError("exactly six weights required")
    w = tuple(Fraction(m) for m in mu)
    failures: list[str] = []
    total = sum(w)
    if total != 2:
        failures.append(f"weights sum to {total}, need 2")
    n_pairs: dict[tuple[int, int], NValue] = {}
    for i in range(6):
        for j in range(i + 1, 6):
            gap = 1 - w[i] - w[j]
            if gap == 0:
                n_pairs[(i, j)] = INF
            else:
                n = 1 / gap
                n_pairs[(i, j)] = n
                if n.denominator != 1:
                    failures.append(f"pair ({i},{j}) gives {n}, not an integer")
    n_triples: dict[tuple[int, int, int], NValue] = {}
    for i in range(1, 6):
        for j in range(i + 1, 6):
            rest = [k for k in range(1, 6) if k not in (i, j)]
            pairs = [(rest[0], rest[1]), (rest[1], rest[2]), (rest[0], rest[2])]
            s = sum((_recip(n_pairs[tuple(sorted(p))]) for p in pairs), Fraction(0))
            n_triples[(0, i, j)] = INF if s == 0 else 2 / s
    return DMParameters(n_pairs, n_triples, not failures, tuple(failures))


# the complete list of weight systems passing the check, up to reordering
SEVEN_WEIGHT_SYSTEMS: tuple[tuple[Fraction, ...], ...] = tuple(
    tuple(Fraction(a, b) for a, b in row)
    for row in (
        (((1, 3),) * 6),
        ((1, 2), (1, 2), (1, 4), (1, 4), (1, 4), (1, 4)),
        ((3, 4), (1, 4), (1, 4), (1, 4), (1, 4), (1, 4)),
        ((1, 2), (1, 3), (1, 3), (1, 3), (1, 3), (1, 6)),
        ((3, 8), (3, 8), (3, 8), (3, 8), (3, 8), (1, 8)),
        ((5, 12), (5, 12), (5, 12), (1, 4), (1, 4), (1, 4)),
        ((7, 12), (5, 12), (1, 4), (1, 4), (1, 4), (1, 4)),
    )
)


def test_all_seven_weight_systems_accepted():
    for row in SEVEN_WEIGHT_SYSTEMS:
        res = dm_check(row)
        assert res.accepted, res.failures


def test_uniform_thirds():
    res = dm_check([Fraction(1, 3)] * 6)
    assert res.accepted
    assert all(v == 3 for v in res.n_pairs.values())


def test_half_pair_gives_inf():
    res = dm_check((Fraction(1, 2), Fraction(1, 2), Fraction(1, 4),
                    Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
    assert res.accepted
    assert res.n_pairs[(0, 1)] == INF
    assert res.n_pairs[(2, 3)] == 2


def test_rejection_with_fractional_branching():
    res = dm_check([Fraction(2, 5)] * 5 + [Fraction(0)])
    assert not res.accepted
    assert any("5/3" in msg for msg in res.failures)


def test_triple_numbers_reported_not_enforced():
    # second row: complementary triples of three quarter-weights give 4/3
    res = dm_check(SEVEN_WEIGHT_SYSTEMS[1])
    assert res.accepted
    assert Fraction(4, 3) in res.n_triples.values()


def test_wrong_sum_rejected():
    res = dm_check([Fraction(1, 3)] * 5 + [Fraction(1, 2)])
    assert not res.accepted
    assert any("sum" in msg for msg in res.failures)


@given(st.integers(min_value=0, max_value=6_000_000_000))
@settings(max_examples=200, deadline=None)
def test_perturbed_weights_match_direct_arithmetic(seed):
    rng = random.Random(seed)
    base = list(rng.choice(SEVEN_WEIGHT_SYSTEMS))
    i, j = rng.sample(range(6), 2)
    base[i] += Fraction(1, 60)
    base[j] -= Fraction(1, 60)
    res = dm_check(base)
    expect_ok = sum(base) == 2
    for a in range(6):
        for b in range(a + 1, 6):
            gap = 1 - base[a] - base[b]
            if gap != 0 and (1 / gap).denominator != 1:
                expect_ok = False
    assert res.accepted == expect_ok
