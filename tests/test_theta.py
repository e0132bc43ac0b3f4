"""Theta constants: parity census, truncation bounds, classical identities."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgem import theta
from modgem.exactalg import _task_rng
from modgem.theta import (
    ALL_CHARS,
    MAX_RADIUS,
    TAIL_TARGET,
    IdentityReport,
    SiegelPoint,
    ThetaChar,
    ThetaError,
    classify_chars,
    identity_checks,
    maschke_residual,
    quartic_coordinates,
    quartic_relation,
    r1_residual,
    sample_point,
    theta_const,
    theta_constants,
)

DIAG_II = SiegelPoint.from_entries(1j, 0, 1j)


def _sampled(n, seed=0, task="test-points"):
    rng = _task_rng(seed, task)
    return [sample_point(rng) for _ in range(n)]


# -- characteristics ---------------------------------------------------------


def test_char_census():
    even, odd = classify_chars()
    assert len(ALL_CHARS) == 16
    assert len(even) == 10
    assert len(odd) == 6
    assert set(even) | set(odd) == set(ALL_CHARS)


def test_char_parity_examples():
    assert ThetaChar((0, 0, 0, 0)).parity == 1
    assert ThetaChar((1, 1, 1, 1)).parity == 1
    assert ThetaChar((1, 0, 1, 0)).parity == -1
    assert ThetaChar((0, 1, 0, 1)).parity == -1


def test_char_halves():
    c = ThetaChar((1, 0, 1, 1))
    assert c.upper == (Fraction(1, 2), Fraction(0))
    assert c.lower == (Fraction(1, 2), Fraction(1, 2))


def test_char_rejects_bad_bits():
    with pytest.raises(ThetaError):
        ThetaChar((0, 1, 2, 0))
    with pytest.raises(ThetaError):
        ThetaChar((0, 1, 0))


@given(st.tuples(*[st.integers(min_value=0, max_value=1)] * 4))
@settings(max_examples=16, deadline=None)
def test_char_parity_matches_dot_product(bits):
    c = ThetaChar(bits)
    i, j, k, l = bits
    assert c.parity == (-1) ** (i * k + j * l)


# -- Siegel points ------------------------------------------------------------


def test_point_rejects_asymmetric_tau():
    with pytest.raises(ThetaError):
        SiegelPoint(((1j, 0.1 + 1j), (0.2 + 1j, 1j)))


def test_point_rejects_indefinite_imaginary_part():
    with pytest.raises(ThetaError):
        SiegelPoint.from_entries(1j, 2j, 1j)
    with pytest.raises(ThetaError):
        SiegelPoint.from_entries(-1j, 0, 1j)


def test_point_min_eigenvalue():
    assert DIAG_II.imag_min_eig == pytest.approx(1.0)
    tilted = SiegelPoint.from_entries(2j, 1j, 2j)
    assert tilted.imag_min_eig == pytest.approx(1.0)


def test_sampled_points_stay_well_conditioned():
    for pt in _sampled(30):
        assert 0.5 <= pt.imag_min_eig <= 2.5


# -- lattice sums ---------------------------------------------------------------


def test_theta_0000_at_diag_ii():
    # product of two one-variable sums: (sum_n exp(-pi n^2))^2
    oracle = sum(math.exp(-math.pi * n * n) for n in range(-40, 41)) ** 2
    got = theta_const(ThetaChar((0, 0, 0, 0)), DIAG_II)
    assert got.value.real == pytest.approx(oracle, abs=1e-12)
    assert abs(got.value.imag) < 1e-12


def test_tail_bound_below_target():
    for pt in _sampled(10):
        val = theta_const(ThetaChar((0, 1, 1, 0)), pt)
        assert val.tail_bound < TAIL_TARGET
        assert val.radius <= MAX_RADIUS


def test_doubling_radius_is_stable():
    for pt in _sampled(6):
        for bits in ((0, 0, 0, 0), (1, 1, 1, 1), (0, 1, 0, 0)):
            c = ThetaChar(bits)
            base = theta_const(c, pt)
            fine = theta_const(c, pt, radius=2 * base.radius)
            scale = max(1.0, abs(fine.value))
            assert abs(base.value - fine.value) / scale < 1e-11


def test_odd_constants_vanish():
    _, odd = classify_chars()
    for pt in _sampled(8):
        for c in odd:
            assert abs(theta_const(c, pt).value) < 1e-11


def theta_const_genus1(a: Fraction, b: Fraction, t: complex, radius: int = 40) -> complex:
    """One-variable constant, used as an oracle at diagonal tau."""
    total = 0.0 + 0.0j
    af, bf = float(a), float(b)
    for n in range(-radius, radius + 1):
        v = n + af
        total += cmath.exp(2j * cmath.pi * (0.5 * v * v * t + v * bf))
    return total


def test_diagonal_tau_factors_into_genus1():
    rng = _task_rng(3, "diagonal-points")
    for _ in range(5):
        t0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6))
        t1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6))
        pt = SiegelPoint.from_entries(t0, 0, t1)
        for c in ALL_CHARS:
            whole = theta_const(c, pt).value
            a1, a2 = c.upper
            b1, b2 = c.lower
            split = theta_const_genus1(a1, b1, t0) * theta_const_genus1(a2, b2, t1)
            assert abs(whole - split) <= 1e-10 * max(1.0, abs(split))


def test_genus1_jacobi_identity():
    # theta_00^4 = theta_01^4 + theta_10^4 on the imaginary axis
    for im in (0.7, 1.0, 1.9):
        t = complex(0, im)
        t00 = theta_const_genus1(Fraction(0), Fraction(0), t)
        t01 = theta_const_genus1(Fraction(0), Fraction(1, 2), t)
        t10 = theta_const_genus1(Fraction(1, 2), Fraction(0), t)
        assert abs(t00 ** 4 - t01 ** 4 - t10 ** 4) < 1e-12 * abs(t00) ** 4


# -- classical identities --------------------------------------------------------


def test_maschke_identity_at_samples():
    for pt in _sampled(10, task="maschke"):
        assert maschke_residual(theta_constants(pt)) < 1e-12


def test_quartic_relation_at_samples():
    for pt in _sampled(10, task="quartic"):
        assert r1_residual(theta_constants(pt)) < 1e-12


def test_quartic_coordinates_nondegenerate():
    y = quartic_coordinates(theta_constants(DIAG_II))
    assert len(y) == 5
    assert all(abs(c) > 1e-6 for c in y[:3])
    # the two difference coordinates collapse at the diagonal split locus
    scale = sum(abs(c) for c in y) ** 4
    assert abs(quartic_relation(y)) < 1e-12 * scale


def test_quartic_relation_rejects_generic_input():
    # the relation is a genuine constraint, not an algebraic triviality
    fake = (1.0, 2.0, 3.0, 4.0, 5.0)
    assert abs(quartic_relation(fake)) > 1.0


# -- aggregated report -----------------------------------------------------------


@pytest.fixture(scope="module")
def report():
    return identity_checks(samples=20, seed=0, tol=1e-9)


def test_report_residuals(report):
    assert report.samples == 20
    assert len(report.rows) == 20
    assert report.maschke_max < 1e-9
    assert report.quartic_max < 1e-9
    assert report.odd_max < 1e-11


def test_report_rank_five(report):
    assert report.theta4_rank == 5
    sv = report.singular_values
    assert len(sv) == 10
    assert sv[4] / sv[0] > 1e-8
    assert sv[5] / sv[0] < 1e-10


def test_report_is_deterministic(report):
    again = identity_checks(samples=20, seed=0, tol=1e-9)
    assert isinstance(again, IdentityReport)
    assert again == report


def test_report_flags_a_tolerance_it_misses():
    rep = identity_checks(samples=12, seed=0, tol=1e-30)
    assert rep.flags() == {"maschke_below_tol": False, "quartic_below_tol": False,
                           "odd_max_small": True}
    assert rep.theta4_rank == 5
    assert not rep.passed


def test_report_sums_each_constant_once_per_point(monkeypatch):
    calls = []

    def counted(char, point, radius=None):
        calls.append(char)
        return theta_const(char, point, radius)

    monkeypatch.setattr(theta, "theta_const", counted)
    identity_checks(samples=12, seed=0)
    assert len(calls) == 16 * 12
    assert set(calls) == set(ALL_CHARS)


def test_constant_table_matches_the_lattice_sums():
    # the table picks the radius once per point; each constant is the one
    # `theta_const` gives alone, bit for bit
    for point in [DIAG_II] + _sampled(20, task="table-points"):
        table = theta_constants(point)
        assert set(table) == set(ALL_CHARS)
        assert all(table[c] == theta_const(c, point).value for c in ALL_CHARS)


def test_report_needs_enough_samples():
    with pytest.raises(ThetaError):
        identity_checks(samples=8, seed=0)
