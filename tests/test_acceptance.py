"""Acceptance gate: the twelve headline checks, one pass/fail line each.

Each test prints its line on success; a failure shows up as the usual
pytest assertion instead. Heavy reports are shared through module fixtures
so the gate stays in the minutes range.
"""

import time
from fractions import Fraction

import pytest

from modgem import cli, gems, lines27, nodalcy, rootarr, theta
from modgem.exactalg import SHADOW_PRIMES, monomials

CENSUS = cli.ARRANGEMENT_CENSUS


def _line(name: str, detail: str) -> None:
    print(f"[PASS] {name}: {detail}")


@pytest.fixture(scope="module")
def locus():
    return gems.i5_singular_locus()


@pytest.fixture(scope="module")
def dual():
    return gems.duality_pipeline(samples=200, biduality_samples=20)


def _two_prime_ranks(space) -> bool:
    full = len(monomials(space.nvars, space.degree))
    return (len(space.modular_ranks) == 2
            and all(r == full - space.dim for r in space.modular_ranks.values()))


def test_01_arrangement_census():
    start = time.perf_counter()
    for family, rank in (("A", 4), ("B", 4), ("D", 4), ("F", 4), ("E", 6)):
        table = rootarr.cached_incidence(family, rank)
        assert cli._census_of(table) == CENSUS[(family, rank)], (family, rank)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _line("arrangement census", f"A4 B4 D4 F4 E6 flat tables exact, {elapsed:.1f}s")


def test_02_line_configuration_census():
    st = lines27.enumerate_structures()
    assert st.counts() == {"tritangents": 45, "double_sixes": 36,
                           "trihedral_pairs": 120, "triads": 40,
                           "syzygetic_pairs": 270, "azygetic_triples": 120}
    mm = lines27.meets_matrix()
    meeting = sum(row.count(True) for row in mm) // 2
    assert (meeting, 351 - meeting) == (135, 216)
    enn = lines27.enneahedra()
    assert len(enn.partitions) == 200
    assert sorted(enn.orbit_sizes) == [40, 160]
    assert lines27.weyl_group().order == 51840
    _line("line configuration census",
          "45/36/135/216/120/40/270/120, 200 enneahedra {40,160}, group order 51840")


def test_03_ideal_dimensions(locus, dual):
    segre = gems.build_segre()
    md = lines27.macdonald_membership()
    spaces = {"segre node quadrics": (segre.node_quadrics, 5),
              "singular-line quartics": (locus.jacobian_quartics, 6),
              "image-line cubics": (dual.line_cubics, 5)}
    for name, (space, dim) in spaces.items():
        assert space.dim == dim, name
        assert _two_prime_ranks(space), name
    assert md.dims == {"cubics_on_36_points": 20, "cubics_on_27_points": 30,
                       "quartics_on_45_lines": 15, "sextics_on_216_lines": 24}
    assert all(len(ranks) == 2 for ranks in md.modular_ranks.values())
    assert all(md.memberships.values())
    _line("ideal dimensions", "5/20/30/15/24/6/5 exact, each rank repeated mod "
          f"{SHADOW_PRIMES[0]} and {SHADOW_PRIMES[1]}")


def test_04_hypersurface_identities():
    hess = gems.hessian_equals_nieto()
    assert hess.scalar == 7776 and hess.determinant_identity
    quintic = gems.build_invariant_quintic(words=100)
    assert quintic.generator_checks == 6
    assert quintic.word_checks == 100
    assert quintic.symmetric_scalar == Fraction(-3, 8)
    assert quintic.power_scalars == {2: Fraction(6), 5: Fraction(-5, 54)}
    _line("hypersurface identities",
          "Hessian scalar 7776, double-six model -3/8, power sums {2: 6, 5: -5/54}, "
          "invariance at 6 generators + 100 words")


def test_05_singular_loci(locus):
    assert (locus.line_count, locus.point_count) == (120, 36)
    assert (locus.lines_per_point, locus.points_per_line) == (10, 3)
    assert len(locus.third_order_witness) == 36
    nieto = gems.build_nieto()
    assert (len(nieto.lines), len(nieto.nodes)) == (20, 10)
    per_point = [sum(ln.contains(pt) for ln in nieto.lines)
                 for pt in nieto.cross_points]
    per_line = [sum(ln.contains(pt) for pt in nieto.cross_points)
                for ln in nieto.lines]
    assert set(per_point) == {4} and set(per_line) == {3}
    _line("singular loci", "quintic: 120 lines, 36 triple points, 10 per point, "
          "3 per line; symmetric quintic: 20 lines + 10 nodes, crossings 4/3")


def test_06_subspace_containments():
    sub = gems.linear_subspaces_i5()
    assert sub.p3_count == 45
    assert len(sub.hyperplane_scalars) == 27
    assert sub.quotient_scalar == 243
    assert (sub.p3_per_hyperplane, sub.hyperplanes_per_p3) == (5, 3)
    segre = gems.build_segre()
    nieto = gems.build_nieto()
    assert len(segre.planes) == 15
    assert len(nieto.matching_planes) == 15 and len(nieto.coordinate_planes) == 15
    restr = gems.restriction_arrangements()
    assert (len(restr.root_classes), len(restr.weight_classes)) == (24, 12)
    _line("subspace containments", "45 solids, 27 split sections (quotient scalar "
          "243), 15 planes on the cubic, 30 on the symmetric quintic, "
          "restrictions 24 + 12")


def test_07_rationalization():
    rep = gems.rationalize_i5(exact_samples=50, modular_samples=10 ** 4,
                              roundtrip_samples=25)
    assert rep.exact_checked == 50
    assert rep.modular_checked == {p: 10 ** 4 for p in SHADOW_PRIMES}
    assert all(bound < -1000 for bound in rep.failure_log10.values())
    assert rep.roundtrip_phi_psi == 25 and rep.roundtrip_psi_phi == 25
    _line("rationalization", "octic image on the quintic at 50 exact + 2x10^4 "
          "modular samples, both round trips at 25 samples")


def test_08_duality_pipeline(dual):
    assert dual.fitted_dim == 1
    assert len(dual.image_lines) == 15
    assert dual.biduality_checked == 20
    _line("duality pipeline",
          "fitted quartic space 1-dim at 200 samples, 15 contracted lines, "
          "biduality at 20 samples")


def test_09_theta_numerics():
    start = time.perf_counter()
    rep = theta.identity_checks(samples=20, seed=0, tol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert rep.odd_max < 1e-11
    assert rep.maschke_max < 1e-9 and rep.quartic_max < 1e-9
    assert rep.theta4_rank == 5
    _line("theta numerics", f"odd max {rep.odd_max:.1e}, octic {rep.maschke_max:.1e}, "
          f"quartic {rep.quartic_max:.1e}, rank 5, {elapsed:.1f}s")


def test_10_nodal_sections():
    for seed in range(10):
        rep = nodalcy.section_report(nodalcy.generic_section(seed), seed=seed)
        got = (rep.node_count, rep.quintic_dim, rep.defect, rep.h11, rep.h21, rep.euler)
        assert got == (120, 30, 24, 25, 5, 40), seed
    for seed in range(5):
        rep = nodalcy.section_report(nodalcy.tangent_section(seed), seed=seed)
        got = (rep.node_count, rep.quintic_dim, rep.defect, rep.euler)
        assert got == (121, 29, 24, 42), seed
    _line("nodal sections", "generic (120, 30, 24, 25, 5, 40) at 10 draws, "
          "tangent (121, 29, 24, e=42) at 5 draws")


def test_11_incidence_complex_ranks():
    ranks = lines27.incidence_complex_ranks()
    assert ranks.tritangent_line == {"rows": 45, "cols": 27, "rank": 21,
                                     "kernel": 24, "cokernel": 6}
    assert ranks.segre_hyperplane_plane == {"rows": 15, "cols": 15, "rank": 10,
                                            "kernel": 5, "cokernel": 5}
    _line("incidence ranks", "45x27 rank 21 (kernel 24, cokernel 6), "
          "15x15 rank 10 (kernel 5)")


def test_12_determinism(tmp_path):
    paths = [tmp_path / f"report{i}.json" for i in range(2)]
    argv = ["run", "all", "--seed", "42"]
    assert cli.main(argv + ["--json", str(paths[0])]) == 0
    assert cli.main(argv + ["--json", str(paths[1])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    _line("determinism", "run all --seed 42 byte-identical across two runs")
