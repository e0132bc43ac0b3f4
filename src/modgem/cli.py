"""Verification driver: one ordered table of checks, each emitting a certificate.

Each `Check` entry holds a name, claim, expected value and computation; a
suite is the prefix of its checks' names. Reports are canonical: certificates
are sorted by check name, every value is serialized through one deterministic
encoder, and nothing time-dependent is recorded, so rerunning a suite with the
same seed reproduces the report byte for byte. A check that raises becomes a
failed certificate under its own name rather than aborting the run; claims
that the package cannot certify are emitted explicitly with status
"unverified" instead of being skipped in silence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from . import exactalg, gems, lines27, nodalcy, rootarr, theta
from .exactalg import ExactAlgError, _seed_digest

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by every check; echoed verbatim into each report.

    seed drives all sampling through per-check derived seeds; samples scales
    the sampling checks up from their contractual minimums; tol is the
    numeric tolerance for the theta residuals. The echo also lists the primes
    behind every modular cross-check, read from `exactalg.SHADOW_PRIMES`.
    """

    seed: int = 0
    samples: int = 20
    tol: float = 1e-9

    def as_dict(self) -> dict:
        return {"seed": self.seed, "samples": self.samples, "tol": self.tol,
                "primes": list(exactalg.SHADOW_PRIMES)}


@dataclass(frozen=True)
class VerificationCertificate:
    """One checked claim: what was expected, what came out, and whether they agree."""

    check: str
    claim: str
    status: str
    expected: str
    computed: str
    inputs_digest: str
    seed: int

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def as_dict(self) -> dict:
        return {"check": self.check, "claim": self.claim, "status": self.status,
                "expected": self.expected, "computed": self.computed,
                "inputs_digest": self.inputs_digest, "seed": self.seed}


def _derived_seed(master: int, check: str) -> int:
    return int.from_bytes(_seed_digest(master, check)[:4], "big")


def _canon(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True)


@dataclass(frozen=True)
class Check:
    """One claim, its expected value, and the computation that certifies it.

    name is "<suite>/<check>". expected is a literal, or a function of the
    config for the checks whose count follows --samples. compute(cfg, seed)
    returns the computed value, where seed is derived from the master seed
    and the name; a claim with no compute is recorded as "unverified".
    """

    name: str
    claim: str
    expected: Any
    compute: Callable[[SuiteConfig, int], Any] | None

    @property
    def suite(self) -> str:
        return self.name.split("/")[0]

    def __call__(self, cfg: SuiteConfig) -> VerificationCertificate:
        seed = _derived_seed(cfg.seed, self.name)
        expected = _canon(self.expected(cfg) if callable(self.expected) else self.expected)
        if self.compute is None:
            status, computed = "unverified", "unverified"
        else:
            try:
                computed = _canon(self.compute(cfg, seed))
            except Exception as exc:  # a failing check must not abort the suite
                computed = f"error: {exc}"
            status = "pass" if computed == expected else "fail"
        digest = hashlib.sha256(json.dumps(
            {**cfg.as_dict(), "check": self.name, "seed": seed},
            sort_keys=True).encode()).hexdigest()[:16]
        return VerificationCertificate(self.name, self.claim, status, expected,
                                       computed, digest, seed)


# -- the table of checks -------------------------------------------------------------------

ARRANGEMENT_CENSUS = {
    ("A", 4): {2: {1: 10}, 1: {2: 15, 3: 10}, 0: {4: 10, 6: 5}},
    ("B", 4): {2: {1: 16}, 1: {2: 36, 3: 16, 4: 6},
               0: {4: 16, 5: 12, 6: 8, 9: 4}},
    ("D", 4): {2: {1: 12}, 1: {2: 18, 3: 16}, 0: {3: 12, 6: 12}},
    ("F", 4): {2: {1: 24}, 1: {2: 72, 3: 32, 4: 18}, 0: {4: 96, 9: 24}},
    ("E", 6): {4: {1: 36}, 3: {2: 270, 3: 120}, 2: {3: 540, 4: 720, 6: 270},
               1: {5: 1080, 6: 120, 7: 540, 10: 216, 12: 45},
               0: {7: 360, 11: 216, 15: 36, 20: 27}},
}


def _census_of(table) -> dict:
    """Flat counts by dimension and multiplicity, from the table's levels:
    a flat's q is the bit count of its form mask."""
    by: dict[int, dict[int, int]] = {}
    for bases, masks in table.levels:
        counts = by.setdefault(bases.shape[1] - 1, {})
        for q in (mask.bit_count() for mask in masks.tolist()):
            counts[q] = counts.get(q, 0) + 1
    return by


def _arrangement_census(family: str, rank: int, cfg: SuiteConfig, seed: int) -> dict:
    return _census_of(rootarr.cached_incidence(family, rank))


CHECKS: list[Check] = [
    Check(f"arrangements/census-{family.lower()}{rank}",
          f"flat census of the {family}{rank} reflection arrangement, "
          "counted by dimension and multiplicity",
          census, partial(_arrangement_census, family, rank))
    for (family, rank), census in ARRANGEMENT_CENSUS.items()]


def _entry(name: str, claim: str, expected):
    """Decorator: appends its function to CHECKS as the compute of this claim."""
    def add(compute):
        CHECKS.append(Check(name, claim, expected, compute))
        return compute
    return add


@_entry("lines27/structures", "combinatorial census of the 27-line configuration",
        {"tritangents": 45, "double_sixes": 36, "trihedral_pairs": 120,
         "triads": 40, "syzygetic_pairs": 270, "azygetic_triples": 120,
         "meeting_pairs": 135, "skew_pairs": 216})
def _(cfg, seed):
    counts = dict(lines27.enumerate_structures().counts())
    mm = lines27.meets_matrix()
    counts["meeting_pairs"] = sum(row.count(True) for row in mm) // 2
    counts["skew_pairs"] = 27 * 26 // 2 - counts["meeting_pairs"]
    return counts


@_entry("lines27/enneahedra",
        "nine-tritangent partitions of the 27 lines and their orbit split",
        {"partitions": 200, "orbit_sizes": [40, 160]})
def _(cfg, seed):
    rep = lines27.enneahedra()
    return {"partitions": len(rep.partitions), "orbit_sizes": sorted(rep.orbit_sizes)}


@_entry("lines27/weyl-order", "order of the incidence-preserving permutation group",
        51840)
def _(cfg, seed):
    return lines27.weyl_group().order


@_entry("lines27/incidence-ranks",
        "exact ranks of the two incidence matrices, prime-checked",
        {"tritangent_line": {"rows": 45, "cols": 27, "rank": 21,
                             "kernel": 24, "cokernel": 6},
         "segre_hyperplane_plane": {"rows": 15, "cols": 15, "rank": 10,
                                    "kernel": 5, "cokernel": 5}})
def _(cfg, seed):
    ranks = lines27.incidence_complex_ranks()
    return {"tritangent_line": ranks.tritangent_line,
            "segre_hyperplane_plane": ranks.segre_hyperplane_plane}


@_entry("lines27/ideal-dimensions",
        "dimensions of the form spaces vanishing on the four classical loci",
        {"dims": {"cubics_on_36_points": 20, "cubics_on_27_points": 30,
                  "quartics_on_45_lines": 15, "sextics_on_216_lines": 24},
         "memberships": True})
def _(cfg, seed):
    rep = lines27.macdonald_membership()
    return {"dims": rep.dims, "memberships": all(rep.memberships.values())}


@_entry("segre/model", "ten nodes, fifteen planes, and the quadrics through the nodes",
        {"nodes": 10, "planes": 15, "node_quadrics_dim": 5, "pair_scalars": ["3"]})
def _(cfg, seed):
    model = gems.build_segre(seed=seed, offnode_samples=cfg.samples)
    return {"nodes": len(model.nodes), "planes": len(model.planes),
            "node_quadrics_dim": model.node_quadrics.dim,
            "pair_scalars": sorted({str(s) for s in model.hyperplane_scalars.values()})}


@_entry("segre/parametrization",
        "the quadric parametrization lands on the cubic at every sample",
        lambda cfg: {"samples_on_cubic": max(10, cfg.samples)})
def _(cfg, seed):
    rep = gems.segre_param(seed=seed, samples=max(10, cfg.samples))
    return {"samples_on_cubic": rep.samples_on_cubic}


@_entry("segre/sections", "diagonal and Cayley hyperplane sections behave classically",
        {"diagonal_identity": True, "cayley_nodes": 4, "squaring_identity": True})
def _(cfg, seed):
    rep = gems.auxiliary_sections()
    return {"diagonal_identity": rep.diagonal_identity,
            "cayley_nodes": rep.cayley_nodes,
            "squaring_identity": rep.squaring_identity}


@_entry("nieto/model", "singular lines, points, and the thirty planes of the quintic",
        {"lines": 20, "nodes": 10, "cross_points": 15, "matching_planes": 15,
         "coordinate_planes": 15, "coordinate_scalars": ["1"]})
def _(cfg, seed):
    model = gems.build_nieto()
    return {"lines": len(model.lines), "nodes": len(model.nodes),
            "cross_points": len(model.cross_points),
            "matching_planes": len(model.matching_planes),
            "coordinate_planes": len(model.coordinate_planes),
            "coordinate_scalars": sorted({str(s) for s in
                                          model.coordinate_scalars.values()})}


@_entry("nieto/hessian",
        "the Hessian of the cubic chart equals the quintic chart up to 6^5",
        {"scalar": "7776", "determinant_identity": True, "singular_nodes": 10})
def _(cfg, seed):
    rep = gems.hessian_equals_nieto()
    return {"scalar": str(rep.scalar),
            "determinant_identity": rep.determinant_identity,
            "singular_nodes": rep.singular_nodes}


@_entry("quintic/invariance",
        "reflection invariance, the double-six model, and both power sums",
        lambda cfg: {"generators": 6, "words": max(100, cfg.samples),
                     "double_six_scalar": "-3/8",
                     "power_scalars": {"2": "6", "5": "-5/54"}})
def _(cfg, seed):
    rep = gems.build_invariant_quintic(seed=seed, words=max(100, cfg.samples))
    return {"generators": rep.generator_checks, "words": rep.word_checks,
            "double_six_scalar": str(rep.symmetric_scalar),
            "power_scalars": {str(k): str(v)
                              for k, v in sorted(rep.power_scalars.items())}}


@_entry("quintic/singular-locus",
        "the 120 singular lines, 36 triple points, and their quartic ideal",
        {"lines": 120, "points": 36, "wall_lines": 40, "lines_per_point": 10,
         "points_per_line": 3, "jacobian_quartics_dim": 6})
def _(cfg, seed):
    rep = gems.i5_singular_locus(seed=seed, offline_samples=cfg.samples)
    return {"lines": rep.line_count, "points": rep.point_count,
            "wall_lines": rep.lines_in_simplex_wall,
            "lines_per_point": rep.lines_per_point,
            "points_per_line": rep.points_per_line,
            "jacobian_quartics_dim": rep.jacobian_quartics.dim}


@_entry("quintic/subspaces",
        "the 45 solid subspaces and the 27 split hyperplane sections",
        {"p3_count": 45, "p3_per_hyperplane": 5, "hyperplanes_per_p3": 3,
         "split_scalars": ["648"], "quotient_scalar": "243",
         "simplex_scalar": "-648"})
def _(cfg, seed):
    rep = gems.linear_subspaces_i5()
    return {"p3_count": rep.p3_count,
            "p3_per_hyperplane": rep.p3_per_hyperplane,
            "hyperplanes_per_p3": rep.hyperplanes_per_p3,
            "split_scalars": sorted({str(abs(s)) for s in
                                     rep.hyperplane_scalars.values()}),
            "quotient_scalar": str(rep.quotient_scalar),
            "simplex_scalar": str(rep.simplex_scalar)}


@_entry("quintic/restrictions",
        "restricting both form families to a singular line's plane",
        {"root_classes": 24, "weight_classes": 12,
         "vanishing_labels": ["a1", "b2", "c12"]})
def _(cfg, seed):
    rep = gems.restriction_arrangements()
    return {"root_classes": len(rep.root_classes),
            "weight_classes": len(rep.weight_classes),
            "vanishing_labels": sorted(rep.vanishing_labels)}


@_entry("quintic/rationalization",
        "the degree-8 inverse lands on the quintic and inverts the quartic map",
        lambda cfg: {"exact": max(50, cfg.samples),
                     "modular": {str(p): 10 ** 4 for p in exactalg.SHADOW_PRIMES},
                     "bounds_tiny": True, "roundtrips": [25, 25]})
def _(cfg, seed):
    rep = gems.rationalize_i5(seed=seed, exact_samples=max(50, cfg.samples),
                              modular_samples=10 ** 4, roundtrip_samples=25)
    return {"exact": rep.exact_checked,
            "modular": {str(p): n for p, n in sorted(rep.modular_checked.items())},
            "bounds_tiny": all(b < -1000 for b in rep.failure_log10.values()),
            "roundtrips": [rep.roundtrip_phi_psi, rep.roundtrip_psi_phi]}


@_entry("quintic/triple-cone",
        "tangent-cone splitting at a triple point with its ten directions",
        {"dual_scalar": "-1", "directions": 10, "direction_quadrics_dim": 5})
def _(cfg, seed):
    cone = gems.triple_point_cone("h23")
    return {"dual_scalar": str(cone.dual_scalar),
            "directions": len(cone.directions),
            "direction_quadrics_dim": cone.direction_quadrics.dim}


CHECKS.append(Check(
    "quintic/base-locus",
    "the six degree-8 coordinates of the inverse map share a base "
    "surface of degree 32; recorded from the classical count, "
    "no exact degree computation is implemented here",
    "unverified", None))


@_entry("duality/pipeline",
        "gradient images of the cubic fit one quartic; planes contract "
        "to 15 lines; the round trip is the identity",
        {"fitted_dim": 1, "image_lines": 15, "line_cubics_dim": 5,
         "biduality_checked": 20})
def _(cfg, seed):
    rep = gems.duality_pipeline(seed=seed, samples=max(200, cfg.samples),
                                biduality_samples=20)
    return {"fitted_dim": rep.fitted_dim, "image_lines": len(rep.image_lines),
            "line_cubics_dim": rep.line_cubics.dim,
            "biduality_checked": rep.biduality_checked}


@_entry("theta/identities",
        "octic and quartic constant identities hold at every sampled point",
        lambda cfg: {"samples": max(theta.MIN_SAMPLES, cfg.samples),
                     "maschke_below_tol": True, "quartic_below_tol": True,
                     "odd_max_small": True, "theta4_rank": 5})
def _(cfg, seed):
    rep = theta.identity_checks(samples=max(theta.MIN_SAMPLES, cfg.samples), seed=seed,
                                tol=cfg.tol)
    return {"samples": rep.samples, **rep.flags(), "theta4_rank": rep.theta4_rank}


NODAL_COLUMNS = ("nodes", "quintic_dim", "defect", "h11", "h21", "euler")


def _nodal_computed(rep: nodalcy.NodalSectionReport) -> dict:
    return {"nodes": rep.node_count, "quintic_dim": rep.quintic_dim,
            "defect": rep.defect, "h11": rep.h11, "h21": rep.h21,
            "euler": rep.euler}


@_entry("nodal/generic", "a generic hyperplane section has 120 nodes and defect 24",
        {"nodes": 120, "quintic_dim": 30, "defect": 24, "h11": 25, "h21": 5, "euler": 40})
def _(cfg, seed):
    return _nodal_computed(nodalcy.section_report(nodalcy.generic_section(seed), seed=seed))


@_entry("nodal/tangent", "a tangent hyperplane section has 121 nodes and defect 24",
        {"nodes": 121, "quintic_dim": 29, "defect": 24, "h11": 25, "h21": 4, "euler": 42})
def _(cfg, seed):
    return _nodal_computed(nodalcy.section_report(nodalcy.tangent_section(seed), seed=seed))


SUITES: dict[str, tuple] = {
    suite: tuple(c for c in CHECKS if c.suite == suite)
    for suite in dict.fromkeys(c.suite for c in CHECKS)}


# -- suite runner --------------------------------------------------------------------------


def run_suite(suite: str, cfg: SuiteConfig) -> list[VerificationCertificate]:
    """All certificates of one suite (or of every suite, for "all"), sorted."""
    if suite == "all":
        checks = [c for group in SUITES.values() for c in group]
    elif suite in SUITES:
        checks = SUITES[suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return sorted((check(cfg) for check in checks), key=lambda c: c.check)


def report_dict(suite: str, cfg: SuiteConfig,
                certs: list[VerificationCertificate]) -> dict:
    statuses = [c.status for c in certs]
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "config": cfg.as_dict(),
        "summary": {"pass": statuses.count("pass"),
                    "fail": statuses.count("fail"),
                    "unverified": statuses.count("unverified")},
        "certificates": [c.as_dict() for c in certs],
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


LINE_ROWS = (("tritangent planes", "tritangents"), ("double sixes", "double_sixes"),
             ("meeting pairs", "meeting_pairs"), ("skew pairs", "skew_pairs"),
             ("trihedral pairs", "trihedral_pairs"), ("triads", "triads"),
             ("syzygetic pairs", "syzygetic_pairs"),
             ("azygetic triples", "azygetic_triples"))


def _decoded(computed: str):
    """A computed dict parsed back from its canonical JSON; anything else as it came."""
    try:
        value = json.loads(computed)
    except ValueError:
        return computed
    return value if isinstance(value, dict) else computed


def render_table(suite: str, certs: list[VerificationCertificate]) -> str:
    """Fixed-width text: census tables of the computed values, then the certificates.

    A check that did not compute its table, such as one that raised, shows
    its computed string in place of the table row.
    """
    got = {c.check: _decoded(c.computed) for c in certs}
    blocks = []

    census = [c.name for c in CHECKS if c.suite == "arrangements" and c.name in got]
    if census:
        lines = ["arrangement flat census (dimension, multiplicity, count)"]
        for name in census:
            table = got[name]
            if isinstance(table, dict):
                table = "  ".join(f"t{q}({dim})={table[dim][q]}"
                                  for dim in sorted(table, key=int, reverse=True)
                                  for q in sorted(table[dim], key=int))
            lines.append(f"  {name.split('-')[1].upper()}: {table}")
        blocks.append("\n".join(lines))

    if "lines27/structures" in got:
        counts = got["lines27/structures"]
        lines = ["line configuration census"]
        if isinstance(counts, dict):
            lines += [f"  {label:<18} {counts[key]:>4}" for label, key in LINE_ROWS]
        else:
            lines.append(f"  {counts}")
        blocks.append("\n".join(lines))

    nodal = [c.name for c in CHECKS if c.suite == "nodal" and c.name in got]
    if nodal:
        lines = ["nodal sections (nodes, quintics through them, defect, h11, h21, e)"]
        for name in nodal:
            row = got[name]
            if isinstance(row, dict):
                row = " ".join(str(row[key]) for key in NODAL_COLUMNS)
            lines.append(f"  {name.split('/')[1]}: {row}")
        blocks.append("\n".join(lines))

    width = max(len(c.check) for c in certs)
    lines = ["certificates"]
    lines += [f"  [{c.status:>10}] {c.check:<{width}}  {c.computed}" for c in certs]
    blocks.append("\n".join(lines))
    return f"suite: {suite}\n\n" + "\n\n".join(blocks) + "\n"


# -- entry points ----------------------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = SuiteConfig(seed=args.seed, samples=args.samples, tol=args.tol)
    certs = run_suite(args.suite, cfg)
    report = report_dict(args.suite, cfg, certs)
    try:
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(render_json(report))
        if args.table:
            with open(args.table, "w") as fh:
                fh.write(render_table(args.suite, certs))
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    for c in certs:
        print(f"[{c.status:>10}] {c.check}")
    s = report["summary"]
    print(f"suite {args.suite}: {s['pass']} pass, {s['fail']} fail, "
          f"{s['unverified']} unverified")
    return 0 if s["fail"] == 0 else 1


def _cmd_theta_verify(args) -> int:
    try:
        rep = theta.identity_checks(samples=args.samples, seed=args.seed, tol=args.tol)
    except theta.ThetaError as exc:
        print(f"theta identities failed: {exc}", file=sys.stderr)
        return 1
    if args.csv:
        rows = ["sample,maschke,quartic,odd_max"]
        rows += [f"{i},{r.maschke!r},{r.quartic!r},{r.odd_max!r}"
                 for i, r in enumerate(rep.rows)]
        try:
            with open(args.csv, "w") as fh:
                fh.write("\n".join(rows) + "\n")
        except OSError as exc:
            print(f"cannot write csv: {exc}", file=sys.stderr)
            return 2
    print(f"samples {rep.samples}  maschke_max {rep.maschke_max:.3e}  "
          f"quartic_max {rep.quartic_max:.3e}  odd_max {rep.odd_max:.3e}  "
          f"theta4_rank {rep.theta4_rank}")
    return 0 if rep.passed else 1


def _cmd_nodalcy_report(args) -> int:
    try:
        spec = (nodalcy.generic_section(args.seed) if args.kind == "generic"
                else nodalcy.tangent_section(args.seed))
        rep = nodalcy.section_report(spec, seed=args.seed)
    except ExactAlgError as exc:
        print(f"nodal report failed: {exc}", file=sys.stderr)
        return 1
    payload = {**_nodal_computed(rep), "kind": rep.kind, "b2": rep.b2, "b3": rep.b3,
               "seed": args.seed}
    if args.json:
        try:
            with open(args.json, "w") as fh:
                fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    for key in ("kind", "nodes", "quintic_dim", "defect", "h11", "h21",
                "b2", "b3", "euler"):
        print(f"{key} {payload[key]}")
    return 0


def _at_least(minimum: float, kind: Callable[[str], Any] = int) -> Callable[[str], Any]:
    """Argument type: a finite number of the given kind, no smaller than minimum."""
    def number(text: str):
        value = kind(text)
        if not minimum <= value < math.inf:  # a nan fails both comparisons
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum} and finite, got {value}")
        return value
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modgem",
        description="exact verification suites for the classical modular hypersurfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a verification suite")
    run.add_argument("suite", choices=(*SUITES, "all"))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--samples", type=_at_least(1), default=20)
    run.add_argument("--tol", type=_at_least(0, float), default=1e-9)
    run.add_argument("--json", metavar="PATH", help="write the canonical JSON report")
    run.add_argument("--table", metavar="PATH", help="write the text tables")
    run.set_defaults(func=_cmd_run)

    th = sub.add_parser("theta", help="theta constant checks")
    thsub = th.add_subparsers(dest="theta_command", required=True)
    verify = thsub.add_parser("verify", help="run the identity checks")
    verify.add_argument("--samples", type=_at_least(theta.MIN_SAMPLES), default=20)
    verify.add_argument("--tol", type=_at_least(0, float), default=1e-9)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--csv", metavar="PATH", help="write per-sample residuals")
    verify.set_defaults(func=_cmd_theta_verify)

    nd = sub.add_parser("nodalcy", help="nodal hyperplane sections")
    ndsub = nd.add_subparsers(dest="nodalcy_command", required=True)
    rep = ndsub.add_parser("report", help="node census and derived topology")
    rep.add_argument("--kind", choices=("generic", "tangent"), required=True)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--json", metavar="PATH", help="write the JSON payload")
    rep.set_defaults(func=_cmd_nodalcy_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
