"""Driver tests: suite registry, certificates, canonical reports, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from modgem import cli, exactalg, gems, lines27, nodalcy, rootarr, theta
from modgem.exactalg import DRAWS_PER_RESULT, MPoly, ProjPoint

import flat_records


@pytest.fixture(scope="module")
def segre_certs():
    return cli.run_suite("segre", cli.SuiteConfig())


def _entry(name):
    return next(c for c in cli.CHECKS if c.name == name)


def test_registry_names():
    assert list(cli.SUITES) == ["arrangements", "lines27", "segre", "nieto", "quintic",
                                "duality", "theta", "nodal"]
    assert all(c.suite == suite for suite, group in cli.SUITES.items() for c in group)
    assert [c for group in cli.SUITES.values() for c in group] == cli.CHECKS
    assert len({c.name for c in cli.CHECKS}) == len(cli.CHECKS) == 26


def test_python_dash_m_runs_the_cli(tmp_path):
    # a checkout without the installed console script: modgem found on PYTHONPATH
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-m", "modgem", "run", "segre"], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "suite segre: 3 pass, 0 fail, 0 unverified" in done.stdout


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_sets_one_blas_thread_unless_the_caller_chose(preset):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c",
                           "import os, modgem; print(os.environ['OPENBLAS_NUM_THREADS'])"],
                          env={**env, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == (preset or "1")


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        cli.run_suite("nosuch", cli.SuiteConfig())


def test_certs_sorted_and_passing(segre_certs):
    names = [c.check for c in segre_certs]
    assert names == sorted(names)
    assert all(c.status == "pass" for c in segre_certs)
    assert all(c.passed for c in segre_certs)


def test_cert_fields(segre_certs):
    cert = segre_certs[0]
    assert cert.check == "segre/model"
    assert cert.expected == cert.computed
    assert len(cert.inputs_digest) == 16
    assert cert.seed == cli._derived_seed(0, "segre/model")
    assert cert.claim and "segre" not in cert.claim  # claims are plain language


def test_derived_seeds_differ():
    seeds = {cli._derived_seed(0, c.check) for c in
             cli.run_suite("nieto", cli.SuiteConfig())}
    assert len(seeds) == 2


def test_report_dict_shape(segre_certs):
    report = cli.report_dict("segre", cli.SuiteConfig(seed=7), segre_certs)
    assert report["schema"] == cli.SCHEMA_VERSION
    assert report["suite"] == "segre"
    assert report["config"] == {"seed": 7, "samples": 20, "tol": 1e-9,
                                "primes": list(exactalg.SHADOW_PRIMES)}
    assert report["summary"] == {"pass": 3, "fail": 0, "unverified": 0}
    assert [c["check"] for c in report["certificates"]] == [c.check for c in segre_certs]


def test_unverified_certificate():
    cert = _entry("quintic/base-locus")(cli.SuiteConfig())
    assert cert.status == "unverified"
    assert cert.passed
    report = cli.report_dict("quintic", cli.SuiteConfig(), [cert])
    assert report["summary"] == {"pass": 0, "fail": 0, "unverified": 1}


def test_a_value_json_cannot_encode_fails_its_check():
    # the report holds JSON-native values only: a Fraction is an error, not a string
    check = cli.Check("nieto/model", "a claim", "1/2", lambda cfg, seed: Fraction(1, 2))
    cert = check(cli.SuiteConfig())
    assert cert.status == "fail"
    assert cert.computed.startswith("error:")


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


def test_raising_check_keeps_name_seed_and_position(tmp_path, monkeypatch):
    monkeypatch.setattr(gems, "build_nieto", _boom)
    path = tmp_path / "r.json"
    assert cli.main(["run", "nieto", "--json", str(path)]) == 1
    certs = json.loads(path.read_text())["certificates"]
    assert [c["check"] for c in certs] == ["nieto/hessian", "nieto/model"]
    model = certs[1]
    assert model["status"] == "fail"
    assert model["computed"] == "error: boom"
    assert model["seed"] == cli._derived_seed(0, "nieto/model")
    assert model["claim"] == _entry("nieto/model").claim


def test_raising_arrangement_checks_keep_their_names(tmp_path, monkeypatch):
    monkeypatch.setattr(rootarr, "cached_incidence", _boom)
    certs = cli.run_suite("arrangements", cli.SuiteConfig())
    assert [c.check for c in certs] == [f"arrangements/census-{t}"
                                        for t in ("a4", "b4", "d4", "e6", "f4")]
    assert all(c.status == "fail" and c.computed == "error: boom" for c in certs)
    path = tmp_path / "t.txt"
    assert cli.main(["run", "arrangements", "--table", str(path)]) == 1
    text = path.read_text()
    for label in ("A4", "B4", "D4", "F4", "E6"):
        assert f"  {label}: error: boom\n" in text
    assert "t1(2)=10" not in text  # no expected census printed in place of a result


def test_e6_census_builds_no_flat(monkeypatch):
    # the census counts each level's (dim, mask bit count); `Flat` records
    # are made only when a test unpacks the levels
    made = []
    real = flat_records.Flat
    monkeypatch.setattr(flat_records, "Flat", lambda *args: made.append(args) or real(*args))
    rootarr.cached_incidence.cache_clear()
    cert = _entry("arrangements/census-e6")(cli.SuiteConfig())
    assert (cert.status, len(made)) == ("pass", 0)
    assert not hasattr(rootarr, "Flat")
    flats = flat_records.table_flats(rootarr.cached_incidence("E", 6))
    assert len(flats) == len(made) == 4596


def test_run_all_expands_no_linear_form_alone(tmp_path, monkeypatch):
    # every restriction and substitution goes through `exactalg._expanded`;
    # a linear form is expanded in a batch, never alone under one map. A value
    # at a point (`MPoly.eval`: constant images, in no variables) is no map
    calls = []
    real = exactalg._expanded

    def spy(forms, target, variables, factors, dens):
        if target:
            calls.append(([f.degree() for f in forms], len(dens)))
        return real(forms, target, variables, factors, dens)

    monkeypatch.setattr(exactalg, "_expanded", spy)
    cached = (gems._pair_sections, lines27.macdonald_membership)
    for cache in cached:
        cache.cache_clear()
    try:
        assert cli.main(["run", "all", "--seed", "42", "--json", str(tmp_path / "r.json")]) == 0
    finally:
        for cache in cached:
            cache.cache_clear()
    assert [c for c in calls if c == ([1], 1)] == []
    # the 27 weight forms on the 27 weight sections, the 15 pair forms on
    # the 15 pair sections, and x0⋯x5 under the 120 lines' six root forms
    assert ([1] * 27, 27) in calls and ([1] * 15, 15) in calls and ([6], 120) in calls


def test_table_shows_computed_value(monkeypatch):
    monkeypatch.setattr(lines27, "weyl_group", lambda: SimpleNamespace(order=51841))
    cert = _entry("lines27/weyl-order")(cli.SuiteConfig())
    assert (cert.status, cert.expected, cert.computed) == ("fail", "51840", "51841")
    text = cli.render_table("lines27", [cert])
    assert "[      fail] lines27/weyl-order  51841\n" in text
    assert "line configuration census" not in text  # structures did not run


def _run_report(tmp_path, suite):
    path = tmp_path / f"{suite}.json"
    assert cli.main(["run", suite, "--json", str(path)]) == 1
    return {c["check"]: c for c in json.loads(path.read_text())["certificates"]}


def _cap_error(cert, count):
    assert cert["status"] == "fail"
    assert cert["seed"] == cli._derived_seed(0, cert["check"])
    assert cert["computed"].startswith(
        f"error: draw cap of {DRAWS_PER_RESULT * count} trials reached")


def test_degenerate_segre_draws_hit_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(gems, "_beta_chart_points", lambda zs: [None] * len(zs))
    certs = _run_report(tmp_path, "segre")
    _cap_error(certs["segre/model"], 20)
    _cap_error(certs["segre/parametrization"], 20)
    assert certs["segre/sections"]["status"] == "pass"


def test_degenerate_hyperplane_draws_hit_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(nodalcy, "_hyperplane_check", lambda h: ("refused", None))
    certs = _run_report(tmp_path, "nodal")
    _cap_error(certs["nodal/generic"], 1)
    _cap_error(certs["nodal/tangent"], 1)


def test_wrong_word_product_fails_quintic_invariance(tmp_path, monkeypatch):
    word_products = gems._word_products

    def off_by_one(mats, words):
        # every product of two or more generators is off by one in one entry
        out = word_products(mats, words)
        out[[i for i, word in enumerate(words) if len(word) > 1], 0, 0] += 1
        return out

    monkeypatch.setattr(gems, "_word_products", off_by_one)
    path = tmp_path / "all.json"
    assert cli.main(["run", "all", "--json", str(path)]) == 1
    certs = json.loads(path.read_text())["certificates"]
    failed = [c for c in certs if c["status"] == "fail"]
    assert [c["check"] for c in failed] == ["quintic/invariance"]
    assert failed[0]["seed"] == cli._derived_seed(0, "quintic/invariance")
    assert failed[0]["computed"].startswith("error: ")


#: the functions that evaluate a single, unsampled point with `MPoly.eval` in
#: `run all`: a triple point's own root form, whose value is a divisor; every
#: other point goes through `_values_at`
ONE_OFF_EVALS = {"triple_point_cone"}


def test_run_all_evaluates_no_sampled_point_alone(tmp_path, monkeypatch):
    real, callers, in_sampler = MPoly.eval, set(), []

    def spy(self, values):
        frame, codes = sys._getframe(1), []
        while frame is not None:
            codes.append(frame.f_code)
            frame = frame.f_back
        # the innermost function that is not a comprehension
        callers.add(next(c.co_name for c in codes if not c.co_name.startswith("<")))
        in_sampler.append(exactalg._sample.__code__ in codes)
        return real(self, values)

    monkeypatch.setattr(MPoly, "eval", spy)
    assert cli.main(["run", "all", "--seed", "42", "--json", str(tmp_path / "all.json")]) == 0
    assert callers == ONE_OFF_EVALS
    assert in_sampler and not any(in_sampler)


def _moved_root_point(loci):
    # the root point h, (1, 1, 1, 1, 1, 3), moved to (2, 1, 1, 1, 1, 3)
    return dataclasses.replace(loci, root_points={
        **loci.root_points, "h": ProjPoint([2, 1, 1, 1, 1, 3])})


def _replaced_line45(loci):
    # the first of the 45 lines through three weight points replaced by the
    # first of the 216 lines through one root point and two weight points
    return dataclasses.replace(loci, lines45=loci.lines216[:1] + loci.lines45[1:])


def _special_loci_fault(change):
    def patch(monkeypatch):
        real = lines27.special_loci
        monkeypatch.setattr(lines27, "special_loci", lambda: change(real()))
    return patch


def _segre_chart_fault(monkeypatch):
    # x0^3 added: one coefficient of the cubic chart goes up by one
    real = gems.segre_chart
    monkeypatch.setattr(gems, "segre_chart", lambda: real() + MPoly.var(0, 5) ** 3)


def _nieto_chart_fault(monkeypatch):
    # x0^5 added to the Nieto quintic's chart
    real = gems.nieto_chart
    monkeypatch.setattr(gems, "nieto_chart", lambda: real() + MPoly.var(0, 5) ** 5)


def _quintic_coefficient_fault(monkeypatch):
    # x0 x1 x2 x3 x4 added: its coefficient -648 becomes -647; `nodalcy`
    # imports the builder by value, so it is patched there too
    real = gems.invariant_quintic_form
    term = MPoly(6, {(1, 1, 1, 1, 1, 0): 1})
    for module in (gems, nodalcy):
        monkeypatch.setattr(module, "invariant_quintic_form", lambda: real() + term)


def _generator_matrix_fault(monkeypatch):
    # entry [0][0] of the first generator matrix goes up by one; the
    # generators' permutations are left as they are
    real = lines27.weyl_generators

    def changed():
        names, mats, perms = real()
        first = ((mats[0][0][0] + 1, *mats[0][0][1:]), *mats[0][1:])
        return names, (first, *mats[1:]), perms
    monkeypatch.setattr(lines27, "weyl_generators", changed)


def _dependent_chart_fault(monkeypatch):
    # the chart's last generator replaced by its first: a dependent basis
    real = nodalcy._chart_generators

    def repeated(h):
        gens = real(h)
        return gens[:4] + gens[:1]
    monkeypatch.setattr(nodalcy, "_chart_generators", repeated)


def _root_vector_fault(monkeypatch):
    # the last entry of each system's first root form goes up by two, which
    # is a root form of none of the five systems
    real = rootarr.roots

    def moved(rsid):
        first, *rest = real(rsid)
        return [(*first[:-1], first[-1] + 2), *rest]
    monkeypatch.setattr(rootarr, "roots", moved)


def _meets_pair_fault(monkeypatch):
    # the skew lines a1 and a2 made to meet
    real = lines27.meets
    monkeypatch.setattr(lines27, "meets",
                        lambda l1, l2: real(l1, l2) != ({l1, l2} == {"a1", "a2"}))


def _tritangent_fault(monkeypatch):
    # the tritangent (12) = {a1, b2, c12} given c13 in place of c12
    real = lines27.tritangents
    monkeypatch.setattr(lines27, "tritangents",
                        lambda: {**real(), "(12)": frozenset({"a1", "b2", "c13"})})


def _root_form_fault(monkeypatch):
    # 2 x2 added to the root form h24 = x3 - x1
    real = lines27.coordinate_tables

    def changed():
        tables = real()
        forms = {**tables.root_forms, "h24": tables.root_forms["h24"] + MPoly.var(1, 6) * 2}
        return dataclasses.replace(tables, root_forms=forms)
    monkeypatch.setattr(lines27, "coordinate_tables", changed)


def _pair_partition_fault(monkeypatch):
    # the first pair partition {12, 34, 56} read as {12, 34, 35}, by
    # `incidence_complex_ranks` alone: `tritangents` and `gems._matchings`
    # read the partitions too, and see them unchanged
    real = lines27.pair_partitions

    def changed():
        parts = real()
        if sys._getframe(1).f_code.co_name == "incidence_complex_ranks":
            parts[0] = ((1, 2), (3, 4), (3, 5))
        return parts
    monkeypatch.setattr(lines27, "pair_partitions", changed)


def _theta_characteristic_fault(monkeypatch):
    # the fourth characteristic of the quartic coordinates, (0001), read as (0010)
    chars = list(theta._Y_CHARS)
    chars[3] = theta.ThetaChar((0, 0, 1, 0))
    monkeypatch.setattr(theta, "_Y_CHARS", tuple(chars))


# fault -> (the patch that applies it, the suites that read the faulted input,
# the checks of those suites that must then read "fail"); every cached
# builder is cleared around a row (`_clear_caches`)
INPUT_FAULTS = {
    "root-point-moved": (_special_loci_fault(_moved_root_point),
                         ("lines27", "quintic", "nodal"),
                         {"lines27/ideal-dimensions", "quintic/singular-locus"}),
    "line45-replaced": (_special_loci_fault(_replaced_line45),
                        ("lines27",),
                        {"lines27/ideal-dimensions"}),
    "segre-chart-coefficient": (_segre_chart_fault, ("segre", "nieto", "duality"),
                                {"segre/model", "segre/parametrization", "segre/sections",
                                 "nieto/hessian", "duality/pipeline"}),
    "nieto-chart-term": (_nieto_chart_fault, ("nieto", "quintic"),
                         {"nieto/model", "nieto/hessian", "quintic/subspaces"}),
    "quintic-coefficient": (_quintic_coefficient_fault, ("quintic", "nodal"),
                            {"quintic/invariance", "quintic/singular-locus",
                             "quintic/subspaces", "quintic/rationalization",
                             "quintic/triple-cone", "nodal/generic", "nodal/tangent"}),
    "generator-matrix-entry": (_generator_matrix_fault, ("lines27", "quintic"),
                               {"quintic/invariance"}),
    "dependent-chart-basis": (_dependent_chart_fault, ("nodal",),
                              {"nodal/generic", "nodal/tangent"}),
    "root-vector-moved": (_root_vector_fault, ("arrangements",),
                          {f"arrangements/census-{family.lower()}{rank}"
                           for family, rank in cli.ARRANGEMENT_CENSUS}),
    "meets-pair-flipped": (_meets_pair_fault, ("lines27",),
                           {"lines27/structures", "lines27/enneahedra", "lines27/weyl-order",
                            "lines27/ideal-dimensions"}),
    "tritangent-replaced": (_tritangent_fault, ("lines27",),
                            {"lines27/structures", "lines27/enneahedra",
                             "lines27/incidence-ranks", "lines27/ideal-dimensions"}),
    "root-form-changed": (_root_form_fault, ("quintic",),
                          {"quintic/restrictions", "quintic/singular-locus",
                           "quintic/triple-cone"}),
    "pair-partition-changed": (_pair_partition_fault, ("lines27",),
                               {"lines27/incidence-ranks"}),
    "theta-characteristic": (_theta_characteristic_fault, ("theta",),
                             {"theta/identities"}),
}

# fault -> {check: the error that the check reports}; each names the first
# failing point in the order the check visits them
_NOT_SINGULAR = "is not a singular point of the section"
FAULT_ERRORS = {
    "dependent-chart-basis": {"nodal/generic": "not in the span",
                              "nodal/tangent": "not in the span"},
    "root-point-moved": {
        "quintic/singular-locus": "point h must kill the quintic and its gradient"},
    "quintic-coefficient": {
        "quintic/singular-locus": "point h must kill the quintic and its gradient",
        "nodal/generic": _NOT_SINGULAR, "nodal/tangent": _NOT_SINGULAR},
    "tritangent-replaced": {
        "lines27/enneahedra": "the Weyl generators must permute the tritangents, but "
                              "(12) goes to a2, b1, c23, no tritangent"},
}


# fault -> {check: (field, entry, the value it reads)}: the check fails on a
# computed value, not on an error
FAULT_VALUES = {
    "pair-partition-changed": {
        "lines27/incidence-ranks": ("segre_hyperplane_plane", "rank", 11)},
}


def _clear_caches():
    """Clear every `lru_cache` builder of the imported `modgem` modules: before
    a fault, so that it is seen, and after it, so that no later test reads a
    result built from it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("modgem."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and obj.__module__ == name:
                    obj.cache_clear()


@pytest.mark.parametrize("fault", list(INPUT_FAULTS))
def test_an_input_fault_fails_exactly_its_checks(fault, monkeypatch):
    patch, suites, failing = INPUT_FAULTS[fault]
    _clear_caches()
    patch(monkeypatch)
    try:
        certs = [c for suite in suites for c in cli.run_suite(suite, cli.SuiteConfig())]
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert {c.check for c in certs if c.status == "fail"} == failing
    computed = {c.check: c.computed for c in certs}
    for check, message in FAULT_ERRORS.get(fault, {}).items():
        assert computed[check].startswith("error: ") and message in computed[check]
    for check, (field, entry, value) in FAULT_VALUES.get(fault, {}).items():
        assert json.loads(computed[check])[field][entry] == value


def test_a_faulted_report_reads_the_same_under_two_hash_seeds():
    # the tritangent-replaced row in two processes whose frozensets iterate
    # in different orders: the failing certificates must not differ
    script = ("import json, pytest, test_cli\n"
              "from modgem import cli\n"
              "patch, suites, _ = test_cli.INPUT_FAULTS['tritangent-replaced']\n"
              "patch(pytest.MonkeyPatch())\n"
              "certs = [c for s in suites for c in cli.run_suite(s, cli.SuiteConfig())]\n"
              "print(json.dumps([c.as_dict() for c in certs if c.status == 'fail']))\n")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": path,
                                            "PYTHONHASHSEED": seed}).stdout
            for seed in ("0", "1")]
    assert outs[0] == outs[1]
    assert {c["check"] for c in json.loads(outs[0])} == INPUT_FAULTS["tritangent-replaced"][2]


# shadow-prime pair -> {check: its outcome at seed 42} for the certificates
# that do not pass; picked from a sweep of prime pairs (CHANGES.md). A bad
# pair may make a check raise (the type is pinned) or fail by its stated
# bound, never compute another value: a passing certificate reads the
# canonical value, with the pair's primes where the expected value names them
PINNED_PAIRS = {
    (65521, 65519): {},
    (37, 31): {"duality/pipeline": "ShadowMismatch", "nodal/generic": "ExactAlgError",
               "nodal/tangent": "ExactAlgError", "quintic/rationalization": "bound"},
    (13, 11): {"duality/pipeline": "ExactAlgError", "lines27/ideal-dimensions": "ShadowMismatch",
               "nodal/generic": "ExactAlgError", "nodal/tangent": "ExactAlgError",
               "quintic/singular-locus": "ExactAlgError", "quintic/triple-cone": "ExactAlgError",
               "quintic/rationalization": "bound"},
}


@pytest.mark.parametrize("pair", list(PINNED_PAIRS))
def test_a_bad_prime_pair_raises_or_fails_by_its_bound(pair, monkeypatch):
    raised = {}

    def typed(check):
        """The check, with what its computation raises recorded under its name."""
        def compute(cfg, seed):
            try:
                return check.compute(cfg, seed)
            except Exception as exc:
                raised[check.name] = exc
                raise
        return dataclasses.replace(check, compute=compute) if check.compute else check

    cfg = cli.SuiteConfig(seed=42)
    _clear_caches()
    monkeypatch.setattr(exactalg, "SHADOW_PRIMES", pair)
    try:
        certs = [typed(check)(cfg) for check in cli.CHECKS]
        report = cli.report_dict("all", cfg, certs)
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert report["config"]["primes"] == list(pair)
    outcomes = {}
    for cert in (c for c in certs if c.status == "fail"):
        if cert.check in raised:
            outcomes[cert.check] = type(raised[cert.check]).__name__
        elif cert.check == "quintic/rationalization" and json.loads(cert.computed) == {
                **json.loads(cert.expected), "bounds_tiny": False}:
            outcomes[cert.check] = "bound"
        else:
            outcomes[cert.check] = cert.computed
    assert outcomes == PINNED_PAIRS[pair]
    modular = json.loads(next(c.computed for c in certs
                              if c.check == "quintic/rationalization"))["modular"]
    assert modular == {str(p): 10 ** 4 for p in pair}


def test_every_computed_check_has_an_input_fault():
    computed = {c.name for c in cli.CHECKS if c.compute is not None}
    assert set().union(*(row[2] for row in INPUT_FAULTS.values())) == computed


def test_json_report_byte_identity(tmp_path):
    paths = [tmp_path / f"r{i}.json" for i in range(2)]
    assert cli.main(["run", "segre", "--seed", "11", "--json", str(paths[0])]) == 0
    assert cli.main(["run", "segre", "--seed", "11", "--json", str(paths[1])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0].endswith(b"\n")


def test_json_seed_changes_report(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["run", "segre", "--seed", "1", "--json", str(a)])
    cli.main(["run", "segre", "--seed", "2", "--json", str(b)])
    assert a.read_bytes() != b.read_bytes()


SEEDED_SUITES = ("segre", "nieto", "quintic", "duality", "theta", "nodal")


def test_computed_values_do_not_move_with_the_seed():
    # a computed value is a fact about the geometry, the seed only picks the
    # samples that certify it; the expected values do not read the seed and
    # all pass at seed 42 (the pinned report), so passing at a master seed no
    # other test uses means each computed value equals seed 42's
    certs = [c for suite in SEEDED_SUITES for c in cli.run_suite(suite, cli.SuiteConfig(seed=101))]
    assert {c.check: c.status for c in certs} == {
        c.check: "unverified" if c.check == "quintic/base-locus" else "pass" for c in certs}
    assert all(c.seed != cli._derived_seed(42, c.check) for c in certs)


def test_table_output(tmp_path):
    path = tmp_path / "t.txt"
    assert cli.main(["run", "nodal", "--table", str(path)]) == 0
    text = path.read_text()
    assert "nodal sections" in text
    assert "generic: 120 30 24 25 5 40" in text
    assert "certificates" in text


def test_run_stdout_summary(capsys):
    assert cli.main(["run", "nieto"]) == 0
    out = capsys.readouterr().out
    assert "[      pass] nieto/hessian" in out
    assert "suite nieto: 2 pass, 0 fail, 0 unverified" in out


def test_exit_one_on_failure(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert cli.main(["run", "theta", "--tol", "1e-30", "--json", str(path)]) == 1
    assert "1 fail" in capsys.readouterr().out
    cert = json.loads(path.read_text())["certificates"][0]
    assert cert["check"] == "theta/identities"
    computed = json.loads(cert["computed"])
    assert computed["maschke_below_tol"] is False
    assert computed["quartic_below_tol"] is False
    assert computed["odd_max_small"] is True
    assert computed["theta4_rank"] == 5
    assert cli.main(["theta", "verify", "--tol", "1e-30"]) == 1
    assert "theta4_rank 5" in capsys.readouterr().out


def test_loose_tolerance_recorded(tmp_path):
    path = tmp_path / "r.json"
    assert cli.main(["run", "theta", "--tol", "1e-6", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["config"]["tol"] == 1e-6


@pytest.mark.parametrize("argv", [["run", "theta", "--tol", "inf"],
                                  ["run", "theta", "--tol", "nan"],
                                  ["theta", "verify", "--tol", "inf"]])
def test_exit_two_on_tolerance_not_finite(argv, capsys):
    # every residual is below an infinite tolerance, so it would check nothing
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "must be at least 0 and finite" in capsys.readouterr().err


def test_exit_two_on_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "nosuch"])
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_exit_two_on_samples_below_one(samples, capsys):
    # a sampled check that sampled nothing must not pass
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "segre", "--samples", samples])
    assert err.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "11"])
def test_exit_two_on_theta_verify_samples_below_twelve(samples, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["theta", "verify", "--samples", samples])
    assert err.value.code == 2
    assert "must be at least 12" in capsys.readouterr().err


def test_exit_two_on_unwritable_path(capsys):
    assert cli.main(["run", "theta", "--json", "/nonexistent/dir/x.json"]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_theta_verify_subcommand(tmp_path, capsys):
    path = tmp_path / "residuals.csv"
    assert cli.main(["theta", "verify", "--samples", "12", "--csv", str(path)]) == 0
    assert "theta4_rank 5" in capsys.readouterr().out
    rows = path.read_text().splitlines()
    assert rows[0] == "sample,maschke,quartic,odd_max"
    assert len(rows) == 13


def test_nodalcy_report_subcommand(tmp_path, capsys):
    path = tmp_path / "nodal.json"
    assert cli.main(["nodalcy", "report", "--kind", "generic",
                     "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "nodes 120" in out
    payload = json.loads(path.read_text())
    assert payload["defect"] == 24
    assert payload["euler"] == 40
    assert "b1" not in payload


@pytest.mark.parametrize("kind", ["generic", "tangent"])
def test_nodalcy_report_fails_cleanly_at_the_draw_cap(kind, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(nodalcy, "_hyperplane_check", lambda h: ("refused", None))
    path = tmp_path / "nodal.json"
    assert cli.main(["nodalcy", "report", "--kind", kind, "--json", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"nodal report failed: draw cap of {DRAWS_PER_RESULT} trials reached")
    assert not path.exists()
