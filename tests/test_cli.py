"""Driver tests: suite registry, certificates, canonical reports, exit codes."""

import json
from types import SimpleNamespace

import pytest

from modgem import cli, gems, lines27, rootarr


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
                                "primes": list(cli.SHADOW_PRIMES)}
    assert report["summary"] == {"pass": 3, "fail": 0, "unverified": 0}
    assert [c["check"] for c in report["certificates"]] == [c.check for c in segre_certs]


def test_unverified_certificate():
    cert = _entry("quintic/base-locus")(cli.SuiteConfig())
    assert cert.status == "unverified"
    assert cert.passed
    report = cli.report_dict("quintic", cli.SuiteConfig(), [cert])
    assert report["summary"] == {"pass": 0, "fail": 0, "unverified": 1}


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


def test_table_shows_computed_value(monkeypatch):
    monkeypatch.setattr(lines27, "weyl_group", lambda: SimpleNamespace(order=51841))
    cert = _entry("lines27/weyl-order")(cli.SuiteConfig())
    assert (cert.status, cert.expected, cert.computed) == ("fail", "51840", "51841")
    text = cli.render_table("lines27", [cert])
    assert "[      fail] lines27/weyl-order  51841\n" in text
    assert "line configuration census" not in text  # structures did not run


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


def test_exit_one_on_failure(capsys):
    assert cli.main(["run", "theta", "--tol", "1e-30"]) == 1
    assert "1 fail" in capsys.readouterr().out


def test_loose_tolerance_recorded(tmp_path):
    path = tmp_path / "r.json"
    assert cli.main(["run", "theta", "--tol", "1e-6", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["config"]["tol"] == 1e-6


def test_exit_two_on_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "nosuch"])
    assert err.value.code == 2
    capsys.readouterr()


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
