import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qorbits
from qorbits import hecke, orbits
from qorbits.cli import run_suite, ANCHORS
from qorbits.hecke import standard_hecke, save_r_to_file


def run_json(tmp_path, args):
    out = tmp_path / "report.json"
    code = run_suite(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestReports:
    def test_validate_explicit_q(self, tmp_path):
        code, report = run_json(tmp_path, ["validate", "--n", "2", "--q", "2/3"])
        assert code == 0
        assert report["schema"] == 1
        assert report["suite"] == "validate"
        assert report["q"] == ["2/3"]
        ids = [c["id"] for c in report["checks"]]
        assert ids == sorted(ids)
        assert all(c["status"] == "pass" for c in report["checks"])
        assert any(c["id"].endswith(".rank") for c in report["checks"])

    def test_every_check_has_schema_fields(self, tmp_path):
        code, report = run_json(tmp_path, ["euler", "--seed", "3"])
        assert code == 0
        for c in report["checks"]:
            assert set(c) == {"id", "anchor", "params", "status", "witness", "ms"}
            assert c["status"] in ("pass", "fail", "finding")
            assert c["anchor"] in ANCHORS.values()

    def test_determinism_modulo_timing(self, tmp_path):
        _, a = run_json(tmp_path, ["newton", "--seed", "11"])
        _, b = run_json(tmp_path, ["newton", "--seed", "11"])
        for rep in (a, b):
            for c in rep["checks"]:
                c.pop("ms")
        assert a == b

    def test_seed_changes_samples(self, tmp_path):
        _, a = run_json(tmp_path, ["newton", "--seed", "1"])
        _, b = run_json(tmp_path, ["newton", "--seed", "2"])
        assert a["q"] != b["q"]

    def test_conjecture_reports_findings(self, tmp_path):
        code, report = run_json(
            tmp_path, ["conjecture", "--p", "3", "--k", "2", "--m", "2",
                       "--samples", "1", "--seed", "5"])
        assert code == 0
        statuses = {c["status"] for c in report["checks"]}
        assert statuses == {"finding"}
        assert all(c["witness"] == "consistent" for c in report["checks"])

    def test_crash_in_finding_check_is_fail(self, tmp_path, monkeypatch):
        def crash(h, k, m):
            raise RuntimeError("scan crashed")
        monkeypatch.setattr(orbits, "conjecture_scan", crash)
        code, report = run_json(
            tmp_path, ["conjecture", "--p", "3", "--k", "2", "--m", "2",
                       "--samples", "1", "--seed", "5"])
        assert code == 1
        assert report["checks"]
        for c in report["checks"]:
            assert c["status"] == "fail"
            assert c["witness"] == "RuntimeError: scan crashed"

    def test_validate_builds_one_symmetry_per_q(self, tmp_path, monkeypatch):
        built = []
        real = hecke.HeckeSymmetry

        def counting(r, dom, *args):
            built.append(dom.describe())
            return real(r, dom, *args)
        monkeypatch.setattr(hecke, "HeckeSymmetry", counting)
        code, report = run_json(tmp_path, ["validate", "--seed", "4"])
        assert code == 0
        assert len(report["checks"]) == 18
        assert sorted(built) == sorted(report["q"])

    def test_validate_failed_construction_fails_both_checks(
            self, tmp_path, monkeypatch):
        def broken(r, dom, *args):
            raise hecke.HeckeError("construction broke")
        monkeypatch.setattr(hecke, "HeckeSymmetry", broken)
        code, report = run_json(tmp_path, ["validate", "--q", "2/3"])
        assert code == 1
        status = {c["id"].rsplit(".", 1)[1]: c for c in report["checks"]}
        assert len(status) == 6
        for name in ("bc_product", "bc_trace"):
            assert status[name]["status"] == "fail"
            assert "construction broke" in status[name]["witness"]
        for name in ("ybe", "hecke", "skew", "rank"):
            assert status[name]["status"] == "pass"

    def test_symbolic_mode(self, tmp_path):
        code, report = run_json(tmp_path, ["euler", "--symbolic"])
        assert code == 0
        assert report["q"] == ["q"]

    def test_ch_documented_invocation(self, tmp_path):
        code, report = run_json(
            tmp_path, ["ch", "--n", "2", "--k", "3", "--m", "2",
                       "--q", "random", "--seed", "7"])
        assert code == 0
        assert any(".higher.k3.m2." in c["id"] for c in report["checks"])


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_suite(["frobnicate"])
        assert err.value.code == 2

    def test_bad_q_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_suite(["validate", "--q", "sideways"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["validate", "--q", "0"],
        ["validate", "--q", "1"],
        ["validate", "--q", "-1"],
        ["validate", "--n", "0"],
        ["newton", "--samples", "0"],
        ["newton", "--samples", "-1"],
        ["projectors", "--m", "0"],
        ["ch", "--k", "0"],
        ["newton", "--p", "-2"],
        ["projectors", "--max-size", "0"],
    ], ids=["q0", "q1", "q-1", "n0", "samples0", "samples-1", "m0", "k0",
            "p-2", "max-size0"])
    def test_bad_argument_is_usage_error_before_any_check(
            self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as err:
            run_suite(argv + ["--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()
        stderr = capsys.readouterr().err
        assert "usage:" in stderr and "Traceback" not in stderr

    def test_missing_r_file_is_file_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_suite(["validate", "--r-file", "/definitely/not/here.json"])
        assert err.value.code == 3

    def test_max_size_guard(self):
        with pytest.raises(SystemExit):
            run_suite(["conjecture", "--p", "3", "--n", "3", "--k", "9",
                       "--m", "9", "--max-size", "10", "--samples", "1"])

    def test_r_file_round_trip_through_cli(self, tmp_path):
        path = tmp_path / "r.json"
        save_r_to_file(path, standard_hecke(2).r)
        code = run_suite(["validate", "--n", "2", "--q", "4/3",
                          "--r-file", str(path),
                          "--out", str(tmp_path / "o.json")])
        assert code == 0

    def test_module_entrypoint(self, tmp_path):
        # the installed console path: python -m qorbits.cli, importing the
        # same package these tests import
        src = str(Path(qorbits.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "qorbits.cli", "euler", "--seed", "1",
             "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0
