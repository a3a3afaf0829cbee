import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import qorbits
from qorbits import (casimir, euler, hecke, identities, orbits, projectors,
                     reps)
from qorbits.cli import (ANCHORS, SUITES, CheckRecorder, _check_args,
                         _largest_spaces, _size_above, build_parser, run_suite)
from qorbits.hecke import standard_hecke, save_r_to_file
from qorbits.scalars import SYMBOLIC, at_q
from qorbits.tensor import LegOperator, Mat


DVL3 = Path(__file__).parent / "data" / "dvl3.json"


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

    def test_all_sections_equal_standalone_reports(self, tmp_path):
        # each suite inside `all` draws from its own fresh rng, exactly as a
        # standalone run with the same seed does
        _, everything = run_json(tmp_path, ["all", "--seed", "7"])
        prefixes = {"calibrate-trace": "calibrate"}
        seen = 0
        for suite in ("validate", "projectors", "reps", "ch", "newton",
                      "conjecture", "orbit", "euler", "calibrate-trace"):
            _, alone = run_json(tmp_path, [suite, "--seed", "7"])
            prefix = prefixes.get(suite, suite) + "."
            section = [c for c in everything["checks"]
                       if c["id"].startswith(prefix)]
            for c in section + alone["checks"]:
                c.pop("ms")
            assert section and section == alone["checks"], suite
            assert set(alone["q"]) <= set(everything["q"])
            seen += len(section)
        assert seen == len(everything["checks"])

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

    def test_validate_builds_one_tower_per_q(self, tmp_path, monkeypatch):
        # one certification per q: the validation report carries all six
        # checks, so no second antisymmetrizer tower is built for B and C
        calls = []
        real = projectors._level_factor

        def counting(dom, m, kind):
            if kind == "A" and m == 2:      # the first nested level scaled
                calls.append(dom.describe())
            return real(dom, m, kind)
        monkeypatch.setattr(projectors, "_level_factor", counting)
        code, report = run_json(tmp_path, ["validate", "--seed", "7"])
        assert code == 0
        assert len(report["checks"]) == 18
        assert len(calls) == 3
        assert sorted(calls) == sorted(report["q"])

    def test_absorption_pins_the_kernel(self, tmp_path, monkeypatch):
        # S(2) T keeps R_1 S(2) T = q S(2) T for any T; only the right-hand
        # absorption S(2) T R_1 = q S(2) T sees the changed kernel
        real = projectors.q_symmetrizer

        def skewed(h, m):
            s = real(h, m)
            if m != 2:
                return s
            dom = h.domain
            t = Mat.identity(4, dom.zero, dom.one) + Mat.from_entries(
                4, 4, dom.zero, [(0, 1, dom.one)])
            return LegOperator(h.n, 2, s * t)
        monkeypatch.setattr(projectors, "q_symmetrizer", skewed)
        code, report = run_json(tmp_path, ["projectors", "--q", "2/3"])
        assert code == 1
        status = {c["id"]: c for c in report["checks"]}
        check = status["projectors.q2/3.m2.absorption"]
        assert check["status"] == "fail"
        assert check["witness"] == "symmetric absorption fails at leg 1"

    def test_validate_failed_normalization_fails_both_checks(
            self, tmp_path, monkeypatch):
        real = hecke.skew_inverse_bc

        def doubled_b(r, dom):
            psi, b, c = real(r, dom)
            return psi, b.scale(dom.lift(2)), c
        monkeypatch.setattr(hecke, "skew_inverse_bc", doubled_b)
        code, report = run_json(tmp_path, ["validate", "--q", "2/3"])
        assert code == 1
        status = {c["id"].rsplit(".", 1)[1]: c for c in report["checks"]}
        assert len(status) == 6
        assert status["bc_product"]["status"] == "fail"
        assert status["bc_product"]["witness"] == "B C != q**(-2p) I"
        assert status["bc_trace"]["status"] == "fail"
        assert "trace of B or C" in status["bc_trace"]["witness"]
        for name in ("ybe", "hecke", "skew", "rank"):
            assert status[name]["status"] == "pass"

    @pytest.mark.parametrize("suite", ["validate", "projectors", "reps"])
    def test_r_file_sets_the_rank(self, tmp_path, suite):
        # the symmetry's n comes from the file, not from the default --n 2
        path = tmp_path / "r3.json"
        save_r_to_file(path, hecke.standard_r(3))
        code, report = run_json(
            tmp_path, [suite, "--r-file", str(path), "--q", "2/3"])
        assert code == 0
        assert all(c["status"] == "pass" for c in report["checks"])
        assert {c["params"]["n"] for c in report["checks"]} == {3}

    def test_dvl3_r_file_is_the_fixture_written_out(self, tmp_path, dvl3):
        path = tmp_path / "dvl3.json"
        save_r_to_file(path, dvl3(SYMBOLIC))
        assert DVL3.read_text() == path.read_text()

    def test_rank_fail_names_the_rank_and_n(self, tmp_path):
        # dvl3 has rank 2 on n = 3; every other axiom holds
        code, report = run_json(tmp_path, ["validate", "--q", "2/3",
                                           "--r-file", str(DVL3)])
        assert code == 1
        status = {c["id"].rsplit(".", 1)[1]: c for c in report["checks"]}
        assert status["rank"]["status"] == "fail"
        assert status["rank"]["witness"] == "rank 2, expected 3"
        assert all(c["status"] == "pass" for name, c in status.items()
                   if name != "rank")

    def test_reps_relation_checks_report_the_construction_verdict(
            self, tmp_path, monkeypatch):
        # the module constructors verify the defining relations once, as they
        # build; one bad block there must fail the relation checks, so the
        # verdict the suite reports is live
        monkeypatch.setattr(reps, "verify_defining_relations",
                            lambda rep, h: [((0, 1), (1, 0))])
        code, report = run_json(tmp_path, ["reps", "--seed", "1"])
        assert code == 1
        assert len(report["checks"]) == 36
        relations = [c for c in report["checks"]
                     if c["anchor"] in (ANCHORS["relations"],
                                        ANCHORS["right_module"])]
        # reps.q<tag>.<check> for three q values
        assert sorted(c["id"].split(".", 2)[2] for c in relations) == sorted(
            ["fundamental", "tensor.m2", "tensor.m3",
             "right.m1", "right.m2", "right.m3"] * 3)
        for c in relations:
            assert c["status"] == "fail"
            assert "defining relations fail at 1 block(s)" in c["witness"]

    def test_reps_verifies_each_module_once(self, tmp_path, monkeypatch):
        calls = []
        real = reps.verify_defining_relations

        def counting(rep, h):
            calls.append((rep.label, h.domain.describe()))
            return real(rep, h)
        monkeypatch.setattr(reps, "verify_defining_relations", counting)
        code, _ = run_json(tmp_path, ["reps", "--seed", "1"])
        assert code == 0
        assert calls and len(calls) == len(set(calls))

    def test_ch_and_newton_share_one_set_of_central_values(
            self, tmp_path, monkeypatch):
        # ch.basic_sigma.k* and newton.rep.k* read sigma_k and s_k of the
        # right REA module at each (q, k) from the certification's memo
        calls, got = [], {}
        real_values = identities.central_elements_in_rep
        real_accessor = identities.rea_central_values

        def counting(h, rep, up_to):
            calls.append((rep.label, h.domain.describe()))
            return real_values(h, rep, up_to)

        def recording(h, k):
            cv = real_accessor(h, k)
            got.setdefault(k, []).append(cv)
            return cv
        monkeypatch.setattr(identities, "central_elements_in_rep", counting)
        monkeypatch.setattr(identities, "rea_central_values", recording)
        for suite in ("ch", "newton"):
            code, _ = run_json(tmp_path, [suite, "--q", "2/3"])
            assert code == 0
        assert len(calls) == len(set(calls)) == 3           # k = 1, 2, 3
        assert sorted(got) == [1, 2, 3]
        for ch_values, newton_values in got.values():
            assert ch_values is newton_values

    def test_equality_fail_names_the_first_differing_entry(
            self, tmp_path, monkeypatch):
        # a closed form off by one in entry (0, 1): the fail names that
        # entry with both values
        real = casimir.closed_form_p2

        def off_by_one(h, k, m):
            cm = real(h, k, m)
            dom = h.domain
            return replace(cm, op=cm.op + Mat.from_entries(
                cm.dim, cm.dim, dom.zero, [(0, 1, dom.one)]))
        monkeypatch.setattr(casimir, "closed_form_p2", off_by_one)
        code, report = run_json(tmp_path, ["ch", "--q", "2/3", "--k", "1"])
        assert code == 1
        h = standard_hecke(2, at_q(Fraction(2, 3)))
        x = casimir.split_casimir_matrix(h, 1, 1, "rea").op[0, 1]
        status = {c["id"]: c for c in report["checks"]}
        check = status["ch.q2/3.closed_form.k1.m1"]
        assert check["status"] == "fail"
        assert check["witness"] == f"entry (0, 1): {x} != {x + 1}"

    def test_esp_check_runs_one_recurrence_per_value_set(self, tmp_path,
                                                         monkeypatch):
        # the full set, 5 singletons and 10 pairs: 16 e-vectors per call
        calls, per_check = [0], {}
        real_all, real_run = identities.elementary_symmetric_all, CheckRecorder.run

        def counting(*args):
            calls[0] += 1
            return real_all(*args)

        def run(rec, check_id, *args, **kwargs):
            before = calls[0]
            real_run(rec, check_id, *args, **kwargs)
            per_check[check_id] = calls[0] - before
        monkeypatch.setattr(identities, "elementary_symmetric_all", counting)
        monkeypatch.setattr(CheckRecorder, "run", run)
        for seed in ("1", "2"):
            code, _ = run_json(tmp_path, ["newton", "--seed", seed])
            assert code == 0
            assert 0 < per_check["newton.esp_props"] <= 16

    def test_esp_check_reads_the_vectors(self, tmp_path, monkeypatch):
        # a wrong e_1 of the full set breaks the first deletion recurrence
        real = identities.elementary_symmetric_all

        def skewed(values, *args):
            out = real(values, *args)
            return out[:1] + [out[1] + 1] + out[2:] if len(values) == 5 else out
        monkeypatch.setattr(identities, "elementary_symmetric_all", skewed)
        code, report = run_json(tmp_path, ["newton", "--seed", "1"])
        assert code == 1
        esp = {c["id"]: c for c in report["checks"]}["newton.esp_props"]
        assert esp["status"] == "fail"
        assert esp["witness"] == "deletion recurrence fails at k=1, i=0"

    def test_orbit_classical_checks_run_once_per_report(self, tmp_path,
                                                        monkeypatch):
        # mult_classical and hn_classical do not depend on q: their work
        # does not grow with the q samples, and each verdict is recorded
        # under every q's id
        calls = []
        for name in ("higher_newton_classical", "classical_dim_ratios"):
            def counting(*args, real=getattr(orbits, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(orbits, name, counting)
        counts = []
        for samples in ("1", "3"):
            calls.clear()
            code, report = run_json(tmp_path, ["orbit", "--seed", "1",
                                               "--samples", samples])
            assert code == 0 and len(report["q"]) == int(samples)
            counts.append(sorted(calls))
            status = {c["id"]: c["status"] for c in report["checks"]}
            for tag in report["q"]:
                assert status[f"orbit.q{tag}.mult_classical"] == "pass"
                assert status[f"orbit.q{tag}.hn_classical"] == "pass"
        assert counts[0].count("higher_newton_classical") == 2
        assert counts[1] == counts[0]

    def test_all_seed1_report_is_pinned(self, tmp_path):
        # 247 checks of every suite at three sampled q, each with its id,
        # anchor, params, status and witness
        code, report = run_json(tmp_path, ["all", "--seed", "1"])
        assert code == 0
        for c in report["checks"]:
            c.pop("ms")
        golden = Path(__file__).parent / "data" / "all_seed1_report.json"
        assert report == json.loads(golden.read_text())
        suites = Counter(c["id"].split(".")[0] for c in report["checks"])
        assert suites == {"ch": 81, "reps": 36, "projectors": 33,
                          "newton": 19, "conjecture": 6, "validate": 18,
                          "orbit": 18, "euler": 18, "calibrate": 18}
        assert Counter(c["status"] for c in report["checks"]) == {
            "pass": 229, "finding": 18}

    def test_all_symbolic_report_is_pinned(self, tmp_path):
        # 89 checks over symbolic q: every symbolic product and block
        # pairing of the suites, compared whole with the report
        code, report = run_json(tmp_path, ["all", "--symbolic"])
        assert code == 0
        for c in report["checks"]:
            c.pop("ms")
        golden = Path(__file__).parent / "data" / "all_symbolic_report.json"
        assert report == json.loads(golden.read_text())
        assert Counter(c["status"] for c in report["checks"]) == {
            "pass": 83, "finding": 6}

    def test_newton_rows_must_all_be_checked(self, tmp_path, monkeypatch):
        # an empty row report compares nothing: it fails, it does not pass
        monkeypatch.setattr(identities, "newton_check", lambda cv, p, dom: {})
        code, report = run_json(tmp_path, ["newton", "--seed", "1"])
        assert code == 1
        rows = [c for c in report["checks"] if ".rep.k" in c["id"]]
        assert len(rows) == 9
        for c in rows:
            assert c["id"].startswith("newton.q")
            assert c["status"] == "fail"
            assert c["witness"] == "rows [] checked, expected 1..2"

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_multiplicities_must_cover_every_composition(
            self, tmp_path, monkeypatch, change):
        # a composition missing from the multiplicities, or one the oracle
        # does not know, fails the comparison
        real = orbits.multiplicities

        def changed(rd, m, mode):
            d = dict(real(rd, m, mode))
            if change == "missing":
                d.pop(max(d))
            else:
                d[(m + 1,) + (0,) * (len(max(d)) - 1)] = 1
            return d
        monkeypatch.setattr(orbits, "multiplicities", changed)
        code, report = run_json(tmp_path, ["orbit", "--p", "2", "--q", "2/3"])
        assert code == 1
        status = {c["id"]: (c["status"], c["witness"])
                  for c in report["checks"]}
        for name in ("mult_classical", "mult_quantum"):
            assert status[f"orbit.q2/3.{name}"][0] == "fail"
            assert status[f"orbit.q2/3.{name}"][1].endswith(", m=1")

    @pytest.mark.parametrize("change", ["empty", "short"])
    def test_higher_newton_powers_must_all_be_checked(
            self, tmp_path, monkeypatch, change):
        # a higher Newton report of no powers, or of s = 1, 2 only, compares
        # less than the rows s = 1..3: it fails, it does not pass
        def changed(real):
            def report(*args):
                rep = real(*args)
                return {} if change == "empty" else {1: rep[1], 2: rep[2]}
            return report
        for name in ("higher_newton_classical", "higher_newton_quantum_p2"):
            monkeypatch.setattr(orbits, name, changed(getattr(orbits, name)))
        code, report = run_json(tmp_path, ["orbit", "--seed", "1"])
        assert code == 1
        checked = "[]" if change == "empty" else "[1, 2]"
        hn = [c for c in report["checks"] if ".hn_" in c["id"]]
        assert len(hn) == 6
        for c in hn:
            where = ("at lam=(5, 2)" if c["id"].endswith("hn_classical")
                     else "in rea form")
            assert (c["status"], c["witness"]) == (
                "fail", f"powers {checked} checked, expected 1..3 {where}")

    @pytest.mark.parametrize("change", ["empty", "short"])
    def test_q_algebra_keys_must_all_be_checked(
            self, tmp_path, monkeypatch, change):
        # a class-algebra report without its wedge dimensions and Euler sums,
        # or without the sum at m_max, fails
        real = euler.q_algebra_check

        def changed(p, dom, m_max):
            rep = real(p, dom, m_max)
            if change == "empty":
                return {}
            del rep[f"euler_sum_m{m_max}"]
            return rep
        monkeypatch.setattr(euler, "q_algebra_check", changed)
        code, report = run_json(tmp_path, ["euler", "--seed", "1"])
        assert code == 1
        algebra = [c for c in report["checks"] if ".q_algebra.p" in c["id"]]
        assert len(algebra) == 6
        for c in algebra:
            p = c["params"]["p"]
            assert c["status"] == "fail"
            assert c["witness"].startswith("keys [] checked" if change == "empty"
                                           else "keys ['euler_sum_m1', ")
            assert c["witness"].endswith(
                f"checked, expected wedge_dim_k0..k{p}, euler_sum_m1..m5")

    def test_symbolic_run_leaves_no_q_number_table(self, tmp_path):
        # every op of the benchmark is a one-shot certification: the shared
        # symbolic domain keeps no table, and no two sampled domains share one
        code, _ = run_json(tmp_path, ["all", "--symbolic"])
        assert code == 0
        assert not hasattr(SYMBOLIC, "_q_ints") and not hasattr(SYMBOLIC, "_q_pows")
        one, other = at_q(Fraction(2, 3)), at_q(Fraction(2, 3))
        one.q_int(3), one.q_pow(3)
        assert other._q_ints == {} and other._q_pows == {}
        assert one._q_ints is not other._q_ints
        assert one._q_pows is not other._q_pows

    def test_symbolic_mode(self, tmp_path):
        code, report = run_json(tmp_path, ["euler", "--symbolic"])
        assert code == 0
        assert report["q"] == ["q"]

    def test_mu_adds_one_user_strings_check(self, tmp_path):
        # 6 = 2 q**-2 + hbar q**-1 at q = 2/3, hbar = 1: strings 2:2 and 100:1
        _, plain = run_json(tmp_path, ["orbit", "--q", "2/3"])
        code, report = run_json(tmp_path, ["orbit", "--q", "2/3",
                                           "--mu", "2,6,100"])
        assert code == 0
        user = [c for c in report["checks"] if c["id"].endswith("user_strings")]
        assert [c["id"] for c in user] == ["orbit.q2/3.user_strings"]
        assert user[0]["status"] == "finding"
        assert user[0]["witness"] == "2:2, 100:1"
        assert user[0]["anchor"] == ANCHORS["strings"]
        for rep in (plain, report):
            for c in rep["checks"]:
                c.pop("ms")
        assert [c for c in report["checks"] if c not in user] == plain["checks"]

    def test_user_strings_crash_is_fail(self, tmp_path, monkeypatch):
        def crash(rd):
            raise RuntimeError("decomposition crashed")
        monkeypatch.setattr(orbits, "string_decompose", crash)
        code, report = run_json(tmp_path, ["orbit", "--q", "2/3",
                                           "--mu", "2,6,100"])
        assert code == 1
        user = {c["id"]: c for c in report["checks"]}["orbit.q2/3.user_strings"]
        assert user["status"] == "fail"
        assert user["witness"] == "RuntimeError: decomposition crashed"

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
        ["orbit", "--q", "2/3", "--hbar", "abc"],
        ["orbit", "--q", "2/3", "--hbar", "1/0"],
        ["orbit", "--q", "2/3", "--mu", "1,x"],
        ["orbit", "--q", "2/3", "--mu", "1,1,2"],
        ["euler", "--p", "1", "--q", "2/3"],
        ["newton", "--p", "1", "--q", "2/3"],
        # sizes far above --max-size, whose digits Python would refuse to
        # print: the guard never multiplies them out
        ["validate", "--n", "2000"],
        ["ch", "--k", "20000", "--q", "2/3"],
        ["projectors", "--m", "20000", "--q", "2/3"],
        ["conjecture", "--k", "1" + "0" * 2200, "--q", "2/3"],
        # the largest int argparse reads: k + 2 has one digit too many
        ["conjecture", "--k", "9" * 4300, "--q", "2/3"],
    ], ids=["q0", "q1", "q-1", "n0", "samples0", "samples-1", "m0", "k0",
            "p-2", "max-size0", "hbar-abc", "hbar-1/0", "mu-1,x", "mu-1,1,2",
            "euler-p1", "newton-p1", "validate-n2000", "ch-k20000",
            "projectors-m20000", "conjecture-k10**2200",
            "conjecture-k4300-nines"])
    def test_bad_argument_is_usage_error_before_any_check(
            self, tmp_path, capsys, argv):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as err:
            run_suite(argv + ["--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()
        stderr = capsys.readouterr().err
        assert "usage:" in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize("argv", [
        ["validate", "--symbolic", "--q", "2/3"],
        ["all", "--symbolic", "--q", "2/3"],
        ["conjecture", "--k", "1", "--q", "2/3"],
        ["conjecture", "--m", "1", "--q", "2/3"],
        ["conjecture", "--m", "4", "--q", "2/3"],      # --k defaults to 3
        ["validate", "--symbolic", "--samples", "5"],
        ["validate", "--q", "2/3", "--samples", "5"],
        ["all", "--q", "2/3", "--samples", "3"],      # even at the default
    ], ids=["validate-symbolic-q", "all-symbolic-q", "conjecture-k1",
            "conjecture-m1", "conjecture-m4", "symbolic-samples",
            "q-samples", "all-q-samples"])
    def test_ignored_q_or_empty_scan_is_usage_error(
            self, tmp_path, capsys, argv):
        # --symbolic would ignore an explicit --q, one q an explicit
        # --samples, and a conjecture run with no (k, m) to scan would pass
        # having checked nothing
        self.test_bad_argument_is_usage_error_before_any_check(
            tmp_path, capsys, argv)

    @pytest.mark.parametrize("flag", ["--k", "--m"])
    def test_all_without_a_scan_still_checks(self, tmp_path, flag):
        code, report = run_json(tmp_path, ["all", flag, "1", "--q", "2/3"])
        assert code == 0
        suites = {c["id"].split(".")[0] for c in report["checks"]}
        assert "conjecture" not in suites and len(suites) == 8

    @pytest.mark.parametrize("flag, value", [
        ("--q", "-2/3"), ("--mu", "-3,4"), ("--hbar", "-1/2")])
    def test_negative_value_is_written_with_an_equals_sign(
            self, tmp_path, capsys, flag, value):
        # argparse takes a separate word that starts with "-" and is not a
        # plain negative number for an option: that form stays a usage
        # error, and the "=" form runs
        argv = ["orbit"] + ([] if flag == "--q" else ["--q", "2/3"])
        code, _ = run_json(tmp_path, argv + [f"{flag}={value}"])
        assert code == 0
        out = tmp_path / "separate.json"
        with pytest.raises(SystemExit) as err:
            run_suite(argv + [flag, value, "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()
        assert "usage:" in capsys.readouterr().err

    def test_missing_r_file_is_file_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_suite(["validate", "--r-file", "/definitely/not/here.json"])
        assert err.value.code == 3

    @pytest.mark.parametrize("text", [
        '{"n": 1, "entries": [{"out": [1, 1], "in": [1, 1], "value": 1}]}',
        '{"n": 1, "entries": 5}',
        '{"n": true, "entries": [{"out": [true, 1], "in": [1, 1], '
        '"value": "q"}]}',
        '{"n": 1, "entries": [{"out": [true, 1], "in": [1, 1], '
        '"value": "q"}]}',
    ])
    def test_wrongly_typed_r_file_is_file_error(self, tmp_path, capsys, text):
        path = tmp_path / "typed.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as err:
            run_suite(["validate", "--r-file", str(path), "--q", "2/3"])
        assert err.value.code == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {path}: ")
        assert stderr.count("\n") == 1 and "Traceback" not in stderr

    @pytest.mark.parametrize("suite", ["projectors", "all"])
    def test_non_hecke_r_file_is_file_error(self, tmp_path, capsys, suite):
        # R = I on one dimension satisfies Yang-Baxter but not the Hecke
        # condition (R - q)(R + 1/q) = 0
        path = tmp_path / "identity.json"
        path.write_text('{"n": 1, "entries": '
                        '[{"out": [1, 1], "in": [1, 1], "value": "1"}]}')
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as err:
            run_suite([suite, "--q", "2/3", "--r-file", str(path),
                       "--out", str(out)])
        assert err.value.code == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: {path}: not a Hecke symmetry at q=2/3: "
            f"Hecke condition fails\n")
        # validate reports the failed axiom instead
        code, report = run_json(tmp_path, ["validate", "--q", "2/3",
                                           "--r-file", str(path)])
        assert code == 1
        status = {c["id"]: c["status"] for c in report["checks"]}
        assert status["validate.q2/3.hecke"] == "fail"
        assert status["validate.q2/3.ybe"] == "pass"
        witness = {c["id"]: c["witness"] for c in report["checks"]}
        assert witness["validate.q2/3.hecke"] == "Hecke condition fails"
        rank = next(c for c in report["checks"]
                    if c["id"] == "validate.q2/3.rank")
        assert rank["witness"] == (
            "no rank, expected 1: not checked: needs Yang-Baxter and Hecke")

    def test_max_size_guard(self, tmp_path, capsys, largest_built):
        out = tmp_path / "report.json"
        big = tmp_path / "big.json"
        big.write_text('{"n": 1000, "entries": []}')
        for argv in (
                ["conjecture", "--p", "3", "--n", "3", "--k", "9", "--m", "9",
                 "--max-size", "10", "--samples", "1"],
                # the guard counts the rank-3 (3, 3) scan's Casimir pair
                # on V (x) V_(3) (x) V_(3): 3 * 10 * 10 = 300
                ["conjecture", "--p", "3", "--k", "3", "--m", "3",
                 "--max-size", "299"],
                # reps (2**5), conjecture (3**3) and ch (2 * 4 * 4 = 32,
                # and d_3 * 2**3 = 32) exceed it: nothing runs
                ["all", "--max-size", "20"],
                # the Yang-Baxter check acts on 5**3 = 125 dimensions
                ["validate", "--n", "5", "--q", "2/3", "--max-size", "100"],
                # the step into the fourth nested antisymmetrizer level
                # acts on C(8, 4) 8**2 = 4480 dimensions, though 8**3 fits
                ["validate", "--n", "8", "--q", "2/3", "--max-size", "4000"],
                # the relation check of tensor_power_left(h, 3) acts on
                # 2 + 3 legs: 3**5 = 243
                ["reps", "--n", "3", "--q", "2/3", "--max-size", "81"],
                # the relation check of the degree-3 symmetric-power module
                # acts on V (x) V (x) V_(3): 2 * 2 * 4 = 16
                ["newton", "--q", "2/3", "--max-size", "8"],
                ["orbit", "--q", "2/3", "--max-size", "8"],
                ["calibrate-trace", "--q", "2/3", "--max-size", "8"],
                # the split Casimir pair, counted on V (x) V_(2) (x) V_(2):
                # 2 * 3 * 3 = 18 > 2**4, and 3 * 6 * 6 = 108 for the
                # rank-3 scan
                ["ch", "--q", "2/3", "--k", "2", "--max-size", "16"],
                ["conjecture", "--q", "2/3", "--k", "2", "--m", "2",
                 "--max-size", "81"],
                # n is read off the R-file, not off its 10**6-row matrix
                ["validate", "--q", "2/3", "--max-size", "100",
                 "--r-file", str(big)]):
            with pytest.raises(SystemExit) as err:
                run_suite(argv + ["--out", str(out)])
            assert err.value.code == 2, argv
            assert not out.exists()
        # a refused run builds no matrix, and names a size above the bound
        # as n**legs
        assert largest_built[0] == 0
        assert "validate builds operators on 1000**3 dimensions" in (
            capsys.readouterr().err)

    def test_max_size_guard_counts_n_to_the_degree_on_an_r_file(
            self, tmp_path, capsys, largest_built, dvl3):
        # off the standard symmetries dim V_(m) is no binomial (dvl3 has
        # 3, 8, 21, 55, ...): the guard counts dim V_(m) <= 3**m instead
        path = tmp_path / "dvl3.json"
        save_r_to_file(path, dvl3(SYMBOLIC))
        dom = at_q(Fraction(2, 3))
        h = hecke.HeckeSymmetry(hecke.build_r(*hecke.read_r_file(path), dom),
                                dom)
        assert (h.n, h.p) == (3, 2)
        built = largest_built[0]
        out = tmp_path / "report.json"
        for argv, size in (
                # the relation check of the degree-8 module acts on
                # V (x) V (x) V_(8): 9 * 2584 dimensions, not 9 * C(10, 2)
                (["calibrate-trace", "--m", "8"], "3**10"),
                (["newton", "--k", "8"], "3**10"),
                # the (6, 4) scan's Casimir pair, counted on
                # V (x) V_(6) (x) V_(4)
                (["conjecture", "--k", "6", "--m", "4"], "3**11"),
                (["conjecture", "--k", "9" * 4300], "more than 4096")):
            with pytest.raises(SystemExit) as err:
                run_suite(argv + ["--q", "2/3", "--r-file", str(path),
                                  "--out", str(out)])
            assert err.value.code == 2, argv
            assert not out.exists()
            stderr = capsys.readouterr().err
            assert f"{argv[0]} builds operators on {size} dimensions" in stderr
            assert "Traceback" not in stderr
        assert largest_built[0] == built

    def test_max_size_guard_admits_defaults(self):
        parser = build_parser()
        for suite in list(SUITES) + ["all"]:
            _check_args(parser, parser.parse_args([suite]))

    @pytest.mark.parametrize(
        "argv", [[suite] for suite in SUITES]
        + [["ch", "--k", "2"], ["conjecture", "--k", "2", "--m", "2"]],
        ids=list(SUITES) + ["ch-k2", "conjecture-k2-m2"])
    def test_max_size_guard_bounds_every_matrix_built(self, tmp_path,
                                                      largest_built, argv):
        argv = argv + ["--q", "2/3"]
        assert run_suite(argv + ["--out", str(tmp_path / "r.json")]) == 0
        spaces = _largest_spaces(build_parser().parse_args(argv), None)
        if argv[0] not in spaces:
            assert largest_built[0] == 0
        else:
            # the guard's own count reaches every matrix built
            assert 0 < largest_built[0]
            assert _size_above(largest_built[0] - 1, *spaces[argv[0]])

    def test_ch_counts_the_closed_form_on_the_levels(self, tmp_path,
                                                     largest_built):
        # the (8, 6) closed form compresses p_9 (x) I on V_(8) (x) V**6,
        # d_8 * 2**6 = 576 dimensions, not 2**14; the split products act on
        # 2 * 9 * 7 = 126
        argv = ["ch", "--q", "2/3", "--k", "8", "--m", "6"]
        code, report = run_json(tmp_path, argv)
        assert code == 0 and report["checks"]
        assert 0 < largest_built[0] <= 576
        space = _largest_spaces(build_parser().parse_args(argv), None)
        assert _size_above(575, *space["ch"]) == "576"

    def test_rank5_validate_runs_under_the_default_bound(self, tmp_path,
                                                         largest_built):
        # the certifier builds nothing on n + 1 legs (5**6 > 4096), and
        # its nested levels fit
        argv = ["validate", "--q", "3/5", "--n", "5"]
        code, report = run_json(tmp_path, argv)
        assert code == 0 and len(report["checks"]) == 6
        space = _largest_spaces(build_parser().parse_args(argv), None)
        assert not _size_above(4096, *space["validate"])
        assert _size_above(largest_built[0] - 1, *space["validate"])

    def test_r_file_round_trip_through_cli(self, tmp_path):
        path = tmp_path / "r.json"
        save_r_to_file(path, standard_hecke(2).r)
        code = run_suite(["validate", "--n", "2", "--q", "4/3",
                          "--r-file", str(path),
                          "--out", str(tmp_path / "o.json")])
        assert code == 0

    def test_all_reads_the_r_file_once(self, tmp_path, monkeypatch):
        # the usage checks parse the R-file and every suite, at every q,
        # builds its R from that parse, so no suite can run on a file other
        # than the one the checks admitted
        path = tmp_path / "r.json"
        save_r_to_file(path, standard_hecke(2).r)
        reads = []

        def counting(p, real=hecke.read_r_file):
            reads.append(p)
            return real(p)
        monkeypatch.setattr(hecke, "read_r_file", counting)
        code = run_suite(["all", "--seed", "1", "--r-file", str(path),
                          "--out", str(tmp_path / "o.json")])
        assert code == 0
        assert reads == [str(path)]

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
