import json
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from qorbits import hecke, projectors
from qorbits.scalars import SYMBOLIC, at_q, q_int, QScalar, Q
from qorbits.tensor import LegOperator, Mat, inverse
from qorbits.hecke import (HeckeError, HeckeSymmetry, RFileError, build_r,
                           read_r_file, save_r_to_file, skew_inverse_bc,
                           standard_hecke, standard_r,
                           validate_hecke_symmetry, check_ybe, check_hecke)
from qorbits.projectors import q_antisymmetrizer, q_symmetrizer
from qorbits.reps import sym_chart
from conftest import flip, from_rows


class TestStandardR:
    def test_n1_is_q(self):
        r = standard_r(1)
        assert r.rows[0][0] == Q
        assert validate_hecke_symmetry(r, SYMBOLIC).passed

    def test_n2_spectral_multiplicities(self, h2):
        # rank S(2) = 3 and rank A(2) = 1 force the eigenvalue multiplicities
        s2 = q_symmetrizer(h2, 2)
        a2 = q_antisymmetrizer(h2, 2)
        assert s2.trace() == SYMBOLIC.lift(3)
        assert a2.trace() == SYMBOLIC.lift(1)
        zero = (h2.r - s2.scale(SYMBOLIC.q) + a2.scale(SYMBOLIC.q_pow(-1)))
        assert zero.is_zero()   # R = q S(2) - (1/q) A(2)

    def test_n3_sampled_passes(self):
        dom = at_q(Fraction(2, 3))
        rep = validate_hecke_symmetry(standard_r(3, dom), dom)
        assert rep.passed and rep.rank == 3

    def test_rank_equals_n(self):
        for n in (1, 2, 3):
            h = standard_hecke(n)
            assert h.p == n


class TestValidation:
    def test_flip_fails_hecke(self):
        p = flip(2, SYMBOLIC)
        rep = validate_hecke_symmetry(p, SYMBOLIC)
        assert rep.ybe and not rep.hecke

    def test_diagonal_fails_ybe(self):
        dom = at_q(Fraction(5, 2))
        mat = Mat.from_entries(4, 4, dom.zero, ((i, i, Fraction(v))
                                                for i, v in enumerate((1, 2, 3, 4))))
        rep = validate_hecke_symmetry(mat, dom)
        assert not rep.ybe

    def test_report_checks_are_independent(self, h2):
        rep = validate_hecke_symmetry(h2.r, h2.domain)
        assert rep.ybe and rep.hecke and rep.skew_invertible and rep.even
        assert rep.rank == 2 and rep.passed

    def test_zero_operator_reports_unchecked_normalization(self):
        dom = at_q(Fraction(3, 4))
        zero = Mat.zeros(4, 4, dom.zero)
        rep = validate_hecke_symmetry(zero, dom)
        assert not rep.bc_product and not rep.bc_trace and not rep.passed
        assert rep.details["bc_product_error"].startswith("not checked")
        assert rep.details["bc_trace_error"].startswith("not checked")
        assert rep.details["skew_error"] == "not skew-invertible"

    def test_constructor_names_first_failed_axiom(self):
        dom = at_q(Fraction(3, 4))
        zero = Mat.zeros(4, 4, dom.zero)
        with pytest.raises(HeckeError, match="^Hecke condition fails$"):
            HeckeSymmetry(zero, dom)

    def test_constructor_asserts(self):
        with pytest.raises(HeckeError):
            HeckeSymmetry(flip(2, SYMBOLIC), SYMBOLIC)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (0, 0)])
    def test_shape_not_n_squared_is_refused_before_any_product(
            self, monkeypatch, tmp_path, shape):
        # R is any Mat whose shape is n**2 x n**2; n is read off that shape
        dom = at_q(Fraction(2, 3))
        r = Mat.zeros(*shape, dom.zero)

        def no_product(*args):
            raise AssertionError("a product was formed")
        monkeypatch.setattr(Mat, "__mul__", no_product)
        for call in (lambda: validate_hecke_symmetry(r, dom),
                     lambda: HeckeSymmetry(r, dom),
                     lambda: check_ybe(r), lambda: check_hecke(r, dom),
                     lambda: skew_inverse_bc(r, dom),
                     lambda: save_r_to_file(tmp_path / "r.json", r)):
            with pytest.raises(HeckeError, match=r"not n\*\*2 x n\*\*2"):
                call()
        assert not (tmp_path / "r.json").exists()

    def test_symmetry_tags_r_with_two_legs(self, h2):
        assert isinstance(standard_r(2), Mat)
        assert not isinstance(standard_r(2), LegOperator)
        for op in (h2.r, h2.r_inv):
            assert isinstance(op, LegOperator) and (op.n, op.m) == (2, 2)
        assert h2.r * h2.r_inv == Mat.identity(4, SYMBOLIC.zero, SYMBOLIC.one)


class TestCertificateCache:
    """One certification per exact (R, q), shared by validate_hecke_symmetry
    and HeckeSymmetry; tests/conftest.py empties the table before each test."""

    @pytest.fixture()
    def certify_calls(self, monkeypatch):
        calls = []
        real = hecke._certify

        def counting(r, dom):
            calls.append(dom.describe())
            return real(r, dom)
        monkeypatch.setattr(hecke, "_certify", counting)
        return calls

    def test_validate_then_construct_builds_one_tower(self, monkeypatch):
        builds = []
        real = projectors._level_factor

        def counting(dom, m, kind):
            if kind == "A" and m == 2:      # the first nested level scaled
                builds.append(dom.describe())
            return real(dom, m, kind)
        monkeypatch.setattr(projectors, "_level_factor", counting)
        dom = at_q(Fraction(2, 3))
        rep = validate_hecke_symmetry(standard_r(3, dom), dom)
        h = standard_hecke(3, dom)
        assert builds == ["2/3"]
        assert rep.passed and h.p == 3
        assert validate_hecke_symmetry(h.r, dom) is rep

    def test_one_entry_differs(self, certify_calls):
        # a failing R after a passing one at the same n and q
        dom = at_q(Fraction(2, 3))
        good = standard_r(2, dom)
        entries = [(i, j, v + 1 if (i, j) == (0, 0) else v)
                   for i, j, v in good.entries()]
        bad = Mat.from_entries(4, 4, dom.zero, entries)
        assert validate_hecke_symmetry(good, dom).passed
        rep = validate_hecke_symmetry(bad, dom)
        assert not rep.hecke and not rep.passed
        with pytest.raises(HeckeError, match=f"^{rep.first_failure()}$"):
            HeckeSymmetry(bad, dom)
        assert len(certify_calls) == 2

    def test_same_numerators_over_another_denominator(self, certify_calls):
        dom = at_q(Fraction(2))
        r = standard_r(2, dom)
        half = r.scale(Fraction(1, 2))
        assert half.data == r.data and half.den == 2 * r.den
        assert validate_hecke_symmetry(r, dom).passed
        assert not validate_hecke_symmetry(half, dom).hecke
        assert len(certify_calls) == 2

    def test_same_content_at_another_q(self, certify_calls):
        r = standard_r(2, at_q(Fraction(2)))
        assert validate_hecke_symmetry(r, at_q(Fraction(2))).passed
        assert not validate_hecke_symmetry(r, at_q(Fraction(3))).hecke
        assert certify_calls == ["2", "3"]

    def test_symbolic_and_sampled_are_certified_apart(self, certify_calls):
        dom = at_q(Fraction(2, 3))
        for _ in range(2):
            assert standard_hecke(2).p == 2
            assert standard_hecke(2, dom).p == 2
        assert certify_calls == ["q", "2/3"]

    def test_cache_clear_certifies_again(self, certify_calls):
        dom = at_q(Fraction(3, 5))
        first = validate_hecke_symmetry(standard_r(2, dom), dom)
        assert validate_hecke_symmetry(standard_r(2, dom), dom) is first
        hecke._certified.cache_clear()
        again = validate_hecke_symmetry(standard_r(2, dom), dom)
        assert again is not first and again == first
        assert len(certify_calls) == 2

    def test_table_is_bounded(self, certify_calls):
        bound = hecke._CERTIFICATES
        doms = [at_q(Fraction(k + 2)) for k in range(bound + 3)]
        for dom in doms:
            assert validate_hecke_symmetry(standard_r(1, dom), dom).passed
            assert hecke._certified.cache_info().currsize <= bound
        assert hecke._certified.cache_info().currsize == bound
        # the least recently used certifications were dropped
        validate_hecke_symmetry(standard_r(1, doms[-1]), doms[-1])
        validate_hecke_symmetry(standard_r(1, doms[0]), doms[0])
        assert len(certify_calls) == bound + 4

    def test_exception_is_not_stored(self, monkeypatch, certify_calls):
        real = hecke.check_ybe
        monkeypatch.setattr(hecke, "check_ybe", lambda r: 1 / 0)
        dom = at_q(Fraction(3, 5))
        with pytest.raises(ZeroDivisionError):
            validate_hecke_symmetry(standard_r(2, dom), dom)
        monkeypatch.setattr(hecke, "check_ybe", real)
        assert validate_hecke_symmetry(standard_r(2, dom), dom).passed
        assert len(certify_calls) == 2

    def test_symmetries_of_one_content_share_a_memo(self, certify_calls):
        q = Fraction(2, 3)
        first, second = standard_hecke(3, at_q(q)), standard_hecke(3, at_q(q))
        assert first is not second and first._memo is second._memo
        assert q_symmetrizer(first, 2) is q_symmetrizer(second, 2)
        a, b = sym_chart(first, 2), sym_chart(second, 2)
        assert a.basis is b.basis and a.left_inverse is b.left_inverse
        assert certify_calls == ["2/3"]

    def test_other_content_gets_a_fresh_memo(self):
        dom = at_q(Fraction(2, 3))
        h = standard_hecke(2, dom)
        s2 = q_symmetrizer(h, 2)
        entries = [(i, j, v + 1 if (i, j) == (0, 0) else v)
                   for i, j, v in h.r.entries()]
        bumped = Mat.from_entries(4, 4, dom.zero, entries)
        others = [standard_hecke(2, at_q(Fraction(3, 2)))._memo,
                  hecke._certified(hecke._Content(bumped, dom))[2],
                  standard_hecke(2)._memo]
        assert all(memo is not h._memo and ("S", 2) not in memo
                   and ("S", 2, "projector") not in memo for memo in others)
        again = standard_hecke(2, at_q(Fraction(2, 3)))
        assert again._memo[("S", 2, "projector")] is s2

    def test_cache_clear_gives_a_fresh_memo(self):
        dom = at_q(Fraction(2, 3))
        h = standard_hecke(2, dom)
        s2 = q_symmetrizer(h, 2)
        hecke._certified.cache_clear()
        again = standard_hecke(2, dom)
        assert again._memo is not h._memo and ("S", 2) not in again._memo
        assert q_symmetrizer(again, 2) == s2
        assert q_symmetrizer(again, 2) is not s2
        assert q_symmetrizer(h, 2) is s2    # h keeps the memo it adopted

    def test_failed_builder_stores_nothing(self):
        dom = at_q(Fraction(2, 3))
        h = standard_hecke(2, dom)
        with pytest.raises(ZeroDivisionError):
            h.memo("key", lambda: 1 / 0)
        other = standard_hecke(2, dom)
        assert "key" not in other._memo
        assert other.memo("key", lambda: 7) == 7
        assert h.memo("key", lambda: 8) == 7

    def test_validate_seeds_the_memo_with_the_tower(self, monkeypatch):
        dom = at_q(Fraction(2, 3))
        r = standard_r(3, dom)
        assert validate_hecke_symmetry(r, dom).passed
        tower = dict(hecke._certified(hecke._Content(r, dom))[2])

        def no_level(*args):
            raise AssertionError("tower rebuilt")
        monkeypatch.setattr(projectors, "_level_factor", no_level)
        monkeypatch.setattr(projectors, "row_reduce", no_level)
        h = HeckeSymmetry(r, dom)
        assert sorted(h._memo) == [("A", m) for m in range(1, h.p + 2)]
        assert sorted(tower) == sorted(h._memo)
        for (_, m), level in tower.items():
            assert q_antisymmetrizer(h, m) is q_antisymmetrizer(h, m)
            assert h._memo[("A", m)] is level

    def test_report_is_read_only(self):
        dom = at_q(Fraction(3, 4))
        zero = Mat.zeros(4, 4, dom.zero)
        rep = validate_hecke_symmetry(zero, dom)
        with pytest.raises(FrozenInstanceError):
            rep.rank = 2
        with pytest.raises(TypeError):
            rep.details["skew_error"] = None
        assert rep.details["skew_error"] == "not skew-invertible"
        hecke._certified.cache_clear()
        again = validate_hecke_symmetry(zero, dom)
        assert again is not rep and again == rep and hash(again) == hash(rep)


class TestSkewInverse:
    def test_both_contractions_hold(self, h2):
        # construction already asserts both equalities; do it again in the open
        psi, b, c = skew_inverse_bc(h2.r, h2.domain)
        psi = LegOperator(2, 2, psi)
        from qorbits.tensor import embed_on_legs, weighted_partial_trace
        p = flip(2, h2.domain)
        w = Mat.identity(2, h2.domain.zero, h2.domain.one)
        lhs = weighted_partial_trace(
            embed_on_legs(h2.r, 1, 3) * embed_on_legs(psi, 2, 3), {2}, w,
            (2, 2, 2))
        rhs = weighted_partial_trace(
            embed_on_legs(psi, 1, 3) * embed_on_legs(h2.r, 2, 3), {2}, w,
            (2, 2, 2))
        assert lhs == p and rhs == p

    def test_trace_normalization(self, h2):
        expect = q_int(2) * QScalar.q_power(-2)
        assert h2.b.trace() == expect
        assert h2.c.trace() == expect

    def test_bc_product(self, h2):
        prod = h2.b * h2.c
        ident = Mat.identity(2, h2.domain.zero, h2.domain.one)
        assert prod == ident.scale(QScalar.q_power(-4))

    def test_c_diagonal_multiset(self, h2):
        # pinned by the product and trace constraints
        entries = {h2.c.rows[0][0], h2.c.rows[1][1]}
        assert entries == {QScalar.q_power(-1), QScalar.q_power(-3)}
        assert h2.c.rows[0][1].is_zero() and h2.c.rows[1][0].is_zero()

    def test_not_skew_invertible(self):
        dom = at_q(Fraction(3, 4))
        mat = Mat.zeros(4, 4, dom.zero)   # the zero operator has no skew inverse
        with pytest.raises(HeckeError, match="not skew-invertible"):
            skew_inverse_bc(mat, dom)


class TestSymmetryRank:
    def test_lowest_antisymmetrizer_data(self, h2):
        a2 = q_antisymmetrizer(h2, 2)
        a3 = q_antisymmetrizer(h2, 3)
        assert a2.trace() == SYMBOLIC.lift(1)
        assert a3.is_zero()

    def test_rank_outcome_none(self):
        dom = at_q(Fraction(2, 5))
        p = flip(2, dom)
        # P is a Hecke symmetry only at q = 1: no rank is certified at
        # generic q, and the bundle is refused
        assert validate_hecke_symmetry(p, dom).rank is None
        with pytest.raises(HeckeError):
            HeckeSymmetry(p, dom)
        # q I on two dimensions is a Yang-Baxter Hecke operator whose levels
        # collapse at A(2) after a rank-two level: the outcome names the walk
        q_identity = Mat.identity(4, dom.zero, dom.q)
        rep = validate_hecke_symmetry(q_identity, dom)
        assert rep.ybe and rep.hecke and rep.rank is None
        assert rep.details["rank_outcome"] == (
            "no collapse after a rank-one level within 4 legs")

    def test_hecke_without_yang_baxter_is_refused(self, monkeypatch):
        # a generic G that is not g (x) g keeps the Hecke condition of
        # G R G**-1 and breaks the Yang-Baxter equation, without which the
        # nested levels are not the antisymmetrizers: no level is walked
        dom = at_q(Fraction(2, 5))
        g = from_rows([[Fraction(x) for x in row] for row in
                 ([2, 1, 0, 3], [1, 1, 1, 0], [0, 2, 1, 1], [1, 0, 0, 1])])
        r = g * standard_r(2, dom) * inverse(g)
        assert check_hecke(r, dom) and not check_ybe(r)

        def no_level(*args):
            raise AssertionError("a level was walked")
        monkeypatch.setattr(projectors, "row_reduce", no_level)
        with pytest.raises(HeckeError, match="^Yang-Baxter equation fails$"):
            HeckeSymmetry(r, dom)
        report = validate_hecke_symmetry(r, dom)
        assert report.rank is None and not report.even


class TestRFiles:
    def test_round_trip(self, tmp_path, h2):
        path = tmp_path / "r2.json"
        save_r_to_file(path, h2.r)
        loaded = build_r(*read_r_file(path), SYMBOLIC)
        assert loaded == h2.r
        rep = validate_hecke_symmetry(loaded, SYMBOLIC)
        assert rep.passed
        # save(load(save(x))) is byte-stable
        path2 = tmp_path / "r2b.json"
        save_r_to_file(path2, loaded)
        assert path.read_text() == path2.read_text()

    def test_missing_n(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"entries": []}))
        with pytest.raises(RFileError, match="'n'"):
            read_r_file(path)

    def test_duplicate_entry(self, tmp_path):
        path = tmp_path / "dup.json"
        entry = {"out": [1, 1], "in": [1, 1], "value": "q"}
        path.write_text(json.dumps({"n": 2, "parameter": "q",
                                    "entries": [entry, entry]}))
        with pytest.raises(RFileError, match="duplicate"):
            read_r_file(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "oob.json"
        path.write_text(json.dumps({
            "n": 2, "parameter": "q",
            "entries": [{"out": [1, 3], "in": [1, 1], "value": "q"}]}))
        with pytest.raises(RFileError, match="outside"):
            read_r_file(path)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"n\": 2,\n")
        with pytest.raises(RFileError, match="line"):
            read_r_file(path)

    def test_bad_scalar(self, tmp_path):
        path = tmp_path / "scal.json"
        path.write_text(json.dumps({
            "n": 2, "parameter": "q",
            "entries": [{"out": [1, 1], "in": [1, 1], "value": "zz"}]}))
        with pytest.raises(RFileError):
            read_r_file(path)

    @pytest.mark.parametrize("data,match", [
        ({"n": 1, "entries": [{"out": [1, 1], "in": [1, 1], "value": 1}]},
         "value 1 is not a string"),
        ({"n": 1, "entries": 5}, "'entries' must be a list"),
        # a JSON boolean is not an integer, though Python's bool is an int
        ({"n": True, "entries": [{"out": [True, 1], "in": [1, 1],
                                  "value": "q"}]},
         "'n' must be a positive integer"),
        ({"n": 1, "entries": [{"out": [True, 1], "in": [1, 1],
                               "value": "q"}]},
         "out index true outside 1..1"),
    ])
    def test_wrong_json_type(self, tmp_path, data, match):
        # well-formed JSON of the wrong type is a file error, not a crash
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(data))
        with pytest.raises(RFileError, match=match):
            read_r_file(path)

    def test_loaded_into_sampled_domain(self, tmp_path, h2):
        path = tmp_path / "r2.json"
        save_r_to_file(path, h2.r)
        dom = at_q(Fraction(4, 3))
        loaded = build_r(*read_r_file(path), dom)
        assert check_ybe(loaded) and check_hecke(loaded, dom)
