"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Every check is an exact-arithmetic identity (tolerance literally zero).
Large ambient spaces (dimension >= 3**5) run at three seeded random rational
q points, a certification mode the scalar layer documents; everything else
runs fully symbolically.  Each test prints one PASS line on success.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

from qorbits.scalars import SYMBOLIC, at_q, random_q, random_rationals
from qorbits.tensor import Mat
from qorbits.hecke import (HeckeSymmetry, standard_hecke, standard_r,
                           validate_hecke_symmetry)
from qorbits.projectors import q_antisymmetrizer
from qorbits.reps import (fundamental_left, sym_chart, sym_power_left,
                          sym_power_right_p2, sym_power_right_rea_p2,
                          tensor_power_left, verify_defining_relations)
from qorbits.casimir import closed_form_p2, q_dimension, split_casimir_matrix
from qorbits.identities import (RootData, central_elements_in_rep, ch_verify,
                                compositions, newton_check, omega_roots_p2,
                                parametric_central_values)
from qorbits.orbits import (classical_dim_ratios,
                            classical_eigenvalues, conjecture_scan,
                            higher_newton_classical, higher_newton_quantum_p2,
                            is_m_admissible, multiplicities,
                            quantum_dim_ratios, rep_eigenvalues,
                            spectral_idempotents, string_decompose)
from qorbits.euler import q_index_and_euler
from qorbits.cli import run_suite


def report(num, label, t0):
    print(f"ACCEPTANCE {num} ({label}): PASS  [{time.time() - t0:.1f}s]")


def test_criterion_01_hecke_axioms():
    t0 = time.time()
    rng = random.Random(101)
    for n in (2, 3, 4):
        for _ in range(3):
            dom = at_q(random_q(rng))
            r = standard_r(n, dom)
            rep = validate_hecke_symmetry(r, dom)
            assert rep.ybe and rep.hecke and rep.skew_invertible
            assert rep.even and rep.rank == n
            h = HeckeSymmetry(r, dom)   # asserts BC = q**(-2n) I and traces
            expect = dom.q_int(n) * dom.q_pow(-n)
            assert h.b.trace() == expect and h.c.trace() == expect
            a_n = q_antisymmetrizer(h, n)
            assert (a_n * a_n) == a_n
            assert a_n.trace() == dom.one
            assert q_antisymmetrizer(h, n + 1).is_zero()
    report(1, "Hecke axioms n=2,3,4 at 3 random q", t0)


def test_criterion_02_representations():
    t0 = time.time()
    h2 = standard_hecke(2)
    h3 = standard_hecke(3)
    # left relations, unit mass, exact
    assert verify_defining_relations(fundamental_left(h2), h2) == []
    assert verify_defining_relations(fundamental_left(h3), h3) == []
    for m in (2, 3):
        assert verify_defining_relations(tensor_power_left(h2, m), h2) == []
    assert verify_defining_relations(tensor_power_left(h3, 2), h3) == []
    rng = random.Random(202)
    for _ in range(3):
        dom = at_q(random_q(rng))
        h3s = standard_hecke(3, dom)
        assert verify_defining_relations(tensor_power_left(h3s, 3), h3s) == []
    for m in (1, 2, 3, 4):
        assert verify_defining_relations(sym_power_left(h2, m), h2) == []
    for m in (1, 2, 3):
        assert verify_defining_relations(sym_power_left(h3, m), h3) == []
    # right modules and their right-order relations
    for m in (1, 2, 3, 4):
        rep = sym_power_right_p2(h2, m)
        assert rep.side == "right"
        assert verify_defining_relations(rep, h2) == []
    # symmetric power equals the compressed tensor power: the tensor power
    # intertwines with it through I (x) B_m
    for h, m_top in ((h2, 4), (h3, 3)):
        for m in range(1, m_top + 1):
            basis = sym_chart(h, m).basis.embed(h.n, 1)
            sym = sym_power_left(h, m)
            tp = tensor_power_left(h, m)
            assert tp.blocks * basis == basis * sym.blocks
    report(2, "left/right representations and compressions", t0)


def test_criterion_03_basic_cayley_hamilton():
    t0 = time.time()
    h2 = standard_hecke(2)
    dom = h2.domain
    for k in range(1, 6):
        cm = split_casimir_matrix(h2, k, 1, "rea")
        ok, support = ch_verify(cm.op, [dom.one, dom.q_pow(-2 * k - 2)], dom)
        assert ok, f"basic CH fails at k={k} with support {support}"
        rep = sym_power_right_rea_p2(h2, k)
        cv = central_elements_in_rep(h2, rep, 2)
        assert cv.sigma[1] == dom.one + dom.q_pow(-2 * k - 2)
        assert cv.sigma[2] == dom.q_pow(-2 * k - 2)
    report(3, "basic CH and central values, k <= 5", t0)


def test_criterion_04_higher_cayley_hamilton_p2():
    t0 = time.time()
    h2 = standard_hecke(2)
    dom = h2.domain
    for k in range(1, 5):
        for m in range(1, k + 1):
            for algebra in ("rea", "mrea"):
                cm = split_casimir_matrix(h2, k, m, algebra)
                if algebra == "rea":
                    mu = [dom.one, dom.q_pow(-2 * k - 2)]
                    hbar = Fraction(0)
                else:
                    shift = dom.one / dom.zeta
                    mu = [dom.one + shift, dom.q_pow(-2 * k - 2) + shift]
                    hbar = Fraction(1)
                rd = RootData(mu=mu, hbar=hbar, domain=dom)
                roots = [v for _, v in omega_roots_p2(rd, m)]
                ok, support = ch_verify(cm.op, roots, dom)
                assert ok, (k, m, algebra, support)
            # the two-term symmetrizer form agrees entrywise
            assert (split_casimir_matrix(h2, k, m, "rea").op
                    == closed_form_p2(h2, k, m).op)
    report(4, "higher CH, both forms, m <= k <= 4", t0)


def test_criterion_05_newton_identities():
    t0 = time.time()
    h2 = standard_hecke(2)
    for k in range(1, 6):
        rep = sym_power_right_rea_p2(h2, k)
        cv = central_elements_in_rep(h2, rep, 2)
        rows = newton_check(cv, 2, h2.domain)
        assert all(rows.values()), (k, rows)
    rng = random.Random(505)
    for p in (2, 3, 4):
        for _ in range(3):
            dom = at_q(random_q(rng))
            mu = random_rationals(rng, p)
            rd = RootData(mu=mu, hbar=Fraction(0), domain=dom)
            cv = parametric_central_values(rd, p)
            rows = newton_check(cv, p, dom)
            assert all(rows.values()), (p, mu, rows)
    report(5, "Newton rows in modules and parametric, p <= 4", t0)


def test_criterion_06_conjecture_scan():
    t0 = time.time()
    rng = random.Random(606)
    outcomes = []
    for m, ks, samples in ((2, (2, 3), 2), (3, (3,), 1)):
        for k in ks:
            for _ in range(samples):
                dom = at_q(random_q(rng))
                h3 = standard_hecke(3, dom)
                scan = conjecture_scan(h3, k, m)
                assert len(compositions(m, 3)) == comb(m + 2, m)
                outcomes.append(scan.consistent)
                # a mismatch would be a reportable finding, not a failure
                if not scan.consistent:
                    print(f"FINDING: inconsistent at k={k} m={m}: {scan.witness}")
    status = "consistent" if all(outcomes) else "inconsistent (reported)"
    print(f"finding: {status}")
    report(6, "higher-root formula scan at rank 3, m in {2,3}", t0)


def test_criterion_07_multiplicities():
    t0 = time.time()
    # classical: product formula equals the dimension ratio at >= 10
    # admissible signatures across n <= 4, m <= 4
    checked = 0
    for n in (2, 3, 4):
        for m in (1, 2, 3, 4):
            gaps = [m + 5 ** (i + 2) for i in range(n - 1)]
            lam = tuple(sum(gaps[i:]) for i in range(n - 1)) + (0,)
            if not is_m_admissible(lam, m):
                continue
            mu = classical_eigenvalues(list(lam))
            spec = RootData(mu=mu, hbar=Fraction(1),
                            domain=at_q(Fraction(2)))
            d = multiplicities(spec, m, "classical")
            assert d == classical_dim_ratios(lam, m, n)
            checked += 1
    assert checked >= 10, f"only {checked} admissible signatures exercised"
    # quantum at zero mass and dual-shift eigenvalues: q-dimension ratios
    dom = SYMBOLIC
    for p in (2, 3, 4):
        for m in range(1, 6):
            lam = tuple(range(m * (p - 1), -1, -m))[:p]
            mu = rep_eigenvalues(lam, p, "rea_q", dom)
            spec = RootData(mu=mu, hbar=Fraction(0), domain=dom)
            d = multiplicities(spec, m, "quantum")
            assert d == quantum_dim_ratios(lam, m, p, dom)
    report(7, "classical and quantum multiplicity oracles", t0)


def test_criterion_08_higher_newton():
    t0 = time.time()
    for lam in [(4, 1), (5, 2), (7, 3)]:
        for m in (1, 2, 3):
            rep = higher_newton_classical(lam, m, 3)
            assert all(ok for ok, _ in rep.values()), (lam, m, rep)
    h2 = standard_hecke(2)
    for k in (1, 2, 3):
        for m in (1, 2):
            if m > k:
                continue
            for algebra in ("rea", "mrea"):
                rep = higher_newton_quantum_p2(h2, k, m, 3, algebra)
                assert all(ok for ok, _ in rep.values()), (k, m, algebra)
    report(8, "higher Newton: classical two-route and weighted matrix", t0)


def test_criterion_09_idempotents():
    t0 = time.time()
    h2 = standard_hecke(2)
    dom = h2.domain
    skipped = []
    for k in (1, 2, 3):
        for m in (1, 2, 3):
            spec = RootData(mu=[dom.one, dom.q_pow(-2 * k - 2)],
                            hbar=Fraction(0), domain=dom)
            if not spec.is_m_generic(m):
                # degenerate root multiset: idempotents are undefined there
                skipped.append((k, m))
                continue
            cm = split_casimir_matrix(h2, k, m, "rea")
            rd = RootData(mu=[dom.one, dom.q_pow(-2 * k - 2)],
                          hbar=Fraction(0), domain=dom)
            roots = omega_roots_p2(rd, m)
            es = spectral_idempotents(cm.op, [v for _, v in roots], dom)
            total = Mat.zeros(cm.dim, cm.dim, dom.zero)
            recon = Mat.zeros(cm.dim, cm.dim, dom.zero)
            for a, (ea, (kvec, root)) in enumerate(zip(es, roots)):
                assert ea * ea == ea
                for b, eb in enumerate(es):
                    if a != b:
                        assert (ea * eb).is_zero()
                total = total + ea
                recon = recon + ea.scale(root)
                s = kvec[0]
                # rank of an exact idempotent is its trace; components with
                # no room in the two-row decomposition have rank zero
                expected_rank = max((k + s) - (m - s) + 1, 0)
                assert ea.trace().as_rational() == expected_rank
            assert total == Mat.identity(cm.dim, dom.zero, dom.one)
            assert recon == cm.op
    assert skipped == [(1, 3)], f"unexpected degenerate grid points {skipped}"
    report(9, "spectral idempotents: algebra, completeness, ranks", t0)


def test_criterion_10_euler():
    t0 = time.time()
    rng = random.Random(1010)
    for _ in range(100):
        p = rng.randint(2, 4)
        k = [rng.randint(-8, 8) for _ in range(p)]
        a = rng.randint(-6, 6)
        assert (q_index_and_euler(k, p, SYMBOLIC)
                == q_index_and_euler([x + a for x in k], p, SYMBOLIC))
    three = SYMBOLIC.q_int(3)
    assert [q_dimension([1] * k, 3, SYMBOLIC) for k in (1, 2, 3)] \
        == [three, three, SYMBOLIC.one]
    for p in (2, 3):
        for m in range(1, 6):
            total = SYMBOLIC.zero
            for kvec in compositions(m, p):
                total = total + q_index_and_euler(list(kvec), p, SYMBOLIC)
            assert total == q_dimension([m], p, SYMBOLIC)
    report(10, "q-Euler shift invariance, rank-3 values, sum rule", t0)


def test_criterion_11_strings():
    t0 = time.time()
    dom = at_q(Fraction(3, 2))
    hb = Fraction(1)

    def succ(v):
        return dom.q_pow(-2) * v + dom.q_pow(-1) * dom.lift(hb)

    a = dom.lift(Fraction(5))
    b = dom.lift(Fraction(100))
    sd = string_decompose(RootData(mu=[a, succ(a)], hbar=hb, domain=dom))
    assert sd.strings == [(a, 2)] and sd.minimal_roots == [a]
    rng = random.Random(1111)
    mu = random_rationals(rng, 3)
    sd = string_decompose(RootData(mu=mu, hbar=hb, domain=dom))
    assert sorted(l for _, l in sd.strings) == [1, 1, 1]
    sd = string_decompose(RootData(mu=[a, succ(a), b], hbar=hb,
                                   domain=dom))
    assert {(v, l) for v, l in sd.strings} == {(a, 2), (b, 1)}
    assert set(sd.minimal_roots) == {a, b}
    # appending a successor extends exactly one string by one
    for _ in range(10):
        mu = [dom.lift(v) for v in random_rationals(rng, 3)]
        before = string_decompose(RootData(mu=mu, hbar=hb, domain=dom))
        tail = mu[0]
        while succ(tail) in mu:
            tail = succ(tail)
        after = string_decompose(RootData(mu=mu + [succ(tail)], hbar=hb,
                                          domain=dom))
        assert sum(l for _, l in after.strings) == 4
        assert len(after.strings) == len(before.strings)
    report(11, "string decomposition and extension property", t0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.time()
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_suite(["all", "--seed", "7", "--out", str(out1)]) == 0
    assert run_suite(["all", "--seed", "7", "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    for repdata in (a, b):
        for c in repdata["checks"]:
            c.pop("ms")
    assert a == b
    assert not any(c["status"] == "fail" for c in a["checks"])
    report(12, "full suite is deterministic modulo timing", t0)
