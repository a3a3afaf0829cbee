from fractions import Fraction

import pytest

from qorbits.scalars import SYMBOLIC, eval_at, q_int
from qorbits.euler import (EulerError, ModuleClass, classical_euler,
                           q_algebra_check, q_index_and_euler)
from qorbits.casimir import q_dimension
from qorbits.identities import compositions


class TestQEuler:
    def test_constant_vector_is_one(self):
        for p in (2, 3, 4):
            assert q_index_and_euler([5] * p, p, SYMBOLIC) == SYMBOLIC.one

    def test_p3_witness(self):
        assert q_index_and_euler([0, 0, 1], 3, SYMBOLIC) == q_int(3)
        assert q_index_and_euler([0, 1, 0], 3, SYMBOLIC) == SYMBOLIC.zero

    def test_not_symmetric(self):
        a = q_index_and_euler([0, 0, 1], 3, SYMBOLIC)
        b = q_index_and_euler([0, 1, 0], 3, SYMBOLIC)
        assert a != b

    def test_shift_invariance(self, rng):
        for _ in range(100):
            p = rng.randint(2, 4)
            k = [rng.randint(-8, 8) for _ in range(p)]
            a = rng.randint(-6, 6)
            assert (q_index_and_euler(k, p, SYMBOLIC)
                    == q_index_and_euler([x + a for x in k], p, SYMBOLIC))

    def test_classical_limit(self, rng):
        for _ in range(25):
            p = rng.randint(2, 4)
            k = [rng.randint(-5, 5) for _ in range(p)]
            sym = q_index_and_euler(k, p, SYMBOLIC)
            assert eval_at(sym, 1) == classical_euler(k, p)

    def test_length_mismatch(self):
        with pytest.raises(EulerError):
            q_index_and_euler([1, 2], 3, SYMBOLIC)

    def test_index_pairing_oracle(self, h2):
        # The substance of the index pairing, computed from the machinery
        # itself: the two-sided categorical trace of each spectral idempotent
        # equals the q-dimension of its component, and dividing by the
        # q-dimension of the pairing module recovers the quantum multiplicity
        # (the dimension-ratio form).
        from qorbits.casimir import split_casimir_matrix, trace_weights
        from qorbits.identities import RootData, omega_roots_p2
        from qorbits.orbits import multiplicities, spectral_idempotents
        dom = h2.domain
        for (k, m) in [(2, 1), (2, 2), (3, 2)]:
            cm = split_casimir_matrix(h2, k, m, "rea")
            mu = [dom.one, dom.q_pow(-2 * k - 2)]
            rd = RootData(mu=mu, hbar=Fraction(0), domain=dom)
            roots = omega_roots_p2(rd, m)
            es = spectral_idempotents(cm.op, [v for _, v in roots], dom)
            wboth = trace_weights(h2, k).kron(trace_weights(h2, m))
            prefactor = dom.q_pow(4)
            spec = RootData(mu=mu, hbar=Fraction(0), domain=dom)
            d_k = multiplicities(spec, m, "quantum")
            dim_module = q_dimension([k], 2, dom)
            for (kvec, _), e in zip(roots, es):
                acc = dom.zero
                for a in range(cm.dim):
                    for b in range(cm.dim):
                        w = wboth.rows[a][b]
                        if w:
                            acc = acc + w * e.rows[b][a]
                cat_trace = acc * prefactor
                s = kvec[0]
                assert cat_trace == q_dimension([k + s, m - s], 2, dom)
                assert cat_trace == d_k[kvec] * dim_module


class TestQAlgebra:
    def test_p3_relation_values(self):
        dom = SYMBOLIC
        rel = [q_dimension([1] * k, 3, dom) for k in (1, 2, 3)]
        assert rel == [q_int(3), q_int(3), dom.one]

    def test_report_all_pass(self):
        for p in (2, 3):
            report = q_algebra_check(p, SYMBOLIC, m_max=5)
            assert all(report.values())

    def test_sum_rule_values(self):
        dom = SYMBOLIC
        for p in (2, 3):
            for m in (1, 2, 3, 4, 5):
                total = dom.zero
                for kvec in compositions(m, p):
                    total = total + q_index_and_euler(list(kvec), p, dom)
                assert total == q_dimension([m], p, dom)

    def test_p_lower_bound(self):
        with pytest.raises(EulerError):
            q_algebra_check(1, SYMBOLIC)


class TestModuleClass:
    def test_shift_equivalence(self):
        assert ModuleClass((1, 2, 3)) == ModuleClass((0, 1, 2))
        assert ModuleClass((1, 2, 3)) != ModuleClass((0, 2, 2))
        assert hash(ModuleClass((1, 2, 3))) == hash(ModuleClass((-4, -3, -2)))

    def test_product_respects_classes(self):
        a = ModuleClass((1, 0))
        b = ModuleClass((0, 2))
        shifted_a = ModuleClass((3, 2))
        assert a * b == shifted_a * b

    def test_euler_constant_on_classes(self):
        k = ModuleClass((2, 0, 1))
        shifted = ModuleClass((5, 3, 4))
        assert (q_index_and_euler(list(k.k), 3, SYMBOLIC)
                == q_index_and_euler(list(shifted.k), 3, SYMBOLIC))

    def test_length_mismatch(self):
        with pytest.raises(EulerError):
            ModuleClass((1, 2)) * ModuleClass((1, 2, 3))
