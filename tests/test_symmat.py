import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from hess2 import symmat
from hess2.errors import InputError, NumericalError
from hess2.symmat import (
    SymmetricMatrix,
    Spectrum,
    cofactor_s2,
    elem_sym,
    elem_sym_from_eigenvalues,
    jacobi_eigh,
    newton_comatrix,
    omitted_sym,
    sample_batch,
    sample_semidefinite,
    spectrum,
)


class TestSpectrum:
    def test_identity(self):
        lam = spectrum(SymmetricMatrix.identity(3)).eigenvalues
        np.testing.assert_allclose(lam, [1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        lam = spectrum(SymmetricMatrix.from_diag([3.0, 1.0, 2.0])).eigenvalues
        np.testing.assert_allclose(lam, [1.0, 2.0, 3.0])

    def test_2x2_characteristic_roots(self):
        # [[2,1],[1,2]] has characteristic polynomial (l-2)^2 - 1 = 0.
        lam = spectrum(SymmetricMatrix.from_full([[2.0, 1.0], [1.0, 2.0]])).eigenvalues
        np.testing.assert_allclose(lam, [1.0, 3.0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            lam, vecs = jacobi_eigh(a)
            np.testing.assert_allclose(vecs @ np.diag(lam) @ vecs.T, a,
                                       atol=1e-12 * max(1.0, np.linalg.norm(a)))
            np.testing.assert_allclose(lam.sum(), np.trace(a), rtol=1e-12, atol=1e-12)

    def test_matches_lapack(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 8):
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            lam, _ = jacobi_eigh(a)
            np.testing.assert_allclose(lam, np.linalg.eigvalsh(a), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            SymmetricMatrix.from_full([[np.inf, 0.0], [0.0, 1.0]])

    def test_spectrum_sorted_invariant(self):
        with pytest.raises(InputError):
            Spectrum(eigenvalues=np.array([2.0, 1.0]))


EIGEN_SOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


class TestEigenBackend:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_raises(self, bad):
        with pytest.raises(NumericalError, match="non-finite spectrum"):
            jacobi_eigh(np.array([[1.0, bad], [bad, 2.0]]))

    def test_nonfinite_matrix_in_a_stack_raises(self):
        stack = np.stack([np.eye(3), np.full((3, 3), np.nan)])
        with pytest.raises(NumericalError):
            jacobi_eigh(stack)

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((7, 5, 5))
        a = g + g.transpose(0, 2, 1)
        lam, vecs = jacobi_eigh(a)
        assert lam.shape == (7, 5) and vecs.shape == (7, 5, 5)
        assert np.all(np.diff(lam, axis=1) >= 0)
        for k in range(7):
            lam_k, _ = jacobi_eigh(a[k])
            np.testing.assert_allclose(lam[k], lam_k, rtol=0, atol=1e-13)
            np.testing.assert_allclose(vecs[k] @ np.diag(lam[k]) @ vecs[k].T, a[k],
                                       rtol=0, atol=1e-12)

    def test_zero_matrix(self):
        lam, vecs = jacobi_eigh(np.zeros((4, 4)))
        np.testing.assert_array_equal(lam, np.zeros(4))
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(4), atol=1e-15)

    def test_only_symmat_calls_an_eigensolver(self):
        # Every spectrum goes through symmat, so there is one eigen backend.
        callers = set()
        for path in Path(symmat.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name in EIGEN_SOLVERS:
                    callers.add(path.name)
        assert callers == {"symmat.py"}


class TestElemSym:
    def test_diagonal_pairs(self):
        assert elem_sym(SymmetricMatrix.from_diag([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0)

    def test_identity(self):
        for n in range(2, 9):
            assert elem_sym(SymmetricMatrix.identity(n), 2) == pytest.approx(n * (n - 1) / 2)

    def test_2x2_determinant(self):
        assert elem_sym(SymmetricMatrix.from_full([[2.0, 1.0], [1.0, 2.0]]), 2) == pytest.approx(3.0)

    def test_order_zero_and_full(self):
        a = SymmetricMatrix.from_diag([1.0, 2.0, 3.0])
        assert elem_sym(a, 0) == 1.0
        assert elem_sym(a, 3) == pytest.approx(6.0)

    def test_out_of_range(self):
        a = SymmetricMatrix.identity(3)
        with pytest.raises(InputError):
            elem_sym(a, 4)
        with pytest.raises(InputError):
            elem_sym(a, -1)

    def test_trace_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 9)
            g = rng.standard_normal((n, n))
            a = SymmetricMatrix.from_full((g + g.T) / 2)
            assert elem_sym(a, 1) == pytest.approx(a.trace(), rel=1e-12, abs=1e-12)


class TestCofactor:
    def test_diagonal(self):
        c = cofactor_s2(SymmetricMatrix.from_diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(c.full(), np.diag([5.0, 4.0, 3.0]))

    def test_identity(self):
        c = cofactor_s2(SymmetricMatrix.identity(3))
        np.testing.assert_allclose(c.full(), 2.0 * np.eye(3))

    def test_contraction_is_twice_s2(self):
        a = SymmetricMatrix.from_diag([1.0, 2.0, 3.0])
        contraction = float(np.sum(cofactor_s2(a).full() * a.full()))
        assert contraction == pytest.approx(22.0)
        assert contraction == pytest.approx(2.0 * elem_sym(a, 2))

    def test_contraction_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.integers(2, 9)
            g = rng.standard_normal((n, n))
            a = SymmetricMatrix.from_full((g + g.T) / 2)
            contraction = float(np.sum(cofactor_s2(a).full() * a.full()))
            s2 = elem_sym(a, 2)
            assert abs(contraction - 2.0 * s2) <= 1e-10 * max(1.0, abs(s2))


class TestNewtonComatrix:
    def test_diagonal(self):
        b = newton_comatrix(SymmetricMatrix.from_diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(b.full(), np.diag([5.0, 8.0, 9.0]))
        assert b.trace() == pytest.approx(22.0)

    def test_identity(self):
        b = newton_comatrix(SymmetricMatrix.identity(4))
        np.testing.assert_allclose(b.full(), 3.0 * np.eye(4))

    def test_trace_identities(self):
        a = SymmetricMatrix.from_diag([1.0, 2.0, 3.0])
        b = newton_comatrix(a)
        tr_ba = float(np.trace(b.full() @ a.full()))
        assert 2.0 * tr_ba == pytest.approx(96.0)
        assert b.trace() * a.trace() - 6.0 * elem_sym(a, 3) == pytest.approx(96.0)

    def test_trace_identities_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = rng.integers(2, 9)
            g = rng.standard_normal((n, n))
            a = SymmetricMatrix.from_full((g + g.T) / 2)
            b = newton_comatrix(a)
            s2 = elem_sym(a, 2)
            s3 = elem_sym(a, 3) if n >= 3 else 0.0
            scale = max(1.0, a.norm() ** 3)
            assert abs(b.trace() - 2.0 * s2) <= 1e-10 * scale
            tr_ba = float(np.trace(b.full() @ a.full()))
            assert abs(2.0 * tr_ba + 6.0 * s3 - b.trace() * a.trace()) <= 1e-10 * scale


class TestOmittedSym:
    def test_dimension_three_vanishes(self):
        spec = Spectrum(eigenvalues=np.array([-1.0, 2.0, 5.0]))
        for m in (1, 2, 3):
            assert omitted_sym(spec, 3, m) == 0.0

    def test_four_values(self):
        spec = Spectrum(eigenvalues=np.array([1.0, 2.0, 3.0, 4.0]))
        assert omitted_sym(spec, 3, 1) == pytest.approx(24.0)

    def test_all_ones(self):
        spec = Spectrum(eigenvalues=np.ones(4))
        for m in (1, 2, 3, 4):
            assert omitted_sym(spec, 3, m) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        spec = Spectrum(eigenvalues=np.array([1.0, 2.0]))
        with pytest.raises(InputError):
            omitted_sym(spec, 1, 0)
        with pytest.raises(InputError):
            omitted_sym(spec, 1, 3)

    def test_weighted_sum_recursion(self):
        # sum_m S_k^(m) lam_m = (k+1) S_{k+1}; classical consistency oracle.
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = rng.integers(2, 9)
            lam = np.sort(rng.standard_normal(n))
            spec = Spectrum(eigenvalues=lam)
            for k in range(0, n):
                lhs = sum(omitted_sym(spec, k, m + 1) * lam[m] for m in range(n))
                rhs = (k + 1) * elem_sym_from_eigenvalues(lam, k + 1)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs), np.max(np.abs(lam)) ** (k + 1))


class TestSampler:
    def test_deterministic(self):
        s1 = sample_semidefinite(7, 4, "positive", 1.0)
        s2 = sample_semidefinite(7, 4, "positive", 1.0)
        assert s1.matrix.upper.tobytes() == s2.matrix.upper.tobytes()

    def test_positive_cone(self):
        for seed in range(20):
            s = sample_semidefinite(seed, 5, "positive", 1.0)
            lam = spectrum(s.matrix).eigenvalues
            assert lam[0] >= -1e-12

    def test_negative_cone(self):
        for seed in range(20):
            s = sample_semidefinite(seed, 5, "negative", 2.0)
            lam = spectrum(s.matrix).eigenvalues
            assert lam[-1] <= 1e-12 * 2.0

    def test_batch_hits_cone_boundary(self):
        a, _, _, _ = sample_batch(0, 4, "positive", 1.0, 2000)
        lam = np.linalg.eigvalsh(a)
        has_zero = np.sum(np.abs(lam) < 1e-13, axis=1) > 0
        frac = np.mean(has_zero)
        assert 0.1 < frac < 0.35

    def test_batch_shapes_and_dim_guard(self):
        a, v, _, _ = sample_batch(1, 3, "indefinite", 1.0, 10)
        assert a.shape == (10, 3, 3) and v.shape == (10, 3)
        with pytest.raises(InputError):
            sample_batch(1, 9, "positive", 1.0, 1)
        with pytest.raises(InputError):
            sample_batch(1, 3, "sideways", 1.0, 1)


# sha256 prefixes of (a.tobytes(), v.tobytes()) for sample_batch(11, dim, sign,
# 2.0, 64), recorded before sample_batch returned spectra: the sample stream
# must not move.
SAMPLE_DIGESTS = {
    ("positive", 2): ("988ca741d13255f2", "f0441242d524a41c"),
    ("positive", 5): ("4c47092bed76d613", "7fef5cc67bf04023"),
    ("positive", 8): ("3cedd93347db4a98", "cc8435399bb14184"),
    ("negative", 2): ("88fc0ecd179344f1", "d1f0c95c389e141b"),
    ("negative", 5): ("007da8121db9b12b", "2b180810b59e35f5"),
    ("negative", 8): ("9e9af0a1c639ef77", "394a6d6948d01848"),
    ("indefinite", 2): ("4312a2f4586be844", "f9ccce0212fe20b7"),
    ("indefinite", 5): ("a6de013f579dea6c", "1b004deaebcd13cf"),
    ("indefinite", 8): ("1fb7dca1c5452953", "66bd274f0558e47e"),
}


class TestSampleBatchSpectrum:
    @pytest.mark.parametrize("sign, dim", sorted(SAMPLE_DIGESTS))
    def test_stream_is_unchanged(self, sign, dim):
        a, v, _, _ = sample_batch(11, dim, sign, 2.0, 64)
        digests = tuple(hashlib.sha256(x.tobytes()).hexdigest()[:16] for x in (a, v))
        assert digests == SAMPLE_DIGESTS[sign, dim]

    @pytest.mark.parametrize("sign", ["positive", "negative", "indefinite"])
    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_spectrum_and_rotated_probe(self, sign, dim):
        scale = 3.0
        a, v, lam, w = sample_batch(5, dim, sign, scale, 500)
        assert lam.shape == w.shape == v.shape == (500, dim)
        np.testing.assert_allclose(np.sort(lam, axis=1), np.linalg.eigvalsh(a),
                                   rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(np.linalg.norm(w, axis=1), np.linalg.norm(v, axis=1),
                                   rtol=1e-12, atol=0.0)
        if sign == "positive":
            assert np.all(lam >= 0.0)
        elif sign == "negative":
            assert np.all(lam <= 0.0)
