import argparse
import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from conftest import checked_spectrum, elem_sym, elem_sym_from_eigenvalues
from hess2 import symmat
from hess2.errors import InputError, NumericalError
from hess2.symmat import (
    CAMPAIGN_CHUNK,
    cofactor,
    comatrix,
    householder_q,
    invariants,
    jacobi_eigh,
    sample_batch,
)
from oracles import comatrix_inequality, square_matrix


class TestSpectrum:
    def test_identity(self):
        np.testing.assert_allclose(checked_spectrum(np.eye(3)), [1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        np.testing.assert_allclose(checked_spectrum(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_2x2_characteristic_roots(self):
        # [[2,1],[1,2]] has characteristic polynomial (l-2)^2 - 1 = 0.
        lam = checked_spectrum([[2.0, 1.0], [1.0, 2.0]])
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
        with pytest.raises(InputError, match="finite"):
            square_matrix([[np.inf, 0.0], [0.0, 1.0]])


class TestSquareMatrix:
    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((2, 3)), np.ones((4, 3, 2))])
    def test_non_square_rejected(self, bad):
        with pytest.raises(InputError, match="square"):
            square_matrix(bad)

    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_dimension_outside_two_to_eight_rejected(self, n):
        with pytest.raises(InputError, match="dim must be in"):
            square_matrix(np.eye(n))

    def test_a_nonfinite_entry_of_a_stack_rejected(self):
        with pytest.raises(InputError, match="finite"):
            square_matrix(np.stack([np.eye(3), np.full((3, 3), np.nan)]))

    def test_only_the_upper_triangle_is_read(self):
        a = np.arange(27.0).reshape(3, 3, 3)
        got = square_matrix(a)
        for k in range(3):
            np.testing.assert_array_equal(got[k], np.triu(a[k]) + np.triu(a[k], 1).T)
        sym = 0.5 * (a + a.transpose(0, 2, 1))
        assert square_matrix(sym).tobytes() == sym.tobytes()


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

    def test_eigenvalues_alone_match_the_decomposition(self):
        rng = np.random.default_rng(6)
        for shape in ((6, 2, 2), (5, 3, 3), (4, 8, 8), (3, 3)):
            g = rng.standard_normal(shape)
            a = g + np.swapaxes(g, -1, -2)
            np.testing.assert_allclose(symmat.eigenvalues(a), jacobi_eigh(a)[0],
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_eigenvalues_alone_reject_a_nonfinite_stack(self, bad):
        stack = np.stack([np.eye(2), np.array([[1.0, bad], [bad, 2.0]])])
        with pytest.raises(NumericalError, match="non-finite spectrum"):
            symmat.eigenvalues(stack)

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


def _private_argparse_names() -> set:
    """`_`-prefixed, non-dunder names of argparse and of a parser's parts."""
    parser = argparse.ArgumentParser()
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--x", action="append")
    sub = parser.add_subparsers()
    sub.add_parser("y")
    names = set()
    for obj in (argparse, parser, group, sub, *parser._actions):
        names.update(n for n in dir(obj) if n.startswith("_") and not n.endswith("__"))
    return names


class TestModuleGuards:
    def test_no_private_argparse_names(self):
        # The CLI reads options through argparse's public API only.
        private = _private_argparse_names()
        assert {"_actions", "_get_values", "_AppendAction", "_group_actions"} <= private
        used = set()
        for path in Path(symmat.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in private:
                    used.add(f"{path.name}: {node.attr}")
        assert not used


class TestElemSym:
    # The test oracle `elem_sym`: Newton's identities on traces of powers,
    # cross-checked against the closed form on the spectrum.
    def test_diagonal_pairs(self):
        assert elem_sym(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0)

    def test_identity(self):
        for n in range(2, 9):
            assert elem_sym(np.eye(n), 2) == pytest.approx(n * (n - 1) / 2)

    def test_2x2_determinant(self):
        assert elem_sym(np.array([[2.0, 1.0], [1.0, 2.0]]), 2) == pytest.approx(3.0)

    def test_order_zero_and_full(self):
        a = np.diag([1.0, 2.0, 3.0])
        assert elem_sym(a, 0) == 1.0
        assert elem_sym(a, 3) == pytest.approx(6.0)

    def test_trace_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 9)
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            assert elem_sym(a, 1) == pytest.approx(np.trace(a), rel=1e-12, abs=1e-12)

    def test_from_eigenvalues_matches_the_subset_recursion(self):
        # Reference: the partial-sum recursion e_j += lam_i e_(j-1) over the
        # values, the double loop the characteristic-polynomial form replaced.
        def recursion(lam, k):
            e = np.zeros(max(k, len(lam)) + 1)
            e[0] = 1.0
            for i, value in enumerate(lam):
                for j in range(min(i + 1, k), 0, -1):
                    e[j] += value * e[j - 1]
            return float(e[k])

        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            lam = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            for k in range(n + 2):
                tol = 1e-12 * max(1.0, float(np.max(np.abs(lam)))) ** k
                assert abs(elem_sym_from_eigenvalues(lam, k) - recursion(lam, k)) <= tol


class TestCofactor:
    def test_diagonal(self):
        np.testing.assert_allclose(cofactor(np.diag([1.0, 2.0, 3.0])), np.diag([5.0, 4.0, 3.0]))

    def test_identity(self):
        np.testing.assert_allclose(cofactor(np.eye(3)), 2.0 * np.eye(3))

    def test_contraction_is_twice_s2(self):
        a = np.diag([1.0, 2.0, 3.0])
        contraction = float(np.sum(cofactor(a) * a))
        assert contraction == pytest.approx(22.0)
        assert contraction == pytest.approx(2.0 * elem_sym(a, 2))

    def test_contraction_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.integers(2, 9)
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            contraction = float(np.sum(cofactor(a) * a))
            s2 = elem_sym(a, 2)
            assert abs(contraction - 2.0 * s2) <= 1e-10 * max(1.0, abs(s2))


class TestNewtonComatrix:
    def test_diagonal(self):
        b = comatrix(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(b, np.diag([5.0, 8.0, 9.0]))
        assert np.trace(b) == pytest.approx(22.0)

    def test_identity(self):
        np.testing.assert_allclose(comatrix(np.eye(4)), 3.0 * np.eye(4))

    def test_trace_identities(self):
        a = np.diag([1.0, 2.0, 3.0])
        b = comatrix(a)
        tr_ba = float(np.trace(b @ a))
        assert 2.0 * tr_ba == pytest.approx(96.0)
        assert np.trace(b) * np.trace(a) - 6.0 * elem_sym(a, 3) == pytest.approx(96.0)

    def test_trace_identities_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = rng.integers(2, 9)
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            b = comatrix(a)
            s2 = elem_sym(a, 2)
            s3 = elem_sym(a, 3) if n >= 3 else 0.0
            scale = max(1.0, np.linalg.norm(a) ** 3)
            assert abs(np.trace(b) - 2.0 * s2) <= 1e-10 * scale
            tr_ba = float(np.trace(b @ a))
            assert abs(2.0 * tr_ba + 6.0 * s3 - np.trace(b) * np.trace(a)) <= 1e-10 * scale


def _random_stack(rng, dim, count=50):
    g = rng.standard_normal((count, dim, dim)) * rng.uniform(0.1, 10.0, size=(count, 1, 1))
    return 0.5 * (g + g.transpose(0, 2, 1))


class TestKernels:
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_s2_matches_elem_sym(self, dim):
        a = _random_stack(np.random.default_rng([31, dim]), dim)
        s1, s2 = invariants(a)
        for k, m in enumerate(a):
            scale = max(1.0, np.linalg.norm(m) ** 2)
            assert abs(s2[k] - elem_sym(m, 2)) <= 1e-12 * scale
            assert abs(s1[k] - elem_sym(m, 1)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_comatrix_trace_and_cofactor_contraction_are_twice_s2(self, dim):
        a = _random_stack(np.random.default_rng([37, dim]), dim)
        s2 = invariants(a)[1]
        scale = np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)) ** 2)
        np.testing.assert_array_less(
            np.abs(np.trace(comatrix(a), axis1=-2, axis2=-1) - 2.0 * s2), 1e-12 * scale)
        np.testing.assert_array_less(
            np.abs(np.sum(cofactor(a) * a, axis=(-2, -1)) - 2.0 * s2), 1e-12 * scale)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_frame_blocks_match_the_expanded_diagonal(self, dim):
        # Axis i of a diagonal frame block stands for w_i equal eigenvalues: the
        # radial split (1, N-1) and a random split of N.
        rng = np.random.default_rng([41, dim])
        cuts = np.sort(rng.choice(np.arange(1, dim), size=int(rng.integers(1, dim)),
                                  replace=False))
        for w in ((1, dim - 1), tuple(np.diff(np.concatenate([[0], cuts, [dim]])))):
            d = rng.standard_normal((50, len(w)))
            s1, s2 = invariants(d[:, :, None] * np.eye(len(w)), w)
            e1, e2 = invariants(np.repeat(d, w, axis=1)[:, :, None] * np.eye(dim))
            np.testing.assert_allclose(s1, e1, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(s2, e2, rtol=1e-12, atol=1e-12)

    def test_default_multiplicities_are_ones(self):
        a = _random_stack(np.random.default_rng(43), 4)
        for got, expect in zip(invariants(a), invariants(a, (1, 1, 1, 1))):
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_wrappers_return_the_kernels_bits(self, dim):
        # A kernel called on one matrix is its own one-matrix wrapper: it
        # returns that matrix's row of a stack bit for bit.
        stack = _random_stack(np.random.default_rng([47, dim]), dim, count=10)
        for kernel in (cofactor, comatrix):
            whole = kernel(stack)
            for k, m in enumerate(stack):
                assert kernel(m).tobytes() == whole[k].tobytes()


def _omitted_s3(lam):
    """S3 of lam with the m-th value omitted, for each m, as the closed residual
    of the one-pair inequality reads it: 2 S3^(m) for the probe e_m."""
    n = len(lam)
    rec = comatrix_inequality(np.repeat(np.diag(lam)[None], n, axis=0), np.eye(n))
    return rec.residual_closed / 2.0


class TestOmittedSym:
    def test_dimension_three_vanishes(self):
        np.testing.assert_allclose(_omitted_s3([-1.0, 2.0, 5.0]), 0.0, rtol=0, atol=1e-12)

    def test_four_values(self):
        assert _omitted_s3([1.0, 2.0, 3.0, 4.0])[0] == pytest.approx(24.0)

    def test_all_ones(self):
        np.testing.assert_allclose(_omitted_s3(np.ones(4)), 1.0)

    def test_weighted_sum_recursion(self):
        # sum_m S_3^(m) lam_m = 4 S_4; classical consistency oracle.
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = rng.integers(2, 9)
            lam = np.sort(rng.standard_normal(n))
            lhs = float(_omitted_s3(lam) @ lam)
            rhs = 4 * elem_sym_from_eigenvalues(lam, 4)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs), np.max(np.abs(lam)) ** 4)


class TestSampler:
    def test_deterministic(self):
        s1 = sample_batch(7, 4, "positive", 1.0, 1)[0]
        s2 = sample_batch(7, 4, "positive", 1.0, 1)[0]
        assert s1.tobytes() == s2.tobytes()

    def test_positive_cone(self):
        for seed in range(20):
            lam = checked_spectrum(sample_batch(seed, 5, "positive", 1.0, 1)[0][0])
            assert lam[0] >= -1e-12

    def test_negative_cone(self):
        for seed in range(20):
            lam = checked_spectrum(sample_batch(seed, 5, "negative", 2.0, 1)[0][0])
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
# 2.0, 64), recorded when the stream moved to per-chunk seeds and the batched
# Householder sampler: the sample stream must not move.
SAMPLE_DIGESTS = {
    ("positive", 2): ("b6963daa44fcf689", "e16cae2cc1333c0f"),
    ("positive", 5): ("12818808c69cf8aa", "05f1fa7249cee06d"),
    ("positive", 8): ("f1f7355c73edbbea", "d1648b0f8d744e7f"),
    ("negative", 2): ("a9b9ff9c55775219", "46104e0e907dedd4"),
    ("negative", 5): ("5dfd0c0b2daba770", "c6cfd065c9f11d2f"),
    ("negative", 8): ("c9dcb5366b33f6d6", "d675040241a55072"),
    ("indefinite", 2): ("08dbeb140ac34baa", "e17323707347fc76"),
    ("indefinite", 5): ("44a630da3b795db4", "cce990ff5f46171f"),
    ("indefinite", 8): ("2a1e4ee4df43e6e5", "a6da7776de4291d5"),
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


def _assert_matches_lapack(stack):
    """householder_q of a batch-first stack against np.linalg.qr's Q, and Q^T Q = I."""
    q = householder_q(stack.transpose(1, 2, 0))
    assert np.abs(q - np.linalg.qr(stack)[0].transpose(1, 2, 0)).max() <= 1e-12
    qb = q.transpose(2, 0, 1)
    gram = qb.transpose(0, 2, 1) @ qb
    assert np.abs(gram - np.eye(stack.shape[1])).max() <= 1e-14


class TestHouseholderQ:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_lapack_q_with_its_column_signs(self, n):
        _assert_matches_lapack(np.random.default_rng(n).standard_normal((300, n, n)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_special_inputs(self, n):
        rng = np.random.default_rng(10 + n)
        zero_col = rng.standard_normal((n, n))
        zero_col[:, n // 2] = 0.0
        stack = np.stack([np.zeros((n, n)),                        # every tau = 0
                          np.triu(rng.standard_normal((n, n))),    # zero tails: tau = 0
                          zero_col])
        _assert_matches_lapack(stack)
        np.testing.assert_array_equal(householder_q(stack[:2].transpose(1, 2, 0)),
                                      np.repeat(np.eye(n)[:, :, None], 2, axis=2))

    def test_stack_of_one_is_bitwise_a_member_of_a_larger_stack(self):
        stack = np.random.default_rng(3).standard_normal((50, 8, 8))
        whole = householder_q(stack.transpose(1, 2, 0))
        for i in (0, 17, 49):
            one = householder_q(stack[i:i + 1].transpose(1, 2, 0))
            assert one.shape == (8, 8, 1)
            assert one.tobytes() == np.ascontiguousarray(whole[:, :, i:i + 1]).tobytes()
        _assert_matches_lapack(stack[:1])


class TestSampleStreamPrefix:
    @pytest.mark.parametrize("sign", ["positive", "negative", "indefinite"])
    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_three_pieces_equal_one_batch(self, sign, dim):
        count = 2 * CAMPAIGN_CHUNK + 500
        cuts = (0, CAMPAIGN_CHUNK - 300, CAMPAIGN_CHUNK + 700, count)
        whole = sample_batch(4, dim, sign, 1.5, count)
        pieces = [sample_batch(4, dim, sign, 1.5, hi - lo, first=lo)
                  for lo, hi in zip(cuts, cuts[1:])]
        for name, full, parts in zip("a v lam w".split(), whole, zip(*pieces)):
            assert np.concatenate(parts).tobytes() == full.tobytes(), name

    def test_prefix_does_not_depend_on_count(self):
        short = sample_batch(8, 6, "positive", 1.0, 100)
        long = sample_batch(8, 6, "positive", 1.0, CAMPAIGN_CHUNK + 100)
        for x, y in zip(short, long):
            assert x.tobytes() == y[:100].tobytes()

    def test_bad_range_rejected(self):
        with pytest.raises(InputError):
            sample_batch(1, 3, "positive", 1.0, 0)
        with pytest.raises(InputError):
            sample_batch(1, 3, "positive", 1.0, 5, first=-1)
