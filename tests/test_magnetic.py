"""Tests for magnetic potentials, shift involutions, and the eigenbasis."""

import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from mqwalk import cli, fock, magnetic


def random_antisymmetric_table(n, rng):
    """Oracle-side table: independent uniform draw per unordered pair."""
    dim = 2 ** (n + 1)
    values = {}
    for sigma in range(dim):
        for tau in range(sigma + 1, dim):
            v = float(rng.uniform(-np.pi, np.pi))
            values[(sigma, tau)] = v
            values[(tau, sigma)] = -v
    return magnetic.FullPotentialTable(n=n, values=values)


def dense_shift(n, j, nu):
    """Independent dense construction straight from the basis action."""
    dim = 2 ** (n + 1)
    mat = np.zeros((dim, dim), dtype=complex)
    for sigma in range(dim):
        if (sigma >> j) & 1:
            mat[sigma ^ (1 << j), sigma] = np.exp(1j * nu.phases[j])
        else:
            mat[sigma ^ (1 << j), sigma] = np.exp(-1j * nu.phases[j])
    return mat


class TestPotentials:
    def test_null_potential(self):
        nu = magnetic.null_potential(2)
        np.testing.assert_array_equal(nu.phases, [0.0, 0.0, 0.0])
        assert nu.is_null()

    def test_phase_range_validated(self):
        with pytest.raises(ValueError, match="outside"):
            magnetic.MagneticPotential(np.array([0.0, 3.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, bad):
        with pytest.raises(ValueError, match="nu_1.*outside"):
            magnetic.MagneticPotential(np.array([0.0, bad]))

    def test_random_potential_deterministic(self):
        a = magnetic.random_potential(3, np.random.default_rng(5))
        b = magnetic.random_potential(3, np.random.default_rng(5))
        np.testing.assert_array_equal(a.phases, b.phases)
        assert np.all(np.abs(a.phases) <= np.pi)

    def test_phases_read_only(self):
        nu = magnetic.null_potential(1)
        with pytest.raises(ValueError):
            nu.phases[0] = 1.0

    def test_negative_n_rejected(self):
        makers = [
            magnetic.null_potential,
            lambda n: magnetic.random_potential(n, np.random.default_rng(0)),
            magnetic.FullPotentialTable,
        ]
        for make in makers:
            with pytest.raises(ValueError, match="n must be nonnegative, got -1"):
                make(-1)


class TestFullPotentialTable:
    def test_zero_table_reduces_to_null(self):
        table = magnetic.FullPotentialTable(n=2, values={})
        reduced = magnetic.reduce_potential(table)
        np.testing.assert_array_equal(reduced.phases, magnetic.null_potential(2).phases)

    def test_explicit_n1_reduction(self):
        # the pair ({0}, {1}) carries pi/3; masks are 1 and 2
        table = magnetic.FullPotentialTable(
            n=1, values={(1, 2): np.pi / 3, (2, 1): -np.pi / 3}
        )
        reduced = magnetic.reduce_potential(table)
        assert reduced.phases[0] == pytest.approx(np.pi / 3)
        assert reduced.phases[1] == pytest.approx(-np.pi / 3)

    def test_random_table_reduction_matches_lookup(self):
        rng = np.random.default_rng(11)
        table = random_antisymmetric_table(2, rng)
        reduced = magnetic.reduce_potential(table)
        for j in range(3):
            expected = table.lookup(1 << j, 0b111 ^ (1 << j))
            assert reduced.phases[j] == expected

    def test_antisymmetry_violation_names_pair(self):
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            magnetic.FullPotentialTable(n=1, values={(1, 2): 0.5})

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="antisymmetry"):
            magnetic.FullPotentialTable(n=1, values={(2, 2): 0.1})

    def test_value_range_validated(self):
        with pytest.raises(ValueError, match="outside"):
            magnetic.FullPotentialTable(n=1, values={(1, 2): 4.0, (2, 1): -4.0})
        with pytest.raises(ValueError, match="outside"):
            magnetic.FullPotentialTable(n=1, values={(1, 2): float("nan")})

    def test_json_round_trip(self):
        doc = {
            "n": 1,
            "entries": [
                {"sigma": 1, "tau": 2, "value": 0.25},
                {"sigma": 2, "tau": 1, "value": -0.25},
            ],
        }
        table = magnetic.FullPotentialTable.from_json_dict(doc)
        assert table.lookup(1, 2) == 0.25
        assert table.lookup(2, 1) == -0.25
        assert table.lookup(0, 3) == 0.0

    def test_json_duplicate_pair_rejected(self):
        doc = {
            "n": 1,
            "entries": [
                {"sigma": 1, "tau": 2, "value": 0.25},
                {"sigma": 1, "tau": 2, "value": 0.5},
            ],
        }
        with pytest.raises(ValueError, match="duplicate"):
            magnetic.FullPotentialTable.from_json_dict(doc)

    def test_json_file(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"n": 0, "entries": [{"sigma": 0, "tau": 1, "value": 0.1}, '
                        '{"sigma": 1, "tau": 0, "value": -0.1}]}')
        table = magnetic.FullPotentialTable.from_json_file(path)
        assert table.lookup(0, 1) == 0.1


def index_shift(n, j, nu):
    """The shift from index arithmetic: column sigma holds exp(i nu_j) when
    j is in sigma, else exp(-i nu_j), at row sigma xor 2^j."""
    dim = 2 ** (n + 1)
    cols = np.arange(dim)
    rows = cols ^ (1 << j)
    occupied = ((cols >> j) & 1).astype(bool)
    phase = nu.phases[j]
    data = np.where(occupied, np.exp(1j * phase), np.exp(-1j * phase))
    return sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))


class TestMagneticShift:
    @pytest.mark.parametrize("n", range(9))
    def test_ladder_form_matches_the_index_construction(self, n):
        # Xi_j = exp(-i nu_j) a*_j + exp(i nu_j) a_j, entry for entry; the
        # sign of a zero imaginary part may differ at nu_j = 0
        for nu in (magnetic.null_potential(n),
                   magnetic.random_potential(n, np.random.default_rng(420 + n))):
            for j in range(n + 1):
                shift = magnetic.magnetic_shift(n, j, nu)
                assert shift.nnz == 2 ** (n + 1)
                assert np.array_equal(shift.toarray(), index_shift(n, j, nu).toarray())

    def test_n0_matrix(self):
        nu = magnetic.MagneticPotential(np.array([1.1]))
        mat = magnetic.magnetic_shift(0, 0, nu).toarray()
        expected = np.array([[0, np.exp(1.1j)], [np.exp(-1.1j), 0]])
        np.testing.assert_allclose(mat, expected, atol=0)
        eigs = np.linalg.eigvals(mat)
        np.testing.assert_allclose(np.sort(eigs.real), [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(eigs.imag, 0.0, atol=1e-12)

    def test_vacuum_picks_up_negative_phase(self):
        # pushing the empty set across direction 0 at nu_0 = pi/2 gives -i
        nu = magnetic.MagneticPotential(np.array([np.pi / 2, 0.0]))
        image = magnetic.magnetic_shift(1, 0, nu) @ fock.basis_state(1, 0)
        np.testing.assert_allclose(image[0b01], -1j, atol=1e-15)
        assert np.count_nonzero(image) == 1

    @pytest.mark.parametrize("n", range(6))
    def test_involution_and_self_adjoint(self, n):
        rng = np.random.default_rng(100 + n)
        nu = magnetic.random_potential(n, rng)
        dim = 2 ** (n + 1)
        for j in range(n + 1):
            mat = magnetic.magnetic_shift(n, j, nu).toarray()
            assert np.abs(mat @ mat - np.eye(dim)).max() <= 1e-12
            assert np.abs(mat - mat.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("n", range(6))
    def test_matches_dense_oracle(self, n):
        nu = magnetic.random_potential(n, np.random.default_rng(7 * n + 1))
        for j in range(n + 1):
            np.testing.assert_array_equal(
                magnetic.magnetic_shift(n, j, nu).toarray(), dense_shift(n, j, nu)
            )

    def test_image_supported_on_single_neighbor(self):
        n = 3
        nu = magnetic.random_potential(n, np.random.default_rng(3))
        for j in range(n + 1):
            shift = magnetic.magnetic_shift(n, j, nu)
            for sigma in range(2 ** (n + 1)):
                image = shift @ fock.basis_state(n, sigma)
                support = np.nonzero(np.abs(image) > 1e-15)[0]
                assert list(support) == [sigma ^ (1 << j)]
                assert fock.is_adjacent(sigma, sigma ^ (1 << j))

    def test_pairwise_commutation(self):
        n = 3
        nu = magnetic.random_potential(n, np.random.default_rng(17))
        shifts = [magnetic.magnetic_shift(n, j, nu).toarray() for j in range(n + 1)]
        for j in range(n + 1):
            for k in range(n + 1):
                residual = np.abs(shifts[j] @ shifts[k] - shifts[k] @ shifts[j]).max()
                assert residual <= 1e-12

    def test_direction_out_of_range(self):
        with pytest.raises(ValueError):
            magnetic.magnetic_shift(1, 2, magnetic.null_potential(1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            magnetic.magnetic_shift(2, 0, magnetic.null_potential(1))


class TestShiftProductAction:
    def test_empty_gamma_is_identity(self):
        nu = magnetic.random_potential(2, np.random.default_rng(0))
        first, second = magnetic.shift_product_action(0, nu)
        np.testing.assert_array_equal(first, fock.basis_state(2, 0))
        np.testing.assert_array_equal(second, fock.basis_state(2, 0))

    def test_n1_explicit_phase(self):
        # product over gamma = {0, 1} at nu = (pi/4, pi/4) scales by exp(-i pi/2)
        nu = magnetic.MagneticPotential(np.array([np.pi / 4, np.pi / 4]))
        first, second = magnetic.shift_product_action(0b11, nu)
        np.testing.assert_allclose(first, np.exp(-1j * np.pi / 2) * fock.basis_state(1, 0b11), atol=1e-15)
        np.testing.assert_allclose(second, np.exp(1j * np.pi / 2) * fock.basis_state(1, 0), atol=1e-15)

    def test_matches_explicit_matrix_product(self):
        nu = magnetic.MagneticPotential(np.array([np.pi / 4, np.pi / 4]))
        product = dense_shift(1, 0, nu) @ dense_shift(1, 1, nu)
        first, second = magnetic.shift_product_action(0b11, nu)
        np.testing.assert_allclose(first, product @ fock.basis_state(1, 0), atol=1e-15)
        np.testing.assert_allclose(second, product @ fock.basis_state(1, 0b11), atol=1e-15)

    @pytest.mark.parametrize("n", range(4))
    def test_closed_form_all_gammas(self, n):
        nu = magnetic.random_potential(n, np.random.default_rng(50 + n))
        for gamma in range(2 ** (n + 1)):
            total = sum(nu.phases[j] for j in range(n + 1) if (gamma >> j) & 1)
            first, second = magnetic.shift_product_action(gamma, nu)
            np.testing.assert_allclose(
                first, np.exp(-1j * total) * fock.basis_state(n, gamma), atol=1e-13
            )
            np.testing.assert_allclose(
                second, np.exp(1j * total) * fock.basis_state(n, 0), atol=1e-13
            )


class TestXiHat:
    def test_n0_explicit(self):
        mat = magnetic.xi_hat(0b1, magnetic.null_potential(0))
        np.testing.assert_allclose(mat, np.ones((2, 2)), atol=1e-15)

    def test_self_adjoint(self):
        nu = magnetic.random_potential(2, np.random.default_rng(8))
        for sigma in range(8):
            mat = magnetic.xi_hat(sigma, nu)
            assert np.abs(mat - mat.conj().T).max() <= 1e-12

    def test_mutual_annihilation(self):
        nu = magnetic.random_potential(2, np.random.default_rng(9))
        mats = [magnetic.xi_hat(sigma, nu) for sigma in range(8)]
        for sigma in range(8):
            for tau in range(8):
                if sigma != tau:
                    assert np.abs(mats[sigma] @ mats[tau]).max() <= 1e-10

    def test_eigen_relation(self):
        n = 3
        nu = magnetic.random_potential(n, np.random.default_rng(10))
        for sigma in range(2 ** (n + 1)):
            hat = magnetic.xi_hat(sigma, nu)
            signs = fock.membership_signs(n, sigma)
            for j in range(n + 1):
                shift = magnetic.magnetic_shift(n, j, nu)
                residual = np.abs(shift @ hat - signs[j] * hat).max()
                assert residual <= 1e-10


class TestMagneticBasis:
    def test_n0_vacuum_vector(self):
        vec = magnetic.magnetic_basis_vector(0, magnetic.null_potential(0))
        np.testing.assert_allclose(vec, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("n", range(6))
    def test_unit_norm(self, n):
        nu = magnetic.random_potential(n, np.random.default_rng(60 + n))
        for sigma in range(2 ** (n + 1)):
            vec = magnetic.magnetic_basis_vector(sigma, nu)
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12

    def test_gram_identity(self):
        n = 3
        nu = magnetic.random_potential(n, np.random.default_rng(61))
        basis = magnetic.magnetic_basis_change(nu)
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(2 ** (n + 1))).max() <= 1e-10

    @pytest.mark.parametrize("n", range(5))
    def test_product_and_formula_agree(self, n):
        # the normalized signed-product construction matches the closed form
        nu = magnetic.random_potential(n, np.random.default_rng(62 + n))
        dim = 2 ** (n + 1)
        vacuum = fock.basis_state(n, 0)
        for sigma in range(dim):
            via_product = magnetic.xi_hat(sigma, nu) @ vacuum / np.sqrt(dim)
            via_formula = magnetic.magnetic_basis_vector(sigma, nu)
            assert np.abs(via_product - via_formula).max() <= 1e-12

    @pytest.mark.parametrize("n", range(4))
    def test_vacuum_columns_are_xi_hat_columns(self, n):
        # the batched products equal each operator's first column exactly
        nu = magnetic.random_potential(n, np.random.default_rng(66 + n))
        columns = magnetic.xi_hat_vacuum_columns(nu)
        assert columns.shape == (2 ** (n + 1),) * 2
        for sigma in range(2 ** (n + 1)):
            np.testing.assert_array_equal(columns[:, sigma], magnetic.xi_hat(sigma, nu)[:, 0])

    def test_basis_change_n0(self):
        basis = magnetic.magnetic_basis_change(magnetic.null_potential(0))
        np.testing.assert_allclose(
            basis, np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2), atol=1e-15
        )

    @pytest.mark.parametrize("n", range(6))
    def test_basis_change_unitary(self, n):
        nu = magnetic.random_potential(n, np.random.default_rng(63 + n))
        basis = magnetic.magnetic_basis_change(nu)
        dim = 2 ** (n + 1)
        assert np.abs(basis.conj().T @ basis - np.eye(dim)).max() <= 1e-10

    def test_conjugation_diagonalizes_shifts(self):
        n = 2
        nu = magnetic.random_potential(n, np.random.default_rng(64))
        basis = magnetic.magnetic_basis_change(nu)
        dim = 2 ** (n + 1)
        for j in range(n + 1):
            shift = magnetic.magnetic_shift(n, j, nu).toarray()
            diag = basis.conj().T @ shift @ basis
            expected = np.diag([fock.membership_signs(n, s)[j] for s in range(dim)])
            assert np.abs(diag - expected).max() <= 1e-10

    @pytest.mark.parametrize("n", range(5))
    def test_columns_are_basis_vectors(self, n):
        # one closed form builds both, so they agree bit for bit
        nu = magnetic.random_potential(n, np.random.default_rng(65))
        basis = magnetic.magnetic_basis_change(nu)
        for sigma in range(2 ** (n + 1)):
            np.testing.assert_array_equal(basis[:, sigma], magnetic.magnetic_basis_vector(sigma, nu))


def verify_all_checks(tmp_path):
    """The ``checks`` of a small verify-all report, and its exit code."""
    out = tmp_path / "report.json"
    code = cli.main(["--task", "verify-all", "--n", "1", "--coin", "hadamard-partition",
                     "--nu", "random", "--samples", "2", "--seed", "8", "--out", str(out)])
    return json.loads(out.read_text())["checks"], code


class TestBasisAdjoint:
    """B* applied as a fast Walsh-Hadamard transform, against the matrix."""

    @pytest.mark.parametrize("n", range(10))
    def test_matches_the_basis_change(self, n):
        rng = np.random.default_rng(90 + n)
        nu = magnetic.random_potential(n, rng)
        x = rng.normal(size=(2 ** (n + 1), 5)) + 1j * rng.normal(size=(2 ** (n + 1), 5))
        x /= np.linalg.norm(x, axis=0)
        want = magnetic.magnetic_basis_change(nu).conj().T @ x
        assert np.abs(magnetic._basis_adjoint(nu)(x) - want).max() <= 1e-15

    def test_nan_stays_nan(self):
        nu = magnetic.random_potential(3, np.random.default_rng(89))
        x = np.ones((16, 3), dtype=complex)
        x[5, 1] = np.nan
        out = magnetic._basis_adjoint(nu)(x)
        # every entry of B* is nonzero, so the NaN reaches its whole column
        assert np.isnan(out[:, 1]).all()
        assert np.isfinite(out[:, [0, 2]]).all()


class TestEigenbasisCheck:
    @pytest.mark.parametrize("n", range(5))
    def test_residuals_are_round_off(self, n):
        report = magnetic.eigenbasis_check(magnetic.random_potential(n, np.random.default_rng(70 + n)))
        assert report.involution_passed()
        assert report.eigenbasis_passed(1e-10)
        assert report.gram_residual <= 1e-12
        assert report.eigen_relation_residual <= 1e-12

    def test_builds_each_shift_once(self, monkeypatch):
        n = 3
        built = []

        def counting_shift(n, j, nu, shift=magnetic.magnetic_shift):
            built.append(j)
            return shift(n, j, nu)

        def no_basis_vector(sigma, nu):
            raise AssertionError("the check rebuilt a basis column")

        monkeypatch.setattr(magnetic, "magnetic_shift", counting_shift)
        monkeypatch.setattr(magnetic, "magnetic_basis_vector", no_basis_vector)
        magnetic.eigenbasis_check(magnetic.random_potential(n, np.random.default_rng(75)))
        assert built == list(range(n + 1))

    def test_gates(self):
        report = magnetic.EigenbasisReport(0.0, 0.0, 1e-9, 1e-9, 2 * fock.EXACT_TOL)
        assert report.involution_passed()
        assert not report.eigenbasis_passed(1e-8)
        assert replace(report, construction_agreement=0.0).eigenbasis_passed(1e-8)
        assert not replace(report, construction_agreement=0.0).eigenbasis_passed(1e-10)
        assert not replace(report, self_adjoint_residual=2 * fock.EXACT_TOL).involution_passed()


class TestNanResidualFolds:
    """A NaN residual stays in the report and fails the check."""

    @staticmethod
    def nan_shift(n, j, nu):
        dim = 2 ** (n + 1)
        return sp.csr_matrix(np.full((dim, dim), np.nan, dtype=complex))

    def test_involution_residuals(self, monkeypatch, tmp_path):
        monkeypatch.setattr(magnetic, "magnetic_shift", self.nan_shift)
        report = magnetic.eigenbasis_check(magnetic.random_potential(1, np.random.default_rng(80)))
        assert np.isnan(report.square_residual)
        assert np.isnan(report.self_adjoint_residual)
        assert report.involution_passed() is False
        checks, code = verify_all_checks(tmp_path)
        assert checks["involution"]["passed"] is False
        assert code == 1

    def test_eigen_relation_residual(self, monkeypatch, tmp_path):
        monkeypatch.setattr(magnetic, "magnetic_shift", self.nan_shift)
        report = magnetic.eigenbasis_check(magnetic.random_potential(1, np.random.default_rng(81)))
        assert np.isnan(report.eigen_relation_residual)
        assert report.eigenbasis_passed(1e-10) is False
        checks, code = verify_all_checks(tmp_path)
        assert checks["eigenbasis"]["passed"] is False
        assert code == 1

    def test_construction_agreement(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            magnetic, "_vacuum_columns", lambda n, shifts: np.full((4, 4), np.nan, dtype=complex)
        )
        report = magnetic.eigenbasis_check(magnetic.random_potential(1, np.random.default_rng(82)))
        assert np.isnan(report.construction_agreement)
        assert report.gram_residual <= 1e-12
        assert report.eigenbasis_passed(1e-10) is False
        checks, code = verify_all_checks(tmp_path)
        assert checks["eigenbasis"]["passed"] is False
        assert checks["involution"]["passed"] is True
        assert code == 1
