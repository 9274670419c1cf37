"""Tests for magnetic potentials, shift involutions, and the eigenbasis."""

import numpy as np
import pytest

from mqwalk import fock, magnetic


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


class TestMagneticShift:
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

    def test_columns_are_basis_vectors(self):
        nu = magnetic.random_potential(2, np.random.default_rng(65))
        basis = magnetic.magnetic_basis_change(nu)
        for sigma in range(8):
            np.testing.assert_allclose(
                basis[:, sigma], magnetic.magnetic_basis_vector(sigma, nu), atol=1e-15
            )
