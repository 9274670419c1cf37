"""Tests for the walk operator, dynamics, and the block reduction."""

import numpy as np
import pytest

from mqwalk import coin, fock, magnetic, walk


def dense_oracle(nu, cs):
    """Independent dense assembly: explicit Kronecker blocks per direction."""
    n, d = cs.n, cs.d
    dim_fock = 2 ** (n + 1)
    total = np.zeros((dim_fock * d, dim_fock * d), dtype=complex)
    for j in range(n + 1):
        shift = np.zeros((dim_fock, dim_fock), dtype=complex)
        for sigma in range(dim_fock):
            phase = nu.phases[j] if (sigma >> j) & 1 else -nu.phases[j]
            shift[sigma ^ (1 << j), sigma] = np.exp(1j * phase)
        total += np.kron(shift, cs.ops[j])
    return total


class TestAssembly:
    def test_n0_single_term(self):
        cs = coin.CoinSystem((np.array([[1.0]]),))
        op = walk.evolution_operator(magnetic.null_potential(0), cs)
        np.testing.assert_array_equal(op.dense(), [[0, 1], [1, 0]])

    def test_n0_imaginary_coin(self):
        cs = coin.CoinSystem((np.array([[1j]]),))
        op = walk.evolution_operator(magnetic.null_potential(cs.n), cs)
        np.testing.assert_allclose(op.dense(), [[0, 1j], [1j, 0]], atol=1e-15)

    def test_n1_hadamard_unitary(self):
        cs = coin.hadamard_partition_coin_system()
        op = walk.evolution_operator(magnetic.null_potential(1), cs)
        mat = op.dense()
        assert mat.shape == (8, 8)
        assert np.abs(mat.conj().T @ mat - np.eye(8)).max() <= 1e-12

    @pytest.mark.parametrize("n", range(4))
    def test_matches_kron_oracle(self, n):
        rng = np.random.default_rng(30 + n)
        cs = coin.random_coin_system(n, n + 2, seed=n)
        nu = magnetic.random_potential(n, rng)
        op = walk.evolution_operator(nu, cs)
        np.testing.assert_allclose(op.dense(), dense_oracle(nu, cs), atol=1e-15)

    def test_null_reduction_exact(self):
        # at zero phases every shift is a plain bit flip, so the walk is the
        # phase-free Kronecker sum entry for entry
        for seed in range(5):
            cs = coin.random_coin_system(2, 4, seed=seed)
            nu = magnetic.null_potential(2)
            a = walk.evolution_operator(nu, cs).dense()
            assert (a == dense_oracle(nu, cs)).all()

    def test_mismatched_order_rejected(self):
        cs = coin.grover_coin_system(2)
        with pytest.raises(ValueError, match="n="):
            walk.evolution_operator(magnetic.null_potential(1), cs)

    def test_dense_guard(self):
        cs = coin.random_coin_system(11, 12, seed=0)
        op = walk.evolution_operator(magnetic.null_potential(11), cs)
        with pytest.raises(walk.CapacityError):
            op.dense()

    @pytest.mark.parametrize("seed", range(3))
    def test_unitarity(self, seed):
        cs = coin.random_coin_system(3, 5, seed=seed)
        nu = magnetic.random_potential(3, np.random.default_rng(seed))
        mat = walk.evolution_operator(nu, cs).dense()
        assert np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max() <= 1e-10


class TestStates:
    def test_vertex_state(self):
        state = walk.vertex_state(2, 3, 0b101, coin_index=1)
        assert state.vector[0b101 * 3 + 1] == 1.0
        assert np.count_nonzero(state.vector) == 1
        assert state.t == 0

    def test_uniform_coin_state(self):
        state = walk.uniform_coin_vertex_state(1, 4, 0b10)
        dist = walk.position_distribution(state)
        assert dist[0b10] == pytest.approx(1.0)

    def test_magnetic_eigenstate_norm(self):
        nu = magnetic.random_potential(2, np.random.default_rng(1))
        u = np.zeros(4, dtype=complex)
        u[2] = 1.0
        state = walk.magnetic_eigenstate(nu, 0b011, u)
        assert np.linalg.norm(state.vector) == pytest.approx(1.0)

    def test_non_unit_state_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            walk.WalkState(np.ones(4, dtype=complex), 0, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, bad):
        with pytest.raises(ValueError, match="unit"):
            walk.WalkState(np.full(8, bad, dtype=complex), 0, 2)
        vec = np.zeros(8, dtype=complex)
        vec[0] = bad
        with pytest.raises(ValueError, match="unit"):
            walk.WalkState(vec, 0, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coin_vector_rejected(self, bad):
        nu = magnetic.null_potential(1)
        with pytest.raises(ValueError, match="unit"):
            walk.magnetic_eigenstate(nu, 0, np.array([bad, 0.0]))

    def test_bad_coin_vector_rejected(self):
        nu = magnetic.null_potential(1)
        with pytest.raises(ValueError, match="unit"):
            walk.magnetic_eigenstate(nu, 0, np.array([2.0, 0.0]))

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            walk.vertex_state(1, 2, 4)
        with pytest.raises(ValueError):
            walk.vertex_state(1, 2, 0, coin_index=2)


class TestDynamics:
    def test_eigenstate_stays_put(self):
        cs = coin.hadamard_partition_coin_system()
        nu = magnetic.random_potential(1, np.random.default_rng(12))
        op = walk.evolution_operator(nu, cs)
        for sigma in range(4):
            u_sigma = coin.algebraic_sum(cs, sigma)
            lam, vecs = np.linalg.eig(u_sigma)
            for i in range(2):
                vec = vecs[:, i] / np.linalg.norm(vecs[:, i])
                state = walk.magnetic_eigenstate(nu, sigma, vec)
                advanced = walk.step(op, state)
                assert abs(abs(lam[i]) - 1.0) <= 1e-12
                np.testing.assert_allclose(
                    advanced.vector, lam[i] * state.vector, atol=1e-12
                )

    def test_norm_preserved_over_many_steps(self):
        cs = coin.random_coin_system(3, 4, seed=3)
        nu = magnetic.random_potential(3, np.random.default_rng(3))
        op = walk.evolution_operator(nu, cs)
        state = walk.uniform_coin_vertex_state(3, 4, 0)
        state = walk.evolve(op, state, 200)
        assert abs(np.linalg.norm(state.vector) - 1.0) <= 1e-10
        assert state.t == 200

    @pytest.mark.parametrize("seed", range(3))
    def test_matrix_free_matches_dense(self, seed):
        cs = coin.random_coin_system(3, 5, seed=seed)
        nu = magnetic.random_potential(3, np.random.default_rng(40 + seed))
        op = walk.evolution_operator(nu, cs)
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
        vec /= np.linalg.norm(vec)
        np.testing.assert_allclose(op.apply(vec), op.dense() @ vec, atol=1e-12)

    def test_evolve_zero_steps_is_identity(self):
        cs = coin.grover_coin_system(1)
        op = walk.evolution_operator(magnetic.null_potential(cs.n), cs)
        state = walk.vertex_state(1, 2, 0)
        out = walk.evolve(op, state, 0)
        np.testing.assert_array_equal(out.vector, state.vector)
        assert out.t == 0

    def test_evolve_two_steps_composes(self):
        cs = coin.grover_coin_system(1)
        nu = magnetic.random_potential(1, np.random.default_rng(2))
        op = walk.evolution_operator(nu, cs)
        state = walk.vertex_state(1, 2, 1)
        via_evolve = walk.evolve(op, state, 2)
        via_steps = walk.step(op, walk.step(op, state))
        np.testing.assert_array_equal(via_evolve.vector, via_steps.vector)
        assert via_evolve.t == 2

    def test_evolve_matches_matrix_power(self):
        cs = coin.random_coin_system(2, 3, seed=5)
        nu = magnetic.random_potential(2, np.random.default_rng(5))
        op = walk.evolution_operator(nu, cs)
        state = walk.uniform_coin_vertex_state(2, 3, 0b10)
        for t in (1, 7, 64):
            expected = np.linalg.matrix_power(op.dense(), t) @ state.vector
            out = walk.evolve(op, state, t)
            np.testing.assert_allclose(out.vector, expected, atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        cs = coin.grover_coin_system(1)
        op = walk.evolution_operator(magnetic.null_potential(cs.n), cs)
        with pytest.raises(ValueError):
            walk.step(op, walk.vertex_state(2, 2, 0))

    def test_negative_steps_rejected(self):
        cs = coin.grover_coin_system(1)
        op = walk.evolution_operator(magnetic.null_potential(cs.n), cs)
        with pytest.raises(ValueError):
            walk.evolve(op, walk.vertex_state(1, 2, 0), -1)


def haar(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (r.diagonal().conj() / np.abs(r.diagonal()))


def rotated_partition_coin(n, d, seed):
    """C_j = S V E_j V*: projections P_j that are not coordinate projections."""
    rng = np.random.default_rng(seed)
    s, v = haar(d, rng), haar(d, rng)
    blocks = np.array_split(rng.permutation(d), n + 1)
    return coin.CoinSystem(tuple(s @ v[:, b] @ v[:, b].conj().T for b in blocks))


def assert_kernel_matches_dense(cs, seed=0):
    nu = magnetic.random_potential(cs.n, np.random.default_rng(seed))
    op = walk.evolution_operator(nu, cs)
    rng = np.random.default_rng(seed + 1)
    vec = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    vec /= np.linalg.norm(vec)
    assert np.abs(op.apply(vec) - op.dense() @ vec).max() <= 1e-12
    return op


class TestFactoredKernel:
    """apply against the literal Kronecker sum, on coins of every shape."""

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 5), (3, 4), (4, 7)])
    def test_rotated_partition(self, n, d):
        cs = rotated_partition_coin(n, d, seed=10 * n + d)
        assert coin.validate_coin_system(cs).passed()
        assert assert_kernel_matches_dense(cs).factor_width == d

    def test_grover_uneven_blocks(self):
        d = 7
        s = 2.0 / d * np.ones((d, d)) - np.eye(d)
        cs = coin.coin_from_unitary_partition(s, [[0, 3, 5, 6], [1], [2, 4]])
        assert assert_kernel_matches_dense(cs, seed=3).factor_width == d

    def test_random_coin_wider_than_n_plus_1(self):
        cs = coin.random_coin_system(2, 9, seed=4)
        assert assert_kernel_matches_dense(cs, seed=4).factor_width == 9

    @pytest.mark.parametrize("d", [1, 3])
    def test_n0(self, d):
        cs = coin.CoinSystem((haar(d, np.random.default_rng(d)),))
        assert assert_kernel_matches_dense(cs, seed=5).factor_width == d

    def test_generic_full_rank_matrices(self):
        # not a coin system: no identity holds, each matrix has rank d
        n, d = 2, 4
        rng = np.random.default_rng(6)
        cs = coin.CoinSystem(tuple(
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n + 1)
        ))
        assert assert_kernel_matches_dense(cs, seed=6).factor_width == (n + 1) * d

    def test_noisy_coin_keeps_its_extra_directions(self):
        n, d = 3, 5
        base = coin.random_coin_system(n, d, seed=7)
        rng = np.random.default_rng(7)
        cs = coin.CoinSystem(tuple(
            op + 1e-11 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            for op in base.ops
        ))
        assert assert_kernel_matches_dense(cs, seed=7).factor_width == (n + 1) * d

    def test_zero_coin_contributes_nothing(self):
        d = 3
        s = haar(d, np.random.default_rng(8))
        cs = coin.CoinSystem((s, np.zeros((d, d))))
        assert assert_kernel_matches_dense(cs, seed=8).factor_width == d

    @pytest.mark.parametrize("cs", [
        coin.hadamard_partition_coin_system(),
        *(coin.grover_coin_system(n) for n in (1, 2, 5, 9)),
        *(coin.random_coin_system(n, d, seed=n + d) for n, d in ((0, 1), (3, 4), (5, 6), (5, 11))),
    ], ids=lambda cs: f"n{cs.n}-d{cs.d}")
    def test_builtin_coins_have_width_d(self, cs):
        # the two kernel matmuls stay (2^(n+1), d) @ (d, d)
        op = walk.evolution_operator(magnetic.null_potential(cs.n), cs)
        assert op.factor_width == cs.d


class TestPositionDistribution:
    def test_vertex_state_concentrated(self):
        state = walk.vertex_state(2, 3, 0)
        dist = walk.position_distribution(state)
        assert dist[0] == 1.0
        assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    def test_magnetic_eigenstate_uniform(self):
        # every component of the eigenbasis vectors has the same modulus
        n = 2
        nu = magnetic.null_potential(n)
        state = walk.magnetic_eigenstate(nu, 0b101, np.array([1.0, 0, 0], dtype=complex))
        dist = walk.position_distribution(state)
        np.testing.assert_allclose(dist, np.full(8, 1 / 8), atol=1e-12)

    def test_one_step_support_on_neighbors(self):
        n = 2
        cs = coin.grover_coin_system(n)
        op = walk.evolution_operator(magnetic.null_potential(cs.n), cs)
        state = walk.step(op, walk.vertex_state(n, n + 1, 0))
        dist = walk.position_distribution(state)
        support = set(np.nonzero(dist > 1e-14)[0])
        neighbors = {1 << j for j in range(n + 1)}
        assert support <= neighbors
        assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    def test_locality_from_any_vertex(self):
        n = 2
        cs = coin.random_coin_system(n, 4, seed=8)
        nu = magnetic.random_potential(n, np.random.default_rng(8))
        op = walk.evolution_operator(nu, cs)
        for sigma in range(8):
            state = walk.step(op, walk.uniform_coin_vertex_state(n, 4, sigma))
            dist = walk.position_distribution(state)
            for tau in np.nonzero(dist > 1e-14)[0]:
                assert fock.is_adjacent(sigma, int(tau))


class TestIntertwining:
    def test_n0_single_coin_blocks(self):
        cs = coin.CoinSystem((np.array([[np.exp(0.4j)]]),))
        nu = magnetic.MagneticPotential(np.array([0.9]))
        report = walk.intertwining_check(walk.evolution_operator(nu, cs))
        assert report.max_residual <= 1e-12
        # blocks are -C_0 at the empty set and +C_0 at {0}
        basis = magnetic.magnetic_basis_change(nu)
        rotated = basis.conj().T @ walk.evolution_operator(nu, cs).dense() @ basis
        np.testing.assert_allclose(np.diag(rotated), [-np.exp(0.4j), np.exp(0.4j)], atol=1e-12)

    def test_n1_hadamard_random_nu(self):
        cs = coin.hadamard_partition_coin_system()
        nu = magnetic.random_potential(1, np.random.default_rng(71))
        report = walk.intertwining_check(walk.evolution_operator(nu, cs))
        assert report.max_residual <= 1e-12

    def test_residual_independent_of_nu(self):
        cs = coin.random_coin_system(2, 4, seed=6)
        rng = np.random.default_rng(72)
        for _ in range(5):
            nu = magnetic.random_potential(2, rng)
            report = walk.intertwining_check(walk.evolution_operator(nu, cs))
            assert report.max_residual <= 1e-10
            assert report.passed()

    @staticmethod
    def hadamard_operator():
        nu = magnetic.random_potential(1, np.random.default_rng(73))
        return walk.evolution_operator(nu, coin.hadamard_partition_coin_system())

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_block_scan_matches_per_block_scan(self, monkeypatch, noise):
        nu = magnetic.random_potential(2, np.random.default_rng(74))
        cs = coin.random_coin_system(2, 4, seed=7)
        op = walk.evolution_operator(nu, cs)
        mat = op.dense() + noise * np.random.default_rng(75).normal(size=(op.dim, op.dim))
        monkeypatch.setattr(op, "dense", lambda: mat.copy())
        basis = magnetic.magnetic_basis_change(nu)
        # the same rotation, scanned one (rho, tau) block at a time
        rotated = np.einsum("gr,gasb,st->ratb", basis.conj(), mat.reshape(8, 4, 8, 4), basis,
                            optimize=True)
        off_block = block_mismatch = 0.0
        for rho in range(8):
            for tau in range(8):
                block = rotated[rho, :, tau, :]
                if rho == tau:
                    block_mismatch = max(block_mismatch,
                                         np.abs(block - coin.algebraic_sum(cs, rho)).max())
                else:
                    off_block = max(off_block, np.abs(block).max())
        report = walk.intertwining_check(op)
        assert report.off_block_mass == off_block
        assert report.max_block_mismatch == block_mismatch
        assert report.passed() == (noise == 0.0)

    def test_max_residual_keeps_nan(self):
        report = walk.IntertwiningReport(
            n=1, d=2, max_vector_residual=0.0, off_block_mass=np.nan, max_block_mismatch=0.0
        )
        assert np.isnan(report.max_residual)
        assert not report.passed()

    def test_nan_vector_residual_is_kept(self):
        op = self.hadamard_operator()
        op.apply = lambda vec: np.full_like(vec, np.nan)
        report = walk.intertwining_check(op)
        assert np.isnan(report.max_vector_residual)
        assert report.off_block_mass <= 1e-12
        assert not report.passed()

    def test_nan_block_residuals_are_kept(self, monkeypatch):
        monkeypatch.setattr(walk, "max_abs", lambda a: float("nan"))
        report = walk.intertwining_check(self.hadamard_operator())
        assert np.isnan(report.off_block_mass)
        assert np.isnan(report.max_block_mismatch)
        assert not report.passed()
