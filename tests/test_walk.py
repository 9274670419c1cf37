"""Tests for the walk operator, dynamics, and the block reduction."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

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


def kron_sum_oracle(nu, cs):
    """The walk as the literal sum over j of sp.kron(Xi_j, C_j), in CSR form."""
    acc = None
    for j, op in enumerate(cs.ops):
        term = sp.kron(magnetic.magnetic_shift(cs.n, j, nu), sp.csr_matrix(op), format="csr")
        acc = term if acc is None else acc + term
    return acc


def signed_zero_coins():
    """Projections of a 3 x 3 coin whose zero entries carry both signs of zero."""
    ops = [np.diag([1.0, 0.0, 0.0]).astype(complex), np.diag([0.0, 1j, 0.0]),
           np.diag([0.0, 0.0, -1.0]).astype(complex)]
    ops[0][1, 2] = complex(-0.0, 0.0)
    ops[2][0, 1] = complex(0.0, -0.0)
    return coin.CoinSystem(tuple(ops))


def rank_deficient_coins():
    """Coins of ranks 1, 1 and 2 in dimension 4, not a partition of a unitary."""
    return coin.CoinSystem((
        np.outer([1, 2j, 0, 1], [1, 0, 1, -1j]),
        np.outer([0, 1, 1, 1], [2, 1, 0, 0]),
        np.outer([1, 0, 0, 1j], [1, 1, 1, 1]) + np.outer([0, 1, 0, 0], [0, 0, 1j, 0]),
    ))


ASSEMBLY_COINS = {
    "hadamard-partition": coin.hadamard_partition_coin_system,
    **{f"grover{n}": (lambda n=n: coin.grover_coin_system(n)) for n in (1, 3, 6)},
    **{f"random-n{n}": (lambda n=n: coin.random_coin_system(n, n + 2, seed=n)) for n in range(7)},
    "rank-deficient": rank_deficient_coins,
    "signed-zeros": signed_zero_coins,
}


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

    @pytest.mark.parametrize("case", sorted(ASSEMBLY_COINS))
    def test_one_pass_is_the_kron_sum(self, case):
        cs = ASSEMBLY_COINS[case]()
        # a random potential, and one of phases 0, pi and -pi
        for nu in (magnetic.random_potential(cs.n, np.random.default_rng(33)),
                   magnetic.MagneticPotential(np.resize([0.0, np.pi, -np.pi], cs.n + 1))):
            mat = walk.evolution_operator(nu, cs).sparse()
            want = kron_sum_oracle(nu, cs)
            assert mat.format == "csr" and mat.shape == want.shape and mat.has_canonical_format
            for got, ref in ((mat.data, want.data), (mat.indices, want.indices),
                             (mat.indptr, want.indptr)):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
                assert not got.flags.writeable

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

    def test_state_copies_a_caller_array(self):
        for writeable in (True, False):
            vec = np.zeros(8, dtype=complex)
            vec[3] = 1.0
            vec.flags.writeable = writeable
            state = walk.WalkState(vec, 0, 2)
            assert not np.shares_memory(state.vector, vec)
            assert vec.flags.writeable == writeable
            assert not state.vector.flags.writeable

    def test_stepped_state_is_read_only(self):
        op = walk.evolution_operator(magnetic.null_potential(1), coin.grover_coin_system(1))
        state = walk.step(op, walk.vertex_state(1, 2, 0))
        assert state.t == 1 and state.coin_dim == 2
        assert not state.vector.flags.writeable
        with pytest.raises(ValueError):
            state.vector[0] = 0.0

    def test_step_keeps_the_state_checks(self, monkeypatch):
        op = walk.evolution_operator(magnetic.null_potential(1), coin.grover_coin_system(1))
        state = walk.vertex_state(1, 2, 0)
        monkeypatch.setattr(op, "apply", lambda vec: 2 * vec)
        with pytest.raises(ValueError, match="unit"):
            walk.step(op, state)
        monkeypatch.setattr(op, "apply", lambda vec: vec.reshape(4, 2).copy())
        with pytest.raises(ValueError, match="1-d"):
            walk.step(op, state)

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
    """apply of one state against the dense matrix, and of a block of
    states against the sparse one."""
    nu = magnetic.random_potential(cs.n, np.random.default_rng(seed))
    op = walk.evolution_operator(nu, cs)
    rng = np.random.default_rng(seed + 1)
    vec = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    vec /= np.linalg.norm(vec)
    assert np.abs(op.apply(vec) - op.dense() @ vec).max() <= 1e-12
    block = rng.normal(size=(op.dim, 3)) + 1j * rng.normal(size=(op.dim, 3))
    block /= np.linalg.norm(block, axis=0)
    assert np.abs(op.apply(block) - op.sparse() @ block).max() <= 1e-12
    return op


class TestFactoredKernel:
    """apply against the literal Kronecker sum, on coins of every shape."""

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 5), (3, 4), (4, 7)])
    def test_rotated_partition(self, n, d):
        cs = rotated_partition_coin(n, d, seed=10 * n + d)
        assert coin.validate_coin_system(cs).passed()
        assert assert_kernel_matches_dense(cs).factor_width == d

    @pytest.mark.parametrize("macs,rows", [(1, 1), (200, 4), (1000, 16)])
    def test_products_in_row_blocks(self, monkeypatch, macs, rows):
        # n=4, d=7: 32 position rows, 49 multiply-adds per row
        monkeypatch.setattr(walk, "_GEMM_MACS", macs)
        op = assert_kernel_matches_dense(rotated_partition_coin(4, 7, seed=3), seed=8)
        assert op._gemm_rows == rows

    def test_generic_matrices_in_row_blocks(self, monkeypatch):
        # n=2, d=4: 8 position rows, and the width (n+1) d = 12 makes 48
        # multiply-adds per row
        monkeypatch.setattr(walk, "_GEMM_MACS", 100)
        rng = np.random.default_rng(9)
        cs = coin.CoinSystem(tuple(
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)
        ))
        assert assert_kernel_matches_dense(cs, seed=9)._gemm_rows == 2

    def test_grover_uneven_blocks(self):
        d = 7
        s = 2.0 / d * np.ones((d, d)) - np.eye(d)
        cs = coin.coin_from_unitary_partition(s, [[0, 3, 5, 6], [1], [2, 4]])
        assert assert_kernel_matches_dense(cs, seed=3).factor_width == d

    def test_random_coin_wider_than_n_plus_1(self):
        cs = coin.random_coin_system(2, 9, seed=4)
        assert assert_kernel_matches_dense(cs, seed=4).factor_width == 9

    @pytest.mark.parametrize("m", [1, 7])
    def test_block_columns_are_single_applies(self, m):
        # a C-order and a Fortran-order block, each column against apply of
        # that column alone
        cs = rotated_partition_coin(4, 7, seed=11)
        op = walk.evolution_operator(magnetic.random_potential(4, np.random.default_rng(11)), cs)
        rng = np.random.default_rng(12)
        block = rng.normal(size=(op.dim, m)) + 1j * rng.normal(size=(op.dim, m))
        for form in (block, np.asfortranarray(block)):
            out = op.apply(form)
            assert out.shape == (op.dim, m)
            for i in range(m):
                assert np.abs(out[:, i] - op.apply(block[:, i])).max() <= 1e-14

    @pytest.mark.parametrize("shape", [(223,), (225, 2), (224, 2, 2), (2, 224)])
    def test_wrong_shapes_rejected(self, shape):
        op = walk.evolution_operator(magnetic.null_potential(4), rotated_partition_coin(4, 7, seed=3))
        assert op.dim == 224
        with pytest.raises(ValueError, match="expected"):
            op.apply(np.zeros(shape, dtype=complex))

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


def complex_with_signed_zeros(shape, rng):
    """A random complex array with some parts -0.0 and +0.0, whose signs a
    product carries into its result."""
    out = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    flat = out.reshape(-1)
    flat[::3] = complex(-0.0, 0.0)
    flat[1::5] = complex(0.0, -0.0)
    return out


class TestLift:
    """``walk._lift`` forms b (x) X in the position-major layout, with the
    bytes of the forms it replaced."""

    @pytest.mark.parametrize("n, d", [(0, 1), (1, 3), (3, 5)])
    def test_matches_kron_on_the_witness_and_eigenstate_shapes(self, n, d):
        rng = np.random.default_rng(400 + n)
        nu = magnetic.random_potential(n, rng)
        basis = magnetic.magnetic_basis_change(nu)
        vecs = complex_with_signed_zeros((d, d), rng)
        u = complex_with_signed_zeros((d,), rng)
        for sigma in range(2 ** (n + 1)):
            fiber = basis[:, sigma, None]
            witness = walk._lift(fiber, vecs[None])
            assert witness.shape == (basis.shape[0] * d, d)
            assert witness.tobytes() == np.kron(fiber, vecs).tobytes()
            state = walk._lift(fiber, u[None, :, None])[:, 0]
            assert state.tobytes() == np.kron(basis[:, sigma], u).tobytes()
        unit = rng.normal(size=d) + 1j * rng.normal(size=d)
        unit /= np.linalg.norm(unit)
        vector = walk.magnetic_eigenstate(nu, 2 ** (n + 1) - 1, unit).vector
        assert vector.tobytes() == np.kron(basis[:, -1], unit).tobytes()

    @pytest.mark.parametrize("n, d, taus", [(2, 3, [0, 1, 2]), (3, 4, [5, 6]), (4, 5, [31])])
    def test_matches_the_intertwining_broadcast(self, n, d, taus):
        # the broadcast over axes (sigma, coin row, tau, coin column) that
        # the intertwining check formed its lifts by
        rng = np.random.default_rng(410 + n)
        nu = magnetic.random_potential(n, rng)
        taus = np.array(taus)
        fibers = magnetic._basis_columns(nu, taus)
        eye = np.eye(d, dtype=complex)
        sums = complex_with_signed_zeros((taus.size, d, d), rng)
        shape = (fibers.shape[0] * d, taus.size * d)
        want_lift = (fibers[:, None, :, None] * eye[:, None, :]).reshape(shape)
        want_image = (fibers[:, None, :, None] * np.stack(list(sums), axis=1)).reshape(shape)
        got_lift = walk._lift(fibers, np.broadcast_to(eye, (taus.size, d, d)))
        assert got_lift.tobytes() == want_lift.tobytes()
        assert walk._lift(fibers, sums).tobytes() == want_image.tobytes()


def per_vertex_intertwining(op):
    """The intertwining residuals one vertex at a time, with np.kron lifts and
    the dense basis change: the reference for the chunked check."""
    d = op.d
    mat = op.sparse()
    basis = magnetic.magnetic_basis_change(op.nu)
    eye = np.eye(d, dtype=complex)
    vec = off = block = 0.0
    for tau in range(op.dim_fock):
        lift = np.kron(basis[:, tau, None], eye)
        expected = np.kron(basis[:, tau, None], coin.algebraic_sum(op.cs, tau))
        vec = max(vec, np.linalg.norm(op.apply(lift) - expected, axis=0).max())
        rotated = basis.conj().T @ (mat @ lift - expected).reshape(op.dim_fock, d * d)
        block = max(block, np.abs(rotated[tau]).max())
        rotated[tau] = 0.0
        off = max(off, np.abs(rotated).max())
    return vec, off, block


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
    @pytest.mark.parametrize(("n", "d"), [(2, 4), (6, 7)])
    def test_block_residuals_match_per_block_scan(self, monkeypatch, n, d, noise):
        nu = magnetic.random_potential(n, np.random.default_rng(74))
        cs = coin.random_coin_system(n, d, seed=7)
        op = walk.evolution_operator(nu, cs)
        side, dim_fock = op.dim, op.dim_fock
        mat = op.dense() + noise * np.random.default_rng(75).normal(size=(side, side))
        csr = sp.csr_matrix(mat)
        monkeypatch.setattr(op, "sparse", lambda: csr)
        basis = magnetic.magnetic_basis_change(nu)
        # the whole rotation (B* (x) I) W (B (x) I), scanned one (rho, tau)
        # block at a time
        rotated = np.einsum("gr,gasb,st->ratb", basis.conj(),
                            mat.reshape(dim_fock, d, dim_fock, d), basis, optimize=True)
        off_block = block_mismatch = 0.0
        for rho in range(dim_fock):
            # the largest entry of each (rho, tau) block
            block_max = np.abs(rotated[rho]).max(axis=(0, 2))
            block_max[rho] = 0.0
            off_block = max(off_block, block_max.max())
            block_mismatch = max(block_mismatch, np.abs(
                rotated[rho, :, rho, :] - coin.algebraic_sum(cs, rho)).max())
        del rotated, mat
        tracemalloc.start()
        try:
            report = walk.intertwining_check(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the check rotates the defect, not W, so the two agree at round-off
        assert abs(report.off_block_mass - off_block) <= 1e-15
        assert abs(report.max_block_mismatch - block_mismatch) <= 1e-15
        assert report.passed() == (noise == 0.0)
        if n == 6:
            # the basis change and one vertex's blocks, no side x side array
            assert peak <= 0.25 * side * side * 16

    @pytest.mark.parametrize("bad", [1e-3, np.nan])
    def test_block_residuals_come_from_the_csr_form(self, monkeypatch, bad):
        op = self.hadamard_operator()
        clean = walk.intertwining_check(op)
        csr = op.sparse().copy()
        csr.data[0] += bad
        monkeypatch.setattr(op, "sparse", lambda: csr)
        report = walk.intertwining_check(op)
        # one entry moved by bad shows in every rotated block as bad / 2^(n+1)
        np.testing.assert_allclose([report.off_block_mass, report.max_block_mismatch],
                                   bad / op.dim_fock, rtol=0, atol=1e-12)
        # the kernel never reads the CSR form
        assert report.max_vector_residual == clean.max_vector_residual
        assert not report.passed()

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    @pytest.mark.parametrize(("kind", "n"), [
        *[("grover", n) for n in range(2, 8)],  # n = 6: chunks of 2, n = 7: of 3, ragged
        *[("random", n) for n in range(2, 7)],
    ])
    def test_chunks_match_the_per_vertex_reference(self, monkeypatch, kind, n, noise):
        cs = coin.grover_coin_system(n) if kind == "grover" else coin.random_coin_system(
            n, n + 2, seed=n)
        op = walk.evolution_operator(magnetic.random_potential(n, np.random.default_rng(76 + n)), cs)
        if noise:
            # every stored entry moved: the kernel and the CSR form both miss
            # the coin sums by about noise
            noisy = op.sparse().copy()
            noisy.data = noisy.data + noise * np.random.default_rng(77).normal(size=noisy.nnz)
            monkeypatch.setattr(op, "sparse", lambda: noisy)
            monkeypatch.setattr(op, "apply", lambda vec: noisy @ vec)
        report = walk.intertwining_check(op)
        got = (report.max_vector_residual, report.off_block_mass, report.max_block_mismatch)
        want = per_vertex_intertwining(op)
        assert np.abs(np.subtract(got, want)).max() <= 1e-15
        assert report.passed() == (noise == 0.0)

    def test_moved_entry_shows_in_every_chunk(self, monkeypatch):
        # Grover n = 6 runs in chunks of 2 vertices; one entry moved by delta
        # is delta / 2^(n+1) in every rotated block
        nu = magnetic.random_potential(6, np.random.default_rng(78))
        op = walk.evolution_operator(nu, coin.grover_coin_system(6))
        csr = op.sparse().copy()
        delta = 1e-3
        csr.data[1234] += delta
        monkeypatch.setattr(op, "sparse", lambda: csr)
        report = walk.intertwining_check(op)
        np.testing.assert_allclose([report.off_block_mass, report.max_block_mismatch],
                                   delta / op.dim_fock, rtol=1e-9, atol=0)
        assert report.max_vector_residual <= 1e-14

    def test_peak_at_side_896_below_a_matrix_rotation(self):
        # the rotation by the dense basis change and its adjoint peaked at
        # 1.16 MB (0.0904 side^2 complex numbers), with one vertex's blocks;
        # chunks of 2 vertices with the transform peak at 0.87 MB (0.068)
        nu = magnetic.random_potential(6, np.random.default_rng(79))
        op = walk.evolution_operator(nu, coin.grover_coin_system(6))
        side = op.dim
        op.sparse()
        tracemalloc.start()
        try:
            walk.intertwining_check(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.08 * side * side * 16

    def test_past_the_dense_limit_fails_before_any_vertex(self, monkeypatch):
        n = walk.DENSE_N_LIMIT + 1
        op = walk.evolution_operator(magnetic.null_potential(n), coin.grover_coin_system(n))
        calls = []
        monkeypatch.setattr(op, "apply", lambda vec: calls.append("apply"))
        monkeypatch.setattr(walk, "_basis_columns", lambda *args: calls.append("basis"))
        monkeypatch.setattr(walk, "_basis_adjoint", lambda nu: calls.append("transform"))
        with pytest.raises(walk.CapacityError):
            walk.intertwining_check(op)
        assert calls == []

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
