"""Tests for the unitary eigensolver, clustering, and the theorem checks."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from mqwalk import _linalg, coin, fock, magnetic, spectra, walk


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (r.diagonal().conj() / np.abs(r.diagonal()))


def least_residual(a, mu):
    """min over unit x of ||Ax - mu x||: the least singular value of A - mu I.

    For a unitary (normal) A this is the distance from mu to the spectrum,
    an oracle for the approximate-eigenvalue set independent of eigh.
    """
    shifted = a - mu * np.eye(a.shape[0])
    return float(np.linalg.svd(shifted, compute_uv=False)[-1])


def spectrum_dict(report):
    # keys are rounded complex values; +0.0 normalizes the sign of zero so
    # the -pi/pi seam does not split the comparison
    return {
        (round(v.real, 6) + 0.0, round(v.imag, 6) + 0.0): m
        for v, m in zip(report.eigenvalues, report.multiplicities)
    }


class TestUnitaryEigenvalues:
    def test_identity(self):
        report = spectra.unitary_eigenvalues(np.eye(4, dtype=complex))
        assert report.eigenvalues == (1 + 0j,)
        assert report.multiplicities == (4,)

    def test_shift_involution(self):
        nu = magnetic.MagneticPotential(np.array([0.8]))
        mat = magnetic.magnetic_shift(0, 0, nu).toarray()
        report = spectra.unitary_eigenvalues(mat)
        assert spectrum_dict(report) == {(-1.0, 0.0): 1, (1.0, 0.0): 1}

    def test_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        report = spectra.unitary_eigenvalues(h)
        assert spectrum_dict(report) == {(-1.0, 0.0): 1, (1.0, 0.0): 1}

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            spectra.unitary_eigenvalues(np.diag([2.0, 1.0]).astype(complex))
        with pytest.raises(ValueError, match="not unitary"):
            spectra.unitary_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_rejected(self):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="not unitary"):
                spectra.unitary_eigenvalues(np.full((4, 4), value, dtype=complex))
        mat = np.eye(3, dtype=complex)
        mat[1, 2] = np.nan
        with pytest.raises(ValueError, match="not unitary"):
            spectra.unitary_eigenvalues(mat)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            spectra.unitary_eigenvalues(np.eye(3, 2, dtype=complex))

    def test_clustering_merges_tight_values(self):
        eps = 1e-10
        mat = np.diag(np.exp(1j * np.array([0.5, 0.5 + eps, 0.5 - eps, 2.0])))
        report = spectra.unitary_eigenvalues(mat)
        assert report.multiplicities == (3, 1)

    def test_clustering_respects_gaps(self):
        mat = np.diag(np.exp(1j * np.array([0.5, 0.5 + 1e-4])))
        report = spectra.unitary_eigenvalues(mat)
        assert report.multiplicities == (1, 1)

    def test_wraparound_seam(self):
        # values straddling the -pi/pi seam belong to one cluster
        eps = 1e-10
        mat = np.diag(np.exp(1j * np.array([np.pi - eps, -np.pi + eps, 1.0])))
        report = spectra.unitary_eigenvalues(mat)
        assert report.multiplicities == (1, 2)

    def test_seam_order_ignores_round_off_sign(self):
        # -1 reports arg +pi and sorts last whichever side of the real axis
        # its round-off puts it, down to the bytes of the representatives
        runs = [
            spectra._cluster_unit_circle(np.array([complex(-1.0, im), 1j, 1.0, -1j]), 1e-8)
            for im in (1e-17, -1e-17)
        ]
        (vals, mults), (vals2, mults2) = runs
        assert vals.tobytes() == vals2.tobytes()
        assert mults.tobytes() == mults2.tobytes()
        assert vals[-1] == -1.0 and np.angle(vals[-1]) == np.pi

    @pytest.mark.parametrize("seed", range(4))
    def test_random_unitary_against_lapack(self, seed):
        rng = np.random.default_rng(seed)
        u = haar_unitary(12, rng)
        report = spectra.unitary_eigenvalues(u)
        reference = np.linalg.eigvals(u)
        assert spectra.hausdorff_distance(report.values, reference) <= 1e-10
        assert report.total_multiplicity == 12
        assert np.abs(np.abs(report.values) - 1.0).max() <= 1e-12

    def test_sorted_by_argument(self):
        rng = np.random.default_rng(5)
        u = haar_unitary(9, rng)
        report = spectra.unitary_eigenvalues(u)
        args = np.angle(report.values)
        assert np.all(np.diff(args) > 0)

    def test_eigenvector_witnesses(self):
        rng = np.random.default_rng(6)
        u = haar_unitary(10, rng)
        lam, vecs, residual = spectra._eig_unitary(u)
        assert residual <= 1e-12
        for i in range(10):
            defect = u @ vecs[:, i] - lam[i] * vecs[:, i]
            assert np.linalg.norm(defect) <= 1e-8

    def test_degenerate_walk_operator(self):
        # heavy multiplicities: the grover-coin walk at a random potential
        cs = coin.grover_coin_system(3)
        nu = magnetic.random_potential(3, np.random.default_rng(9))
        mat = walk.evolution_operator(nu, cs).dense()
        lam, vecs, residual = spectra._eig_unitary(mat)
        assert residual <= 1e-10
        gram = vecs.conj().T @ vecs
        assert np.abs(gram - np.eye(mat.shape[0])).max() <= 1e-10


class TestEigenResidualFloor:
    """The eigen-defect is formed directly, so exact unitaries sit at round-off.

    The subtractive form ||Av||^2 - |<v, Av>|^2 cancelled to a floor of
    about 1.5e-8 on the 2x2 Hadamard, above the default 1e-8 gate.
    """

    @staticmethod
    def random_coin_walk():
        cs = coin.random_coin_system(5, 6, seed=5)
        nu = magnetic.random_potential(5, np.random.default_rng(5))
        return walk.evolution_operator(nu, cs).dense()

    @pytest.mark.parametrize("case", ["hadamard", "permutation", "grover"])
    def test_exact_unitaries(self, case):
        if case == "hadamard":
            mats = [np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)]
        elif case == "permutation":
            mats = [np.eye(6, dtype=complex)[[1, 2, 0, 4, 5, 3]]]
        else:
            cs = coin.grover_coin_system(3)
            mats = [coin.algebraic_sum(cs, sigma) for sigma in range(16)]
        for mat in mats:
            _, _, residual = spectra._eig_unitary(mat)
            assert residual <= 1e-14

    def test_random_coin_walk(self):
        _, _, residual = spectra._eig_unitary(self.random_coin_walk())
        assert residual <= 1e-9

    def test_gate_tighter_than_pure_column_tol(self):
        # a gate below the default pure-column threshold must still accept
        # a unitary: the threshold and the cross-cluster pass follow the gate
        mat = self.random_coin_walk()
        report = spectra.unitary_eigenvalues(mat, unitary_tol=1e-10)
        reference = np.linalg.eigvals(mat)
        assert report.total_multiplicity == 384
        assert spectra.hausdorff_distance(report.values, reference) <= 1e-10

    def test_solver_failure_is_not_input_error(self, monkeypatch):
        solve = spectra._eig_unitary

        def missed_gate(a, pure_tol=spectra._PURE_COLUMN_TOL):
            lam, vecs, _ = solve(a, pure_tol)
            return lam, vecs, 1.0

        monkeypatch.setattr(spectra, "_eig_unitary", missed_gate)
        with pytest.raises(spectra.EigensolverError) as info:
            spectra.unitary_eigenvalues(np.eye(3, dtype=complex))
        assert not isinstance(info.value, ValueError)


def clustered_unitary(side, phases, seed):
    """Haar-rotated unitary with ``phases`` repeated evenly over ``side``."""
    q = haar_unitary(side, np.random.default_rng(seed))
    diag = np.repeat(np.exp(1j * np.asarray(phases)), side // len(phases))
    return q @ np.diag(diag) @ q.conj().T


def spy_drivers(monkeypatch):
    """Record the LAPACK driver of every ``scipy.linalg.eigh`` call."""
    drivers = []
    eigh = spectra.sla.eigh

    def spy(*args, **kwargs):
        drivers.append(kwargs.get("driver"))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(spectra.sla, "eigh", spy)
    return drivers


def spy_eigvals(monkeypatch, off_circle=False):
    """Record the shape of every ``numpy.linalg.eigvals`` call; with
    ``off_circle``, move its first eigenvalue 1 % off the unit circle."""
    shapes = []
    eigvals = np.linalg.eigvals

    def spy(a):
        shapes.append(a.shape)
        lam = eigvals(a)
        if off_circle:
            lam[0] *= 1.01
        return lam

    monkeypatch.setattr(spectra.np.linalg, "eigvals", spy)
    return shapes


class TestKrylovRouting:
    def test_small_degenerate_uses_qr(self, monkeypatch):
        drivers = spy_drivers(monkeypatch)
        shapes = spy_eigvals(monkeypatch)
        phases = [0.1, 0.9, -2.0, 2.4]
        report = spectra.unitary_eigenvalues(clustered_unitary(96, phases, 40))
        assert shapes == [(96, 96)] and drivers == []
        assert report.multiplicities == (24, 24, 24, 24)
        assert spectra.hausdorff_distance(report.values, np.exp(1j * np.array(phases))) <= 1e-9

    def test_small_generic_uses_evr(self, monkeypatch):
        drivers = spy_drivers(monkeypatch)
        mat = haar_unitary(96, np.random.default_rng(41))
        report = spectra.unitary_eigenvalues(mat)
        assert drivers == ["evr"]
        assert spectra.hausdorff_distance(report.values, np.linalg.eigvals(mat)) <= 1e-10

    def test_small_degenerate_solver_miss_is_not_input_error(self, monkeypatch):
        shapes = spy_eigvals(monkeypatch, off_circle=True)
        with pytest.raises(spectra.EigensolverError, match="unit-circle") as info:
            spectra.unitary_eigenvalues(clustered_unitary(96, [0.5, -0.5], 43))
        assert not isinstance(info.value, ValueError)
        assert shapes == [(96, 96)]

    @pytest.mark.parametrize("form, error", [
        ("csr", spectra.EigensolverError),
        ("large-ndarray", ValueError),
    ], ids=["csr", "large-ndarray"])
    def test_qr_result_off_the_circle(self, monkeypatch, form, error):
        # the CSR form is proven unitary by the pre-check at every side, an
        # ndarray above the limit is not
        mat, dense = walk_forms(coin.grover_coin_system(4), 45)
        if form == "large-ndarray":
            monkeypatch.setattr(spectra, "_UNITARITY_PRECHECK_LIMIT", 64)
            mat = dense
        shapes = spy_eigvals(monkeypatch, off_circle=True)
        with pytest.raises(error, match="unit-circle") as info:
            spectra.unitary_eigenvalues(mat)
        assert isinstance(info.value, ValueError) == (error is ValueError)
        assert shapes == [(160, 160)]

    @pytest.mark.parametrize("form", ["ndarray", "csr"])
    def test_split_path_at_or_below_64_whatever_the_spectrum(self, monkeypatch, form):
        probes = []
        monkeypatch.setattr(spectra, "_krylov_saturation", lambda *args: probes.append(args))
        drivers = spy_drivers(monkeypatch)
        shapes = spy_eigvals(monkeypatch)
        grover, _ = walk_forms(coin.grover_coin_system(3), 46)  # side 64, degenerate
        phases = [0.2, -1.4]
        clustered = clustered_unitary(64, phases, 47)
        generic = haar_unitary(64, np.random.default_rng(48))
        mats = [grover.toarray(), clustered, generic]
        if form == "csr":
            mats = [sp.csr_matrix(mat) for mat in mats]
        reports = [spectra.unitary_eigenvalues(mat) for mat in mats]
        assert drivers == ["evr"] * 3 and shapes == [] and probes == []
        assert reports[0].total_multiplicity == 64
        assert reports[1].multiplicities == (32, 32)
        assert spectra.hausdorff_distance(reports[1].values, np.exp(1j * np.array(phases))) <= 1e-9
        reference = np.linalg.eigvals(generic)
        assert spectra.hausdorff_distance(reports[2].values, reference) <= 1e-10

    @pytest.mark.parametrize("cs", [
        coin.grover_coin_system(4),
        coin.grover_coin_system(5),
        coin.grover_coin_system(6),
    ], ids=["side160", "side384", "side896"])
    def test_qr_against_the_split_path(self, monkeypatch, cs):
        mat, _ = walk_forms(cs, 49)
        shapes = spy_eigvals(monkeypatch)
        report = spectra.unitary_eigenvalues(mat)
        assert shapes == [mat.shape]
        lam, _, residual = spectra._eig_unitary(mat, spectra._pure_column_tol(1e-8))
        assert residual <= 1e-8
        split_vals, split_mults = spectra._cluster_unit_circle(lam, 1e-8)
        assert report.multiplicities == tuple(split_mults)
        assert np.abs(report.values - split_vals).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_small_route_rejects_nan_and_non_unitary(self, monkeypatch):
        # the explicit pre-check rejects both before the probe or eigh runs
        drivers = spy_drivers(monkeypatch)
        bad_nan = clustered_unitary(96, [0.5, -0.5], 44)
        bad_nan[3, 5] = np.nan
        bad_scale = 1.01 * clustered_unitary(96, [0.5, -0.5], 44)
        for mat in (bad_nan, bad_scale):
            with pytest.raises(ValueError, match="not unitary"):
                spectra.unitary_eigenvalues(mat)
        assert drivers == []

    def test_empty_and_scalar_inputs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spectra._krylov_saturation(np.zeros((0, 0), dtype=complex), 64) == (True, 0.0)
            empty = spectra.unitary_eigenvalues(np.zeros((0, 0), dtype=complex))
            scalar = spectra.unitary_eigenvalues(np.array([[1j]]))
        assert empty.eigenvalues == () and empty.multiplicities == ()
        assert scalar.eigenvalues == (1j,) and scalar.multiplicities == (1,)

    def test_saturation_detects_few_distinct_values(self):
        mat = clustered_unitary(96, [0.1, 0.9, -2.0, 2.4], 30)
        saturated, norm_defect = spectra._krylov_saturation(mat, 64)
        assert saturated
        assert norm_defect <= 1e-10

    def test_generic_spectrum_does_not_saturate(self):
        rng = np.random.default_rng(31)
        mat = haar_unitary(96, rng)
        saturated, _ = spectra._krylov_saturation(mat, 64)
        assert not saturated

    def test_norm_defect_flags_non_unitary(self):
        mat = np.diag(np.concatenate([np.full(50, 2.0), np.ones(46)])).astype(complex)
        _, norm_defect = spectra._krylov_saturation(mat, 8)
        assert norm_defect > 1e-3

    def test_large_route_degenerate(self, monkeypatch):
        monkeypatch.setattr(spectra, "_UNITARITY_PRECHECK_LIMIT", 64)
        drivers = spy_drivers(monkeypatch)
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(spectra.np.linalg, "eigvals", counted)
        phases = [0.3, -1.1, 2.7]
        report = spectra.unitary_eigenvalues(clustered_unitary(120, phases, 32))
        assert calls == [(120, 120)] and drivers == []
        assert report.multiplicities == (40, 40, 40)
        assert spectra.hausdorff_distance(report.values, np.exp(1j * np.array(phases))) <= 1e-9

    def test_large_route_generic(self, monkeypatch):
        monkeypatch.setattr(spectra, "_UNITARITY_PRECHECK_LIMIT", 64)
        drivers = spy_drivers(monkeypatch)
        rng = np.random.default_rng(33)
        mat = haar_unitary(120, rng)
        report = spectra.unitary_eigenvalues(mat)
        assert drivers == ["evr"]
        reference = np.linalg.eigvals(mat)
        assert spectra.hausdorff_distance(report.values, reference) <= 1e-10
        assert report.total_multiplicity == 120

    def test_large_route_rejects_non_unitary(self, monkeypatch):
        monkeypatch.setattr(spectra, "_UNITARITY_PRECHECK_LIMIT", 64)
        mat = np.diag(np.linspace(0.5, 2.0, 120)).astype(complex)
        with pytest.raises(ValueError, match="not unitary"):
            spectra.unitary_eigenvalues(mat)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_large_route_rejects_nan(self, monkeypatch):
        # the probe's norm fold (side 96) and every gate after it (side 8,
        # where no probe runs) must see the NaN
        monkeypatch.setattr(spectra, "_UNITARITY_PRECHECK_LIMIT", 4)
        for side in (8, 96):
            mat = np.full((side, side), np.nan, dtype=complex)
            with pytest.raises(ValueError, match="not unitary"):
                spectra.unitary_eigenvalues(mat)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_probe_keeps_nan_norm_defect(self):
        mat = np.eye(8, dtype=complex)
        mat[3, 3] = np.nan
        _, norm_defect = spectra._krylov_saturation(mat, 8)
        assert np.isnan(norm_defect)


def walk_forms(cs, seed):
    """CSR and ndarray forms of one walk at a random potential."""
    nu = magnetic.random_potential(cs.n, np.random.default_rng(seed))
    op = walk.evolution_operator(nu, cs)
    return op.sparse(), op.dense()


class TestSparseInput:
    """The CSR walk matrix gives the ndarray's gates, routes and clusters."""

    @pytest.mark.parametrize("cs", [
        coin.grover_coin_system(3),
        coin.random_coin_system(4, 6, seed=60),
    ], ids=["grover", "random"])
    def test_unitarity_residual_parity(self, cs):
        mat, dense = walk_forms(cs, 61)
        assert sp.issparse(mat) and mat.nnz == cs.d * mat.shape[0]
        sparse_res = _linalg.unitarity_residual(mat)
        assert abs(sparse_res - _linalg.unitarity_residual(dense)) <= 1e-15
        assert sparse_res <= 1e-13

    def test_max_abs_of_sparse(self):
        mat, dense = walk_forms(coin.random_coin_system(2, 4, seed=62), 62)
        assert _linalg.max_abs(mat) == _linalg.max_abs(dense)
        assert _linalg.max_abs(sp.csr_matrix((3, 3), dtype=complex)) == 0.0
        mat = mat.copy()
        mat.data[5] = np.nan
        assert np.isnan(_linalg.max_abs(mat))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_rejects_bad_input_before_eigh(self, monkeypatch):
        drivers = spy_drivers(monkeypatch)
        mat, _ = walk_forms(coin.grover_coin_system(3), 63)
        with_nan = mat.copy()
        with_nan.data[7] = np.nan
        perturbed = mat.copy()
        perturbed.data[7] += 1e-6
        for bad in (with_nan, perturbed):
            with pytest.raises(ValueError, match="not unitary"):
                spectra.unitary_eigenvalues(bad)
        with pytest.raises(ValueError, match="square"):
            spectra.unitary_eigenvalues(mat[:, :-1])
        assert drivers == []

    @pytest.mark.parametrize("route, cs, limit", [
        ("evr", coin.random_coin_system(4, 6, seed=64), None),
        ("eigvals", coin.grover_coin_system(4), None),
        # the ndarray skips the pre-check, the CSR form takes it
        ("eigvals", coin.grover_coin_system(4), 32),
    ])
    def test_same_clusters_on_every_route(self, monkeypatch, route, cs, limit):
        if limit is not None:
            monkeypatch.setattr(spectra, "_UNITARITY_PRECHECK_LIMIT", limit)
        drivers = spy_drivers(monkeypatch)
        mat, dense = walk_forms(cs, 65)
        from_sparse = spectra.unitary_eigenvalues(mat)
        sparse_drivers, drivers[:] = drivers[:], []
        from_dense = spectra.unitary_eigenvalues(dense)
        assert sparse_drivers == drivers == ([] if route == "eigvals" else [route])
        assert from_sparse.multiplicities == from_dense.multiplicities
        assert np.abs(from_sparse.values - from_dense.values).max() <= 1e-12
        assert from_sparse.total_multiplicity == mat.shape[0]

    def test_capacity_guard_before_any_allocation(self, monkeypatch):
        shifts = []
        monkeypatch.setattr(walk, "magnetic_shift", lambda *args: shifts.append(args))
        cs = coin.random_coin_system(11, 12, seed=0)
        nu = magnetic.null_potential(11)
        tracemalloc.start()
        try:
            with pytest.raises(walk.CapacityError, match="n <= 10"):
                spectra.walk_point_spectrum(nu, cs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one n=11 shift alone would hold 2^12 entries
        assert shifts == []
        assert peak < 1 << 20


def unblocked_eig_unitary(a, driver):
    """Eigenpairs and defects of ``a`` formed on whole arrays, unblocked."""
    herm = (a + a.conj().T) / 2
    herm = herm.toarray() if sp.issparse(herm) else herm
    _, vecs = spectra.sla.eigh(herm, driver=driver, check_finite=False)
    images = a @ vecs
    lam = np.einsum("ij,ij->j", vecs.conj(), images)
    return lam, vecs, np.linalg.norm(images - vecs * lam[None, :], axis=0)


BLOCK = spectra._RESIDUAL_BLOCK
# a walk side below one block, one not a multiple of it, and one a multiple
BLOCK_SIDES = [BLOCK // 2 + 3, 2 * BLOCK + BLOCK // 4 + 1, 2 * BLOCK]
BLOCK_WALKS = [
    coin.random_coin_system(2, 5, seed=70),  # side 40
    coin.random_coin_system(3, 9, seed=71),  # side 144
    coin.random_coin_system(3, 8, seed=72),  # side 128
    coin.grover_coin_system(3),  # side 64, degenerate
]


class TestBlockedResiduals:
    """The blocked eigen-residuals: same numbers, smaller working set."""

    @pytest.mark.parametrize("driver", ["evr"])
    @pytest.mark.parametrize("form", ["ndarray", "csr"])
    @pytest.mark.parametrize("side", BLOCK_SIDES, ids=["below", "ragged", "multiple"])
    def test_bit_identical_to_unblocked(self, side, form, driver):
        mat = haar_unitary(side, np.random.default_rng(side))
        a = sp.csr_matrix(mat) if form == "csr" else mat
        lam_ref, vecs_ref, defect_ref = unblocked_eig_unitary(a, driver)
        # no column is rotated, so the outputs are the formula's
        assert defect_ref.max() <= spectra._PURE_COLUMN_TOL
        lam, vecs, residual = spectra._eig_unitary(a)
        assert lam.tobytes() == lam_ref.tobytes()
        assert vecs.tobytes() == vecs_ref.tobytes()
        assert residual == defect_ref.max()

    @pytest.mark.parametrize("cs", BLOCK_WALKS, ids=["below", "ragged", "multiple", "grover"])
    def test_ndarray_and_csr_give_the_same_clusters(self, cs):
        mat, dense = walk_forms(cs, 73)
        from_sparse = spectra.unitary_eigenvalues(mat)
        from_dense = spectra.unitary_eigenvalues(dense)
        assert from_sparse.multiplicities == from_dense.multiplicities
        assert np.abs(from_sparse.values - from_dense.values).max() <= 1e-12
        assert from_sparse.total_multiplicity == mat.shape[0]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("form", ["ndarray", "csr"])
    def test_rejects_nan_and_non_unitary(self, form):
        mat, dense = walk_forms(BLOCK_WALKS[1], 74)
        good = mat if form == "csr" else dense
        rows, cols = mat.nonzero()
        with_nan = good.copy()
        with_nan[rows[7], cols[7]] = np.nan  # a stored entry of the CSR form
        scaled = 1.01 * good
        for bad in (with_nan, scaled):
            with pytest.raises(ValueError, match="not unitary"):
                spectra.unitary_eigenvalues(bad)

    @pytest.mark.parametrize("cs, route, arrays", [
        (coin.grover_coin_system(6), "eigvals", 1.25),
        (coin.random_coin_system(6, 7, seed=75), "evr", 3.25),
    ], ids=["grover", "random"])
    def test_peak_memory_of_a_side_896_walk(self, monkeypatch, cs, route, arrays):
        nu = magnetic.random_potential(cs.n, np.random.default_rng(76))
        mat = walk.evolution_operator(nu, cs).sparse()
        side = mat.shape[0]
        assert side == 896
        drivers = spy_drivers(monkeypatch)
        shapes = spy_eigvals(monkeypatch)
        tracemalloc.start()
        try:
            spectra.unitary_eigenvalues(mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (drivers, shapes) == (([], [(side, side)]) if route == "eigvals" else ([route], []))
        # evr holds H, then the eigenvectors and their images; QR the dense
        # A (numpy's own copy of it is not traced)
        assert peak <= arrays * side * side * 16

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("cs, route", [
        (coin.grover_coin_system(6), "eigvals"),
        (coin.random_coin_system(6, 7, seed=75), "evr"),
    ], ids=["grover", "random"])
    def test_peak_memory_of_a_side_896_ndarray(self, monkeypatch, cs, route):
        _, dense = walk_forms(cs, 77)
        side = dense.shape[0]
        drivers = spy_drivers(monkeypatch)
        shapes = spy_eigvals(monkeypatch)
        tracemalloc.start()
        try:
            spectra.unitary_eigenvalues(dense)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (drivers, shapes) == (([], [(side, side)]) if route == "eigvals" else ([route], []))
        # the pre-check's products are formed in blocks of rows, so only
        # the split path's two arrays are side x side
        assert peak <= 2.25 * side * side * 16
        with_nan = dense.copy()
        with_nan[side - 3, 5] = np.nan
        for bad in (with_nan, 1.01 * dense):
            with pytest.raises(ValueError, match="not unitary"):
                spectra.unitary_eigenvalues(bad)


class TestMemoryGuard:
    """The dense step is refused when its two side x side arrays do not fit."""

    @pytest.mark.parametrize("route", ["eigvals", "evr"])
    def test_refused_before_the_dense_step(self, monkeypatch, route):
        side = 512
        mat = (clustered_unitary(side, [0.5, -0.5], 50) if route == "eigvals"
               else haar_unitary(side, np.random.default_rng(51)))
        need = 2 * side * side * 16
        drivers = spy_drivers(monkeypatch)
        shapes = spy_eigvals(monkeypatch)
        monkeypatch.setattr(spectra, "_available_memory", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(walk.CapacityError, match=f"side {side}"):
                spectra.unitary_eigenvalues(mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drivers == [] and shapes == []
        # the pre-check's row blocks and the probe's basis, no side x side array
        assert peak < side * side * 16
        monkeypatch.setattr(spectra, "_available_memory", lambda: need)
        report = spectra.unitary_eigenvalues(mat)
        assert report.total_multiplicity == side
        assert (drivers, shapes) == (([], [(side, side)]) if route == "eigvals" else (["evr"], []))

    @pytest.mark.skipif(not os.path.exists("/proc/meminfo"), reason="no /proc/meminfo")
    def test_reads_meminfo(self):
        assert 0 < spectra._available_memory() < float("inf")


class TestSpectrumReport:
    def test_json_schema(self):
        report = spectra.unitary_eigenvalues(
            np.eye(3, dtype=complex), source="identity", nu=magnetic.null_potential(1)
        )
        doc = report.to_json_dict()
        assert set(doc) == {"source", "nu", "tolerance", "eigenvalues"}
        assert doc["nu"] == [0.0, 0.0]
        assert doc["eigenvalues"] == [{"re": 1.0, "im": 0.0, "arg": 0.0, "mult": 3}]

    def test_nu_null_serializes_to_none(self):
        report = spectra.unitary_eigenvalues(np.eye(2, dtype=complex))
        assert report.to_json_dict()["nu"] is None


class TestWalkPointSpectrum:
    def test_n0_trivial_coin(self):
        cs = coin.CoinSystem((np.array([[1.0]]),))
        for phases in ([0.0], [1.3], [-2.0]):
            report = spectra.walk_point_spectrum(
                magnetic.MagneticPotential(np.array(phases)), cs
            )
            assert spectrum_dict(report) == {(-1.0, 0.0): 1, (1.0, 0.0): 1}

    def test_n1_hadamard_exact_multiset(self):
        root = round(1 / np.sqrt(2), 6)
        cs = coin.hadamard_partition_coin_system()
        report = spectra.walk_point_spectrum(magnetic.null_potential(1), cs)
        assert spectrum_dict(report) == {
            (-1.0, 0.0): 2,
            (1.0, 0.0): 2,
            (root, root): 1,
            (root, -root): 1,
            (-root, root): 1,
            (-root, -root): 1,
        }
        assert report.total_multiplicity == 8

    def test_invariant_across_potentials(self):
        cs = coin.hadamard_partition_coin_system()
        rng = np.random.default_rng(14)
        reports = [
            spectra.walk_point_spectrum(magnetic.random_potential(1, rng), cs)
            for _ in range(5)
        ]
        for other in reports[1:]:
            assert spectra.hausdorff_distance(reports[0].values, other.values) <= 1e-8

    def test_capacity_guard(self):
        cs = coin.random_coin_system(11, 12, seed=0)
        with pytest.raises(walk.CapacityError, match="n <= 10"):
            spectra.walk_point_spectrum(magnetic.null_potential(11), cs)

    @pytest.mark.parametrize("check", [
        lambda cs: spectra.verify_point_spectrum_theorem(magnetic.null_potential(11), cs),
        lambda cs: spectra.verify_approximate_spectrum_theorem(magnetic.null_potential(11), cs),
        lambda cs: spectra.verify_spectral_stability(cs, samples=2),
    ], ids=["point", "aev", "stability"])
    def test_capacity_guard_of_every_dense_check(self, check):
        # the guard of WalkOperator.sparse is the only one
        cs = coin.random_coin_system(11, 12, seed=0)
        with pytest.raises(walk.CapacityError, match="n <= 10"):
            check(cs)


class TestCoinSumEigensystem:
    @pytest.mark.parametrize("cs", [
        coin.hadamard_partition_coin_system(),
        coin.grover_coin_system(3),
        coin.random_coin_system(2, 5, seed=4),
    ], ids=lambda cs: f"n{cs.n}-d{cs.d}")
    def test_orthonormal_eigenpairs(self, cs):
        for sigma in range(2 ** (cs.n + 1)):
            lam, vecs = spectra.coin_sum_eigensystem(cs, sigma)
            mat = coin.algebraic_sum(cs, sigma)
            assert lam.shape == (cs.d,) and vecs.shape == (cs.d, cs.d)
            assert np.abs(vecs.conj().T @ vecs - np.eye(cs.d)).max() <= 1e-12
            assert np.linalg.norm(mat @ vecs - vecs * lam, axis=0).max() <= 1e-9

    def test_pools_into_the_union(self):
        cs = coin.random_coin_system(2, 4, seed=7)
        raw = np.concatenate(
            [spectra.coin_sum_eigensystem(cs, sigma)[0] for sigma in range(8)]
        )
        _, multiset = spectra.coin_union_spectrum(cs)
        assert spectra.hausdorff_distance(raw, multiset.values) <= 1e-9
        assert multiset.total_multiplicity == raw.size

    def test_sigma_out_of_range(self):
        with pytest.raises(ValueError, match="sigma"):
            spectra.coin_sum_eigensystem(coin.grover_coin_system(1), 4)


class TestCoinUnionSpectrum:
    def test_n0_scalar_coin(self):
        cs = coin.CoinSystem((np.array([[1.0]]),))
        as_set, multiset = spectra.coin_union_spectrum(cs)
        assert spectrum_dict(as_set) == {(-1.0, 0.0): 1, (1.0, 0.0): 1}
        assert multiset.total_multiplicity == 2

    def test_n1_hadamard_six_values(self):
        cs = coin.hadamard_partition_coin_system()
        as_set, multiset = spectra.coin_union_spectrum(cs)
        expected = np.array(
            [1.0, -1.0, np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4),
             np.exp(3j * np.pi / 4), np.exp(-3j * np.pi / 4)]
        )
        assert len(as_set.eigenvalues) == 6
        assert spectra.hausdorff_distance(as_set.values, expected) <= 1e-9
        assert all(m == 1 for m in as_set.multiplicities)
        assert multiset.total_multiplicity == 8

    @pytest.mark.parametrize("seed", range(3))
    def test_sign_flip_symmetry(self, seed):
        cs = coin.random_coin_system(2, 4, seed=seed)
        as_set, _ = spectra.coin_union_spectrum(cs)
        values = as_set.values
        for v in values:
            assert np.abs(values + v).min() <= 1e-9


class TestPointSpectrumTheorem:
    def test_hadamard_tight(self):
        cs = coin.hadamard_partition_coin_system()
        nu = magnetic.MagneticPotential(np.array([0.3, 0.9]))
        check = spectra.verify_point_spectrum_theorem(nu, cs)
        assert check.passed
        assert check.hausdorff_distance <= 1e-12
        assert check.multiset_passed

    @pytest.mark.parametrize("trial", range(6))
    def test_random_instances(self, trial):
        rng = np.random.default_rng(200 + trial)
        n = int(rng.integers(0, 4))
        d = int(rng.integers(n + 1, 7))
        cs = coin.random_coin_system(n, d, seed=300 + trial)
        nu = magnetic.random_potential(n, rng)
        check = spectra.verify_point_spectrum_theorem(nu, cs)
        assert check.passed, (n, d, trial, check.hausdorff_distance)
        assert check.multiset_passed

    def test_corrupted_coin_rejected_before_comparison(self):
        half = 0.5 * np.eye(2)
        broken = coin.CoinSystem((half, half))
        with pytest.raises(ValueError, match="validation"):
            spectra.verify_point_spectrum_theorem(magnetic.null_potential(1), broken)


class TestApproximateSpectrum:
    """The eigenvalues are the approximate eigenvalues, by an SVD oracle."""

    def test_residual_at_eigenvalues(self):
        rng = np.random.default_rng(21)
        u = haar_unitary(7, rng)
        report = spectra.unitary_eigenvalues(u)
        for lam in report.eigenvalues:
            assert least_residual(u, lam) <= 1e-8

    def test_residual_away_from_spectrum(self):
        rng = np.random.default_rng(22)
        u = haar_unitary(5, rng)
        report = spectra.unitary_eigenvalues(u)
        mu = 1.5 + 0j
        distance = float(np.abs(report.values - mu).min())
        assert distance >= 0.1
        # normality makes the least residual equal the spectral distance
        assert least_residual(u, mu) >= distance - 1e-8
        assert abs(least_residual(u, mu) - distance) <= 1e-8


class TestApproximateSpectrumTheorem:
    def test_n0_both_routes(self):
        theta = 0.7
        cs = coin.CoinSystem((np.array([[np.exp(1j * theta)]]),))
        nu = magnetic.MagneticPotential(np.array([1.2]))
        check = spectra.verify_approximate_spectrum_theorem(nu, cs)
        assert check.passed
        got = sorted(np.angle(check.walk_spectrum.values))
        expected = sorted([theta, theta - np.pi])
        np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("trial", range(4))
    def test_agrees_with_point_check(self, trial):
        rng = np.random.default_rng(400 + trial)
        n = int(rng.integers(0, 3))
        d = int(rng.integers(n + 1, 6))
        cs = coin.random_coin_system(n, d, seed=500 + trial)
        nu = magnetic.random_potential(n, rng)
        check = spectra.verify_approximate_spectrum_theorem(nu, cs)
        assert check.passed
        assert check.matches_point_check
        assert check.max_witness_residual <= 1e-8

    def test_witnesses_certify_lifted_eigenvectors(self):
        cs = coin.hadamard_partition_coin_system()
        nu = magnetic.random_potential(1, np.random.default_rng(23))
        check = spectra.verify_approximate_spectrum_theorem(nu, cs)
        assert check.max_witness_residual <= 1e-12


class TestNanResidualFolds:
    """A NaN residual stays in the report and fails the check."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_witness_residual(self, monkeypatch):
        def nan_vector(sigma, nu):
            return np.full(fock.dimension(nu.n), np.nan, dtype=complex)

        monkeypatch.setattr(spectra, "magnetic_basis_vector", nan_vector)
        nu = magnetic.random_potential(1, np.random.default_rng(50))
        check = spectra.verify_approximate_spectrum_theorem(
            nu, coin.hadamard_partition_coin_system()
        )
        assert np.isnan(check.max_witness_residual)
        assert not check.passed

    def test_pairwise_hausdorff(self, monkeypatch):
        monkeypatch.setattr(spectra, "hausdorff_distance", lambda a, b: float("nan"))
        report = spectra.verify_spectral_stability(
            coin.hadamard_partition_coin_system(), samples=2
        )
        assert np.isnan(report.max_pairwise_hausdorff)
        assert not report.passed

    def test_operator_difference(self, monkeypatch):
        cs = coin.hadamard_partition_coin_system()
        fixed = spectra.walk_point_spectrum(magnetic.null_potential(cs.n), cs)
        assemble = walk.WalkOperator.sparse

        def with_nan(op):
            mat = assemble(op).copy()
            mat.data[0] = np.nan
            return mat

        # the operators carry the NaN; their spectra are held fixed, since
        # the eigensolver rejects a NaN matrix before any difference is taken
        monkeypatch.setattr(walk.WalkOperator, "sparse", with_nan)
        monkeypatch.setattr(spectra, "_walk_spectrum", lambda mat, nu, cs, tol: fixed)
        report = spectra.verify_spectral_stability(cs, samples=2)
        assert np.isnan(report.max_operator_difference)
        assert not report.passed


class TestSpectralStability:
    def test_hadamard_partition(self):
        cs = coin.hadamard_partition_coin_system()
        report = spectra.verify_spectral_stability(cs, samples=5, seed=3)
        assert report.passed
        assert report.max_pairwise_hausdorff <= 1e-8
        assert report.max_operator_difference > 0.1

    def test_n0_spectra_constant(self):
        cs = coin.CoinSystem((np.array([[1.0]]),))
        report = spectra.verify_spectral_stability(cs, samples=3, seed=1)
        assert report.passed
        for rep in report.spectra:
            assert spectrum_dict(rep) == {(-1.0, 0.0): 1, (1.0, 0.0): 1}

    def test_null_vs_pi_potential(self):
        # at all phases pi every shift flips sign; the spectrum is unmoved
        cs = coin.random_coin_system(2, 4, seed=31)
        null_report = spectra.walk_point_spectrum(magnetic.null_potential(2), cs)
        pi_report = spectra.walk_point_spectrum(
            magnetic.MagneticPotential(np.array([np.pi] * 3)), cs
        )
        assert (
            spectra.hausdorff_distance(null_report.values, pi_report.values) <= 1e-8
        )

    def test_each_operator_assembled_once(self, monkeypatch):
        calls = []
        assemble = walk.WalkOperator.sparse

        def counted(op):
            calls.append(op)
            return assemble(op)

        monkeypatch.setattr(walk.WalkOperator, "sparse", counted)
        cs = coin.grover_coin_system(2)
        report = spectra.verify_spectral_stability(cs, samples=3, seed=2)
        assert len(calls) == len(set(map(id, calls))) == 4
        monkeypatch.undo()
        # the reports match the stand-alone spectra, source strings included,
        # and the operator difference is the dense one to the last bit
        dense = []
        for rep in report.spectra:
            nu = magnetic.MagneticPotential(np.array(rep.nu))
            alone = spectra.walk_point_spectrum(nu, cs)
            assert rep.to_json_dict() == alone.to_json_dict()
            dense.append(walk.evolution_operator(nu, cs).dense())
        diff = max(np.abs(a - b).max() for i, a in enumerate(dense) for b in dense[i + 1:])
        assert report.max_operator_difference == diff

    def test_sample_count_validated(self):
        cs = coin.grover_coin_system(1)
        with pytest.raises(ValueError, match="samples"):
            spectra.verify_spectral_stability(cs, samples=1)

    def test_deterministic_for_seed(self):
        cs = coin.grover_coin_system(1)
        a = spectra.verify_spectral_stability(cs, samples=3, seed=9)
        b = spectra.verify_spectral_stability(cs, samples=3, seed=9)
        assert a.max_pairwise_hausdorff == b.max_pairwise_hausdorff
        assert a.max_operator_difference == b.max_operator_difference


class TestHausdorff:
    def test_identical_sets(self):
        pts = np.array([1.0, 1j, -1.0])
        assert spectra.hausdorff_distance(pts, pts) == 0.0

    def test_known_distance(self):
        a = np.array([0.0 + 0j])
        b = np.array([0.0 + 0j, 3.0 + 4j])
        assert spectra.hausdorff_distance(a, b) == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert spectra.hausdorff_distance(a, b) == spectra.hausdorff_distance(b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectra.hausdorff_distance(np.array([]), np.array([1.0 + 0j]))
