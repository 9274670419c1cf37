"""Tests for the unitary eigensolver, clustering, and the theorem checks."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from mqwalk import _eigen, _linalg, coin, fock, magnetic, spectra, walk


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


def miss_split_gate(monkeypatch):
    """Make the split path report a residual above every gate."""
    solve = _eigen._eig_unitary

    def missed_gate(a, pure_tol=_eigen._PURE_COLUMN_TOL, angle=0.0):
        lam, vecs, _ = solve(a, pure_tol, angle)
        return lam, vecs, 1.0

    monkeypatch.setattr(_eigen, "_eig_unitary", missed_gate)


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
        lam, vecs, residual = _eigen._eig_unitary(u)
        assert residual <= 1e-12
        for i in range(10):
            defect = u @ vecs[:, i] - lam[i] * vecs[:, i]
            assert np.linalg.norm(defect) <= 1e-8

    def test_degenerate_walk_operator(self):
        # heavy multiplicities: the grover-coin walk at a random potential
        cs = coin.grover_coin_system(3)
        nu = magnetic.random_potential(3, np.random.default_rng(9))
        mat = walk.evolution_operator(nu, cs).dense()
        lam, vecs, residual = _eigen._eig_unitary(mat)
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
            _, _, residual = _eigen._eig_unitary(mat)
            assert residual <= 1e-14

    def test_random_coin_walk(self):
        _, _, residual = _eigen._eig_unitary(self.random_coin_walk())
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
        miss_split_gate(monkeypatch)
        with pytest.raises(spectra.EigensolverError) as info:
            spectra.unitary_eigenvalues(np.eye(3, dtype=complex))
        assert not isinstance(info.value, ValueError)

    def test_unit_circle_miss_is_not_input_error(self, monkeypatch):
        solve = _eigen._eig_unitary

        def off_circle(a, pure_tol=_eigen._PURE_COLUMN_TOL, angle=0.0):
            lam, vecs, residual = solve(a, pure_tol, angle)
            lam[0] *= 1.01
            return lam, vecs, residual

        monkeypatch.setattr(_eigen, "_eig_unitary", off_circle)
        with pytest.raises(spectra.EigensolverError, match="unit-circle") as info:
            spectra.unitary_eigenvalues(np.eye(3, dtype=complex))
        assert not isinstance(info.value, ValueError)

    @pytest.mark.parametrize("solver, side", [
        ("eigh", 3),  # the split path
        ("lstsq", 160),  # the trace-moment route's multiplicities, on M
        ("schur", 160),  # the probe's Hessenberg block, of M
    ])
    def test_lapack_failure_is_not_input_error(self, monkeypatch, solver, side):
        # LinAlgError subclasses ValueError; after the pre-check it is a
        # solver failure
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("the algorithm failed to converge")

        mat = (clustered_unitary(side, [0.5, -0.5, 2.0], 42) if solver == "eigh"
               else MOMENT_CASES["grover4"]())
        assert mat.shape == (side, side)
        module = _eigen.np.linalg if solver == "lstsq" else _eigen.sla
        monkeypatch.setattr(module, solver, no_convergence)
        with pytest.raises(spectra.EigensolverError, match="converge") as info:
            spectra.unitary_eigenvalues(mat)
        assert not isinstance(info.value, ValueError)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def clustered_unitary(side, phases, seed):
    """Haar-rotated unitary with ``phases`` repeated evenly over ``side``."""
    q = haar_unitary(side, np.random.default_rng(seed))
    diag = np.repeat(np.exp(1j * np.asarray(phases)), side // len(phases))
    return q @ np.diag(diag) @ q.conj().T


def spy_drivers(monkeypatch):
    """Record the LAPACK driver of every ``scipy.linalg.eigh`` call (the
    pencil, the split path and the coin sums), eigenvalues-only calls
    included, so an empty record rules out any Hermitian solve."""
    drivers = []
    eigh = _eigen.sla.eigh

    def spy(*args, **kwargs):
        drivers.append(kwargs.get("driver"))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(_eigen.sla, "eigh", spy)
    return drivers


def spy_solves(monkeypatch):
    """Record the LAPACK driver and the side of every ``scipy.linalg.eigh``
    call, as ``spy_drivers`` records the drivers alone."""
    solves = []
    eigh = _eigen.sla.eigh

    def spy(a, *args, **kwargs):
        solves.append((kwargs.get("driver"), a.shape[0]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(_eigen.sla, "eigh", spy)
    return solves


def spy_probe(monkeypatch):
    """Record the shape of every matrix the Krylov probe runs on."""
    shapes = []
    probe = _eigen._krylov_saturation

    def spy(a, tol):
        shapes.append(a.shape)
        return probe(a, tol)

    monkeypatch.setattr(_eigen, "_krylov_saturation", spy)
    return shapes


def spy_moments(monkeypatch):
    """Record the shape of every matrix the trace-moment route runs on (the
    product M of its blocks, at half the side), and whether its certificate
    answered."""
    calls = []
    route = _eigen._eigvals_from_moments

    def spy(x, y, ritz, ritz_vecs, tol):
        lam = route(x, y, ritz, ritz_vecs, tol)
        calls.append(((x.shape[0], y.shape[1]), lam is not None))
        return lam

    monkeypatch.setattr(_eigen, "_eigvals_from_moments", spy)
    return calls


def miss_moments(monkeypatch):
    """Move the first trace moment by 1, an error that the moment
    certificate refuses."""
    traces = _eigen._trace_powers

    def perturbed(x, y, count):
        out = traces(x, y, count)
        out[0] += 1.0
        return out

    monkeypatch.setattr(_eigen, "_trace_powers", perturbed)


def half(shape):
    """The shape of a walk's M = A_PQ A_QP, on one colour class."""
    return (shape[0] // 2, shape[1] // 2)


def miss_pencil(monkeypatch):
    """Move tr A by 1, a trace error that the pencil's gate refuses."""
    traces = _eigen._traces

    def perturbed(a):
        trace, trace_sq = traces(a)
        return trace + 1.0, trace_sq

    monkeypatch.setattr(_eigen, "_traces", perturbed)


class TestKrylovRouting:
    """The probe's choice of route and the probe itself."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_moment_route_keeps_the_callers_ndarray(self, monkeypatch, order):
        # the blocks are read from the caller's array in row blocks, beside it
        moments = spy_moments(monkeypatch)
        mat = np.array(MOMENT_CASES["grover4-ndarray"](), order=order)
        before = mat.tobytes(order="A")
        report = spectra.unitary_eigenvalues(mat)
        assert moments == [(half(mat.shape), True)]
        assert report.multiplicities == tuple(split_clusters(mat)[1])
        assert mat.tobytes(order="A") == before

    @pytest.mark.parametrize("case", ["csr", "ndarray", "grover5"])
    def test_moment_certificate_miss(self, monkeypatch, case):
        # the moments run on the walk's 2-cyclic square M; a certificate
        # miss ends on the pencil of the same M with the right answer, and a
        # miss of its gates on the split path of M, with no solve at the
        # full side; a miss of the split path's gate then is a solver
        # failure, not invalid input, as the pre-check has proven either
        # form unitary
        n, seed = (5, 81) if case == "grover5" else (4, 45)
        mat, dense = walk_forms(coin.grover_coin_system(n), seed)
        reference = spectra.unitary_eigenvalues(mat)
        if case == "ndarray":
            mat = dense
        side = mat.shape[0]
        moments = spy_moments(monkeypatch)
        miss_moments(monkeypatch)
        solves = spy_solves(monkeypatch)
        report = spectra.unitary_eigenvalues(mat)
        assert moments == [(half(mat.shape), False)] and solves == [("gv", side // 2)]
        assert report.multiplicities == reference.multiplicities
        assert np.abs(report.values - reference.values).max() <= 1e-12
        miss_pencil(monkeypatch)
        solves.clear()
        report = spectra.unitary_eigenvalues(mat)
        assert solves == [("gv", side // 2), ("evr", side // 2)]
        assert report.multiplicities == reference.multiplicities
        assert np.abs(report.values - reference.values).max() <= 1e-12
        miss_split_gate(monkeypatch)
        with pytest.raises(spectra.EigensolverError, match="eigen-residual") as info:
            spectra.unitary_eigenvalues(mat)
        assert not isinstance(info.value, ValueError)

    @pytest.mark.parametrize("form", ["ndarray", "csr"])
    def test_split_path_at_or_below_64_whatever_the_spectrum(self, monkeypatch, form):
        probes = spy_probe(monkeypatch)
        moments = spy_moments(monkeypatch)
        drivers = spy_drivers(monkeypatch)
        grover, _ = walk_forms(coin.grover_coin_system(3), 46)  # side 64, degenerate
        phases = [0.2, -1.4]
        clustered = clustered_unitary(64, phases, 47)
        generic = haar_unitary(64, np.random.default_rng(48))
        mats = [grover.toarray(), clustered, generic]
        if form == "csr":
            mats = [sp.csr_matrix(mat) for mat in mats]
        reports = [spectra.unitary_eigenvalues(mat) for mat in mats]
        assert drivers == ["evr"] * 3 and moments == [] and probes == []
        assert reports[0].total_multiplicity == 64
        assert reports[1].multiplicities == (32, 32)
        assert spectra.hausdorff_distance(reports[1].values, np.exp(1j * np.array(phases))) <= 1e-9
        reference = np.linalg.eigvals(generic)
        assert spectra.hausdorff_distance(reports[2].values, reference) <= 1e-10

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_small_route_rejects_nan_and_non_unitary(self, monkeypatch):
        # the explicit pre-check rejects both before the probe or eigh runs
        probes = spy_probe(monkeypatch)
        drivers = spy_drivers(monkeypatch)
        bad_nan = clustered_unitary(96, [0.5, -0.5], 44)
        bad_nan[3, 5] = np.nan
        bad_scale = 1.01 * clustered_unitary(96, [0.5, -0.5], 44)
        for mat in (bad_nan, bad_scale):
            with pytest.raises(ValueError, match="not unitary"):
                spectra.unitary_eigenvalues(mat)
        assert drivers == [] and probes == []

    def test_empty_and_scalar_inputs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            empty = spectra.unitary_eigenvalues(np.zeros((0, 0), dtype=complex))
            scalar = spectra.unitary_eigenvalues(np.array([[1j]]))
        assert empty.eigenvalues == () and empty.multiplicities == ()
        assert scalar.eigenvalues == (1j,) and scalar.multiplicities == (1,)

    def test_saturation_detects_few_distinct_values(self):
        phases = [0.1, 0.9, -2.0, 2.4]
        mat = clustered_unitary(96, phases, 30)
        ritz, ritz_vecs = _eigen._krylov_saturation(mat, 1e-8)
        # the Ritz values are the four distinct values, and the Ritz vectors
        # unit eigenvectors of them
        assert ritz.shape == (4,) and ritz_vecs.shape == (96, 4)
        assert spectra.hausdorff_distance(ritz, np.exp(1j * np.array(phases))) <= 1e-9
        assert np.abs(np.linalg.norm(ritz_vecs, axis=0) - 1).max() <= 1e-14
        assert np.linalg.norm(mat @ ritz_vecs - ritz_vecs * ritz, axis=0).max() <= 1e-9

    def test_saturation_closes_at_its_tol(self):
        # the fourth step's orthogonalized vector is round-off, about 1e-15
        # on a unit start: it closes the space at 1e-14, not at 1e-16
        mat = clustered_unitary(96, [0.1, 0.9, -2.0, 2.4], 30)
        assert _eigen._krylov_saturation(mat, 1e-14)[0].shape == (4,)
        assert _eigen._krylov_saturation(mat, 1e-16) is None

    def test_generic_spectrum_does_not_saturate(self):
        rng = np.random.default_rng(31)
        mat = haar_unitary(96, rng)
        ritz = _eigen._krylov_saturation(mat, 1e-8)
        assert ritz is None


def drop_a_ritz_pair(monkeypatch):
    """Make the probe lose its first Ritz value and vector."""
    probe = _eigen._krylov_saturation

    def dropped(a, tol):
        ritz, ritz_vecs = probe(a, tol)
        return ritz[1:], ritz_vecs[:, 1:]

    monkeypatch.setattr(_eigen, "_krylov_saturation", dropped)


def grover_block_coin_system(n, d, seed):
    """The d x d Grover matrix split by a random partition into n+1 blocks,
    the coin a coin file of the benchmark's spectrum workload holds."""
    s = 2.0 / d * np.ones((d, d)) - np.eye(d)
    rng = np.random.default_rng(seed)
    blocks = [list(map(int, b)) for b in np.array_split(rng.permutation(d), n + 1)]
    return coin.coin_from_unitary_partition(s, blocks)


def walk_forms(cs, seed):
    """CSR and ndarray forms of one walk at a random potential."""
    nu = magnetic.random_potential(cs.n, np.random.default_rng(seed))
    op = walk.evolution_operator(nu, cs)
    return op.sparse(), op.dense()


def split_clusters(mat):
    """Clusters of the split path, the structure-blind oracle."""
    lam, _, residual = _eigen._eig_unitary(mat, _eigen._pure_column_tol(1e-8))
    assert residual <= 1e-8
    return spectra._cluster_unit_circle(lam, 1e-8)


MOMENT_CASES = {
    "grover4": lambda: walk_forms(coin.grover_coin_system(4), 80)[0],
    "grover5": lambda: walk_forms(coin.grover_coin_system(5), 81)[0],
    "grover6": lambda: walk_forms(coin.grover_coin_system(6), 82)[0],
    "grover7": lambda: walk_forms(coin.grover_coin_system(7), 83)[0],
    # the blocks of the ndarray forms are read from them in row blocks
    "grover4-ndarray": lambda: walk_forms(coin.grover_coin_system(4), 49)[1],
    "grover5-ndarray": lambda: walk_forms(coin.grover_coin_system(5), 49)[1],
    "grover6-ndarray": lambda: walk_forms(coin.grover_coin_system(6), 49)[1],
    "grover-blocks": lambda: walk_forms(grover_block_coin_system(4, 15, 84), 84)[0],
}


class TestMomentsRoute:
    """A walk whose probe of M closes: multiplicities from trace moments."""

    @pytest.mark.parametrize("case", sorted(MOMENT_CASES))
    def test_against_the_split_path(self, monkeypatch, case):
        mat = MOMENT_CASES[case]()
        moments = spy_moments(monkeypatch)
        drivers = spy_drivers(monkeypatch)
        report = spectra.unitary_eigenvalues(mat)
        assert moments == [(half(mat.shape), True)] and drivers == []
        split_vals, split_mults = split_clusters(mat)
        assert report.multiplicities == tuple(split_mults)
        assert np.abs(report.values - split_vals).max() <= 1e-12

    @pytest.mark.parametrize("case", sorted(MOMENT_CASES))
    def test_walk_values_pair_by_sign(self, monkeypatch, case):
        # each value mu of M gives +-sqrt(mu): lambda and -lambda have equal
        # multiplicities
        mat = MOMENT_CASES[case]()
        moments = spy_moments(monkeypatch)
        report = spectra.unitary_eigenvalues(mat)
        assert moments == [(half(mat.shape), True)]
        values, mults = report.values, np.array(report.multiplicities)
        partner = np.abs(values[:, None] + values[None, :]).argmin(axis=1)
        assert np.array_equal(np.sort(partner), np.arange(values.size))
        assert np.abs(values + values[partner]).max() <= 1e-12
        assert (mults[partner] == mults).all()

    @pytest.mark.parametrize("case", ["grover4", "grover5", "grover6", "grover7"])
    def test_probe_closes_at_the_callers_tol(self, monkeypatch, case):
        # the probe closes at unitary_tol: at 1e-10 the Grover walks still
        # take the moments, with the same clusters as at the default
        mat = MOMENT_CASES[case]()
        reference = spectra.unitary_eigenvalues(mat)
        closes = []
        probe = _eigen._krylov_saturation

        def spy(a, tol):
            found = probe(a, tol)
            closes.append((tol, found is not None))
            return found

        monkeypatch.setattr(_eigen, "_krylov_saturation", spy)
        moments = spy_moments(monkeypatch)
        drivers = spy_drivers(monkeypatch)
        report = spectra.unitary_eigenvalues(mat, unitary_tol=1e-10)
        assert closes == [(1e-10, True)]
        assert moments == [(half(mat.shape), True)] and drivers == []
        assert report.multiplicities == reference.multiplicities
        assert np.abs(report.values - reference.values).max() <= 1e-12

    def test_trace_powers(self, monkeypatch):
        # any two square factors: X = Y = A gives tr A^2p
        mat = MOMENT_CASES["grover-blocks"]()
        dense = mat.toarray()
        powers = [np.trace(np.linalg.matrix_power(dense, 2 * p)) for p in range(1, 6)]
        # 3 workers cut each 64 columns into ragged pieces
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(_eigen, "_moment_workers", lambda: workers)
            assert np.abs(_eigen._trace_powers(mat, mat, 5) - powers).max() <= 1e-10

    def test_trace_powers_of_the_blocks(self, monkeypatch):
        # tr M^p from (A_PQ, A_QP) applied in turn, with no product formed,
        # against dense powers of M and against sum_{i in P} (A^2p)_ii
        mat = MOMENT_CASES["grover-blocks"]()
        blocks = _eigen._two_cyclic_blocks(mat)
        square = (blocks[0] @ blocks[1]).toarray()
        assert square.shape == half(mat.shape)
        powers = [np.trace(np.linalg.matrix_power(square, p)) for p in range(1, 6)]
        dense = mat.toarray()
        p_class = np.flatnonzero(~_eigen._two_colouring(mat))
        on_p = [np.linalg.matrix_power(dense, 2 * p)[p_class, p_class].sum() for p in range(1, 6)]
        assert np.abs(np.array(on_p) - powers).max() <= 1e-10
        # 3 workers cut each 64 columns into ragged pieces
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(_eigen, "_moment_workers", lambda: workers)
            assert np.abs(_eigen._trace_powers(*blocks, 5) - powers).max() <= 1e-10

    def test_small_products_run_on_the_calling_thread(self, monkeypatch):
        # below _MOMENT_POOL_WORK multiply-adds no thread pool starts: the
        # side-160 walk's M, of side 80, has none; the side-896 walk's M, of
        # side 448, keeps its pool
        pools = []
        pool = _eigen.ThreadPoolExecutor

        def counted(workers):
            pools.append(workers)
            return pool(workers)

        monkeypatch.setattr(_eigen, "ThreadPoolExecutor", counted)
        monkeypatch.setattr(_eigen, "_moment_workers", lambda: 2)
        moments = spy_moments(monkeypatch)
        small, large = MOMENT_CASES["grover4"](), MOMENT_CASES["grover6"]()
        spectra.unitary_eigenvalues(small)
        assert moments == [((80, 80), True)] and pools == []
        spectra.unitary_eigenvalues(large)
        assert moments[1] == ((448, 448), True) and pools == [2]

    @pytest.mark.parametrize("fault", ["dropped", "perturbed", "moved"])
    def test_fault_falls_back(self, monkeypatch, fault):
        # each fault is refused by the certificate on M; the pencil of the
        # same M answers, with the unperturbed multiset
        mat = MOMENT_CASES["grover5"]()
        reference = spectra.unitary_eigenvalues(mat)
        if fault == "dropped":
            drop_a_ritz_pair(monkeypatch)
        elif fault == "perturbed":
            miss_moments(monkeypatch)
        else:
            probe = _eigen._krylov_saturation

            def moved(a, tol):
                ritz, ritz_vecs = probe(a, tol)
                ritz[0] *= np.exp(1e-6j)
                return ritz, ritz_vecs

            monkeypatch.setattr(_eigen, "_krylov_saturation", moved)
        moments = spy_moments(monkeypatch)
        drivers = spy_drivers(monkeypatch)
        report = spectra.unitary_eigenvalues(mat)
        assert moments == [(half(mat.shape), False)] and drivers == ["gv"]
        assert report.multiplicities == reference.multiplicities
        assert np.abs(report.values - reference.values).max() <= 1e-12

    def test_gates_follow_tol(self):
        # Ritz residuals of round-off pass a gate of 1e-8, not one of zero
        blocks = _eigen._two_cyclic_blocks(MOMENT_CASES["grover4"]())
        ritz, ritz_vecs = _eigen._krylov_saturation(blocks[0] @ blocks[1], 1e-8)
        assert _eigen._eigvals_from_moments(*blocks, ritz, ritz_vecs, 1e-8).size == 80
        assert _eigen._eigvals_from_moments(*blocks, ritz, ritz_vecs, 0.0) is None


def spy_pencil(monkeypatch):
    """Record the angle alpha of every Cayley pencil solve, and whether it
    raised ``LinAlgError``."""
    solves = []
    solve = _eigen._pencil_tangents

    def spy(a, alpha):
        try:
            tans = solve(a, alpha)
        except np.linalg.LinAlgError:
            solves.append((alpha, False))
            raise
        solves.append((alpha, True))
        return tans

    monkeypatch.setattr(_eigen, "_pencil_tangents", spy)
    return solves


def seam_unitary(side, delta, seed):
    """Haar-rotated unitary with random phases, one of them ``delta`` from
    the pencil's seam -e^{i alpha}; and its eigenvalues."""
    rng = np.random.default_rng(seed)
    q = haar_unitary(side, rng)
    phases = rng.uniform(-np.pi, np.pi, side)
    phases[0] = np.pi + _eigen._PENCIL_ALPHA + delta
    values = np.exp(1j * phases)
    return (q * values) @ q.conj().T, values


class TestPencil:
    """The Cayley pencil, which a walk's M takes when its probe does not
    close."""

    # the phase 3e-10 from the seam came out with |t| = 5e5, which passes
    # the conditioning gate, and an error of 4e-6, below side tau; the
    # trace gate, scaled by the same error bound, refuses it
    @pytest.mark.parametrize("delta", [1e-2, 1e-5, 1e-6, 1e-8, 3e-10, 1e-11, 0.0])
    def test_values_near_the_seam(self, monkeypatch, delta):
        mat, values = seam_unitary(512, delta, 56)
        solves = spy_pencil(monkeypatch)
        lam = _eigen._eigvals_from_pencil(sp.csr_matrix(mat), 1e-8)
        # one solve at every distance: an answer within tau of the truth far
        # from the seam, a miss nearer.  At 1e-6 and 1e-8 the conditioning
        # gate refuses, at 3e-10 the trace gate; closer still H' is
        # numerically singular, and the miss is a trace gate refusal or a
        # Cholesky failure, as the round-off falls
        assert [alpha for alpha, _ in solves] == [_eigen._PENCIL_ALPHA]
        if delta >= 3e-10:
            assert solves == [(_eigen._PENCIL_ALPHA, True)]
        if delta >= 1e-5:
            assert lam.size == 512 and spectra.hausdorff_distance(lam, values) <= 1e-8
        else:
            assert lam is None
        # as the M of [[0, D], [I, 0]], the split path of M answers a miss
        paired = np.block([[np.zeros_like(mat), mat], [np.eye(512), np.zeros_like(mat)]])
        calls = spy_solves(monkeypatch)
        report = spectra.unitary_eigenvalues(paired)
        roots = np.concatenate((np.sqrt(values), -np.sqrt(values)))
        assert calls == [("gv", 512)] + ([] if delta >= 1e-5 else [("evr", 512)])
        assert report.total_multiplicity == 1024
        assert spectra.hausdorff_distance(report.values, roots) <= 1e-8

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_against_the_split_path(self, monkeypatch, n):
        mat, _ = walk_forms(coin.random_coin_system(n, 8, seed=57), 58)
        solves = spy_pencil(monkeypatch)
        lam = _eigen._eigvals_from_pencil(mat, 1e-8)
        assert solves == [(_eigen._PENCIL_ALPHA, True)]
        # columns above 1e-12 are rotated, which keeps the oracle's
        # residual, and so its error, well below the agreement asserted
        split, _, residual = _eigen._eig_unitary(mat, 1e-12)
        assert residual <= 1e-10
        assert lam.size == mat.shape[0]
        assert spectra.hausdorff_distance(lam, split) <= 1e-10

    def test_cholesky_failure_is_not_input_error(self, monkeypatch):
        # [[0, D], [I, 0]] is 2-cyclic with M = D: at alpha = 0 the value
        # -1 of M makes H' exactly singular, the Cholesky factor fails, and
        # the split path of M answers at half the side
        monkeypatch.setattr(_eigen, "_PENCIL_ALPHA", 0.0)
        phases = np.random.default_rng(59).uniform(-3.0, 3.0, 96)
        phases[:2] = np.pi, 0.0
        values = np.exp(1j * phases)
        values[:2] = -1.0, 1.0

        def paired(values):
            mat = sp.bmat([[None, sp.diags(values)], [sp.identity(96), None]], format="csr")
            return mat, np.concatenate((np.sqrt(values), -np.sqrt(values)))

        solves = spy_pencil(monkeypatch)
        drivers = spy_solves(monkeypatch)
        mat, roots = paired(values)
        report = spectra.unitary_eigenvalues(mat)
        assert solves == [(0.0, False)]
        assert drivers == [("gv", 96), ("evr", 96)]
        assert report.total_multiplicity == 192
        assert spectra.hausdorff_distance(report.values, roots) <= 1e-12
        # with only -1 on the seam, the same: no second pencil is tried
        solves.clear()
        values[1] = np.exp(0.5j)
        mat, roots = paired(values)
        report = spectra.unitary_eigenvalues(mat)
        assert solves == [(0.0, False)]
        assert spectra.hausdorff_distance(report.values, roots) <= 1e-12

    def test_nearly_unitary_input_reaches_the_split_path(self, monkeypatch):
        # a walk moved by 1e-11 per stored entry keeps a unitarity residual
        # of 5.9e-11, which passes the 1e-8 pre-check; the trace gates of
        # the pencil of its 2-cyclic square refuse it, and the split path of
        # the same square answers
        cs = coin.random_coin_system(4, 5, seed=3)
        mat = walk.evolution_operator(
            magnetic.random_potential(4, np.random.default_rng(3)), cs
        ).sparse()
        reference = spectra.unitary_eigenvalues(mat)
        rng = np.random.default_rng(1)
        moved = mat.copy()
        moved.data += 1e-11 * (rng.normal(size=mat.nnz) + 1j * rng.normal(size=mat.nnz))
        solves = spy_solves(monkeypatch)
        report = spectra.unitary_eigenvalues(moved)
        assert solves == [("gv", 80), ("evr", 80)]
        assert report.total_multiplicity == 160
        assert spectra.hausdorff_distance(report.values, reference.values) <= 1e-9


    def test_nearly_unitary_walk_pays_one_pencil(self, monkeypatch):
        # the side-896 random walk moved to a unitarity residual of 7.4e-11:
        # the one pencil of its square misses, and the split path of the
        # square answers, with no second pencil and no full-side solve
        cs = coin.random_coin_system(6, 7, seed=3)
        mat = walk.evolution_operator(
            magnetic.random_potential(6, np.random.default_rng(3)), cs
        ).sparse()
        reference = spectra.unitary_eigenvalues(mat)
        rng = np.random.default_rng(1)
        moved = mat.copy()
        moved.data += 1e-11 * (rng.normal(size=mat.nnz) + 1j * rng.normal(size=mat.nnz))
        assert 1e-11 < _linalg.unitarity_residual(moved) <= 1e-10
        solves = spy_solves(monkeypatch)
        report = spectra.unitary_eigenvalues(moved)
        assert solves == [("gv", 448), ("evr", 448)]
        assert report.total_multiplicity == 896
        assert spectra.hausdorff_distance(report.values, reference.values) <= 1e-9


def cycles_unitary(lengths, seed):
    """Sparse unitary: a permutation of cycles of the given ``lengths``,
    each entry with a random phase, and no diagonal entry."""
    rng = np.random.default_rng(seed)
    side = sum(lengths)
    starts = np.cumsum([0] + list(lengths[:-1]))
    cols = np.concatenate([np.roll(np.arange(s, s + n), 1) for s, n in zip(starts, lengths)])
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, side))
    return sp.csr_matrix((phases, (np.arange(side), cols)), shape=(side, side))


def split_oracle(mat):
    """Eigenvalues of the full-side split path, its columns above 1e-12
    rotated so that its error stays well below the agreement asserted."""
    lam, _, residual = _eigen._eig_unitary(mat, 1e-12)
    assert residual <= 1e-10
    return lam


class TestTwoCyclic:
    """A 2-cyclic zero pattern: the pencil of A^2 on one colour class."""

    def assert_agrees(self, report, oracle):
        assert report.multiplicities == tuple(spectra._cluster_unit_circle(oracle, 1e-8)[1])
        assert spectra.hausdorff_distance(report.values, oracle) <= 1e-10

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_against_the_split_path(self, monkeypatch, n):
        mat, dense = walk_forms(coin.random_coin_system(n, n + 1, seed=90 + n), 90)
        side = mat.shape[0]
        oracle = split_oracle(mat)
        solves = spy_solves(monkeypatch)
        for form in (mat, dense):
            self.assert_agrees(spectra.unitary_eigenvalues(form), oracle)
        # one eigenvalues-only solve, at half the side, for each form
        assert solves == [("gv", side // 2)] * 2

    # every coin kind the CLI builds above side 64: grover, random (d = n +
    # 1), random:<d>, and the bench's Grover-in-blocks coin file, whose
    # pattern falls apart into components
    @pytest.mark.parametrize("cs", [
        coin.grover_coin_system(4),
        coin.random_coin_system(4, 5, seed=100),
        coin.random_coin_system(3, 9, seed=101),
        grover_block_coin_system(4, 15, 102),
    ], ids=["grover", "random", "random:9", "grover-blocks"])
    def test_every_cli_walk_is_two_cyclic(self, cs):
        for form in walk_forms(cs, 103):
            side = form.shape[0]
            blocks = _eigen._two_cyclic_blocks(form)
            assert side > 64 and blocks is not None
            assert [block.shape for block in blocks] == [(side // 2, side // 2)] * 2
            assert blocks[0].nnz + blocks[1].nnz == cs.d * side

    # a Haar ndarray and a clustered CSR matrix have a nonzero diagonal; the
    # permutation has none, but its cycles of lengths 3 and 97 are odd
    @pytest.mark.parametrize("case", ["haar", "clustered-csr", "cycles", "sixty-phases"])
    def test_not_two_cyclic_takes_the_split_path(self, monkeypatch, case):
        mat = {
            "haar": lambda: haar_unitary(96, np.random.default_rng(91)),
            "clustered-csr": lambda: sp.csr_matrix(
                clustered_unitary(96, [0.1, 0.9, -2.0, 2.4], 85)
            ),
            "cycles": lambda: cycles_unitary([3, 97], 92),
            "sixty-phases": lambda: clustered_unitary(
                240, np.angle(np.exp(1j * (2 * np.pi * np.arange(60) / 60 + 0.1))), 53
            ),
        }[case]()
        assert _eigen._two_cyclic_blocks(mat) is None
        probes = spy_probe(monkeypatch)
        moments = spy_moments(monkeypatch)
        solves = spy_solves(monkeypatch)
        report = spectra.unitary_eigenvalues(mat)
        assert probes == [] and moments == [] and solves == [("evr", mat.shape[0])]
        dense = mat.toarray() if sp.issparse(mat) else mat
        reference = np.linalg.eigvals(dense)
        assert report.multiplicities == tuple(spectra._cluster_unit_circle(reference, 1e-8)[1])
        assert spectra.hausdorff_distance(report.values, reference) <= 1e-10

    def test_components_of_different_sizes(self, monkeypatch):
        # a side-192 and a side-96 walk, their rows and columns shuffled
        # together: each component is coloured on its own
        large = walk_forms(coin.random_coin_system(4, 6, seed=93), 93)[0]
        small = walk_forms(coin.random_coin_system(3, 6, seed=94), 94)[0]
        mat = sp.block_diag((large, small), format="csr")
        perm = np.random.default_rng(95).permutation(mat.shape[0])
        mat = mat[perm][:, perm]
        oracle = split_oracle(mat)
        solves = spy_solves(monkeypatch)
        self.assert_agrees(spectra.unitary_eigenvalues(mat), oracle)
        assert solves == [("gv", 144)]

    def test_stored_zeros_are_ignored(self, monkeypatch):
        # zeros stored on the diagonal and between rows of one colour
        mat = walk_forms(coin.random_coin_system(4, 6, seed=96), 96)[0]
        side = mat.shape[0]
        same = np.flatnonzero(_eigen._two_colouring(mat))
        coo = mat.tocoo()
        rows = np.concatenate((coo.row, np.arange(side), same[:-1]))
        cols = np.concatenate((coo.col, np.arange(side), same[1:]))
        data = np.concatenate((coo.data, np.zeros(side + same.size - 1)))
        padded = sp.csr_matrix((data, (rows, cols)), shape=mat.shape)
        assert padded.nnz == mat.nnz + side + same.size - 1
        reference = spectra.unitary_eigenvalues(mat)
        solves = spy_solves(monkeypatch)
        report = spectra.unitary_eigenvalues(padded)
        assert solves == [("gv", side // 2)]
        assert report.to_json_dict() == reference.to_json_dict()

    def test_miss_ends_on_the_split_of_the_square(self, monkeypatch):
        mat = walk_forms(coin.random_coin_system(4, 6, seed=97), 97)[0]
        side = mat.shape[0]
        reference = spectra.unitary_eigenvalues(mat)
        miss_pencil(monkeypatch)
        solves = spy_solves(monkeypatch)
        report = spectra.unitary_eigenvalues(mat)
        # the one pencil of a walk is that of its square: a miss there goes
        # straight to the split path of the same square, with no solve at
        # the full side
        assert solves == [("gv", side // 2), ("evr", side // 2)]
        assert report.multiplicities == reference.multiplicities
        assert np.abs(report.values - reference.values).max() <= 1e-12

    @pytest.mark.parametrize("cs", [
        coin.random_coin_system(2, 12, seed=54),
        grover_block_coin_system(2, 12, 55),
    ], ids=["random", "grover-blocks"])
    def test_side_96_walk_runs_no_probe(self, monkeypatch, cs):
        # M is of side 48, where every Krylov space closes: the pencil of M
        # answers with no probe
        mat = walk_forms(cs, 56)[0]
        assert mat.shape == (96, 96)
        oracle = split_oracle(mat)
        probes = spy_probe(monkeypatch)
        solves = spy_solves(monkeypatch)
        self.assert_agrees(spectra.unitary_eigenvalues(mat), oracle)
        assert probes == [] and solves == [("gv", 48)]

    def test_ndarray_entries_in_row_blocks(self):
        mat, dense = walk_forms(coin.random_coin_system(5, 8, seed=98), 98)
        side = dense.shape[0]
        tracemalloc.start()
        try:
            entries = _eigen._nonzero_entries(dense)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert entries.nnz == mat.nnz and (entries != mat).nnz == 0
        # one block of rows and the entries (measured: 0.03 side^2
        # complex numbers), no side x side temporary
        assert peak <= 0.1 * side * side * 16
        # more entries than a 2-cyclic pattern with classes of equal size
        # holds, in either form
        haar = haar_unitary(96, np.random.default_rng(99))
        assert _eigen._nonzero_entries(haar) is None
        assert _eigen._nonzero_entries(sp.csr_matrix(haar)) is None


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
        probes = spy_probe(monkeypatch)
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
        assert drivers == [] and probes == []

    # "eigvals": a degenerate walk, whose eigenvalues the trace-moment
    # route gives without eigenvectors, in either form
    @pytest.mark.parametrize("route, cs", [
        ("gv", coin.random_coin_system(4, 6, seed=64)),
        ("eigvals", coin.grover_coin_system(4)),
    ])
    def test_same_clusters_on_every_route(self, monkeypatch, route, cs):
        moments = spy_moments(monkeypatch)
        drivers = spy_drivers(monkeypatch)
        mat, dense = walk_forms(cs, 65)
        from_sparse = spectra.unitary_eigenvalues(mat)
        sparse_drivers, drivers[:] = drivers[:], []
        from_dense = spectra.unitary_eigenvalues(dense)
        assert sparse_drivers == drivers == ([] if route == "eigvals" else [route])
        assert moments == ([(half(mat.shape), True)] * 2 if route == "eigvals" else [])
        assert from_sparse.multiplicities == from_dense.multiplicities
        assert np.abs(from_sparse.values - from_dense.values).max() <= 1e-12
        assert from_sparse.total_multiplicity == mat.shape[0]

    def test_capacity_guard_before_any_allocation(self):
        cs = coin.random_coin_system(11, 12, seed=0)
        nu = magnetic.null_potential(11)
        tracemalloc.start()
        try:
            with pytest.raises(walk.CapacityError, match="n <= 10"):
                spectra.walk_point_spectrum(nu, cs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the n=11 index arrays of one direction alone would hold 2^12 x 144
        # entries
        assert peak < 1 << 20


def unblocked_eig_unitary(a, driver):
    """Eigenpairs and defects of ``a`` formed on whole arrays, unblocked."""
    herm = (a + a.conj().T) / 2
    herm = herm.toarray() if sp.issparse(herm) else herm
    _, vecs = _eigen.sla.eigh(herm, driver=driver, check_finite=False)
    images = a @ vecs
    lam = np.einsum("ij,ij->j", vecs.conj(), images)
    return lam, vecs, np.linalg.norm(images - vecs * lam[None, :], axis=0)


BLOCK = _linalg.BLOCK
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
        assert defect_ref.max() <= _eigen._PURE_COLUMN_TOL
        lam, vecs, residual = _eigen._eig_unitary(a)
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
        (coin.grover_coin_system(6), "moments", 0.27),
        (coin.random_coin_system(6, 7, seed=75), "gv", 3.25),
    ], ids=["grover", "random"])
    def test_peak_memory_of_a_side_896_walk(self, monkeypatch, cs, route, arrays):
        nu = magnetic.random_potential(cs.n, np.random.default_rng(76))
        mat = walk.evolution_operator(nu, cs).sparse()
        side = mat.shape[0]
        assert side == 896
        moments = spy_moments(monkeypatch)
        drivers = spy_drivers(monkeypatch)
        tracemalloc.start()
        try:
            spectra.unitary_eigenvalues(mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drivers == ([] if route == "moments" else [route])
        assert moments == ([(half(mat.shape), True)] if route == "moments" else [])
        # the pencil holds S and H'; the trace-moment route, on the side / 2
        # of M, the probe's side / 2 x 65 basis and, over all its workers,
        # the blocks of M^p E and Y M^p E for 64 columns in flight
        # (measured: 0.168 side^2 complex numbers on two workers)
        assert peak <= arrays * side * side * 16

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_side_896_walk_on_any_worker_count(self, monkeypatch, workers):
        # the moment products' worker count moves neither the report nor
        # the working set of test_peak_memory_of_a_side_896_walk
        cs = coin.grover_coin_system(6)
        nu = magnetic.random_potential(cs.n, np.random.default_rng(76))
        mat = walk.evolution_operator(nu, cs).sparse()
        side = mat.shape[0]
        reference = spectra.unitary_eigenvalues(mat).to_json_dict()
        moments = spy_moments(monkeypatch)
        monkeypatch.setattr(_eigen, "_moment_workers", lambda: workers)
        tracemalloc.start()
        try:
            report = spectra.unitary_eigenvalues(mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert moments == [(half(mat.shape), True)]
        assert report.to_json_dict() == reference
        assert peak <= 0.27 * side * side * 16

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("cs, route, arrays", [
        (coin.grover_coin_system(6), "moments", 0.3),
        (coin.random_coin_system(6, 7, seed=75), "gv", 2.25),
    ], ids=["grover", "random"])
    def test_peak_memory_of_a_side_896_ndarray(self, monkeypatch, cs, route, arrays):
        _, dense = walk_forms(cs, 77)
        side = dense.shape[0]
        moments = spy_moments(monkeypatch)
        drivers = spy_drivers(monkeypatch)
        tracemalloc.start()
        try:
            spectra.unitary_eigenvalues(dense)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drivers == ([] if route == "moments" else [route])
        assert moments == ([(half(dense.shape), True)] if route == "moments" else [])
        # the pre-check's products are formed in blocks of rows, so only
        # the pencil's two arrays are side x side; the trace-moment route
        # reads the nonzero entries in row blocks, and then holds the
        # working set of test_peak_memory_of_a_side_896_walk (measured:
        # 0.286 side^2 complex numbers on two workers, which the pre-check
        # alone reaches)
        assert peak <= arrays * side * side * 16
        with_nan = dense.copy()
        with_nan[side - 3, 5] = np.nan
        for bad in (with_nan, 1.01 * dense):
            with pytest.raises(ValueError, match="not unitary"):
                spectra.unitary_eigenvalues(bad)


def spy_rotations(monkeypatch):
    """Record every rotation pass of the split path, by kind and side: the
    skew part's ``numpy.linalg.eigh`` and the compression's
    ``scipy.linalg.schur``."""
    passes = []
    eigh, schur = _eigen.np.linalg.eigh, _eigen.sla.schur

    def spy_eigh(a, *args, **kwargs):
        passes.append(("eigh", a.shape[0]))
        return eigh(a, *args, **kwargs)

    def spy_schur(a, *args, **kwargs):
        passes.append(("schur", a.shape[0]))
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(_eigen.np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(_eigen.sla, "schur", spy_schur)
    return passes


def grover_coin_sums(n):
    cs = coin.grover_coin_system(n)
    return [coin.algebraic_sum(cs, sigma) for sigma in range(2 ** (n + 1))]


# spectra whose conjugate pairs e^{+-i phi} share a real part at angle 0
CONJUGATE_PAIR_CASES = {
    **{f"grover-sums-{n}": (lambda n=n: grover_coin_sums(n)) for n in range(3, 7)},
    **{f"grover-walk-{n}": (lambda n=n: [walk_forms(coin.grover_coin_system(n), 86)[0]])
       for n in (3, 4)},
    "four-phases": lambda: [clustered_unitary(256, [0.5, -0.5, 2.0, -2.0], 87)],
}


def split_at_angle_zero(mat, pure_tol):
    """The splitting of a small ndarray with no angle, written out whole:
    the reference for the bytes of the coin-sum eigensystem."""
    w, vecs = _eigen.sla.eigh(_eigen._hermitian_sum(mat, 0.5), driver="evr",
                              check_finite=False, overwrite_a=True)
    images = mat @ vecs
    lam = np.einsum("ij,ij->j", vecs.conj(), images)
    defect = np.linalg.norm(images - vecs * lam[None, :], axis=0)

    def rotate(cols, block, rot):
        vecs[:, cols], images[:, cols] = vecs[:, cols] @ rot, images[:, cols] @ rot
        lam[cols] = np.einsum("ji,ji->i", rot.conj(), block @ rot)
        defect[cols] = np.linalg.norm(images[:, cols] - vecs[:, cols] * lam[cols][None, :],
                                      axis=0)

    flagged = defect > pure_tol
    bounds = np.concatenate(([0], np.nonzero(np.diff(w) > _eigen._COS_CLUSTER_GAP)[0] + 1,
                             [lam.size]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        bad = lo + np.nonzero(flagged[lo:hi])[0]
        if bad.size > 1:
            block = vecs[:, bad].conj().T @ images[:, bad]
            rotate(bad, block, np.linalg.eigh((block - block.conj().T) / 2j)[1])
    bad = np.nonzero(defect > pure_tol)[0]
    if bad.size > 1:
        block = vecs[:, bad].conj().T @ images[:, bad]
        rotate(bad, block, _eigen.sla.schur(block, output="complex")[1])
    return lam, vecs


class TestGenericAngleSplit:
    """The eigenvalues-only solves split e^{-i alpha} A at alpha =
    ``_PENCIL_ALPHA``, where a conjugate pair needs no rotation pass."""

    @pytest.mark.parametrize("case", sorted(CONJUGATE_PAIR_CASES))
    def test_no_rotation_pass_at_the_angle(self, monkeypatch, case):
        mats = CONJUGATE_PAIR_CASES[case]()
        tol = _eigen._pure_column_tol(1e-8)
        passes = spy_rotations(monkeypatch)
        at_zero = [_eigen._eig_unitary(mat, tol) for mat in mats]
        assert passes  # at angle 0 the pairs share real parts
        passes.clear()
        at_alpha = [_eigen._eig_unitary(mat, tol, _eigen._PENCIL_ALPHA) for mat in mats]
        assert passes == []
        for (lam_zero, _, _), (lam, vecs, residual) in zip(at_zero, at_alpha):
            assert residual <= 1e-12
            assert np.abs(vecs.conj().T @ vecs - np.eye(lam.size)).max() <= 1e-12
            values, mults = spectra._cluster_unit_circle(lam, 1e-8)
            values_zero, mults_zero = spectra._cluster_unit_circle(lam_zero, 1e-8)
            assert list(mults) == list(mults_zero)
            assert np.abs(values - values_zero).max() <= 1e-12

    def test_coin_union_and_small_walks_run_no_rotation_pass(self, monkeypatch):
        cs = coin.grover_coin_system(3)
        passes = spy_rotations(monkeypatch)
        _, multiset = spectra.coin_union_spectrum(cs)
        report = spectra.unitary_eigenvalues(walk_forms(cs, 88)[0])  # side 64
        assert passes == []
        assert multiset.total_multiplicity == report.total_multiplicity == 64
        assert spectra._multisets_match(report, multiset, 1e-8)

    def test_mirror_pair_about_the_angle_takes_the_fallback(self, monkeypatch):
        # phi_1 + phi_2 = 2 alpha: e^{-i alpha} lambda of the pair share a
        # real part, so the rotation passes separate them, within the gate
        alpha = _eigen._PENCIL_ALPHA
        phases = [alpha + 0.7, alpha - 0.7, alpha + 2.0, alpha - 2.0]
        mat = clustered_unitary(48, phases, 89)
        passes = spy_rotations(monkeypatch)
        lam, vecs, residual = _eigen._eig_unitary(mat, _eigen._pure_column_tol(1e-8), alpha)
        assert passes
        assert residual <= _eigen._pure_column_tol(1e-8)
        assert np.abs(vecs.conj().T @ vecs - np.eye(48)).max() <= 1e-12
        values, mults = spectra._cluster_unit_circle(lam, 1e-8)
        assert list(mults) == [12] * 4
        assert spectra.hausdorff_distance(values, np.exp(1j * np.array(phases))) <= 1e-9
        report = spectra.unitary_eigenvalues(mat)  # side 48: the split path at alpha
        assert report.multiplicities == (12,) * 4

    @pytest.mark.parametrize("cs", [
        coin.grover_coin_system(4), coin.random_coin_system(3, 6, seed=90),
    ], ids=["grover", "random"])
    def test_coin_sum_eigensystem_keeps_angle_zero(self, cs):
        # its vectors are the witnesses and the eigen: initial states
        tol = _eigen._pure_column_tol(spectra.DEFAULT_SPECTRUM_TOL)
        for sigma in range(2 ** (cs.n + 1)):
            lam, vecs = spectra.coin_sum_eigensystem(cs, sigma)
            ref_lam, ref_vecs = split_at_angle_zero(coin.algebraic_sum(cs, sigma), tol)
            assert lam.tobytes() == ref_lam.tobytes()
            assert vecs.tobytes() == ref_vecs.tobytes()


class TestMemoryGuard:
    """A dense step is refused when its two side x side arrays, or (side /
    2)^2 ones for the pencil of a walk's M, do not fit; the trace-moment
    route, which holds none, is not."""

    # walk ndarrays of side 512.  "eigvals": a degenerate walk, whose
    # moments run under any memory and here miss, so that the pencil of M
    # is refused after them; "gv": a generic walk, refused at its pencil
    @pytest.mark.parametrize("route, cs", [
        ("eigvals", grover_block_coin_system(5, 8, 50)),
        ("gv", coin.random_coin_system(5, 8, seed=51)),
    ], ids=["eigvals", "gv"])
    def test_refused_before_the_dense_step(self, monkeypatch, route, cs):
        _, mat = walk_forms(cs, 52)
        side = mat.shape[0]
        need = 2 * (side // 2) ** 2 * 16
        moments = spy_moments(monkeypatch)
        miss_moments(monkeypatch)
        drivers = spy_drivers(monkeypatch)
        monkeypatch.setattr(_eigen, "_available_memory", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(walk.CapacityError, match=f"side {side // 2}"):
                spectra.unitary_eigenvalues(mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ran = [(half(mat.shape), False)] if route == "eigvals" else []
        assert moments == ran and drivers == []
        # the pre-check's row blocks, the blocks of M and the probe's basis,
        # no side x side array
        assert peak < side * side * 16
        monkeypatch.setattr(_eigen, "_available_memory", lambda: need)
        report = spectra.unitary_eigenvalues(mat)
        assert report.total_multiplicity == side
        assert moments == ran * 2 and drivers == ["gv"]

    def test_moment_route_needs_no_dense_capacity(self, monkeypatch):
        mat = walk_forms(coin.grover_coin_system(6), 87)[0]
        side = mat.shape[0]
        moments = spy_moments(monkeypatch)
        drivers = spy_drivers(monkeypatch)
        monkeypatch.setattr(_eigen, "_available_memory", lambda: 2 * side * side * 16 - 1)
        report = spectra.unitary_eigenvalues(mat)
        assert report.total_multiplicity == side == 896
        assert moments == [(half(mat.shape), True)] and drivers == []

    def test_generic_csr_refused_before_the_dense_step(self, monkeypatch):
        # a walk's pencil is solved on one colour class, so its dense step
        # holds two (side / 2)^2 arrays, and memory short of the full
        # side's two still answers
        mat = walk_forms(coin.random_coin_system(4, 6, seed=88), 88)[0]
        side = mat.shape[0]
        half = side // 2
        moments = spy_moments(monkeypatch)
        solves = spy_solves(monkeypatch)
        monkeypatch.setattr(_eigen, "_available_memory", lambda: 2 * half * half * 16 - 1)
        with pytest.raises(walk.CapacityError, match=f"side {half}"):
            spectra.unitary_eigenvalues(mat)
        assert moments == [] and solves == []
        monkeypatch.setattr(_eigen, "_available_memory", lambda: 2 * side * side * 16 - 1)
        report = spectra.unitary_eigenvalues(mat)
        assert solves == [("gv", half)] and report.total_multiplicity == side
        # a miss of the square's pencil reaches the guard of the split path
        # of the same square: memory that shrinks below two (side / 2)^2
        # arrays after the pencil's guard is refused there
        miss_pencil(monkeypatch)
        solves.clear()
        left = iter([2 * half * half * 16, 2 * half * half * 16 - 1])
        monkeypatch.setattr(_eigen, "_available_memory", lambda: next(left))
        with pytest.raises(walk.CapacityError, match=f"side {half}"):
            spectra.unitary_eigenvalues(mat)
        assert solves == [("gv", half)]

    def test_two_cyclic_ndarray_refused_before_the_dense_step(self, monkeypatch):
        # its pattern is read in row blocks, with no side x side temporary
        _, dense = walk_forms(coin.random_coin_system(5, 8, seed=89), 89)
        side = dense.shape[0]
        half = side // 2
        solves = spy_solves(monkeypatch)
        monkeypatch.setattr(_eigen, "_available_memory", lambda: 2 * half * half * 16 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(walk.CapacityError, match=f"side {half}"):
                spectra.unitary_eigenvalues(dense)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the pre-check's row blocks (measured: 0.50 side^2 complex numbers)
        # and the probe's basis, no side x side array
        assert solves == [] and peak < side * side * 16

    @pytest.mark.skipif(not os.path.exists("/proc/meminfo"), reason="no /proc/meminfo")
    def test_reads_meminfo(self):
        assert 0 < _eigen._available_memory() < float("inf")


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


class TestUnitaryEig:
    """The one entry into the split path: it picks the angle and the
    pure-column threshold, and names its input in a LAPACK failure."""

    @pytest.mark.parametrize("vectors, angle", [
        (False, _eigen._PENCIL_ALPHA), (True, 0.0),
    ], ids=["values", "vectors"])
    @pytest.mark.parametrize("gate", [1e-8, 1e-12])
    def test_bytes_of_the_split_at_its_angle(self, vectors, angle, gate):
        mats = [
            coin.algebraic_sum(coin.grover_coin_system(4), 9),
            coin.algebraic_sum(coin.random_coin_system(3, 6, seed=91), 5),
            clustered_unitary(48, [0.5, -0.5, 2.0], 92),
            walk_forms(coin.grover_coin_system(3), 93)[0],
        ]
        for mat in mats:
            lam, vecs, residual = _eigen.unitary_eig(mat, gate, vectors, "a test input")
            want = _eigen._eig_unitary(mat, _eigen._pure_column_tol(gate), angle)
            assert lam.tobytes() == want[0].tobytes()
            assert vecs.tobytes() == want[1].tobytes()
            assert residual == want[2]

    def test_lapack_failure_names_the_input(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("the algorithm failed to converge")

        monkeypatch.setattr(_eigen.sla, "eigh", no_convergence)
        with pytest.raises(
            spectra.EigensolverError, match="failed on a test input: the algorithm failed"
        ) as info:
            _eigen.unitary_eig(np.eye(3, dtype=complex), 1e-8, False, "a test input")
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


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

    def test_lapack_failure_is_not_input_error(self, monkeypatch):
        # LinAlgError subclasses ValueError; the coin system is valid, so it
        # is a solver failure
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("the algorithm failed to converge")

        monkeypatch.setattr(_eigen.sla, "eigh", no_convergence)
        with pytest.raises(spectra.EigensolverError, match="vertex 3.*converge") as info:
            spectra.coin_sum_eigensystem(coin.grover_coin_system(2), 3)
        assert not isinstance(info.value, ValueError)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


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


    def test_lapack_failure_is_not_input_error(self, monkeypatch):
        # the union's eigenvalues-only solves are wrapped as the
        # eigensystem's are
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("the algorithm failed to converge")

        monkeypatch.setattr(_eigen.sla, "eigh", no_convergence)
        with pytest.raises(spectra.EigensolverError, match="vertex 0.*converge") as info:
            spectra.coin_union_spectrum(coin.grover_coin_system(2))
        assert not isinstance(info.value, ValueError)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


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
        def nan_basis(nu):
            dim = fock.dimension(nu.n)
            return np.full((dim, dim), np.nan, dtype=complex)

        monkeypatch.setattr(spectra, "magnetic_basis_change", nan_basis)
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


class TestWorst:
    """``_linalg.worst``, the one fold of residuals that keeps a NaN."""

    def test_largest_or_zero(self):
        assert _linalg.worst([]) == 0.0 and _linalg.worst(iter(())) == 0.0
        assert _linalg.worst(iter([1e-9, 3e-9, 2e-9])) == 3e-9
        assert _linalg.worst([-2.0, -1.0]) == -1.0
        assert type(_linalg.worst([np.float64(0.5)])) is float

    def test_nan_anywhere(self):
        nan = float("nan")
        # the builtin max drops a NaN that is not first
        assert max([1.0, nan]) == 1.0
        for values in ([nan, 1.0], [1.0, nan], [1.0, nan, 2.0], [np.nan]):
            assert np.isnan(_linalg.worst(values))

    def test_draws_one_value_at_a_time(self):
        drawn = []

        def values():
            for value in (1.0, float("nan"), 2.0):
                drawn.append(value)
                yield value

        assert np.isnan(_linalg.worst(values()))
        assert drawn[0] == 1.0 and len(drawn) == 2


class TestSpectralStability:
    def test_hadamard_partition(self):
        cs = coin.hadamard_partition_coin_system()
        report = spectra.verify_spectral_stability(cs, samples=5, rng=np.random.default_rng(3))
        assert report.passed
        assert report.max_pairwise_hausdorff <= 1e-8
        assert report.max_operator_difference > 0.1

    def test_n0_spectra_constant(self):
        cs = coin.CoinSystem((np.array([[1.0]]),))
        report = spectra.verify_spectral_stability(cs, samples=3, rng=np.random.default_rng(1))
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
        report = spectra.verify_spectral_stability(cs, samples=3, rng=np.random.default_rng(2))
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
        a = spectra.verify_spectral_stability(cs, samples=3, rng=np.random.default_rng(9))
        b = spectra.verify_spectral_stability(cs, samples=3, rng=np.random.default_rng(9))
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
