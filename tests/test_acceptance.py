"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines on passing runs as well.
"""

import time

import numpy as np
import pytest

from mqwalk import coin, fock, magnetic, spectra, walk


def report_line(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {label}: {status}  {detail}")


def random_instance(trial, max_n=3, max_d=6):
    rng = np.random.default_rng(9000 + trial)
    n = int(rng.integers(0, max_n + 1))
    d = int(rng.integers(n + 1, max_d + 1))
    cs = coin.random_coin_system(n, d, seed=7000 + trial)
    nu = magnetic.random_potential(n, rng)
    return n, d, cs, nu


def zero_phase_assembly(cs):
    """sum_j X_j (x) C_j with X_j the plain flip of bit j, no phases."""
    dim = fock.dimension(cs.n)
    total = np.zeros((dim * cs.d, dim * cs.d), dtype=complex)
    for j, op in enumerate(cs.ops):
        flip = np.eye(dim)[np.arange(dim) ^ (1 << j)]
        total += np.kron(flip, op)
    return total


def test_criterion_1_car_suite():
    start = time.perf_counter()
    worst = 0.0
    for n in range(9):
        worst = max(worst, fock.verify_car(n).max_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report_line(1, "ladder-operator algebra, n=0..8", ok,
                f"max residual {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_involution_suite():
    start = time.perf_counter()
    worst_square = 0.0
    worst_adjoint = 0.0
    rng = np.random.default_rng(2024)
    for n in range(7):
        dim = 2 ** (n + 1)
        eye = np.eye(dim)
        for _ in range(10):
            nu = magnetic.random_potential(n, rng)
            for j in range(n + 1):
                mat = magnetic.magnetic_shift(n, j, nu).toarray()
                worst_square = max(worst_square, np.abs(mat @ mat - eye).max())
                worst_adjoint = max(worst_adjoint, np.abs(mat - mat.conj().T).max())
    elapsed = time.perf_counter() - start
    worst = max(worst_square, worst_adjoint)
    ok = worst <= 1e-12 and elapsed < 30.0
    report_line(2, "shift involutions, n=0..6, 10 potentials", ok,
                f"square {worst_square:.2e}, adjoint {worst_adjoint:.2e}, {elapsed:.1f}s")
    assert worst_square <= 1e-12
    assert worst_adjoint <= 1e-12
    assert elapsed < 30.0


def test_criterion_3_eigenbasis_suite():
    start = time.perf_counter()
    worst_gram = 0.0
    worst_relation = 0.0
    worst_agreement = 0.0
    rng = np.random.default_rng(3033)
    for n in range(6):
        dim = 2 ** (n + 1)
        eye = np.eye(dim)
        vacuum = fock.basis_state(n, 0)
        indices = np.arange(dim)
        for _ in range(5):
            nu = magnetic.random_potential(n, rng)
            basis = magnetic.magnetic_basis_change(nu)
            worst_gram = max(worst_gram, np.abs(basis.conj().T @ basis - eye).max())
            for j in range(n + 1):
                signs = np.where((indices >> j) & 1 == 1, 1.0, -1.0)
                defect = magnetic.magnetic_shift(n, j, nu) @ basis - basis * signs[None, :]
                worst_relation = max(
                    worst_relation, float(np.linalg.norm(defect, axis=0).max())
                )
            for sigma in range(dim):
                via_product = magnetic.xi_hat(sigma, nu) @ vacuum / np.sqrt(dim)
                via_formula = magnetic.magnetic_basis_vector(sigma, nu)
                worst_agreement = max(
                    worst_agreement, np.abs(via_product - via_formula).max()
                )
    elapsed = time.perf_counter() - start
    ok = (worst_gram <= 1e-10 and worst_relation <= 1e-10
          and worst_agreement <= 1e-12 and elapsed < 60.0)
    report_line(3, "eigenbasis: orthonormal, diagonalizing, two constructions", ok,
                f"gram {worst_gram:.2e}, relation {worst_relation:.2e}, "
                f"agreement {worst_agreement:.2e}, {elapsed:.1f}s")
    assert worst_gram <= 1e-10
    assert worst_relation <= 1e-10
    assert worst_agreement <= 1e-12
    assert elapsed < 60.0


def test_criterion_4_coin_and_unitarity_suite():
    start = time.perf_counter()
    worst_validation = 0.0
    worst_signed_sum = 0.0
    worst_walk = 0.0
    rng = np.random.default_rng(4044)
    for seed in range(100):
        n = int(rng.integers(0, 5))
        d = int(rng.integers(n + 1, 9))
        cs = coin.random_coin_system(n, d, seed=seed)
        worst_validation = max(
            worst_validation, coin.validate_coin_system(cs).max_residual
        )
        eye_d = np.eye(d)
        for sigma in range(2 ** (n + 1)):
            u = coin.algebraic_sum(cs, sigma)
            worst_signed_sum = max(
                worst_signed_sum, np.abs(u.conj().T @ u - eye_d).max()
            )
        nu = magnetic.random_potential(n, rng)
        mat = walk.evolution_operator(nu, cs).dense()
        worst_walk = max(
            worst_walk, np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
        )
    elapsed = time.perf_counter() - start
    worst = max(worst_validation, worst_signed_sum, worst_walk)
    ok = worst <= 1e-10 and elapsed < 120.0
    report_line(4, "100 random coins: validation, signed sums, walk unitarity", ok,
                f"validation {worst_validation:.2e}, sums {worst_signed_sum:.2e}, "
                f"walk {worst_walk:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 120.0


def test_criterion_5_intertwining_suite():
    start = time.perf_counter()
    worst_vector = 0.0
    worst_off_block = 0.0
    for trial in range(20):
        _, _, cs, nu = random_instance(trial)
        report = walk.intertwining_check(walk.evolution_operator(nu, cs))
        worst_vector = max(worst_vector, report.max_vector_residual)
        worst_off_block = max(worst_off_block, report.off_block_mass)
    elapsed = time.perf_counter() - start
    ok = worst_vector <= 1e-10 and worst_off_block <= 1e-10 and elapsed < 60.0
    report_line(5, "20 random instances: fiber action and block diagonal form", ok,
                f"vector {worst_vector:.2e}, off-block {worst_off_block:.2e}, {elapsed:.1f}s")
    assert worst_vector <= 1e-10
    assert worst_off_block <= 1e-10
    assert elapsed < 60.0


def test_criterion_6_point_spectrum_theorem():
    start = time.perf_counter()
    worst_distance = 0.0
    for trial in range(20):
        _, _, cs, nu = random_instance(trial)
        check = spectra.verify_point_spectrum_theorem(nu, cs, tol=1e-8)
        assert check.passed, f"instance {trial}: distance {check.hausdorff_distance:.2e}"
        worst_distance = max(worst_distance, check.hausdorff_distance)

    # frozen n=1 case: the split Hadamard coin has walk spectrum
    # {+1 x2, -1 x2} plus the four primitive eighth roots of unity
    cs = coin.hadamard_partition_coin_system()
    nu = magnetic.MagneticPotential(np.array([0.4, -1.1]))
    report = spectra.walk_point_spectrum(nu, cs)
    root = round(1 / np.sqrt(2), 6)
    expected = {
        (1.0, 0.0): 2, (-1.0, 0.0): 2,
        (root, root): 1, (root, -root): 1, (-root, root): 1, (-root, -root): 1,
    }
    got = {
        (round(v.real, 6) + 0.0, round(v.imag, 6) + 0.0): m
        for v, m in zip(report.eigenvalues, report.multiplicities)
    }
    hadamard_ok = got == expected
    elapsed = time.perf_counter() - start
    ok = worst_distance <= 1e-8 and hadamard_ok and elapsed < 60.0
    report_line(6, "point spectrum equals coin-sum union (20 random + exact case)", ok,
                f"max Hausdorff {worst_distance:.2e}, {elapsed:.1f}s")
    assert worst_distance <= 1e-8
    assert hadamard_ok
    assert elapsed < 60.0


def test_criterion_7_approximate_spectrum_theorem():
    start = time.perf_counter()
    worst_distance = 0.0
    worst_witness = 0.0
    for trial in range(20):
        _, _, cs, nu = random_instance(trial)
        aev_check = spectra.verify_approximate_spectrum_theorem(nu, cs, tol=1e-8)
        point_check = spectra.verify_point_spectrum_theorem(nu, cs, tol=1e-8)
        assert aev_check.passed, f"instance {trial}"
        assert aev_check.matches_point_check, f"instance {trial}"
        assert aev_check.passed == point_check.passed, f"instance {trial}"
        worst_distance = max(worst_distance, aev_check.hausdorff_distance)
        worst_witness = max(worst_witness, aev_check.max_witness_residual)
    elapsed = time.perf_counter() - start
    ok = worst_distance <= 1e-8 and worst_witness <= 1e-8 and elapsed < 60.0
    report_line(7, "approximate-eigenvalue route with residual witnesses", ok,
                f"max Hausdorff {worst_distance:.2e}, max witness {worst_witness:.2e}, "
                f"{elapsed:.1f}s")
    assert worst_distance <= 1e-8
    assert worst_witness <= 1e-8
    assert elapsed < 60.0


def test_criterion_8_spectral_stability():
    start = time.perf_counter()
    worst_h = 0.0
    for trial in range(4):
        n, d, cs, _ = random_instance(trial, max_n=3)
        report = spectra.verify_spectral_stability(cs, samples=5, seed=800 + trial, tol=1e-8)
        assert report.passed, (
            f"instance {trial}: hausdorff {report.max_pairwise_hausdorff:.2e}, "
            f"operator diff {report.max_operator_difference:.2e}"
        )
        assert report.max_operator_difference > 1e-6
        worst_h = max(worst_h, report.max_pairwise_hausdorff)
    elapsed = time.perf_counter() - start
    ok = worst_h <= 1e-8 and elapsed < 60.0
    report_line(8, "spectrum invariant under 5 random potentials + null", ok,
                f"max pairwise Hausdorff {worst_h:.2e}, {elapsed:.1f}s")
    assert worst_h <= 1e-8
    assert elapsed < 60.0


def test_criterion_9_null_potential_reduction():
    exact = True
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(0, 4))
        d = int(rng.integers(n + 1, 7))
        cs = coin.random_coin_system(n, d, seed=seed)
        a = walk.evolution_operator(magnetic.null_potential(n), cs).dense()
        exact = exact and bool((a == zero_phase_assembly(cs)).all())
    report_line(9, "null-potential walk equals zero-phase assembly exactly", exact)
    assert exact


def test_criterion_10_dynamics_sanity():
    # 1000 steps preserve the norm
    cs = coin.random_coin_system(3, 5, seed=101)
    nu = magnetic.random_potential(3, np.random.default_rng(101))
    op = walk.evolution_operator(nu, cs)
    state = walk.uniform_coin_vertex_state(3, 5, 0b0110)
    state = walk.evolve(op, state, 1000)
    drift = abs(np.linalg.norm(state.vector) - 1.0)

    # matrix-free application matches the dense product
    worst_gap = 0.0
    for trial in range(6):
        n, d, cs_t, nu_t = random_instance(trial)
        op_t = walk.evolution_operator(nu_t, cs_t)
        rng = np.random.default_rng(trial)
        vec = rng.normal(size=op_t.dim) + 1j * rng.normal(size=op_t.dim)
        vec /= np.linalg.norm(vec)
        worst_gap = max(worst_gap, np.abs(op_t.apply(vec) - op_t.dense() @ vec).max())

    # one step from a vertex moves support only to hypercube neighbors
    local = True
    cs_l = coin.grover_coin_system(3)
    op_l = walk.evolution_operator(magnetic.null_potential(3), cs_l)
    for sigma in (0, 0b1010, 0b1111):
        stepped = walk.step(op_l, walk.uniform_coin_vertex_state(3, 4, sigma))
        dist = walk.position_distribution(stepped)
        for tau in np.nonzero(dist > 1e-14)[0]:
            local = local and fock.is_adjacent(sigma, int(tau))

    ok = drift <= 1e-8 and worst_gap <= 1e-12 and local
    report_line(10, "dynamics: norm drift, kernel agreement, locality", ok,
                f"drift {drift:.2e}, kernel gap {worst_gap:.2e}")
    assert drift <= 1e-8
    assert worst_gap <= 1e-12
    assert local


def test_criterion_11_scale_check():
    # matrix-free stepping at n=14, d=15 (state dimension 491,520)
    n, d = 14, 15
    cs = coin.random_coin_system(n, d, seed=111)
    nu = magnetic.random_potential(n, np.random.default_rng(111))
    op = walk.evolution_operator(nu, cs)
    assert op.dim == 491_520
    rng = np.random.default_rng(14)
    vec = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    vec /= np.linalg.norm(vec)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        vec = op.apply(vec)
        times.append(time.perf_counter() - t0)
    step_time = min(times)
    step_ok = step_time < 1.0
    norm_ok = abs(np.linalg.norm(vec) - 1.0) <= 1e-9

    # dense spectrum at n=8, d=9 (matrix side 4,608), on both spectral
    # structures: the heavily degenerate default coin and a generic one
    nu8 = magnetic.random_potential(8, np.random.default_rng(88))
    dense_times = {}
    totals_ok = True
    for label, cs8 in (
        ("grover", coin.grover_coin_system(8)),
        ("random", coin.random_coin_system(8, 9, seed=888)),
    ):
        t0 = time.perf_counter()
        report = spectra.walk_point_spectrum(nu8, cs8)
        dense_times[label] = time.perf_counter() - t0
        totals_ok = totals_ok and report.total_multiplicity == 4608
    dense_ok = all(t < 120.0 for t in dense_times.values())

    ok = step_ok and norm_ok and dense_ok and totals_ok
    detail = ", ".join(f"{k} spectrum {v:.0f}s" for k, v in dense_times.items())
    report_line(11, "scale: half-million-dim step and 4608-dim dense spectra", ok,
                f"step {step_time * 1e3:.0f}ms, {detail}")
    assert step_ok, f"step took {step_time:.2f}s"
    assert norm_ok
    assert dense_ok, f"dense spectra took {dense_times}"
    assert totals_ok
