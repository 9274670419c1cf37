"""Tests for the subset-indexed Fock space and its ladder operators."""

import itertools

import numpy as np
import pytest

from mqwalk import fock


def all_subsets(n):
    """Every subset of {0, ..., n} as a frozenset (oracle-side encoding)."""
    items = range(n + 1)
    subsets = []
    for r in range(n + 2):
        subsets.extend(frozenset(c) for c in itertools.combinations(items, r))
    return subsets


def mask_of(subset):
    return sum(1 << j for j in subset)


def brute_annihilation(n, k):
    """Dense oracle built from set arithmetic, no bit tricks."""
    dim = 2 ** (n + 1)
    mat = np.zeros((dim, dim), dtype=complex)
    for sigma in all_subsets(n):
        if k in sigma:
            mat[mask_of(sigma - {k}), mask_of(sigma)] = 1.0
    return mat


def brute_creation(n, k):
    dim = 2 ** (n + 1)
    mat = np.zeros((dim, dim), dtype=complex)
    for sigma in all_subsets(n):
        if k not in sigma:
            mat[mask_of(sigma | {k}), mask_of(sigma)] = 1.0
    return mat


def test_annihilation_n0_matrix():
    mat = fock.annihilation_operator(0, 0).toarray()
    np.testing.assert_array_equal(mat, np.array([[0, 1], [0, 0]], dtype=complex))


def test_creation_n0_matrix():
    mat = fock.creation_operator(0, 0).toarray()
    np.testing.assert_array_equal(mat, np.array([[0, 0], [1, 0]], dtype=complex))


def test_annihilation_vanishes_when_mode_absent():
    # mode 1 is not in {0}, so the image of that basis vector is zero
    out = fock.annihilation_operator(1, 1) @ fock.basis_state(1, 0b01)
    np.testing.assert_array_equal(out, np.zeros(4))


def test_creation_vanishes_when_mode_present():
    out = fock.creation_operator(1, 0) @ fock.basis_state(1, 0b01)
    np.testing.assert_array_equal(out, np.zeros(4))


def test_annihilation_nonzero_count_n2():
    # half of the 2^(n+1) columns carry the mode: 2^n entries
    op = fock.annihilation_operator(2, 1)
    assert op.nnz == 4


@pytest.mark.parametrize("n", range(5))
def test_operators_match_set_oracle(n):
    for k in range(n + 1):
        np.testing.assert_array_equal(
            fock.annihilation_operator(n, k).toarray(), brute_annihilation(n, k)
        )
        np.testing.assert_array_equal(
            fock.creation_operator(n, k).toarray(), brute_creation(n, k)
        )


@pytest.mark.parametrize("n", range(5))
def test_creation_is_adjoint_of_annihilation(n):
    for k in range(n + 1):
        ann = fock.annihilation_operator(n, k).toarray()
        cre = fock.creation_operator(n, k).toarray()
        np.testing.assert_array_equal(cre, ann.conj().T)


@pytest.mark.parametrize("n", range(4))
def test_nilpotency(n):
    for k in range(n + 1):
        ann = fock.annihilation_operator(n, k)
        cre = fock.creation_operator(n, k)
        assert (ann @ ann).nnz == 0 or np.abs((ann @ ann).toarray()).max() == 0.0
        assert (cre @ cre).nnz == 0 or np.abs((cre @ cre).toarray()).max() == 0.0


def test_car_identity_n0_exact():
    ann = fock.annihilation_operator(0, 0).toarray()
    cre = fock.creation_operator(0, 0).toarray()
    np.testing.assert_array_equal(cre @ ann + ann @ cre, np.eye(2, dtype=complex))


def test_square_vanishes_n2():
    ann = fock.annihilation_operator(2, 1)
    np.testing.assert_array_equal((ann @ ann).toarray(), np.zeros((8, 8)))


@pytest.mark.parametrize("n", range(5))
def test_verify_car_exact(n):
    report = fock.verify_car(n)
    assert report.max_residual == 0.0
    assert report.passed()
    assert report.passed(tol=1e-12)


def test_car_report_fields():
    report = fock.verify_car(3)
    for value in (
        report.annihilation_commutator,
        report.creation_commutator,
        report.mixed_commutator,
        report.annihilation_square,
        report.creation_square,
        report.car_identity,
    ):
        assert value <= 1e-12


def test_nan_residual_fails_car_report(monkeypatch):
    # one NaN field is enough: the fold keeps it and the check fails
    report = fock.CarReport(3, 0.0, 0.0, float("nan"), 0.0, 0.0, 0.0)
    assert np.isnan(report.max_residual)
    assert not report.passed()
    monkeypatch.setattr(fock, "max_abs", lambda a: float("nan"))
    report = fock.verify_car(2)
    assert np.isnan(report.annihilation_square) and np.isnan(report.mixed_commutator)
    assert np.isnan(report.max_residual)
    assert not report.passed()


def test_basis_bijection():
    # each subset maps to a distinct column index covering the full range
    n = 3
    masks = {mask_of(s) for s in all_subsets(n)}
    assert masks == set(range(fock.dimension(n)))


def test_basis_state_one_hot():
    vec = fock.basis_state(2, 5)
    assert vec[5] == 1.0
    assert np.count_nonzero(vec) == 1


def test_subset_helpers():
    assert fock.subset_size(0b1011) == 3
    assert fock.is_adjacent(0b101, 0b100)
    assert not fock.is_adjacent(0b101, 0b110)
    np.testing.assert_array_equal(fock.membership_signs(2, 0b101), [1.0, -1.0, 1.0])


def test_fock_space_wrapper():
    space = fock.FockSpace(2)
    assert space.dim == 8
    np.testing.assert_array_equal(
        space.annihilation(0).toarray(), fock.annihilation_operator(2, 0).toarray()
    )
    np.testing.assert_array_equal(space.basis_state(3), fock.basis_state(2, 3))


def test_mode_out_of_range():
    with pytest.raises(ValueError):
        fock.annihilation_operator(2, 3)
    with pytest.raises(ValueError):
        fock.creation_operator(2, -1)
    with pytest.raises(ValueError):
        fock.verify_car(-1)
    with pytest.raises(ValueError):
        fock.FockSpace(-2)
