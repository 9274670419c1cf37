"""Tests for coin operator systems and their signed sums."""

import numpy as np
import pytest

from mqwalk import coin


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (r.diagonal().conj() / np.abs(r.diagonal()))


class TestConstruction:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            coin.CoinSystem((np.zeros((2, 3)),))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            coin.CoinSystem((np.eye(2), np.eye(3)))

    def test_small_coin_space_rejected(self):
        # three operators need d >= 3
        with pytest.raises(ValueError, match="d=2"):
            coin.CoinSystem((np.eye(2), np.eye(2), np.eye(2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coin.CoinSystem(())

    def test_operators_read_only(self):
        cs = coin.hadamard_partition_coin_system()
        with pytest.raises(ValueError):
            cs.ops[0][0, 0] = 5.0


class TestValidation:
    def test_single_unitary_is_valid(self):
        cs = coin.CoinSystem((np.array([[np.exp(0.3j)]]),))
        report = coin.validate_coin_system(cs)
        assert report.passed()
        assert report.max_residual <= 1e-15

    def test_hadamard_partition_residuals(self):
        report = coin.validate_coin_system(coin.hadamard_partition_coin_system())
        assert report.mutual_annihilation <= 1e-15
        assert report.sum_unitarity <= 1e-15

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coin_fails(self, bad):
        ops = [op.copy() for op in coin.hadamard_partition_coin_system().ops]
        ops[1][0, 1] = bad
        report = coin.validate_coin_system(coin.CoinSystem(tuple(ops)))
        assert not report.passed()

    def test_nan_mutual_residual_is_kept(self, monkeypatch):
        # the fold keeps a NaN residual instead of reading it as 0.0
        monkeypatch.setattr(coin, "max_abs", lambda a: float("nan"))
        report = coin.validate_coin_system(coin.hadamard_partition_coin_system())
        assert np.isnan(report.mutual_annihilation)
        assert not report.passed()

    def test_overlapping_coins_fail(self):
        half = 0.5 * np.eye(2)
        cs = coin.CoinSystem((half, half))
        report = coin.validate_coin_system(cs)
        assert not report.passed()
        assert report.mutual_annihilation == pytest.approx(0.25)


class TestUnitaryPartition:
    def test_hadamard_split_explicit(self):
        cs = coin.hadamard_partition_coin_system()
        root = 1 / np.sqrt(2)
        np.testing.assert_allclose(cs.ops[0], [[root, 0], [root, 0]], atol=1e-15)
        np.testing.assert_allclose(cs.ops[1], [[0, root], [0, -root]], atol=1e-15)

    def test_identity_gives_projections(self):
        cs = coin.coin_from_unitary_partition(np.eye(4), [[0, 2], [1], [3]])
        proj = np.zeros((4, 4))
        proj[0, 0] = proj[2, 2] = 1.0
        np.testing.assert_array_equal(cs.ops[0], proj)
        np.testing.assert_array_equal(coin.coin_sum(cs), np.eye(4))

    def test_sum_recovers_unitary_exactly(self):
        rng = np.random.default_rng(2)
        s = haar_unitary(5, rng)
        cs = coin.coin_from_unitary_partition(s, [[0, 1], [2], [3, 4]])
        np.testing.assert_array_equal(coin.coin_sum(cs), s)

    def test_constructed_systems_validate(self):
        rng = np.random.default_rng(3)
        s = haar_unitary(6, rng)
        cs = coin.coin_from_unitary_partition(s, [[0], [1, 2], [3, 4, 5]])
        report = coin.validate_coin_system(cs)
        assert report.max_residual <= 1e-14

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            coin.coin_from_unitary_partition(2.0 * np.eye(2), [[0], [1]])

    def test_bad_partitions_rejected(self):
        s = np.eye(3)
        with pytest.raises(ValueError, match="two blocks"):
            coin.coin_from_unitary_partition(s, [[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="cover"):
            coin.coin_from_unitary_partition(s, [[0], [1]])
        with pytest.raises(ValueError, match="empty"):
            coin.coin_from_unitary_partition(s, [[0, 1, 2], []])
        with pytest.raises(ValueError, match="out of range"):
            coin.coin_from_unitary_partition(s, [[0, 1], [2, 3]])


class TestGrover:
    def test_n1_sum_is_swap(self):
        cs = coin.grover_coin_system(1)
        np.testing.assert_allclose(coin.coin_sum(cs), [[0, 1], [1, 0]], atol=1e-15)

    def test_n3_entries(self):
        cs = coin.grover_coin_system(3)
        s = coin.coin_sum(cs)
        np.testing.assert_allclose(np.diag(s), -0.5 * np.ones(4), atol=1e-15)
        off = s - np.diag(np.diag(s))
        np.testing.assert_allclose(off, 0.5 * (np.ones((4, 4)) - np.eye(4)), atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_validates_up_to_n8(self, n):
        report = coin.validate_coin_system(coin.grover_coin_system(n))
        assert report.passed()

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            coin.grover_coin_system(0)


class TestRandomCoin:
    def test_deterministic_per_seed(self):
        a = coin.random_coin_system(2, 5, seed=42)
        b = coin.random_coin_system(2, 5, seed=42)
        for op_a, op_b in zip(a.ops, b.ops):
            np.testing.assert_array_equal(op_a, op_b)

    def test_seeds_differ(self):
        for base in range(0, 20, 2):
            a = coin.coin_sum(coin.random_coin_system(1, 3, seed=base))
            b = coin.coin_sum(coin.random_coin_system(1, 3, seed=base + 1))
            assert np.abs(a - b).max() > 1e-3

    def test_validation_sweep(self):
        rng = np.random.default_rng(0)
        for seed in range(30):
            n = int(rng.integers(0, 5))
            d = int(rng.integers(n + 1, 9))
            report = coin.validate_coin_system(coin.random_coin_system(n, d, seed=seed))
            assert report.passed(), (n, d, seed, report)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            coin.random_coin_system(3, 3, seed=0)


class TestAlgebraicSum:
    def test_full_set_gives_sum(self):
        cs = coin.grover_coin_system(2)
        np.testing.assert_array_equal(coin.algebraic_sum(cs, 0b111), coin.coin_sum(cs))

    def test_empty_set_gives_negated_sum(self):
        cs = coin.grover_coin_system(2)
        np.testing.assert_array_equal(coin.algebraic_sum(cs, 0), -coin.coin_sum(cs))

    def test_hadamard_sigma0_rotation(self):
        cs = coin.hadamard_partition_coin_system()
        u = coin.algebraic_sum(cs, 0b01)
        root = 1 / np.sqrt(2)
        np.testing.assert_allclose(u, [[root, -root], [root, root]], atol=1e-15)
        angles = np.sort(np.angle(np.linalg.eigvals(u)))
        np.testing.assert_allclose(angles, [-np.pi / 4, np.pi / 4], atol=1e-12)

    def test_complement_flips_sign_exactly(self):
        cs = coin.random_coin_system(2, 6, seed=9)
        full = 0b111
        for sigma in range(8):
            np.testing.assert_array_equal(
                coin.algebraic_sum(cs, full ^ sigma), -coin.algebraic_sum(cs, sigma)
            )

    def test_every_signed_sum_unitary(self):
        cs = coin.random_coin_system(3, 5, seed=21)
        eye = np.eye(5)
        for sigma in range(16):
            u = coin.algebraic_sum(cs, sigma)
            assert np.abs(u.conj().T @ u - eye).max() <= 1e-10

    def test_completeness_relation(self):
        cs = coin.random_coin_system(3, 7, seed=4)
        total = sum(op.conj().T @ op for op in cs.ops)
        assert np.abs(total - np.eye(7)).max() <= 1e-10

    def test_sigma_out_of_range(self):
        cs = coin.grover_coin_system(1)
        with pytest.raises(ValueError):
            coin.algebraic_sum(cs, 4)


class TestSerialization:
    def test_round_trip_exact(self):
        cs = coin.random_coin_system(2, 4, seed=13)
        doc = cs.to_json_dict()
        loaded = coin.CoinSystem.from_json_dict(doc)
        assert loaded.n == cs.n and loaded.d == cs.d
        for a, b in zip(cs.ops, loaded.ops):
            np.testing.assert_array_equal(a, b)

    def test_schema_shape(self):
        cs = coin.hadamard_partition_coin_system()
        doc = cs.to_json_dict()
        assert doc["n"] == 1 and doc["d"] == 2
        assert len(doc["ops"]) == 2
        assert len(doc["ops"][0]) == 4
        assert len(doc["ops"][0][0]) == 2

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="'ops'"):
            coin.CoinSystem.from_json_dict({"n": 1, "d": 2})

    def test_wrong_entry_count_rejected(self):
        doc = coin.hadamard_partition_coin_system().to_json_dict()
        doc["ops"][0] = doc["ops"][0][:-1]
        with pytest.raises(ValueError, match="entries"):
            coin.CoinSystem.from_json_dict(doc)

    def test_invalid_system_rejected_on_load(self):
        doc = coin.hadamard_partition_coin_system().to_json_dict()
        doc["ops"][0][0] = [5.0, 0.0]
        with pytest.raises(ValueError, match="invalid"):
            coin.CoinSystem.from_json_dict(doc)

    def test_file_round_trip(self, tmp_path):
        import json

        cs = coin.grover_coin_system(2)
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(cs.to_json_dict()))
        loaded = coin.CoinSystem.from_json_file(path)
        for a, b in zip(cs.ops, loaded.ops):
            np.testing.assert_array_equal(a, b)
