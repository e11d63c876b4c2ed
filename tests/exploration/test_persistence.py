"""Tests for dataset save/load round-tripping."""

import numpy as np
import pytest

from repro.designspace import sample_configurations
from repro.exploration import DesignSpaceDataset, load_dataset, save_dataset
from repro.sim import Metric


@pytest.fixture()
def archive(tmp_path, small_dataset):
    return save_dataset(small_dataset, tmp_path / "dataset.npz")


class TestRoundTrip:
    def test_values_identical(self, archive, small_dataset, small_suite):
        restored = load_dataset(archive, small_suite)
        for metric in Metric.all():
            for program in small_suite.programs:
                assert np.allclose(
                    restored.values(program, metric),
                    small_dataset.values(program, metric),
                )

    def test_configs_identical(self, archive, small_dataset, small_suite):
        restored = load_dataset(archive, small_suite)
        assert restored.configs == small_dataset.configs

    def test_loaded_values_served_without_simulation(
        self, archive, small_suite
    ):
        restored = load_dataset(archive, small_suite)
        # Every (program, metric) pair must already be cached.
        for metric in Metric.all():
            for program in small_suite.programs:
                assert (program, metric) in restored._cache

    def test_restored_dataset_supports_splits(self, archive, small_suite):
        restored = load_dataset(archive, small_suite)
        first, rest = restored.split_indices(16, seed=3)
        assert len(first) == 16
        values = restored.subset_values("gzip", Metric.CYCLES, first)
        assert values.shape == (16,)


class TestChecksumPin:
    """The checksum ``save_dataset`` embeds covers the configuration
    matrix, so an archive written earlier loads only while it stays
    put.  Recorded when ``Configuration`` was a frozen dataclass."""

    def test_embedded_checksum_does_not_move(self, tmp_path, spec_suite,
                                             space, simulator):
        dataset = DesignSpaceDataset(
            spec_suite.subset(("gzip", "art")),
            sample_configurations(space, 16, seed=5), simulator,
        )
        for k, metric in enumerate(Metric.all()):
            for j, program in enumerate(dataset.programs):
                dataset.hydrate(
                    program, metric,
                    np.arange(16, dtype=float) + 100 * k + 10 * j + 1,
                )
        path = save_dataset(dataset, tmp_path / "pinned.npz")
        with np.load(path) as archive:
            assert str(archive["checksum"]) == (
                "89b981bc583c71524ea11cf011b1966be55e82a5f5cb2d33efd9d19d49d8b414"
            )
        restored = load_dataset(path, dataset.suite)
        assert restored.configs == dataset.configs


class TestValidation:
    def test_wrong_suite_name_rejected(self, archive, small_suite):
        renamed = type(small_suite)("other", small_suite.profiles)
        with pytest.raises(ValueError, match="suite"):
            load_dataset(archive, renamed)

    def test_wrong_program_list_rejected(self, archive, small_suite):
        reduced = small_suite.without("art")
        with pytest.raises(ValueError, match="program list"):
            load_dataset(archive, reduced)

    def test_archive_is_a_single_file(self, archive):
        assert archive.exists()
        assert archive.suffix == ".npz"


def _repack(archive, out_path, **overrides):
    """Rewrite an archive with some entries replaced (checksum kept)."""
    with np.load(archive, allow_pickle=False) as handle:
        payload = {name: handle[name] for name in handle.files}
    payload.update(overrides)
    np.savez_compressed(out_path, **payload)
    return out_path


class TestCorruptArchives:
    """A damaged archive must always raise, never hydrate garbage."""

    def test_truncated_archive_rejected(self, archive, small_suite,
                                        tmp_path):
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(archive.read_bytes()[:-200])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            load_dataset(clipped, small_suite)

    def test_empty_file_rejected(self, small_suite, tmp_path):
        empty = tmp_path / "empty.npz"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="corrupt or truncated"):
            load_dataset(empty, small_suite)

    def test_tampered_values_fail_the_checksum(self, archive, small_suite,
                                               tmp_path):
        with np.load(archive, allow_pickle=False) as handle:
            matrix = np.array(handle["metric_cycles"])
        matrix[0, 0] *= 1.5  # a single silent bit of drift
        bad = _repack(archive, tmp_path / "drift.npz",
                      **{"metric_cycles": matrix})
        with pytest.raises(ValueError, match="checksum"):
            load_dataset(bad, small_suite)

    def test_missing_checksum_rejected(self, archive, small_suite,
                                       tmp_path):
        with np.load(archive, allow_pickle=False) as handle:
            payload = {
                name: handle[name]
                for name in handle.files
                if name != "checksum"
            }
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **payload)
        with pytest.raises(ValueError):
            load_dataset(legacy, small_suite)

    def test_wrong_metric_matrix_shape_rejected(self, archive, small_suite,
                                                tmp_path):
        with np.load(archive, allow_pickle=False) as handle:
            matrix = np.array(handle["metric_energy"])
        bad = _repack(archive, tmp_path / "shape.npz",
                      **{"metric_energy": matrix[:, :-5]})
        with pytest.raises(ValueError, match="shape"):
            load_dataset(bad, small_suite)

    def test_unsupported_version_rejected(self, archive, small_suite,
                                          tmp_path):
        bad = _repack(archive, tmp_path / "version.npz",
                      format_version=np.array(99))
        with pytest.raises(ValueError, match="version"):
            load_dataset(bad, small_suite)

    def test_older_version_rejected(self, archive, small_suite, tmp_path):
        """A dataset archive stamped with the previous format version
        fails to load, whatever its contents."""
        bad = _repack(archive, tmp_path / "older.npz",
                      format_version=np.array(2))
        with pytest.raises(
            ValueError, match="unsupported dataset archive format version 2"
        ):
            load_dataset(bad, small_suite)

    def test_nonfinite_values_rejected_even_with_valid_checksum(
        self, archive, small_suite, tmp_path
    ):
        """Re-checksummed NaN poison still fails (hydrate validates)."""
        from repro.runtime import payload_checksum

        with np.load(archive, allow_pickle=False) as handle:
            payload = {name: np.array(handle[name]) for name in handle.files}
        payload["metric_cycles"][0, 0] = np.nan
        payload["checksum"] = np.array(payload_checksum(payload))
        bad = tmp_path / "nan.npz"
        np.savez_compressed(bad, **payload)
        with pytest.raises(ValueError, match="non-finite"):
            load_dataset(bad, small_suite)
