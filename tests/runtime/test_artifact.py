"""Tests for the shared checksummed ``.npz`` artifact layer."""

import numpy as np
import pytest

from repro.runtime import payload_checksum, read_archive, write_archive


@pytest.fixture()
def payload():
    rng = np.random.default_rng(3)
    return {
        "matrix": rng.standard_normal((6, 4)),
        "labels": np.array(["a", "b", "c"]),
        "count": np.array(17),
    }


class TestRoundTrip:
    def test_arrays_survive_exactly(self, tmp_path, payload):
        path = write_archive(tmp_path / "a.npz", payload, format_version=3)
        loaded = read_archive(path, format_version=3)
        assert sorted(loaded) == sorted(payload)
        for name, array in payload.items():
            assert np.array_equal(loaded[name], np.asarray(array))

    def test_reserved_keys_stripped_on_read(self, tmp_path, payload):
        path = write_archive(tmp_path / "a.npz", payload, format_version=1)
        loaded = read_archive(path, format_version=1)
        assert "format_version" not in loaded
        assert "checksum" not in loaded

    def test_reserved_keys_rejected_on_write(self, tmp_path):
        for key in ("format_version", "checksum"):
            with pytest.raises(ValueError, match="reserved"):
                write_archive(
                    tmp_path / "bad.npz",
                    {key: np.array(1)},
                    format_version=1,
                )

    def test_no_scratch_file_left_behind(self, tmp_path, payload):
        write_archive(tmp_path / "a.npz", payload, format_version=1)
        assert [p.name for p in tmp_path.iterdir()] == ["a.npz"]


class TestChecksum:
    def test_stable_across_key_order(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert payload_checksum(payload) == payload_checksum(reordered)

    def test_sensitive_to_values(self, payload):
        tampered = dict(payload)
        tampered["matrix"] = payload["matrix"] + 1e-12
        assert payload_checksum(payload) != payload_checksum(tampered)

    def test_sensitive_to_names(self, payload):
        renamed = {
            ("renamed" if k == "matrix" else k): v
            for k, v in payload.items()
        }
        assert payload_checksum(payload) != payload_checksum(renamed)

    def test_ignores_reserved_keys(self, payload):
        noisy = dict(payload)
        noisy["checksum"] = np.array("whatever")
        assert payload_checksum(noisy) == payload_checksum(payload)


class TestIntegrity:
    def test_bit_flip_detected(self, tmp_path, payload):
        path = write_archive(tmp_path / "a.npz", payload, format_version=2)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            read_archive(path, format_version=2)

    def test_truncation_detected(self, tmp_path, payload):
        path = write_archive(tmp_path / "a.npz", payload, format_version=2)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            read_archive(path, format_version=2)

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "a.npz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(ValueError, match="corrupt or truncated"):
            read_archive(path, format_version=1)

    def test_label_appears_in_errors(self, tmp_path):
        path = tmp_path / "a.npz"
        path.write_bytes(b"junk")
        with pytest.raises(ValueError, match="model pool"):
            read_archive(path, format_version=1, label="model pool")


class TestVersions:
    def test_unsupported_version_rejected(self, tmp_path, payload):
        path = write_archive(tmp_path / "a.npz", payload, format_version=9)
        with pytest.raises(ValueError, match="version 9"):
            read_archive(path, format_version=2)

    def test_older_version_rejected(self, tmp_path, payload):
        """An archive one version behind is refused, never returned
        unverified."""
        path = write_archive(tmp_path / "a.npz", payload, format_version=1)
        with pytest.raises(ValueError, match="unsupported .* version 1"):
            read_archive(path, format_version=2)

    def test_missing_version_key_rejected(self, tmp_path, payload):
        path = tmp_path / "a.npz"
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="no format version"):
            read_archive(path, format_version=1)
