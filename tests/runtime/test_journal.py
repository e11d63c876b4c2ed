"""Tests for the append-only campaign journal."""

import pytest

from repro.runtime import CampaignJournal


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.append({"cell": "gzip:0", "checksum": "abc"})
        journal.append({"cell": "gzip:1", "checksum": "def"})
        records = journal.records()
        assert [r["cell"] for r in records] == ["gzip:0", "gzip:1"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "absent.jsonl").records() == []

    def test_parent_directories_created(self, tmp_path):
        journal = CampaignJournal(tmp_path / "a" / "b" / "journal.jsonl")
        journal.append({"cell": "x:0"})
        assert journal.exists()

    def test_torn_tail_line_ignored(self, tmp_path):
        """A kill mid-append leaves a half-written last line; reading
        must recover every record before it."""
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.append({"cell": "gzip:0"})
        journal.append({"cell": "gzip:1"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"cell": "gzip:2", "chec')  # torn append
        assert [r["cell"] for r in journal.records()] == ["gzip:0", "gzip:1"]

    def test_corruption_mid_file_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.append({"cell": "gzip:0"})
        journal.append({"cell": "gzip:1"})
        text = path.read_text().replace('"cell": "gzip:0"', '"cell": gz!!')
        path.write_text(text)
        with pytest.raises(ValueError, match="corrupt journal"):
            journal.records()

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="not an object"):
            CampaignJournal(path).records()

    def test_many_records_in_one_append(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.append({"cell": "gzip:0"}, {"cell": "applu:0"})
        journal.append({"cell": "gzip:1"})
        assert [r["cell"] for r in journal.records()] == [
            "gzip:0", "applu:0", "gzip:1",
        ]

    def test_append_cuts_a_torn_tail_first(self, tmp_path):
        """The next append must not fuse with a torn fragment into one
        invalid line that a later append would bury mid-file."""
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.append({"cell": "gzip:0"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"cell": "gzip:1", "chec')  # torn append
        journal.append({"cell": "gzip:2"})
        journal.append({"cell": "gzip:3"})
        assert [r["cell"] for r in journal.records()] == [
            "gzip:0", "gzip:2", "gzip:3",
        ]
        assert path.read_text().endswith('{"cell": "gzip:3"}\n')

    def test_append_after_a_torn_first_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"cell": "gz')
        CampaignJournal(path).append({"cell": "gzip:0"})
        assert path.read_text() == '{"cell": "gzip:0"}\n'
