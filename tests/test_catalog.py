import pytest

from unitwreath import catalog, construct, pcgroup


class TestScan:
    def test_order_16_census(self, corpus_dir):
        census = catalog.scan(corpus_dir / "o16")
        assert census.total(16) == 14
        assert len(census.passing(16)) == 4
        assert not census.errors

    def test_passing_entries_have_candidates(self, corpus_dir):
        census = catalog.scan(corpus_dir / "o16")
        for entry in census.passing():
            assert entry.report.derived_order >= 2
            assert entry.report.candidates_z
            assert entry.s >= 1

    def test_abelian_only_corpus(self, tmp_path):
        (tmp_path / "C4.pc2").write_text("group C4\ngens a b\npow a = b\n")
        (tmp_path / "C2xC2.pc2").write_text("group C2xC2\ngens a b\n")
        census = catalog.scan(tmp_path)
        assert census.total(4) == 2
        assert not census.passing()

    def test_corrupted_file_reported_and_excluded(self, tmp_path, corpus_dir):
        good = (corpus_dir / "o16" / "D8xC2.pc2").read_text()
        (tmp_path / "good.pc2").write_text(good)
        (tmp_path / "bad.pc2").write_text("group X\ngens a\npow a = q\n")
        census = catalog.scan(tmp_path)
        assert len(census.errors) == 1
        assert census.errors[0].name == "bad"
        assert census.total(16) == 1

    def test_unreadable_files_reported_and_excluded(self, tmp_path, corpus_dir):
        good = (corpus_dir / "o16" / "D8xC2.pc2").read_text()
        (tmp_path / "good.pc2").write_text(good)
        (tmp_path / "dir.pc2").mkdir()
        (tmp_path / "latin1.pc2").write_bytes(b"group \xe9\ngens a\n")
        census = catalog.scan(tmp_path)
        assert [e.name for e in census.errors] == ["dir", "latin1"]
        assert "latin1.pc2: not UTF-8 text" in census.errors[1].error
        assert census.total(16) == 1

    def test_order_filter(self, corpus_dir):
        census = catalog.scan(corpus_dir, order_filter=8)
        assert census.orders() == [8]
        assert census.total(8) == 5

    def test_census_json_shape(self, corpus_dir):
        data = catalog.scan(corpus_dir / "o16").to_dict()
        (block,) = data["orders"]
        assert block["order"] == 16
        assert block["total"] == 14
        assert block["passing"] == 4
        for row in block["entries"]:
            assert ("s" in row) == row["pass"]
            assert ("reason" in row) == (not row["pass"])


def test_an_entry_starts_with_its_name_alone():
    entry = catalog.CatalogEntry("X")
    assert (entry.name, entry.order, entry.group, entry.report, entry.error) == (
        "X", None, None, None, None)
    assert entry.s is None


class TestRoundTrip:
    def test_every_bundled_file_round_trips(self, corpus_dir):
        for path in sorted(corpus_dir.rglob("*.pc2")):
            group = pcgroup.load_file(path)
            text = pcgroup.serialize_presentation(group.pres)
            again = pcgroup.load(text)
            assert again.cayley == group.cayley, path


class TestVerifyAll:
    def test_order_16_sweep_passes(self, corpus_dir):
        sweep = catalog.verify_all(corpus_dir / "o16", use_oracle=True)
        assert len(sweep.results) == 4
        assert sweep.verdict

    def test_hypotheses_checked_once_per_group(self, corpus_dir, monkeypatch):
        calls = []
        check = construct.check_hypotheses

        def counted(group):
            calls.append(group.name)
            return check(group)

        monkeypatch.setattr(construct, "check_hypotheses", counted)
        for d in ("o16", "o32"):
            catalog.verify_all(corpus_dir / d, use_oracle=False)
        assert len(calls) == len(set(calls)) == 65

    def test_empty_directory_is_vacuous_pass(self, tmp_path):
        sweep = catalog.verify_all(tmp_path)
        assert sweep.verdict
        assert not sweep.results

    def test_corrupted_file_fails_aggregate(self, tmp_path):
        (tmp_path / "bad.pc2").write_text("group X\ngens a\npow a = q\n")
        sweep = catalog.verify_all(tmp_path)
        assert not sweep.verdict
