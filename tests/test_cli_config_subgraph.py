"""Tests for the CLI and the claims report."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_table_commands(self, capsys):
        for number, marker in ((1, "YAGO"), (2, "Notation"), (4, "movie")):
            assert main(["table", str(number)]) == 0
            assert marker in capsys.readouterr().out

    def test_table3_lists_methods(self, capsys):
        assert main(["table", "3"]) == 0
        out = capsys.readouterr().out
        assert "RippleNet" in out and "Implemented" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Avatar" in out and "Blood Diamond" in out

    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for scenario in ("movie", "book", "news", "poi"):
            assert scenario in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "Emb. (14):" in out
        assert "Path (15):" in out
        assert "Uni. (10):" in out

    def test_unknown_study(self):
        with pytest.raises(SystemExit):
            main(["study", "nope"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReport:
    """The ``claims`` report on a tiny world: layout and exit status only; the
    claims are not expected to hold at this size."""

    @pytest.fixture
    def kept(self, monkeypatch):
        from repro.experiments import claims, comparative

        monkeypatch.setattr(comparative, "DEFAULT_DATA_KWARGS",
                            dict(num_users=14, num_items=22, mean_interactions=6.0))
        kept = tuple(c for c in claims.CLAIMS if c.id in ("T1", "fig1", "e1", "e4"))
        monkeypatch.setattr(claims, "CLAIMS", kept)
        return kept

    @staticmethod
    def _run(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    @staticmethod
    def _assert_layout(report, kept, status):
        """Every section once per seed, one verdict-table row per check, and
        a non-zero exit naming exactly the checks the table marks FAIL."""
        for marker in ("## T1 seed=0", "YAGO", "## fig1 seed=1", "Recommendations for Bob",
                       "## e1 seed=0", "BPR-MF", "## e4 seed=1", "## Verdicts",
                       "| T1 | kgs | 11 == 11 | 11 == 11 |"):
            assert marker in report
        verdicts = report.split("## Verdicts")[1].splitlines()
        table = [ln for ln in verdicts if ln.startswith("| ")][2:]  # no header rows
        assert len(table) == sum(len(c.checks) for c in kept)
        failed = [ln.split(" | ")[:2] for ln in table if "**FAIL**" in ln]
        assert (status != 0) == bool(failed)
        for claim, check in failed:
            assert f"FAIL {claim[2:]}.{check} seed=" in str(status)

    def test_build_report_fast(self, kept, monkeypatch, capsys):
        """The printed report holds every section and verdict, and the exit
        status follows the verdicts."""
        from repro.experiments import claims

        status = self._run(["claims", "--seeds", "0,1"])
        self._assert_layout(capsys.readouterr().out, kept, status)

        never = claims.Claim("never", "a bound nothing meets", lambda seed: [{"x": seed}],
                             (claims.Check("x_above_99", ">", lambda r: (r[0]["x"], 99)),))
        monkeypatch.setattr(claims, "CLAIMS", (never, kept[0]))
        with pytest.raises(SystemExit) as exc:
            main(["claims"])
        assert str(exc.value).splitlines() == [
            "FAIL never.x_above_99 seed=0: 0 > 99", "claims FAILED: 1 of 4 check(s)"]
        assert "| T1 | named_kgs_printed | 5 == 5 |" in capsys.readouterr().out
        monkeypatch.setattr(claims, "CLAIMS", kept[:1])
        assert main(["claims"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("claims OK: 3 checks x 1 seed(s)")

    def test_write_report(self, kept, tmp_path, capsys):
        """``-o FILE`` writes the same report and prints only where it went
        and the summary line."""
        out = tmp_path / "claims.md"
        status = self._run(["claims", "--seeds", "0,1", "-o", str(out)])
        report = out.read_text()
        self._assert_layout(report, kept, status)
        assert capsys.readouterr().out.splitlines() == [
            f"claims report written to {out}", report.splitlines()[-1]]

    def test_study_runs_one_study_with_its_verdicts(self, kept, capsys):
        assert main(["study", "e4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Study e4: C2") and "BPR-MF" in out
        assert "e4.kg_vs_cf_on_cold_items seed=0:" in out
        with pytest.raises(SystemExit, match="unknown study 'T1'"):
            main(["study", "T1"])
