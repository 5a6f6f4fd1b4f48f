"""--telemetry-json dumps and the timeline subcommand."""

import json

from repro.experiments.__main__ import main

CAMPAIGN = ["campaign", "--n", "8", "--alphas", "2", "--schemes",
            "synchronous", "--clusters", "1", "--tol", "1e-3"]


class TestTelemetryJsonFlag:
    def test_campaign_writes_parseable_dump(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        dump = tmp_path / "tele.json"
        rc = main([*CAMPAIGN, "--telemetry-json", str(dump)])
        assert rc == 0
        assert "telemetry snapshot ->" in capsys.readouterr().out
        snap = json.loads(dump.read_text())
        assert snap["version"] == 1
        sweeps = sum(v for k, v in snap["counters"].items()
                     if k.startswith("repro_kernel_sweeps_total"))
        assert sweeps > 0
        assert snap["spans"] == []  # spans not requested

    def test_spans_mode_records_spans(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "spans")
        dump = tmp_path / "tele.json"
        assert main([*CAMPAIGN, "--telemetry-json", str(dump)]) == 0
        snap = json.loads(dump.read_text())
        names = {s[0] for s in snap["spans"]}
        assert {"solve", "iteration", "sweep", "ghost-exchange"} <= names

    def test_multi_driver_dump_covers_workers(self, tmp_path,
                                              monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        dump = tmp_path / "tele.json"
        rc = main([*CAMPAIGN, "--drivers", "2", "--telemetry-json",
                   str(dump)])
        assert rc == 0
        snap = json.loads(dump.read_text())
        sweeps = sum(v for k, v in snap["counters"].items()
                     if k.startswith("repro_kernel_sweeps_total"))
        assert sweeps > 0  # solved in driver processes, merged here

    def test_scenario_dump(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        dump = tmp_path / "tele.json"
        rc = main(["scenario", "--seed", "3", "--telemetry-json",
                   str(dump)])
        out = capsys.readouterr().out
        assert rc == 0, out
        snap = json.loads(dump.read_text())
        assert snap["counters"]  # scenario solves through default ctx


class TestTimelineCommand:
    def test_renders_spans_dump(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "spans")
        dump = tmp_path / "tele.json"
        assert main([*CAMPAIGN, "--telemetry-json", str(dump)]) == 0
        capsys.readouterr()
        assert main(["timeline", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "span timeline —" in out
        assert "solve [" in out
        assert "peer   0 |" in out
        assert "peer   1 |" in out
        assert "sweep-busy" in out

    def test_counters_only_dump_renders_fallback(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        dump = tmp_path / "tele.json"
        assert main([*CAMPAIGN, "--telemetry-json", str(dump)]) == 0
        capsys.readouterr()
        assert main(["timeline", str(dump)]) == 0
        assert "no spans recorded" in capsys.readouterr().out

    def test_width_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "spans")
        dump = tmp_path / "tele.json"
        assert main([*CAMPAIGN, "--telemetry-json", str(dump)]) == 0
        capsys.readouterr()
        assert main(["timeline", str(dump), "--width", "30"]) == 0
        lane = next(line for line in
                    capsys.readouterr().out.splitlines()
                    if line.strip().startswith("peer   0"))
        assert len(lane.split("|")[1]) == 30
