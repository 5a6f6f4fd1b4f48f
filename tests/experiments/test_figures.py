"""Figure series arithmetic, the Section V.C claim checker, and the
text report — on synthetic series, so each claim can be broken alone."""

import pytest

from repro.experiments.figures import (
    FigureSeries,
    check_paper_claims,
    figure_series,
)
from repro.experiments.harness import RunResult
from repro.experiments.reporting import figure_report, format_table
from repro.experiments.table1 import audit_table1
from repro.p2psap.context import Scheme

ALPHAS = (1, 2, 4)

#: (scheme, clusters, alpha) -> (elapsed, relaxations); T(1) = 10 s.
#: Every Section V.C claim holds on this grid.
GOOD = {
    ("synchronous", 1, 1): (10.0, 100.0),
    ("synchronous", 1, 2): (6.0, 100.0),
    ("synchronous", 1, 4): (4.0, 100.0),
    ("synchronous", 2, 2): (12.0, 100.0),
    ("synchronous", 2, 4): (10.0, 100.0),
    ("asynchronous", 1, 2): (5.0, 110.0),
    ("asynchronous", 1, 4): (3.0, 130.0),
    ("asynchronous", 2, 2): (6.0, 115.0),
    ("asynchronous", 2, 4): (4.0, 140.0),
    ("hybrid", 1, 2): (5.5, 105.0),
    ("hybrid", 1, 4): (3.5, 115.0),
    ("hybrid", 2, 2): (8.0, 110.0),
    ("hybrid", 2, 4): (6.0, 120.0),
}


def result(scheme, clusters, alpha, elapsed, relaxations):
    return RunResult(n=12, n_peers=alpha, n_clusters=clusters,
                     scheme=Scheme.parse(scheme), elapsed=elapsed,
                     relaxations=relaxations, residual=0.0, report=None,
                     max_wait_time=0.0)


def series(overrides=None, cells=GOOD):
    grid = dict(cells)
    grid.update(overrides or {})
    results = {key: result(*key, *value) for key, value in grid.items()}
    for scheme in ("asynchronous", "hybrid"):
        results[(scheme, 1, 1)] = results[("synchronous", 1, 1)]
    return FigureSeries(n_paper=96, n=12, peer_counts=ALPHAS,
                        results=results)


class TestSeries:
    def test_columns_follow_the_peer_counts(self):
        s = series()
        assert s.sequential_time == 10.0
        assert s.times("asynchronous", 2) == [10.0, 6.0, 4.0]
        assert s.relaxations("synchronous", 1) == [100.0, 100.0, 100.0]
        assert s.speedups("synchronous", 1) == [1.0, 10.0 / 6.0, 2.5]
        assert s.efficiencies("asynchronous", 1) == pytest.approx(
            [1.0, 1.0, 10.0 / 12.0])

    def test_missing_cells_shorten_the_series(self):
        cells = {k: v for k, v in GOOD.items() if k != ("hybrid", 2, 4)}
        assert series(cells=cells).times("hybrid", 2) == [10.0, 8.0]

    def test_speedup_needs_positive_elapsed_time(self):
        with pytest.raises(ValueError, match="non-positive elapsed"):
            result("synchronous", 1, 2, 0.0, 1.0).speedup(10.0)


class TestClaimChecker:
    def test_all_claims_hold_on_the_reference_grid(self):
        assert check_paper_claims(series()) == []

    @pytest.mark.parametrize("overrides, claim", [
        pytest.param({("asynchronous", 1, 2): (7.0, 110.0)},
                     "C1: async slower than sync at α=2, 1 cluster(s)",
                     id="C1-async-slower"),
        pytest.param({("synchronous", 1, 4): (4.0, 130.0)},
                     "C2: sync relaxations not ~constant",
                     id="C2-sync-count-drifts"),
        pytest.param({("asynchronous", 1, 4): (3.0, 100.0)},
                     "C2: async relaxations do not grow",
                     id="C2-async-count-flat"),
        pytest.param({("synchronous", 2, 2): (8.0, 100.0)},
                     "C3: sync not hurt by 2 clusters at α=2",
                     id="C3-sync-unhurt"),
        pytest.param({("asynchronous", 1, 2): (4.0, 110.0),
                      ("asynchronous", 2, 2): (12.5, 115.0)},
                     "C3: async too sensitive to 2 clusters at α=2",
                     id="C3-async-sensitive"),
        pytest.param({("hybrid", 2, 4): (12.0, 120.0)},
                     "C4: hybrid efficiency not between sync and async",
                     id="C4-hybrid-outside"),
    ])
    def test_each_claim_fails_alone(self, overrides, claim):
        failures = check_paper_claims(series(overrides))
        assert len(failures) == 1, failures
        assert failures[0].startswith(claim)

    def test_alphas_restrict_the_checked_points(self):
        broken = series({("asynchronous", 1, 4): (4.5, 130.0)})
        assert check_paper_claims(broken, alphas=[2]) == []
        assert check_paper_claims(broken)[0].startswith(
            "C1: async slower than sync at α=4")


class TestReport:
    def test_four_panels_one_row_per_machine_count(self):
        text = figure_report(series(), title="Figure 5")
        panels = text.split("\n\n")
        assert [p.splitlines()[0] for p in panels] == [
            "Figure 5 — time (s)", "Figure 5 — relaxations",
            "Figure 5 — speedup", "Figure 5 — efficiency",
        ]
        header = panels[0].splitlines()[1].split()
        assert header == ["alpha", "synch/1cl", "synch/2cl", "async/1cl",
                          "async/2cl", "hybri/1cl", "hybri/2cl"]
        rows = panels[0].splitlines()[3:]
        assert [r.split()[0] for r in rows] == ["1", "2", "4"]
        assert rows[2].split()[1:] == ["4.000", "10.000", "3.000", "4.000",
                                       "3.500", "6.000"]

    def test_short_series_leave_blank_cells(self):
        cells = {k: v for k, v in GOOD.items() if k != ("hybrid", 2, 4)}
        text = figure_report(series(cells=cells))
        assert text.splitlines()[0] == "n=12 — time (s)"
        last_row = text.split("\n\n")[0].splitlines()[-1]
        assert last_row.split() == ["4", "4.000", "10.000", "3.000",
                                    "4.000", "3.500"]

    def test_number_formats(self):
        out = format_table(["v"], [[0.0], [1500.2], [2.5], [0.25], ["x"]])
        assert [line.strip() for line in out.splitlines()[2:]] == [
            "0", "1500", "2.500", "0.2500", "x"]


class TestFigureCampaign:
    def test_tiny_grid_runs_through_the_campaign(self):
        s = figure_series(96, peer_counts=(1, 2), schemes=("synchronous",),
                          cluster_counts=(1,), tol=1e-3, n_override=6)
        assert s.n == 6 and s.peer_counts == (1, 2)
        assert sorted(s.results) == [("synchronous", 1, 1),
                                     ("synchronous", 1, 2)]
        assert all(r.elapsed > 0 for r in s.results.values())
        assert s.results[("synchronous", 1, 2)].n_peers == 2


def test_unsettled_table1_audit_reports_every_cell():
    audit = audit_table1(settle=0.0)
    assert not audit.ok
    assert len(audit.mismatches) == 6
    assert all(m.endswith("session never established")
               for m in audit.mismatches)
