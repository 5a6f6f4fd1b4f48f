"""Table I — adaptation-rule verification and decision latency.

Regenerates the paper's Table I by auditing live sessions (every scheme
× connection cell) and benchmarks the controller's decision path — the
rule engine evaluated per session opening, the only time a session's
config is decided.
"""

from repro.experiments.reporting import format_table
from repro.experiments.table1 import audit_table1
from repro.p2psap.context import ConnectionKind, ContextSnapshot, Scheme
from repro.p2psap.rules import RuleEngine


def test_bench_table1_audit(benchmark, show):
    audit = benchmark.pedantic(audit_table1, rounds=3, iterations=1)
    assert audit.ok, audit.mismatches
    rows = [
        [scheme.value, conn.value, cfg.mode.value,
         "reliable" if cfg.reliable else "unreliable", cfg.congestion]
        for (scheme, conn), cfg in audit.observed.items()
    ]
    show(format_table(
        ["scheme", "connection", "mode", "reliability", "congestion"],
        rows, title="Table I (observed on live P2PSAP sessions)",
    ))
    benchmark.extra_info["cells_verified"] = len(audit.observed)


def test_bench_rule_engine_decision(benchmark):
    """Controller decision latency (pure rule evaluation)."""
    engine = RuleEngine()
    contexts = [
        ContextSnapshot(scheme=s, connection=c)
        for s in Scheme for c in ConnectionKind
    ]

    def decide_all():
        return [engine.decide(ctx) for ctx in contexts]

    configs = benchmark(decide_all)
    assert len(configs) == 6
