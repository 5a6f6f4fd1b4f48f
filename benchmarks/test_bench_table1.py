"""Table I — adaptation-rule verification.

Regenerates the paper's Table I by auditing live sessions (every scheme
× connection cell).  A session's config is its cell of
:data:`~repro.p2psap.rules.TABLE_I`, looked up once when it opens.
"""

from repro.experiments.reporting import format_table
from repro.experiments.table1 import audit_table1


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

