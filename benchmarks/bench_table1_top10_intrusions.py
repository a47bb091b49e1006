"""Table 1: the network-wide top ten intrusion-detection rules.

Every node runs Snort locally (synthesized alert tables whose
network-wide totals equal the paper's published counts); PIER computes
the global ranking with one GROUP BY / ORDER BY / LIMIT 10 query,
aggregated in-network. The reproduced table must match the paper's
ranking exactly and the counts verbatim.
"""

from benchmarks._harness import fmt_table, full_scale, report
from repro.apps.snort import SnortApp
from repro.workloads.planetlab import build_planetlab_network
from repro.workloads.snort_rules import TABLE1_RULES


def test_table1_top10_rules():
    num_hosts = 300 if full_scale() else 150

    net = build_planetlab_network(num_hosts, seed=2)
    app = SnortApp(net).install()
    result = app.top_rules(10)

    rows = [(str(rule), descr, hits) for rule, descr, hits in result.rows]
    text = "Table 1: network-wide top ten intrusion detection rules\n"
    text += "({} hosts; per-node Snort tables; one PIER aggregate query)\n\n".format(
        num_hosts)
    text += fmt_table(["Rule", "Rule Description", "Hits"], rows)
    text += "\n\nPaper's Table 1 for comparison:\n\n"
    text += fmt_table(["Rule", "Rule Description", "Hits"],
                      [(str(r), d, h) for r, d, h in TABLE1_RULES])
    report("table1_top10_intrusions", text)

    assert [(r, d) for r, d, _h in result.rows] == \
        [(r, d) for r, d, _h in TABLE1_RULES]
    assert [h for _r, _d, h in result.rows] == [h for _r, _d, h in TABLE1_RULES]
