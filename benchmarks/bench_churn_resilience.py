"""Ext-D: soft state under churn -- answer completeness degradation.

The paper's reliability claim is not "no answer is ever lost" but
"the system keeps answering with whoever is present" (Figure 1 plots
*responding* nodes). This bench quantifies that: a continuous COUNT
query runs while churn shortens from PlanetLab-like sessions (1 hour)
to hostile ones (2 minutes); we report the mean and minimum fraction
of live nodes whose samples made it into each epoch's answer.

Expected shape: graceful degradation -- completeness stays near 1.0
for hour-scale sessions and declines, without the query ever failing,
as sessions shrink.
"""

from benchmarks._harness import fmt_table, report
from repro.core.network import PierNetwork

NODES = 60
DURATION = 420.0
EVERY = 30.0
SAMPLE_PERIOD = 5.0
WINDOW = 20.0


def run_level(mean_session, seed):
    net = PierNetwork(nodes=NODES, seed=seed)
    net.create_stream_table("s", [("v", "FLOAT")], window=2 * WINDOW)

    def make_ticker(address):
        def tick():
            engine = net.node(address).engine
            engine.stream_append("s", (1.0,))
            engine.set_timer(SAMPLE_PERIOD, tick)
        return tick

    def install(address):
        net.node(address).engine.set_timer(0.2, make_ticker(address))

    for address in net.addresses():
        install(address)

    site = net.any_address()
    live_at_epoch = {}
    results = []

    if mean_session is not None:
        net.start_churn(mean_session, mean_session / 8.0,
                        on_join=install, exclude=[site])

    def on_epoch(result):
        results.append(result)

    handle = net.submit_sql(
        "SELECT COUNT(*) AS n FROM s EVERY {} SECONDS WINDOW {} SECONDS "
        "LIFETIME {} SECONDS".format(EVERY, WINDOW, DURATION),
        node=site, on_epoch=on_epoch,
    )
    # Record the live population at each epoch boundary as ground truth.
    k = 1
    t0 = net.now
    while k * EVERY <= DURATION:
        net.advance(max(0.0, t0 + k * EVERY - net.now))
        live_at_epoch[k] = len(net.live_addresses())
        k += 1
    net.advance(handle.plan.deadline + 5)

    per_node = WINDOW / SAMPLE_PERIOD
    fractions = []
    for result in results:
        if not result.rows:
            fractions.append(0.0)
            continue
        count = result.rows[0][0]
        live = live_at_epoch.get(result.epoch, NODES)
        fractions.append(min(1.0, count / (per_node * max(1, live))))
    return fractions


def test_churn_resilience():
    levels = [("none", None), ("1 hour", 3600.0), ("10 min", 600.0),
              ("2 min", 120.0)]

    rows = []
    for label, mean_session in levels:
        fractions = run_level(mean_session, seed=31)
        mean_f = sum(fractions) / len(fractions)
        rows.append((label, len(fractions), round(mean_f, 3),
                     round(min(fractions), 3)))

    text = "Ext-D: answer completeness vs churn (continuous COUNT query)\n"
    text += "({} nodes, epoch {}s, {}s run; completeness = counted samples /"
    text += " expected from live nodes)\n\n"
    text = text.format(NODES, int(EVERY), int(DURATION))
    text += fmt_table(
        ["mean session", "epochs", "mean completeness", "min completeness"],
        rows,
    )
    report("churn_resilience", text)

    by_label = {label: (mean_f, min_f) for label, _e, mean_f, min_f in rows}
    # No churn: essentially perfect answers.
    assert by_label["none"][0] > 0.99
    # Hour-scale churn (PlanetLab): still near-complete on average.
    assert by_label["1 hour"][0] > 0.9
    # Degradation is graceful and monotone-ish: hostile churn loses more.
    assert by_label["2 min"][0] < by_label["1 hour"][0]
    # The query never stopped answering entirely.
    for label, epochs, _m, _lo in rows:
        assert epochs >= DURATION / EVERY - 1
