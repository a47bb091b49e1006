"""Figure 1: continuous SUM of outbound data rates over responding nodes.

The paper's headline exhibit: PIER on ~300 PlanetLab hosts running a
continuous query that sums each host's outbound data rate, plotted
against time together with the number of responding nodes. The
signature behaviours to reproduce:

* the aggregate tracks the per-node rate processes (it wiggles),
* the responding-node count hovers near the live population and dips
  when hosts churn out, recovering as they return and re-adopt the
  query from their ring neighbours (plan anti-entropy),
* a mid-run failure event (we crash 15% of hosts at half time, like a
  site outage) shows up as a sharp dip in both series -- partial
  results, not errors.

Default scale: 120 hosts / 10 simulated minutes (tens of seconds of
wall time). Set PIER_BENCH_SCALE=full for the paper's 300 hosts /
30 minutes.
"""

from benchmarks._harness import fmt_table, full_scale, report
from repro.apps.monitoring import MonitoringApp
from repro.workloads.planetlab import build_planetlab_network


def test_figure1_continuous_sum():
    num_hosts = 300 if full_scale() else 120
    duration = 1800.0 if full_scale() else 600.0
    every = 30.0

    net = build_planetlab_network(num_hosts, seed=1)
    app = MonitoringApp(net, sample_period=5.0, window=30.0).install()
    site = net.any_address()
    # Background churn: PlanetLab-like hour-scale sessions.
    net.start_churn(mean_session=3600.0, mean_downtime=180.0,
                    on_join=app.on_join, exclude=[site])
    net.advance(app.window)
    app.start_query(node=site, every=every, lifetime=duration)
    # Mid-run outage: a site-wide failure of ~15% of hosts.
    half = duration / 2
    net.advance(half)
    victims = [a for a in net.live_addresses() if a != site]
    victims = victims[: max(1, int(0.15 * num_hosts))]
    for address in victims:
        net.crash_node(address)
    net.advance(90)
    for address in victims:
        if not net.node(address).alive:
            net.recover_node(address)
            app.on_join(address)
    net.advance(duration - half - 90 + 60)
    series = app.series

    rows = [
        (round(t), total, responding)
        for t, total, responding in series
    ]
    text = "Figure 1: continuous SUM(rate_kbps), COUNT over responding nodes\n"
    text += "({} hosts, epoch {}s, churn + mid-run outage at t={}s)\n\n".format(
        num_hosts, int(every), int(duration / 2))
    text += fmt_table(
        ["t (s)", "sum rate (kbps)", "responding nodes"], rows
    )
    report("fig1_continuous_sum", text)

    # Shape assertions, not absolute numbers: the series exists, the
    # aggregate is positive when nodes respond, and the outage dents the
    # responding count which then recovers.
    assert len(series) >= duration / every - 2
    counts = [c for _t, _s, c in series]
    assert max(counts) > 0.8 * num_hosts
    outage_floor = min(counts[len(counts) // 2 - 1: len(counts) // 2 + 3])
    assert outage_floor < max(counts)
    assert counts[-1] > 0.7 * num_hosts  # recovered
