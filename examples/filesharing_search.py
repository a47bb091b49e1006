"""Keyword file-sharing search: DHT inverted index vs flooding.

Run with:  python examples/filesharing_search.py

Publishes every host's file library into a DHT-partitioned inverted
index, then answers keyword searches three ways: a direct DHT get
(single term), a distributed self-join (two-term AND), and -- for
contrast -- Gnutella-style flooding on an unstructured overlay over
the identical corpus. Prints recall and message costs, the trade-off
at the heart of the hybrid-search paper the demo cites.
"""

from repro.apps.filesharing import FileSharingApp, count_get_hops
from repro.baselines.flooding import FloodingNetwork
from repro.core.network import PierNetwork

HOSTS = 40


def main():
    print("Building {} hosts and publishing file libraries...".format(HOSTS))
    net = PierNetwork(nodes=HOSTS, seed=31)
    app = FileSharingApp(net).publish_corpus(files_per_node=6)
    net.advance(3)

    popularity = app.term_popularity()
    ranked = sorted(popularity, key=popularity.get, reverse=True)
    popular, rare = ranked[0], ranked[-1]
    print("Most popular term: {!r} ({} postings); rarest: {!r} ({})".format(
        popular, popularity[popular], rare, popularity[rare]))

    print("\n-- Single-term DHT search (one get, O(log N) hops)")
    get_hops = count_get_hops(net)
    for term in (popular, rare):
        before = len(get_hops)
        found = app.search_one(term)
        cost = len(get_hops) - before
        truth = app.ground_truth([term])
        print("   {!r}: {} files (truth {}), {} routed messages".format(
            term, len(found), len(truth), cost))

    print("\n-- Two-term AND via a distributed self-join of the index")
    terms = [ranked[0], ranked[1]]
    found = app.search_sql(terms)
    print("   {} AND {}: {} files (truth {})".format(
        terms[0], terms[1], len(found), len(app.ground_truth(terms))))

    print("\n-- Flooding baseline on the same corpus")
    overlay = FloodingNetwork(net.addresses(), degree=4, seed=32)
    overlay.load_corpus(app.corpus)
    for term in (popular, rare):
        truth = set(app.ground_truth([term]))
        for ttl in (2, HOSTS // 2):
            found, stats = overlay.search([term], ttl=ttl)
            recall = len(set(found) & truth) / max(1, len(truth))
            print("   {!r} ttl={:>2}: recall {:.2f}, {} messages".format(
                term, ttl, recall, stats["messages"]))

    print("\nShape: the DHT answers every term completely for a handful of"
          "\nrouted messages; flooding needs network-scale TTLs (hundreds of"
          "\nmessages) to match that recall, especially for rare terms.")


if __name__ == "__main__":
    main()
