"""What importing the package costs a process that only runs queries."""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
sys.path.insert(0, {src!r})
import repro
import repro.apps
from repro.core.network import PierNetwork
from repro.workloads.graphs import make_graph

net = PierNetwork(nodes=4, seed=1)
net.advance(1)
assert "networkx" not in sys.modules, "networkx loaded without a graph"
make_graph("ring", 4)
assert "networkx" in sys.modules
"""


def test_networkx_loads_with_the_first_graph_not_with_the_package():
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=str(SRC))],
        capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
