"""``wire_size`` dispatches on exact type -- and sizes everything as before.

The recursive ``isinstance`` chain it replaced is kept here verbatim as
the oracle. Every baseline under ``benchmarks/baselines/`` is a function
of this size model, so the two must agree byte for byte on every value.
"""

import collections
import enum

import pytest

from repro.core.batch import columnar_wire
from repro.db.schema import Schema
from repro.db.types import ANY, BOOL, FLOAT, INT, STR
from repro.dht import messages as msg
from repro.dht.chord import NodeRef
from repro.dht.storage import StoredItem
from repro.util import serde
from repro.util.bloom import BloomFilter
from repro.util.rng import SeededRng
from repro.util.serde import wire_size
from repro.util.sketches import CountMinSketch, HyperLogLog


def oracle_wire_size(value):
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return 4 + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return 4 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 4 + sum(oracle_wire_size(v) for v in value)
    if isinstance(value, dict):
        return 4 + sum(oracle_wire_size(k) + oracle_wire_size(v) for k, v in value.items())
    size_hint = getattr(value, "wire_size", None)
    if callable(size_hint):
        return size_hint()
    return 4 + len(repr(value).encode("utf-8"))


@pytest.fixture
def expected(monkeypatch):
    """Size a value entirely the old way.

    The message types import ``wire_size`` from ``repro.util.serde``
    when called, so with the oracle patched in there even the payload
    inside a ``Route`` inside an ``RpcRequest`` is sized by the oracle.
    """
    def size(value):
        with monkeypatch.context() as patch:
            patch.setattr(serde, "wire_size", oracle_wire_size)
            return oracle_wire_size(value)
    return size


class Severity(enum.IntEnum):
    LOW = 1
    HIGH = 2


Point = collections.namedtuple("Point", "x y label")


class Bag(dict):
    pass


class Words(list):
    pass


class Tag(str):
    pass


class Blob(bytes):
    pass


class Ratio(float):
    pass


class SizedDict(dict):
    """A builtin subclass takes the builtin's size, not its own hook."""

    def wire_size(self):
        return 999


class Opaque:
    def __repr__(self):
        return "Opaque<éè>"  # non-ASCII repr: sized in UTF-8


SCALARS = [
    None, True, False, 0, 1, -7, 2 ** 70, 0.0, -2.5, float("inf"),
    "", "abc", "host-17", "café", "日本語", "\U0001f600 ok",
    b"", b"\x00\xff" * 5,
    Severity.HIGH, Tag("täg"), Tag("tag"), Blob(b"xyz"), Ratio(0.5),
]


def random_value(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        return rng.choice(SCALARS)
    size = rng.randint(0, 5)
    items = [random_value(rng, depth + 1) for _ in range(size)]
    shape = rng.randint(0, 8)
    if shape == 0:
        return items
    if shape == 1:
        return tuple(items)
    if shape == 2:
        return Words(items)
    if shape == 3:
        return Point(*(items + [None, 1, "p"])[:3])
    if shape in (4, 5):
        flat = [rng.choice(SCALARS) for _ in range(size)]
        return (set if shape == 4 else frozenset)(flat)
    keys = [rng.choice(("op", "ns", "rid", "kéy", 3, (1, "a"), None, Tag("t")))
            for _ in range(size)]
    pairs = dict(zip(keys, items))
    return {6: pairs, 7: Bag(pairs), 8: SizedDict(pairs)}[shape]


def test_scalars_and_subclasses(expected):
    for value in SCALARS + [Point(1, 2.0, "p"), Bag(a=1), Words("ab"),
                            SizedDict(a=[1, "x"]), Opaque(), object]:
        assert wire_size(value) == expected(value), repr(value)
    assert wire_size(True) == 1 and wire_size(1) == 8  # bool before int
    assert wire_size(Severity.LOW) == 8
    assert wire_size(SizedDict(a=1)) != 999


def test_random_nested_values(expected):
    rng = SeededRng(20240926, "serde-parity")
    for _ in range(2000):
        value = random_value(rng)
        assert wire_size(value) == expected(value), repr(value)


def _sketches():
    bloom = BloomFilter.for_capacity(50)
    bloom.add("x")
    return [bloom, CountMinSketch(depth=3, width=64), HyperLogLog(p=6)]


def test_size_hooks(expected):
    ref = NodeRef(2 ** 159 + 5, "h1")
    hooked = _sketches() + [ref, msg.Message()]
    for value in hooked:
        assert wire_size(value) == expected(value) == value.wire_size()
    # Hook bearers nested inside plain containers.
    nested = {"op": "bloom", "filters": hooked, "refs": (ref, ref, None)}
    assert wire_size(nested) == expected(nested)


def exchange_payloads(rng):
    """The shapes ``Exchange._route`` puts on the wire."""
    rows = [(rng.randint(0, 63), rng.random(), "host-{}".format(rng.randint(0, 99)))
            for _ in range(rng.randint(2, 40))]
    states = [((rng.randint(0, 9),), [rng.random(), rng.randint(1, 50)])
              for _ in range(rng.randint(2, 12))]
    deliver = {"op": "deliver", "ns": "q7/x0", "rid": ("hot", 3, 1),
               "data": rows[0], "mid": ("h4", 17), "epoch": 3, "pane": 9,
               "learn": True}
    by_rows = {"op": "deliver_batch", "ns": "q7/x0", "rid": 5, "rows": rows,
               "mid": ("h4", 18), "epoch": 3}
    by_cols = {"op": "deliver_batch", "ns": "q7/x1", "rid": (2, "a"),
               "cols": columnar_wire(states), "epoch": None}
    scan_cols = dict(by_rows, cols=columnar_wire(rows))
    del scan_cols["rows"]
    empty_cols = {"op": "deliver_batch", "ns": "q", "rid": 0, "cols": []}
    return [deliver, by_rows, by_cols, scan_cols, empty_cols]


def test_exchange_payload_shapes(expected):
    rng = SeededRng(7, "serde-shapes")
    for _ in range(25):
        for payload in exchange_payloads(rng):
            assert wire_size(payload) == expected(payload), payload["op"]


def test_every_dht_message_type(expected):
    rng = SeededRng(11, "serde-messages")
    ref = NodeRef(12345, "h2")
    payloads = exchange_payloads(rng) + [
        {"kind": "get_neighbors"},
        {"predecessor": ref, "successors": [ref, NodeRef(6, "h3")]},
        {"op": "put", "ns": "inverted", "rid": "térm", "iid": 4,
         "value": ("term", 17, "h2"), "ttl": 120.0},
    ]
    items = [StoredItem("ns", "r{}".format(i), i, payload, 100.0)
             for i, payload in enumerate(payloads)]
    seen = set()
    for payload in payloads:
        route = msg.Route(99, payload, ref, hops=2, upcall="combine")
        messages = [
            msg.RpcRequest(3, "h1", payload),
            msg.RpcReply(3, payload),
            msg.Lookup(99, ref, 4),
            msg.LookupDone(4, ref, 3),
            route,
            msg.Broadcast(payload, 77, ref, 1, ack_to="h1", req=9),
            msg.StoreItems(items, mids={("h4", 1): 30.0, ("h4", 2): 31.0}),
            msg.Direct(payload),
            msg.RpcRequest(5, "h1", {"kind": "wrap", "inner": [route, ref]}),
            msg.HopBundle([route, msg.Lookup(99, ref, 4),
                           msg.Route(7, payload, ref)]),
        ]
        for message in messages:
            seen.add(type(message))
            assert wire_size(message) == expected(message), message.kind
    concrete = {cls for cls in vars(msg).values()
                if isinstance(cls, type) and issubclass(cls, msg.Message)
                and cls is not msg.Message}
    assert seen == concrete


def test_a_route_remembers_its_size_and_a_bundle_sums_its_parts():
    """A ``Route`` is sized once, not once per hop: no hop changes its
    payload, so the remembered size is the fresh one for every payload
    shape in the census, whatever the envelope has been through."""
    rng = SeededRng(13, "serde-remembered")
    ref = NodeRef(12345, "h2")
    routes = []
    for payload in exchange_payloads(rng) + [
        {"op": "put", "ns": "inverted", "rid": "térm", "iid": 4,
         "value": ("term", 17, "h2"), "ttl": 120.0},
        {"op": "get", "ns": "t", "rid": 3, "reply_to": "h1", "req": 8},
    ]:
        route = msg.Route(99, payload, ref, upcall="combine")
        first = route.wire_size()
        assert first == 20 + 16 + 8 + wire_size(payload)
        # What a hop rewrites is the envelope, which is fixed width.
        route.hops += 3
        route.hop_ack = ("h9", 41)
        route.force_terminal = True
        assert route.wire_size() == wire_size(route) == first
        fresh = msg.Route(99, payload, ref, upcall="combine")
        assert fresh.wire_size() == first
        routes.append(route)
    lookup = msg.Lookup(5, ref, 2)
    bundle = msg.HopBundle(routes + [lookup])
    parts = sum(r.wire_size() for r in routes) + lookup.wire_size()
    assert wire_size(bundle) == 16 + 8 + parts  # header, one ack slot


# ----------------------------------------------------------------------
# One size per batch: never a number wire_size would not give each row
# ----------------------------------------------------------------------
def test_uniform_row_size_agrees_with_wire_size_row_by_row():
    states = [((g,), [0.5 * g, g + 1]) for g in range(5)]  # (gvals, states)
    batches = {
        "ints": [(1, 2), (3, -4), (2 ** 40, 0)],
        "floats and ints": [(1.5, 2), (0.0, 3)],
        "int or float in one column": [(1, 2.0), (1.5, 3)],
        "bools": [(True, 1), (False, 2)],
        "all None column": [(None, 1), (None, 2)],
        "None or bool, both one byte": [(None, 1), (True, 2)],
        "zero arity": [(), ()],
        "one row": [(7, 7.0, False, None)],
        "int or None: two widths": [(1, 2), (None, 3)],
        "int or bool: two widths": [(1, 2), (True, 3)],
        "strings": [(1, "a"), (2, "bcd")],
        "group-by partials": states,
        "(tuple, tuple) rows": [((1,), (2.0, 3)), ((4,), (5.0, 6))],
        "fixed first row, tuple after": [(1, 2), ((3,), 4)],
        "ragged": [(1, 2, 3), (4, 5), (6,)],
        "a list among tuples": [(1, 2), [3, 4]],
        "int subclass": [(enum.IntEnum("E", "A").A, 1)],
        "empty": [],
    }
    sized_once = set()
    for name, rows in batches.items():
        size = serde.uniform_row_size(rows)
        if size is not None:
            sized_once.add(name)
            assert [wire_size(row) for row in rows] == [size] * len(rows), name
    assert sized_once == {
        "ints", "floats and ints", "int or float in one column", "bools",
        "all None column", "None or bool, both one byte", "zero arity",
        "one row",
    }


def test_a_schema_knows_its_fixed_row_size():
    sized = Schema.of(("k", INT), ("v", FLOAT), ("up", BOOL))
    assert sized.fixed_row_bytes == wire_size((1, 2.0, True)) == 21
    assert Schema([]).fixed_row_bytes == wire_size(())
    assert Schema.of(("k", INT), ("tag", STR)).fixed_row_bytes is None
    assert Schema.of(("blob", ANY)).fixed_row_bytes is None
