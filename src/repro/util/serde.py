"""Wire-size accounting for simulated messages.

The simulator does not serialize objects for transport (message payloads
are passed by reference for speed), but experiments that report *bytes
moved* -- the centralized-vs-in-network aggregation bench, the Bloom-join
bench -- need a faithful size model. ``wire_size`` estimates the encoded
size of a payload the way PIER's Java serializer would: fixed-width
scalars, length-prefixed strings, recursive containers.

Every message is sized on ``Network.send``, so the common payload
types dispatch on their exact ``type()``. A subclass (``IntEnum``, a
namedtuple, a ``dict`` subclass) is sized as the builtin it derives
from, which wins over a ``wire_size()`` hook of its own; anything else
is asked for its ``wire_size()``, then sized by its repr.
"""


def wire_size(value):
    """Estimated serialized size of ``value`` in bytes."""
    sizer = _SIZERS.get(type(value))
    if sizer is not None:
        return sizer(value)
    return _size_other(value)


# What ``_SIZERS`` charges a scalar whatever its value.
_FIXED_WIDTH = {type(None): 1, bool: 1, int: 8, float: 8}


def uniform_row_size(rows):
    """The one number ``wire_size`` returns for every row of ``rows``,
    or ``None`` when they have to be sized one by one: not all tuples,
    ragged, or a column holding a string, a container or values of two
    widths. Costs one pass per column, whatever the row count; rows
    whose first row already holds such a value (group-by partials
    carry tuples) cost one look at that row."""
    if not rows or type(rows[0]) is not tuple or not all(
            map(_FIXED_WIDTH.__contains__, map(type, rows[0]))):
        return None
    if set(map(type, rows)) != {tuple} or len(set(map(len, rows))) != 1:
        return None
    size = 4
    for column in zip(*rows):
        widths = {_FIXED_WIDTH.get(t) for t in set(map(type, column))}
        if len(widths) != 1 or None in widths:
            return None
        size += widths.pop()
    return size


def _size_scalar1(value):
    return 1


def _size_scalar8(value):
    return 8


def _size_str(value):
    if value.isascii():
        return 4 + len(value)
    return 4 + len(value.encode("utf-8"))


def _size_bytes(value):
    return 4 + len(value)


def _size_sequence(value):
    size = 4
    sizers = _SIZERS
    for item in value:
        sizer = sizers.get(type(item))
        size += sizer(item) if sizer is not None else _size_other(item)
    return size


def _size_dict(value):
    size = 4
    sizers = _SIZERS
    for key, item in value.items():
        sizer = sizers.get(type(key))
        size += sizer(key) if sizer is not None else _size_other(key)
        sizer = sizers.get(type(item))
        size += sizer(item) if sizer is not None else _size_other(item)
    return size


def _size_other(value):
    """Whatever is not exactly a builtin: see the module docstring."""
    for base in type(value).__mro__[1:]:
        sizer = _SIZERS.get(base)
        if sizer is not None:
            return sizer(value)
    size_hint = getattr(value, "wire_size", None)
    if callable(size_hint):
        return size_hint()
    # Fall back to the repr; better to over-estimate than to silently
    # count an unknown object as free.
    return 4 + len(repr(value).encode("utf-8"))


_SIZERS = {
    type(None): _size_scalar1,
    bool: _size_scalar1,
    int: _size_scalar8,
    float: _size_scalar8,
    str: _size_str,
    bytes: _size_bytes,
    list: _size_sequence,
    tuple: _size_sequence,
    set: _size_sequence,
    frozenset: _size_sequence,
    dict: _size_dict,
}
