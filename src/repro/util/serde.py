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
