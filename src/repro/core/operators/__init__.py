"""Operator registry: plan ``kind`` strings -> runtime classes.

Importing this package registers every built-in operator. Third-party
operators can call :func:`register_operator` to add their own kinds --
PIER's "boxes and arrows" interface was explicitly extensible and this
mirrors that.
"""

from repro.util.errors import PlanError

_REGISTRY = {}


def register_operator(kind):
    """Class decorator: make ``kind`` instantiable from an OpSpec."""

    def wrap(cls):
        if kind in _REGISTRY:
            raise PlanError("operator kind {!r} already registered".format(kind))
        _REGISTRY[kind] = cls
        cls.kind = kind
        return cls

    return wrap


def create_operator(ctx, spec):
    cls = _REGISTRY.get(spec.kind)
    if cls is None:
        raise PlanError("unknown operator kind {!r}".format(spec.kind))
    return cls(ctx, spec)


# Import for side effect: each module registers its operators.
from repro.core.operators import scan  # noqa: E402,F401
from repro.core.operators import filter as filter_op  # noqa: E402,F401
from repro.core.operators import project  # noqa: E402,F401
from repro.core.operators import joins  # noqa: E402,F401
from repro.core.operators import bloom  # noqa: E402,F401
from repro.core.operators import groupby  # noqa: E402,F401
from repro.core.operators import topk  # noqa: E402,F401
from repro.core.operators import misc  # noqa: E402,F401
from repro.core import exchange  # noqa: E402,F401
