"""Select (filter): drop rows failing a predicate.

Params: ``predicate`` (Expr), ``schema`` (input Schema). The predicate
compiles once per instantiation into a batch evaluator that produces
one value column, and ``RowBatch.take`` keeps the truthy positions.
SQL-style null semantics: ``take`` tests truthiness -- not ``is True``
-- so a None, False or 0 predicate result filters the row out.
"""

from repro.core.dataflow import Operator
from repro.core.operators import register_operator


@register_operator("select")
class Select(Operator):
    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        self._batch_predicate = spec.params["predicate"].compile_batch(
            spec.params["schema"])

    def push_batch(self, batch, port=0):
        if len(batch) == 0:
            return
        kept = batch.take(self._batch_predicate(batch))
        if len(kept):
            self.emit_batch(kept)
