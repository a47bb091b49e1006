"""Project: evaluate a list of expressions into a new row shape.

Params: ``exprs`` (list of Expr), ``schema`` (input Schema). Output
column names are a planning-time concern; rows stay positional.

Each output expression's batch evaluator produces one whole column,
and the results are re-wrapped as a column-built batch -- bare column
references pass their input column through by reference, so a pure
reorder/narrowing projection copies nothing.
"""

from repro.core.batch import RowBatch
from repro.core.dataflow import Operator
from repro.core.operators import register_operator


@register_operator("project")
class Project(Operator):
    def __init__(self, ctx, spec):
        super().__init__(ctx, spec)
        schema = spec.params["schema"]
        exprs = spec.params["exprs"]
        self._batch_fns = [e.compile_batch(schema) for e in exprs]

    def push_batch(self, batch, port=0):
        if len(batch) == 0:
            return
        self.emit_batch(
            RowBatch(columns=[fn(batch) for fn in self._batch_fns])
        )
