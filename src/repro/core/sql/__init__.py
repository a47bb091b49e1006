"""SQL frontend.

PIER's declarative interface: a SQL subset with continuous-query
extensions. :func:`parse_query` turns text into a
:class:`~repro.core.logical.LogicalQuery`; the planner does the rest.

Supported surface::

    [WITH RECURSIVE name AS ( SELECT ... UNION SELECT ... )]
    SELECT expr [AS name], ... | aggregates (COUNT/SUM/MIN/MAX/AVG)
    FROM table [AS alias] [, table [AS alias] ...]
    [WHERE predicate]
    [GROUP BY expr, ...]
    [HAVING predicate]
    [ORDER BY expr [ASC|DESC], ...]
    [LIMIT n]
    [EVERY n SECONDS [WINDOW n SECONDS] [LIFETIME n SECONDS]]

The continuous clauses are this dialect's rendering of PIER's
continuous-query variants of SQL: EVERY sets the epoch period, WINDOW
how much stream history each epoch reads, LIFETIME how long engines
keep the query alive (soft state -- it expires unless re-announced).
"""

from repro.core.sql.parser import parse_query

__all__ = ["parse_query"]
