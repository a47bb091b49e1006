"""Shared standing dataflows: scan hosts and subscription spines.

Two sharing mechanisms live here, both engine-owned and both keyed by
what the *logical* plan proved equal (see :mod:`repro.core.logical`):

* :class:`SharedScanRegistry` -- per-node, per-stream-table fan-out of
  the append firehose. N standing scans over the same table used to
  mean N ``fragment.on_append`` hooks and N copies of the "row arrived"
  charge; now one :class:`_ScanHost` owns the hook, charges
  ``rows_scanned`` once, and fans each ``(ts, row)`` to every
  subscriber's pending buffer. Refcounted: the host appears with the
  first subscriber and its hook is removed with the last.

* Spines -- whole-dataflow sharing for standing queries whose logical
  plans canonicalize identically (same ``share_signature``) and whose
  epochs are in phase (same ``t0 % every``). The engine runs ONE
  :class:`~repro.core.dataflow.StandingExecution` under the spine key;
  each member query is a :class:`SpineSubscriber` carrying only its
  identity (qid, origin) and its epoch *offset* on the spine's absolute
  epoch grid. The result operator fans each spine epoch's rows to every
  subscriber whose window it answers, translated to that subscriber's
  own epoch number -- the coordinator cannot tell shared from private
  answers.

Spine epochs are ABSOLUTE: the grid origin is ``phase = t0 % every``,
so epoch ``k`` always means instant ``phase + k * every`` on every node
regardless of when the plan broadcast arrived. A query submitted at
``t0`` sits at ``offset = (t0 - phase) / every`` (an exact integer by
construction) and its own epoch ``j`` is spine epoch ``offset + j``.

Soft-state discipline matches the rest of the engine: a crash wipes
hosts and spines alike (:meth:`SharedScanRegistry.reset`); standing
queries that still matter are re-adopted from their coordinator's
re-broadcast and re-form the spine from scratch.
"""


class _ScanHost:
    """One append hook on one stream fragment, fanned to N scans."""

    def __init__(self, registry, table, fragment):
        self.registry = registry
        self.table = table
        self.fragment = fragment
        self.subscribers = {}  # token -> callback(ts, row)
        self._next_token = 0
        # The host is the accounting boundary: seeding and appends are
        # charged once here, however many scans listen.
        registry.engine.note_rows_scanned(len(fragment))
        self._hook = fragment.on_append(self._on_append)

    def _on_append(self, timestamp, row):
        self.registry.engine.note_rows_scanned(1)
        for callback in list(self.subscribers.values()):
            callback(timestamp, row)

    def seed_rows(self):
        """The fragment's retained ``(ts, row)`` pairs, handed over in
        one call -- a subscribing scan seeds its whole pending buffer
        as a single batch instead of replaying history row by row."""
        return self.fragment.items()

    def subscribe(self, callback):
        token = self._next_token
        self._next_token += 1
        self.subscribers[token] = callback
        return token

    def unsubscribe(self, token):
        self.subscribers.pop(token, None)
        return not self.subscribers

    def close(self):
        if self._hook is not None:
            self.fragment.remove_append_hook(self._hook)
            self._hook = None
        self.subscribers = {}


class SharedScanRegistry:
    """Per-engine registry of shared stream-scan hosts.

    ``acquire`` returns an opaque token the scan hands back to
    ``release`` at teardown; the host (and its fragment hook) lives
    exactly as long as it has subscribers.
    """

    def __init__(self, engine):
        self.engine = engine
        self._hosts = {}  # table -> _ScanHost

    def acquire(self, table, fragment, callback):
        host = self._hosts.get(table)
        if host is not None and host.fragment is not fragment:
            # The table was dropped and re-created (tests do this
            # between scenarios): the old hook points at a dead deque.
            host.close()
            host = None
        if host is None:
            host = _ScanHost(self, table, fragment)
            self._hosts[table] = host
        return (table, host.subscribe(callback))

    def seed_rows(self, table):
        """One-batch seed hand-off from ``table``'s host (empty when no
        host exists yet -- callers acquire first)."""
        host = self._hosts.get(table)
        return host.seed_rows() if host is not None else []

    def release(self, token):
        table, sub = token
        host = self._hosts.get(table)
        if host is None:
            return
        if host.unsubscribe(sub):
            host.close()
            del self._hosts[table]

    def host_count(self, table=None):
        """Subscriber count for ``table`` (introspection / tests)."""
        if table is None:
            return len(self._hosts)
        host = self._hosts.get(table)
        return len(host.subscribers) if host is not None else 0

    def reset(self):
        for host in self._hosts.values():
            host.close()
        self._hosts = {}


class SpineSubscriber:
    """One query riding a spine: identity + epoch-grid placement."""

    __slots__ = ("qid", "origin", "offset", "last_epoch")

    def __init__(self, qid, origin, offset, last_epoch):
        self.qid = qid
        self.origin = origin
        self.offset = offset  # spine epoch k answers my epoch k - offset
        self.last_epoch = last_epoch  # my last epoch (None = unbounded)


class _GridRecord:
    """What spines and prefix stages share: one engine-side execution
    on the absolute epoch grid (``t0`` = phase) and the subscribers
    that still need it."""

    __slots__ = ("key", "plan", "t0", "subscribers", "execution",
                 "next_timer", "stalled")

    def __init__(self, key, plan, t0):
        self.key = key
        self.plan = plan
        self.t0 = t0  # = phase: absolute instant of grid epoch 0
        self.subscribers = {}  # qid -> SpineSubscriber / PrefixSubscriber
        self.execution = None
        self.next_timer = None
        self.stalled = False

    def last_needed_epoch(self):
        """Last grid epoch any member still needs, or None if some
        member is unbounded (no LIFETIME)."""
        last = 0
        for sub in self.subscribers.values():
            if sub.last_epoch is None:
                return None
            last = max(last, sub.offset + sub.last_epoch)
        return last


class SpineRecord(_GridRecord):
    """Engine-side state for one shared standing execution."""

    __slots__ = ("prefix",)

    def __init__(self, key, plan, t0):
        super().__init__(key, plan, t0)
        self.prefix = None  # prefix-stage key when the scan is staged

    def rep_qid(self):
        """A live member qid for plan-pull provenance (any will do --
        all members carry byte-identical plans)."""
        for qid in self.subscribers:
            return qid
        return None


class PrefixSubscriber:
    """One spine fed by a shared prefix (scan) stage.

    A stage member runs its own execution (tail operators, exchanges,
    epoch ring) -- the stage only replaces its scan. ``start_epoch`` is
    the first *stage* epoch whose rows the member consumes; a member
    whose first window needs panes the stage emitted before it joined
    gets the stage's retained pane history backfilled once
    (``needs_backfill``) so that window matches a private scan's seeded
    window exactly.
    """

    __slots__ = ("qid", "offset", "last_epoch", "start_epoch",
                 "needs_backfill")

    def __init__(self, qid, offset, last_epoch, start_epoch,
                 needs_backfill):
        self.qid = qid
        self.offset = offset  # stage epoch k feeds my epoch k - offset
        self.last_epoch = last_epoch  # my last epoch (None = unbounded)
        self.start_epoch = start_epoch  # first stage epoch I consume
        self.needs_backfill = needs_backfill


class PrefixRecord(_GridRecord):
    """Engine-side state for one shared scan-stage execution.

    The stage runs a two-op plan (scan -> demux; ``plan`` is that stage
    plan, not a member plan) on the same absolute epoch grid as spines;
    the demux operator holds the subscriber map and fans each stage
    epoch's rows into every member spine's execution via
    ``StandingExecution.deliver_scan``. Spines whose logical plans
    *differ* (different predicates, groups, or output shapes) but scan
    the same stream table on the same epoch grid all ride one stage --
    the fleet pays for one scan.
    """

    __slots__ = ()
