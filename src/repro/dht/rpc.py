"""The one way a node waits for an answer over the unreliable network.

The simulator's transport is fire-and-forget, like UDP, and the overlay
has no failure oracle: everything a node learns about its peers it
learns by asking and waiting out a timeout. :class:`RpcNode` holds that
idea once. :meth:`~RpcNode.expect` files an open request -- what to do
with the answer, what to do on silence, and the guard timer that turns
silence into a callback -- under one node-wide request id in one table;
:meth:`~RpcNode.settle` closes it. Every conversation that needs an
answer (RPCs, hop acks, lookups, broadcast acks, ``get``) is that pair
plus its own ``send``, so failure *detection* in the overlay is exactly
the guards armed here.
"""

from repro.dht.messages import RpcReply, RpcRequest


def ignore_answer(*_answer):
    """``on_answer`` for a pure receipt ack: settling disarms the guard."""


class RpcNode:
    """Mixin over :class:`~repro.sim.node.SimNode` adding request state.

    Subclasses register handlers with :meth:`rpc_handler`; a handler
    receives ``(src, request, respond)`` and calls ``respond(payload)``
    zero or one times.
    """

    def _init_rpc(self, rpc_timeout):
        self._rpc_timeout = rpc_timeout
        # Never reset: a recovered node must not reissue an id whose
        # answer may still be in flight from before the crash.
        self._last_req = 0
        self._open_requests = {}  # req -> (on_answer, on_silence, guard)
        self._rpc_handlers = {}

    def rpc_handler(self, kind, handler):
        self._rpc_handlers[kind] = handler

    def expect(self, timeout, on_answer, on_silence=None):
        """Open a request; exactly one of the two callbacks ever runs.

        Returns the request id to put on the wire. ``on_answer(*answer)``
        runs if :meth:`settle` is called with that id within ``timeout``,
        ``on_silence()`` otherwise; a crash runs neither.
        """
        req = self._last_req = self._last_req + 1
        guard = self.set_timer(timeout, self._on_silence, req)
        self._open_requests[req] = (on_answer, on_silence, guard)
        return req

    def settle(self, req, *answer):
        """An answer to ``req`` arrived. Late, replayed or never-issued
        ids find nothing open and are dropped."""
        entry = self._open_requests.pop(req, None)
        if entry is not None:
            self.cancel_timer(entry[2])
            entry[0](*answer)

    def _on_silence(self, req):
        on_silence = self._open_requests.pop(req)[1]
        if on_silence is not None:
            on_silence()

    def forget_requests(self):
        """Crash path: drop every open request, firing nothing (the
        guards are node timers and die with the node)."""
        self._open_requests.clear()

    def rpc(self, dst, inner, on_reply, on_timeout=None):
        """Send ``inner`` to ``dst``; exactly one of the callbacks fires."""
        req = self.expect(self._rpc_timeout, on_reply, on_timeout)
        self.send(dst, RpcRequest(req, self.address, inner))

    def handle_rpc_message(self, src, payload):
        """Returns True if ``payload`` was an RPC envelope it consumed."""
        if payload.kind == "rpc_req":
            handler = self._rpc_handlers.get(payload.inner.get("kind"))
            if handler is None:
                return True  # unknown request: drop, caller times out

            def respond(reply_payload):
                self.send(payload.reply_to, RpcReply(payload.req_id, reply_payload))

            handler(src, payload.inner, respond)
            return True
        if payload.kind == "rpc_rep":
            self.settle(payload.req_id, payload.inner)
            return True
        return False
