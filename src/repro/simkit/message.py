"""Message record exchanged between neighboring nodes.

Payloads are **interned**: :meth:`Message.forwarded` used to
shallow-copy the payload dict on every hop, which put one dict
allocation + copy on the per-event constant of every trail-carrying
protocol message.  :class:`Payload` replaces that with copy-on-write —
a forwarded message *shares* the sender's backing dict behind two
independent views, and the backing is copied only when (and if) a view
is first written.  The PR 8 aliasing contract is unchanged and stays
pinned by its test: a downstream node mutating its copy never
retroactively rewrites the sender's hop, in either direction.

The nested-value rule is also unchanged from the shallow-copy days:
values reached *through* a payload (trails, shapes) are shared across
hops, so protocols that mutate nested values must copy them before
writing.  The distributed protocols sidestep that: coordinates,
trails and paths are tuples (a hop extends a trail with
``trail + (dst,)`` and a reply retraces it with ``trail[:-1]``),
section shapes and ring contacts are frozensets, and list values
(EDGE announcements, a wall's per-column tops) are never mutated
after a send.

The copy rule for handlers: to derive an outgoing payload from a
received one, call :meth:`Payload.copy` — one C-level ``dict`` copy —
never ``dict(payload)``, which walks the view through Python-level
``keys()`` and one ``__getitem__`` call per key.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from repro.mesh.coords import Coord

_MSG_IDS = itertools.count()

#: Shared backing for payload-less messages (STATUS beacons and such):
#: constructing a Message without a payload allocates no dict at all
#: unless somebody writes to it.
_EMPTY: dict[str, Any] = {}


class Payload:
    """A dict view with copy-on-write sharing semantics.

    Reads delegate straight to the backing dict.  A view starts *owned*
    (writes go directly to the backing — a caller that keeps a
    reference to the dict it passed in sees them, exactly like the old
    plain-dict payload).  :meth:`share` splits off a second view over
    the same backing and marks **both** views unowned; the first write
    through either view copies the backing first, so the two sides can
    never see each other's mutations.
    """

    __slots__ = ("_d", "_owned")

    def __init__(self, data: dict[str, Any] | None = None):
        if data is None:
            self._d = _EMPTY
            self._owned = False
        else:
            self._d = data
            self._owned = True

    def share(self) -> "Payload":
        """A new independent view over this payload's backing (O(1))."""
        self._owned = False
        twin = Payload.__new__(Payload)
        twin._d = self._d
        twin._owned = False
        return twin

    def _own(self) -> dict[str, Any]:
        self._d = dict(self._d)
        self._owned = True
        return self._d

    # -- reads (straight delegation) ---------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self._d[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self._d.get(key, default)

    def __contains__(self, key: object) -> bool:
        return key in self._d

    def __iter__(self) -> Iterator[str]:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def keys(self):
        return self._d.keys()

    def values(self):
        return self._d.values()

    def items(self):
        return self._d.items()

    def copy(self) -> dict[str, Any]:
        """A plain, caller-owned dict snapshot (one C-level dict copy)."""
        return self._d.copy()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Payload):
            return self._d == other._d
        return self._d == other

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __repr__(self) -> str:
        return f"Payload({self._d!r})"

    # -- writes (copy-on-write) --------------------------------------------

    def __setitem__(self, key: str, value: Any) -> None:
        d = self._d if self._owned else self._own()
        d[key] = value

    def __delitem__(self, key: str) -> None:
        d = self._d if self._owned else self._own()
        del d[key]

    def pop(self, key: str, *default: Any) -> Any:
        d = self._d if self._owned else self._own()
        return d.pop(key, *default)

    def setdefault(self, key: str, default: Any = None) -> Any:
        d = self._d if self._owned else self._own()
        return d.setdefault(key, default)

    def update(self, *args: Any, **kwargs: Any) -> None:
        d = self._d if self._owned else self._own()
        d.update(*args, **kwargs)

    def clear(self) -> None:
        if self._owned:
            # Owned views write through to the caller's dict — clear in
            # place so a caller holding the dict it passed in still sees
            # this (and every later) write, exactly like the old
            # plain-dict payload.
            self._d.clear()
        else:
            # Unowned: no need to copy a shared backing we are about to
            # empty — just stop sharing it.
            self._d = {}
            self._owned = True


class Message:
    """One neighbor-to-neighbor message.

    ``kind`` is the protocol-level type (``"STATUS"``, ``"IDENT_CW"``,
    ``"BOUNDARY"``, ``"ROUTE"``, ...); ``payload`` the protocol data.
    ``hops`` counts network traversals (protocol overhead accounting,
    experiment T3); ``ttl`` implements the paper's time-to-live discard
    for identification messages in unstable regions.
    """

    __slots__ = ("kind", "src", "dst", "payload", "hops", "ttl", "msg_id")

    def __init__(
        self,
        kind: str,
        src: Coord,
        dst: Coord,
        payload: dict[str, Any] | Payload | None = None,
        hops: int = 0,
        ttl: int | None = None,
        msg_id: int | None = None,
    ):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = payload if type(payload) is Payload else Payload(payload)
        self.hops = hops
        self.ttl = ttl
        self.msg_id = next(_MSG_IDS) if msg_id is None else msg_id

    def __repr__(self) -> str:
        return (
            f"Message(kind={self.kind!r}, src={self.src!r}, dst={self.dst!r}, "
            f"payload={self.payload._d!r}, hops={self.hops}, ttl={self.ttl}, "
            f"msg_id={self.msg_id})"
        )

    def expired(self) -> bool:
        return self.ttl is not None and self.hops > self.ttl

    def forwarded(self, new_dst: Coord) -> "Message":
        """Copy for the next hop (same identity, one more hop).

        The payload is shared copy-on-write: both the original and the
        forwarded view copy the backing on their first write, so a
        downstream node mutating its view must not (and cannot)
        retroactively rewrite the sender's hop.  Protocols that mutate
        *nested* payload values still copy them before writing.
        """
        msg = Message.__new__(Message)
        msg.kind = self.kind
        msg.src = self.dst
        msg.dst = new_dst
        msg.payload = self.payload.share()
        msg.hops = self.hops + 1
        msg.ttl = self.ttl
        msg.msg_id = self.msg_id
        return msg
