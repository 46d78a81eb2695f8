"""Failure-handling messages (paper §V-A).

RESPONSE-QUERY is multicast across zones when a node times out waiting for
the next step of a global transaction. It asks one of two questions: for
a ballot's COMMIT, which any node that committed it re-sends, or for the
STATE of the group the ballot moves from the queried zone into the
querier's, which each of that zone's proxies holding the group's
certificate builds from it. 2f+1 COMMIT queries from another zone make
nodes suspect their own primary and trigger a view change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.messages.base import Message
from repro.messages.sync import Ballot

__all__ = ["ResponseQuery"]


@dataclass(frozen=True)
class ResponseQuery(Message):
    """Query for a certified message of a global transaction.

    ``phase`` is ``"commit"`` or ``"state"``; the querier's zone is that
    of its signer.
    """

    view: int
    ballot: Ballot
    phase: str
    sender: str
