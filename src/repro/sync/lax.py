"""Plain lax synchronization (paper §3.6.1).

The most permissive model: clocks are synchronized only by application
events (locks, barriers, messages, spawn/join), which the interpreter
and system layer already handle by forwarding clocks from message
timestamps.  The model itself therefore imposes nothing — it exists so
the scheduler always has a concrete model object and so statistics are
collected uniformly.
"""

from __future__ import annotations

from repro.sync.model import SynchronizationModel


class LaxModel(SynchronizationModel):
    """Lax synchronization: let threads run freely."""

    name = "lax"
    __slots__ = ()
