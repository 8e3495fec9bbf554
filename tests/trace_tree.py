"""Checks on a recorded span tree, for tests.

A capture covering a whole operation records one tree: every event's
``parent_id`` names a recorded span of its trace.  Spans are recorded at
*exit*, so children precede their parents in buffer order, and
:func:`unresolved_parents` is order-insensitive.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.trace import Event, span_events


def unresolved_parents(events: Iterable[Event]) -> list[Event]:
    """Events whose ``parent_id`` does not resolve to a recorded span."""
    events = list(events)
    known = {(e.trace_id, e.span_id) for e in span_events(events)}
    return [
        e for e in events
        if e.parent_id is not None and (e.trace_id, e.parent_id) not in known
    ]


def trace_ids(events: Iterable[Event]) -> set[str]:
    return {e.trace_id for e in events}
