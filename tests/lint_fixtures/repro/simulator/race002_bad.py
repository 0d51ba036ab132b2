"""RACE002 bad fixture: dirty cross-component state read directly.

``_dirty_links`` is a cross-component invalidation buffer owned by
``repro.simulator.components``; outside that module it may only be
consumed through the declared merge points.
"""


def count_pending_links(components):
    """Peeks at the dirty-link set instead of draining it."""
    return len(components._dirty_links)
