"""RACE002 good fixture: dirty state consumed via the merge point."""


def drain_dirty_components(components):
    """The sanctioned path: ``consume_dirty`` pops the dirty-link set."""
    touched, flow_ids = components.consume_dirty()
    return touched, list(flow_ids)
