"""OWN001 good fixture: shared state written through the owner's API."""


def stamp_links(registry, link_ids):
    """``mark_links_dirty`` is the owner-side writer of the link stamps."""
    registry.mark_links_dirty(link_ids)
