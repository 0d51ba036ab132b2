"""RACE003 good fixture: the registry cache refresh hoisted to the serial caller.

``_reallocate`` is not component-scoped, so mutating the shared
registry there (after the round returns) is the sanctioned pattern.
"""


class RefreshingKeeper:
    """Minimal shape for the rule: only the names matter."""

    def _reallocate(self, flows):
        self._refill_dirty(flows)
        self._registry._store_rows(self._pair, self._pair_paths)

    def _refill_dirty(self, flows):
        self._pending_total = len(flows)
