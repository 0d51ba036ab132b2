"""RACE003 bad fixture: shared-structure mutation inside a component round.

``_store_rows`` rewrites the monitor registry's pair cache and advances
its clock, which every monitor poll reads; calling it from a
component-scoped root mutates global structure mid-round.
"""


class RefreshingRound:
    """Minimal shape for the rule: only the names matter."""

    def _refill_dirty(self, flows):
        self._registry._store_rows(self._pair, self._pair_paths)
