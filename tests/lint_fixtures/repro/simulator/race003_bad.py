"""RACE003 bad fixture: shared-structure mutation inside a component round.

``_compact`` re-lays the monitor registry's CSR every component reads;
calling it from a component-scoped root mutates global structure
mid-round.
"""


class CompactingRound:
    """Minimal shape for the rule: only the names matter."""

    def _refill_dirty(self, flows):
        self._registry._compact()
