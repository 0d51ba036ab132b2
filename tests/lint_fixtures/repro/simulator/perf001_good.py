"""PERF001 good fixture: dense integer ids inside the hot function."""


class FakeNetwork:
    """Minimal shape for the rule: only the method name matters."""

    def _refill_dirty(self):
        """One vectorized store over interned link ids."""
        self.loads[self.link_ids] = 0.0
