"""PERF001 bad fixture: tuple-keyed link lookup inside a hot function."""


class FakeNetwork:
    """Minimal shape for the rule: only the method name matters."""

    def _refill_dirty(self):
        """Hashes a (u, v) tuple per link per event — the PR 1 regression."""
        for u, v in self.links:
            self.load[(u, v)] = 0.0
