"""API001 bad fixture: _load_array written outside its refill owners."""


class FakeNetwork:
    """Minimal shape for the rule: only the attribute name matters."""

    def apply_patch(self, link_id, value):
        """Bypasses the audited refill splice."""
        self._load_array[link_id] = value
