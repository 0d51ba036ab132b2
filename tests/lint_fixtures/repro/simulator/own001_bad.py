"""OWN001 bad fixture: shared state created outside its owner module.

``_link_stamp`` is a MonitorRegistry array owned by ``repro.core.registry``;
rebinding it to a fresh array from simulator code bypasses the ownership
table (and any runtime write barrier on the old object).
"""

import numpy as np


def hijack_link_stamps(registry):
    registry._link_stamp = np.zeros(4)
