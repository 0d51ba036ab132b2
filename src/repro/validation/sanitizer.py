"""Runtime ownership sanitizer: write barriers proving the static verdicts.

The static layer (:mod:`repro.lint.ownership` + the RACE/OWN rules)
*claims* that the runtime-guarded shared arrays — the Network per-link
arrays and every FlowStore column — are only ever mutated by the
functions named in the ownership table. This module asserts the same
claim dynamically: while a sanitizer is attached to a network, the
guarded arrays are locked (``ndarray.flags.writeable = False``) except
inside a sanctioned writer, whose class-level wrapper lifts the barriers
for the duration of the call and re-locks afterwards (re-fetching each
attribute, because writers like ``_refill_full`` and ``FlowStore._grow``
legitimately rebind their arrays). A write from anywhere else raises
numpy's ``ValueError: assignment destination is read-only`` — turning a
latent race into a deterministic, attributable crash under
``repro validate --fuzz --sanitize``.

The wrapper set is *derived from the ownership table*, not hand-listed:
every writer name of a ``runtime_guarded`` entry is resolved against the
Flow property setters, then FlowStore, then Network.

Wrappers are installed on the *classes* (FlowStore uses ``__slots__``,
so per-instance patching is impossible) and are refcounted: instances
without an attached sanitizer take a dictionary miss and fall through to
the original method, which is why an instrumented fuzz process can still
run unsanitized reference twins — and why the settle/control-plane
twin runs inside ``run_case`` double as the bit-identical proof that
instrumentation changes nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.lint.ownership import OWNERSHIP

__all__ = ["OwnershipSanitizer", "guarded_network_attrs", "guarded_column_attrs"]


def guarded_network_attrs() -> Tuple[str, ...]:
    """Runtime-guarded Network array attributes, table order."""
    return tuple(
        state.attr
        for state in OWNERSHIP
        if state.owner_class == "Network" and state.runtime_guarded
    )


def guarded_column_attrs() -> Tuple[str, ...]:
    """Runtime-guarded FlowStore column attributes, table order."""
    return tuple(
        state.attr
        for state in OWNERSHIP
        if state.owner_class == "FlowStore" and state.runtime_guarded
    )


def _guarded_writer_names() -> Tuple[str, ...]:
    """Every sanctioned writer of any runtime-guarded entry (sorted)."""
    names = set()
    for state in OWNERSHIP:
        if state.runtime_guarded:
            names.update(state.writers)
    names.discard("__init__")  # guards attach post-construction
    return tuple(sorted(names))


#: Sanitizers by id(network) and id(flow_store) — how a class-level
#: wrapper finds the barrier state of the instance it was called on.
_ACTIVE_NETWORKS: Dict[int, "OwnershipSanitizer"] = {}
_ACTIVE_STORES: Dict[int, "OwnershipSanitizer"] = {}

#: (class, attribute name, original object) for every installed wrapper,
#: plus the refcount of attached sanitizers sharing them.
_INSTALLED: List[Tuple[type, str, Any]] = []
_INSTALL_COUNT = 0


def _network_lookup(
    instance: Any, args: Tuple[Any, ...]
) -> Optional["OwnershipSanitizer"]:
    return _ACTIVE_NETWORKS.get(id(instance))


def _store_lookup(
    instance: Any, args: Tuple[Any, ...]
) -> Optional["OwnershipSanitizer"]:
    return _ACTIVE_STORES.get(id(instance))


def _flow_lookup(
    instance: Any, args: Tuple[Any, ...]
) -> Optional["OwnershipSanitizer"]:
    store = getattr(instance, "_store", None)
    if store is None:
        # bind_store(store, row) runs before self._store is set; the
        # store being bound is the first positional argument.
        for arg in args[:1]:
            return _ACTIVE_STORES.get(id(arg))
        return None
    return _ACTIVE_STORES.get(id(store))


def _wrap(
    original: Callable[..., Any],
    lookup: Callable[[Any, Tuple[Any, ...]], Optional["OwnershipSanitizer"]],
) -> Callable[..., Any]:
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        sanitizer = lookup(self, args)
        if sanitizer is None:
            return original(self, *args, **kwargs)
        sanitizer._unlock()
        try:
            return original(self, *args, **kwargs)
        finally:
            sanitizer._relock()

    wrapper.__name__ = getattr(original, "__name__", "wrapped")
    wrapper.__doc__ = original.__doc__
    wrapper.__sanitizer_wrapped__ = original  # type: ignore[attr-defined]
    return wrapper


def _install_wrappers() -> None:
    """Wrap every sanctioned writer on Flow / FlowStore / Network once."""
    from repro.simulator.flows import Flow
    from repro.simulator.flowstore import FlowStore
    from repro.simulator.network import Network

    for name in _guarded_writer_names():
        flow_member = Flow.__dict__.get(name)
        if isinstance(flow_member, property) and flow_member.fset is not None:
            _INSTALLED.append((Flow, name, flow_member))
            setattr(
                Flow,
                name,
                property(
                    flow_member.fget,
                    _wrap(flow_member.fset, _flow_lookup),
                    flow_member.fdel,
                    flow_member.__doc__,
                ),
            )
            continue
        if callable(flow_member):
            _INSTALLED.append((Flow, name, flow_member))
            setattr(Flow, name, _wrap(flow_member, _flow_lookup))
            continue
        store_member = FlowStore.__dict__.get(name)
        if callable(store_member):
            _INSTALLED.append((FlowStore, name, store_member))
            setattr(FlowStore, name, _wrap(store_member, _store_lookup))
            continue
        network_member = Network.__dict__.get(name)
        if callable(network_member):
            _INSTALLED.append((Network, name, network_member))
            setattr(Network, name, _wrap(network_member, _network_lookup))
        # A writer resolving to none of the three has nothing to wrap.


def _remove_wrappers() -> None:
    while _INSTALLED:
        cls, name, original = _INSTALLED.pop()
        setattr(cls, name, original)


class OwnershipSanitizer:
    """Write-barrier guard over one network's registered shared arrays.

    Use as a context manager (tests) or install/uninstall explicitly
    (the fuzz harness's ``instrument`` hook installs; the harness never
    uninstalls mid-run, the network dies with the case)::

        with OwnershipSanitizer(network):
            engine.run_until(...)

    While attached, any mutation of a guarded array outside a sanctioned
    writer raises ``ValueError`` (numpy's read-only assignment error).
    """

    def __init__(self, network: Any) -> None:
        self.network = network
        self.store = network.flow_store
        self._depth = 0
        self._attached = False

    # -- barrier mechanics -------------------------------------------------

    def _iter_arrays(self) -> Iterator[np.ndarray]:
        """Current guarded arrays, re-fetched to chase writer rebinds."""
        for attr in guarded_network_attrs():
            array = getattr(self.network, attr, None)
            if isinstance(array, np.ndarray):
                yield array
        for attr in guarded_column_attrs():
            array = getattr(self.store, attr, None)
            if isinstance(array, np.ndarray):
                yield array

    def _set_writeable(self, writeable: bool) -> None:
        for array in self._iter_arrays():
            array.flags.writeable = writeable

    def _unlock(self) -> None:
        self._depth += 1
        if self._depth == 1:
            self._set_writeable(True)

    def _relock(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            self._set_writeable(False)

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> "OwnershipSanitizer":
        """Attach: wrap the writers (first install) and lock the arrays."""
        global _INSTALL_COUNT
        if self._attached:
            return self
        if _INSTALL_COUNT == 0:
            _install_wrappers()
        _INSTALL_COUNT += 1
        _ACTIVE_NETWORKS[id(self.network)] = self
        _ACTIVE_STORES[id(self.store)] = self
        self._attached = True
        self._set_writeable(False)
        return self

    def uninstall(self) -> None:
        """Detach: unlock the arrays, drop the wrappers when last out."""
        global _INSTALL_COUNT
        if not self._attached:
            return
        self._set_writeable(True)
        _ACTIVE_NETWORKS.pop(id(self.network), None)
        _ACTIVE_STORES.pop(id(self.store), None)
        self._attached = False
        _INSTALL_COUNT -= 1
        if _INSTALL_COUNT == 0:
            _remove_wrappers()

    def __enter__(self) -> "OwnershipSanitizer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()
