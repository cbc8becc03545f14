"""Test helpers for the observability facilities."""

from repro.obs.recorder import FlightRecorder


def swap_recorder(store, **kwargs):
    """Give ``store`` a fresh :class:`FlightRecorder` built with ``kwargs``
    — the ring's size is fixed at construction — attached wherever the
    store attaches its own.  Returns the new recorder."""
    recorder = FlightRecorder(**kwargs)
    store.recorder = recorder
    store.event_log.recorder = recorder
    return recorder
