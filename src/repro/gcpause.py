"""Suspending cyclic garbage collection around allocation-heavy phases."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_suspended"]


@contextmanager
def gc_suspended() -> Iterator[None]:
    """Suspend cyclic GC for the block, then restore the caller's setting.

    Meant for phases that allocate heavily and keep what they allocate
    reachable until they return (the engine's run loop, fleet placement):
    collection passes inside them free nothing, and at fleet scale each
    full pass walks the whole heap.  Cycles made in the block are reclaimed
    by the first collection after it.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
