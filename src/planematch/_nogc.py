"""Pause the cyclic garbage collector for the length of a call.

A solve allocates hundreds of thousands of tuples, lists and dicts, none of
which form reference cycles: reference counting frees every one of them,
and ``tests/test_nogc.py`` pins that a solve leaves no cyclic garbage. The
collector's passes over those young objects therefore find nothing to free.
The pause is process-wide while the call runs and the caller's setting is
restored afterwards, also when the call raises. The same idea as
Mercurial's ``util.nogc``.
"""
from __future__ import annotations

import functools
import gc


def nogc(fn):
    """Run ``fn`` with the cyclic collector disabled; a no-op when the
    caller already disabled it."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused
