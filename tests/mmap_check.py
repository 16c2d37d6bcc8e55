"""The zero-copy check for arrays loaded from an index artifact."""

from __future__ import annotations

import mmap

import numpy as np


def assert_mmap_backed(array: np.ndarray) -> None:
    """``array`` is read-only, owns no data, and views an ``mmap`` mapping."""
    assert not array.flags.writeable
    assert not array.flags.owndata
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base, mmap.mmap), f"{type(base).__name__} is not an mmap"
