"""Value semantics for the frozen dataclasses that hold numpy arrays.

A ``Value`` subclass is a ``@dataclass(frozen=True, eq=False)`` that sets its
fields with ``_store``, each array as a read-only copy: a caller that reuses
an array changes nothing the object checked or derived from it (a code's
cached sign matrix, say).  Objects of one class whose init fields are equal,
arrays by shape and bytes, compare and hash equal.  Pickling goes through
the constructor.  No ``__slots__``: ``cached_property`` needs ``__dict__``.

Arguments are checked here too, before any cast, by each public entry point
that takes indices or bits: ``index`` wants an integer dtype (not bool) in a
range, ``bits`` exactly 0 or 1 in any real dtype (256 and 0.5 are not cast to
0).  The batched simulation path draws its own arrays and checks none.
"""
from functools import cached_property

import numpy as np


class Value:
    def _store(self, **values) -> None:
        for name, v in values.items():
            if isinstance(v, np.ndarray):
                v = v.copy()
                v.setflags(write=False)
            object.__setattr__(self, name, v)

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)  # the init fields, in order

    @cached_property
    def _key(self) -> tuple:  # built at the first comparison or hash, then kept
        return type(self), *[(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in self._args()]

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, Value) else NotImplemented

    def __hash__(self):
        return hash(self._key)  # cheap after the first call: a bytes object keeps its hash

    def __reduce__(self):
        return type(self), self._args()


def index(v, size, what: str, first: int = 0) -> np.ndarray:
    """``v`` as an integer array with entries in first..first+size-1, or a ValueError that starts with ``what``."""
    v = np.asarray(v)
    if v.dtype.kind not in "iu" or np.any((v < first) | (v >= first + size)):
        raise ValueError(f"{what}: not an integer in {first}..{first + size - 1}")
    return v


def bits(v, what: str) -> np.ndarray:
    """``v`` as a uint8 array, or ValueError("<what> must be 0/1 valued") if an entry is not exactly 0 or 1."""
    v = np.asarray(v)
    if v.dtype.kind not in "biuf" or not np.all((v == 0) | (v == 1)):
        raise ValueError(f"{what} must be 0/1 valued")
    return v.astype(np.uint8, copy=False)
