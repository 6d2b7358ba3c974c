"""Value semantics for the frozen dataclasses that hold numpy arrays.

A ``Value`` subclass is a ``@dataclass(frozen=True, eq=False)`` that sets its
fields with ``_store``, each array as a read-only copy: a caller that reuses
an array changes nothing the object checked or derived from it (a code's
cached sign matrix, say).  Objects of one class whose init fields are equal,
arrays by shape and bytes, compare and hash equal.  Pickling goes through
the constructor.  No ``__slots__``: ``cached_property`` needs ``__dict__``.
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
