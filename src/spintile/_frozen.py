"""Immutable value classes, built at import for a fraction of the cost.

``@frozen`` gives a class the methods of a frozen dataclass over its
annotated fields in order, without importing ``dataclasses`` (it imports
``inspect`` and ``ast``, milliseconds of every command-line call).  One
``exec`` per class generates what must run as straight-line code:
``__init__`` (defaults, then ``__post_init__`` when the class has one)
and the maker ``trusted(cls)`` returns, the one maker that skips
validation, for values valid by construction.  Both store each field with
``object.__setattr__``; writing to ``__dict__`` would make the attributes
a plain dict, slower to read.  Every frozen class shares a dataclass-style
``__repr__``, ``__eq__`` and ``__hash__`` over the field tuple, which its
own ``operator.attrgetter`` reads (so it needs two fields or more), and
an ``AttributeError`` on assignment or deletion.  Generating those three
per class took about a seventh of the package's import time.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable

_TRUSTED: dict[type, Callable[..., object]] = {}


def _refuse_assignment(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(self) -> str:
    return self.__class__.__qualname__ + self._repr_format.format(*self._field_values(self))


def _eq(self, other: object) -> bool:
    if other.__class__ is self.__class__:
        return self._field_values(self) == other._field_values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(self._field_values(self))


def frozen(cls: type) -> type:
    """Add the frozen-dataclass methods to ``cls``; see the module."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    if len(names) < 2:
        raise TypeError(f"{cls.__qualname__}: a frozen class needs two fields or more")
    namespace = {"store": object.__setattr__, "new": object.__new__, "cls": cls}
    namespace.update((f"default_{name}", cls.__dict__[name]) for name in names if name in cls.__dict__)
    params = ", ".join(f"{name}=default_{name}" if f"default_{name}" in namespace else name for name in names)
    stores = "".join(f"    store(self, {name!r}, {name})\n" for name in names)
    post_init = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    exec(
        f"def __init__(self, {params}):\n{stores}{post_init}"
        f"def trusted({params}):\n    self = new(cls)\n{stores}    return self\n",
        namespace,
    )
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    _TRUSTED[cls] = namespace["trusted"]
    _TRUSTED[cls].__qualname__ = f"trusted({cls.__qualname__})"
    cls._field_values = attrgetter(*names)
    cls._repr_format = f"({', '.join(f'{name}={{!r}}' for name in names)})"
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def trusted(cls: type) -> Callable[..., object]:
    """A maker of ``cls`` instances that skips validation; see the module."""
    return _TRUSTED[cls]
