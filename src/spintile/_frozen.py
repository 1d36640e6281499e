"""Immutable value classes, each compiled only as far as it is used.

``@frozen`` gives a class the methods of a frozen dataclass over its
annotated fields in order, without importing ``dataclasses`` (it imports
``inspect`` and ``ast``, milliseconds of every command-line call).  One
``exec`` generates each piece that must run as straight-line code: the
class's ``__init__`` (defaults, then ``__post_init__`` when the class has
one), and the maker ``trusted(cls)`` returns, the one maker that skips
validation, for values valid by construction.  Neither is compiled at
import: ``__init__`` is a stub until the first construction, which
compiles the real one and installs it over the stub, and a maker is
compiled by the first ``trusted(cls)``.  A command-line call imports
many classes and builds few, so it pays one ``exec`` for each class it
builds, not for each class it imports.  Both store each field with
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

# each frozen class's field names, in order, and its defaults, by the
# names the generated code gives them
_FIELDS: dict[type, tuple[tuple[str, ...], dict[str, object]]] = {}
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


def _compile(cls: type, name: str) -> Callable[..., object]:
    """``cls``'s ``__init__`` or its maker ``trusted``, in one ``exec``."""
    names, defaults = _FIELDS[cls]
    namespace = {"store": object.__setattr__, "new": object.__new__, "cls": cls, **defaults}
    params = ", ".join(f"{field}=default_{field}" if f"default_{field}" in namespace else field for field in names)
    stores = "".join(f"    store(self, {field!r}, {field})\n" for field in names)
    if name == "__init__":
        post_init = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        exec(f"def __init__(self, {params}):\n{stores}{post_init}", namespace)
        qualname = f"{cls.__qualname__}.__init__"
    else:
        exec(f"def trusted({params}):\n    self = new(cls)\n{stores}    return self\n", namespace)
        qualname = f"trusted({cls.__qualname__})"
    function = namespace[name]
    function.__qualname__ = qualname
    return function


def frozen(cls: type) -> type:
    """Add the frozen-dataclass methods to ``cls``; see the module."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    if len(names) < 2:
        raise TypeError(f"{cls.__qualname__}: a frozen class needs two fields or more")
    _FIELDS[cls] = names, {f"default_{name}": cls.__dict__[name] for name in names if name in cls.__dict__}

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls.__init__ = _compile(cls, "__init__")
        cls.__init__(self, *args, **kwargs)

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = __init__
    cls._field_values = attrgetter(*names)
    cls._repr_format = f"({', '.join(f'{name}={{!r}}' for name in names)})"
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


def trusted(cls: type) -> Callable[..., object]:
    """A maker of ``cls`` instances that skips validation; see the module."""
    maker = _TRUSTED.get(cls)
    if maker is None:
        maker = _TRUSTED[cls] = _compile(cls, "trusted")
    return maker
