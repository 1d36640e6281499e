"""Immutable value classes, built at import for a fraction of the cost.

``@frozen`` gives a class the methods of a frozen dataclass, written from
its annotated fields in order: ``__init__`` (defaults, then
``__post_init__`` when the class has one), a dataclass-style
``__repr__``, ``__eq__`` and ``__hash__`` over the field tuple, and an
``AttributeError`` on assignment or deletion.  The methods
are generated as source, as the standard library's ``dataclass`` does,
so they run as fast as its methods; that module itself imports
``inspect`` and ``ast``, which would cost every command-line call
several milliseconds.  ``__init__`` stores the fields with
``object.__setattr__``: writing to ``__dict__`` instead would turn the
instance's attributes into a plain dict, which is slower to read.

``trusted(cls)`` is the one maker of ``cls`` instances that skips
validation, for values valid by construction: a function of the fields
that stores them with the lines of ``__init__`` and calls no
``__post_init__``, generated only for the classes that ask for it.
"""

from __future__ import annotations

from typing import Callable

# the parameter list, field stores and namespace of each class's ``__init__``
_SOURCES: dict[type, tuple[str, str, dict]] = {}


def _refuse_assignment(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls: type) -> type:
    """Add the frozen-dataclass methods to ``cls``; see the module."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    namespace = {"store": object.__setattr__}
    namespace.update((f"default_{name}", cls.__dict__[name]) for name in names if name in cls.__dict__)
    params = ", ".join(f"{name}=default_{name}" if f"default_{name}" in namespace else name for name in names)
    stores = "".join(f"    store(self, {name!r}, {name})\n" for name in names)
    post_init = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    mine = "".join(f"self.{name}, " for name in names)
    theirs = "".join(f"other.{name}, " for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    exec(
        f"def __init__(self, {params}):\n"
        f"{stores}{post_init}"
        "def __repr__(self):\n"
        f'    return f"{{self.__class__.__qualname__}}({shown})"\n'
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n",
        namespace,
    )
    for method in ("__init__", "__repr__", "__eq__", "__hash__"):
        function = namespace[method]
        function.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, function)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    _SOURCES[cls] = (params, stores, namespace)
    return cls


def trusted(cls: type) -> Callable[..., object]:
    """A maker of ``cls`` instances that skips validation; see the module."""
    params, stores, namespace = _SOURCES[cls]
    namespace = {**namespace, "new": object.__new__, "cls": cls}
    exec(f"def trusted({params}):\n    self = new(cls)\n{stores}    return self\n", namespace)
    function = namespace["trusted"]
    function.__qualname__ = f"trusted({cls.__qualname__})"
    return function
