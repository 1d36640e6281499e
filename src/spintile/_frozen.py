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
"""

from __future__ import annotations

_MISSING = object()


def _refuse_assignment(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls: type) -> type:
    """Add the frozen-dataclass methods to ``cls``; see the module."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    namespace = {"store": object.__setattr__}
    params, body = [], []
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        if default is not _MISSING:
            namespace[f"default_{name}"] = default
            params.append(f"{name}=default_{name}")
        else:
            params.append(name)
        body.append(f"store(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{name}, " for name in names)
    theirs = "".join(f"other.{name}, " for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    newline = "\n    "
    exec(
        f"def __init__(self, {', '.join(params)}):\n"
        f"    {newline.join(body)}\n"
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
    return cls
