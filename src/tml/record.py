"""Frozen value classes without ``dataclasses``.

A subclass of ``Record`` declares its fields as annotated names in its
body, as a dataclass does, and gets what ``@dataclass(frozen=True)``
would generate for it: an ``__init__`` taking the fields by position or
keyword, with a value assigned in the class body as the default; a
``__repr__`` naming each field; ``__eq__`` and ``__hash__`` over the
tuple of fields, equal only to an instance of the same class; and
``AttributeError`` on assigning or deleting a field.

The methods are shared, not generated: a dataclass compiles its methods
with ``exec``, about a millisecond per class, and importing
``dataclasses`` loads ``inspect`` and ``ast``, about ten more, on every
start of the command line.  Classes on a hot path define ``__slots__``,
``__init__``, ``__eq__`` and ``__hash__`` themselves, over the same
fields, and take only the repr and the freeze from here.
"""

from __future__ import annotations

from typing import Any

_MISSING = object()


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = type(self)
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            value = kwargs.pop(name) if name in kwargs else getattr(cls, name, _MISSING)
            if value is _MISSING:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__} got an unexpected field {next(iter(kwargs))!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
