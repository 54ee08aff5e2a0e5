"""Structured errors, and the frozen record base, shared across the package.

Every error carries a stable machine-readable ``code`` and an optional
``hint``.  Validation failures (bad user input) map to process exit code 2,
internal invariant violations to exit code 1; the CLI reads ``exit_code``
off the exception rather than guessing from the type.

A FrozenRecord stores its fields by a plain loop over its slots' setters.
The package mints few records (1,718 per grid sweep, 1 to 16 per other CLI
command, component JSON's one or two rootdata.RunRows included), so the
loop costs the grid about 2 ms and needs no generated code.
"""

from __future__ import annotations

from operator import attrgetter


class LlcError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "error"
    exit_code = 2

    def __init__(self, message: str, *, hint: str | None = None, code: str | None = None):
        super().__init__(message)
        self.message = message
        self.hint = hint
        if code is not None:
            self.code = code

    def to_json(self) -> dict:
        # hint is always present (null when there is nothing to suggest) so
        # consumers can rely on the {code, message, hint} shape
        return {"code": self.code, "message": self.message, "hint": self.hint}


class InvalidArgument(LlcError):
    code = "invalid-argument"


class InvalidRank(LlcError):
    code = "invalid-rank"


class InvalidPrime(LlcError):
    code = "invalid-prime"


class InvalidPrimePower(LlcError):
    code = "invalid-prime-power"


class UnsupportedFamily(LlcError):
    code = "unsupported-family"


class InternalError(LlcError):
    """An invariant the library promised to maintain was violated."""

    code = "internal-error"
    exit_code = 1


class FrozenRecord:
    """An immutable value record whose fields are the ``__slots__`` of its classes.

    A record is built from its fields by position or by keyword, equals a
    record of the same class with equal fields (and hashes alike), and
    refuses assignment and deletion.  Its repr names every field.
    A subclass that validates or derives its fields does so in its own
    ``__init__`` and stores them with ``self._fill(...)``.
    ``cls._make(...)`` mints a record from its fields, unchecked; copies
    and pickles go through it.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields in order, base classes' first; a class pattern reads them too
        fields = cls.__match_args__ = tuple(
            name for base in reversed(cls.__mro__) for name in vars(base).get("__slots__", ())
        )
        cls._values = attrgetter(*fields)  # of one field: its bare value
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)

    def __init__(self, *values, **named):
        if named:
            rest = self.__match_args__[len(values):]
            if named.keys() != set(rest):
                raise _arity_error(self)
            # the keyword values follow the positional ones, in field order
            values += tuple(map(named.pop, rest))
        self._fill(*values)

    def _fill(self, *values):
        """Store the fields in order by their slots' setters, one value each."""
        setters = self._setters
        if len(values) != len(setters):
            raise _arity_error(self)
        for store, value in zip(setters, values):
            store(self, value)

    @classmethod
    def _make(cls, *values):
        record = object.__new__(cls)
        record._fill(*values)
        return record

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default reduction restores slots by assignment, which is refused,
        # and a constructor may take other arguments than the fields
        return self._make, tuple(getattr(self, name) for name in self.__match_args__)


def _arity_error(record: FrozenRecord) -> TypeError:
    fields = ", ".join(record.__match_args__)
    return TypeError(f"{type(record).__name__} takes the fields {fields}")
