"""The base class of the package's records.

A record is a plain class: its fields are its `__slots__`, set by an
`__init__` of its own. Nothing is generated when a record class is built, so
importing the package executes no generated code.
"""


class Record:
    """Records of one class with equal fields are equal, and a record shows
    as Name(field=value, ...). Records are not hashable: nothing keys on
    one."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
