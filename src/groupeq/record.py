"""Immutable records: the one base class of the package's frozen value types.

A subclass lists its fields as annotations (inherited fields first, class
values as defaults) and gets ``__init__`` by position or keyword, then
``__post_init__``; ``==``, ``hash``, ``repr`` and ``replace(**changes)`` over
the fields; and ``AttributeError`` on assignment or deletion. ``==`` compares
instance dicts, so what ``__post_init__`` stores with ``object.__setattr__``
must be a function of the fields. Nothing is generated per class, so no
command imports ``dataclasses``, ``inspect`` or ``ast``; ``python -X
importtime -c "import groupeq.cli"`` shows the import tree.
"""


class Record:
    __slots__ = ("__dict__", "_hash")      # a slot keeps the cached hash out of ==
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        own = [n for n in cls.__dict__.get("__annotations__", ()) if n not in cls._fields]
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls._fields += tuple(own)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        object.__setattr__(self, "__dict__", dict(zip(self._fields, args)))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or set(kwargs).difference(fields[len(args):])
                or len(values) < len(fields)):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}, "
                            f"not {len(args)} positional and {sorted(kwargs)} keyword arguments")
        return [values[f] for f in fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(tuple(map(self.__dict__.get, self._fields))))
            return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes) -> "Record":
        return type(self)(**{**{f: self.__dict__[f] for f in self._fields}, **changes})
