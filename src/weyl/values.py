"""Frozen value classes: the one base of every record type in the package.

A subclass names its constructor's parameters, in order, in _fields, and
the defaults of a trailing run of them in _defaults.  Value.__init__ binds
positional and keyword arguments to them, sets each on the instance and
then calls __post_init__, which may check the values and, through _derive,
replace them with their normal form and set derived ones.  == and hash read
the fields in _compared and repr shows those in _shown, both _fields unless
the class sets them; two instances are equal only when their classes are
the same.  Assignment and deletion raise FrozenInstanceError, an
AttributeError.  Instances keep a __dict__, which functools.cached_property
and the classes' own derived values are written to.

Nothing is generated or compiled at import: the standard library's
decorator for such classes, with the modules it loads (inspect, ast, dis,
tokenize), took about a fifth of each CLI start-up.
"""

from __future__ import annotations

from operator import attrgetter


# object.__setattr__ stores into the instance's own attribute slots; a write
# through self.__dict__ would build a dict object, and CPython 3.11 then reads
# each attribute about four times slower
_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a Value."""


class Value:
    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}
    _compared: tuple = ()
    _shown: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        if "_fields" in own:
            cls._compared = own.get("_compared", cls._fields)
            cls._shown = own.get("_shown", cls._fields)
        cls._key = staticmethod(_key_getter(cls._compared))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = _bind(self, names, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _derive(self, **values):
        """Set fields or derived attributes on the frozen instance, once, at
        construction (__post_init__)."""
        for name, value in values.items():
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _key_getter(names: tuple):
    """obj -> the tuple of obj's attributes names."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _bind(obj: Value, names: tuple, args: tuple, kwargs: dict) -> tuple:
    """The values of obj's fields, in order, from args and kwargs bound as a
    constructor with parameters names (and obj's _defaults) binds them; a
    TypeError where they do not bind."""
    where, defaults = f"{type(obj).__qualname__}.__init__()", obj._defaults
    if len(args) > len(names):
        least = len(names) - len(defaults) + 1
        takes = f"from {least} to " if defaults else ""
        raise TypeError(f"{where} takes {takes}{len(names) + 1} positional arguments "
                        f"but {len(args) + 1} were given")
    for name in names[:len(args)]:
        if name in kwargs:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
    given = dict(zip(names, args), **kwargs)
    missing = [repr(name) for name in names if name not in given and name not in defaults]
    if missing:
        listed = missing[0] if len(missing) == 1 else " and ".join(missing) if len(missing) == 2 \
            else ", ".join(missing[:-1]) + ", and " + missing[-1]
        raise TypeError(f"{where} missing {len(missing)} required positional "
                        f"argument{'s' if len(missing) > 1 else ''}: {listed}")
    return tuple(given[name] if name in given else defaults[name] for name in names)
