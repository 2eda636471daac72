"""Frozen value records: a light stand-in for @dataclass(frozen=True).

@record makes a class a record of its annotated fields, after those of a
record base class. It compiles one __init__ for the class, which calls
__post_init__ if the class has one; __eq__, __hash__ and __repr__ are
closures over the field names, and assigning or deleting an attribute
raises AttributeError. Two records are equal when they are of one class
and their field tuples are equal; the hash is the hash of the field tuple
and the repr is Name(field=value, ...), as a frozen dataclass has them. A
method the class writes itself is kept.
"""

from operator import attrgetter


def _key(names):
    """self -> the tuple of its fields."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


def _frozen_set(self, name, value):
    raise AttributeError("cannot assign to field %r" % name)


def _frozen_del(self, name):
    raise AttributeError("cannot delete field %r" % name)


def record(cls):
    names = getattr(cls, "_fields", ()) + tuple(cls.__annotations__)
    key = _key(names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(names, key(self))))

    if "__init__" not in cls.__dict__:
        params = "".join(", %s=_c.%s" % (n, n) if hasattr(cls, n) else ", " + n
                         for n in names)
        # object.__setattr__ keeps the values inline; reading self.__dict__
        # would build a dict per instance, which is larger and slower to read
        body = ["_set(self, %r, %s)" % (n, n) for n in names] or ["pass"]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        scope = {"_c": cls, "_set": object.__setattr__}
        exec("def __init__(self%s):\n    %s"
             % (params, "\n    ".join(body)), scope)
        cls.__init__ = scope["__init__"]
    for name, method in (("__eq__", __eq__), ("__hash__", __hash__),
                         ("__repr__", __repr__), ("__setattr__", _frozen_set),
                         ("__delattr__", _frozen_del)):
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls._fields = names
    return cls
