"""Record types that check their values: ``typing.NamedTuple`` classes built
through one ``__new__``.

A NamedTuple class builds its methods without generating and compiling
code, so the package's immutable records cost little at import. Its body
may not define ``__new__``, and its ``_make`` (which ``_replace`` calls)
builds with ``tuple.__new__``; ``record_type`` subclasses it so that every
record passes the same checks however it is built.
"""

from __future__ import annotations


def record_type(base):
    """``base``, a NamedTuple class, as a subclass of the same name whose
    every record comes from its ``__new__``: the constructor's, ``_make``'s
    and ``_replace``'s alike.

    A field left out gets a copy of its default where that is a dict or a
    list, so no two records share one. Where ``base`` defines ``_checked``,
    it is called on a ``base`` record of the values given: it raises on a
    bad value and returns the record to keep, itself or, by ``_replace``,
    one with normalised values.
    """
    fresh = [(base._fields.index(name), name, default)
             for name, default in base._field_defaults.items() if type(default) in (dict, list)]
    check = getattr(base, "_checked", None)

    def __new__(cls, *args, **kwargs):
        for i, name, default in fresh:
            if i >= len(args) and name not in kwargs:
                kwargs[name] = default.copy()
        values = base.__new__(base, *args, **kwargs)
        return tuple.__new__(cls, values if check is None else check(values))

    return type(base.__name__, (base,), {
        "__slots__": (), "__new__": __new__, "__module__": base.__module__,
        "__qualname__": base.__qualname__, "__doc__": base.__doc__,
        "__annotations__": base.__annotations__,
        "_make": classmethod(lambda cls, iterable: cls(*iterable)),
    })
