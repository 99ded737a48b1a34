"""Type and shape checks for values read from JSON input: preset files and
the files given to `--datum` and `testfn --config`.

Each check returns the value it reads, or raises MalformedInput naming the
key that holds a value of the wrong type or shape; the command line adds
the option and the file to that message and exits 2.
"""

from __future__ import annotations


class MalformedInput(ValueError):
    """A value of the wrong type or shape in JSON input; the message names
    its key."""

    def __init__(self, key, problem):
        super().__init__("key %r: %s" % (key, problem))


_KINDS = {int: "an integer", bool: "a boolean", str: "a string", dict: "an object",
          list: "a list"}


def json_field(data, key, kind, default=None):
    """data[key] of a JSON object, checked to be a `kind` of `_KINDS` (a
    boolean is not an integer, and a tuple is a list); `default` when the
    key is absent and a default is given."""
    if key not in data:
        if default is None:
            raise MalformedInput(key, "missing")
        return default
    value = data[key]
    ok = (type(value) is int if kind is int
          else isinstance(value, (list, tuple) if kind is list else kind))
    if not ok:
        raise MalformedInput(key, "expected %s, got %s"
                             % (_KINDS[kind], type(value).__name__))
    return value


def _is_int_list(value):
    return isinstance(value, (list, tuple)) and all(type(x) is int for x in value)


def json_ints(data, key):
    """data[key] as an int tuple: a list of integers."""
    value = json_field(data, key, list)
    if not _is_int_list(value):
        raise MalformedInput(key, "expected a list of integers")
    return tuple(value)


def json_int_rows(data, key, width, count=None):
    """data[key] as int tuples: a list of lists of `width` integers each,
    and of `count` lists when a count is given."""
    rows = json_field(data, key, list)
    if count is not None and len(rows) != count:
        raise MalformedInput(key, "%d rows, expected %d" % (len(rows), count))
    for i, row in enumerate(rows):
        if not _is_int_list(row):
            raise MalformedInput(key, "row %d is not a list of integers" % i)
        if len(row) != width:
            raise MalformedInput(key, "row %d has %d entries, expected %d (the rank)"
                                 % (i, len(row), width))
    return tuple(map(tuple, rows))
