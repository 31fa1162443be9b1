"""Exception types shared by all modules, and how their messages quote a value."""

# the most characters of a value an error message quotes in full
BRIEF_CHARS = 80


def brief(value):
    """``value`` as an error message quotes it: a string in quotes, anything else printed.

    Past :data:`BRIEF_CHARS` characters the middle is cut out and the full
    length given, so one line names a value of any size.  A value that
    ``str`` refuses, an integer past the interpreter's digit limit, is
    named as such.
    """
    try:
        text = repr(value) if isinstance(value, str) else str(value)
    except ValueError:  # str() of an int with more digits than sys.get_int_max_str_digits()
        return "<a number too long to print>"
    if len(text) <= BRIEF_CHARS:
        return text
    return "%s...%s (%d characters)" % (text[:36], text[-16:], len(text))


class ValidationError(ValueError):
    """Bad arguments: malformed shapes, out-of-range indices, schema violations."""


class CrystalFault(RuntimeError):
    """An internal consistency assertion failed; carries a reproducing witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
