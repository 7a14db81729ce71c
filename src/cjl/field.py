"""Ground fields: the rationals and prime fields.

Field elements are plain Python values (``fractions.Fraction`` for Q,
``int`` in ``[0, p)`` for F_p); a field object bundles the operations so
that linear algebra and polynomial code can stay generic.  Rationals are
kept in lowest terms with positive denominator — ``Fraction`` maintains
exactly that invariant, which is why it is used directly.

The readers at the end (``read_scalar``, ``read_int``, ``read_nested``)
decide for every JSON document what counts as a scalar, an integer or a
list, and put the path of the bad value on every error.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError


class QQ:
    """The field of rational numbers, elements are ``Fraction``."""

    name = "Q"
    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    @staticmethod
    def div(a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0

    @staticmethod
    def eq(a, b) -> bool:
        return a == b

    @staticmethod
    def from_int(n: int):
        return Fraction(n)

    @staticmethod
    def parse(s: str):
        """Parse ``"3"``, ``"-3"`` or ``"3/2"`` (reduced on the way in)."""
        s = s.strip()
        try:
            if "/" in s:
                num, den = s.split("/")
                f = Fraction(int(num), int(den))
            else:
                f = Fraction(int(s))
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"bad rational literal {s!r}: {e}")
        return f

    @staticmethod
    def format(a) -> str:
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, QQ)

    def __hash__(self):
        return hash("QQ")


class GFp:
    """The prime field F_p, elements are ints in ``[0, p)``.

    p must be below 2^31, so that trial division decides primality in at
    most isqrt(2^31) = 46341 steps.
    """

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValidationError("p must be an integer")
        if p >= 2**31:
            raise ValidationError(f"p must be below 2^31, got {p}")
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValidationError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def eq(self, a, b) -> bool:
        return (a - b) % self.p == 0

    def from_int(self, n: int):
        return n % self.p

    def parse(self, s: str):
        s = s.strip()
        try:
            if "/" in s:
                num, den = s.split("/")
                return self.div(int(num) % self.p, int(den) % self.p)
            return int(s) % self.p
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"bad F{self.p} literal {s!r}: {e}")

    def format(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"GFp({self.p})"

    def __eq__(self, other):
        return isinstance(other, GFp) and other.p == self.p

    def __hash__(self):
        return hash(("GFp", self.p))


def field_from_json(obj: dict, path: str = ""):
    """Build a field from the ``{"field": "Q"|"Fp", "p": ...}`` convention;
    ``path`` locates ``obj`` in its document, and errors name the key."""
    name = obj.get("field")
    if name == "Q":
        return QQ()
    if name == "Fp":
        if "p" not in obj:
            raise ValidationError("field Fp needs a prime p", path + "/p")
        with located(path, "p"):
            return GFp(obj["p"])
    raise ValidationError(f"unknown field {name!r}", path + "/field")


# ---------------------------------------------------------------------------
# reading JSON documents
# ---------------------------------------------------------------------------
# Every reader takes a value, the path of the document it comes from and the
# keys that lead to the value below that path.  The path string is formatted
# only when a reader raises.

def json_path(path: str, keys) -> str:
    return "/".join([path, *map(str, keys)])


class located:
    """Context manager: a ValidationError raised inside that carries no
    path yet gets the path of ``keys`` below ``path``."""

    __slots__ = ("path", "keys")

    def __init__(self, path: str, *keys):
        self.path = path
        self.keys = keys

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ValidationError) and not exc.path:
            exc.path = json_path(self.path, self.keys)
        return False


def read_int(x, path: str, *keys) -> int:
    """An integer (indices, dims, degrees, ranks, ``lo``): a JSON integer
    that is not a bool."""
    if type(x) is int:
        return x
    raise ValidationError("expected an integer", json_path(path, keys))


def read_str(x, path: str, *keys) -> str:
    if type(x) is str:
        return x
    raise ValidationError("expected a string", json_path(path, keys))


def read_scalar(F, x, path: str, *keys):
    """An element of ``F``: a JSON integer that is not a bool, or a string
    literal that ``F.parse`` accepts ("3", "-3/2")."""
    if type(x) is str:
        try:
            return F.parse(x)
        except ValidationError as exc:  # ``located`` inlined: once per scalar
            exc.path = json_path(path, keys)
            raise
    if type(x) is int:
        return F.from_int(x)
    raise ValidationError("scalar must be an integer or a string literal",
                          json_path(path, keys))


def read_nested(x, depth: int, leaf, path: str, *keys) -> tuple:
    """A list nested ``depth`` levels deep, as nested tuples holding
    ``leaf(entry, path, *keys_of_entry)`` at the bottom level."""
    if type(x) is not list:
        raise ValidationError("expected a list", json_path(path, keys))
    if depth == 1:
        return tuple([leaf(e, path, *keys, k) for k, e in enumerate(x)])
    return tuple([read_nested(e, depth - 1, leaf, path, *keys, k)
                  for k, e in enumerate(x)])
