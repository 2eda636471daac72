"""Exact dyadic rationals and closed dyadic intervals inside [0, 1].

A dyadic is num / 2**exp in lowest terms (exp == 0 or num odd). All the
connective arithmetic of the logic stays inside the dyadics: negation,
truncated subtraction, halving, min and max never leave the class, so
evaluation over a finite structure with dyadic distances is exact.
"""

from fractions import Fraction

from .records import record


_set = object.__setattr__


@record
class Dyadic:
    """num / 2**exp, canonicalized so exp == 0 or num is odd."""

    num: int
    exp: int = 0

    def __init__(self, num, exp=0):
        if exp < 0:
            num, exp = num << -exp, 0
        elif exp and not num & 1:
            # trailing zero bits, in one step; zero is 0/2^0
            shift = (num & -num).bit_length() - 1 if num else exp
            num, exp = (num >> shift, exp - shift) if shift < exp \
                else (num >> exp, 0)
        _set(self, "num", num)
        _set(self, "exp", exp)

    # equal and hashed as the record's field tuple, written out: it is hot

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.num == other.num and self.exp == other.exp
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.exp))

    # comparisons via cross-shifting, no Fraction round trip

    def _cmp(self, other):
        a = self.num << max(0, other.exp - self.exp)
        b = other.num << max(0, self.exp - other.exp)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __add__(self, other):
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    def __sub__(self, other):
        e = max(self.exp, other.exp)
        return Dyadic((self.num << (e - self.exp)) - (other.num << (e - other.exp)), e)

    def __mul__(self, other):
        return Dyadic(self.num * other.num, self.exp + other.exp)

    def as_fraction(self):
        return Fraction(self.num, 1 << self.exp)

    def __str__(self):
        if self.exp == 0:
            return str(self.num)
        return "%d/%d" % (self.num, 1 << self.exp)

    def __repr__(self):
        return "Dyadic(%s)" % self


ZERO = Dyadic(0)
ONE = Dyadic(1)
HALF = Dyadic(1, 1)

# The two sides of a real's cut in the dyadics: the members of a right
# numeral come from the dyadics above the real, of a left one from below
RIGHT = "right"
LEFT = "left"


def from_fraction(f):
    """Fraction -> Dyadic, rejecting non-dyadic denominators."""
    d = f.denominator
    exp = d.bit_length() - 1
    if (1 << exp) != d:
        raise ValueError("not a dyadic rational: %s" % f)
    return Dyadic(f.numerator, exp)


def _plain(text):
    """text, unless it holds a non-ASCII character or an underscore: int()
    and Fraction() would read non-ASCII digits and underscores in numbers."""
    if not text.isascii() or "_" in text:
        raise ValueError("not a plain ASCII number: %r" % text)
    return text


def natural(text):
    """A nonnegative integer in ASCII decimal digits, with no sign or space."""
    if not _plain(text).isdigit():
        raise ValueError("not a natural number: %r" % text)
    return int(text)


def rational(text):
    """Fraction(text), of ASCII text with no underscore."""
    return Fraction(_plain(text))


MAX_SCALE = 4096  # largest k of a 2^k or 10^k that parse_dyadic builds
# largest k of a/2^k in lowest terms: every numerator of a space carries k
# bits, and eval and classify of a numeral's code exit 3 from 1/2^985
# (under `python -m numerals`; the limit moves with the launcher's frames)
MAX_EXP = 1024


def parse_dyadic(text):
    """Accept "3/8", "3/2^3", "1", "0.75" style inputs. The plain a or a/b,
    in ASCII digits with b a power of two, is read first and directly; any
    other form goes through the general reader, which words every error. An
    exponent that makes the reader build 2^k or 10^k, the k of a/2^-k or of
    a decimal's e-k or ek, must be at most MAX_SCALE, checked before the
    power is built: 10^MAX_SCALE still prints within Python's 4300-digit
    limit."""
    num, slash, den = text.partition("/")
    if text.isascii() and num.isdigit() and (den.isdigit() or not slash):
        try:
            num, den = int(num), int(den) if slash else 1
        except ValueError:  # past int()'s digit limit: worded below
            den = 0
        if den and not den & (den - 1):
            return Dyadic(num, den.bit_length() - 1)
    try:
        text = _plain(text.strip())
        num, _, den = text.partition("/")
        base, caret, exp = den.partition("^")
        if caret and base.strip() != "2":
            raise ValueError
        if caret:
            scale = -int(exp)
        else:  # a decimal's exponent, if it has one
            scale = abs(int(text.lower().partition("e")[2] or 0))
        if caret and scale <= MAX_SCALE:
            return Dyadic(int(num), -scale)
        f = Fraction(text) if scale <= MAX_SCALE else None
    except (ValueError, ZeroDivisionError):
        raise ValueError("cannot parse dyadic %r" % text) from None
    if f is None:
        raise ValueError("exponent of %r is above %d in size"
                         % (text, MAX_SCALE))
    return from_fraction(f)


def in_unit(d):
    return ZERO <= d <= ONE


def require_unit(d, what="value"):
    if not in_unit(d):
        raise ValueError("%s out of [0,1]: %s" % (what, d))
    return d


# the three pointwise connectives on truth values

def neg(d):
    return ONE - d


def dotminus(a, b):
    c = a - b
    return c if c > ZERO else ZERO


def half(d):
    return d * HALF


@record
class Enclosure:
    """A closed dyadic subinterval [lo, hi] of [0, 1]."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty enclosure [%s, %s]" % (self.lo, self.hi))
        require_unit(self.lo, "enclosure lo")
        require_unit(self.hi, "enclosure hi")

    @property
    def width(self):
        return self.hi - self.lo

    def __str__(self):
        return "[%s, %s]" % (self.lo, self.hi)
