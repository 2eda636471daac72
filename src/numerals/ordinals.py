"""Ordinals below w^w in Cantor normal form.

An ordinal is a sum w^e1*c1 + ... + w^ek*ck with e1 > ... > ek >= 0 and
every ci >= 1, stored as a tuple of (exponent, coefficient) pairs. This is
enough to index every recursion level the construction uses, and it keeps
comparison and the fundamental sequences purely syntactic.
"""

import re

from .records import record


@record
class OrdinalCNF:
    """Ordered lexicographically on terms, which is the ordinal order."""

    terms: tuple = ()

    def __post_init__(self):
        last_exp = None
        for exp, coeff in self.terms:
            if exp < 0 or coeff < 1:
                raise ValueError("bad CNF term w^%d*%d" % (exp, coeff))
            if last_exp is not None and exp >= last_exp:
                raise ValueError("CNF exponents must strictly decrease")
            last_exp = exp

    def __lt__(self, other):
        return self.terms < other.terms

    def __le__(self, other):
        return self.terms <= other.terms

    def __gt__(self, other):
        return self.terms > other.terms

    def __ge__(self, other):
        return self.terms >= other.terms

    def is_zero(self):
        return not self.terms

    def is_successor(self):
        return bool(self.terms) and self.terms[-1][0] == 0

    def is_limit(self):
        return bool(self.terms) and self.terms[-1][0] > 0

    def __add__(self, other):
        """Ordinal addition: left terms below the right head are absorbed."""
        if not other.terms:
            return self
        head_exp, head_coeff = other.terms[0]
        kept = tuple(t for t in self.terms if t[0] > head_exp)
        carried = sum(c for e, c in self.terms if e == head_exp)
        merged = ((head_exp, head_coeff + carried),) + tuple(other.terms[1:])
        return OrdinalCNF(kept + merged)

    def predecessor(self):
        if not self.is_successor():
            raise ValueError("%s is not a successor" % self)
        terms = list(self.terms)
        exp, coeff = terms[-1]
        if coeff > 1:
            terms[-1] = (exp, coeff - 1)
        else:
            terms.pop()
        return OrdinalCNF(tuple(terms))

    def fundamental(self, n):
        """n-th member of the standard fundamental sequence of a limit.

        The last term w^e*c (e >= 1) is rewritten to w^e*(c-1) + w^(e-1)*n,
        so w[n] = n, (w*2)[n] = w + n, (w^2)[n] = w*n.
        """
        if not self.is_limit():
            raise ValueError("%s is not a limit ordinal" % self)
        if n < 0:
            raise ValueError("negative index")
        terms = list(self.terms)
        exp, coeff = terms.pop()
        if coeff > 1:
            terms.append((exp, coeff - 1))
        if n > 0:
            terms.append((exp - 1, n))
        return OrdinalCNF(tuple(terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            if exp == 0:
                parts.append(str(coeff))
            elif exp == 1:
                parts.append("w" if coeff == 1 else "w*%d" % coeff)
            else:
                parts.append("w^%d" % exp if coeff == 1 else "w^%d*%d" % (exp, coeff))
        return "+".join(parts)

    def __repr__(self):
        return "OrdinalCNF(%s)" % self


ZERO_ORD = OrdinalCNF()
OMEGA = OrdinalCNF(((1, 1),))


def from_int(n):
    if n < 0:
        raise ValueError("ordinals are nonnegative")
    return OrdinalCNF() if n == 0 else OrdinalCNF(((0, n),))


# one term: w, w^e, w*c, w^e*c or a natural, in ASCII digits
_TERM = re.compile(r"w(?:\^([0-9]+))?(?:\*([0-9]+))?|([0-9]+)")


def parse_ordinal(text):
    """Parse "0", "7", "w", "w*2", "w^2*3+w*2+5" style notation."""
    text = text.strip()
    if not text:
        raise ValueError("empty ordinal")
    parts = text.split("+")
    terms = []
    for part in parts:
        part = part.strip()
        if not part:
            raise ValueError("empty term in ordinal %r" % text)
        match = _TERM.fullmatch(part)
        try:  # int() refuses a number past Python's digit limit
            if not match:
                raise ValueError
            exp, coeff, n = match.groups()
            if n is None:
                terms.append((int(exp or 1), int(coeff or 1)))
            elif int(n):
                terms.append((0, int(n)))
            elif len(parts) > 1:
                raise ValueError
        except ValueError:
            raise ValueError("cannot parse ordinal %r" % text) from None
    return OrdinalCNF(tuple(terms))
