"""Small s-expression reader shared by the formula codes and descriptor texts.

Nodes are plain python values: a list for a parenthesized group, a str for an
atom, and a QuotedString for a double-quoted literal. Every node remembers the
character offset it started at so error messages can point somewhere useful.
read() sets it as `position`; the node classes keep the constructors of str
and list, which cost half as much per node as a Python one.
"""

import re


class SexprError(Exception):
    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


class QuotedString(str):
    """A string that came from a double-quoted token."""


class Group(list):
    """A parenthesized list of nodes."""


class Atom(str):
    """A bare token."""


# after optional whitespace, one token: "(", ")", a well-formed string
# (escapes \" and \\ only), an atom, or a quote that opens an ill-formed
# string; from any offset short of trailing whitespace one of them matches
_TOKEN = re.compile(r'[ \t\r\n]*(?:(\()|(\))|"((?:[^"\\]|\\["\\])*)"'
                    r'|([^ \t\r\n()"]+)|("))')
_WHITESPACE = " \t\r\n"


def _string_error(text, start):
    """The error of the ill-formed string whose quote is at start."""
    i = start + 1 + re.match(r'(?:[^"\\]|\\["\\])*', text[start + 1:]).end()
    if i == len(text):
        raise SexprError("unterminated string", start)
    # text[i] is a backslash: a quote would have closed the string
    if i + 1 == len(text):
        raise SexprError("dangling escape in string", i)
    raise SexprError("unknown escape \\%s" % text[i + 1], i)


def read(text):
    """Parse exactly one s-expression; trailing garbage is an error. One
    token scan with an explicit stack of open groups, so any depth reads."""
    stack = []
    for token in _TOKEN.finditer(text):
        kind = token.lastindex
        start = token.start(kind)
        if kind == 1:
            group = Group()
            group.position = start
            stack.append(group)
            continue
        if kind == 4:
            node = Atom(token[4])
            node.position = start
        elif kind == 2:
            if not stack:
                raise SexprError("unmatched ')'", start)
            node = stack.pop()
        elif kind == 3:
            body = token[3]
            node = QuotedString(re.sub(r"\\(.)", r"\1", body) if "\\" in body
                                else body)
            node.position = start - 1
        else:
            _string_error(text, start)
        if not stack:
            i = len(text) - len(text[token.end():].lstrip(_WHITESPACE))
            if i != len(text):
                raise SexprError("trailing input after expression", i)
            return node
        stack[-1].append(node)
    if stack:
        raise SexprError("unclosed '('", stack[-1].position)
    raise SexprError("unexpected end of input", len(text))


def quote(value):
    """Render a python string as a double-quoted token."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
