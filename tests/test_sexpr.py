import pytest

from numerals.sexpr import Atom, Group, QuotedString, SexprError, quote, read


def test_reads_atom():
    node = read("hello")
    assert isinstance(node, Atom)
    assert node == "hello"


def test_reads_nested_groups():
    node = read("(a (b c) d)")
    assert isinstance(node, Group)
    assert node[0] == "a"
    assert isinstance(node[1], Group)
    assert list(node[1]) == ["b", "c"]
    assert node[2] == "d"


def test_whitespace_insensitive():
    assert read("( a\n\tb )") == read("(a b)")


def test_quoted_string_with_escapes():
    node = read(r'(gen name "a \"quoted\" \\ thing")')
    assert isinstance(node[2], QuotedString)
    assert node[2] == 'a "quoted" \\ thing'


def test_positions_point_into_source():
    node = read("(abc (def))")
    assert node.position == 0
    assert node[0].position == 1
    assert node[1].position == 5


def test_trailing_input_rejected():
    with pytest.raises(SexprError, match="trailing"):
        read("(a) (b)")


def test_unterminated_string():
    with pytest.raises(SexprError):
        read('(a "oops)')


def test_unknown_escape():
    with pytest.raises(SexprError):
        read(r'(a "\n")')


def test_unmatched_parens():
    with pytest.raises(SexprError):
        read("(a (b)")
    with pytest.raises(SexprError):
        read("a)")


def test_empty_input():
    with pytest.raises(SexprError):
        read("   ")


def test_quote_round_trips():
    for text in ["plain", 'has "quotes"', "back\\slash", ""]:
        assert read("(x %s)" % quote(text))[1] == text


@pytest.mark.parametrize("text, message, offset", [
    ("", "unexpected end of input", 0),
    ("  ", "unexpected end of input", 2),
    ("(a (b)", "unclosed '('", 0),
    ("(a (b", "unclosed '('", 3),
    ("a)", "trailing input after expression", 1),
    ("(a) (b)", "trailing input after expression", 4),
    ('a "unterminated', "trailing input after expression", 2),
    (") a", "unmatched ')'", 0),
    ('(a "oops)', "unterminated string", 3),
    (r'(a "\n")', "unknown escape \\n", 4),
    ('(a "x\\', "dangling escape in string", 5),
])
def test_error_messages_and_offsets(text, message, offset):
    with pytest.raises(SexprError) as err:
        read(text)
    assert str(err.value) == "%s (at offset %d)" % (message, offset)
    assert err.value.position == offset


def test_positions_of_every_node_kind():
    node = read(' ( a\t"q\\"" (b) )')
    assert node.position == 1
    assert [(type(n).__name__, n.position) for n in node] == [
        ("Atom", 3), ("QuotedString", 5), ("Group", 11)]
    assert node[1] == 'q"' and node[2][0].position == 12


def test_reads_deeply_nested_groups():
    # the reader keeps open groups on a stack, not on the call stack
    depth = 100_000
    node = read("(" * depth + "x" + ")" * depth)
    for level in range(depth):
        assert isinstance(node, Group) and len(node) == 1
        assert node.position == level
        node = node[0]
    assert node == "x" and node.position == depth
    with pytest.raises(SexprError, match="unclosed"):
        read("(" * depth)
