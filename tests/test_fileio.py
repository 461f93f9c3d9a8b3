import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secnum.fileio import Document, ParseError, format_map, format_space, parse_document
from secnum.finspace import identity_map, make_map, make_space, sierpinski


SIERPINSKI_TEXT = """\
# two points, one non-trivial reach generator
space S 2
reach 1 0
label 0 bottom
label 1 top
"""


def test_parse_space_with_closure_and_labels():
    doc = parse_document(SIERPINSKI_TEXT)
    s = doc.spaces["S"]
    assert s.reach_rows == (0b01, 0b11)
    assert s.labels == ("bottom", "top")


def test_closure_applied_on_load():
    doc = parse_document("space X 3\nreach 2 1\nreach 1 0\n")
    assert doc.spaces["X"].reach(2, 0)


def test_parse_map():
    text = SIERPINSKI_TEXT + "map f S S\nsend 0 0\nsend 1 0\n"
    doc = parse_document(text)
    f = doc.maps["f"]
    assert f.assignment == (0, 0)
    assert f.source == sierpinski()


def test_round_trip():
    s = sierpinski()
    f = make_map(s, s, [0, 0], name="f")
    text = format_space("S", s) + format_map("f", f, "S", "S")
    doc = parse_document(text)
    assert doc.spaces["S"] == s
    assert doc.maps["f"].assignment == (0, 0)


def test_duplicate_space_name_rejected_unless_identical():
    text = "space A 1\nspace A 1\n"
    doc = parse_document(text)  # identical redefinition is allowed
    assert doc.spaces["A"].n == 1
    with pytest.raises(ParseError):
        parse_document("space A 1\nspace A 2\n")


def test_duplicate_map_name_rejected():
    text = "space A 1\nmap f A A\nsend 0 0\nmap f A A\nsend 0 0\n"
    with pytest.raises(ParseError):
        parse_document(text)


def test_dangling_indices_rejected():
    with pytest.raises(ParseError):
        parse_document("space A 2\nreach 0 2\n")
    with pytest.raises(ParseError):
        parse_document("space A 2\nlabel 5 x\n")
    with pytest.raises(ParseError):
        parse_document("space A 1\nmap f A A\nsend 0 3\n")
    with pytest.raises(ParseError):
        parse_document("space A 1\nmap f A A\nsend 4 0\n")


def test_incomplete_or_duplicated_assignment_rejected():
    with pytest.raises(ParseError) as err:
        parse_document("space A 2\nmap f A A\nsend 0 0\n")
    assert "misses" in str(err.value)
    with pytest.raises(ParseError):
        parse_document("space A 1\nmap f A A\nsend 0 0\nsend 0 0\n")


def test_discontinuous_map_rejected():
    text = "space S 2\nreach 1 0\nmap bad S S\nsend 0 1\nsend 1 0\n"
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert "not continuous" in str(err.value)


def test_unknown_directive_and_stray_lines():
    with pytest.raises(ParseError):
        parse_document("frobnicate 1\n")
    with pytest.raises(ParseError):
        parse_document("reach 0 0\n")
    with pytest.raises(ParseError):
        parse_document("send 0 0\n")
    with pytest.raises(ParseError):
        parse_document("space A 1\nmap f A B\nsend 0 0\n")  # undeclared target


def test_merge_into_shared_registry():
    doc = Document()
    parse_document("space A 1\n", into=doc)
    parse_document("space B 2\nmap f B A\nsend 0 0\nsend 1 0\n", into=doc)
    assert set(doc.spaces) == {"A", "B"}
    assert doc.maps["f"].target == doc.spaces["A"]


def test_fence_serializes_and_parses_back():
    from secnum.fileio import format_fence
    from secnum.finspace import constant_map, identity_map
    from secnum.homotopy import homotopy_fence

    s = sierpinski()
    fence = homotopy_fence(identity_map(s), constant_map(s, s, 1))
    text = format_fence(fence)
    doc = parse_document(text)
    steps = [doc.maps[f"step_{i}"] for i in range(len(fence.steps))]
    assert [m.assignment for m in steps] == [m.assignment for m in fence.steps]


def test_point_count_is_capped():
    # reach rows grow as n^2 bits, so the parser holds declared spaces to
    # the construction cap before allocating anything
    assert parse_document("space A 4096\n").spaces["A"].n == 4096
    with pytest.raises(ParseError) as err:
        parse_document("space A 4097\n")
    assert "4096" in str(err.value)


_NAMES = st.sampled_from(["A", "B"])
_INDICES = st.integers(-1, 3)
_TOKENS = st.one_of(
    _NAMES,
    _INDICES.map(str),
    st.sampled_from(["space", "reach", "map", "send", "#", "4097", "99999999999999999999", "1.5"]),
)
# well-formed directives with small, edge and out-of-range values, plus
# free token soup, so that documents reach both the happy and the error paths
_SPACE_LINES = st.builds(
    "space {} {}".format, _NAMES, st.sampled_from([-1, 0, 1, 2, 2, 3, 3, 4096, 4097]))
_LINES = st.one_of(
    _SPACE_LINES,
    st.builds("reach {} {}".format, _INDICES, _INDICES),
    st.builds("label {} {}".format, _INDICES, _NAMES),
    st.builds("map {} {} {}".format, _NAMES, _NAMES, _NAMES),
    st.builds("send {} {}".format, _INDICES, _INDICES),
    st.lists(_TOKENS, max_size=5).map(" ".join),
)
_GRAMMAR_DOCUMENTS = st.builds(
    lambda head, body: "\n".join(head + body),
    st.lists(_SPACE_LINES, max_size=2),
    st.lists(_LINES, max_size=10),
)


def _parses_or_raises_parse_error(text: str) -> None:
    try:
        parse_document(text)
    except ParseError:
        pass


@settings(max_examples=300)
@given(_GRAMMAR_DOCUMENTS)
def test_parser_raises_only_parse_error_on_grammar_tokens(text):
    _parses_or_raises_parse_error(text)


@settings(max_examples=300)
@given(st.text())
def test_parser_raises_only_parse_error_on_arbitrary_text(text):
    _parses_or_raises_parse_error(text)


def test_writers_reject_text_the_parser_misreads():
    # each of these used to be written and then read back as something else
    for label in ["a\nspace X 1", "a#b", " c ", "", "d\r"]:
        with pytest.raises(ValueError, match="label"):
            format_space("S", make_space(1, [], labels=[label]))
    s = sierpinski()
    for name in ["a b", "a#b", "", "x\n"]:
        with pytest.raises(ValueError, match="name"):
            format_space(name, s)
        with pytest.raises(ValueError, match="name"):
            format_map(name, identity_map(s), "S", "S")
        with pytest.raises(ValueError, match="name"):
            format_map("f", identity_map(s), "S", name)


def _name_reads_back(name: str) -> bool:
    try:
        return list(parse_document(f"space {name} 0\n").spaces) == [name]
    except ParseError:
        return False


def _label_reads_back(label: str) -> bool:
    try:
        return parse_document(f"space S 1\nlabel 0 {label}\n").spaces["S"].labels == (label,)
    except ParseError:
        return False


_AWKWARD_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from("ab #\t\n\r\x0b\x0c\x1c\x1f\x85 "), max_size=4),
    st.text(max_size=4),
)


@settings(max_examples=300)
@given(_AWKWARD_TEXT, _AWKWARD_TEXT)
def test_writers_accept_exactly_what_reads_back(name, label):
    """Whatever the writers accept parses back to the same names and labels,
    and they raise for everything the parser would read as something else."""
    space = make_space(1, [], labels=[label])
    f = identity_map(space)
    if not (_name_reads_back(name) and _label_reads_back(label)):
        with pytest.raises(ValueError):
            format_space(name, space) + format_map(name, f, name, name)
        return
    doc = parse_document(format_space(name, space) + format_map(name, f, name, name))
    assert list(doc.spaces) == [name]
    assert doc.spaces[name].labels == (label,)
    assert list(doc.maps) == [name]
    assert doc.maps[name].assignment == (0,)
