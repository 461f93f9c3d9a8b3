"""Line-oriented text format for spaces (.finsp) and maps (.fmap).

Grammar (UTF-8, one directive per line, '#' starts a comment):

    space <name> <n>      begin a space with n points (indices 0..n-1)
    reach <i> <j>         reach generator; reflexive-transitive closure applied on load
    label <i> <text>      optional human-readable point label
    map <name> <src> <tgt>   begin a map between two previously declared spaces
    send <i> <j>          assignment entry f(i) = j; must cover every source point once

A document may contain any number of space and map blocks.  Duplicate space or
map names are rejected, as are dangling indices, incomplete or duplicated
assignments, and discontinuous maps.  A name is one token; a label is the rest
of its line, read without surrounding whitespace.  The writers raise
ValueError for a name or label that would not read back unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .finspace import CMap, DiscontinuityError, FinSpace, make_space
from .resources import PRODUCT_MAX_POINTS


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass
class Document:
    spaces: dict[str, FinSpace] = field(default_factory=dict)
    maps: dict[str, CMap] = field(default_factory=dict)


def _merge_space(doc: Document, name: str, space: FinSpace, line_no: int):
    if name in doc.spaces:
        if doc.spaces[name] == space:
            return
        raise ParseError(line_no, f"duplicate space name {name!r} with a different definition")
    doc.spaces[name] = space


def parse_document(text: str, into: Document | None = None) -> Document:
    doc = into if into is not None else Document()
    pending = None  # ("space", name, n, pairs, labels, line) | ("map", name, src, tgt, sends, line)

    def finish():
        nonlocal pending
        if pending is None:
            return
        kind = pending[0]
        if kind == "space":
            _, name, n, pairs, labels, line_no = pending
            if not any(text is not None for text in labels):
                labels = None
            try:
                space = make_space(n, pairs, labels=labels, name=name)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from exc
            _merge_space(doc, name, space, line_no)
        else:
            _, name, src, tgt, sends, line_no = pending
            if name in doc.maps:
                raise ParseError(line_no, f"duplicate map name {name!r}")
            source, target = doc.spaces[src], doc.spaces[tgt]
            assignment = [None] * source.n
            for i, j, send_line in sends:
                if not 0 <= i < source.n:
                    raise ParseError(send_line, f"send source index {i} out of range")
                if not 0 <= j < target.n:
                    raise ParseError(send_line, f"send target index {j} out of range")
                if assignment[i] is not None:
                    raise ParseError(send_line, f"duplicate send for source point {i}")
                assignment[i] = j
            missing = [i for i, v in enumerate(assignment) if v is None]
            if missing:
                raise ParseError(line_no, f"map {name!r} misses assignments for points {missing}")
            try:
                doc.maps[name] = CMap(source, target, assignment, name=name, validate=True)
            except DiscontinuityError as exc:
                raise ParseError(line_no, f"map {name!r} is not continuous: {exc}") from exc
        pending = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive = parts[0]
        if directive == "space":
            finish()
            if len(parts) != 3:
                raise ParseError(line_no, "expected: space <name> <n>")
            name = parts[1]
            try:
                n = int(parts[2])
            except ValueError:
                raise ParseError(line_no, f"point count must be an integer, got {parts[2]!r}")
            if n < 0:
                raise ParseError(line_no, "point count must be >= 0")
            if n > PRODUCT_MAX_POINTS:
                raise ParseError(line_no, f"point count {n} exceeds the cap of {PRODUCT_MAX_POINTS}")
            pending = ("space", name, n, [], [None] * n, line_no)
        elif directive == "reach":
            if pending is None or pending[0] != "space":
                raise ParseError(line_no, "reach outside a space block")
            if len(parts) != 3:
                raise ParseError(line_no, "expected: reach <i> <j>")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(line_no, "reach indices must be integers")
            n = pending[2]
            if not (0 <= i < n and 0 <= j < n):
                raise ParseError(line_no, f"reach ({i},{j}) out of range for {n} points")
            pending[3].append((i, j))
        elif directive == "label":
            if pending is None or pending[0] != "space":
                raise ParseError(line_no, "label outside a space block")
            if len(parts) < 3:
                raise ParseError(line_no, "expected: label <i> <text>")
            try:
                i = int(parts[1])
            except ValueError:
                raise ParseError(line_no, "label index must be an integer")
            n = pending[2]
            if not 0 <= i < n:
                raise ParseError(line_no, f"label index {i} out of range for {n} points")
            pending[4][i] = line.split(None, 2)[2]
        elif directive == "map":
            finish()
            if len(parts) != 4:
                raise ParseError(line_no, "expected: map <name> <src> <tgt>")
            name, src, tgt = parts[1], parts[2], parts[3]
            for ref in (src, tgt):
                if ref not in doc.spaces:
                    raise ParseError(line_no, f"map references undeclared space {ref!r}")
            pending = ("map", name, src, tgt, [], line_no)
        elif directive == "send":
            if pending is None or pending[0] != "map":
                raise ParseError(line_no, "send outside a map block")
            if len(parts) != 3:
                raise ParseError(line_no, "expected: send <i> <j>")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(line_no, "send indices must be integers")
            pending[4].append((i, j, line_no))
        else:
            raise ParseError(line_no, f"unknown directive {directive!r}")
    finish()
    return doc


def load_document(path: str, into: Document | None = None) -> Document:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_document(text, into=into)


def _writable_name(name: str) -> str:
    """name, if parse_document reads it back unchanged: one token, no '#'."""
    if not isinstance(name, str) or "#" in name or name.split() != [name]:
        raise ValueError(f"name {name!r} is not one token without '#'")
    return name


def _writable_label(text: str) -> str:
    """text, if parse_document reads it back unchanged: one nonempty line
    without '#' or surrounding whitespace."""
    if (not isinstance(text, str) or "#" in text or text.strip() != text
            or text.splitlines() != [text]):
        raise ValueError(f"label {text!r} is not one line without '#' or surrounding whitespace")
    return text


def format_space(name: str, space: FinSpace) -> str:
    """The space as a document; raises ValueError for a name or label that
    would not read back unchanged."""
    lines = [f"space {_writable_name(name)} {space.n}"]
    for x in range(space.n):
        row = space.reach_rows[x]
        for y in range(space.n):
            if y != x and (row >> y) & 1:
                lines.append(f"reach {x} {y}")
    if space.labels is not None:
        for x, text in enumerate(space.labels):
            if text is not None:
                lines.append(f"label {x} {_writable_label(text)}")
    return "\n".join(lines) + "\n"


def format_map(name: str, cmap: CMap, src_name: str, tgt_name: str) -> str:
    """The map as a document; raises ValueError for a name that would not
    read back unchanged."""
    names = " ".join(_writable_name(text) for text in (name, src_name, tgt_name))
    lines = [f"map {names}"]
    for i, j in enumerate(cmap.assignment):
        lines.append(f"send {i} {j}")
    return "\n".join(lines) + "\n"


def format_fence(fence, src_name: str = "src", tgt_name: str = "tgt") -> str:
    """Serialize a fence as one document: both spaces plus one map per step,
    named step_0 .. step_m, for external audit."""
    first = fence.steps[0]
    parts = [format_space(src_name, first.source)]
    if first.target != first.source:
        parts.append(format_space(tgt_name, first.target))
    else:
        tgt_name = src_name
    for index, step in enumerate(fence.steps):
        parts.append(format_map(f"step_{index}", step, src_name, tgt_name))
    return "".join(parts)
