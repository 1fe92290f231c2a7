"""Workspace files: text grammar, JSON mirror, loading, and serialization.

A workspace bundles named schemas, instances, dependencies, procedures,
queries, and procedure sequences. The text format is line-oriented with
`#` comments:

    schema S {
      rel EVisits(facility, patInsur, timestp);
    }

    instance I : S {
      EVisits: (1234, 33, "070916 12:00"), (2087, 91, "090916 03:10");
    }

    tgd copy_visits : EVisits(facility: x, patInsur: y, timestp: z)
      -> LocVisits(facility: x, patInsur: y, timestp: z)
    egd one_age : R(id: x, age: y) and R(id: x, age: z) -> y = z
    struct has_age : LocVisits[age]

    proc migrate {
      scope { LocVisits[*]; }
      pre { struct EVisits[facility, patInsur, timestp]; }
      post { tgd EVisits(facility: x, patInsur: y, timestp: z)
               -> LocVisits(facility: x, patInsur: y, timestp: z); }
      safe { total LocVisits; }
    }
    proc alter_age = template alter_table(LocVisits; age)

    query q_visit : exists z . LocVisits(facility: 2087, patInsur: 91, timestp: z)
    query ages(x) : exists y . LocVisits(patInsur: y, age: x)

    seq fix = migrate, alter_age

Lexical rules. Whitespace is space, tab, CR and LF only; a form feed or a
no-break space is an error. `#` starts a comment that runs to the end of
its line. Tokens:

- identifier: a letter (`str.isalpha`) or `_`, then any `str.isalnum`
  characters and `_`; a `.` joins two such runs, so `a.b` is one name. A
  name containing `@` is an error at the name's first character.
- number: an optional `-`, then digits (`str.isdigit`, so `²` counts),
  with at most one `.` that has digits on both sides. `1.` lexes as `1`
  and `.`, `.5` as `.` and `5`, and `-.5` is an error at the `-`.
- string: double quotes around anything but a newline; the only escapes
  are `\\"` and `\\\\`.
- null: `?` followed by one or more identifier characters.
- punctuation: `-> != { } ( ) [ ] , ; : . * =`.

Any other character, `½` included, is an error where a token would start.

Instance tuples list values in the relation's canonical (sorted) attribute
order. Inside queries and dependencies bare identifiers are variables;
constants must be numbers or quoted strings. Inside instance tuples bare
identifiers are constants. Nulls are written ?name. `true` is the empty
conjunction, `nonnull(x)` constrains a variable to an ordinary constant,
and names starting with @ are rejected (reserved for generated values).
Every name must be declared before it is used. The closing dot of an
`exists` list must be separated from a following dotted variable name by
whitespace.

A template call lists its parameters (`procedures.TEMPLATE_KINDS`) in
`;`-separated groups, with `,` inside a group:

    alter_table(relation; attributes)
    data_exchange(dependency names)
    attribute_copy(target, source; keys; attribute)
    null_scrub(relation; attribute) or null_scrub(relation; attribute; kept attributes)
    sql_insert(relation; columns; values) or sql_insert(relation; columns; query name)
    sql_delete(relation; condition)

The JSON mirror (`.dq.json`) carries the same constructs one-to-one;
`load_workspace` picks the format by file extension.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar, Union

from .constraints import (
    And,
    Atom,
    BooleanCondition,
    Comparison,
    ConjunctiveQuery,
    Constraint,
    ConstantAtom,
    Egd,
    NamedAtom,
    Not,
    Or,
    Query,
    StructureConstraint,
    Tgd,
    TotalQuery,
    Var,
    comparisons,
    cq_constants,
    demanded_attrs,
)
from .errors import (
    DomainMismatch,
    MalformedParams,
    ResolutionError,
    SchemaConformance,
    WorkspaceSyntaxError,
)
from .model import (
    Cell,
    Instance,
    LabeledNull,
    Row,
    Schema,
    Value,
    active_domain,
    const,
    is_plain_name,
    name_rule,
    null_marker,
    number_rule,
)
from .procedures import TEMPLATE_KINDS, Procedure, instantiate_template

TOP_KEYWORDS = ("schema", "instance", "tgd", "egd", "struct", "proc", "query", "seq")
RESERVED_WORDS = frozenset(
    TOP_KEYWORDS
    + ("rel", "scope", "pre", "post", "safe", "total", "filtered", "cq", "where",
       "exists", "and", "or", "not", "true", "template", "nonnull")
)
_CONSTRAINT_WORDS = ("tgd", "egd", "struct")


_TABLES = "schemas instances instance_schema constraints procedures queries sequences"


class Workspace(namedtuple("Workspace", _TABLES)):
    """Named declarations with all cross-references resolved: per kind a dict
    from name to object, but `instance_schema` holds schema names and
    `sequences` procedure names. `Workspace()` starts empty; the readers fill it."""

    __slots__ = ()

    def __new__(cls, *tables: dict):  # copies and pickles pass the tables
        return tuple.__new__(cls, tables or [{} for _ in cls._fields])


# --- tokenizer ---------------------------------------------------------------

_STRING_BODY = r'[^"\\\n]*(?:\\["\\][^"\\\n]*)*'  # up to the closing quote

# A raw token is one `findall` tuple of the master pattern, one group per kind:
# at most one is non-empty, and at the end of the text none is.
_KINDS = ("punct", "number", "ident", "null", "string")  # then the error group
_PUNCT, _IDENT, _ERROR = 0, 2, 5


class _Token(NamedTuple):
    kind: str  # punct, number, ident, null, string, or end
    text: str
    index: int  # into the raw token list


def _lexer(digits: str = "", numerals: str = "") -> re.Pattern:
    """The master token pattern: skip blanks and comments, then one token.

    `re` has no class for `str.isdigit` or `str.isalpha`: `\\d` is
    `str.isdecimal`, and a word character may be a numeral such as `²` or
    `½`. `digits` adds the text's non-decimal digits to the number rule, and
    `numerals` (those digits plus the other non-letter numerals) leaves the
    identifier-start class. A character no token can start matches the last
    (error) group and the end of the text matches the bare `\\Z`, so the
    first attempt at every position succeeds: `findall` never skips text,
    and the engine never backtracks into a comment to read its tail as tokens.
    """
    number = number_rule(rf"[\d{digits}]")
    return re.compile(
        r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(?:"
        r"(->|!=|[{}()\[\],;:.*=])"
        rf"|({number})"
        rf"|({name_rule(numerals)}(?:\.\w+)*)(?![\w@]|\.[\w@])"
        r"|(\?\w+)"
        rf'|("{_STRING_BODY}")'
        r"|(.)|\Z)"
    )


_LEXER = _lexer()
_ESCAPE = re.compile(r"\\(.)")
_STRING_PREFIX = re.compile(_STRING_BODY)


def _lexer_for(text: str) -> re.Pattern:
    """`_LEXER`, or for a text with non-letter numerals its own variant."""
    if text.isascii():
        return _LEXER
    numerals = "".join(
        sorted(c for c in set(text) if c.isalnum() and not (c.isalpha() or c.isdecimal()))
    )
    if not numerals:
        return _LEXER
    return _lexer("".join(c for c in numerals if c.isdigit()), numerals)


def _syntax_error(text: str, pos: int, message: str) -> WorkspaceSyntaxError:
    """`message` at the line and column of character offset `pos`."""
    line = text.count("\n", 0, pos) + 1
    return WorkspaceSyntaxError(line, pos - text.rfind("\n", 0, pos), message)


def _lex_error(text: str, pos: int) -> WorkspaceSyntaxError:
    """Diagnose the character at `pos`, where no token matches."""
    ch = text[pos]
    if ch == '"':
        stop = _STRING_PREFIX.match(text, pos + 1).end()
        if text.startswith("\\", stop) and stop + 1 < len(text):
            return _syntax_error(
                text, stop, f"unknown escape \\{text[stop + 1]} (only \\\" and \\\\)"
            )
        return _syntax_error(text, pos, "unterminated string")
    if ch == "?":
        return _syntax_error(text, pos, "? must start a null name")
    if ch == "@" or ch == "_" or ch.isalpha():
        # a name that starts here runs into an @
        return _syntax_error(text, pos, "names containing @ are reserved for generated values")
    return _syntax_error(text, pos, f"unexpected character {ch!r}")


def _lex(text: str) -> list[tuple[str, ...]]:
    """The raw tokens of `text`, the end included; raises at the first character no token starts."""
    raw = _lexer_for(text).findall(text)
    if len(raw) > 1 and not any(raw[-2]):
        # trailing blanks or a comment match `\Z` with them, then `\Z` matches again, empty
        raw.pop()
    if any(map(itemgetter(_ERROR), raw)):
        first = next(i for i, t in enumerate(raw) if t[_ERROR])
        raise _lex_error(text, _offset(text, raw, first))
    return raw


def _offset(text: str, raw: list[tuple[str, ...]], i: int) -> int:
    """The character offset of raw token `i` of `text`, found by lexing up to it again."""
    return next(islice(_lexer_for(text).finditer(text), i, None)).end() - len("".join(raw[i]))


def _token(t: tuple[str, ...], i: int) -> _Token:
    """Raw token `t`, at index `i`; a string loses its quotes and escapes, a null its `?`."""
    for kind, text in zip(_KINDS, t):
        if text:
            if kind == "null" or kind == "string":
                text = text[1:] if kind == "null" else _ESCAPE.sub(r"\1", text[1:-1])
            return _Token(kind, text, i)
    return _Token("end", "", i)


def _raw_value(t: tuple[str, ...]) -> Value | None:
    """The value raw token `t` denotes, or None (no value, or a string with
    `@`); in a value position even a reserved word reads as a constant."""
    _, number, ident, null, string, _ = t
    if number or ident:
        return const(number or ident)
    if null:
        return null_marker(null[1:])
    return const(_ESCAPE.sub(r"\1", string[1:-1])) if string and "@" not in string else None


# --- parser ------------------------------------------------------------------

_T = TypeVar("_T")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.raw = _lex(text)
        self.puncts = list(map(itemgetter(_PUNCT), self.raw))
        self.pos = 0
        self.ws = Workspace()
        self.values: dict[tuple[str, ...], Value] = {}

    # token plumbing

    def _error(self, tok: _Token, message: str) -> WorkspaceSyntaxError:
        # "found end of file" points at the last token, or at the text's start
        i = tok.index - (tok.kind == "end")
        return _syntax_error(self.text, _offset(self.text, self.raw, i) if i >= 0 else 0, message)

    def _peek(self) -> _Token:
        return _token(self.raw[self.pos], self.pos)

    def _next(self) -> _Token:
        """The current token, consumed; at the end every caller fails on it."""
        self.pos += 1
        return _token(self.raw[self.pos - 1], self.pos - 1)

    def _fail(self, tok: _Token, expected: str):
        if tok.kind == "end":
            raise self._error(tok, f"expected {expected}, found end of file")
        shown = tok.text if tok.kind != "string" else f'"{tok.text}"'
        raise self._error(tok, f"expected {expected}, found {shown!r}")

    def _at(self, text: str) -> bool:
        """Whether the current token is the punctuation or the word `text`."""
        t = self.raw[self.pos]
        return t[_PUNCT] == text or t[_IDENT] == text

    def _skip(self, text: str) -> bool:
        """Consume the current token if it is the punctuation or the word `text`."""
        if self._at(text):
            self.pos += 1
            return True
        return False

    def _expect(self, text: str):
        """Consume the punctuation or the word `text`, or fail."""
        if not self._skip(text):
            self._fail(self._peek(), f"{text!r}")

    def _ident(self, what: str) -> _Token:
        text = self.raw[self.pos][_IDENT]
        if not text:
            self._fail(self._peek(), what)
        self.pos += 1
        return _Token("ident", text, self.pos - 1)

    def _name(self, what: str) -> _Token:
        tok = self._ident(what)
        if tok.text in RESERVED_WORDS:
            raise self._error(tok, f"{tok.text!r} is a reserved word")
        return tok

    def _declare(self, table: dict, tok: _Token, kind: str):
        if tok.text in table:
            raise self._error(tok, f"duplicate {kind} {tok.text!r}")

    def _list(self, sep: str, read: Callable[..., _T], *args) -> list[_T]:
        """`read(*args)`, then again after each `sep`."""
        items = [read(*args)]
        while self._skip(sep):
            items.append(read(*args))
        return items

    def _free_list(self) -> list[_Token] | None:
        """The `(x, y)` free-variable list, when one follows."""
        if not self._skip("("):
            return None
        names = self._list(",", self._name, "a variable")
        self._expect(")")
        return names

    # entry point

    def parse(self) -> Workspace:
        while self._peek().kind != "end":
            tok = self._next()
            if tok.kind != "ident" or tok.text not in TOP_KEYWORDS:
                self._fail(tok, f"one of {', '.join(TOP_KEYWORDS)}")
            if tok.text in _CONSTRAINT_WORDS:
                self._parse_named_constraint(tok.text)
            else:
                getattr(self, f"_parse_{tok.text}")()
        return self.ws

    # declarations

    def _parse_schema(self):
        name = self._name("schema name")
        self._declare(self.ws.schemas, name, "schema")
        self._expect("{")
        rels: dict[str, list[str]] = {}
        while not self._at("}"):
            self._expect("rel")
            rel = self._name("relation name")
            if rel.text in rels:
                raise self._error(rel, f"duplicate relation {rel.text!r}")
            self._expect("(")
            attrs = [t.text for t in self._list(",", self._name, "attribute name")]
            self._expect(")")
            self._expect(";")
            if len(set(attrs)) != len(attrs):
                raise self._error(rel, f"duplicate attribute in {rel.text!r}")
            rels[rel.text] = attrs
        self._expect("}")
        self.ws.schemas[name.text] = Schema.of(rels)

    def _parse_instance(self):
        name = self._name("instance name")
        self._declare(self.ws.instances, name, "instance")
        self._expect(":")
        schema_name = self._name("schema name")
        if schema_name.text not in self.ws.schemas:
            raise ResolutionError(f"instance {name.text!r} references unknown schema {schema_name.text!r}")
        schema = self.ws.schemas[schema_name.text]
        self._expect("{")
        data: dict[str, set[Row]] = {}
        while not self._at("}"):
            rel = self._name("relation name")
            if not schema.defines(rel.text):
                raise ResolutionError(
                    f"instance {name.text!r} lists relation {rel.text!r} missing from schema {schema_name.text!r}"
                )
            if rel.text in data:
                raise self._error(rel, f"duplicate relation section {rel.text!r}")
            self._expect(":")
            attrs = schema.layout(rel.text)
            data[rel.text] = self._section(attrs) or _rows(rel.text, attrs, self._tuples())
            self._expect(";")
        self._expect("}")
        self.ws.instances[name.text] = Instance.of(schema, data)
        self.ws.instance_schema[name.text] = schema_name.text

    def _section(self, attrs: tuple[str, ...]) -> set[Row] | None:
        """The rows of a section `(v, ...), (v, ...);` read as `n` equal blocks of
        raw tokens (the last `,` a `;`), or None for `_tuples` to read and diagnose."""
        raw, values, start, arity = self.raw, self.values, self.pos, len(attrs)
        block = ["("] + ["", ","] * (arity - 1) + ["", ")", ","]  # the puncts of one tuple
        try:
            end = self.puncts.index(";", start)
        except ValueError:
            return None
        n, rest = divmod(end + 1 - start, len(block))
        if not n or rest or self.puncts[start:end] != (block * n)[:-1]:
            return None
        columns = [raw[start + 1 + 2 * j : end : len(block)] for j in range(arity)]
        for t in set().union(*columns) - values.keys():
            value = _raw_value(t)
            if value is None:
                return None
            values[t] = value
        self.pos = end
        return {Row(attrs, row) for row in zip(*(map(values.__getitem__, c) for c in columns))}

    def _tuples(self) -> Iterable[list[Value]]:
        """The value lists of `(v, ...), (v, ...)`, token by token, each checked for its `)`."""
        while self._skip("("):
            if self._at(")"):
                raise self._error(self._peek(), "tuples need at least one value")
            row = self._list(",", self._parse_value)
            self._expect(")")
            yield row
            self._skip(",")

    def _parse_value(self) -> Value:
        """The value the current token denotes, consumed; equal raw tokens share one `Value`."""
        t = self.raw[self.pos]
        value = self.values.get(t) or _raw_value(t)
        if value is None:
            tok = self._peek()
            if tok.kind == "string":
                raise self._error(tok, "values containing @ are reserved")
            self._fail(tok, "a value")
        self.values[t] = value
        self.pos += 1
        return value

    def _parse_named_constraint(self, kind: str):
        name = self._name("constraint name" if kind == "struct" else "dependency name")
        self._declare(self.ws.constraints, name, "constraint")
        self._expect(":")
        self.ws.constraints[name.text] = self._parse_constraint_body(kind, name)

    def _parse_constraint_body(self, kind: str, at: _Token) -> Constraint:
        """A tgd, egd or structure constraint after its keyword; `at`
        locates a dependency's shape error."""
        if kind == "struct":
            return self._parse_struct_body()
        body_atoms = self._parse_atom_list()
        self._expect("->")
        body_vars = frozenset(v for a in body_atoms for v in a.vars)
        body = ConjunctiveQuery(tuple(body_atoms), tuple(sorted(body_vars)), frozenset())
        if kind == "egd":
            x = self._name("a variable")
            self._expect("=")
            equated = (Var(x.text), Var(self._name("a variable").text))
        else:
            head_atoms = self._parse_atom_list()
            head_vars = frozenset(v for a in head_atoms for v in a.vars)
            head = ConjunctiveQuery(
                tuple(head_atoms), tuple(sorted(head_vars & body_vars)), head_vars - body_vars
            )
        try:
            return Egd(body, equated) if kind == "egd" else Tgd(body, head)
        except DomainMismatch as e:
            raise self._error(at, str(e))

    def _parse_struct_body(self) -> StructureConstraint:
        rel = self._name("relation name")
        if not self._skip("["):
            return StructureConstraint.of(rel.text)
        if self._skip("*"):
            self._expect("]")
            return StructureConstraint.of(rel.text)
        if self._skip("]"):
            return StructureConstraint(rel.text, ())
        attrs = [t.text for t in self._list(",", self._name, "attribute name")]
        closing = self._peek()
        self._expect("]")
        if len(set(attrs)) != len(attrs):
            raise self._error(closing, "duplicate attribute in structure constraint")
        return StructureConstraint.of(rel.text, attrs)

    # queries and atoms

    def _parse_atom_list(self) -> list[Atom]:
        return [] if self._skip("true") else self._list("and", self._parse_atom)

    def _parse_atom(self) -> Atom:
        if self._skip("nonnull"):
            self._expect("(")
            v = self._name("a variable")
            self._expect(")")
            return ConstantAtom(Var(v.text))
        rel = self._name("relation name")
        self._expect("(")
        bindings: dict[str, object] = {}

        def binding():
            attr = self._name("attribute name")
            if attr.text in bindings:
                raise self._error(attr, f"duplicate attribute {attr.text!r}")
            self._expect(":")
            bindings[attr.text] = self._parse_term()

        self._list(",", binding)
        self._expect(")")
        return NamedAtom.of(rel.text, bindings)

    def _parse_term(self):
        tok = self._peek()
        if tok.kind == "ident" and tok.text not in RESERVED_WORDS:
            self._next()
            return Var(tok.text)
        return self._parse_value()

    def _parse_cq(self, free_names: list[_Token] | None, at: _Token) -> ConjunctiveQuery:
        existential: list[Var] = []
        if self._skip("exists"):
            existential = [Var(t.text) for t in self._list(",", self._name, "a variable")]
            self._expect(".")
        atoms = self._parse_atom_list()
        occurring = frozenset(v for a in atoms for v in a.vars)
        if free_names is None:
            free = tuple(sorted(occurring - frozenset(existential)))
        else:
            free = tuple(Var(t.text) for t in free_names)
        try:
            return ConjunctiveQuery(tuple(atoms), free, occurring - frozenset(free))
        except DomainMismatch as e:
            raise self._error(at, str(e))

    def _parse_query(self):
        name = self._name("query name")
        self._declare(self.ws.queries, name, "query")
        free_names = self._free_list()
        colon = self._peek()
        self._expect(":")
        if self._at("total") or self._at("filtered"):
            if free_names is not None:
                raise self._error(colon, "total and filtered queries take no variable list")
            self.ws.queries[name.text] = self._parse_total_or_filtered()
            return
        self.ws.queries[name.text] = self._parse_cq(free_names, name)

    def _parse_total_or_filtered(self) -> Query:
        """A `total` or `filtered` query; a shape error points at its keyword."""
        word = self._next()
        try:
            if word.text == "filtered":
                rel = self._name("relation name")
                self._expect("where")
                return TotalQuery((rel.text,), self._parse_condition())
            return TotalQuery(tuple(t.text for t in self._list(",", self._name, "relation name")))
        except DomainMismatch as e:
            raise self._error(word, str(e))

    # boolean conditions over attribute names

    def _parse_condition(self) -> BooleanCondition:
        """`or` over `and` over unary conditions; a single term stands alone."""
        def joined(cls, terms):
            return terms[0] if len(terms) == 1 else cls(tuple(terms))
        ors = self._list("or", self._list, "and", self._parse_condition_unary)
        return joined(Or, [joined(And, terms) for terms in ors])

    def _parse_condition_unary(self) -> BooleanCondition:
        if self._skip("not"):
            return Not(self._parse_condition_unary())
        if self._skip("("):
            inner = self._parse_condition()
            self._expect(")")
            return inner
        lhs = self._name("attribute name")
        op_tok = self._next()
        if op_tok.kind != "punct" or op_tok.text not in ("=", "!="):
            self._fail(op_tok, "'=' or '!='")
        tok = self._peek()
        if tok.kind == "ident" and tok.text not in RESERVED_WORDS:
            self._next()
            rhs: Union[str, Value] = tok.text
        else:
            rhs = self._parse_value()
        return Comparison(lhs.text, op_tok.text, rhs)

    # procedures

    def _parse_proc(self):
        name = self._name("procedure name")
        self._declare(self.ws.procedures, name, "procedure")
        if self._skip("="):
            self._expect("template")
            self.ws.procedures[name.text] = self._parse_template(name)
            return
        self._expect("{")
        sections: dict[str, list] = {}
        while not self._at("}"):
            section = self._next()
            if section.kind != "ident" or section.text not in ("scope", "pre", "post", "safe"):
                self._fail(section, "scope, pre, post, or safe")
            if section.text in sections:
                raise self._error(section, f"duplicate {section.text} section")
            sections[section.text] = self._parse_proc_section(section.text)
        self._expect("}")
        self.ws.procedures[name.text] = Procedure.of(
            scope=sections.get("scope", ()),
            pre=sections.get("pre", ()),
            post=sections.get("post", ()),
            safe=sections.get("safe", ()),
            name=name.text,
        )

    def _parse_proc_section(self, kind: str) -> list:
        self._expect("{")
        entries: list = []
        while not self._at("}"):
            if kind == "scope":
                entries.append(self._parse_struct_body())
            elif kind == "safe":
                entries.append(self._parse_safe_entry())
            else:
                entries.append(self._parse_constraint_entry())
            self._expect(";")
        self._expect("}")
        return entries

    def _parse_constraint_entry(self) -> Constraint:
        tok = self._next()
        if tok.kind != "ident" or tok.text not in _CONSTRAINT_WORDS:
            self._fail(tok, "tgd, egd, or struct")
        return self._parse_constraint_body(tok.text, tok)

    def _parse_safe_entry(self) -> Query:
        if self._at("total") or self._at("filtered"):
            return self._parse_total_or_filtered()
        tok = self._peek()
        self._expect("cq")
        return self._parse_cq(self._free_list(), tok)

    # templates

    def _parse_template(self, name: _Token) -> Procedure:
        kind = self._name("template kind")
        if kind.text not in TEMPLATE_KINDS:
            raise self._error(kind, f"unknown template kind {kind.text!r}")
        template = TEMPLATE_KINDS[kind.text]
        self._expect("(")
        read: list[tuple[str, str, object]] = []
        for i, group in enumerate(template.groups):
            if i >= len(template.groups) - template.optional and self._at(")"):
                break
            for j, (key, shape) in enumerate(group.items()):
                if i or j:
                    self._expect("," if j else ";")
                read.append((key, shape, self._template_argument(shape)))
        self._expect(")")
        params: dict = {"name": name.text}
        # names resolve only after the ')', so a malformed call fails on its syntax first
        for key, shape, value in read:
            if shape == "dependencies":
                value = [self._referenced(self.ws.constraints, t, "dependency") for t in value]
            elif isinstance(value, _Token):
                key, value = "query", self._referenced(self.ws.queries, value, "query")
            params[key] = value
        try:
            return instantiate_template(kind.text, params)
        except MalformedParams as e:
            raise self._error(name, f"template {kind.text}: {e}")

    def _template_argument(self, shape: str):
        """One template parameter of `shape` (see `procedures.Template`); a
        name that refers to a declaration comes back as its token."""
        if shape in ("relation", "attribute"):
            return self._name(f"{shape} name").text
        if shape == "attributes":
            return [t.text for t in self._list(",", self._name, "attribute name")]
        if shape == "dependencies":
            return self._list(",", self._name, "dependency name")
        if shape == "condition":
            return self._parse_condition()
        if self._skip("query"):
            return self._ident("query name")
        return self._list(",", self._parse_value)

    def _referenced(self, table: dict, tok: _Token, what: str):
        """The declaration in `table` that a template call names with `tok`."""
        if tok.text not in table:
            raise ResolutionError(f"template references unknown {what} {tok.text!r}")
        return table[tok.text]

    # sequences

    def _parse_seq(self):
        name = self._name("sequence name")
        self._declare(self.ws.sequences, name, "sequence")
        self._expect("=")
        names = self._list(",", self._name, "a procedure name")
        for tok in names:
            if tok.text not in self.ws.procedures:
                raise ResolutionError(f"sequence {name.text!r} references unknown procedure {tok.text!r}")
        self.ws.sequences[name.text] = tuple(t.text for t in names)


def _rows(relation: str, attrs: tuple[str, ...], tuples: Iterable[Sequence[Value]]) -> set[Row]:
    """Rows of `relation` from value tuples listed in sorted attribute order,
    each checked for arity as it arrives."""
    rows: set[Row] = set()
    for idx, values in enumerate(tuples):
        if len(values) != len(attrs):
            raise SchemaConformance(
                f"relation {relation}, tuple {idx}: expected {len(attrs)} values, got {len(values)}"
            )
        rows.add(Row(attrs, tuple(values)))
    return rows


def parse_workspace(text: str) -> Workspace:
    """Parse workspace text, resolving every cross-reference."""
    return _Parser(text).parse()


# --- serialization to text ----------------------------------------------------


def _guarded_value(v: Value) -> str:
    # Bare identifier-shaped constants would reparse as variables (in
    # atoms) or attribute names (in conditions), so force quotes there.
    if v.is_constant and is_plain_name(v.token):
        return f'"{v.token}"'
    return v.render()


def _render_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    return _guarded_value(t)


def _render_atom(a: Atom) -> str:
    if isinstance(a, ConstantAtom):
        return f"nonnull({a.variable.name})"
    inner = ", ".join(f"{attr}: {_render_term(t)}" for attr, t in a.bindings)
    return f"{a.relation}({inner})"


def _render_atoms(atoms: Sequence[Atom]) -> str:
    if not atoms:
        return "true"
    return " and ".join(_render_atom(a) for a in atoms)


def _render_cq(q: ConjunctiveQuery) -> str:
    prefix = ""
    if q.existential:
        names = ", ".join(v.name for v in sorted(q.existential))
        prefix = f"exists {names} . "
    return prefix + _render_atoms(q.atoms)


def _render_struct(c: StructureConstraint) -> str:
    if c.attributes is None:
        return f"{c.relation}[*]"
    if not c.attributes:
        return f"{c.relation}[]"
    return f"{c.relation}[{', '.join(c.attributes)}]"


def _render_constraint(c: Constraint) -> str:
    if isinstance(c, Tgd):
        return f"tgd {_render_atoms(c.body.atoms)} -> {_render_atoms(c.head.atoms)}"
    if isinstance(c, Egd):
        x, y = c.equated
        return f"egd {_render_atoms(c.body.atoms)} -> {x.name} = {y.name}"
    return f"struct {_render_struct(c)}"


def _render_condition(c: BooleanCondition, *, parenthesize: bool = False) -> str:
    if isinstance(c, Comparison):
        rhs = c.rhs if isinstance(c.rhs, str) else _guarded_value(c.rhs)
        return f"{c.lhs} {c.op} {rhs}"
    if isinstance(c, Not):
        return f"not ({_render_condition(c.item)})"
    joiner = " and " if isinstance(c, And) else " or "
    body = joiner.join(_render_condition(item, parenthesize=True) for item in c.items)
    return f"({body})" if parenthesize else body


def _render_query(q: Query) -> str:
    if isinstance(q, TotalQuery) and q.condition is not None:
        return f"filtered {q.relations[0]} where {_render_condition(q.condition)}"
    if isinstance(q, TotalQuery):
        return f"total {', '.join(q.relations)}"
    free = f"({', '.join(v.name for v in q.free)}) " if q.free else ""
    return f"cq {free}{_render_cq(q)}"


def serialize_workspace(ws: Workspace) -> str:
    """Workspace back to text; parse(serialize(ws)) reproduces ws.

    Attribute lists and dependency variables come out in canonical sorted
    order, so the text is normalized rather than byte-identical to any
    original source file.

    A constant prints bare when it is a plain name (`model.name_rule`) or it matches
    the number rule with decimal digits (`model.number_rule`); any other
    constant is quoted, so `1.`, `.5`, `-.5` and `²` come out as strings
    while `007` stays bare.  Inside atoms and conditions identifier-shaped
    constants are quoted as well, since bare they would read as variables
    or attribute names.
    """
    lines: list[str] = []
    for name, schema in ws.schemas.items():
        lines.append(f"schema {name} {{")
        for rel, attrs in schema.rels:
            lines.append(f"  rel {rel}({', '.join(sorted(attrs))});")
        lines.append("}")
        lines.append("")
    for name, instance in ws.instances.items():
        lines.append(f"instance {name} : {ws.instance_schema[name]} {{")
        for rel in instance.schema.names:
            rows = sorted(instance.rows(rel))
            rendered = ", ".join(
                "(" + ", ".join([v.render() for v in row.values]) + ")"
                for row in rows
            )
            lines.append(f"  {rel}: {rendered};")
        lines.append("}")
        lines.append("")
    for name, c in ws.constraints.items():
        kind = {Tgd: "tgd", Egd: "egd", StructureConstraint: "struct"}[type(c)]
        body = _render_constraint(c)
        body = body[len(kind) + 1 :]
        lines.append(f"{kind} {name} : {body}")
    if ws.constraints:
        lines.append("")
    for name, q in ws.queries.items():
        if isinstance(q, ConjunctiveQuery):
            free = f"({', '.join(v.name for v in q.free)})" if q.free else ""
            lines.append(f"query {name}{free} : {_render_cq(q)}")
        else:
            lines.append(f"query {name} : {_render_query(q)}")
    if ws.queries:
        lines.append("")
    for name, p in ws.procedures.items():
        lines.append(f"proc {name} {{")
        if p.scope:
            lines.append("  scope { " + " ".join(f"{_render_struct(c)};" for c in p.scope) + " }")
        for kind, items in (("pre", p.pre), ("post", p.post)):
            if items:
                lines.append(
                    f"  {kind} {{ " + " ".join(f"{_render_constraint(c)};" for c in items) + " }"
                )
        if p.safe:
            lines.append("  safe { " + " ".join(f"{_render_query(q)};" for q in p.safe) + " }")
        lines.append("}")
        lines.append("")
    for name, steps in ws.sequences.items():
        lines.append(f"seq {name} = {', '.join(steps)}")
    return "\n".join(lines).strip() + "\n"


# --- JSON mirror ---------------------------------------------------------------


def cell_to_json(c: Cell) -> dict:
    if isinstance(c, LabeledNull):
        return {"null": c.id}
    return {"const": c.token} if c.is_constant else {"null": c.token}


def schema_to_json(s: Schema) -> dict:
    return {rel: sorted(attrs) for rel, attrs in s.rels}


def instance_to_json(i: Instance, schema=None) -> dict:
    """The instance's rows in sorted order, under `schema` (a workspace names
    its instance's schema) or else the image of its own schema."""
    return {
        "schema": schema_to_json(i.schema) if schema is None else schema,
        "rows": {
            rel: [[cell_to_json(v) for v in row.values] for row in sorted(i.rows(rel))]
            for rel in i.schema.names
        },
    }


def _value_from_json(obj) -> Value:
    if (
        isinstance(obj, Mapping)
        and set(obj) in ({"const"}, {"null"})
        and all(isinstance(token, str) for token in obj.values())
    ):
        v = const(obj["const"]) if "const" in obj else null_marker(obj["null"])
        if "@" in v.token:
            raise WorkspaceSyntaxError(1, 1, "json: values containing @ are reserved")
        return v
    raise WorkspaceSyntaxError(1, 1, f"json: bad value {obj!r}")


def _term_to_json(t) -> dict:
    if isinstance(t, Var):
        return {"var": t.name}
    return cell_to_json(t)


def _str_from_json(name, what: str) -> str:
    if not isinstance(name, str):
        raise WorkspaceSyntaxError(1, 1, f"json: bad {what} {name!r}")
    return name


def _var_from_json(name) -> Var:
    return Var(_str_from_json(name, "variable name"))


def _term_from_json(obj):
    if isinstance(obj, Mapping) and set(obj) == {"var"}:
        return _var_from_json(obj["var"])
    return _value_from_json(obj)


def _atom_to_json(a: Atom) -> dict:
    if isinstance(a, ConstantAtom):
        return {"nonnull": a.variable.name}
    return {
        "relation": a.relation,
        "bindings": {attr: _term_to_json(t) for attr, t in a.bindings},
    }


def _atom_from_json(obj) -> Atom:
    if "nonnull" in obj:
        return ConstantAtom(_var_from_json(obj["nonnull"]))
    return NamedAtom.of(
        obj["relation"], {attr: _term_from_json(t) for attr, t in obj["bindings"].items()}
    )


def _cq_to_json(q: ConjunctiveQuery) -> dict:
    return {
        "atoms": [_atom_to_json(a) for a in q.atoms],
        "free": [v.name for v in q.free],
        "existential": sorted(v.name for v in q.existential),
    }


def _cq_from_json(obj) -> ConjunctiveQuery:
    atoms = tuple(_atom_from_json(a) for a in obj["atoms"])
    free = _names_from_json(obj["free"], "free variables", distinct=False)
    existential = _names_from_json(obj["existential"], "existential variables", distinct=False)
    return ConjunctiveQuery(atoms, tuple(map(Var, free)), frozenset(map(Var, existential)))


def _condition_to_json(c: BooleanCondition) -> dict:
    if isinstance(c, Comparison):
        rhs = {"attr": c.rhs} if isinstance(c.rhs, str) else cell_to_json(c.rhs)
        return {"kind": "cmp", "lhs": c.lhs, "op": c.op, "rhs": rhs}
    if isinstance(c, Not):
        return {"kind": "not", "item": _condition_to_json(c.item)}
    kind = "and" if isinstance(c, And) else "or"
    return {"kind": kind, "items": [_condition_to_json(item) for item in c.items]}


def _condition_from_json(obj) -> BooleanCondition:
    kind = obj["kind"]
    if kind == "cmp":
        rhs = obj["rhs"]
        if isinstance(rhs, Mapping) and set(rhs) == {"attr"}:
            rhs = _str_from_json(rhs["attr"], "attribute name")
        else:
            rhs = _value_from_json(rhs)
        return Comparison(_str_from_json(obj["lhs"], "attribute name"), obj["op"], rhs)
    if kind == "not":
        return Not(_condition_from_json(obj["item"]))
    if kind not in ("and", "or") or not isinstance(obj["items"], list) or len(obj["items"]) < 2:
        raise WorkspaceSyntaxError(1, 1, f"json: bad condition {obj!r}")
    items = tuple(_condition_from_json(item) for item in obj["items"])
    return And(items) if kind == "and" else Or(items)


def _constraint_to_json(c: Constraint) -> dict:
    if isinstance(c, Tgd):
        return {"kind": "tgd", "body": _cq_to_json(c.body), "head": _cq_to_json(c.head)}
    if isinstance(c, Egd):
        return {
            "kind": "egd",
            "body": _cq_to_json(c.body),
            "equated": [c.equated[0].name, c.equated[1].name],
        }
    return {
        "kind": "struct",
        "relation": c.relation,
        "attributes": None if c.attributes is None else list(c.attributes),
    }


def _constraint_from_json(obj) -> Constraint:
    kind = obj["kind"]
    if kind == "tgd":
        return Tgd(_cq_from_json(obj["body"]), _cq_from_json(obj["head"]))
    if kind == "egd":
        x, y = _names_from_json(obj["equated"], "equated variables", distinct=False)
        return Egd(_cq_from_json(obj["body"]), (Var(x), Var(y)))
    if kind == "struct":
        rel, attrs = obj["relation"], obj["attributes"]
        if attrs is not None:
            attrs = tuple(_names_from_json(attrs, f"attributes of {rel!r}"))
        return StructureConstraint(rel, attrs)
    raise WorkspaceSyntaxError(1, 1, f"json: unknown constraint kind {kind!r}")


def _query_to_json(q: Query) -> dict:
    if isinstance(q, ConjunctiveQuery):
        return {"kind": "cq", **_cq_to_json(q)}
    if q.condition is not None:
        return {
            "kind": "filtered",
            "relation": q.relations[0],
            "condition": _condition_to_json(q.condition),
        }
    if len(q.relations) == 1:
        return {"kind": "total", "relation": q.relations[0]}
    return {"kind": "total_conj", "relations": list(q.relations)}


def _query_from_json(obj) -> Query:
    kind = obj["kind"]
    if kind == "cq":
        return _cq_from_json(obj)
    if kind == "total":
        return TotalQuery((obj["relation"],))
    if kind == "total_conj":
        return TotalQuery(tuple(_names_from_json(obj["relations"], "relations", distinct=False)))
    if kind == "filtered":
        return TotalQuery((obj["relation"],), _condition_from_json(obj["condition"]))
    raise WorkspaceSyntaxError(1, 1, f"json: unknown query kind {kind!r}")


def workspace_to_json(ws: Workspace) -> dict:
    """One-to-one JSON image of the workspace."""
    return {
        "schemas": {name: schema_to_json(schema) for name, schema in ws.schemas.items()},
        "instances": {
            name: instance_to_json(instance, ws.instance_schema[name])
            for name, instance in ws.instances.items()
        },
        "constraints": {name: _constraint_to_json(c) for name, c in ws.constraints.items()},
        "queries": {name: _query_to_json(q) for name, q in ws.queries.items()},
        "procedures": {
            name: {
                "scope": [_constraint_to_json(c) for c in p.scope],
                "pre": [_constraint_to_json(c) for c in p.pre],
                "post": [_constraint_to_json(c) for c in p.post],
                "safe": [_query_to_json(q) for q in p.safe],
            }
            for name, p in ws.procedures.items()
        },
        "sequences": {name: list(steps) for name, steps in ws.sequences.items()},
    }


def workspace_from_json(obj: Mapping) -> Workspace:
    """Rebuild a workspace from its JSON image, revalidating references.

    A missing field or a field of the wrong shape is a syntax error, and so
    is a name the text grammar would not read back: each declaration,
    relation, attribute and variable name must lex as one identifier that
    is not a reserved word, and each value in an instance row, an atom or
    a condition must render as one token that reads back as that value. As
    in the text, a name containing `@` is reserved: the searches generate
    such values and attributes.
    """
    try:
        ws = _workspace_from_json(obj)
        items = [
            *ws.constraints.values(),
            *ws.queries.values(),
            *(c for p in ws.procedures.values() for c in p.scope + p.pre + p.post + p.safe),
        ]
        schemas = (StructureConstraint.of(r, a) for s in ws.schemas.values() for r, a in s.rels)
        named = demanded_attrs(chain(schemas, items), {})
        cqs = [
            q
            for c in items
            for q in ((c.body, c.head) if isinstance(c, Tgd) else (c.body,) if isinstance(c, Egd) else (c,))
            if isinstance(q, ConjunctiveQuery)
        ]
        names = chain(
            *(ws.schemas, ws.instances, ws.constraints, ws.queries, ws.procedures, ws.sequences),
            (n for rel, attrs in named.items() for n in (rel, *attrs)),
            (v.name for q in cqs for v in q.vars),
        )
        bad = [
            n for n in names
            if not (isinstance(n, str) and n not in RESERVED_WORDS and n and _sole_token(n)[_IDENT] == n)
        ]
        conditions = [q.condition for q in items if isinstance(q, TotalQuery) and q.condition is not None]
        values = chain(
            *map(active_domain, ws.instances.values()),
            *map(cq_constants, cqs),
            (leaf.rhs for c in conditions for leaf in comparisons(c) if isinstance(leaf.rhs, Value)),
        )
        bad_values = [v for v in dict.fromkeys(values) if _raw_value(_sole_token(v.render())) != v]
    except KeyError as e:
        raise WorkspaceSyntaxError(1, 1, f"json: missing field {e.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise WorkspaceSyntaxError(1, 1, f"json: malformed workspace: {e}") from None
    if bad:
        at = "@" in str(bad[0])
        why = "names containing @ are reserved for generated values" if at else "not a valid name"
        raise WorkspaceSyntaxError(1, 1, f"json: {why}: {bad[0]!r}")
    if bad_values:
        raise WorkspaceSyntaxError(1, 1, f"json: not a valid value: {cell_to_json(bad_values[0])}")
    return ws


def _sole_token(text: str) -> tuple[str, ...]:
    """The raw token `text` lexes as, if it is exactly one; else an empty one."""
    try:
        raw = _lex(text)
    except WorkspaceSyntaxError:
        raw = []
    return raw[0] if len(raw) == 2 else ("",) * (_ERROR + 1)


def _names_from_json(names, what: str, *, distinct: bool = True) -> list[str]:
    if (
        not isinstance(names, list)
        or not all(isinstance(n, str) for n in names)
        or (distinct and len(set(names)) != len(names))
    ):
        kind = "distinct strings" if distinct else "strings"
        raise WorkspaceSyntaxError(1, 1, f"json: {what} must be a list of {kind}")
    return names


def _workspace_from_json(obj: Mapping) -> Workspace:
    ws = Workspace()
    for name, rels in obj.get("schemas", {}).items():
        ws.schemas[name] = Schema.of(
            {rel: _names_from_json(a, f"attributes of {rel!r}") for rel, a in rels.items()}
        )
    for name, spec in obj.get("instances", {}).items():
        schema_name = spec["schema"]
        if schema_name not in ws.schemas:
            raise ResolutionError(f"instance {name!r} references unknown schema {schema_name!r}")
        schema = ws.schemas[schema_name]
        data: dict[str, set[Row]] = {}
        for rel, rows in spec["rows"].items():
            if not schema.defines(rel):
                raise ResolutionError(
                    f"instance {name!r} lists relation {rel!r} missing from schema {schema_name!r}"
                )
            values = ([_value_from_json(v) for v in row] for row in rows)
            data[rel] = _rows(rel, schema.layout(rel), values)
        ws.instances[name] = Instance.of(schema, data)
        ws.instance_schema[name] = schema_name
    for name, c in obj.get("constraints", {}).items():
        ws.constraints[name] = _constraint_from_json(c)
    for name, q in obj.get("queries", {}).items():
        ws.queries[name] = _query_from_json(q)
    for name, spec in obj.get("procedures", {}).items():
        scope = [_constraint_from_json(c) for c in spec.get("scope", [])]
        if not all(isinstance(c, StructureConstraint) for c in scope):
            raise WorkspaceSyntaxError(1, 1, f"json: procedure {name!r} scope must be structural")
        ws.procedures[name] = Procedure.of(
            scope=scope,
            pre=[_constraint_from_json(c) for c in spec.get("pre", [])],
            post=[_constraint_from_json(c) for c in spec.get("post", [])],
            safe=[_query_from_json(q) for q in spec.get("safe", [])],
            name=name,
        )
    for name, steps in obj.get("sequences", {}).items():
        if not _names_from_json(steps, f"steps of sequence {name!r}", distinct=False):
            raise WorkspaceSyntaxError(1, 1, f"json: sequence {name!r} has no steps")
        for step in steps:
            if step not in ws.procedures:
                raise ResolutionError(f"sequence {name!r} references unknown procedure {step!r}")
        ws.sequences[name] = tuple(steps)
    return ws


def load_workspace(path: str) -> Workspace:
    """Read a UTF-8 workspace file; .dq.json is JSON, anything else is the DSL."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        text = f.read()
    # surrogateescape decodes each byte that is not UTF-8 to U+DC80..U+DCFF
    bad = re.search("[\udc80-\udcff]", text)
    if bad:
        prefix = "json: " if path.endswith(".json") else ""
        raise _syntax_error(text, bad.start(), f"{prefix}invalid UTF-8 byte 0x{ord(bad[0]) - 0xDC00:02x}")
    if path.endswith(".json"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise WorkspaceSyntaxError(e.lineno, e.colno, f"json: {e.msg}")
        return workspace_from_json(obj)
    return parse_workspace(text)


__all__ = [
    "Workspace",
    "load_workspace",
    "parse_workspace",
    "serialize_workspace",
    "workspace_from_json",
    "workspace_to_json",
]
