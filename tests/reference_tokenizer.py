"""Reference tokenizer for the workspace text format.

This is the character-by-character lexer that `dqworkbench.dsl` used
before its single compiled pattern, kept verbatim so that a property in
`test_properties.py` can check the two agree on every token and every
lexical diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

from dqworkbench.errors import WorkspaceSyntaxError

_PUNCT = ("->", "!=", "{", "}", "(", ")", "[", "]", ",", ";", ":", ".", "*", "=")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos, line, col = pos + 1, line + 1, 1
            continue
        if ch in " \t\r":
            pos, col = pos + 1, col + 1
            continue
        if ch == "#":
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        start_line, start_col = line, col
        if ch == '"':
            pos += 1
            col += 1
            out = []
            while True:
                if pos >= n or text[pos] == "\n":
                    raise WorkspaceSyntaxError(start_line, start_col, "unterminated string")
                c = text[pos]
                if c == "\\":
                    if pos + 1 >= n:
                        raise WorkspaceSyntaxError(start_line, start_col, "unterminated string")
                    nxt = text[pos + 1]
                    if nxt not in ('"', "\\"):
                        raise WorkspaceSyntaxError(
                            line, col, f"unknown escape \\{nxt} (only \\\" and \\\\)"
                        )
                    out.append(nxt)
                    pos += 2
                    col += 2
                    continue
                if c == '"':
                    pos += 1
                    col += 1
                    break
                out.append(c)
                pos += 1
                col += 1
            tokens.append(_Token("string", "".join(out), start_line, start_col))
            continue
        if ch == "?":
            pos += 1
            col += 1
            name = []
            while pos < n and _is_ident_char(text[pos]):
                name.append(text[pos])
                pos += 1
                col += 1
            if not name:
                raise WorkspaceSyntaxError(start_line, start_col, "? must start a null name")
            tokens.append(_Token("null", "".join(name), start_line, start_col))
            continue
        if ch.isdigit() or (ch == "-" and pos + 1 < n and text[pos + 1].isdigit()):
            num = [ch]
            pos += 1
            col += 1
            seen_dot = False
            while pos < n and (text[pos].isdigit() or (text[pos] == "." and not seen_dot
                               and pos + 1 < n and text[pos + 1].isdigit())):
                seen_dot = seen_dot or text[pos] == "."
                num.append(text[pos])
                pos += 1
                col += 1
            tokens.append(_Token("number", "".join(num), start_line, start_col))
            continue
        if _is_ident_start(ch) or ch == "@":
            name = [ch]
            pos += 1
            col += 1
            while pos < n:
                c = text[pos]
                if _is_ident_char(c) or c == "@":
                    name.append(c)
                    pos += 1
                    col += 1
                elif c == "." and pos + 1 < n and (_is_ident_char(text[pos + 1]) or text[pos + 1] == "@"):
                    name.append(c)
                    pos += 1
                    col += 1
                else:
                    break
            word = "".join(name)
            if word.startswith("@") or "@" in word:
                raise WorkspaceSyntaxError(
                    start_line, start_col, "names containing @ are reserved for generated values"
                )
            tokens.append(_Token("ident", word, start_line, start_col))
            continue
        matched = None
        for p in _PUNCT:
            if text.startswith(p, pos):
                matched = p
                break
        if matched is None:
            raise WorkspaceSyntaxError(start_line, start_col, f"unexpected character {ch!r}")
        tokens.append(_Token("punct", matched, start_line, start_col))
        pos += len(matched)
        col += len(matched)
    return tokens
