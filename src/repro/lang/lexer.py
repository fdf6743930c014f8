"""Lexer for MJ.

:func:`tokenize` scans the text with one compiled regex, one ``re``
match per token or trivia run: whitespace, comments, words, integers,
string and char literals, and operators.  The classes follow the ASCII
grammar in ``docs/LANGUAGE.md``, so a character outside it (say ``é``
or ``²``) is an ``unexpected character`` unless it sits inside a
literal or a comment.  Where nothing matches, :func:`_lex_error` names
the malformed token: an unterminated or badly escaped literal, or an
unexpected character.

Comments (``//`` and ``/* */``) are skipped, but ``//@tag:name`` markers
remain visible to the suite loader because it reads the raw text (see
:mod:`repro.lang.source`).
"""

from __future__ import annotations

import re

from repro.lang.errors import LexError
from repro.lang.source import Position
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_OPERATORS: dict[str, TokenKind] = {
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
    "++": TokenKind.PLUS_PLUS,
    "--": TokenKind.MINUS_MINUS,
    "+=": TokenKind.PLUS_ASSIGN,
    "-=": TokenKind.MINUS_ASSIGN,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "!": TokenKind.NOT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
}

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "'": "'", "0": "\0"}

#: Group order: 1 whitespace, 2 line comment, 3 block comment, 4 word,
#: 5 int literal, 6 string literal, 7 char literal, 8 operator (the keys
#: of ``_OPERATORS``, two-char before one-char for maximal munch;
#: comments are listed before the ``/`` operator).  A string closes on
#: its own line; a char literal holds one character, a raw newline
#: included, or one escape.
_TOKEN_RE = re.compile(
    r"([ \t\r\n]+)"
    r"|(//[^\n]*)"
    r"|(/\*(?:[^*]|\*(?!/))*\*/)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|([0-9]+)"
    r'|("(?:[^"\\\n]|\\[^\n])*")'
    r"|('(?:[^\\]|\\[\s\S])')"
    r"|(<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|[(){}\[\];,.=+\-*/%!<>])"
)

_WS, _LINE_COMMENT, _BLOCK_COMMENT, _WORD, _NUMBER, _STRING, _CHAR, _OP = range(1, 9)


def _decode_string(raw: str, line: int, start_col: int, filename: str) -> str:
    """Decode the body of a matched string or char literal.

    ``raw`` includes both quotes and starts at column ``start_col`` of
    ``line``; a bad escape raises at the escape character's position.
    """
    if "\\" not in raw:
        return raw[1:-1]
    chars: list[str] = []
    index = 1
    limit = len(raw) - 1
    while index < limit:
        ch = raw[index]
        if ch == "\\":
            escape = raw[index + 1]
            if escape not in _ESCAPES:
                raise LexError(
                    f"bad escape \\{escape}",
                    Position(line, start_col + index + 1, filename),
                )
            chars.append(_ESCAPES[escape])
            index += 2
        else:
            chars.append(ch)
            index += 1
    return "".join(chars)


def _lex_error(text: str, pos: int, position: Position) -> LexError:
    """The diagnostic for ``text[pos]``, where no token matches.

    A quote that opens no well-formed literal reports its first bad
    escape (a string's up to the line break, a char literal's first
    character) and otherwise is unterminated; any other character is
    unexpected.
    """
    quote = text[pos]
    if quote == '"':
        kind = "string"
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
    elif quote == "'":
        kind = "char"
        end = min(pos + 2, len(text))
    else:
        return LexError(f"unexpected character {quote!r}", position)
    index = pos + 1
    while index < end:
        if text[index] == "\\":
            escape = text[index + 1 : index + 2]
            if escape not in _ESCAPES:
                return LexError(
                    f"bad escape \\{escape}",
                    Position(
                        position.line,
                        position.column + index + 1 - pos,
                        position.filename,
                    ),
                )
            index += 2
        else:
            index += 1
    return LexError(f"unterminated {kind} literal", position)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Lex ``text`` into a token list ending with a single EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    match_at = _TOKEN_RE.match
    length = len(text)
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of the current line
    while pos < length:
        match = match_at(text, pos)
        if match is None:
            raise _lex_error(
                text, pos, Position(line, pos - line_start + 1, filename)
            )
        group = match.lastindex
        end = match.end()
        if group == _WS or group == _BLOCK_COMMENT:
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
            pos = end
            continue
        if group == _LINE_COMMENT:
            pos = end
            continue
        column = pos - line_start + 1
        if group == _WORD:
            word = match.group(_WORD)
            append(
                Token(
                    KEYWORDS.get(word, TokenKind.IDENT),
                    word,
                    Position(line, column, filename),
                )
            )
        elif group == _NUMBER:
            position = Position(line, column, filename)
            if end < length and text[end].isalpha():
                raise LexError("identifier cannot start with a digit", position)
            append(Token(TokenKind.INT_LITERAL, match.group(_NUMBER), position))
        elif group == _STRING or group == _CHAR:
            raw = match.group(group)
            append(
                Token(
                    TokenKind.STRING_LITERAL
                    if group == _STRING
                    else TokenKind.CHAR_LITERAL,
                    _decode_string(raw, line, column, filename),
                    Position(line, column, filename),
                )
            )
            if raw == "'\n'":  # the one literal that spans a line break
                line += 1
                line_start = pos + 2
        else:  # operator
            op = match.group(_OP)
            if op == "/" and end < length and text[end] == "*":
                # '/*' that the block-comment alternative rejected:
                # an unterminated block comment.
                raise LexError(
                    "unterminated block comment",
                    Position(line, column, filename),
                )
            append(Token(_OPERATORS[op], op, Position(line, column, filename)))
        pos = end
    append(Token(TokenKind.EOF, "", Position(line, length - line_start + 1, filename)))
    return tokens
