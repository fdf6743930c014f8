"""Token kinds and the token record produced by the MJ lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.lang.source import Position


class TokenKind(enum.Enum):
    """Every lexical category in MJ."""

    # Literals and identifiers.
    IDENT = "identifier"
    INT_LITERAL = "int literal"
    STRING_LITERAL = "string literal"
    CHAR_LITERAL = "char literal"

    # Keywords.
    CLASS = "class"
    EXTENDS = "extends"
    STATIC = "static"
    FINAL = "final"
    VOID = "void"
    INT = "int"
    BOOLEAN = "boolean"
    IF = "if"
    ELSE = "else"
    WHILE = "while"
    FOR = "for"
    RETURN = "return"
    BREAK = "break"
    CONTINUE = "continue"
    NEW = "new"
    THIS = "this"
    SUPER = "super"
    NULL = "null"
    TRUE = "true"
    FALSE = "false"
    INSTANCEOF = "instanceof"
    THROW = "throw"
    TRY = "try"
    CATCH = "catch"

    # Punctuation and operators.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    NOT = "!"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&&"
    OR = "||"
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="

    EOF = "end of file"


KEYWORDS: dict[str, TokenKind] = {
    "class": TokenKind.CLASS,
    "extends": TokenKind.EXTENDS,
    "static": TokenKind.STATIC,
    "final": TokenKind.FINAL,
    "void": TokenKind.VOID,
    "int": TokenKind.INT,
    "boolean": TokenKind.BOOLEAN,
    "if": TokenKind.IF,
    "else": TokenKind.ELSE,
    "while": TokenKind.WHILE,
    "for": TokenKind.FOR,
    "return": TokenKind.RETURN,
    "break": TokenKind.BREAK,
    "continue": TokenKind.CONTINUE,
    "new": TokenKind.NEW,
    "this": TokenKind.THIS,
    "super": TokenKind.SUPER,
    "null": TokenKind.NULL,
    "true": TokenKind.TRUE,
    "false": TokenKind.FALSE,
    "instanceof": TokenKind.INSTANCEOF,
    "throw": TokenKind.THROW,
    "try": TokenKind.TRY,
    "catch": TokenKind.CATCH,
}


@dataclass(unsafe_hash=True, slots=True)
class Token:
    """A single lexed token with its verbatim text and position.

    Slotted and not frozen, like :class:`~repro.lang.source.Position`;
    never assign to one.
    """

    kind: TokenKind
    text: str
    position: Position

    def __reduce__(self):
        return (Token, (self.kind, self.text, self.position))

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.position}"
