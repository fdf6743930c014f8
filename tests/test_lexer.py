"""Lexer unit and property tests."""

from __future__ import annotations

import copy
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from repro.lang.errors import LexError
from repro.lang.lexer import _OPERATORS, tokenize
from repro.lang.source import Position
from repro.lang.tokens import KEYWORDS, Token, TokenKind


def kinds(text: str) -> list[TokenKind]:
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def texts(text: str) -> list[str]:
    return [t.text for t in tokenize(text)][:-1]


class TestBasicTokens:
    def test_empty_input_is_just_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        assert kinds("foo") == [TokenKind.IDENT]

    def test_identifier_with_digits_and_underscores(self):
        assert texts("foo_bar9") == ["foo_bar9"]

    def test_int_literal(self):
        tokens = tokenize("12345")
        assert tokens[0].kind is TokenKind.INT_LITERAL
        assert tokens[0].text == "12345"

    def test_identifier_cannot_start_with_digit(self):
        with pytest.raises(LexError):
            tokenize("9abc")

    @pytest.mark.parametrize("word,kind", sorted(KEYWORDS.items()))
    def test_keywords(self, word, kind):
        assert kinds(word) == [kind]

    def test_keyword_prefix_is_identifier(self):
        # 'classy' must not lex as 'class' + 'y'.
        assert kinds("classy") == [TokenKind.IDENT]

    def test_string_literal(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind is TokenKind.STRING_LITERAL
        assert tokens[0].text == "hello world"

    def test_string_escapes(self):
        assert texts(r'"a\nb\tc\"d\\e"') == ["a\nb\tc\"d\\e"]

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_string_may_not_span_lines(self):
        with pytest.raises(LexError):
            tokenize('"abc\ndef"')

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')

    def test_char_literal_is_one_char_string(self):
        tokens = tokenize("'x'")
        assert tokens[0].kind is TokenKind.CHAR_LITERAL
        assert tokens[0].text == "x"

    def test_char_escape(self):
        assert tokenize(r"'\n'")[0].text == "\n"

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'ab'")


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
            ("==", TokenKind.EQ),
            ("!=", TokenKind.NE),
            ("&&", TokenKind.AND),
            ("||", TokenKind.OR),
            ("++", TokenKind.PLUS_PLUS),
            ("--", TokenKind.MINUS_MINUS),
            ("+=", TokenKind.PLUS_ASSIGN),
            ("-=", TokenKind.MINUS_ASSIGN),
        ],
    )
    def test_two_char_operators(self, text, kind):
        assert kinds(text) == [kind]

    @pytest.mark.parametrize("text,kind", sorted(_OPERATORS.items()))
    def test_every_operator_lexes_to_its_kind(self, text, kind):
        tokens = tokenize(text)
        assert [(t.kind, t.text) for t in tokens[:-1]] == [(kind, text)]

    def test_maximal_munch(self):
        # '<=' lexes as one token, not '<' '='.
        assert kinds("a<=b") == [TokenKind.IDENT, TokenKind.LE, TokenKind.IDENT]

    def test_plus_plus_vs_plus(self):
        assert kinds("a++ + b") == [
            TokenKind.IDENT,
            TokenKind.PLUS_PLUS,
            TokenKind.PLUS,
            TokenKind.IDENT,
        ]

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\n b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_line_comment_at_eof(self):
        assert kinds("a // no newline") == [TokenKind.IDENT]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_marker_comments_are_skipped(self):
        assert kinds("x = 1; //@tag:seed") == [
            TokenKind.IDENT,
            TokenKind.ASSIGN,
            TokenKind.INT_LITERAL,
            TokenKind.SEMI,
        ]


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  bb\n ccc")
        positions = [(t.position.line, t.position.column) for t in tokens[:-1]]
        assert positions == [(1, 1), (2, 3), (3, 2)]

    def test_filename_recorded(self):
        token = tokenize("x", filename="foo.mj")[0]
        assert token.position.filename == "foo.mj"

    def test_position_after_block_comment(self):
        tokens = tokenize("/* a\nb */ x")
        assert tokens[0].position.line == 2


class TestTokenRecords:
    """``Position`` and ``Token`` behave as value records: equality,
    hashing, ordering, text forms and pickling are pinned."""

    def test_position_equality_and_hash(self):
        a = Position(3, 4, "f.mj")
        assert a == Position(line=3, column=4, filename="f.mj")
        assert hash(a) == hash(Position(3, 4, "f.mj"))
        assert a != Position(3, 5, "f.mj")
        assert a != Position(4, 4, "f.mj")
        assert a != Position(3, 4, "g.mj")
        assert a != (3, 4, "f.mj")
        assert Position(1, 1) == Position(1, 1, "<input>")
        assert len({a, Position(3, 4, "f.mj"), Position(3, 4, "g.mj")}) == 2

    def test_position_orders_by_line_column_filename(self):
        unordered = [
            Position(2, 1, "a.mj"),
            Position(1, 9, "b.mj"),
            Position(1, 9, "a.mj"),
            Position(1, 2, "z.mj"),
        ]
        assert sorted(unordered) == [
            Position(1, 2, "z.mj"),
            Position(1, 9, "a.mj"),
            Position(1, 9, "b.mj"),
            Position(2, 1, "a.mj"),
        ]
        a, b = Position(1, 2, "f.mj"), Position(1, 3, "f.mj")
        assert a < b and a <= b and b > a and b >= a
        assert a <= Position(1, 2, "f.mj") >= a
        with pytest.raises(TypeError):
            _ = a < (1, 3, "f.mj")

    def test_position_text_forms(self):
        a = Position(3, 4, "f.mj")
        assert str(a) == "f.mj:3:4"
        assert repr(a) == "Position(line=3, column=4, filename='f.mj')"

    def test_token_equality_and_hash(self):
        a = Token(TokenKind.IDENT, "x", Position(1, 2, "f.mj"))
        same = Token(
            kind=TokenKind.IDENT, text="x", position=Position(1, 2, "f.mj")
        )
        assert a == same and hash(a) == hash(same)
        assert a != Token(TokenKind.IDENT, "y", Position(1, 2, "f.mj"))
        assert a != Token(TokenKind.INT_LITERAL, "x", Position(1, 2, "f.mj"))
        assert a != Token(TokenKind.IDENT, "x", Position(1, 3, "f.mj"))
        assert a != (TokenKind.IDENT, "x", Position(1, 2, "f.mj"))
        with pytest.raises(TypeError):
            _ = a < same

    def test_token_text_forms(self):
        a = Token(TokenKind.IDENT, "x", Position(1, 2, "f.mj"))
        assert str(a) == "IDENT('x')@f.mj:1:2"
        assert repr(a) == (
            "Token(kind=<TokenKind.IDENT: 'identifier'>, text='x', "
            "position=Position(line=1, column=2, filename='f.mj'))"
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        tokens = tokenize("class A { int f; }\nx", "f.mj")
        restored = pickle.loads(pickle.dumps(tokens, protocol))
        assert restored == tokens
        assert [str(t) for t in restored] == [str(t) for t in tokens]
        assert type(restored[0].position) is Position

    def test_copies_are_equal(self):
        token = tokenize("abc", "f.mj")[0]
        assert copy.copy(token) == token
        assert copy.deepcopy(token) == token


class TestDiagnostics:
    """Messages and positions of malformed input, pinned."""

    @pytest.mark.parametrize(
        "text,where,message",
        [
            ("''", (1, 1), "unterminated char literal"),
            ("'\\q'", (1, 3), "bad escape \\q"),
            ("'a", (1, 1), "unterminated char literal"),
            ('"abc\\', (1, 6), "bad escape \\"),
            ("'\\", (1, 3), "bad escape \\"),
            ('x = "ab\ncd"', (1, 5), "unterminated string literal"),
            ("1\u00e9", (1, 1), "identifier cannot start with a digit"),
            ("a \u00e9", (1, 3), "unexpected character '\u00e9'"),
            ("int y = \u00b2;", (1, 9), "unexpected character '\u00b2'"),
        ],
    )
    def test_diagnostic(self, text, where, message):
        with pytest.raises(LexError) as info:
            tokenize(text)
        position = info.value.position
        assert (position.line, position.column) == where
        assert info.value.message == message

    def test_char_literal_may_hold_a_raw_newline(self):
        tokens = tokenize("'\n' y")
        assert [
            (t.kind, t.text, t.position.line, t.position.column)
            for t in tokens[:-1]
        ] == [
            (TokenKind.CHAR_LITERAL, "\n", 1, 1),
            (TokenKind.IDENT, "y", 2, 3),
        ]

    def test_non_ascii_letter_ends_no_identifier(self):
        # The grammar's identifiers are ASCII: 'a\u00e9' is not one word.
        with pytest.raises(LexError) as info:
            tokenize("a\u00e9 b")
        position = info.value.position
        assert (position.line, position.column) == (1, 2)

    def test_non_ascii_inside_literals_and_comments_is_text(self):
        tokens = tokenize('"\u00e9\u00b2" \'\u00e9\' // \u0661\n/* \u00a0 */ x')
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            (TokenKind.STRING_LITERAL, "\u00e9\u00b2"),
            (TokenKind.CHAR_LITERAL, "\u00e9"),
            (TokenKind.IDENT, "x"),
        ]


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WORD_KINDS = {TokenKind.IDENT, *KEYWORDS.values()}

_IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS
)


class TestLexerProperties:
    @given(st.lists(_IDENT, min_size=1, max_size=20))
    def test_space_joined_idents_round_trip(self, names):
        tokens = tokenize(" ".join(names))
        assert [t.text for t in tokens[:-1]] == names
        assert all(t.kind is TokenKind.IDENT for t in tokens[:-1])

    @given(st.integers(min_value=0, max_value=10**12))
    def test_int_literals_round_trip(self, value):
        token = tokenize(str(value))[0]
        assert token.kind is TokenKind.INT_LITERAL
        assert int(token.text) == value

    @given(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Lu", "Ll", "Nd", "Zs"),
                max_codepoint=0x7E,
            ),
            max_size=30,
        )
    )
    def test_string_literal_round_trip(self, content):
        token = tokenize('"' + content + '"')[0]
        assert token.kind is TokenKind.STRING_LITERAL
        assert token.text == content

    @given(st.text())
    def test_words_and_numbers_follow_the_ascii_grammar(self, text):
        try:
            tokens = tokenize(text)
        except LexError:
            return
        for token in tokens:
            if token.kind in _WORD_KINDS:
                assert _WORD.fullmatch(token.text), token
            elif token.kind is TokenKind.INT_LITERAL:
                assert re.fullmatch("[0-9]+", token.text), token

    @given(st.lists(_IDENT, min_size=1, max_size=10))
    def test_lexing_is_deterministic(self, names):
        text = "(".join(names)
        first = [(t.kind, t.text) for t in tokenize(text)]
        second = [(t.kind, t.text) for t in tokenize(text)]
        assert first == second
