"""Portable Game Notation: parsing, SAN resolution and serialization.

The parser covers the PGN export format for standard games: tag pairs,
movetext with move numbers, brace and semicolon comments, numeric
annotation glyphs and result markers; of the import format, unspaced
move numbers (1.e4) and % escape lines.  Recursive variations and set-up
positions (FEN tags) are rejected rather than skipped so corpus errors
cannot pass silently.

The lexer is two patterns: one skips trivia (whitespace, comments and
escape lines), the other reads a word.  A line and column are computed
only when an error is raised.  Moves are written by spelling their
minimal SanToken with san_text, the one SAN speller; only the commands
that write text spell, so validation resolves and plays without it.  A
parse reads each distinct word once: repeated words share one frozen
SanToken.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

from .board import (
    _CASTLINGS,
    _PIECE_LETTERS,
    IllegalMoveError,
    Move,
    _context,
    _moves_onto,
    iss_castling,
)
from .game import REMIS, Game, Winner, game_move, new_game
from .pieces import SQUARES, Colour, Coordinate, PieceType, square_at, square_index

FILE_TO_X = {c: i for i, c in enumerate("abcdefgh", start=1)}
RANK_TO_Y = {c: i for i, c in enumerate("12345678", start=1)}
# The board diagram's letters in upper case, the pawn's left out.
PIECE_LETTERS = {
    kind: "" if kind is PieceType.PAWN else letter.upper()
    for kind, letter in _PIECE_LETTERS.items()
}
X_TO_FILE = {x: c for c, x in FILE_TO_X.items()}
_LETTER_TO_PIECE = {letter: t for t, letter in PIECE_LETTERS.items() if letter}


def char_maps() -> tuple[dict[str, int], dict[str, int], dict[PieceType, str]]:
    """The file, rank and piece-letter mappings used by the notation.

    Files a-h map to 1-8, rank characters to their numbers, and piece
    types to their SAN letters (the pawn's letter is empty).  Each map is
    invertible on its range.
    """
    return dict(FILE_TO_X), dict(RANK_TO_Y), dict(PIECE_LETTERS)


class SanKind(Enum):
    NORMAL = "normal"
    KINGSIDE_CASTLE = "kingside-castle"
    QUEENSIDE_CASTLE = "queenside-castle"


class CheckMark(Enum):
    NONE = ""
    CHECK = "+"
    MATE = "#"


class GameResult(Enum):
    WHITE_WINS = "1-0"
    BLACK_WINS = "0-1"
    DRAW = "1/2-1/2"
    UNKNOWN = "*"


@dataclass(frozen=True)
class SanToken:
    """One parsed movetext element, not yet tied to a position."""

    kind: SanKind = SanKind.NORMAL
    piece_type: PieceType = PieceType.PAWN
    target: Optional[Coordinate] = None
    is_capture: bool = False
    promotion: Optional[PieceType] = None
    origin_file: Optional[int] = None
    origin_rank: Optional[int] = None
    check_mark: CheckMark = CheckMark.NONE


def san_text(token: SanToken) -> str:
    """The canonical SAN spelling of a token."""
    mark = token.check_mark.value
    if token.kind is SanKind.KINGSIDE_CASTLE:
        return "O-O" + mark
    if token.kind is SanKind.QUEENSIDE_CASTLE:
        return "O-O-O" + mark
    target = token.target
    assert target is not None
    return (
        PIECE_LETTERS[token.piece_type]
        + ("" if token.origin_file is None else X_TO_FILE[token.origin_file])
        + ("" if token.origin_rank is None else str(token.origin_rank))
        + ("x" if token.is_capture else "")
        + X_TO_FILE[target.x]
        + str(target.y)
        + ("" if token.promotion is None else "=" + PIECE_LETTERS[token.promotion])
        + mark
    )


@dataclass(frozen=True)
class PgnGame:
    tags: tuple[tuple[str, str], ...]
    tokens: tuple[SanToken, ...]
    result: GameResult

    def __post_init__(self) -> None:
        for name, value in self.tags:
            # Exactly what _TAG_RE reads back, so written tags re-parse.
            if not _TAG_NAME_RE.fullmatch(name) or "\n" in value:
                raise ValueError(f"tag {name!r} cannot be written as a tag pair")
            if _sets_up(name, value):
                raise ValueError(f"set-up tag {name!r} is not supported")
            if name == "Result" and value != self.result.value:
                raise ValueError(
                    f"Result tag {value!r} contradicts game result "
                    f"{self.result.value!r}"
                )

    def tag(self, name: str) -> Optional[str]:
        for tag_name, value in self.tags:
            if tag_name == name:
                return value
        return None


class PgnParseError(ValueError):
    """A syntax error in PGN input, located by line and column."""

    def __init__(self, message: str, line: int, column: int, lexeme: str = ""):
        self.line = line
        self.column = column
        self.lexeme = lexeme
        where = f"line {line}, column {column}"
        if lexeme:
            super().__init__(f"{message} at {where}: {lexeme!r}")
        else:
            super().__init__(f"{message} at {where}")


class SanError(ValueError):
    """A SAN token that cannot be tied to a unique legal move."""


_RESULT_BY_MARKER = {r.value: r for r in GameResult}
_MARK_BY_SUFFIX = {None: CheckMark.NONE, "+": CheckMark.CHECK, "#": CheckMark.MATE}
# Move numbers and numeric annotation glyphs, both dropped.
_NUMBER_OR_NAG_RE = re.compile(r"\$?[0-9]+")
_TAG_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_TAG_RE = re.compile(
    rf"\[\s*({_TAG_NAME_RE.pattern})\s+\"((?:[^\"\\\n]|\\.)*)\"\s*\]"
)
_CASTLE_RE = re.compile(r"(O-O(?:-O)?)([+#])?\Z")
_SAN_RE = re.compile(
    r"([KQRBN])?([a-h])?([1-8])?(x)?([a-h][1-8])(?:=([QRBN]))?([+#])?\Z"
)
# Whitespace (\s is str.isspace), closed brace comments, semicolon comments
# and % escape lines (a % in a line's first column); an unclosed { stops it.
_TRIVIA_RE = re.compile(r"(?:\s+|\{[^}]*\}|;[^\n]*\n?|(?<![^\n])%[^\n]*\n?)*")
# A movetext word runs up to the next ASCII break character.
_WORD_RE = re.compile(r"[^ \t\r\n\v\f{};()\[.]*")


def _error(text: str, pos: int, message: str, lexeme: str = "") -> PgnParseError:
    """A parse error located at text[pos], by 1-based line and column."""
    line = text.count("\n", 0, pos) + 1
    return PgnParseError(message, line, pos - text.rfind("\n", 0, pos), lexeme)


def _unescape(value: str) -> str:
    return value.replace("\\\\", "\\").replace('\\"', '"')


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _sets_up(name: str, value: str) -> bool:
    return name == "FEN" or (name == "SetUp" and value != "0")


def _parse_tag_pair(text: str, pos: int) -> tuple[str, str, int]:
    """The tag pair at text[pos]: its name, its value and where it ends."""
    match = _TAG_RE.match(text, pos)
    if match is None:
        snippet = text[pos : pos + 40].partition("\n")[0]
        raise _error(text, pos, "malformed tag pair", snippet)
    name, value = match.group(1), _unescape(match.group(2))
    if _sets_up(name, value):
        raise _error(text, pos, "unsupported set-up tag", name)
    return name, value, match.end()


def _parse_san_word(word: str, text: str, start: int) -> SanToken:
    plain = word.rstrip("!?")
    castle = _CASTLE_RE.match(plain)
    if castle is not None:
        kind = (
            SanKind.QUEENSIDE_CASTLE
            if castle.group(1) == "O-O-O"
            else SanKind.KINGSIDE_CASTLE
        )
        mark = _MARK_BY_SUFFIX[castle.group(2)]
        return SanToken(kind=kind, piece_type=PieceType.KING, check_mark=mark)
    match = _SAN_RE.match(plain)
    if match is None:
        raise _error(text, start, "unrecognized token", word)
    letter, file_hint, rank_hint, capture, target, promotion, mark = match.groups()
    if promotion is not None and letter is not None:
        raise _error(text, start, "only pawn moves can promote", word)
    return SanToken(
        kind=SanKind.NORMAL,
        piece_type=_LETTER_TO_PIECE[letter] if letter else PieceType.PAWN,
        target=SQUARES[square_at(FILE_TO_X[target[0]], RANK_TO_Y[target[1]])],
        is_capture=capture is not None,
        promotion=_LETTER_TO_PIECE[promotion] if promotion else None,
        origin_file=FILE_TO_X[file_hint] if file_hint else None,
        origin_rank=RANK_TO_Y[rank_hint] if rank_hint else None,
        check_mark=_MARK_BY_SUFFIX[mark],
    )


_PUNCTUATION_ERRORS = {
    "{": "unterminated comment",
    "}": "unrecognized token",
    "(": "recursive variations are not supported",
    ")": "unmatched variation close",
    "[": "tag pair before the game's result marker",
}


def parse_pgn(text: str) -> list[PgnGame]:
    """Parse PGN text into its games.

    Each game is a tag section (possibly empty) followed by movetext that
    must end in a result marker (1-0, 0-1, 1/2-1/2 or *).  Comments,
    escape lines, move numbers (a period is a token of its own, so 1.e4
    and 1...e5 read), NAGs and !?-style suffixes are accepted and dropped;
    recursive variations, set-up positions and malformed input raise
    PgnParseError with the position of the offending lexeme.
    """
    games: list[PgnGame] = []
    # Each SAN word read so far and its token: a word is parsed once per
    # call.  Numbers, NAGs, results and words that raise are never stored.
    words: dict[str, SanToken] = {}
    pos = _TRIVIA_RE.match(text).end()
    while pos < len(text):
        tags: list[tuple[str, str]] = []
        while text.startswith("[", pos):
            name, value, pos = _parse_tag_pair(text, pos)
            tags.append((name, value))
            pos = _TRIVIA_RE.match(text, pos).end()
        tokens: list[SanToken] = []
        result: Optional[GameResult] = None
        while result is None:
            pos = _TRIVIA_RE.match(text, pos).end()
            if pos >= len(text):
                raise _error(text, pos, "game is missing its result marker")
            ch = text[pos]
            if ch in _PUNCTUATION_ERRORS:
                raise _error(text, pos, _PUNCTUATION_ERRORS[ch], ch)
            if ch == ".":
                pos += 1
                continue
            start, pos = pos, _WORD_RE.match(text, pos).end()
            word = text[start:pos]
            if word in words:
                tokens.append(words[word])
            elif word in _RESULT_BY_MARKER:
                result = _RESULT_BY_MARKER[word]
            elif not _NUMBER_OR_NAG_RE.fullmatch(word):
                words[word] = token = _parse_san_word(word, text, start)
                tokens.append(token)
        for name, value in tags:
            if name == "Result" and value != result.value:
                raise _error(
                    text,
                    pos,
                    f"result marker {result.value!r} does not match the "
                    f"Result tag {value!r}",
                )
        games.append(PgnGame(tuple(tags), tuple(tokens), result))
        pos = _TRIVIA_RE.match(text, pos).end()
    return games


# --- resolution -------------------------------------------------------------

#: The PGN result for each game_move winner; None is a game still going on.
RESULT_BY_WINNER = {
    Colour.WHITE: GameResult.WHITE_WINS,
    Colour.BLACK: GameResult.BLACK_WINS,
    REMIS: GameResult.DRAW,
    None: GameResult.UNKNOWN,
}


def _is_capture(mov: Move, held: bool) -> bool:
    """Whether a move captures, given whether its target square is held:
    the only capture onto an empty square is a pawn changing file (en
    passant, as board._changes rules)."""
    return held or mov.from_.type is PieceType.PAWN and mov.from_.square.x != mov.to_.square.x


def _step(game: Game, mov: Move) -> tuple[Game, Winner, CheckMark]:
    """Play a move through game_move's move() gate, the only legality check:
    the game after it, its winner and the check mark it earns."""
    after, winner = game_move(game, mov)
    if winner is None:
        # game_move's terminal test has just filled this context.
        checked = _context(after.board, after.turn).checked
        return after, winner, CheckMark.CHECK if checked else CheckMark.NONE
    return after, winner, CheckMark.MATE if winner is game.turn else CheckMark.NONE


def _play_san(token: SanToken, game: Game) -> tuple[Move, Game, Winner, CheckMark, list[Move]]:
    """Resolve a token and play it: the move, the game after it, its winner,
    its check mark and its rivals (the legal moves of its piece type onto
    its target square, which spelling it needs); see resolve_san for the
    errors.  Nothing is spelled here."""
    piece_type, castle = token.piece_type, token.kind is not SanKind.NORMAL
    if castle:  # the king's destination on the token's wing
        kingside = token.kind is SanKind.KINGSIDE_CASTLE
        piece_type, t = PieceType.KING, next(
            dest for (side, home), wings in _CASTLINGS.items() if side is game.turn
            for dest in wings if (dest > home) is kingside
        )
    else:
        t = square_index(token.target)
    context = _context(game.board, game.turn)
    rivals = _moves_onto(context, piece_type, t)
    held = context.occ[t] is not None  # every rival lands on t
    matches = [
        m
        for m in rivals
        if _is_capture(m, held) == token.is_capture
        and m.to_.type is (token.promotion or m.from_.type)
        and (token.origin_file is None or m.from_.square.x == token.origin_file)
        and (token.origin_rank is None or m.from_.square.y == token.origin_rank)
        and (m.from_.type is not PieceType.KING or iss_castling(game.board, m) is castle)
    ]
    if not matches:
        raise SanError(f"no legal move matches {san_text(token)!r}")
    if len(matches) > 1:
        raise SanError(f"ambiguous SAN {san_text(token)!r}: {len(matches)} moves match")
    after, winner, mark = _step(game, matches[0])
    if token.check_mark is CheckMark.CHECK and mark is CheckMark.NONE:
        raise SanError(f"{san_text(token)!r} claims check but gives none")
    if token.check_mark is CheckMark.MATE and mark is not CheckMark.MATE:
        raise SanError(f"{san_text(token)!r} claims mate but does not mate")
    return matches[0], after, winner, mark, rivals


def resolve_san(token: SanToken, game: Game) -> Move:
    """The unique legal move a SAN token denotes in the given game.

    Raises SanError when no legal move matches, when several do (the SAN
    is ambiguous), or when a claimed check or mate mark does not hold in
    the resulting position.
    """
    return _play_san(token, game)[0]


_ENDED = "move after the game already ended"


def _play_move(mov: Move, game: Game) -> tuple[Move, Game, Winner, CheckMark, list[Move]]:
    """Play a move as _play_san plays a token: the move, the game after it,
    its winner, its check mark and its rivals; it raises only game_move's
    IllegalMoveError (the side to move, then the move() gate)."""
    context = _context(game.board, game.turn)
    rivals = _moves_onto(context, mov.from_.type, square_index(mov.to_.square))
    return (mov, *_step(game, mov), rivals)


def _plays(play, items: Iterable, game: Game) -> Iterator[tuple]:
    """The one replay loop: play items from `game`, each by `play(item,
    game)` (_play_san for SAN tokens, _play_move for moves), yielding (move,
    game before it, game after it, winner, check mark, rivals) for each ply.
    It raises what `play` raises, and SanError at an item after the game
    ended.  Validation reads it as it is; the writers spell from it."""
    winner = None
    for item in items:
        if winner is not None:
            raise SanError(_ENDED)
        mov, after, winner, mark, rivals = play(item, game)
        yield mov, game, after, winner, mark, rivals
        game = after


def replay(tokens: Iterable[SanToken]) -> Iterator[tuple[Move, Game, Winner, str]]:
    """Play SAN tokens from the initial position, yielding (move, game
    after it, winner, the move's minimal SAN) for each ply.

    Raises SanError, as resolve_san does, at the first token that does not
    denote a legal move, and at any token after the game has ended.
    """
    for play in _plays(_play_san, tokens, new_game()):
        mov, _, game, winner, _, _ = play
        yield mov, game, winner, san_text(_san_token(play))


# --- serialization ----------------------------------------------------------


def _san_token(play: tuple) -> SanToken:
    """The minimal SAN token of one of _plays' plies: its move in the game
    before it, with its check mark; its rivals are the legal moves of its
    piece type onto its target square."""
    mov, game, _, _, mark, rivals = play
    origin, target = mov.from_.square, mov.to_.square
    if mov.from_.type is PieceType.KING and iss_castling(game.board, mov):
        kind = SanKind.KINGSIDE_CASTLE if target.x > origin.x else SanKind.QUEENSIDE_CASTLE
        return SanToken(kind=kind, piece_type=PieceType.KING, check_mark=mark)
    capture = _is_capture(mov, _context(game.board, game.turn).occ[square_index(target)] is not None)
    file = rank = None
    if mov.from_.type is PieceType.PAWN:
        file = origin.x if capture else None
    else:
        others = [m.from_.square for m in rivals if m.from_.square != origin]
        if any(square.x == origin.x for square in others):
            rank = origin.y
            if any(square.y == origin.y for square in others):
                file = origin.x
        elif others:
            file = origin.x
    promotion = mov.to_.type if mov.to_.type is not mov.from_.type else None
    return SanToken(
        SanKind.NORMAL, mov.from_.type, target, capture, promotion, file, rank, mark
    )


def move_to_pgn_string(mov: Move, game: Game) -> str:
    """Minimal SAN for a legal move in the given game: piece letter, only
    as much disambiguation as needed, capture and promotion markers, and
    a trailing + or # when the move gives check or mate."""
    return san_text(_san_token(next(_plays(_play_move, (mov,), game))))


def _game_text(tags, sans: list[str], result: GameResult) -> str:
    """PGN text of one game: the tag pairs (with a Result tag added when
    missing), a blank line, then numbered movetext wrapped at 79 columns."""
    lines = [f'[{name} "{_escape(value)}"]' for name, value in tags]
    if all(name != "Result" for name, _ in tags):
        lines.append(f'[Result "{result.value}"]')
    lines.append("")
    words: list[str] = []
    for ply, san in enumerate(sans, start=1):
        if ply % 2 == 1:
            words.append(f"{(ply + 1) // 2}.")
        words.append(san)
    words.append(result.value)
    current = ""
    for word in words:
        if not current:
            current = word
        elif len(current) + 1 + len(word) <= 79:
            current += " " + word
        else:
            lines.append(current)
            current = word
    lines.append(current)
    return "\n".join(lines) + "\n"


def canonical_text(parsed: PgnGame) -> str:
    """A parsed game's canonical PGN text, spelled by one replay of its
    tokens; raises SanError as replay does."""
    sans = [san for _, _, _, san in replay(parsed.tokens)]
    return _game_text(parsed.tags, sans, parsed.result)


def serialize_game(
    tags, moves, result: GameResult = GameResult.UNKNOWN
) -> str:
    """Serialize a replayable move sequence to a PGN game text.

    The moves are replayed from the initial position to compute each SAN;
    an unreplayable sequence, or one that goes on after the game ended,
    raises ValueError naming the ply.  The Result tag is added (or
    checked, if supplied) to match `result`.
    """
    tags = tuple(tags)
    PgnGame(tags, (), result)  # raises if the Result tag contradicts
    sans: list[str] = []
    try:
        for play in _plays(_play_move, moves, new_game()):
            sans.append(san_text(_san_token(play)))
    except (IllegalMoveError, SanError) as exc:
        raise ValueError(f"move sequence is not replayable at ply {len(sans) + 1}: {exc}") from exc
    return _game_text(tags, sans, result)
