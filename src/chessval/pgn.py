"""Portable Game Notation: parsing, SAN resolution and serialization.

The parser covers the PGN export format for standard games: tag pairs,
movetext with move numbers, brace and semicolon comments, numeric
annotation glyphs and result markers; of the import format, unspaced
move numbers (1.e4) and % escape lines.  Recursive variations and set-up
positions (FEN tags) are rejected rather than skipped so corpus errors
cannot pass silently.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

from .board import Board, IllegalMoveError, Move, _context, _piece_moves
from .game import REMIS, Game, Winner, game_move, new_game
from .pieces import Colour, Coordinate, PieceType, square_index

FILE_TO_X = {c: i for i, c in enumerate("abcdefgh", start=1)}
RANK_TO_Y = {c: i for i, c in enumerate("12345678", start=1)}
PIECE_LETTERS = {
    PieceType.PAWN: "",
    PieceType.ROOK: "R",
    PieceType.KNIGHT: "N",
    PieceType.BISHOP: "B",
    PieceType.QUEEN: "Q",
    PieceType.KING: "K",
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
    if token.kind is SanKind.KINGSIDE_CASTLE:
        return "O-O" + token.check_mark.value
    if token.kind is SanKind.QUEENSIDE_CASTLE:
        return "O-O-O" + token.check_mark.value
    parts = [PIECE_LETTERS[token.piece_type]]
    if token.origin_file is not None:
        parts.append(X_TO_FILE[token.origin_file])
    if token.origin_rank is not None:
        parts.append(str(token.origin_rank))
    if token.is_capture:
        parts.append("x")
    assert token.target is not None
    parts.append(X_TO_FILE[token.target.x] + str(token.target.y))
    if token.promotion is not None:
        parts.append("=" + PIECE_LETTERS[token.promotion])
    parts.append(token.check_mark.value)
    return "".join(parts)


@dataclass(frozen=True)
class PgnGame:
    tags: tuple[tuple[str, str], ...]
    tokens: tuple[SanToken, ...]
    result: GameResult

    def __post_init__(self) -> None:
        for name, value in self.tags:
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
_MOVE_NUMBER_RE = re.compile(r"[0-9]+\Z")
_NAG_RE = re.compile(r"\$[0-9]+\Z")
_TAG_RE = re.compile(r"\[\s*([A-Za-z0-9_]+)\s+\"((?:[^\"\\\n]|\\.)*)\"\s*\]")
_CASTLE_RE = re.compile(r"(O-O(?:-O)?)([+#])?\Z")
_SAN_RE = re.compile(
    r"([KQRBN])?([a-h])?([1-8])?(x)?([a-h][1-8])(?:=([QRBN]))?([+#])?\Z"
)
_TOKEN_BREAKS = set(" \t\r\n\v\f{};()[.")


class _Scanner:
    """Cursor over PGN text that can report line/column positions."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._line_starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self._line_starts.append(i + 1)

    def location(self, pos: Optional[int] = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = bisect_right(self._line_starts, pos)
        return line, pos - self._line_starts[line - 1] + 1

    def error(self, message: str, pos: Optional[int] = None, lexeme: str = "") -> PgnParseError:
        line, column = self.location(pos)
        return PgnParseError(message, line, column, lexeme)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_trivia(self) -> None:
        """Advance past whitespace, brace comments, line comments and escape
        lines (a % in a line's first column)."""
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self.pos += 1
            elif ch == "{":
                end = text.find("}", self.pos + 1)
                if end < 0:
                    raise self.error("unterminated comment", lexeme="{")
                self.pos = end + 1
            elif ch == ";" or (ch == "%" and text[self.pos - 1 : self.pos] in ("", "\n")):
                end = text.find("\n", self.pos + 1)
                self.pos = len(text) if end < 0 else end + 1
            else:
                return

    def next_word(self) -> str:
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos] not in _TOKEN_BREAKS:
            self.pos += 1
        return text[start:self.pos]


def _unescape(value: str) -> str:
    return value.replace("\\\\", "\\").replace('\\"', '"')


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _parse_tag_pair(scanner: _Scanner) -> tuple[str, str]:
    match = _TAG_RE.match(scanner.text, scanner.pos)
    if match is None:
        line_end = scanner.text.find("\n", scanner.pos)
        if line_end < 0:
            line_end = len(scanner.text)
        snippet = scanner.text[scanner.pos:line_end][:40]
        raise scanner.error("malformed tag pair", lexeme=snippet)
    name, value = match.group(1), _unescape(match.group(2))
    if name == "FEN" or (name == "SetUp" and value != "0"):
        raise scanner.error("unsupported set-up tag", lexeme=name)
    scanner.pos = match.end()
    return name, value


def _parse_san_word(word: str, scanner: _Scanner, start: int) -> SanToken:
    plain = word.rstrip("!?")
    castle = _CASTLE_RE.match(plain)
    if castle is not None:
        kind = (
            SanKind.QUEENSIDE_CASTLE
            if castle.group(1) == "O-O-O"
            else SanKind.KINGSIDE_CASTLE
        )
        mark = CheckMark(castle.group(2) or "")
        return SanToken(kind=kind, piece_type=PieceType.KING, check_mark=mark)
    match = _SAN_RE.match(plain)
    if match is None:
        raise scanner.error("unrecognized token", pos=start, lexeme=word)
    letter, file_hint, rank_hint, capture, target, promotion, mark = match.groups()
    if promotion is not None and letter is not None:
        raise scanner.error("only pawn moves can promote", pos=start, lexeme=word)
    return SanToken(
        kind=SanKind.NORMAL,
        piece_type=_LETTER_TO_PIECE[letter] if letter else PieceType.PAWN,
        target=Coordinate(FILE_TO_X[target[0]], RANK_TO_Y[target[1]]),
        is_capture=capture is not None,
        promotion=_LETTER_TO_PIECE[promotion] if promotion else None,
        origin_file=FILE_TO_X[file_hint] if file_hint else None,
        origin_rank=RANK_TO_Y[rank_hint] if rank_hint else None,
        check_mark=CheckMark(mark or ""),
    )


def parse_pgn(text: str) -> list[PgnGame]:
    """Parse PGN text into its games.

    Each game is a tag section (possibly empty) followed by movetext that
    must end in a result marker (1-0, 0-1, 1/2-1/2 or *).  Comments,
    escape lines, move numbers (a period is a token of its own, so 1.e4
    and 1...e5 read), NAGs and !?-style suffixes are accepted and dropped;
    recursive variations, set-up positions and malformed input raise
    PgnParseError with the position of the offending lexeme.
    """
    scanner = _Scanner(text)
    games: list[PgnGame] = []
    scanner.skip_trivia()
    while not scanner.at_end():
        tags: list[tuple[str, str]] = []
        while scanner.peek() == "[":
            tags.append(_parse_tag_pair(scanner))
            scanner.skip_trivia()
        tokens: list[SanToken] = []
        result: Optional[GameResult] = None
        while result is None:
            scanner.skip_trivia()
            if scanner.at_end():
                raise scanner.error("game is missing its result marker")
            start = scanner.pos
            ch = scanner.peek()
            if ch == "(":
                raise scanner.error(
                    "recursive variations are not supported", lexeme="("
                )
            if ch == ")":
                raise scanner.error("unmatched variation close", lexeme=")")
            if ch == "[":
                raise scanner.error(
                    "tag pair before the game's result marker", lexeme="["
                )
            if ch == ".":
                scanner.pos += 1
                continue
            word = scanner.next_word()
            if not word:
                raise scanner.error("unrecognized token", lexeme=ch)
            if word in _RESULT_BY_MARKER:
                result = _RESULT_BY_MARKER[word]
            elif _MOVE_NUMBER_RE.fullmatch(word) or _NAG_RE.fullmatch(word):
                continue
            else:
                tokens.append(_parse_san_word(word, scanner, start))
        for name, value in tags:
            if name == "Result" and value != result.value:
                raise scanner.error(
                    f"result marker {result.value!r} does not match the "
                    f"Result tag {value!r}"
                )
        games.append(PgnGame(tuple(tags), tuple(tokens), result))
        scanner.skip_trivia()
    return games


# --- resolution -------------------------------------------------------------

#: The PGN result for each game_move winner; None is a game still going on.
RESULT_BY_WINNER = {
    Colour.WHITE: GameResult.WHITE_WINS,
    Colour.BLACK: GameResult.BLACK_WINS,
    REMIS: GameResult.DRAW,
    None: GameResult.UNKNOWN,
}


def _is_capture(board: Board, mov: Move) -> bool:
    if mov.from_.type is PieceType.PAWN and mov.from_.square.x != mov.to_.square.x:
        return True
    return _context(board, mov.from_.colour).occ[square_index(mov.to_.square)] is not None


def _candidates(game: Game, piece_type: PieceType, target: Coordinate) -> list[Move]:
    """The legal moves of the mover's pieces of one type that land on target."""
    board = game.board
    context = _context(board, game.turn)
    return [
        m
        for piece in board.board_state
        if piece.colour is game.turn and piece.type is piece_type
        for m in _piece_moves(board, context, piece)
        if m.to_.square == target
    ]


def _step(game: Game, mov: Move, rivals: list[Move]) -> tuple:
    """Play a move through game_move's move() gate, the only legality check,
    and spell it against its rivals: (game after it, winner, mark, SAN)."""
    after, winner = game_move(game, mov)
    if winner is None:
        # game_move's terminal test has just filled this context.
        checked = _context(after.board, after.turn).checked
        mark = CheckMark.CHECK if checked else CheckMark.NONE
    else:
        mark = CheckMark.MATE if winner is game.turn else CheckMark.NONE
    return after, winner, mark, _san_body(mov, game, rivals) + mark.value


def _play_san(token: SanToken, game: Game) -> tuple[Move, Game, Winner, str]:
    """Resolve a token and play it: the move, the game after it, its winner
    and the move's minimal SAN; see resolve_san for the errors."""
    piece_type, target = token.piece_type, token.target
    if token.kind is not SanKind.NORMAL:
        piece_type = PieceType.KING
        target = Coordinate(
            7 if token.kind is SanKind.KINGSIDE_CASTLE else 3,
            1 if game.turn is Colour.WHITE else 8,
        )
    rivals = _candidates(game, piece_type, target)
    matches = [
        m
        for m in rivals
        if _is_capture(game.board, m) == token.is_capture
        and m.to_.type is (token.promotion or m.from_.type)
        and (token.origin_file is None or m.from_.square.x == token.origin_file)
        and (token.origin_rank is None or m.from_.square.y == token.origin_rank)
        and (token.kind is SanKind.NORMAL or abs(m.to_.square.x - m.from_.square.x) == 2)
    ]
    text = san_text(token)
    if not matches:
        raise SanError(f"no legal move matches {text!r}")
    if len(matches) > 1:
        raise SanError(f"ambiguous SAN {text!r}: {len(matches)} moves match")
    after, winner, mark, san = _step(game, matches[0], rivals)
    if token.check_mark is CheckMark.CHECK and mark is CheckMark.NONE:
        raise SanError(f"{text!r} claims check but gives none")
    if token.check_mark is CheckMark.MATE and mark is not CheckMark.MATE:
        raise SanError(f"{text!r} claims mate but does not mate")
    return matches[0], after, winner, san


def resolve_san(token: SanToken, game: Game) -> Move:
    """The unique legal move a SAN token denotes in the given game.

    Raises SanError when no legal move matches, when several do (the SAN
    is ambiguous), or when a claimed check or mate mark does not hold in
    the resulting position.
    """
    return _play_san(token, game)[0]


_ENDED = "move after the game already ended"


def replay(tokens: Iterable[SanToken]) -> Iterator[tuple[Move, Game, Winner, str]]:
    """Play SAN tokens from the initial position, yielding (move, game
    after it, winner, the move's minimal SAN) for each ply.

    Raises SanError, as resolve_san does, at the first token that does not
    denote a legal move, and at any token after the game has ended.
    """
    game, winner = new_game(), None
    for token in tokens:
        if winner is not None:
            raise SanError(_ENDED)
        mov, game, winner, san = _play_san(token, game)
        yield mov, game, winner, san


# --- serialization ----------------------------------------------------------


def _san_body(mov: Move, game: Game, rivals: list[Move]) -> str:
    """SAN for a legal move, without its check or mate mark; rivals are the
    legal moves of its piece type onto its target square."""
    origin = mov.from_.square
    if mov.from_.type is PieceType.KING and abs(mov.to_.square.x - origin.x) == 2:
        return "O-O" if mov.to_.square.x > origin.x else "O-O-O"
    target = X_TO_FILE[mov.to_.square.x] + str(mov.to_.square.y)
    capture = "x" if _is_capture(game.board, mov) else ""
    if mov.from_.type is PieceType.PAWN:
        promo = (
            "" if mov.to_.type is PieceType.PAWN else "=" + PIECE_LETTERS[mov.to_.type]
        )
        return (X_TO_FILE[origin.x] if capture else "") + capture + target + promo
    others = [m.from_.square for m in rivals if m.from_.square != origin]
    if not others:
        hint = ""
    elif all(square.x != origin.x for square in others):
        hint = X_TO_FILE[origin.x]
    elif all(square.y != origin.y for square in others):
        hint = str(origin.y)
    else:
        hint = X_TO_FILE[origin.x] + str(origin.y)
    return PIECE_LETTERS[mov.from_.type] + hint + capture + target


def move_to_pgn_string(mov: Move, game: Game) -> str:
    """Minimal SAN for a legal move in the given game: piece letter, only
    as much disambiguation as needed, capture and promotion markers, and
    a trailing + or # when the move gives check or mate."""
    return _step(game, mov, _candidates(game, mov.from_.type, mov.to_.square))[3]


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
    raises ValueError.  The Result tag is added (or checked, if supplied)
    to match `result`.
    """
    tags = tuple(tags)
    PgnGame(tags, (), result)  # raises if the Result tag contradicts

    game, winner = new_game(), None
    sans: list[str] = []
    for ply, mov in enumerate(moves, start=1):
        try:
            if winner is not None:
                raise IllegalMoveError(_ENDED)
            rivals = _candidates(game, mov.from_.type, mov.to_.square)
            game, winner, _, san = _step(game, mov, rivals)
        except IllegalMoveError as exc:
            raise ValueError(
                f"move sequence is not replayable at ply {ply}: {exc}"
            ) from exc
        sans.append(san)
    return _game_text(tags, sans, result)
