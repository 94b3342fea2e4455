"""Minimal FEN reading, used to feed perft test positions.

Only piece placement and the side to move are required.  Castling and
en-passant fields are honoured when present by synthesizing a history
that makes the history-derived rules agree with them: the double push
the en-passant square names, then, in KQkq order, for each wing whose
letter is absent a rook move off that wing's corner, read from the
board's castling table (board._CASTLINGS).  Move counters are accepted
and ignored.
"""

from __future__ import annotations

from .board import _CASTLINGS, _PIECE_LETTERS, Board, Move, in_check
from .game import Game
from .pgn import FILE_TO_X, RANK_TO_Y
from .pieces import SQUARES, Colour, Coordinate, Piece, PieceType, opposite_colour


class FenError(ValueError):
    """Input that is not a readable FEN position."""


_LETTER_TO_TYPE = {letter: t for t, letter in _PIECE_LETTERS.items()}

# castling-rights letter -> its bit in the castling-rights mask
_RIGHTS = {"K": 1, "Q": 2, "k": 4, "q": 8}


def _parse_placement(placement: str) -> set[Piece]:
    ranks = placement.split("/")
    if len(ranks) != 8:
        raise FenError(f"expected 8 ranks, got {len(ranks)}")
    pieces: set[Piece] = set()
    for offset, row in enumerate(ranks):
        y = 8 - offset
        x = 1
        for ch in row:
            if ch in "12345678":
                x += int(ch)
            elif ch.lower() in _LETTER_TO_TYPE:
                if x > 8:
                    raise FenError(f"rank {y} overflows the board")
                colour = Colour.WHITE if ch.isupper() else Colour.BLACK
                pieces.add(Piece(_LETTER_TO_TYPE[ch.lower()], Coordinate(x, y), colour))
                x += 1
            else:
                raise FenError(f"unexpected character {ch!r} in rank {y}")
        if x != 9:
            raise FenError(f"rank {y} does not span 8 files")
    return pieces


def _en_passant_push(square: str, to_move: Colour, pieces: set[Piece]) -> Move:
    if len(square) != 2 or square[0] not in FILE_TO_X or square[1] not in RANK_TO_Y:
        raise FenError(f"bad en-passant square {square!r}")
    x, y = FILE_TO_X[square[0]], RANK_TO_Y[square[1]]
    expected_rank = 6 if to_move is Colour.WHITE else 3
    if y != expected_rank:
        raise FenError(
            f"en-passant square {square!r} is not on rank {expected_rank}"
        )
    pusher = Colour.BLACK if to_move is Colour.WHITE else Colour.WHITE
    from_y, to_y = (7, 5) if pusher is Colour.BLACK else (2, 4)
    pawn = Piece(PieceType.PAWN, Coordinate(x, to_y), pusher)
    if pawn not in pieces:
        raise FenError(
            f"en-passant square {square!r} has no matching {pusher.value} pawn"
        )
    if any(p.square.x == x and p.square.y in (y, from_y) for p in pieces):
        raise FenError(f"en-passant square {square!r} is inconsistent")
    return Move(Piece(PieceType.PAWN, Coordinate(x, from_y), pusher), pawn)


def parse_fen(text: str) -> Game:
    """Read a FEN string into a game value.  A placement no game reaches
    (a side without exactly one king, a pawn on rank 1 or 8, or the side
    not to move in check) raises FenError."""
    fields = text.split()
    if len(fields) < 2:
        raise FenError("FEN needs at least piece placement and side to move")
    if len(fields) > 6:
        raise FenError("too many FEN fields")
    pieces = _parse_placement(fields[0])
    if fields[1] == "w":
        to_move = Colour.WHITE
    elif fields[1] == "b":
        to_move = Colour.BLACK
    else:
        raise FenError(f"side to move must be 'w' or 'b', got {fields[1]!r}")
    kings = sorted(p.colour.value for p in pieces if p.type is PieceType.KING)
    if kings != ["black", "white"]:
        raise FenError("each side needs exactly one king")
    if any(p.type is PieceType.PAWN and p.square.y in (1, 8) for p in pieces):
        raise FenError("a pawn stands on rank 1 or 8")
    if in_check(frozenset(pieces), opposite_colour(to_move)):
        raise FenError(f"{opposite_colour(to_move).value} is in check but not to move")

    history: list[Move] = []
    if len(fields) >= 4 and fields[3] != "-":
        history.append(_en_passant_push(fields[3], to_move, pieces))

    if len(fields) >= 3:
        rights = fields[2]
        letters = "" if rights == "-" else rights
        if not set(letters) <= _RIGHTS.keys() or len(set(letters)) < len(letters):
            raise FenError(f"bad castling rights {rights!r}")
        granted = sum(_RIGHTS[letter] for letter in letters)
        for colour, bit, corner, _, _ in _CASTLINGS.values():
            if not granted & bit:  # a rook move off the corner revokes the wing
                off = corner + 8 if colour is Colour.WHITE else corner - 8
                rook, moved = (Piece(PieceType.ROOK, SQUARES[s], colour) for s in (corner, off))
                history.append(Move(rook, moved))

    for counter in fields[4:6]:
        if not (counter.isascii() and counter.isdigit()):
            raise FenError(f"bad move counter {counter!r}")

    return Game(Board(frozenset(pieces), tuple(history)), to_move)
