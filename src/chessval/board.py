"""Board values, move legality and move application.

A Board is an immutable pair of a piece set and a move history (newest
first).  The history is the only record of the past: castling rights and
en-passant windows are derived from it rather than stored.  Applying a
move never mutates anything; it builds a new Board value.

A Board also carries a derived legality context, filled on first use and
shared by every query on it; equality, hashing, repr and pickles ignore it,
and filling it is idempotent, so boards stay safe to share across threads.
"""

from __future__ import annotations

import multiprocessing
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

from .pieces import (
    ALL_DIRECTIONS,
    Colour,
    Coordinate,
    DIAGONAL_DIRECTIONS,
    KNIGHT_OFFSETS,
    ORTHOGONAL_DIRECTIONS,
    Piece,
    PieceType,
    coordinate_factory,
    moves_with_colours,
    opposite_colour,
)

PAWN = PieceType.PAWN
ROOK = PieceType.ROOK
KNIGHT = PieceType.KNIGHT
BISHOP = PieceType.BISHOP
QUEEN = PieceType.QUEEN
KING = PieceType.KING

PROMOTABLE_TYPES = frozenset({KNIGHT, BISHOP, ROOK, QUEEN})


class IllegalMoveError(ValueError):
    """A move rejected by the legality gate, or a piece that is not on the
    board it is being moved on."""


def _last_rank(colour: Colour) -> int:
    return 8 if colour is Colour.WHITE else 1


@dataclass(frozen=True)
class Move:
    """A move as a from-piece/to-piece pair.

    The destination is a full Piece rather than a bare square so that
    promotion (a pawn arriving with a new type) needs no extra field.
    Castling is the king's two-file jump; en passant a pawn's diagonal
    step onto an empty square.
    """

    from_: Piece
    to_: Piece

    def __post_init__(self) -> None:
        if self.from_.colour is not self.to_.colour:
            raise ValueError("a move cannot change colour")
        if self.from_.square == self.to_.square:
            raise ValueError("a move must change square")
        if self.from_.type is not self.to_.type and not (
            self.from_.type is PAWN
            and self.to_.square.y == _last_rank(self.from_.colour)
        ):
            raise ValueError("only a pawn reaching the last rank may change type")


BoardState = frozenset[Piece]

History = tuple[Move, ...]


@dataclass(frozen=True)
class Board:
    """An immutable board: the pieces on it plus the moves that led there,
    most recent move first."""

    board_state: BoardState
    history: History = ()
    _contexts: Optional[dict] = field(default=None, init=False, compare=False, repr=False)

    def __getstate__(self):
        return {"board_state": self.board_state, "history": self.history}

    def __post_init__(self) -> None:
        object.__setattr__(self, "board_state", frozenset(self.board_state))
        object.__setattr__(self, "history", tuple(self.history))
        if not self.board_state:
            raise ValueError("a board must hold at least one piece")
        squares = [(p.square.x, p.square.y) for p in self.board_state]
        if len(set(squares)) != len(squares):
            raise ValueError("two pieces share a square")
        for colour in Colour:
            kings = [
                p for p in self.board_state
                if p.type is KING and p.colour is colour
            ]
            if len(kings) > 1:
                raise ValueError(f"more than one {colour.value} king")


_BACK_RANK = (ROOK, KNIGHT, BISHOP, QUEEN, KING, BISHOP, KNIGHT, ROOK)


def default_board() -> Board:
    """The standard initial position with an empty history."""
    pieces = set()
    for x, piece_type in enumerate(_BACK_RANK, start=1):
        pieces.add(Piece(piece_type, Coordinate(x, 1), Colour.WHITE))
        pieces.add(Piece(PAWN, Coordinate(x, 2), Colour.WHITE))
        pieces.add(Piece(PAWN, Coordinate(x, 7), Colour.BLACK))
        pieces.add(Piece(piece_type, Coordinate(x, 8), Colour.BLACK))
    return Board(frozenset(pieces), ())


# --- occupancy helpers ------------------------------------------------------

Occupancy = dict[tuple[int, int], Piece]


def _occupancy(state: BoardState) -> Occupancy:
    return {(p.square.x, p.square.y): p for p in state}


_SLIDER_PROBES = (
    (ORTHOGONAL_DIRECTIONS, (ROOK, QUEEN)),
    (DIAGONAL_DIRECTIONS, (BISHOP, QUEEN)),
)

# (dx, dy, type) per attacking colour: its piece of that type on
# (x + dx, y + dy) attacks (x, y) in one step
_STEP_CHECKS = {
    colour: ((-1, pawn_dy, PAWN), (1, pawn_dy, PAWN))
    + tuple((dx, dy, KNIGHT) for dx, dy in KNIGHT_OFFSETS)
    + tuple((dx, dy, KING) for dx, dy in ALL_DIRECTIONS)
    for colour, pawn_dy in ((Colour.WHITE, -1), (Colour.BLACK, 1))
}


def _square_attacked(occ: Occupancy, x: int, y: int, by: Colour) -> bool:
    """Whether colour `by` attacks square (x, y), probing outward from it.

    Equivalent to membership in attacked_squares for any square not held
    by one of `by`'s own pieces; kept separate because the per-candidate
    legality filter calls it millions of times in perft runs.
    """
    occ_get = occ.get
    for dx, dy, attacker in _STEP_CHECKS[by]:
        p = occ_get((x + dx, y + dy))
        if p is not None and p.type is attacker and p.colour is by:
            return True
    for directions, sliders in _SLIDER_PROBES:
        for dx, dy in directions:
            nx, ny = x + dx, y + dy
            while 1 <= nx <= 8 and 1 <= ny <= 8:
                p = occ_get((nx, ny))
                if p is not None:
                    if p.colour is by and p.type in sliders:
                        return True
                    break
                nx += dx
                ny += dy
    return False


def attacked_squares(state: BoardState, by: Colour) -> frozenset[Coordinate]:
    """Every square colour `by` attacks: the union of its pieces' movement
    patterns, except that pawns attack only their two forward diagonals
    (occupied or not) and never the square in front of them."""
    occ = _occupancy(state)
    attacked: set[Coordinate] = set()
    for p in state:
        if p.colour is not by:
            continue
        if p.type is PAWN:
            dy = 1 if by is Colour.WHITE else -1
            for dx in (-1, 1):
                diagonal = coordinate_factory(p.square.x + dx, p.square.y + dy)
                if diagonal is not None:
                    attacked.add(diagonal)
        else:
            attacked.update(moves_with_colours(p, occ))
    return frozenset(attacked)


def in_check(state: BoardState, colour: Colour) -> bool:
    """Whether `colour`'s king stands on a square its opponent attacks."""
    king, checked = _king_context(_occupancy(state), colour)[:2]
    if king is None:
        raise ValueError(f"no {colour.value} king on the board")
    return checked


# --- special moves ----------------------------------------------------------


def _require_piece(state: BoardState, piece: Piece, piece_type=None) -> None:
    if piece not in state:
        raise IllegalMoveError(f"piece not on the board: {piece}")
    if piece_type is not None and piece.type is not piece_type:
        raise IllegalMoveError(f"expected a {piece_type.value}, got {piece.type.value}")


def pawn_move_two(state: BoardState, pawn: Piece) -> frozenset[Move]:
    """The two-square advance, available only from the pawn's initial rank
    with both the skipped and the target square empty."""
    _require_piece(state, pawn, PAWN)
    return frozenset(_double_push(_occupancy(state), pawn))


def _double_push(occ: Occupancy, pawn: Piece) -> list[Move]:
    white = pawn.colour is Colour.WHITE
    if pawn.square.y != (2 if white else 7):
        return []
    dy = 1 if white else -1
    x, y = pawn.square.x, pawn.square.y
    if (x, y + dy) in occ or (x, y + 2 * dy) in occ:
        return []
    return [Move(pawn, Piece(PAWN, Coordinate(x, y + 2 * dy), pawn.colour))]


def en_passant(board: Board, pawn: Piece) -> frozenset[Move]:
    """The en-passant capture, legal exactly one ply after an enemy pawn's
    double push lands beside this pawn; the capture moves onto the square
    the enemy pawn skipped."""
    _require_piece(board.board_state, pawn, PAWN)
    return frozenset(_en_passant_moves(board.history, pawn))


def _en_passant_moves(history: History, pawn: Piece) -> list[Move]:
    if not history:
        return []
    last = history[0]
    if (
        last.from_.type is not PAWN
        or last.from_.colour is pawn.colour
        or abs(last.to_.square.y - last.from_.square.y) != 2
        or last.to_.square.y != pawn.square.y
        or abs(last.to_.square.x - pawn.square.x) != 1
    ):
        return []
    skipped = Coordinate(
        last.to_.square.x, (last.from_.square.y + last.to_.square.y) // 2
    )
    return [Move(pawn, Piece(PAWN, skipped, pawn.colour))]


def pawn_promotion(state: BoardState, pawn: Piece) -> frozenset[Move]:
    """Four moves (one per promotable type) for every square the pawn can
    reach on the last rank."""
    _require_piece(state, pawn, PAWN)
    return frozenset(_promotions(pawn, moves_with_colours(pawn, _occupancy(state))))


def _promotions(pawn: Piece, targets) -> list[Move]:
    last = _last_rank(pawn.colour)
    moves = []
    for target in targets:
        if target.y == last:
            for new_type in PROMOTABLE_TYPES:
                moves.append(Move(pawn, Piece(new_type, target, pawn.colour)))
    return moves


# (corner file, crossed file, king destination file) per wing
_CASTLING_WINGS = ((8, 6, 7), (1, 4, 3))


def castling_possible(board: Board, king: Piece) -> frozenset[Move]:
    """The castling moves currently available to this king.

    A wing qualifies only if the king stands on its initial square with a
    same-colour rook on the corner, no recorded move ever left or entered
    either square, the squares between them are empty, the king is not in
    check, and neither the crossed square nor the destination is attacked.
    """
    _require_piece(board.board_state, king, KING)
    return frozenset(_castling_moves(_context(board, king.colour), board.history, king))


def _castling_moves(context, history: History, king: Piece) -> list[Move]:
    occ = context.occ
    y = 1 if king.colour is Colour.WHITE else 8
    if context.checked or king.square.x != 5 or king.square.y != y:
        return []
    enemy = opposite_colour(king.colour)
    moves = []
    for corner_x, crossed_x, dest_x in _CASTLING_WINGS:
        rook = occ.get((corner_x, y))
        if rook is None or rook.type is not ROOK or rook.colour is not king.colour:
            continue
        between = range(min(5, corner_x) + 1, max(5, corner_x))
        if any((x, y) in occ for x in between):
            continue
        touched = {(5, y), (corner_x, y)}
        if any(
            (m.from_.square.x, m.from_.square.y) in touched
            or (m.to_.square.x, m.to_.square.y) in touched
            for m in history
        ):
            continue
        if _square_attacked(occ, crossed_x, y, enemy) or _square_attacked(
            occ, dest_x, y, enemy
        ):
            continue
        moves.append(Move(king, Piece(KING, Coordinate(dest_x, y), king.colour)))
    return moves


def stateful_possible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """The special moves available to a piece: double push, en passant and
    promotion for pawns, castling for kings, nothing for the rest."""
    _require_piece(board.board_state, piece)
    context = _context(board, piece.colour)
    targets = moves_with_colours(piece, context.occ)
    return frozenset(_stateful_candidates(context, board.history, piece, targets))


def _stateful_candidates(context, history, piece: Piece, targets) -> list[Move]:
    if piece.type is PAWN:
        return (
            _double_push(context.occ, piece)
            + _en_passant_moves(history, piece)
            + _promotions(piece, targets)
        )
    if piece.type is KING:
        return _castling_moves(context, history, piece)
    return []


# --- legality ---------------------------------------------------------------


def _candidate_moves(context, history, piece: Piece) -> list[Move]:
    """Simple moves lifted to Move values, plus the special moves."""
    targets = moves_with_colours(piece, context.occ)
    candidates = [
        Move(piece, Piece(piece.type, target, piece.colour)) for target in targets
    ]
    candidates.extend(_stateful_candidates(context, history, piece, targets))
    return candidates


def _is_en_passant_shape(occ: Occupancy, mov: Move) -> bool:
    return (
        mov.from_.type is PAWN
        and mov.from_.square.x != mov.to_.square.x
        and (mov.to_.square.x, mov.to_.square.y) not in occ
    )


def _leaves_king_attacked(occ: Occupancy, mov: Move, king: Piece) -> bool:
    """Apply an en-passant capture to a scratch copy of the occupancy and
    probe the mover's king: the capture empties two squares of one rank,
    which no pin line describes."""
    fx, fy = mov.from_.square.x, mov.from_.square.y
    tx, ty = mov.to_.square.x, mov.to_.square.y
    scratch = dict(occ)
    del scratch[(fx, fy)]
    del scratch[(tx, fy)]
    scratch[(tx, ty)] = mov.to_
    enemy = opposite_colour(king.colour)
    return _square_attacked(scratch, king.square.x, king.square.y, enemy)


def _missed_promotion(mov: Move) -> bool:
    return (
        mov.from_.type is PAWN
        and mov.to_.type is PAWN
        and mov.to_.square.y == _last_rank(mov.from_.colour)
    )


def _king_context(occ: Occupancy, colour: Colour):
    """The side's king, whether it is in check, its pin lines and its check
    evasions.  A piece first on a king ray is pinned by an enemy slider next
    on that ray; its pin line runs from the king up to and including the
    pinner.  The evasions are the checker's square and the squares between
    it and the king (none in double check), or None out of check."""
    king = next((p for p in occ.values() if p.type is KING and p.colour is colour), None)
    if king is None:
        return None, False, {}, None
    kx, ky = king.square.x, king.square.y
    pins, checks = {}, []
    for directions, sliders in _SLIDER_PROBES:
        for dx, dy in directions:
            x, y, shield = kx + dx, ky + dy, None
            while 1 <= x <= 8 and 1 <= y <= 8:
                p = occ.get((x, y))
                if p is not None:
                    if shield is None and p.colour is colour:
                        shield = (x, y)
                    else:
                        if p.colour is not colour and p.type in sliders:
                            line = frozenset(
                                (kx + i * dx, ky + i * dy)
                                for i in range(1, max(abs(x - kx), abs(y - ky)) + 1)
                            )
                            if shield is None:
                                checks.append(line)
                            else:
                                pins[shield] = line
                        break
                x, y = x + dx, y + dy
    enemy = opposite_colour(colour)
    for dx, dy, attacker in _STEP_CHECKS[enemy]:
        p = occ.get((kx + dx, ky + dy))
        if p is not None and p.type is attacker and p.colour is enemy:
            checks.append(frozenset({(kx + dx, ky + dy)}))
    if len(checks) > 1:
        checks = [frozenset()]  # double check: only the king may move
    return king, bool(checks), pins, checks[0] if checks else None


_Context = namedtuple("_Context", "occ king checked pins evasions moves")


def _context(board: Board, colour: Colour) -> _Context:
    """One side's legality context, filled on first use and kept on the
    board: the occupancy, the side's king, whether it is in check, its pin
    lines, its check evasions and the legal moves _piece_moves keeps by
    square.  The occupancy (square -> Piece, under key None) is the one
    square map of the position: both sides share it, and the geometry, the
    attack probes and SAN read it.  Other modules read the fields by name;
    only this one knows their order."""
    contexts = board._contexts
    if contexts is None:
        contexts = {None: _occupancy(board.board_state)}
        object.__setattr__(board, "_contexts", contexts)
    if colour not in contexts:
        occ = contexts[None]
        contexts[colour] = _Context(occ, *_king_context(occ, colour), {})
    return contexts[colour]


def _piece_moves(board: Board, context, piece: Piece) -> list[Move]:
    """The legal moves of a piece on the board, worked out once and kept on
    the board's context by square.  The list is shared: never mutate it."""
    by_square = context.moves
    square = (piece.square.x, piece.square.y)
    moves = by_square.get(square)
    if moves is None:
        moves = by_square[square] = _legal_for_piece(context, board.history, piece)
    return moves


def stateful_impossible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """The candidate moves the rules forbid: any move that leaves the
    mover's own king in check, and any pawn move onto the last rank that
    keeps the pawn a pawn (promotion is mandatory)."""
    _require_piece(board.board_state, piece)
    context = _context(board, piece.colour)
    legal = _piece_moves(board, context, piece)
    return frozenset(_candidate_moves(context, board.history, piece)) - frozenset(legal)


def possible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """Every legal move for one piece: its simple moves lifted to Move
    values, plus its special moves, minus the impossible ones."""
    _require_piece(board.board_state, piece)
    return frozenset(_piece_moves(board, _context(board, piece.colour), piece))


def _legal_for_piece(context, history, piece: Piece) -> list[Move]:
    """The piece's candidates minus the impossible ones.  A king step must
    land where the enemy does not attack with the king lifted off (castling
    was tested when generated); other moves must stay on the pin line and
    land on an evasion square.  Only en passant, which also removes the
    captured pawn, is tried on a scratch copy.  A missing king (synthetic
    positions) is never attacked."""
    occ, king, _, pins, evasions, _ = context
    moves = _candidate_moves(context, history, piece)
    if piece.type is PAWN:
        moves = [m for m in moves if not _missed_promotion(m)]
    if king is None:
        return moves
    if piece.type is KING:
        lifted = dict(occ)
        del lifted[(king.square.x, king.square.y)]
        enemy = opposite_colour(king.colour)
        return [
            m for m in moves
            if abs(m.to_.square.x - king.square.x) == 2
            or not _square_attacked(lifted, m.to_.square.x, m.to_.square.y, enemy)
        ]
    allowed = pins.get((piece.square.x, piece.square.y))
    if evasions is not None:
        allowed = evasions if allowed is None else allowed & evasions
    if allowed is None and not (piece.type is PAWN and _en_passant_moves(history, piece)):
        return moves
    return [
        m for m in moves
        if (
            not _leaves_king_attacked(occ, m, king)
            if _is_en_passant_shape(occ, m)
            else allowed is None or (m.to_.square.x, m.to_.square.y) in allowed
        )
    ]


def _legal_list(board: Board, colour: Colour) -> list[Move]:
    """legal_moves as a list, which never holds a move twice, worked out
    afresh: perft visits each node once, so it keeps nothing on the context."""
    context = _context(board, colour)
    return [
        m
        for piece in board.board_state
        if piece.colour is colour
        for m in _legal_for_piece(context, board.history, piece)
    ]


def legal_moves(board: Board, colour: Colour) -> frozenset[Move]:
    """Every legal move for one side; the union of possible_moves over its
    pieces."""
    context = _context(board, colour)
    pieces = (p for p in board.board_state if p.colour is colour)
    return frozenset(m for p in pieces for m in _piece_moves(board, context, p))


def has_legal_move(board: Board, colour: Colour) -> bool:
    """Whether the side has any legal move; stops at the first piece that
    has one, which matters when every played move must test the opponent
    for mate or stalemate."""
    context = _context(board, colour)
    return any(
        _piece_moves(board, context, piece)
        for piece in board.board_state
        if piece.colour is colour
    )


# --- move application -------------------------------------------------------


def iss_castling(board: Board, mov: Move) -> bool:
    """Whether a (legal) move is a castling: a king jumping two files."""
    return mov.from_.type is KING and abs(mov.to_.square.x - mov.from_.square.x) == 2


def iss_en_passant(board: Board, mov: Move) -> bool:
    """Whether a (legal) move is an en-passant capture: a pawn stepping
    diagonally onto an empty square."""
    return _is_en_passant_shape(_context(board, mov.from_.colour).occ, mov)


def move(board: Board, mov: Move) -> Board:
    """Apply a move, first checking it against possible_moves.

    This is the engine's single legality gate; illegal moves raise
    IllegalMoveError.  The input board is untouched.
    """
    _require_piece(board.board_state, mov.from_)
    if mov not in _piece_moves(board, _context(board, mov.from_.colour), mov.from_):
        raise IllegalMoveError(f"illegal move: {mov}")
    return _apply(board, mov)


def _apply(board: Board, mov: Move) -> Board:
    """Dispatch an already-validated move to its application rule."""
    if mov.from_.type is KING and iss_castling(board, mov):
        return move_castling(board, mov)
    if mov.from_.type is PAWN and iss_en_passant(board, mov):
        return move_en_passant(board, mov)
    return move_other(board, mov)


def move_other(board: Board, mov: Move) -> Board:
    """An ordinary move: drop whatever sat on the target square and the
    moving piece, then add the arriving piece.  Promotion needs no special
    handling because the arriving piece already carries its new type."""
    dead = _context(board, mov.from_.colour).occ.get((mov.to_.square.x, mov.to_.square.y))
    return _successor(board, (board.board_state - {dead, mov.from_}) | {mov.to_}, mov)


def move_castling(board: Board, mov: Move) -> Board:
    """Castling: the king jumps two files and the corner rook lands on the
    square the king crossed."""
    y = mov.from_.square.y
    corner_x = 8 if mov.to_.square.x > mov.from_.square.x else 1
    rook = _context(board, mov.from_.colour).occ.get((corner_x, y))
    if rook is None or rook.type is not ROOK:
        raise IllegalMoveError(f"no rook to castle with on file {corner_x}")
    crossed = Coordinate((mov.from_.square.x + mov.to_.square.x) // 2, y)
    new_rook = Piece(ROOK, crossed, rook.colour)
    new_state = (board.board_state - {mov.from_, rook}) | {mov.to_, new_rook}
    return _successor(board, new_state, mov)


def move_en_passant(board: Board, mov: Move) -> Board:
    """En passant: the pawn moves diagonally while the captured enemy pawn
    disappears from the square beside it."""
    bypassed = Coordinate(mov.to_.square.x, mov.from_.square.y)
    captured = _context(board, mov.from_.colour).occ.get((bypassed.x, bypassed.y))
    if captured is None:
        raise IllegalMoveError(f"no pawn to capture en passant on {bypassed}")
    return _successor(board, (board.board_state - {mov.from_, captured}) | {mov.to_}, mov)


def _successor(board: Board, new_state: BoardState, mov: Move) -> Board:
    """The board after an applied move, built without Board's checks: a
    move on a valid board cannot break them."""
    after = object.__new__(Board)
    object.__setattr__(after, "board_state", new_state)
    object.__setattr__(after, "history", (mov,) + board.history)
    object.__setattr__(after, "_contexts", None)
    return after


# --- verification oracle ----------------------------------------------------


def perft(board: Board, to_move: Colour, depth: int, jobs: int = 1) -> int:
    """Count the legal move sequences of exactly `depth` plies.

    The standard move-generator correctness oracle.  With jobs > 1 the
    subtrees under each root move run in separate processes; the total is
    a sum, so it does not depend on evaluation order.
    """
    if depth < 0:
        raise ValueError("perft depth must be non-negative")
    if depth == 0:
        return 1
    if depth == 1:
        return len(_legal_list(board, to_move))
    return sum(count for _, count in _divide(board, to_move, depth, jobs))


def _divide(board: Board, to_move: Colour, depth: int, jobs: int) -> list:
    """(move, perft count of depth - 1 after it) for each legal move; with
    jobs > 1 the subtrees run in one pool of that many processes."""
    moves = _legal_list(board, to_move)
    tasks = [(_apply(board, m), opposite_colour(to_move), depth - 1) for m in moves]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            return list(zip(moves, pool.starmap(perft, tasks)))
    return [(m, perft(*task)) for m, task in zip(moves, tasks)]


# --- display ----------------------------------------------------------------

_PIECE_LETTERS = {
    PAWN: "p", ROOK: "r", KNIGHT: "n", BISHOP: "b", QUEEN: "q", KING: "k",
}


def board_to_ascii(state: BoardState) -> str:
    """An 8x8 text diagram, rank 8 on top; white pieces are uppercase,
    black lowercase, empty squares dots."""
    occ = _occupancy(state)
    rows = []
    for y in range(8, 0, -1):
        cells = []
        for x in range(1, 9):
            p = occ.get((x, y))
            if p is None:
                cells.append(".")
            else:
                letter = _PIECE_LETTERS[p.type]
                cells.append(letter.upper() if p.colour is Colour.WHITE else letter)
        rows.append(" ".join(cells))
    return "\n".join(rows)
