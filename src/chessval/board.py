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
    KNIGHT_TARGETS,
    PAWN_CAPTURE_RAYS,
    PAWN_PATHS,
    RAYS,
    SLIDER_PATHS,
    SQUARES,
    STEP_TARGETS,
    Colour,
    Coordinate,
    Occupancy,
    Piece,
    PieceType,
    _Table,
    _occupancy,
    moves_with_colours,
    opposite_colour,
    piece_row,
    square_at,
    square_index,
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


@dataclass(frozen=True, slots=True)
class Move:
    """A move as a from-piece/to-piece pair.

    The destination is a full Piece rather than a bare square so that
    promotion (a pawn arriving with a new type) needs no extra field.
    Castling is a king move listed in _CASTLINGS; en passant a pawn's
    diagonal step onto an empty square.  The hash is computed once, when built.
    """

    from_: Piece
    to_: Piece
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        from_, to_ = self.from_, self.to_
        if from_.colour is not to_.colour:
            raise ValueError("a move cannot change colour")
        if from_.square.x == to_.square.x and from_.square.y == to_.square.y:
            raise ValueError("a move must change square")
        if from_.type is not to_.type and not (
            from_.type is PAWN and to_.square.y == _last_rank(from_.colour)
        ):
            raise ValueError("only a pawn reaching the last rank may change type")
        object.__setattr__(self, "_hash", hash((from_, to_)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # pickle the pieces: the hash holds only in this process
        return Move, (self.from_, self.to_)


class _MoveRow(dict):
    """One piece's moves by target square index, each built on first use by
    the public constructor.  _MOVES keeps a row per (moving type, arriving
    type, colour, from-square index), made on first use: imports build none."""

    __slots__ = ("piece", "arriving")

    def __missing__(self, t: int) -> Move:
        return self.setdefault(t, Move(self.piece, self.arriving[t]))


_MOVES: dict[tuple, _MoveRow] = {}


def _move_row(kind: PieceType, arriving: PieceType, colour: Colour, s: int) -> _MoveRow:
    row = _MOVES.get((kind, arriving, colour, s))
    if row is None:
        row = _MOVES[kind, arriving, colour, s] = _MoveRow()
        row.piece, row.arriving = piece_row(kind, colour)[s], piece_row(arriving, colour)
    return row


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


def _probe_rays(by: Colour, s: int) -> tuple:
    """Colour `by`'s attack rays onto square index s, one per direction off
    it: (the first square, the rest as bytes, nearest first, the types that
    attack from the first square, and from further along).  The first adds
    the king and, on the two diagonals a `by` pawn captures along, the pawn."""
    back = -1 if by is Colour.WHITE else 1
    return tuple(
        (s + step, bytes(range(s + 2 * step, s + step * (edge[s] + 1), step)),
         sliders + (KING,) + ((PAWN,) if dx and dy == back else ()), sliders)
        for (dx, dy), (step, edge) in zip(ALL_DIRECTIONS, RAYS)
        if edge[s]
        for sliders in [(BISHOP, QUEEN) if dx and dy else (ROOK, QUEEN)]
    )


_PROBE_RAYS = {by: _Table(lambda s, by=by: _probe_rays(by, s)) for by in Colour}


def _square_attacked(occ: Occupancy, s: int, by: Colour) -> bool:
    """Whether colour `by` attacks square index s, probing outward from it.

    Equivalent to membership in attacked_squares for any square not held
    by one of `by`'s own pieces; kept separate because the per-candidate
    legality filter calls it millions of times in perft runs.
    """
    for t in KNIGHT_TARGETS[s]:
        p = occ[t]
        if p is not None and p.type is KNIGHT and p.colour is by:
            return True
    for first, rest, near, sliders in _PROBE_RAYS[by][s]:
        p = occ[first]
        if p is None:
            for t in rest:
                p = occ[t]
                if p is not None:
                    if p.colour is by and p.type in sliders:
                        return True
                    break
        elif p.colour is by and p.type in near:
            return True
    return False


def attacked_squares(state: BoardState, by: Colour) -> frozenset[Coordinate]:
    """Every square colour `by` attacks: the union of its pieces' movement
    patterns, except that pawns attack only their two forward diagonals
    (occupied or not) and never the square in front of them."""
    occ = _occupancy(state)
    attacked: set[int] = set()
    for p in state:
        if p.colour is not by:
            continue
        if p.type is PAWN:
            s = square_index(p.square)
            attacked.update(s + step for step, edge in PAWN_CAPTURE_RAYS[by] if edge[s])
        else:
            attacked.update(moves_with_colours(p, occ))
    return frozenset(SQUARES[s] for s in attacked)


def _king_of(state: BoardState, colour: Colour) -> Optional[Piece]:
    return next((p for p in state if p.type is KING and p.colour is colour), None)


def in_check(state: BoardState, colour: Colour) -> bool:
    """Whether `colour`'s king stands on a square its opponent attacks."""
    king = _king_of(state, colour)
    if king is None:
        raise ValueError(f"no {colour.value} king on the board")
    return _king_context(_occupancy(state), king)[0]


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
    s = square_index(pawn.square)
    pushes = PAWN_PATHS[pawn.colour][s][0]
    occ = _occupancy(state)
    if len(pushes) < 2 or occ[pushes[0]] or occ[pushes[1]]:
        return frozenset()
    return frozenset((_move_row(PAWN, PAWN, pawn.colour, s)[pushes[1]],))


def en_passant(board: Board, pawn: Piece) -> frozenset[Move]:
    """The en-passant capture, legal exactly one ply after an enemy pawn's
    double push lands beside this pawn; the capture moves onto the square
    the enemy pawn skipped."""
    _require_piece(board.board_state, pawn, PAWN)
    s = square_index(pawn.square)
    t = _context(board, pawn.colour).passant.get(s)
    return frozenset(() if t is None else (_move_row(PAWN, PAWN, pawn.colour, s)[t],))


def _en_passant_targets(last: Optional[Move], colour: Colour) -> dict[int, int]:
    """Pawn square -> the square a `colour` pawn there captures onto en
    passant: the square an enemy pawn's double push on the last ply (None
    before the first) skipped, for the two squares beside where it landed."""
    if last is None:
        return {}
    origin, landing = last.from_.square, last.to_.square
    if (
        last.from_.type is not PAWN
        or last.from_.colour is colour
        or abs(landing.y - origin.y) != 2
    ):
        return {}
    skipped = square_at(landing.x, (origin.y + landing.y) // 2)
    return {
        square_at(x, landing.y): skipped for x in (landing.x - 1, landing.x + 1) if 1 <= x <= 8
    }


def pawn_promotion(state: BoardState, pawn: Piece) -> frozenset[Move]:
    """Four moves (one per promotable type) for every square the pawn can
    reach on the last rank."""
    _require_piece(state, pawn, PAWN)
    return frozenset(_promotions(pawn, moves_with_colours(pawn, _occupancy(state))))


def _promotions(pawn: Piece, targets: list[int]) -> list[Move]:
    last, s = _last_rank(pawn.colour), square_index(pawn.square)
    return [
        _move_row(PAWN, kind, pawn.colour, s)[t]
        for t in targets
        if SQUARES[t].y == last
        for kind in PROMOTABLE_TYPES
    ]


# The one table of castling's squares, as square indices (a1 = 0, h1 = 7,
# h8 = 63), keyed by the king's (home, destination): the colour, the
# castling-rights bit, the rook's corner, the squares between king and rook,
# and the square the king crosses, where the rook lands.  In KQkq order.
_CASTLINGS = {
    (4, 6): (Colour.WHITE, 1, 7, (5, 6), 5),
    (4, 2): (Colour.WHITE, 2, 0, (1, 2, 3), 3),
    (60, 62): (Colour.BLACK, 4, 63, (61, 62), 61),
    (60, 58): (Colour.BLACK, 8, 56, (57, 58, 59), 59),
}
# Per square index, the rights a move leaving or entering it keeps: a king's
# home square ends both of its side's rights, a corner its wing's.
_RIGHTS_KEPT = bytes(
    15 & ~sum(bit for (home, _), (_, bit, corner, _, _) in _CASTLINGS.items() if s in (home, corner))
    for s in range(64)
)
# _CASTLINGS by the king's (colour, home): destination -> the entry less its colour.
_WINGS = {
    (side, home): {dest: wing[1:] for (h, dest), wing in _CASTLINGS.items() if h == home}
    for (home, _), (side, *_) in _CASTLINGS.items()
}


def castling_possible(board: Board, king: Piece) -> frozenset[Move]:
    """The castling moves currently available to this king.

    A wing qualifies only if the king stands on its initial square with a
    same-colour rook on the corner, no recorded move ever left or entered
    either square, the squares between them are empty, the king is not in
    check, and neither the crossed square nor the destination is attacked.
    """
    _require_piece(board.board_state, king, KING)
    row = _move_row(KING, KING, king.colour, square_index(king.square))
    return frozenset(row[t] for t in _castling_moves(_context(board, king.colour), king))


def _castling_moves(context, king: Piece) -> list[int]:
    """castling_possible's destinations as square indices: the wings of the
    king's (colour, square) in _WINGS whose bit the square map's rights mask
    holds.  A king off its colour's home square or in check returns at once."""
    occ, colour, rights = context.occ, king.colour, context.rights
    wings = _WINGS.get((colour, king.square.x + 8 * king.square.y - 9))
    if wings is None or context.checked:
        return []
    enemy = opposite_colour(colour)
    return [
        dest
        for dest, (bit, corner, between, crossed) in wings.items()
        if rights & bit
        and (rook := occ[corner]) is not None and rook.type is ROOK and rook.colour is colour
        and not any(occ[t] for t in between)
        and not _square_attacked(occ, crossed, enemy)
        and not _square_attacked(occ, dest, enemy)
    ]


def stateful_possible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """The special moves available to a piece: double push, en passant and
    promotion for pawns, castling for kings, nothing for the rest."""
    _require_piece(board.board_state, piece)
    if piece.type is KING:
        return castling_possible(board, piece)
    if piece.type is not PAWN:
        return frozenset()
    return pawn_move_two(board.board_state, piece).union(
        en_passant(board, piece),
        _promotions(piece, moves_with_colours(piece, _context(board, piece.colour).occ)),
    )


# --- legality ---------------------------------------------------------------


def _king_context(occ: Occupancy, king: Optional[Piece]):
    """Whether the king is in check, its pin lines and its check evasions,
    as square indices.  A piece first on a king ray is pinned by an enemy
    slider next on that ray; its pin line runs from the king up to and
    including the pinner.  The evasions are the checker's square and the
    squares between it and the king (none in double check), or None out of
    check.  A missing king (synthetic positions) is never in check."""
    if king is None:
        return False, {}, None
    colour = king.colour
    enemy = opposite_colour(colour)
    k = square_index(king.square)
    pins, checks = {}, []
    for t in KNIGHT_TARGETS[k]:
        p = occ[t]
        if p is not None and p.type is KNIGHT and p.colour is enemy:
            checks.append(frozenset((t,)))
    for first, rest, near, sliders in _PROBE_RAYS[enemy][k]:
        p = occ[first]
        if p is not None and p.colour is enemy:
            if p.type in near:
                checks.append(frozenset((first,)))
            continue
        shield = None if p is None else first
        for i, t in enumerate(rest):
            p = occ[t]
            if p is None:
                continue
            if shield is None and p.colour is colour:
                shield = t
                continue
            if p.colour is enemy and p.type in sliders:
                line = frozenset((first, *rest[: i + 1]))
                if shield is None:
                    checks.append(line)
                else:
                    pins[shield] = line
            break
    if len(checks) > 1:
        checks = [frozenset()]  # double check: only the king may move
    return bool(checks), pins, checks[0] if checks else None


_Context = namedtuple("_Context", "occ king checked pins evasions moves passant rights")


def _context(board: Board, colour: Colour) -> _Context:
    """One side's legality context, filled on first use and kept on the
    board: the occupancy, the side's king, whether it is in check, its pin
    lines and check evasions (as square indices), the legal moves
    _piece_moves keeps by square index, and the en-passant captures
    (pawn square -> target square) the last ply allows, and the castling
    rights.  The occupancy (a 64-slot list indexed (x - 1) + 8 * (y - 1))
    is the one square map of the position: both sides share it, and the
    geometry, the attack probes, the applier and SAN read it.  It is kept
    under key None with the kings by colour and a 4-bit castling-rights
    mask; a board _apply builds inherits all three (_child_map), and
    only other boards build them from the pieces and the history.  Other
    modules read the fields by name; only this one knows their order."""
    contexts = board._contexts
    if contexts is None:
        state = board.board_state
        kings = {p.colour: p for p in state if p.type is KING}
        rights = 15
        for m in board.history:
            rights &= _RIGHTS_KEPT[square_index(m.from_.square)]
            rights &= _RIGHTS_KEPT[square_index(m.to_.square)]
        contexts = {None: (_occupancy(state), kings, rights)}
        object.__setattr__(board, "_contexts", contexts)
    if colour not in contexts:
        last = board.history[0] if board.history else None
        contexts[colour] = _side_context(contexts[None], last, colour)
    return contexts[colour]


def _side_context(square_map, last: Optional[Move], colour: Colour) -> _Context:
    """One side's legality context over a square map, after `last`."""
    occ, kings, rights = square_map
    king = kings.get(colour)
    passant = _en_passant_targets(last, colour)
    return _Context(occ, king, *_king_context(occ, king), {}, passant, rights)


def _piece_moves(board: Board, context, piece: Piece) -> list[Move]:
    """The legal moves of a piece on the board, worked out once and kept on
    the board's context by square.  The list is shared: never mutate it."""
    by_square = context.moves
    s = piece.square.x + 8 * piece.square.y - 9
    moves = by_square.get(s)
    if moves is None:
        moves = by_square[s] = _legal_for_piece(context, (piece,))
    return moves


def stateful_impossible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """The candidate moves the rules forbid: any move that leaves the
    mover's own king in check, and any pawn move onto the last rank that
    keeps the pawn a pawn (promotion is mandatory)."""
    _require_piece(board.board_state, piece)
    context = _context(board, piece.colour)
    row = _move_row(piece.type, piece.type, piece.colour, square_index(piece.square))
    simple = frozenset(row[t] for t in moves_with_colours(piece, context.occ))
    candidates = simple | stateful_possible_moves(board, piece)
    return candidates.difference(_piece_moves(board, context, piece))


def possible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """Every legal move for one piece: its simple moves lifted to Move
    values, plus its special moves, minus the impossible ones."""
    _require_piece(board.board_state, piece)
    return frozenset(_piece_moves(board, _context(board, piece.colour), piece))


def _legal_for_piece(context, pieces, count: bool = False):
    """The legal moves of a sequence of one side's pieces as one flat list,
    or with `count` their number (a promotion target counts four).  Each
    piece's targets are walked over the occupancy along the per-kind tables
    of the pieces module (moves_with_colours' geometry plus the double
    push), filtered, and only the kept ones lifted to Move values.  A king
    step must land where the enemy does not attack (castling is tested when
    generated); other moves must stay on the pin line and land on an
    evasion square.  Only en passant, which also removes the captured pawn,
    is probed on the occupancy the applier's patch leaves (_changes,
    _child_map).  A missing king is never attacked."""
    occ, king, checked, pins, evasions, _, passant, _ = context
    moves, total = [], 0
    for piece in pieces:
        kind, colour = piece.type, piece.colour
        s = piece.square.x + 8 * piece.square.y - 9
        targets = []
        if kind is PAWN:
            pushes, captures, promotes = PAWN_PATHS[colour][s]
            for t in pushes:
                if occ[t] is not None:
                    break
                targets.append(t)
            for t in captures:
                if occ[t] is not None and occ[t].colour is not colour:
                    targets.append(t)
        elif kind is KNIGHT or kind is KING:
            targets = [
                t for t in STEP_TARGETS[kind][s] if occ[t] is None or occ[t].colour is not colour
            ]
        else:
            for ray in SLIDER_PATHS[kind][s]:
                for t in ray:
                    holder = occ[t]
                    if holder is not None:
                        if holder.colour is not colour:
                            targets.append(t)
                        break
                    targets.append(t)
        if king is not None and targets:
            if kind is KING:
                # Out of check no enemy ray reaches the king's square, so the king
                # shields nothing and is lifted off for the probes only in check.
                probed = occ[:s] + [None] + occ[s + 1:] if checked else occ
                enemy = opposite_colour(colour)
                targets = [t for t in targets if not _square_attacked(probed, t, enemy)]
            else:
                allowed = pins.get(s)
                if evasions is not None:
                    allowed = evasions if allowed is None else allowed & evasions
                if allowed is not None:
                    targets = [t for t in targets if t in allowed]
        if kind is KING:
            targets += _castling_moves(context, piece)
        elif kind is PAWN and s in passant:
            capture = _move_row(PAWN, PAWN, colour, s)[passant[s]]
            after = _child_map((occ, {}, 0), capture, _changes(occ, capture))[0]
            enemy = opposite_colour(colour)
            if king is None or not _square_attacked(after, square_index(king.square), enemy):
                targets.append(passant[s])
        if count:
            total += 4 * len(targets) if kind is PAWN and promotes else len(targets)
        elif kind is PAWN and promotes:
            moves += _promotions(piece, targets)  # every target is on the last rank
        elif targets:
            row = _move_row(kind, kind, colour, s)
            moves += [row[t] for t in targets]
    return total if count else moves


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
    """Whether a (legal) move is a castling: a king move from its colour's
    home square to a destination of one of that colour's wings (_WINGS).
    Any other king jump, a two-file one included, is an ordinary move."""
    wings = _WINGS.get((mov.from_.colour, square_index(mov.from_.square)), {})
    return mov.from_.type is KING and square_index(mov.to_.square) in wings


def iss_en_passant(board: Board, mov: Move) -> bool:
    """Whether a (legal) move is an en-passant capture: one whose only
    change beyond its own two squares (_changes) is a victim taken."""
    return len(_changes(_context(board, mov.from_.colour).occ, mov)) == 1


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
    """The board after an already-validated move, built without Board's
    checks: a move on a valid board cannot break them.  The one _changes
    result gives the child's piece set, history and square map, which it
    inherits from its parent's (_child_map)."""
    occ = _context(board, mov.from_.colour).occ
    changes = _changes(occ, mov)
    target = mov.to_.square
    gone, arrived = {occ[target.x + 8 * target.y - 9], mov.from_}, {mov.to_}
    for s, holder in changes:
        gone.add(occ[s])
        if holder is not None:
            arrived.add(holder)
    after = object.__new__(Board)
    object.__setattr__(after, "board_state", (board.board_state - gone) | arrived)
    object.__setattr__(after, "history", (mov,) + board.history)
    object.__setattr__(after, "_contexts", {None: _child_map(board._contexts[None], mov, changes)})
    return after


def move_other(board: Board, mov: Move) -> Board:
    """An ordinary move: drop whatever sat on the target square and the
    moving piece, then add the arriving piece.  Promotion needs no special
    handling because the arriving piece already carries its new type."""
    if _changes(_context(board, mov.from_.colour).occ, mov):
        raise IllegalMoveError(f"not an ordinary move: {mov}")
    return _apply(board, mov)


def move_castling(board: Board, mov: Move) -> Board:
    """Castling (_CASTLINGS): the king leaves its home square, and its own
    rook leaves the wing's corner for the square the king crossed."""
    occ = _context(board, mov.from_.colour).occ
    changes = _changes(occ, mov)
    rook = occ[changes[0][0]] if len(changes) == 2 else None
    if rook is None or rook.type is not ROOK or rook.colour is not mov.from_.colour:
        raise IllegalMoveError(f"not a castling with its rook on the corner: {mov}")
    return _apply(board, mov)


def move_en_passant(board: Board, mov: Move) -> Board:
    """En passant: the pawn moves diagonally while the captured enemy pawn
    disappears from the square beside it."""
    occ = _context(board, mov.from_.colour).occ
    changes = _changes(occ, mov)
    if len(changes) != 1 or occ[changes[0][0]] is None:
        raise IllegalMoveError(f"not an en-passant capture beside a pawn: {mov}")
    return _apply(board, mov)


def _changes(occ: Occupancy, mov: Move) -> tuple:
    """The (square index, new holder or None) changes a move makes beyond
    its own two squares, read against the occupancy before it: castling's
    rook (a king move from its (colour, home) onto a wing's destination in
    _WINGS) and en passant's victim (a pawn changing file onto an empty
    square; its square is worked out only here).  It is the only move-kind dispatch: the
    applier, perft, iss_en_passant and the en-passant probe all read it."""
    origin, target, kind = mov.from_.square, mov.to_.square, mov.from_.type
    if kind is KING:
        wing = _WINGS.get((mov.from_.colour, square_index(origin)), {}).get(square_index(target))
        if wing is not None:
            _, corner, _, crossed = wing
            return (corner, None), (crossed, piece_row(ROOK, mov.from_.colour)[crossed])
    elif kind is PAWN and target.x != origin.x and occ[square_index(target)] is None:
        return ((square_at(target.x, origin.y), None),)
    return ()


def _child_map(square_map, mov: Move, changes: tuple):
    """The square map after a move: the occupancy with the mover moved and
    `changes` made, the kings updated, and the castling rights less those
    of the move's two squares."""
    occ, kings, rights = square_map
    occ = occ.copy()
    origin, target = mov.from_.square, mov.to_.square
    f, t = origin.x + 8 * origin.y - 9, target.x + 8 * target.y - 9
    dead = occ[t]
    occ[f], occ[t] = None, mov.to_
    for s, holder in changes:
        occ[s] = holder
    if dead is not None and dead.type is KING:  # a synthetic board's king taken
        kings = {**kings, dead.colour: None}
    if mov.to_.type is KING:
        kings = {**kings, mov.to_.colour: mov.to_}
    return occ, kings, rights & _RIGHTS_KEPT[f] & _RIGHTS_KEPT[t]


# --- verification oracle ----------------------------------------------------


def perft(board: Board, to_move: Colour, depth: int, jobs: int = 1) -> int:
    """Count the legal move sequences of exactly `depth` plies.

    The standard move-generator correctness oracle: from depth 1 on, the
    sum of _divide's counts, which recurse on square maps (_perft), build
    no Board below the root and count the last ply without lifting it to
    Move values.  With jobs > 1 the root moves' subtrees run in separate
    processes; a sum does not depend on evaluation order.
    """
    if depth < 0:
        raise ValueError("perft depth must be non-negative")
    if depth == 0:
        return 1
    return sum(count for _, count in _divide(board, to_move, depth, jobs))


def _perft(square_map, last: Optional[Move], colour: Colour, depth: int) -> int:
    """perft(depth >= 1) of a square map's position after move `last` (None
    before the first) with `colour` to move; a depth-1 node only counts."""
    context = _side_context(square_map, last, colour)
    pieces = [p for p in context.occ if p is not None and p.colour is colour]
    if depth == 1:
        return _legal_for_piece(context, pieces, True)
    occ, enemy, total = context.occ, opposite_colour(colour), 0
    for m in _legal_for_piece(context, pieces):
        total += _perft(_child_map(square_map, m, _changes(occ, m)), m, enemy, depth - 1)
    return total


def _divide(board: Board, to_move: Colour, depth: int, jobs: int = 1) -> list:
    """(move, perft count of depth - 1 after it) for each legal move (depth
    >= 1): _perft on each root move's child square map, which with jobs > 1
    a pool of that many processes receives."""
    context = _context(board, to_move)
    occ, square_map, enemy = context.occ, board._contexts[None], opposite_colour(to_move)
    moves = _legal_for_piece(context, [p for p in occ if p is not None and p.colour is to_move])
    if depth == 1:
        return [(m, 1) for m in moves]
    tasks = [(_child_map(square_map, m, _changes(occ, m)), m, enemy, depth - 1) for m in moves]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            return list(zip(moves, pool.starmap(_perft, tasks)))
    return [(m, _perft(*task)) for m, task in zip(moves, tasks)]


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
            p = occ[square_at(x, y)]
            if p is None:
                cells.append(".")
            else:
                letter = _PIECE_LETTERS[p.type]
                cells.append(letter.upper() if p.colour is Colour.WHITE else letter)
        rows.append(" ".join(cells))
    return "\n".join(rows)
