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
    _A_FILE,
    _BETWEEN,
    _NOT_A_FILE,
    _NOT_H_FILE,
    _PAWN_FIELD,
    _SLIDE_FIELD,
    _SLIDES,
    _STEPS,
    FULL,
    SQUARES,
    Colour,
    Coordinate,
    Occupancy,
    Piece,
    PieceType,
    _Table,
    _mask,
    _occupancy,
    _slide,
    _squares,
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


# --- bitboards ---------------------------------------------------------------
#
# A square map holds one bitboard (a mask, as chessval.pieces builds them)
# per (colour, type), in slot _SLOT[colour, type]; they are disjoint, so
# their sum is their union.

_SLOT = {
    (colour, kind): 6 * i + j
    for i, colour in enumerate(Colour)
    for j, kind in enumerate((PAWN, KNIGHT, BISHOP, ROOK, QUEEN, KING))
}
_SIDE = {colour: _SLOT[colour, PAWN] for colour in Colour}  # a colour's first slot


def _boards(pieces) -> list[int]:
    """The twelve bitboards of a set of Pieces."""
    boards = [0] * 12
    for p in pieces:
        boards[_SLOT[p.colour, p.type]] |= 1 << p.square.x + 8 * p.square.y - 9
    return boards


def _attackers(boards: list, by: Colour) -> tuple:
    """Colour `by`'s pieces as an attack probe reads them: (pawns, knights,
    bishops and queens, rooks and queens, king, the _STEPS field of the
    squares its pawns attack from)."""
    pawns, knights, bishops, rooks, queens, king = boards[_SIDE[by]:_SIDE[by] + 6]
    return pawns, knights, bishops | queens, rooks | queens, king, _PAWN_FIELD[by]


def _square_attacked(attackers: tuple, occupied: int, s: int) -> bool:
    """Whether the pieces of `attackers` (_attackers) attack square index s
    over the `occupied` mask, probing outward from it: the knights, king and
    pawns by their step masks, and each slider on a line with s whose
    squares between are empty.

    Equivalent to membership in attacked_squares for any square not held
    by one of the attacking colour's pieces; kept separate because the
    per-candidate legality filter calls it millions of times in perft runs.
    """
    pawns, knights, diagonal, straight, king, pawn_field = attackers
    steps = _STEPS[s]
    if steps[0] & knights or steps[1] & king or steps[pawn_field] & pawns:
        return True
    snipers = steps[4] & straight | steps[5] & diagonal
    while snipers:
        low = snipers & -snipers
        if not _BETWEEN[s][low.bit_length() - 1] & occupied:
            return True
        snipers ^= low
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
        if p.type is PAWN:  # a pawn on s attacks where enemy pawns attack s from
            s = square_index(p.square)
            attacked.update(_squares(_STEPS[s][_PAWN_FIELD[opposite_colour(by)]]))
        else:
            attacked.update(moves_with_colours(p, occ))
    return frozenset(SQUARES[s] for s in attacked)


def _king_of(state: BoardState, colour: Colour) -> Optional[Piece]:
    return next((p for p in state if p.type is KING and p.colour is colour), None)


def in_check(state: BoardState, colour: Colour) -> bool:
    """Whether `colour`'s king stands on a square its opponent attacks."""
    if _king_of(state, colour) is None:
        raise ValueError(f"no {colour.value} king on the board")
    return _king_context(_boards(state), colour)[4]


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
    s, white = square_index(pawn.square), pawn.colour is Colour.WHITE
    step, occ = 8 if white else -8, _occupancy(state)
    if pawn.square.y != (2 if white else 7) or occ[s + step] or occ[s + 2 * step]:
        return frozenset()
    return frozenset((_move_row(PAWN, PAWN, pawn.colour, s)[s + 2 * step],))


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
# _CASTLINGS by the king's (colour, home): destination -> the entry less its
# colour, with the squares between king and rook as a mask.
_WINGS = {
    (side, home): {
        dest: (bit, corner, _mask(between), crossed)
        for (h, dest), (_, bit, corner, between, crossed) in _CASTLINGS.items() if h == home
    }
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
    return frozenset(row[t] for t in _castling_moves(_context(board, king.colour)))


def _castling_moves(context) -> list[int]:
    """castling_possible's destinations as square indices: the wings of the
    king's (colour, square) in _WINGS whose bit the square map's rights mask
    holds, with the side's rook on the corner.  A king off its colour's home
    square or in check returns at once."""
    _, boards, rights, colour, _, occupied, attackers, king, checked = context[:9]
    wings = _WINGS.get((colour, king))
    if wings is None or checked:
        return []
    rooks, dests = boards[_SIDE[colour] + 3], []
    for dest, (bit, corner, between, crossed) in wings.items():
        if (
            rights & bit
            and rooks >> corner & 1
            and not between & occupied
            and not _square_attacked(attackers, occupied, crossed)
            and not _square_attacked(attackers, occupied, dest)
        ):
            dests.append(dest)
    return dests


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


def _king_context(boards: list, colour: Colour):
    """The squares the side holds and all the held squares, the enemy's
    pieces as the attack probe reads them (_attackers), the king's square
    (None without one: synthetic positions are never in check), whether the
    enemy checks it, its pin lines and its check evasions, as masks.  An
    enemy slider on a line with the king whose squares between hold nothing
    checks; holding one piece of the king's colour, it pins that piece,
    whose pin line runs from the king up to and including the pinner.  The
    evasions are the checker's square and the squares between it and the
    king (none in double check), or FULL out of check."""
    own = _SIDE[colour]
    us, occupied = sum(boards[own:own + 6]), sum(boards)
    attackers = _attackers(boards, opposite_colour(colour))
    king = boards[own + 5]
    if not king:
        return us, occupied, attackers, None, False, {}, FULL
    k = king.bit_length() - 1
    pawns, knights, diagonal, straight, enemy_king, pawn_field = attackers
    steps = _STEPS[k]
    checkers = steps[0] & knights | steps[1] & enemy_king | steps[pawn_field] & pawns
    evasions, pins = checkers, {}
    snipers = steps[4] & straight | steps[5] & diagonal
    while snipers:
        low = snipers & -snipers
        snipers ^= low
        line = _BETWEEN[k][low.bit_length() - 1]
        shields = line & occupied
        if not shields:
            checkers |= low
            evasions |= line | low
        elif not shields & (shields - 1) and shields & us:
            pins[shields.bit_length() - 1] = line | low
    if not checkers:
        return us, occupied, attackers, k, False, pins, FULL
    return us, occupied, attackers, k, True, pins, 0 if checkers & (checkers - 1) else evasions


_Context = namedtuple(
    "_Context",
    "occ boards rights colour us occupied attackers king checked pins evasions moves passant slides",
)


def _context(board: Board, colour: Colour) -> _Context:
    """One side's legality context, filled on first use and kept on the
    board: the square map (occupancy, bitboards and castling rights), the
    side's colour, the squares it holds and all the held squares, the
    enemy's pieces as the attack probe reads them, the side's king square,
    whether it is in check, its pin lines and check evasions (as masks),
    the legal moves _legal_for_piece keeps by square index, the en-passant
    captures (pawn square -> target square) the last ply allows, and
    perft's slider memo (None on a board).  The occupancy (a 64-slot list
    indexed (x - 1) + 8 * (y - 1)) and the bitboards are the one square map
    of the position: both sides share it, the geometry, the applier and SAN
    read the occupancy, and the legality masks the bitboards.  It is kept
    under key None with a 4-bit castling-rights mask; a board _apply builds
    inherits all three (_child_map), and only other boards build them from
    the pieces and the history.  Other modules read the fields by name;
    only this one knows their order."""
    contexts = board._contexts
    if contexts is None:
        rights = 15
        for m in board.history:
            rights &= _RIGHTS_KEPT[square_index(m.from_.square)]
            rights &= _RIGHTS_KEPT[square_index(m.to_.square)]
        state = board.board_state
        contexts = {None: (_occupancy(state), _boards(state), rights)}
        object.__setattr__(board, "_contexts", contexts)
    if colour not in contexts:
        last = board.history[0] if board.history else None
        contexts[colour] = _side_context(contexts[None], last, colour, None)
    return contexts[colour]


def _side_context(square_map, last: Optional[Move], colour: Colour, slides) -> _Context:
    """One side's legality context over a square map, after `last`, with
    the slider memo `slides`."""
    return _Context(
        *square_map, colour, *_king_context(square_map[1], colour), {},
        _en_passant_targets(last, colour), slides,
    )


def _memo_slide(key: int) -> int:
    """An entry of perft's slider memo, a _Table of this: a slider's attacks
    (_slide) keyed by the occupancy of its reach with its square index s and
    _SLIDES field above it, (s << 2 | field) << 64.  The count one ply above
    the leaves meets few distinct occupancies there; positions that share
    little, as in play, would fill it without end, so it lives for one
    perft call."""
    return _slide(_SLIDES[key >> 66][key >> 64 & 3][1], key & FULL)


def _piece_moves(context, s: int) -> list[Move]:
    """The legal moves of the context's piece on square index s, worked out
    once and kept on the board's context by square.  The list is shared:
    never mutate it."""
    moves = context.moves.get(s)
    if moves is None:
        _legal_for_piece(context, 1 << s)
        moves = context.moves[s]
    return moves


def _moves_onto(context, kind: PieceType, t: int) -> list[Move]:
    """The legal moves of the context's side's pieces of one type onto
    square index t.  One walk covers those of them not yet kept by square
    whose reach on an empty board holds t: for a pawn, t's file and the
    squares it captures onto t from; the king always, for castling."""
    colour, moves = context.colour, context.moves
    if kind is PAWN:
        reach = _STEPS[t][_PAWN_FIELD[colour]] | _A_FILE << (t & 7)
    elif kind is KNIGHT:
        reach = _STEPS[t][0]
    else:
        reach = FULL if kind is KING else _SLIDES[t][_SLIDE_FIELD[kind]][0]
    pieces = context.boards[_SLOT[colour, kind]] & reach
    _legal_for_piece(context, pieces & ~_mask(moves))
    square = SQUARES[t]  # generated moves hold these
    return [m for s in _squares(pieces) for m in moves[s] if m.to_.square is square]


def _side_moves(context) -> list[Move]:
    """Every legal move of the context's side: one walk over its pieces not
    yet kept by square, then every kept list."""
    moves = context.moves
    _legal_for_piece(context, ~_mask(moves))
    return [m for by_square in moves.values() for m in by_square]


def stateful_impossible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """The candidate moves the rules forbid: any move that leaves the
    mover's own king in check, and any pawn move onto the last rank that
    keeps the pawn a pawn (promotion is mandatory)."""
    _require_piece(board.board_state, piece)
    context = _context(board, piece.colour)
    s = square_index(piece.square)
    row = _move_row(piece.type, piece.type, piece.colour, s)
    simple = frozenset(row[t] for t in moves_with_colours(piece, context.occ))
    candidates = simple | stateful_possible_moves(board, piece)
    return candidates.difference(_piece_moves(context, s))


def possible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """Every legal move for one piece: its simple moves lifted to Move
    values, plus its special moves, minus the impossible ones."""
    _require_piece(board.board_state, piece)
    return frozenset(_piece_moves(_context(board, piece.colour), square_index(piece.square)))


# Per colour, the pawn's shifts as (left, right) shift pairs, x << left >> right:
# the push, the capture towards the a-file and towards the h-file; then the
# rank a single push must reach for a double push, and the last rank.
_PAWN_SHIFTS = {
    Colour.WHITE: ((8, 0), (7, 0), (9, 0), 0xFF << 16, 0xFF << 56),
    Colour.BLACK: ((0, 8), (0, 9), (0, 7), 0xFF << 40, 0xFF),
}


def _legal_for_piece(context, wanted: int, count: bool = False):
    """The legal moves of the side's pieces on the squares of the `wanted`
    mask, kept in the context's by-square lists, or with `count` only
    their number (a promotion target counts four).

    One walk computes a target mask per piece from the bitboards: a knight
    its steps, a slider its attacks (_slide, through perft's memo when the
    context has one), both less the side's own squares, on the pin line
    and, in check, on an evasion square; the count adds up their
    bit_count(), the lists lift their set bits through the piece's move
    rows.  The unpinned pawns' targets are found in bulk, by shifts with
    file masks, and each pinned pawn's alone on its pin line.  Castling, en
    passant and king steps are probed a square at a time: a king step must
    land where the enemy does not attack, and en passant, which also
    removes the captured pawn, is probed on the square map the applier's
    patch leaves (_changes, _child_map).  A missing king is never attacked."""
    (occ, boards, rights, colour, us, occupied, attackers, king, checked, pins, evasions, moves,
     passant, slides) = context
    own = _SIDE[colour]
    allowed = evasions & ~us
    total = 0
    pawns, kings = boards[own] & wanted, boards[own + 5] & wanted
    pieces = us & wanted ^ pawns ^ kings  # the knights and sliders
    while pieces:
        s = pieces.bit_length() - 1
        pieces ^= 1 << s
        kind = occ[s].type
        if kind is KNIGHT:
            targets = _STEPS[s][0] & allowed
        else:
            reach, lines, key = _SLIDES[s][_SLIDE_FIELD[kind]]
            targets = _slide(lines, occupied) if slides is None else slides[occupied & reach | key]
            targets &= allowed
        if s in pins:  # a pinned knight's steps never land on its line
            targets &= pins[s]
        if count:
            total += targets.bit_count()
        else:
            moves[s] = _lift(_move_row(kind, kind, colour, s), targets)
    if pawns:
        if not count:
            for s in _squares(pawns):
                moves[s] = []
        groups = [(pawns, allowed)]
        if pins:
            groups = [(pawns & ~_mask(pins), allowed)]
            groups += [(1 << s, allowed & line) for s, line in pins.items() if pawns >> s & 1]
        (pl, pr), (al, ar), (hl, hr), double, last = _PAWN_SHIFTS[colour]
        them, empty = occupied ^ us, ~occupied
        for group, on in groups:
            one = group << pl >> pr & empty
            two = (one & double) << pl >> pr & empty & on
            one &= on
            left = (group & _NOT_A_FILE) << al >> ar & them & on
            right = (group & _NOT_H_FILE) << hl >> hr & them & on
            if count:  # only the two captures can share a target
                total += (one | two | left).bit_count() + right.bit_count()
                if (one | left | right) & last:
                    total += 3 * (((one | left) & last).bit_count() + (right & last).bit_count())
                continue
            for targets, back in ((one, pr - pl), (two, 2 * (pr - pl)), (left, ar - al), (right, hr - hl)):
                while targets:  # each target back to its pawn's square
                    t = targets.bit_length() - 1
                    targets ^= 1 << t
                    s = t + back
                    if 1 << t & last:
                        moves[s] += [_move_row(PAWN, kind, colour, s)[t] for kind in PROMOTABLE_TYPES]
                    else:
                        moves[s].append(_move_row(PAWN, PAWN, colour, s)[t])
        for s, t in passant.items():
            if pawns >> s & 1:
                capture = _move_row(PAWN, PAWN, colour, s)[t]
                after = _child_map((occ, boards, rights), capture, _changes(occ, capture))[1]
                probe = _attackers(after, opposite_colour(colour))
                if king is None or not _square_attacked(probe, sum(after), king):
                    total += 1
                    if not count:
                        moves[s].append(capture)
    if kings:
        s = kings.bit_length() - 1
        targets = _STEPS[s][1] & ~us
        if king is not None:
            # Out of check no enemy ray reaches the king's square, so the king
            # shields nothing and is lifted off for the probes only in check.
            probed = occupied ^ kings if checked else occupied
            steps = targets
            while steps:
                t = steps.bit_length() - 1
                steps ^= 1 << t
                if _square_attacked(attackers, probed, t):
                    targets ^= 1 << t
        castlings = _castling_moves(context)
        if count:
            total += targets.bit_count() + len(castlings)
        else:
            row = _move_row(KING, KING, colour, s)
            moves[s] = _lift(row, targets) + [row[t] for t in castlings]
    return total if count else None


def _lift(row: _MoveRow, targets: int) -> list[Move]:
    """The moves of a move row onto a target mask's set bits."""
    moves = []
    while targets:
        t = targets.bit_length() - 1
        moves.append(row[t])
        targets ^= 1 << t
    return moves


def legal_moves(board: Board, colour: Colour) -> frozenset[Move]:
    """Every legal move for one side; the union of possible_moves over its
    pieces."""
    return frozenset(_side_moves(_context(board, colour)))


def has_legal_move(board: Board, colour: Colour) -> bool:
    """Whether the side has any legal move: its pieces are counted a type at
    a time, pawns first and the king last, up to the first type that has
    one, which matters when every played move must test the opponent for
    mate or stalemate."""
    context = _context(board, colour)
    own = _SIDE[colour]
    return any(_legal_for_piece(context, pieces, True) for pieces in context.boards[own:own + 6])


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
    if mov not in _piece_moves(_context(board, mov.from_.colour), square_index(mov.from_.square)):
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
    `changes` made, the bitboards patched by XOR at the same squares, and
    the castling rights less those of the move's two squares."""
    occ, boards, rights = square_map
    occ, boards = occ.copy(), boards.copy()
    origin, target = mov.from_.square, mov.to_.square
    f, t = origin.x + 8 * origin.y - 9, target.x + 8 * target.y - 9
    dead = occ[t]
    if dead is not None:
        boards[_SLOT[dead.colour, dead.type]] ^= 1 << t
    boards[_SLOT[mov.from_.colour, mov.from_.type]] ^= 1 << f
    boards[_SLOT[mov.to_.colour, mov.to_.type]] ^= 1 << t
    occ[f], occ[t] = None, mov.to_
    for s, holder in changes:
        gone = occ[s]
        if gone is not None:
            boards[_SLOT[gone.colour, gone.type]] ^= 1 << s
        if holder is not None:
            boards[_SLOT[holder.colour, holder.type]] ^= 1 << s
        occ[s] = holder
    return occ, boards, rights & _RIGHTS_KEPT[f] & _RIGHTS_KEPT[t]


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


def _perft(square_map, last: Optional[Move], colour: Colour, depth: int, slides) -> int:
    """perft(depth >= 1) of a square map's position after move `last` (None
    before the first) with `colour` to move, through the slider memo
    `slides` (_memo_slide); a depth-1 node only counts."""
    context = _side_context(square_map, last, colour, slides)
    if depth == 1:
        return _legal_for_piece(context, FULL, True)
    occ, enemy, total = context.occ, opposite_colour(colour), 0
    for m in _side_moves(context):
        total += _perft(_child_map(square_map, m, _changes(occ, m)), m, enemy, depth - 1, slides)
    return total


def _divide(board: Board, to_move: Colour, depth: int, jobs: int = 1) -> list:
    """(move, perft count of depth - 1 after it) for each legal move (depth
    >= 1): _perft on each root move's child square map, which with jobs > 1
    a pool of that many processes receives."""
    context = _context(board, to_move)
    occ, square_map, enemy = context.occ, board._contexts[None], opposite_colour(to_move)
    moves = _side_moves(context)
    if depth == 1:
        return [(m, 1) for m in moves]
    slides = _Table(_memo_slide)  # one per process: a pool pickles it empty with its tasks
    tasks = [(_child_map(square_map, m, _changes(occ, m)), m, enemy, depth - 1, slides) for m in moves]
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
