"""Board values, move legality and move application.

A Board is an immutable pair of a piece set and a move history (newest
first).  The history is the only record of the past: castling rights and
en-passant windows are derived from it rather than stored.  Applying a
move never mutates anything; it builds a new Board value.

A Board also carries derived legality contexts, which equality, hashing,
repr and pickles ignore.  Its square map holds from birth: the constructor
builds it, and a board a move builds inherits its parent's, patched, and
derives its piece set from it only on first read.  The per-side contexts
are filled on first use, idempotently, so boards stay safe to share.
The generated moves are interned (_MOVES) and hold interned pieces, so the
move() gate, which finds the mover on the context's occupancy and the move
in its piece's list, mostly decides by identity.
"""

from __future__ import annotations

import multiprocessing
import random
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Optional

from .pieces import (
    _A_FILE,
    _BETWEEN,
    _KINDS,
    _NOT_A_FILE,
    _NOT_H_FILE,
    _PAWN_FIELD,
    _ROWS,
    _SLIDE_FIELD,
    _SLIDES,
    _SLOT,
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
    _targets,
    opposite_colour,
    square_at,
)

PAWN = PieceType.PAWN
ROOK = PieceType.ROOK
KNIGHT = PieceType.KNIGHT
BISHOP = PieceType.BISHOP
QUEEN = PieceType.QUEEN
KING = PieceType.KING

class IllegalMoveError(ValueError):
    """A move rejected by the legality gate, or a piece that is not on the
    board it is being moved on."""


@dataclass(frozen=True, slots=True)
class Move:
    """A move as a from-piece/to-piece pair.

    The destination is a full Piece rather than a bare square so that
    promotion (a pawn arriving with a new type) needs no extra field.
    Castling is a king move listed in _CASTLINGS; en passant a pawn's
    diagonal step onto an empty square.  The hash is computed once, when
    built; equality answers at once for one object or for unequal hashes.
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
        if from_.type is not to_.type and (
            from_.type is not PAWN or to_.type is KING
            or to_.square.y != (8 if from_.colour is Colour.WHITE else 1)
        ):
            raise ValueError("only a pawn reaching the last rank may change type, never to a king")
        object.__setattr__(self, "_hash", hash((from_, to_)))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Move:
            return NotImplemented
        return self._hash == other._hash and self.from_ == other.from_ and self.to_ == other.to_

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # pickle the pieces: the hash holds only in this process
        return Move, (self.from_, self.to_)


_SIDE = {colour: _SLOT[colour, PAWN] for colour in Colour}  # a colour's first slot (pieces._SLOT)
# Per colour, its first slot, its enemy's first slot and the _STEPS field of
# the squares the enemy's pawns attack from: what _king_context reads.
_SIDES = {c: (_SIDE[c], _SIDE[opposite_colour(c)], _PAWN_FIELD[opposite_colour(c)]) for c in Colour}


def _move_row(key: int) -> _Table:
    """The row of _MOVES under key moving slot << 10 | arriving slot << 6 |
    from-square index: the piece's moves by target square index, each
    built on first use by the public constructor."""
    slot, arriving, s = key >> 10, key >> 6 & 15, key & 63
    colour = tuple(Colour)[slot // 6]
    piece, arrivals = _ROWS[_KINDS[slot % 6], colour][s], _ROWS[_KINDS[arriving % 6], colour]
    return _Table(lambda t: Move(piece, arrivals[t]))


# The interned moves, a row per (moving slot, arriving slot, from-square
# index), made on first use: an import builds none.
_MOVES = _Table(_move_row)


BoardState = frozenset[Piece]

History = tuple[Move, ...]


@dataclass(frozen=True)
class Board:
    """An immutable board: the pieces on it plus the moves that led there,
    most recent move first.  Its square map (_contexts[None]) holds from
    birth: the constructor builds it and checks it; _apply patches the
    parent's and leaves the piece set for __getattr__ to derive on first
    read and keep.  Equality, hashing, repr, pickles, copies and
    dataclasses.replace read the field; pickles and copies construct."""

    board_state: BoardState
    history: History = ()
    _contexts: dict = field(init=False, compare=False, repr=False)

    def __reduce__(self):  # as Move's: an unpickled board builds its square map
        return Board, (self.board_state, self.history)

    def __getattr__(self, name):  # only a board _apply built lacks its piece set
        if name != "board_state":
            raise AttributeError(name)
        state = frozenset(p for p in self._contexts[None][0] if p is not None)
        object.__setattr__(self, "board_state", state)
        return state

    def __post_init__(self) -> None:
        state, history = frozenset(self.board_state), tuple(self.history)
        object.__setattr__(self, "board_state", state)
        object.__setattr__(self, "history", history)
        if not state:
            raise ValueError("a board must hold at least one piece")
        occ = _occupancy(state)  # raises if two pieces share a square
        boards, rights = _boards(state), 15
        for colour in Colour:
            kings = boards[_SIDE[colour] + 5]
            if kings & (kings - 1):
                raise ValueError(f"more than one {colour.value} king")
        for m in history:
            rights &= _RIGHTS_KEPT[m.from_._s] & _RIGHTS_KEPT[m.to_._s]
        object.__setattr__(self, "_contexts", {None: (occ, boards, rights)})


_BACK_RANK = (ROOK, KNIGHT, BISHOP, QUEEN, KING, BISHOP, KNIGHT, ROOK)


def default_board() -> Board:
    """The standard initial position with an empty history, of the
    interned pieces (pieces._ROWS) the generated moves hold."""
    white, black, pieces = Colour.WHITE, Colour.BLACK, []
    for s, kind in enumerate(_BACK_RANK):
        pieces += _ROWS[kind, white][s], _ROWS[PAWN, white][s + 8]
        pieces += _ROWS[PAWN, black][s + 48], _ROWS[kind, black][s + 56]
    return Board(frozenset(pieces), ())


# --- bitboards ---------------------------------------------------------------
#
# A square map holds one bitboard (a mask, as chessval.pieces builds them)
# per (colour, type), in the slot its pieces carry (_slot); they are
# disjoint, so their sum is their union.


def _boards(pieces) -> list[int]:
    """The twelve bitboards of a set of Pieces."""
    boards = [0] * 12
    for p in pieces:
        boards[p._slot] |= 1 << p._s
    return boards


def _square_attacked(attackers: tuple, occupied: int, s: int) -> bool:
    """Whether the pieces of `attackers` (as _king_context lays them out)
    attack square index s over the `occupied` mask, probing outward from
    it: the knights, king and pawns by their step masks, and each slider on
    a line with s whose squares between are empty.  It is the one statement
    of attack: the legality filter, castling and attacked_squares all ask it.
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
    """Every square colour `by` attacks, each asked of the attack probe
    (_square_attacked): pawns attack only their two forward diagonals
    (occupied or not), never the square in front of them.  A square the
    side holds counts only where one of its pawns attacks it: a pawn
    defends, but no other piece's pattern covers its own side's squares."""
    boards = _boards(state)
    them, occupied, attackers = _king_context(boards, opposite_colour(by))[:3]
    us = occupied ^ them
    pawns_only = attackers[:1] + (0, 0, 0, 0) + attackers[5:]
    return frozenset(
        SQUARES[s] for s in range(64)
        if _square_attacked(pawns_only if us >> s & 1 else attackers, occupied, s)
    )


def in_check(state: BoardState, colour: Colour) -> bool:
    """Whether `colour`'s king stands on a square its opponent attacks."""
    boards = _boards(state)
    if not boards[_SIDE[colour] + 5]:
        raise ValueError(f"no {colour.value} king on the board")
    return _king_context(boards, colour)[4]


# --- special moves ----------------------------------------------------------


def _held(board: Board, piece: Piece, piece_type=None) -> tuple:
    """The piece's side's context and the piece's square index, found on the
    context's occupancy: the one holder check, of the move() gate, the
    named rules and every per-piece query.  A piece its square does not
    hold, or one not of `piece_type` when that is given, raises
    IllegalMoveError."""
    context, s = _context(board, piece.colour), piece._s
    holder = context.occ[s]
    if holder is not piece and holder != piece:
        raise IllegalMoveError(f"piece not on the board: {piece}")
    if piece_type is not None and piece.type is not piece_type:
        raise IllegalMoveError(f"expected a {piece_type.value}, got {piece.type.value}")
    return context, s


def _unguarded_moves(board: Board, piece: Piece, piece_type=None) -> list[Move]:
    """A piece's moves by the rules of movement alone, after _held's check:
    _legal_for_piece's walk on its side's context with the king filters
    cleared, in a list of their own.  Without a king no step or en-passant
    capture is probed and no castling listed; without pins or evasions no
    target is pruned.  The pawns' special-move operations are filters over
    these."""
    context, s = _held(board, piece, piece_type)
    context = context._replace(king=None, pins={}, evasions=FULL, moves={})
    return _legal_for_piece(context, 1 << s)[s]


def pawn_move_two(state: BoardState, pawn: Piece) -> frozenset[Move]:
    """The two-square advance, available only from the pawn's initial rank
    with both the skipped and the target square empty."""
    moves = _unguarded_moves(Board(state), pawn, PAWN)
    return frozenset(m for m in moves if abs(m.to_.square.y - pawn.square.y) == 2)


def en_passant(board: Board, pawn: Piece) -> frozenset[Move]:
    """The en-passant capture, legal exactly one ply after an enemy pawn's
    double push lands beside this pawn; the capture moves onto the square
    the enemy pawn skipped."""
    return frozenset(m for m in _unguarded_moves(board, pawn, PAWN) if iss_en_passant(board, m))


_NO_PASSANT = (0, 0)  # the en-passant window of most plies: none


def _en_passant_targets(last: Optional[Move], colour: Colour) -> tuple:
    """The en-passant window a `colour` side has after move `last` (None
    before the first), as (the squares beside where an enemy pawn's double
    push landed as a mask, the square index it skipped): a `colour` pawn
    beside captures onto the skipped square.  (0, 0) is no window."""
    if last is None or last.from_.type is not PAWN or last.from_.colour is colour:
        return _NO_PASSANT
    f, t = last.from_._s, last.to_._s
    if abs(t - f) != 16:
        return _NO_PASSANT
    landing = 1 << t
    return (landing & _NOT_A_FILE) >> 1 | (landing & _NOT_H_FILE) << 1, (f + t) // 2


def pawn_promotion(state: BoardState, pawn: Piece) -> frozenset[Move]:
    """Four moves (one per promotable type) for every square the pawn can
    reach on the last rank."""
    moves = _unguarded_moves(Board(state), pawn, PAWN)
    return frozenset(m for m in moves if m.to_.type is not PAWN)


# The one table of castling's squares, as square indices (a1 = 0, h1 = 7,
# h8 = 63), keyed by the king's (colour, home square), then by its
# destination: the castling-rights bit, the rook's corner, the squares
# between king and rook as a mask, and the square the king crosses, where
# the rook lands.  In KQkq order.
_CASTLINGS = {
    (Colour.WHITE, 4): {6: (1, 7, _mask((5, 6)), 5), 2: (2, 0, _mask((1, 2, 3)), 3)},
    (Colour.BLACK, 60): {62: (4, 63, _mask((61, 62)), 61), 58: (8, 56, _mask((57, 58, 59)), 59)},
}
# Per square index, the rights a move leaving or entering it keeps: a king's
# home square ends both of its side's rights, a corner its wing's.
_RIGHTS_KEPT = bytes(
    15 & ~sum(
        bit for (_, home), wings in _CASTLINGS.items() for bit, corner, _, _ in wings.values()
        if s in (home, corner)
    )
    for s in range(64)
)


def castling_possible(board: Board, king: Piece) -> frozenset[Move]:
    """The castling moves currently available to this king.

    A wing qualifies only if the king stands on its initial square with a
    same-colour rook on the corner, no recorded move ever left or entered
    either square, the squares between them are empty, the king is not in
    check, and neither the crossed square nor the destination is attacked.
    """
    context, s = _held(board, king, KING)
    row = _MOVES[king._slot << 10 | king._slot << 6 | s]
    return frozenset(map(row.__getitem__, _squares(_castling_moves(context))))


def _castling_moves(context) -> int:
    """castling_possible's destinations as a mask: those of the wings of the
    king's (colour, square) in _CASTLINGS whose bit the square map's rights
    mask holds, with the side's rook on the corner.  A king off its colour's
    home square or in check returns 0 at once."""
    _, boards, rights, colour, _, occupied, attackers, king, checked = context[:9]
    wings = _CASTLINGS.get((colour, king))
    if wings is None or checked:
        return 0
    rooks, dests = boards[_SIDE[colour] + 3], 0
    for dest, (bit, corner, between, crossed) in wings.items():
        if (
            rights & bit
            and rooks >> corner & 1
            and not between & occupied
            and not _square_attacked(attackers, occupied, crossed)
            and not _square_attacked(attackers, occupied, dest)
        ):
            dests |= 1 << dest
    return dests


def stateful_possible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """The special moves available to a piece: double push, en passant and
    promotion for pawns, castling for kings, nothing for the rest.  A
    pawn's are the moves of its one unguarded walk that pawn_move_two,
    en_passant or pawn_promotion keeps."""
    _held(board, piece)
    if piece.type is KING:
        return castling_possible(board, piece)
    if piece.type is not PAWN:
        return frozenset()
    return frozenset(
        m for m in _unguarded_moves(board, piece)
        if abs(m.to_.square.y - piece.square.y) == 2
        or iss_en_passant(board, m)
        or m.to_.type is not PAWN
    )


# --- legality ---------------------------------------------------------------


def _king_context(boards: list, colour: Colour):
    """The squares the side holds and all the held squares, the enemy's
    pieces as the attack probe reads them (laid out here only: pawns,
    knights, bishops and queens, rooks and queens, king, the _STEPS field
    of the squares its pawns attack from), the king's square (None without
    one: synthetic positions are never in check), whether the enemy checks
    it, its pin lines and its check evasions, as masks.  An enemy slider on
    a line with the king whose squares between hold nothing checks; holding
    one piece of the king's colour, it pins that piece, whose pin line runs
    from the king up to and including the pinner.  The evasions are the
    checker's square and the squares between it and the king (none in
    double check), or FULL out of check."""
    own, enemy, pawn_field = _SIDES[colour]
    us, occupied = sum(boards[own:own + 6]), sum(boards)
    pawns, knights, bishops, rooks, queens, enemy_king = boards[enemy:enemy + 6]
    diagonal, straight = bishops | queens, rooks | queens
    attackers = pawns, knights, diagonal, straight, enemy_king, pawn_field
    king = boards[own + 5]
    if not king:
        return us, occupied, attackers, None, False, {}, FULL
    k = king.bit_length() - 1
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
    window the last ply opens (_en_passant_targets), and perft's slider
    memo (None on a board).  The occupancy (a 64-slot list indexed
    (x - 1) + 8 * (y - 1)) and the bitboards are the one square map
    of the position: both sides share it, the geometry, the applier and SAN
    read the occupancy, and the legality masks the bitboards.  Every board
    holds it, with a 4-bit castling-rights mask, under key None from birth
    (Board, _apply); this only adds the side's part.  Other modules read
    the fields by name; only this one knows their order."""
    contexts = board._contexts
    if colour not in contexts:
        last = board.history[0] if board.history else None
        contexts[colour] = _side_context(contexts[None], last, colour, None)
    return contexts[colour]


def _side_context(square_map, last: Optional[Move], colour: Colour, slides) -> _Context:
    """One side's legality context over a square map, after `last`, with
    the slider memo `slides`: one _king_context call, and _en_passant_targets
    only after a pawn's move (tuple.__new__ skips the named tuple's own)."""
    passant = _NO_PASSANT if last is None or last.from_.type is not PAWN else _en_passant_targets(last, colour)
    return tuple.__new__(_Context, (
        *square_map, colour, *_king_context(square_map[1], colour), {}, passant, slides,
    ))


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
        moves = _legal_for_piece(context, 1 << s)[s]
    return moves


def _moves_onto(context, kind: PieceType, t: int) -> list[Move]:
    """The legal moves of the context's side's pieces of one type onto
    square index t: one walk with the target mask 1 << t over those of them
    whose reach on an empty board holds t (for a pawn, t's file and the
    squares it captures onto t from; the king always, for castling).  The
    walk keeps nothing on the context, whose lists stay whole."""
    colour = context.colour
    if kind is PAWN:
        reach = _STEPS[t][_PAWN_FIELD[colour]] | _A_FILE << (t & 7)
    elif kind is KNIGHT:
        reach = _STEPS[t][0]
    else:
        reach = FULL if kind is KING else _SLIDES[t][_SLIDE_FIELD[kind]][0]
    pieces = context.boards[_SLOT[colour, kind]] & reach
    return [m for moves in _legal_for_piece(context, pieces, False, 1 << t).values() for m in moves]


def _side_moves(context) -> Iterator[Move]:
    """Every legal move of the context's side: one walk over its pieces not
    yet kept by square, then every kept list, chained; both read a snapshot
    of the kept lists, which other threads may add to."""
    moves = context.moves
    _legal_for_piece(context, ~_mask(tuple(moves)))
    return chain.from_iterable(list(moves.values()))


def stateful_impossible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """The candidate moves the rules forbid: any move that leaves the
    mover's own king in check, and any pawn move onto the last rank that
    keeps the pawn a pawn (promotion is mandatory)."""
    context, s = _held(board, piece)
    slot, targets = piece._slot, _targets(piece.type, piece.colour, s, context.occupied, context.us)
    simple = frozenset(map(_MOVES[slot << 10 | slot << 6 | s].__getitem__, _squares(targets)))
    candidates = simple | stateful_possible_moves(board, piece)
    return candidates.difference(_piece_moves(context, s))


def possible_moves(board: Board, piece: Piece) -> frozenset[Move]:
    """Every legal move for one piece: its simple moves lifted to Move
    values, plus its special moves, minus the impossible ones."""
    return frozenset(_piece_moves(*_held(board, piece)))


# Per colour, the pawn's shifts as (left, right) shift pairs, x << left >> right:
# the push, the capture towards the a-file and towards the h-file; then the
# rank a single push must reach for a double push, and the last rank.
_PAWN_SHIFTS = {
    Colour.WHITE: ((8, 0), (7, 0), (9, 0), 0xFF << 16, 0xFF << 56),
    Colour.BLACK: ((0, 8), (0, 9), (0, 7), 0xFF << 40, 0xFF),
}
# Per colour, the slots of its knights, sliders and king, each with its
# _SLIDES field, or for the knights and the king its type; and the castling
# rights it may hold.
_WALKED = {c: tuple((_SLOT[c, k], _SLIDE_FIELD.get(k, k)) for k in _KINDS[1:]) for c in Colour}
_SIDE_RIGHTS = {side: sum(bit for bit, *_ in wings.values()) for (side, _), wings in _CASTLINGS.items()}


def _legal_for_piece(context, wanted: int, count: bool = False, onto: int = FULL):
    """The legal moves of the side's pieces on the squares of the `wanted`
    mask onto the squares of the `onto` mask, by square index, or with
    `count` only their number (a promotion target counts four).  The lists
    go into the dict it returns: with `onto` FULL the context's, which keeps
    them, and otherwise one of the walk's own, so kept lists stay whole.

    One walk computes a target mask per piece from the bitboards, a slot
    at a time: a knight its steps and a slider its attacks (_slide, through
    perft's memo when the context has one), both less the side's own
    squares and, in check, on an evasion square; the king its steps less
    the side's own squares, each probed with the king lifted
    (_square_attacked), plus its castling destinations (_castling_moves,
    asked only while the side holds a right).  Every mask is cut to the
    piece's pin line and to `onto` (the king's before it probes a step or
    keeps a castling); the count adds up their bit_count(), the lists lift
    their set bits through the piece's move row (_MOVES under its slot,
    moving and arriving).  The unpinned pawns' targets are found in bulk,
    by shifts with file masks, and each pinned pawn's alone on its pin
    line.  En passant, which also removes the captured pawn, is probed for
    each pawn in the window's beside mask on the square map the applier's
    patch leaves (_changes, _child_map), when `onto` holds the skipped
    square.  Without a king nothing is probed and no castling listed."""
    (occ, boards, rights, colour, us, occupied, attackers, king, _, pins, evasions, moves,
     passant, slides) = context
    own, not_ours = _SIDE[colour], ~us
    allowed = evasions & not_ours
    if onto != FULL:  # cut to `onto`, into lists of the walk's own
        moves, not_ours, allowed = {}, not_ours & onto, allowed & onto
    total = 0
    pawns = boards[own] & wanted
    for slot, part in _WALKED[colour] if us & wanted ^ pawns else ():
        pieces = boards[slot] & wanted
        while pieces:
            s = pieces.bit_length() - 1
            pieces ^= 1 << s
            if part is KNIGHT:
                targets = _STEPS[s][0] & allowed
            elif part is KING:
                targets = _STEPS[s][1] & not_ours
                if king is not None:
                    probed, steps = occupied ^ 1 << s, targets
                    while steps:
                        t = steps.bit_length() - 1
                        steps ^= 1 << t
                        if _square_attacked(attackers, probed, t):
                            targets ^= 1 << t
                    if rights & _SIDE_RIGHTS[colour]:
                        targets |= _castling_moves(context) & onto
            else:
                reach, lines, key = _SLIDES[s][part]
                targets = _slide(lines, occupied) if slides is None else slides[occupied & reach | key]
                targets &= allowed
            if s in pins:  # a pinned knight's steps never land on its line; a king is never pinned
                targets &= pins[s]
            if count:
                total += targets.bit_count()
                continue
            kept, row = [], _MOVES[slot << 10 | slot << 6 | s]
            while targets:
                t = targets.bit_length() - 1
                targets ^= 1 << t
                kept.append(row[t])
            moves[s] = kept
    if pawns:
        lists = {} if count else {s: [] for s in _squares(pawns)}
        groups = [(pawns, allowed)]
        if pins:
            groups = [(pawns & ~_mask(pins), allowed)]
            groups += [(1 << s, allowed & line) for s, line in pins.items() if pawns >> s & 1]
        (pl, pr), (al, ar), (hl, hr), double, last = _PAWN_SHIFTS[colour]
        them, empty, row_key = occupied ^ us, ~occupied, own << 10 | own << 6
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
                    if 1 << t & last:  # to a queen, rook, bishop and knight
                        lists[s] += [_MOVES[own << 10 | own + j << 6 | s][t] for j in (4, 3, 2, 1)]
                    else:
                        lists[s].append(_MOVES[row_key | s][t])
        beside, skipped = passant
        if pawns & beside and onto >> skipped & 1:
            for s in _squares(pawns & beside):
                capture = _MOVES[row_key | s][skipped]
                after = _child_map((occ, boards, rights), capture, _changes(occ, capture))[1]
                if king is None or not _king_context(after, colour)[4]:
                    total += 1
                    if not count:
                        lists[s].append(capture)
        moves.update(lists)
    return total if count else moves


def legal_moves(board: Board, colour: Colour) -> frozenset[Move]:
    """Every legal move for one side; the union of possible_moves over its
    pieces."""
    return frozenset(_side_moves(_context(board, colour)))


def has_legal_move(board: Board, colour: Colour) -> bool:
    """Whether the side has any legal move, asked of the opponent after every
    played move.  Out of check an unpinned pawn's push onto an empty square
    cannot expose its king: that one mask answers first.  Otherwise one count
    walk over all but the king, then the king's (steps and castling)."""
    context, (pl, pr) = _context(board, colour), _PAWN_SHIFTS[colour][0]
    pawns = context.boards[_SIDE[colour]] & ~_mask(context.pins)
    if not context.checked and pawns << pl >> pr & FULL & ~context.occupied:
        return True
    kings = context.boards[_SIDE[colour] + 5]
    return bool(_legal_for_piece(context, FULL ^ kings, True) or _legal_for_piece(context, kings, True))


# --- move application -------------------------------------------------------


def iss_castling(board: Board, mov: Move) -> bool:
    """Whether a (legal) move is a castling: one whose changes beyond its
    own two squares (_changes) are its rook's two.  Any other king jump, a
    two-file one included, is an ordinary move."""
    return len(_changes(_context(board, mov.from_.colour).occ, mov)) == 2


def iss_en_passant(board: Board, mov: Move) -> bool:
    """Whether a (legal) move is an en-passant capture: one whose only
    change beyond its own two squares (_changes) is a victim taken."""
    return len(_changes(_context(board, mov.from_.colour).occ, mov)) == 1


def move(board: Board, mov: Move) -> Board:
    """Apply a move, first checking it against possible_moves.

    This is the engine's single legality gate; illegal moves raise
    IllegalMoveError.  The input board is untouched.  The mover is looked
    up on its side's context's occupancy, not hashed into the piece set.
    """
    context, s = _held(board, mov.from_)
    if mov not in _piece_moves(context, s):
        raise IllegalMoveError(f"illegal move: {mov}")
    return _apply(board, mov)


def _apply(board: Board, mov: Move) -> Board:
    """The board after an already-validated move, built without Board's
    constructor: a move on a valid board cannot break its checks.  It
    holds the history and the parent's square map patched by the one
    _changes result (_child_map); its piece set is left out, for Board to
    derive from the occupancy on first read."""
    square_map = board._contexts[None]
    child = _child_map(square_map, mov, _changes(square_map[0], mov))
    after = object.__new__(Board)
    object.__setattr__(after, "history", (mov,) + board.history)
    object.__setattr__(after, "_contexts", {None: child})
    return after


def move_other(board: Board, mov: Move) -> Board:
    """An ordinary move: drop whatever sat on the target square and the
    moving piece, then add the arriving piece.  Promotion needs no special
    handling because the arriving piece already carries its new type."""
    if _changes(_held(board, mov.from_)[0].occ, mov):
        raise IllegalMoveError(f"not an ordinary move: {mov}")
    return _apply(board, mov)


def move_castling(board: Board, mov: Move) -> Board:
    """Castling (_CASTLINGS): the king leaves its home square, and its own
    rook leaves the wing's corner for the square the king crossed."""
    occ = _held(board, mov.from_)[0].occ
    changes = _changes(occ, mov)
    rook = occ[changes[0][0]] if len(changes) == 2 else None
    if rook is None or rook.type is not ROOK or rook.colour is not mov.from_.colour:
        raise IllegalMoveError(f"not a castling with its rook on the corner: {mov}")
    return _apply(board, mov)


def move_en_passant(board: Board, mov: Move) -> Board:
    """En passant: the pawn moves diagonally while the captured enemy pawn
    disappears from the square beside it."""
    occ = _held(board, mov.from_)[0].occ
    changes = _changes(occ, mov)
    victim = occ[changes[0][0]] if len(changes) == 1 else None
    if victim is None or victim.type is not PAWN or victim.colour is mov.from_.colour:
        raise IllegalMoveError(f"not an en-passant capture of an enemy pawn: {mov}")
    return _apply(board, mov)


def _changes(occ: Occupancy, mov: Move) -> tuple:
    """The (square index, new holder or None) changes a move makes beyond
    its own two squares (the square indices its pieces carry, _s), read
    against the occupancy before it: castling's rook (a king move from its
    (colour, home) onto a wing's destination in _CASTLINGS) and en passant's
    victim (a pawn changing file, (f ^ t) & 7, onto an empty square; its
    square is worked out only here).  It is the only move-kind dispatch:
    the applier, perft, iss_castling, iss_en_passant and the en-passant
    probe all read it."""
    mover = mov.from_
    f, t, kind = mover._s, mov.to_._s, mover.type
    if kind is KING:
        wing = _CASTLINGS.get((mover.colour, f), {}).get(t)
        if wing is not None:
            _, corner, _, crossed = wing
            return (corner, None), (crossed, _ROWS[ROOK, mover.colour][crossed])
    elif kind is PAWN and (f ^ t) & 7 and occ[t] is None:
        return ((t & 7 | f & 56, None),)  # the target's file on the origin's rank
    return ()


def _child_map(square_map, mov: Move, changes: tuple):
    """The square map after a move: the occupancy with the mover moved and
    `changes` made, the bitboards patched by XOR at the same squares in the
    slots their pieces carry (_slot, _s: no table lookup), and the castling
    rights less those of the move's two squares."""
    occ, boards, rights = square_map
    occ, boards = occ.copy(), boards.copy()
    mover, arrival = mov.from_, mov.to_
    f, t = mover._s, arrival._s
    dead = occ[t]
    if dead is not None:
        boards[dead._slot] ^= 1 << t
    boards[mover._slot] ^= 1 << f
    boards[arrival._slot] ^= 1 << t
    occ[f], occ[t] = None, arrival
    for s, holder in changes:
        gone = occ[s]
        if gone is not None:
            boards[gone._slot] ^= 1 << s
        if holder is not None:
            boards[holder._slot] ^= 1 << s
        occ[s] = holder
    return occ, boards, rights & _RIGHTS_KEPT[f] & _RIGHTS_KEPT[t]


# --- verification oracle ----------------------------------------------------


def perft(board: Board, to_move: Colour, depth: int, jobs: int = 1) -> int:
    """Count the legal move sequences of exactly `depth` plies.

    The standard move-generator correctness oracle: from depth 1 on, the
    sum of _divide's counts, which recurse on square maps (_perft), build
    no Board below the root, count the last ply without lifting it to
    Move values and count a position met again at the same depth once.
    With jobs > 1 the root moves' subtrees run in separate processes; a
    sum does not depend on evaluation order.
    """
    if depth < 0:
        raise ValueError("perft depth must be non-negative")
    if depth == 0:
        return 1
    return sum(count for _, count in _divide(board, to_move, depth, jobs))


def _zobrist(slot) -> tuple:
    """A row of perft's Zobrist numbers, 64 random 128-bit ints from a seed
    fixed by the row's (colour, type) slot, so that every process draws the
    same: its pieces' by square index."""
    rng = random.Random(f"chessval zobrist {slot}")
    return tuple(rng.getrandbits(128) for _ in range(64))


# Perft's Zobrist numbers, a row per (colour, type), built on first use: an
# import builds none.
_ZOBRIST = _Table(_zobrist)
# Perft's key holds the pieces' numbers XORed in its low 128 bits, the
# castling-rights mask in bits 128-131 and in bits 132-137 the square an
# en-passant capture lands on, set only while a pawn of the side to move
# stands beside the pawn that double-pushed (never square 0, so 0 is none).
# Keys meet only inside one perft call and every update is an XOR, so the
# root's key is 0: each is this key XOR the root's with its en-passant field
# clear.
_LESS_PASSANT = (1 << 132) - 1


def _move_key(mov: Move) -> tuple:
    """An entry of _MOVE_KEYS, what a move does to the key wherever it is
    played: (the mover's number on its square XOR the arriving piece's on
    its target, the target's square index, the castling rights it keeps,
    the enemy pawns' slot, and the en-passant window it opens for them
    (_en_passant_targets): the beside mask, and the skipped square in the
    en-passant field; 0 and 0 for none)."""
    mover, arrival = mov.from_, mov.to_
    f, t = mover._s, arrival._s
    moved = _ZOBRIST[mover.colour, mover.type][f] ^ _ZOBRIST[arrival.colour, arrival.type][t]
    enemy = opposite_colour(mover.colour)
    beside, skipped = _en_passant_targets(mov, enemy)
    return moved, t, _RIGHTS_KEPT[f] & _RIGHTS_KEPT[t], _SIDE[enemy], beside, skipped << 132


# Per interned move, its _move_key entry, made on first use: an import
# builds none.
_MOVE_KEYS = _Table(_move_key)


def _child_key(key: int, square_map, mov: Move, changes: tuple) -> int:
    """The full key after a move, from the key before it with its
    en-passant field clear: XORed at the squares _child_map patches and at
    the rights the move ends, and with the skipped square in the en-passant
    field when the move is a double push that lands beside an enemy pawn.
    Every key is made so, from the root's, which is 0."""
    occ, boards, rights = square_map
    moved, t, kept, enemy, beside, passant = _MOVE_KEYS[mov]
    key ^= moved
    dead = occ[t]
    if dead is not None:
        key ^= _ZOBRIST[dead.colour, dead.type][t]
    for s, holder in changes:
        gone = occ[s]
        if gone is not None:
            key ^= _ZOBRIST[gone.colour, gone.type][s]
        if holder is not None:
            key ^= _ZOBRIST[holder.colour, holder.type][s]
    if rights & kept != rights:
        key ^= (rights & ~kept) << 128
    if boards[enemy] & beside:
        key ^= passant
    return key


def _leaves(square_map, last: Optional[Move], colour: Colour, slides) -> int:
    """perft(1) of a square map's position after move `last` with `colour`
    to move and the slider memo `slides`: one count walk on its side's
    context.  A leaf-parent counts each child so, as do _divide's tasks."""
    return _legal_for_piece(_side_context(square_map, last, colour, slides), FULL, True)


def _perft(square_map, last: Optional[Move], colour: Colour, depth: int, key: int, tables) -> int:
    """perft(depth >= 1) of a square map's position after move `last` (None
    before the first) with `colour` to move and full key `key`
    (_child_key), through perft's tables (_divide).  A depth-1 node only
    counts, and a depth-2 node counts each child itself (_leaves) in its
    loop, with no frame of the child's own.  A child whose depth has a
    count table is looked up there under its key, and its count kept
    there.  A tree with no count table keeps no keys: `key` stays 0."""
    slides, counts = tables
    if depth == 1:
        return _leaves(square_map, last, colour, slides)
    context = _side_context(square_map, last, colour, slides)
    occ, enemy, total = context.occ, opposite_colour(colour), 0
    if counts:
        key &= _LESS_PASSANT
    table = counts.get(depth - 1)
    for m in _side_moves(context):
        changes = _changes(occ, m)
        child = _child_key(key, square_map, m, changes) if counts else key
        count = None if table is None else table.get(child)
        if count is None:
            after = _child_map(square_map, m, changes)
            if depth == 2:
                count = _leaves(after, m, enemy, slides)
            else:
                count = _perft(after, m, enemy, depth - 1, child, tables)
            if table is not None:
                table[child] = count
        total += count
    return total


def _divide(board: Board, to_move: Colour, depth: int, jobs: int = 1) -> list:
    """(move, perft count of depth - 1 after it) for each legal move (depth
    >= 1): _perft on each root move's child square map and key, which with
    jobs > 1 a pool of that many processes receives.  perft's tables live
    for one call, one pair per process (a pool pickles them empty with its
    tasks): the slider memo (_memo_slide) and a count table (key -> count)
    per depth whose positions are looked up, those from the root's ply 3
    on; the first two plies cannot meet a position twice.  The root's key
    is 0, so each child's is _child_key from 0."""
    context = _context(board, to_move)
    occ, square_map, enemy = context.occ, board._contexts[None], opposite_colour(to_move)
    moves = list(_side_moves(context))
    if depth == 1:
        return [(m, 1) for m in moves]
    counts = {d: {} for d in range(1, depth - 2)}
    tables, tasks = (_Table(_memo_slide), counts), []
    for m in moves:
        changes = _changes(occ, m)
        child = _child_key(0, square_map, m, changes) if counts else 0
        tasks.append((_child_map(square_map, m, changes), m, enemy, depth - 1, child, tables))
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
