"""Colours, piece types, board coordinates and basic movement patterns.

Everything here is purely geometric: given a piece and the squares other
pieces occupy (the obstacles), compute the squares it could step to.
Squares are indexed (x - 1) + 8 * (y - 1) (square_at and square_index;
SQUARES maps them back), a 64-slot occupancy holds anything with a colour
(a Piece or an Obstacle), and a mask is an int with one bit per square
index.  The knight targets and per direction each square's distance to
the edge (the rays) are built at import.  From them this module fills, per
square on first use, the one movement geometry: the step masks, the
squares between two squares and the sliders' lines.  moves_with_colours
reads them for the obstacle API, and the board module's attack probe and
legal-move walk for the rules.  Moves that need game history (castling,
en passant, the double push, promotion) live in the board module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional


class Colour(Enum):
    WHITE = "white"
    BLACK = "black"

    __hash__ = object.__hash__  # members compare by identity; Enum's hash is slow


class PieceType(Enum):
    PAWN = "pawn"
    ROOK = "rook"
    KNIGHT = "knight"
    BISHOP = "bishop"
    QUEEN = "queen"
    KING = "king"

    __hash__ = object.__hash__  # as for Colour


def opposite_colour(c: Colour) -> Colour:
    """The other player's colour."""
    return Colour.BLACK if c is Colour.WHITE else Colour.WHITE


@dataclass(frozen=True)
class Coordinate:
    """A board square; file x and rank y both run 1-8."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if not (1 <= self.x <= 8 and 1 <= self.y <= 8):
            raise ValueError(f"coordinate off the board: ({self.x}, {self.y})")


# All 64 squares interned up front, indexed (x - 1) + 8 * (y - 1).
SQUARES: tuple[Coordinate, ...] = tuple(
    Coordinate(i % 8 + 1, i // 8 + 1) for i in range(64)
)


def square_at(x: int, y: int) -> int:
    """The slot of square (x, y) in a 64-slot occupancy: (x - 1) + 8 * (y - 1)."""
    return x + 8 * y - 9


def square_index(square: Coordinate) -> int:
    """The slot of a square in a 64-slot occupancy."""
    return square_at(square.x, square.y)


_ON_BOARD = range(1, 9)


def coordinate_factory(x: int, y: int) -> Optional[Coordinate]:
    """The square (x, y), or None unless both are whole numbers in 1-8."""
    if x in _ON_BOARD and y in _ON_BOARD:
        return SQUARES[square_at(int(x), int(y))]
    return None


@dataclass(frozen=True)
class Piece:
    type: PieceType
    square: Coordinate
    colour: Colour


_ROWS: dict[PieceType, dict[Colour, tuple[Piece, ...]]] = {}


def piece_row(kind: PieceType, colour: Colour) -> tuple[Piece, ...]:
    """The Pieces of one type and colour on every square, indexed like
    SQUARES; built for both colours on first use and kept."""
    rows = _ROWS.get(kind)
    if rows is None:
        rows = _ROWS[kind] = {
            c: tuple(Piece(kind, s, c) for s in SQUARES) for c in Colour
        }
    return rows[colour]


@dataclass(frozen=True)
class Obstacle:
    """What a moving piece needs to know about another piece: the square it
    holds and whether it is capturable (its colour)."""

    square: Coordinate
    colour: Colour


ObstacleSet = frozenset[Obstacle]

Direction = tuple[int, int]

KNIGHT_OFFSETS: tuple[Direction, ...] = (
    (1, 2), (-1, 2), (1, -2), (-1, -2), (2, 1), (-2, 1), (2, -1), (-2, -1),
)
ORTHOGONAL_DIRECTIONS: tuple[Direction, ...] = ((0, 1), (0, -1), (1, 0), (-1, 0))
DIAGONAL_DIRECTIONS: tuple[Direction, ...] = ((1, 1), (-1, -1), (-1, 1), (1, -1))
ALL_DIRECTIONS: tuple[Direction, ...] = ORTHOGONAL_DIRECTIONS + DIAGONAL_DIRECTIONS


def pieces_to_obstacles(pieces: Iterable[Piece]) -> ObstacleSet:
    """Project pieces down to the square/colour pairs movement cares about."""
    return frozenset(Obstacle(p.square, p.colour) for p in pieces)


# A 64-slot occupancy indexed like SQUARES; a slot holds None or anything
# with a colour (a Piece or an Obstacle).
Occupancy = list


def _occupancy(holders: Iterable[Piece | Obstacle]) -> Occupancy:
    occ = [None] * 64
    for h in holders:
        occ[h.square.x + 8 * h.square.y - 9] = h
    return occ


# Per square, the squares a knight jumps to.
KNIGHT_TARGETS: tuple[bytes, ...] = tuple(
    bytes([
        x + dx + 8 * (y + dy)
        for dx, dy in KNIGHT_OFFSETS
        if 0 <= x + dx < 8 and 0 <= y + dy < 8
    ])
    for y in range(8)
    for x in range(8)
)

# One (index step, steps to the edge per square) pair per direction of
# ALL_DIRECTIONS, orthogonal first: the ray from s runs over
# range(s + step, s + step * (edge[s] + 1), step), and s + step is on the
# board when edge[s] is not 0.
RAYS: tuple[tuple[int, bytes], ...] = tuple(
    (
        dx + 8 * dy,
        bytes([
            min(7 - x if dx > 0 else x if dx else 7,
                7 - y if dy > 0 else y if dy else 7)
            for y in range(8)
            for x in range(8)
        ]),
    )
    for dx, dy in ALL_DIRECTIONS
)
# Per colour, the two diagonal rays a pawn captures along.
PAWN_CAPTURE_RAYS = {
    colour: tuple(ray for (dx, dy), ray in zip(ALL_DIRECTIONS, RAYS) if dx and dy == forward)
    for colour, forward in ((Colour.WHITE, 1), (Colour.BLACK, -1))
}


class _Table(dict):
    """Masks by square index (or, for perft's slider memo, attacks by
    occupancy key), each built by `build(key)` on first use and kept: an
    import builds none."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, key):
        return self.setdefault(key, self.build(key))


# --- bitboards ---------------------------------------------------------------
#
# A bitboard (a mask) is an int whose bit s stands for square index s
# (a1 = bit 0, h8 = bit 63).

FULL = (1 << 64) - 1
_A_FILE = FULL // 255
_NOT_A_FILE = _A_FILE * 254  # every square but the a-file's
_NOT_H_FILE = _A_FILE * 127


def _mask(squares) -> int:
    m = 0
    for t in squares:
        m |= 1 << t
    return m


def _squares(mask: int) -> list[int]:
    """The square indices of a mask's set bits, lowest first."""
    squares = []
    while mask:
        low = mask & -mask
        squares.append(low.bit_length() - 1)
        mask ^= low
    return squares


def _slide(lines: tuple, occupied: int) -> int:
    """A slider's attacks along its lines, each a (line, part below the
    square, part above) triple, the first blocker each way included: the
    classical approach, where the nearest blocker below is the highest set
    bit and the nearest above the lowest (b & -b)."""
    attacks = 0
    for line, lower, upper in lines:
        below, above = lower & occupied | 1, upper & occupied  # bit 0 stops an empty side
        attacks |= line & ((above & -above) * 2 - (1 << below.bit_length() - 1))
    return attacks


def _rays(s: int) -> list[int]:
    """Square index s's rays as masks, in the order of RAYS."""
    return [_mask(range(s + step, s + step * (edge[s] + 1), step)) for step, edge in RAYS]


def _steps(s: int) -> tuple:
    """Square index s's step masks, in this order: the squares a knight and
    a king step to from s; the squares a white and a black pawn attack s
    from; a rook's and a bishop's reach from s on an empty board."""
    rays = _rays(s)
    return (
        _mask(KNIGHT_TARGETS[s]), _mask(s + step for step, edge in RAYS if edge[s]),
        *(  # a white pawn attacks s from where a black pawn on s would attack
            _mask(s + step for step, edge in PAWN_CAPTURE_RAYS[colour] if edge[s])
            for colour in (Colour.BLACK, Colour.WHITE)
        ),
        sum(rays[:4]), sum(rays[4:]),
    )


def _between(s: int) -> tuple:
    """Per square index t, the squares strictly between s and t; 0 for a t
    off s's lines."""
    between = [0] * 64
    for step, edge in RAYS:
        for n in range(1, edge[s] + 1):
            between[s + n * step] = _mask(range(s + step, s + n * step, step))
    return tuple(between)


def _slides(s: int) -> tuple:
    """A rook's, a bishop's and a queen's slides from square index s, each
    (its reach on an empty board, its lines as _slide reads them, its key in
    perft's slider memo above the occupancy bits, (s << 2 | field) << 64)."""
    rays = _rays(s)
    lines = [(up | down, down, up) for up, down in zip(rays[::2], rays[1::2])]  # upward rays first
    return tuple(
        (sum(line for line, _, _ in part), part, (s << 2 | field) << 64)
        for field, part in enumerate((lines[:2], lines[2:], lines))
    )


# Per square index, filled on first use, so an import builds none: the step
# masks (_steps), the squares between (_between) and the sliders' lines
# (_slides).  The board's hot loops read their fields by index.
_STEPS = _Table(_steps)
_BETWEEN = _Table(_between)
_SLIDES = _Table(_slides)
# Per attacking colour, the _STEPS field of the squares its pawns attack from;
# per slider type, the _SLIDES field of its slides.
_PAWN_FIELD = {Colour.WHITE: 2, Colour.BLACK: 3}
_SLIDE_FIELD = {PieceType.ROOK: 0, PieceType.BISHOP: 1, PieceType.QUEEN: 2}


def possible_move_direction(
    p: Piece, obstacles: ObstacleSet, direction: Direction
) -> Optional[Coordinate]:
    """The single square one step from p along `direction`.

    None when the step leaves the board or lands on a friendly piece; an
    enemy-held square is returned, since stepping there is a capture.
    """
    target = coordinate_factory(p.square.x + direction[0], p.square.y + direction[1])
    if any(o.square == target and o.colour is p.colour for o in obstacles):
        return None
    return target


def possible_moves_direction(
    p: Piece, obstacles: ObstacleSet, direction: Direction
) -> frozenset[Coordinate]:
    """Every square along the ray from p in `direction`.

    The ray stops at the board edge, in front of a friendly piece, or on
    the first enemy piece (a capture square ends the ray and is included).
    At most seven steps are taken, the longest line on an 8x8 board.
    """
    if direction == (0, 0):
        raise ValueError("ray direction must be non-zero")
    holders = {o.square: o.colour for o in obstacles}
    out = []
    x, y = p.square.x, p.square.y
    for _ in range(7):
        x, y = x + direction[0], y + direction[1]
        square = coordinate_factory(x, y)
        if square is None:
            break
        if square in holders:
            if holders[square] is not p.colour:
                out.append(square)
            break
        out.append(square)
    return frozenset(out)


def type_based_moves(p: Piece, obstacles: ObstacleSet) -> frozenset[Coordinate]:
    """All squares p may reach by its basic movement pattern.

    Knights and kings step to fixed offsets, sliders walk rays, and a pawn
    steps forward onto an empty square but captures diagonally.  Special
    moves are not produced here.
    """
    return frozenset(SQUARES[s] for s in moves_with_colours(p, _occupancy(obstacles)))


def moves_with_colours(p: Piece, occ: Occupancy) -> list[int]:
    """type_based_moves as square indices, lowest first, against a 64-slot
    occupancy; a holder's colour tells a capture from a blocked square.
    The occupancy is read into masks, and the targets come from the same
    per-square masks the board's move generator reads."""
    s = p.square.x + 8 * p.square.y - 9
    colour, kind = p.colour, p.type
    occupied = own = 0
    for t, holder in enumerate(occ):
        if holder is not None:
            occupied |= 1 << t
            if holder.colour is colour:
                own |= 1 << t
    if kind is PieceType.PAWN:
        ahead = 1 << s + 8 & FULL if colour is Colour.WHITE else 1 << s >> 8
        # a pawn on s captures onto the squares enemy pawns attack s from
        captures = _STEPS[s][_PAWN_FIELD[opposite_colour(colour)]] & occupied & ~own
        return _squares(ahead & ~occupied | captures)
    if kind is PieceType.KNIGHT or kind is PieceType.KING:
        targets = _STEPS[s][0 if kind is PieceType.KNIGHT else 1]
    else:
        targets = _slide(_SLIDES[s][_SLIDE_FIELD[kind]][1], occupied)
    return _squares(targets & ~own)
