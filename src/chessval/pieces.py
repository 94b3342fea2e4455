"""Colours, piece types, board coordinates and basic movement patterns.

Everything here is purely geometric: given a piece and the squares other
pieces occupy (the obstacles), compute the squares it could step to.
Squares are indexed (x - 1) + 8 * (y - 1) (square_at and square_index;
SQUARES maps them back), a 64-slot occupancy holds anything with a colour
(a Piece or an Obstacle), and a mask is an int with one bit per square
index.  One walker steps from a square along a direction to the board's
edge; from its walks this module fills, per square on first use, the one
movement geometry: the step masks, the squares between two squares and
the sliders' lines.  moves_with_colours reads them for the obstacle API,
and the board module's attack probe and legal-move walk for the rules.
Moves that need game history (castling, en passant, the double push,
promotion) live in the board module, which reads its pieces from _ROWS,
one interned Piece per type, colour and square.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """A board square; file x and rank y are both whole numbers in 1-8."""

    x: int
    y: int

    def __post_init__(self) -> None:
        x, y = self.x, self.y
        if not (isinstance(x, int) and isinstance(y, int) and 1 <= x <= 8 and 1 <= y <= 8):
            raise ValueError(f"coordinate off the board: ({x}, {y})")


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


# The bitboard slot of each (colour, type), 0-11: white's six, then black's, in _KINDS order.
_KINDS = (PieceType.PAWN, PieceType.KNIGHT, PieceType.BISHOP, PieceType.ROOK, PieceType.QUEEN, PieceType.KING)
_SLOT = {(c, k): 6 * i + j for i, c in enumerate(Colour) for j, k in enumerate(_KINDS)}


@dataclass(frozen=True)
class Piece:
    """A piece of one type and colour on one square.  Its hash, its
    bitboard slot (_slot, _SLOT[colour, type]) and its square index (_s)
    are worked out once, when built, for the board's hot loops to read;
    _ROWS interns one Piece per (type, colour, square)."""

    type: PieceType
    square: Coordinate
    colour: Colour
    _hash: int = field(init=False, compare=False, repr=False)
    _slot: int = field(init=False, compare=False, repr=False)
    _s: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.type, self.square, self.colour)))
        object.__setattr__(self, "_slot", _SLOT[self.colour, self.type])
        object.__setattr__(self, "_s", self.square.x + 8 * self.square.y - 9)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # as Move's: the hash holds only in this process
        return Piece, (self.type, self.square, self.colour)


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
    """The occupancy of a set of holders; two on one square raise ValueError."""
    occ = [None] * 64
    for h in holders:
        s = h.square.x + 8 * h.square.y - 9
        if occ[s] is not None:
            raise ValueError(f"two pieces share a square: {h.square}")
        occ[s] = h
    return occ


class _Table(dict):
    """The one lazily built table: entries by key (masks by square index,
    pieces by type and colour then square, the board's moves, perft's
    slider attacks by occupancy key, its Zobrist numbers and each move's
    part of the key), each built by `build(key)` on first use and kept: an
    import builds none."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, key):
        return self.setdefault(key, self.build(key))


# The interned Pieces: per (type, colour), the piece on each square index,
# built on first use.
_ROWS = _Table(lambda key: _Table(lambda s: Piece(key[0], SQUARES[s], key[1])))


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


def _walk(s: int, direction: Direction) -> list[int]:
    """The square indices from square index s along `direction` up to the
    board's edge, nearest first."""
    dx, dy = direction
    x, y, walk = s % 8 + dx, s // 8 + dy, []
    while 0 <= x < 8 and 0 <= y < 8:
        walk.append(x + 8 * y)
        x, y = x + dx, y + dy
    return walk


def _rays(s: int) -> list[int]:
    """Square index s's rays as masks, in the order of ALL_DIRECTIONS."""
    return [_mask(_walk(s, direction)) for direction in ALL_DIRECTIONS]


def _first_steps(s: int, directions: Iterable[Direction]) -> int:
    """The first square of each walk from square index s, as a mask."""
    return _mask(t for direction in directions for t in _walk(s, direction)[:1])


def _steps(s: int) -> tuple:
    """Square index s's step masks, in this order: the squares a knight and
    a king step to from s; the squares a white and a black pawn attack s
    from; a rook's and a bishop's reach from s on an empty board."""
    rays = _rays(s)
    return (
        _first_steps(s, KNIGHT_OFFSETS), _first_steps(s, ALL_DIRECTIONS),
        *(  # a white pawn attacks s from where a black pawn on s would attack
            _first_steps(s, [d for d in DIAGONAL_DIRECTIONS if d[1] == forward])
            for forward in (-1, 1)
        ),
        sum(rays[:4]), sum(rays[4:]),
    )


def _between(s: int) -> tuple:
    """Per square index t, the squares strictly between s and t; 0 for a t
    off s's lines."""
    between = [0] * 64
    for direction in ALL_DIRECTIONS:
        walk = _walk(s, direction)
        for n, t in enumerate(walk):
            between[t] = _mask(walk[:n])
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


def _ray(p: Piece, obstacles: ObstacleSet, direction: Direction) -> list[Coordinate]:
    """The squares along the ray from p in `direction`, nearest first, up
    to the board edge (_walk), a friendly piece (excluded) or the first
    enemy piece (a capture, included).  The direction (0, 0) and two
    obstacles on one square raise ValueError."""
    if direction == (0, 0):
        raise ValueError("ray direction must be non-zero")
    occ, ray = _occupancy(obstacles), []
    for t in _walk(square_index(p.square), direction):
        holder = occ[t]
        if holder is None or holder.colour is not p.colour:
            ray.append(SQUARES[t])
        if holder is not None:
            break
    return ray


def possible_move_direction(
    p: Piece, obstacles: ObstacleSet, direction: Direction
) -> Optional[Coordinate]:
    """The single square one step from p along `direction`: the ray's
    nearest square (_ray).  None when the step leaves the board or lands on
    a friendly piece; an enemy-held square is returned, since stepping
    there is a capture."""
    ray = _ray(p, obstacles, direction)
    return ray[0] if ray else None


def possible_moves_direction(
    p: Piece, obstacles: ObstacleSet, direction: Direction
) -> frozenset[Coordinate]:
    """Every square along the ray from p in `direction` (_ray)."""
    return frozenset(_ray(p, obstacles, direction))


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
    The occupancy is read into masks for _targets."""
    colour = p.colour
    occupied = own = 0
    for t, holder in enumerate(occ):
        if holder is not None:
            occupied |= 1 << t
            if holder.colour is colour:
                own |= 1 << t
    s = p.square.x + 8 * p.square.y - 9
    return _squares(_targets(p.type, colour, s, occupied, own))


def _targets(kind: PieceType, colour: Colour, s: int, occupied: int, own: int) -> int:
    """The basic movement pattern of a `kind` piece of `colour` on square
    index s as a mask, over the `occupied` mask and less the side's `own`
    squares, from the same per-square masks the board's move generator
    reads."""
    if kind is PieceType.PAWN:
        ahead = 1 << s + 8 & FULL if colour is Colour.WHITE else 1 << s >> 8
        # a pawn on s captures onto the squares enemy pawns attack s from
        captures = _STEPS[s][_PAWN_FIELD[opposite_colour(colour)]] & occupied & ~own
        return ahead & ~occupied | captures
    if kind is PieceType.KNIGHT or kind is PieceType.KING:
        targets = _STEPS[s][0 if kind is PieceType.KNIGHT else 1]
    else:
        targets = _slide(_SLIDES[s][_SLIDE_FIELD[kind]][1], occupied)
    return targets & ~own
