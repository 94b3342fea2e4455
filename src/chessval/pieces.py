"""Colours, piece types, board coordinates and basic movement patterns.

Everything here is purely geometric: given a piece and the squares other
pieces occupy (the obstacles), compute the squares it could step to.  The
movement loops work on square indices, (x - 1) + 8 * (y - 1) (square_at
and square_index; SQUARES maps them back), over a 64-slot occupancy
whose slots hold anything with a colour (a Piece or an Obstacle).  The
knight targets and per direction each square's distance to the edge
(the rays) are built at import; from them, per-kind target tables are
filled on first use, which moves_with_colours walks over the occupancy,
and the board module builds its legality masks.  Moves that need game
history (castling, en passant, the double push, promotion) live in the
board module.
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
_SLIDER_RAYS = {
    PieceType.ROOK: RAYS[:4], PieceType.BISHOP: RAYS[4:], PieceType.QUEEN: RAYS
}
# Per colour, the two diagonal rays a pawn captures along.
PAWN_CAPTURE_RAYS = {
    colour: tuple(ray for (dx, dy), ray in zip(ALL_DIRECTIONS, RAYS) if dx and dy == forward)
    for colour, forward in ((Colour.WHITE, 1), (Colour.BLACK, -1))
}


class _Table(dict):
    """Entries by piece type, colour, square index or occupancy, each
    built by `build(key)` on first use and kept: an import builds none."""

    __slots__ = ("build",)

    def __init__(self, build) -> None:
        self.build = build

    def __missing__(self, key):
        return self.setdefault(key, self.build(key))


def _pawn_paths(colour: Colour) -> tuple:
    """Per square, a pawn's (push path, capture targets): the push path is
    the square ahead, then from the initial rank the double push's target."""
    step, edge = RAYS[0] if colour is Colour.WHITE else RAYS[1]
    start = 1 if colour is Colour.WHITE else 6  # the initial rank, counted from 0
    entries = []
    for s in range(64):
        pushes = [s + step] if edge[s] else []
        if s // 8 == start:
            pushes.append(s + 2 * step)
        captures = bytes(s + c for c, c_edge in PAWN_CAPTURE_RAYS[colour] if c_edge[s])
        entries.append((bytes(pushes), captures))
    return tuple(entries)


# Per colour, the pawn's entry on each square.
PAWN_PATHS = _Table(_pawn_paths)
# Per type (knight, king), the squares each square steps to.
STEP_TARGETS = _Table(
    lambda kind: KNIGHT_TARGETS if kind is PieceType.KNIGHT
    else tuple(bytes(s + step for step, edge in RAYS if edge[s]) for s in range(64))
)
# Per slider type, each square's non-empty rays as the squares along them,
# nearest first.
SLIDER_PATHS = _Table(
    lambda kind: tuple(
        tuple(
            bytes(range(s + step, s + step * (edge[s] + 1), step))
            for step, edge in _SLIDER_RAYS[kind]
            if edge[s]
        )
        for s in range(64)
    )
)


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
    """type_based_moves as square indices, against a 64-slot occupancy; a
    holder's colour tells a capture from a blocked square.  The board's
    move generator works on bitboards built from the same rays; this is the
    geometry of the obstacle API and the reference that generator is
    tested against."""
    s = p.square.x + 8 * p.square.y - 9
    colour = p.colour
    kind = p.type
    if kind is PieceType.PAWN:
        pushes, captures = PAWN_PATHS[colour][s]
        moves = [pushes[0]] if pushes and occ[pushes[0]] is None else []
        return moves + [t for t in captures if occ[t] is not None and occ[t].colour is not colour]
    if kind is PieceType.KNIGHT or kind is PieceType.KING:
        return [t for t in STEP_TARGETS[kind][s] if occ[t] is None or occ[t].colour is not colour]
    moves = []
    for ray in SLIDER_PATHS[kind][s]:
        for t in ray:
            holder = occ[t]
            if holder is not None:
                if holder.colour is not colour:
                    moves.append(t)
                break
            moves.append(t)
    return moves
