"""Colours, piece types, board coordinates and basic movement patterns.

Everything here is purely geometric: given a piece and the squares other
pieces occupy (the obstacles), compute the squares it could step to.  The
movement loops read one square -> holder map, where a holder is anything
with a colour (a Piece or an Obstacle); the board module passes the
occupancy both sides of a position share.  Moves that need game history
(castling, en passant, the double push, promotion) live in the board
module.
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


# All 64 squares interned up front so the movement loops never rebuild them.
_SQUARES: dict[tuple[int, int], Coordinate] = {
    (x, y): Coordinate(x, y) for x in range(1, 9) for y in range(1, 9)
}


def coordinate_factory(x: int, y: int) -> Optional[Coordinate]:
    """The square (x, y), or None when either value falls outside 1-8."""
    return _SQUARES.get((x, y))


@dataclass(frozen=True)
class Piece:
    type: PieceType
    square: Coordinate
    colour: Colour


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


Holders = dict[tuple[int, int], Piece | Obstacle]


def _holders(obstacles: Iterable[Obstacle]) -> Holders:
    return {(o.square.x, o.square.y): o for o in obstacles}


def possible_move_direction(
    p: Piece, obstacles: ObstacleSet, direction: Direction
) -> Optional[Coordinate]:
    """The single square one step from p along `direction`.

    None when the step leaves the board or lands on a friendly piece; an
    enemy-held square is returned, since stepping there is a capture.
    """
    return _step(p, _holders(obstacles), direction)


def _step(p: Piece, holders: Holders, direction: Direction) -> Optional[Coordinate]:
    target = _SQUARES.get((p.square.x + direction[0], p.square.y + direction[1]))
    if target is None:
        return None
    holder = holders.get((target.x, target.y))
    return None if holder is not None and holder.colour is p.colour else target


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
    return frozenset(_ray(p, _holders(obstacles), direction))


def _ray(p: Piece, holders: Holders, direction: Direction) -> list[Coordinate]:
    out = []
    x, y = p.square.x, p.square.y
    dx, dy = direction
    for _ in range(7):
        x += dx
        y += dy
        square = _SQUARES.get((x, y))
        if square is None:
            break
        holder = holders.get((x, y))
        if holder is not None:
            if holder.colour is not p.colour:
                out.append(square)
            break
        out.append(square)
    return out


def type_based_moves(p: Piece, obstacles: ObstacleSet) -> frozenset[Coordinate]:
    """All squares p may reach by its basic movement pattern.

    Knights and kings step to fixed offsets, sliders walk rays, and a pawn
    steps forward onto an empty square but captures diagonally.  Special
    moves are not produced here.
    """
    return frozenset(moves_with_colours(p, _holders(obstacles)))


def moves_with_colours(p: Piece, holders: Holders) -> list[Coordinate]:
    """type_based_moves against a prebuilt square -> holder map.

    The board module passes a position's occupancy (square -> Piece),
    built once and shared by both sides and every piece, instead of
    projecting an ObstacleSet per piece; a holder's colour tells a capture
    from a blocked square.
    """
    if p.type is PieceType.PAWN:
        return _pawn_moves(p, holders)
    if p.type is PieceType.KNIGHT:
        return _offset_moves(p, holders, KNIGHT_OFFSETS)
    if p.type is PieceType.KING:
        return _offset_moves(p, holders, ALL_DIRECTIONS)
    if p.type is PieceType.ROOK:
        directions = ORTHOGONAL_DIRECTIONS
    elif p.type is PieceType.BISHOP:
        directions = DIAGONAL_DIRECTIONS
    else:  # queen
        directions = ALL_DIRECTIONS
    moves: list[Coordinate] = []
    for direction in directions:
        moves.extend(_ray(p, holders, direction))
    return moves


def _offset_moves(
    p: Piece, holders: Holders, offsets: tuple[Direction, ...]
) -> list[Coordinate]:
    moves = []
    for direction in offsets:
        target = _step(p, holders, direction)
        if target is not None:
            moves.append(target)
    return moves


def _pawn_moves(p: Piece, holders: Holders) -> list[Coordinate]:
    dy = 1 if p.colour is Colour.WHITE else -1
    moves = []
    forward = _SQUARES.get((p.square.x, p.square.y + dy))
    if forward is not None and (forward.x, forward.y) not in holders:
        moves.append(forward)
    for dx in (-1, 1):
        diagonal = _SQUARES.get((p.square.x + dx, p.square.y + dy))
        if diagonal is not None:
            holder = holders.get((diagonal.x, diagonal.y))
            if holder is not None and holder.colour is not p.colour:
                moves.append(diagonal)
    return moves
