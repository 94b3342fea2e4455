"""Game-level play: turn alternation and win/draw determination."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .board import (
    Board,
    IllegalMoveError,
    Move,
    _context,
    default_board,
    has_legal_move,
    move,
)
from .pieces import Colour, opposite_colour


class Remis(Enum):
    """Marker for a drawn game (stalemate)."""

    REMIS = "remis"


REMIS = Remis.REMIS

#: None while the game is ongoing; a Colour for a win; REMIS for stalemate.
Winner = Optional[Union[Colour, Remis]]


@dataclass(frozen=True)
class Game:
    board: Board
    turn: Colour


def new_game() -> Game:
    """A fresh game from the standard initial position, white to move."""
    return Game(default_board(), Colour.WHITE)


def game_move(game: Game, mov: Move) -> tuple[Game, Winner]:
    """Play one move and report whether it ended the game.

    The move must belong to the side to move and pass the move() gate;
    then the outcome step (_outcome).  When the opponent is left without a
    legal reply the game is over: won by the mover if the opponent is in
    check, drawn (remis) otherwise.  The returned Game then carries the
    final board but keeps the mover as turn holder; in the ongoing case
    the turn flips.
    """
    if mov.from_.colour is not game.turn:
        raise IllegalMoveError(f"it is not {mov.from_.colour.value}'s turn")
    return _outcome(game, move(game.board, mov))


def _outcome(game: Game, new_board: Board) -> tuple[Game, Winner]:
    """The game once its side to move has made the move that built
    `new_board`, and its winner: game_move's terminal test, winner and
    turn, which SAN resolution also plays through after its own walk."""
    opponent = opposite_colour(game.turn)
    if not has_legal_move(new_board, opponent):
        if _context(new_board, opponent).checked:
            return Game(new_board, game.turn), game.turn
        return Game(new_board, game.turn), REMIS
    return Game(new_board, opponent), None
