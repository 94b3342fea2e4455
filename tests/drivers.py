"""Deterministic random-play drivers shared by the test suite and tools."""

import random

from chessval.board import in_check, legal_moves
from chessval.game import game_move, new_game
from chessval.pieces import Colour, PieceType


class _SortKeys(dict):
    """Each move's sort key, worked out on its first sort and kept: the
    engine interns the moves it generates, so this holds about as many
    keys as there are distinct moves."""

    def __missing__(self, m):
        key = self[m] = (
            m.from_.square.x,
            m.from_.square.y,
            m.to_.square.x,
            m.to_.square.y,
            m.to_.type.value,
        )
        return key


_SORT_KEYS = _SortKeys()


def canonical_order(moves):
    """Frozenset iteration order is hash-dependent; sort for seeded play."""
    return sorted(moves, key=_SORT_KEYS.__getitem__)


def play_random_game(seed: int, max_plies: int = 200):
    """Uniform random legal play until the game ends or the ply cap.

    Returns (moves, winner, final game); winner is None at the cap.
    """
    rng = random.Random(seed)
    game = new_game()
    winner = None
    moves = []
    while winner is None and len(moves) < max_plies:
        options = canonical_order(legal_moves(game.board, game.turn))
        mov = rng.choice(options)
        game, winner = game_move(game, mov)
        moves.append(mov)
    return moves, winner, game


def check_game_invariants(seed: int, max_plies: int = 200) -> int:
    """Play one seeded random game, asserting the reachable-board
    invariants after every ply; returns the number of plies played."""
    rng = random.Random(seed)
    game = new_game()
    winner = None
    plies = 0
    while winner is None and plies < max_plies:
        mover = game.turn
        history_before = len(game.board.history)
        options = canonical_order(legal_moves(game.board, game.turn))
        game, winner = game_move(game, rng.choice(options))
        plies += 1
        state = game.board.board_state
        # one pass over the pieces for the four piece-set invariants
        squares, kings, pawns, pawn_ranks = set(), [], [], set()
        for p in state:
            squares.add((p.square.x, p.square.y))
            if p.type is PieceType.KING:
                kings.append(p.colour)
            elif p.type is PieceType.PAWN:
                pawns.append(p.colour)
                pawn_ranks.add(p.square.y)
        assert len(squares) == len(state), "two pieces share a square"
        for colour in Colour:
            count = kings.count(colour)
            assert count == 1, f"{colour.value} has {count} kings"
            count = pawns.count(colour)
            assert count <= 8, f"{colour.value} has {count} pawns"
        assert not pawn_ranks & {1, 8}, "pawn on a terminal rank"
        assert len(game.board.history) == history_before + 1, "history must grow"
        assert not in_check(state, mover), "mover left itself in check"
    return plies
