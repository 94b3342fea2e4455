"""Perft on the standard tricky positions, and the legality context.

The counts are the published values from
https://www.chessprogramming.org/Perft_Results; these positions exercise
castling through attacked squares, promotions and en-passant pins, which
the initial position barely reaches.  The deeper published values are
left out to keep the run short.
"""

import pickle
import random

import pytest

from chessval.board import Board, _divide, _legal_list, legal_moves, perft
from chessval.fen import parse_fen
from chessval.game import game_move, new_game
from chessval.pieces import Colour

from drivers import canonical_order
from oracles import move_key, oracle_legal_moves

KIWIPETE = "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1"
POSITION_3 = "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1"
POSITION_4 = "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1"
POSITION_4_MIRROR = "r2q1rk1/pP1p2pp/Q4n2/bbp1p3/Np6/1B3NBn/pPPP1PPP/R3K2R b KQ - 0 1"
POSITION_5 = "rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8"

PUBLISHED = [
    (KIWIPETE, [48, 2039, 97862]),
    (POSITION_3, [14, 191, 2812, 43238]),
    (POSITION_4, [6, 264, 9467]),
    (POSITION_4_MIRROR, [6, 264, 9467]),
    (POSITION_5, [44, 1486, 62379]),
]


@pytest.mark.parametrize(
    "fen, depth, nodes",
    [
        (fen, depth, count)
        for fen, counts in PUBLISHED
        for depth, count in enumerate(counts, start=1)
    ],
)
def test_perft_matches_the_published_count(fen, depth, nodes):
    game = parse_fen(fen)
    assert perft(game.board, game.turn, depth) == nodes


def _sample_positions():
    """The tricky positions plus every position of two seeded random games."""
    for fen, _ in PUBLISHED:
        game = parse_fen(fen)
        yield game.board, game.turn
    for seed in (1, 2):
        rng = random.Random(seed)
        game, winner = new_game(), None
        while winner is None and len(game.board.history) < 120:
            yield game.board, game.turn
            mov = rng.choice(canonical_order(legal_moves(game.board, game.turn)))
            game, winner = game_move(game, mov)


def test_the_legal_move_list_never_holds_a_move_twice():
    for board, colour in _sample_positions():
        moves = _legal_list(board, colour)
        assert len(moves) == len(set(moves))


@pytest.mark.parametrize(
    "fen, count",
    [
        # en passant would open the rank between the king and the rook
        ("8/8/8/KPp4r/8/8/8/7k w - c6 0 1", 4),
        # the pinned rook moves only along its file, capture included
        ("4k3/4r3/8/8/8/8/4R3/4K3 w - - 0 1", 9),
        # a pinned knight has no moves
        ("4k3/8/8/8/b7/8/2N5/3K4 w - - 0 1", 4),
        # the king may not step back along the checking file
        ("4r2k/8/8/8/8/8/4K3/8 w - - 0 1", 6),
        # with two shields in front of the king, neither is pinned
        ("4k3/8/8/8/4r3/4P3/4R3/4K3 w - - 0 1", 11),
    ],
)
def test_pin_and_check_edge_cases_match_the_oracle(fen, count):
    game = parse_fen(fen)
    engine = {move_key(m) for m in legal_moves(game.board, game.turn)}
    assert engine == oracle_legal_moves(game.board, game.turn)
    assert len(engine) == count


def test_the_legality_context_is_not_part_of_the_board_value():
    board = parse_fen(KIWIPETE).board
    before = len(pickle.dumps(board))
    moves = legal_moves(board, Colour.WHITE)
    assert board._contexts is not None
    fresh = Board(board.board_state, board.history)
    assert board == fresh
    assert hash(board) == hash(fresh)
    assert repr(board) == repr(fresh)
    assert len(pickle.dumps(board)) == before
    assert pickle.loads(pickle.dumps(board)) == fresh
    assert legal_moves(fresh, Colour.WHITE) == moves


def test_divide_with_a_pool_equals_the_serial_divide():
    game = parse_fen(KIWIPETE)
    serial = _divide(game.board, game.turn, 2, jobs=1)
    pooled = _divide(game.board, game.turn, 2, jobs=2)
    assert len(serial) == 48 and sum(count for _, count in serial) == 2039
    assert dict(pooled) == dict(serial)
