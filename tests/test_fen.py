"""FEN reading: placement, side, castling and en-passant synthesis."""

import itertools

import pytest

from chessval.board import (
    _context,
    castling_possible,
    default_board,
    en_passant,
    legal_moves,
    perft,
)
from chessval.fen import FenError, parse_fen
from chessval.pieces import Colour, Coordinate, Piece, PieceType

W, B = Colour.WHITE, Colour.BLACK

INITIAL_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"


def test_initial_fen_matches_default_board():
    game = parse_fen(INITIAL_FEN)
    assert game.board.board_state == default_board().board_state
    assert game.turn is W
    assert game.board.history == ()


def test_minimal_two_field_fen():
    game = parse_fen("8/8/8/8/8/8/8/K6k b")
    assert game.turn is B
    assert len(game.board.board_state) == 2
    assert Piece(PieceType.KING, Coordinate(1, 1), W) in game.board.board_state


def test_side_to_move_black():
    assert parse_fen("8/8/8/8/8/8/8/K6k b - -").turn is B


def test_castling_rights_honoured_when_granted():
    game = parse_fen("4k3/8/8/8/8/8/8/4K2R w K - 0 1")
    king = Piece(PieceType.KING, Coordinate(5, 1), W)
    assert len(castling_possible(game.board, king)) == 1


def test_castling_rights_revoked_when_absent():
    game = parse_fen("4k3/8/8/8/8/8/8/4K2R w - - 0 1")
    king = Piece(PieceType.KING, Coordinate(5, 1), W)
    assert castling_possible(game.board, king) == frozenset()


@pytest.mark.parametrize(
    "granted",
    ["".join(itertools.compress("KQkq", keep)) for keep in itertools.product((1, 0), repeat=4)],
)
def test_every_subset_of_castling_rights_grants_exactly_its_wings(granted):
    game = parse_fen(f"r3k2r/8/8/8/8/8/8/R3K2R w {granted or '-'} - 0 1")
    for colour, y, kingside, queenside in ((W, 1, "K", "Q"), (B, 8, "k", "q")):
        king = Piece(PieceType.KING, Coordinate(5, y), colour)
        wings = {m.to_.square for m in castling_possible(game.board, king)}
        assert wings == {
            Coordinate(x, y) for x, letter in ((7, kingside), (3, queenside)) if letter in granted
        }
    bits = {"K": 1, "Q": 2, "k": 4, "q": 8}  # the square map's castling-rights mask
    assert _context(game.board, W).rights == sum(bits[letter] for letter in granted)


def test_en_passant_field_opens_the_capture():
    game = parse_fen("4k3/8/8/3pP3/8/8/8/4K3 w - d6 0 1")
    pawn = Piece(PieceType.PAWN, Coordinate(5, 5), W)
    captures = en_passant(game.board, pawn)
    assert {m.to_.square for m in captures} == {Coordinate(4, 6)}


def test_without_the_field_there_is_no_en_passant():
    game = parse_fen("4k3/8/8/3pP3/8/8/8/4K3 w - - 0 1")
    pawn = Piece(PieceType.PAWN, Coordinate(5, 5), W)
    assert en_passant(game.board, pawn) == frozenset()


def test_perft_from_a_fen_position_matches_the_initial_position():
    game = parse_fen(INITIAL_FEN)
    assert perft(game.board, game.turn, 2) == 400


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "8/8/8/8/8/8/8 w",              # seven ranks
        "9/8/8/8/8/8/8/8 w",            # rank overflow
        "8/8/8/8/8/8/8/7Z w",           # unknown letter
        "8/8/8/8/8/8/8/K6k x",          # bad side
        "8/8/8/8/8/8/8/K6k w XQ -",     # bad rights
        "4k3/8/8/8/8/8/8/R3K2R w KKQ - 0 1",  # a repeated rights letter
        "8/8/8/8/8/8/8/K6k w - e9",     # bad square
        "4k3/8/8/8/8/8/8/4K3 w - e6",   # no pawn behind the ep square
        "8/8/8/8/8/8/8/K6k w - - x 1",  # bad counter
        "8/8/8/8/8/8/8/KK5k w",         # two white kings
        "8/8/\u00b2/8/8/8/8/K6k w",        # superscript two as a run length
        "8/8/\u0668/8/8/8/8/K6k w",        # Arabic-Indic eight as a run length
        "4k3/8/8/3pP3/8/8/8/4K3 w - d\u00b3",  # superscript rank
        "4k3/8/8/3pP3/8/8/8/4K3 w - d\u0666",  # Arabic-Indic rank
        "8/8/8/8/8/8/8/K6k w - - \u0660 1",     # Arabic-Indic counter
        "4k2R/8/8/8/8/8/8/4K3 w - - 0 1",   # the side not to move is in check
        "P3k3/8/8/8/8/8/8/4K3 w - - 0 1",   # a pawn on rank 8
        "8/8/8/8/8/8/8/4K3 w - - 0 1",      # no black king
    ],
)
def test_bad_fens_are_rejected(bad):
    with pytest.raises(FenError):
        parse_fen(bad)


def test_en_passant_square_rank_depends_on_side_to_move():
    with pytest.raises(FenError, match="rank"):
        parse_fen("4k3/8/8/3pP3/8/8/8/4K3 b d6 d6")
    game = parse_fen("4k3/8/8/8/3Pp3/8/8/4K3 b - d3 0 1")
    pawn = Piece(PieceType.PAWN, Coordinate(5, 4), B)
    assert {m.to_.square for m in en_passant(game.board, pawn)} == {Coordinate(4, 3)}


def test_synthesized_history_does_not_disturb_move_generation():
    # kiwipete-style sanity: rights partially granted, moves still generate
    game = parse_fen("r3k2r/8/8/8/8/8/8/R3K2R w Kq - 0 1")
    white_king = Piece(PieceType.KING, Coordinate(5, 1), W)
    black_king = Piece(PieceType.KING, Coordinate(5, 8), B)
    assert {m.to_.square for m in castling_possible(game.board, white_king)} == {
        Coordinate(7, 1)
    }
    assert {m.to_.square for m in castling_possible(game.board, black_king)} == {
        Coordinate(3, 8)
    }
    assert len(legal_moves(game.board, W)) > 0
