"""Board fixtures: special moves, check, legality filtering, application,
the terminal test, the square map every board holds from birth and the
piece set an applied board derives."""

import pickle
import re
import sys
import threading
from copy import copy, deepcopy
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from chessval.board import (
    Board,
    IllegalMoveError,
    Move,
    _RIGHTS_KEPT,
    _SIDE_RIGHTS,
    _apply,
    _changes,
    _context,
    attacked_squares,
    board_to_ascii,
    castling_possible,
    default_board,
    en_passant,
    has_legal_move,
    in_check,
    iss_castling,
    iss_en_passant,
    legal_moves,
    move,
    move_castling,
    move_en_passant,
    move_other,
    pawn_move_two,
    pawn_promotion,
    perft,
    possible_moves,
    stateful_impossible_moves,
    stateful_possible_moves,
)
from chessval.cli import _coordinate_text
from chessval.fen import parse_fen
from chessval.pgn import parse_pgn, replay
from chessval.pieces import Colour, Coordinate, Piece, PieceType, opposite_colour

from drivers import play_random_game
from positions import KIWIPETE, POSITION_3, POSITION_4, POSITION_4_MIRROR, POSITION_5

W, B = Colour.WHITE, Colour.BLACK
PAWN, ROOK, KNIGHT = PieceType.PAWN, PieceType.ROOK, PieceType.KNIGHT
BISHOP, QUEEN, KING = PieceType.BISHOP, PieceType.QUEEN, PieceType.KING


def C(x, y):
    return Coordinate(x, y)


def P(piece_type, x, y, colour=W):
    return Piece(piece_type, C(x, y), colour)


def M(from_piece, x, y, new_type=None):
    to_type = new_type if new_type is not None else from_piece.type
    return Move(from_piece, Piece(to_type, C(x, y), from_piece.colour))


def targets(moves):
    return {m.to_.square for m in moves}


def play(board, *moves):
    for m in moves:
        board = move(board, m)
    return board


FOOLS_MATE = (
    M(P(PAWN, 6, 2), 6, 3),
    M(P(PAWN, 5, 7, B), 5, 5),
    M(P(PAWN, 7, 2), 7, 4),
    M(P(QUEEN, 4, 8, B), 8, 4),
)


# --- Move and Board values --------------------------------------------------


def test_move_cannot_change_colour():
    with pytest.raises(ValueError, match="colour"):
        Move(P(ROOK, 1, 1), P(ROOK, 1, 4, B))


def test_move_must_change_square():
    with pytest.raises(ValueError, match="square"):
        Move(P(ROOK, 1, 1), P(ROOK, 1, 1))


def test_move_type_change_needs_a_promoting_pawn():
    with pytest.raises(ValueError, match="pawn"):
        Move(P(ROOK, 1, 1), P(QUEEN, 1, 8))
    with pytest.raises(ValueError, match="pawn"):
        Move(P(PAWN, 1, 6), P(QUEEN, 1, 7))
    # a pawn arriving on the last rank may change type
    Move(P(PAWN, 1, 7), P(QUEEN, 1, 8))
    Move(P(PAWN, 1, 2, B), P(KNIGHT, 1, 1, B))
    # but never to a king: move_other, which skips Board's checks, would
    # build a board with two kings of one colour
    for pawn, x, y in ((P(PAWN, 5, 7), 5, 8), (P(PAWN, 5, 7), 4, 8), (P(PAWN, 3, 2, B), 3, 1)):
        with pytest.raises(ValueError, match="never to a king"):
            M(pawn, x, y, KING)


def test_move_equality_defers_to_the_other_operand_for_a_non_move():
    pawn = P(PAWN, 5, 2)
    mov = M(pawn, 5, 4)
    assert mov.__eq__(pawn) is NotImplemented
    assert mov != (pawn, mov.to_) and mov == M(pawn, 5, 4)


def test_board_rejects_shared_squares():
    message = re.escape(f"two pieces share a square: {C(1, 1)}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        Board({P(ROOK, 1, 1), P(KNIGHT, 1, 1)})


def test_board_rejects_two_kings_of_one_colour():
    for colour in (W, B):
        kings = {P(KING, 1, 1, colour), P(KING, 8, 8, colour), P(KING, 5, 5, opposite_colour(colour))}
        with pytest.raises(ValueError, match=f"^more than one {colour.value} king$"):
            Board(kings)


def test_board_rejects_an_empty_state():
    with pytest.raises(ValueError, match="at least one"):
        Board(frozenset())


def test_default_board_has_sixteen_pieces_per_side():
    board = default_board()
    assert len([p for p in board.board_state if p.colour is W]) == 16
    assert len([p for p in board.board_state if p.colour is B]) == 16


def test_default_board_piece_arrangement():
    state = default_board().board_state
    assert P(KING, 5, 1) in state
    assert P(QUEEN, 4, 1) in state
    assert P(KING, 5, 8, B) in state
    assert P(ROOK, 1, 1) in state and P(ROOK, 8, 8, B) in state
    assert all(P(PAWN, x, 2) in state for x in range(1, 9))
    assert all(P(PAWN, x, 7, B) in state for x in range(1, 9))


def test_default_board_history_is_empty():
    assert default_board().history == ()


# --- attack and check detection ---------------------------------------------


def test_initial_position_attacks_exactly_its_third_rank():
    state = default_board().board_state
    assert attacked_squares(state, W) == {C(x, 3) for x in range(1, 9)}
    assert attacked_squares(state, B) == {C(x, 6) for x in range(1, 9)}


def test_lone_rook_attacks_fourteen_squares():
    state = frozenset({P(ROOK, 1, 1)})
    result = attacked_squares(state, W)
    assert len(result) == 14
    assert result == {C(1, y) for y in range(2, 9)} | {C(x, 1) for x in range(2, 9)}


def test_lone_pawn_attacks_its_two_diagonals_even_when_empty():
    assert attacked_squares(frozenset({P(PAWN, 5, 2)}), W) == {C(4, 3), C(6, 3)}


def test_a_side_attacks_its_own_squares_only_with_its_pawns():
    state = frozenset({P(PAWN, 5, 2), P(KNIGHT, 4, 3), P(ROOK, 1, 1), P(PAWN, 1, 2)})
    attacked = attacked_squares(state, W)
    assert C(4, 3) in attacked  # the e2 pawn defends the d3 knight
    assert C(1, 2) not in attacked  # the a1 rook does not attack its own a2 pawn


def test_no_check_at_the_start():
    state = default_board().board_state
    assert not in_check(state, W)
    assert not in_check(state, B)


def test_fools_mate_leaves_white_in_check():
    board = play(default_board(), *FOOLS_MATE)
    assert in_check(board.board_state, W)


def test_bare_rook_gives_check_along_an_open_file():
    state = frozenset({P(KING, 5, 1), P(ROOK, 5, 8, B), P(KING, 1, 8, B)})
    assert in_check(state, W)
    assert not in_check(state, B)


def test_in_check_requires_a_king():
    with pytest.raises(ValueError, match="king"):
        in_check(frozenset({P(ROOK, 1, 1)}), W)


# --- special moves ----------------------------------------------------------


def test_double_push_from_the_initial_rank():
    board = default_board()
    pawn = P(PAWN, 5, 2)
    assert pawn_move_two(board.board_state, pawn) == {M(pawn, 5, 4)}


def test_double_push_unavailable_off_the_initial_rank():
    pawn = P(PAWN, 5, 3)
    assert pawn_move_two(frozenset({pawn}), pawn) == frozenset()


@pytest.mark.parametrize("blocker_square", [(5, 3), (5, 4)])
def test_double_push_blocked_by_any_piece_in_the_way(blocker_square):
    pawn = P(PAWN, 5, 2)
    state = frozenset({pawn, Piece(KNIGHT, C(*blocker_square), B)})
    assert pawn_move_two(state, pawn) == frozenset()


def test_en_passant_right_after_an_adjacent_double_push():
    pawn = P(PAWN, 5, 5)
    double_push = M(P(PAWN, 4, 7, B), 4, 5)
    board = Board({pawn, double_push.to_}, (double_push,))
    assert en_passant(board, pawn) == {M(pawn, 4, 6)}


def test_en_passant_expires_after_one_ply():
    pawn = P(PAWN, 5, 5)
    other = M(P(KNIGHT, 7, 8, B), 6, 6)
    board = Board({pawn, P(PAWN, 4, 5, B), other.to_}, (other,))
    assert en_passant(board, pawn) == frozenset()


def test_en_passant_needs_a_history():
    pawn = P(PAWN, 5, 5)
    board = Board({pawn, P(PAWN, 4, 5, B)}, ())
    assert en_passant(board, pawn) == frozenset()


def test_en_passant_replayed_from_the_opening():
    board = play(
        default_board(),
        M(P(PAWN, 5, 2), 5, 4),
        M(P(PAWN, 1, 7, B), 1, 6),
        M(P(PAWN, 5, 4), 5, 5),
        M(P(PAWN, 4, 7, B), 4, 5),
    )
    pawn = P(PAWN, 5, 5)
    assert en_passant(board, pawn) == {M(pawn, 4, 6)}
    # one uninvolved ply each and the right is gone
    later = play(board, M(P(KNIGHT, 2, 1), 3, 3), M(P(KNIGHT, 2, 8, B), 3, 6))
    assert en_passant(later, pawn) == frozenset()


def test_promotion_offers_all_four_types():
    pawn = P(PAWN, 1, 7)
    moves = pawn_promotion(frozenset({pawn}), pawn)
    assert moves == {
        M(pawn, 1, 8, QUEEN),
        M(pawn, 1, 8, ROOK),
        M(pawn, 1, 8, BISHOP),
        M(pawn, 1, 8, KNIGHT),
    }


def test_promotion_by_push_and_capture_yields_eight_moves():
    pawn = P(PAWN, 1, 7)
    state = frozenset({pawn, P(KNIGHT, 2, 8, B)})
    moves = pawn_promotion(state, pawn)
    assert len(moves) == 8
    assert targets(moves) == {C(1, 8), C(2, 8)}


def test_no_promotion_before_the_seventh_rank():
    pawn = P(PAWN, 1, 6)
    assert pawn_promotion(frozenset({pawn}), pawn) == frozenset()


def test_promotion_rejects_two_pieces_on_one_square():
    # which one the pawn meets on b8 would otherwise depend on the set's order
    pawn = P(PAWN, 1, 7)
    state = frozenset({pawn, P(KNIGHT, 2, 8, B), P(BISHOP, 2, 8)})
    with pytest.raises(ValueError, match="share a square"):
        pawn_promotion(state, pawn)


@pytest.mark.parametrize(
    "fen, square, special, count",
    [
        # pinned on a diagonal, the pawn's double push leaves the pin line
        ("4k3/8/8/8/8/5b2/6P1/7K w - - 0 1", (7, 2), pawn_move_two, 1),
        # pinned on its rank, the pawn's promotions leave the pin line
        ("8/KP5r/8/4k3/8/8/8/8 w - - 0 1", (2, 7), pawn_promotion, 4),
        # in check, neither a double push nor a promotion answers it
        ("r3k3/7P/8/8/8/8/7P/K7 w - - 0 1", (8, 2), pawn_move_two, 1),
        ("r3k3/7P/8/8/8/8/7P/K7 w - - 0 1", (8, 7), pawn_promotion, 4),
        # en passant takes both pawns off the rank between the king and a rook
        ("8/8/8/K2pP2r/8/8/8/4k3 w - d6 0 1", (5, 5), en_passant, 1),
    ],
    ids=["pinned-double-push", "pinned-promotions", "double-push-in-check",
         "promotions-in-check", "en-passant-exposing-the-king"],
)
def test_special_moves_are_listed_whatever_check_and_pins_forbid(fen, square, special, count):
    board = parse_fen(fen).board
    pawn = P(PAWN, *square)
    moves = special(board if special is en_passant else board.board_state, pawn)
    assert len(moves) == count
    assert moves <= stateful_possible_moves(board, pawn)
    assert moves <= stateful_impossible_moves(board, pawn)
    assert not moves & possible_moves(board, pawn)


def kingside_fixture():
    king = P(KING, 5, 1)
    return Board({king, P(ROOK, 8, 1)}, ()), king


def test_castling_available_when_all_conditions_hold():
    board, king = kingside_fixture()
    assert castling_possible(board, king) == {M(king, 7, 1)}


def test_castling_lost_once_the_king_has_moved():
    board, king = kingside_fixture()
    there_and_back = (M(P(KING, 6, 1), 5, 1), M(P(KING, 5, 1), 6, 1))
    board = Board(board.board_state, there_and_back)
    assert castling_possible(board, king) == frozenset()


def test_castling_lost_once_the_rook_has_moved():
    board, king = kingside_fixture()
    rook_shuffle = (M(P(ROOK, 8, 2), 8, 1), M(P(ROOK, 8, 1), 8, 2))
    board = Board(board.board_state, rook_shuffle)
    assert castling_possible(board, king) == frozenset()


def test_castling_rights_die_with_a_capture_on_the_corner():
    board, king = kingside_fixture()
    capture = (Move(P(ROOK, 8, 8, B), P(ROOK, 8, 1, B)),)
    board = Board(board.board_state, capture)
    assert castling_possible(board, king) == frozenset()


def test_castling_blocked_by_an_attacked_crossing_square():
    king = P(KING, 5, 1)
    board = Board({king, P(ROOK, 8, 1), P(ROOK, 6, 8, B)}, ())
    assert castling_possible(board, king) == frozenset()


def test_castling_blocked_while_in_check():
    king = P(KING, 5, 1)
    board = Board({king, P(ROOK, 8, 1), P(ROOK, 5, 8, B)}, ())
    assert castling_possible(board, king) == frozenset()


def test_castling_blocked_by_a_piece_between():
    king = P(KING, 5, 1)
    board = Board({king, P(ROOK, 8, 1), P(KNIGHT, 7, 1)}, ())
    assert castling_possible(board, king) == frozenset()


def test_castling_queenside_ignores_an_attack_on_the_rook_file_b():
    # only the king's path matters: an attack on b1 does not stop O-O-O
    king = P(KING, 5, 1)
    board = Board({king, P(ROOK, 1, 1), P(ROOK, 2, 8, B)}, ())
    assert castling_possible(board, king) == {M(king, 3, 1)}


def test_castling_both_wings_when_open():
    king = P(KING, 5, 1)
    board = Board({king, P(ROOK, 1, 1), P(ROOK, 8, 1)}, ())
    assert castling_possible(board, king) == {M(king, 3, 1), M(king, 7, 1)}


def test_a_king_on_the_other_colour_home_square_never_castles():
    # an empty history keeps every right, and each king has its rooks on
    # the corners beside it, but the wings there are the other colour's
    white, black = P(KING, 5, 8), P(KING, 5, 1, B)
    board = Board({white, black, P(ROOK, 1, 8), P(ROOK, 8, 8), P(ROOK, 1, 1, B), P(ROOK, 8, 1, B)})
    assert castling_possible(board, white) == castling_possible(board, black) == frozenset()


def test_stateful_moves_empty_for_ordinary_pieces():
    board = default_board()
    assert stateful_possible_moves(board, P(KNIGHT, 2, 1)) == frozenset()
    assert stateful_possible_moves(board, P(ROOK, 1, 1)) == frozenset()


def test_stateful_moves_for_a_starting_pawn_is_the_double_push():
    board = default_board()
    pawn = P(PAWN, 5, 2)
    assert stateful_possible_moves(board, pawn) == {M(pawn, 5, 4)}


def test_a_pawn_s_stateful_moves_are_the_union_of_its_three_special_moves():
    seen = set()
    for fen in (KIWIPETE, POSITION_3, POSITION_4, POSITION_4_MIRROR, POSITION_5):
        game = parse_fen(fen)
        # the tricky positions and every position one ply on, where en passant opens
        boards = [game.board] + [move(game.board, m) for m in legal_moves(game.board, game.turn)]
        for board in boards:
            state = board.board_state
            for pawn in (p for p in state if p.type is PAWN):
                specials = {
                    "double push": pawn_move_two(state, pawn),
                    "en passant": en_passant(board, pawn),
                    "promotion": pawn_promotion(state, pawn),
                }
                union = frozenset().union(*specials.values())
                assert stateful_possible_moves(board, pawn) == union, pawn
                seen.update(kind for kind, moves in specials.items() if moves)
    assert seen == {"double push", "en passant", "promotion"}


def test_stateful_moves_for_a_castling_ready_king():
    king = P(KING, 5, 1)
    board = Board({king, P(ROOK, 1, 1), P(ROOK, 8, 1)}, ())
    assert len(stateful_possible_moves(board, king)) == 2


# --- impossible moves and full legality --------------------------------------


def test_a_pinned_bishop_cannot_move():
    bishop = P(BISHOP, 5, 4)
    board = Board({P(KING, 5, 1), bishop, P(ROOK, 5, 8, B)}, ())
    impossible = stateful_impossible_moves(board, bishop)
    assert len(impossible) > 0
    assert all(m.to_.square.x != 5 for m in impossible)
    assert possible_moves(board, bishop) == frozenset()


def test_failing_to_promote_is_impossible():
    pawn = P(PAWN, 1, 7)
    board = Board({pawn}, ())
    assert stateful_impossible_moves(board, pawn) == {M(pawn, 1, 8)}
    assert M(pawn, 1, 8) not in possible_moves(board, pawn)
    assert len(possible_moves(board, pawn)) == 4


def test_nothing_is_impossible_at_the_start():
    board = default_board()
    for piece in board.board_state:
        if piece.colour is W:
            assert stateful_impossible_moves(board, piece) == frozenset()


def test_every_public_move_function_returns_a_frozenset():
    board = parse_fen("4k3/1P6/8/3pP3/8/8/P7/R3K2R w KQ d6 0 1").board
    state = board.board_state
    pawn, passer, promoter, king = P(PAWN, 1, 2), P(PAWN, 5, 5), P(PAWN, 2, 7), P(KING, 5, 1)
    results = [
        pawn_move_two(state, pawn),
        en_passant(board, passer),
        pawn_promotion(state, promoter),
        castling_possible(board, king),
        stateful_possible_moves(board, pawn),
        stateful_impossible_moves(board, promoter),
        possible_moves(board, passer),
        legal_moves(board, W),
    ]
    for result in results:
        assert type(result) is frozenset and result


def test_initial_knight_moves():
    board = default_board()
    knight = P(KNIGHT, 2, 1)
    assert possible_moves(board, knight) == {M(knight, 1, 3), M(knight, 3, 3)}


def test_twenty_legal_moves_at_the_start():
    board = default_board()
    union = set()
    for piece in board.board_state:
        if piece.colour is W:
            union |= possible_moves(board, piece)
    assert len(union) == 20
    assert legal_moves(board, W) == union


def test_double_check_allows_only_king_moves():
    board = Board(
        {P(KING, 5, 1), P(QUEEN, 4, 3), P(ROOK, 5, 8, B), P(BISHOP, 8, 4, B),
         P(KING, 8, 8, B)},
        (),
    )
    moves = legal_moves(board, W)
    assert moves and all(m.from_.type is KING for m in moves)
    assert targets(moves) == {C(4, 1), C(4, 2), C(6, 1)}


def test_operations_reject_a_piece_that_is_not_on_the_board():
    board = default_board()
    ghost = P(QUEEN, 4, 4)
    for operation in (possible_moves, stateful_possible_moves,
                      stateful_impossible_moves):
        with pytest.raises(IllegalMoveError):
            operation(board, ghost)
    with pytest.raises(IllegalMoveError):
        pawn_move_two(board.board_state, P(PAWN, 4, 4))


def test_special_move_operations_reject_a_piece_of_another_type():
    board = default_board()
    knight, queen = P(KNIGHT, 2, 1), P(QUEEN, 4, 1)
    for operation in (pawn_move_two, pawn_promotion):
        with pytest.raises(IllegalMoveError, match="expected a pawn"):
            operation(board.board_state, knight)
    with pytest.raises(IllegalMoveError, match="expected a pawn"):
        en_passant(board, knight)
    with pytest.raises(IllegalMoveError, match="expected a king"):
        castling_possible(board, queen)


# --- move classification ----------------------------------------------------


def test_iss_castling_on_a_two_file_king_jump():
    board, king = kingside_fixture()
    assert iss_castling(board, M(king, 7, 1))
    assert not iss_castling(board, M(king, 6, 2))


def test_a_two_file_king_jump_off_the_home_square_is_an_ordinary_move():
    king, rook, black_king = P(KING, 5, 2), P(ROOK, 8, 2), P(KING, 5, 8, B)
    board = Board({king, rook, black_king})
    jump = M(king, 7, 2)  # no generator makes it; built by hand
    assert not iss_castling(board, jump)
    assert move_other(board, jump).board_state == {P(KING, 7, 2), rook, black_king}


def test_the_castling_table_keeps_its_rights_masks_and_rook_changes():
    # square indices, a1 = 0 to h8 = 63: a king's home ends both of its
    # side's rights, a corner its wing's; bits 1, 2, 4 and 8 are K, Q, k, q
    assert _RIGHTS_KEPT == bytes(
        [13, 15, 15, 15, 12, 15, 15, 14] + [15] * 48 + [7, 15, 15, 15, 3, 15, 15, 11]
    )
    assert _SIDE_RIGHTS == {W: 3, B: 12}
    occ = [None] * 64
    castlings = {
        M(P(KING, 5, 1), 7, 1): ((7, None), (5, P(ROOK, 6, 1))),
        M(P(KING, 5, 1), 3, 1): ((0, None), (3, P(ROOK, 4, 1))),
        M(P(KING, 5, 8, B), 7, 8): ((63, None), (61, P(ROOK, 6, 8, B))),
        M(P(KING, 5, 8, B), 3, 8): ((56, None), (59, P(ROOK, 4, 8, B))),
    }
    for mov, changes in castlings.items():
        assert _changes(occ, mov) == changes
    # two-file king jumps off the king's own home square change nothing else
    for jump in (M(P(KING, 5, 2), 7, 2), M(P(KING, 5, 8), 7, 8), M(P(KING, 5, 1, B), 3, 1)):
        assert _changes(occ, jump) == ()


def test_iss_en_passant_on_a_diagonal_pawn_move_to_an_empty_square():
    pawn = P(PAWN, 5, 5)
    double_push = M(P(PAWN, 4, 7, B), 4, 5)
    board = Board({pawn, double_push.to_, P(KNIGHT, 6, 6, B)}, (double_push,))
    assert iss_en_passant(board, M(pawn, 4, 6))
    assert not iss_en_passant(board, M(pawn, 5, 6))
    assert not iss_en_passant(board, M(pawn, 6, 6))  # ordinary capture


# --- move application -------------------------------------------------------


def test_move_applies_a_double_push():
    board = default_board()
    after = move(board, M(P(PAWN, 5, 2), 5, 4))
    assert P(PAWN, 5, 4) in after.board_state
    assert P(PAWN, 5, 2) not in after.board_state
    assert len(after.board_state) == 32
    assert len(after.history) == 1


def test_move_rejects_an_illegal_move():
    board = default_board()
    with pytest.raises(IllegalMoveError):
        move(board, M(P(KING, 5, 1), 5, 3))
    with pytest.raises(IllegalMoveError):
        move(board, M(P(ROOK, 1, 1), 1, 5))


def test_move_prepends_to_the_history():
    board = default_board()
    first = M(P(PAWN, 5, 2), 5, 4)
    second = M(P(PAWN, 4, 7, B), 4, 5)
    after = play(board, first, second)
    assert after.history == (second, first)


def test_move_leaves_the_input_board_untouched():
    board = default_board()
    snapshot = Board(board.board_state, board.history)
    move(board, M(P(PAWN, 5, 2), 5, 4))
    assert board == snapshot
    assert board == default_board()


def test_capture_removes_exactly_one_piece():
    board = play(
        default_board(),
        M(P(PAWN, 5, 2), 5, 4),
        M(P(PAWN, 4, 7, B), 4, 5),
    )
    after = move(board, M(P(PAWN, 5, 4), 4, 5))
    assert len(after.board_state) == 31
    assert P(PAWN, 4, 5) in after.board_state
    assert P(PAWN, 4, 5, B) not in after.board_state


def test_quiet_move_keeps_the_piece_count():
    board = default_board()
    after = move(board, M(P(KNIGHT, 2, 1), 3, 3))
    assert len(after.board_state) == len(board.board_state)


def test_promotion_swaps_the_pawn_for_its_new_type():
    pawn = P(PAWN, 1, 7)
    board = Board({pawn, P(KING, 5, 1), P(KING, 5, 8, B)}, ())
    after = move_other(board, M(pawn, 1, 8, QUEEN))
    state = after.board_state
    assert sum(1 for p in state if p.type is PAWN and p.colour is W) == 0
    assert P(QUEEN, 1, 8) in state


def test_castling_kingside_moves_both_pieces():
    board, king = kingside_fixture()
    after = move_castling(board, M(king, 7, 1))
    assert P(KING, 7, 1) in after.board_state
    assert P(ROOK, 6, 1) in after.board_state
    assert len(after.board_state) == 2


def test_castling_queenside_moves_both_pieces():
    king = P(KING, 5, 1)
    board = Board({king, P(ROOK, 1, 1)}, ())
    after = move_castling(board, M(king, 3, 1))
    assert P(KING, 3, 1) in after.board_state
    assert P(ROOK, 4, 1) in after.board_state


def test_castling_black_kingside_mirrors_white():
    king = P(KING, 5, 8, B)
    board = Board({king, P(ROOK, 8, 8, B)}, ())
    after = move_castling(board, M(king, 7, 8))
    assert P(KING, 7, 8, B) in after.board_state
    assert P(ROOK, 6, 8, B) in after.board_state


def test_en_passant_removes_the_bypassed_pawn():
    pawn = P(PAWN, 5, 5)
    double_push = M(P(PAWN, 4, 7, B), 4, 5)
    board = Board({pawn, double_push.to_}, (double_push,))
    capture = M(pawn, 4, 6)
    after = move_en_passant(board, capture)
    assert P(PAWN, 4, 6) in after.board_state
    assert all(p.square != C(4, 5) for p in after.board_state)
    assert len(after.board_state) == 1
    assert after.history[0] == capture


@pytest.mark.parametrize(
    "rule, kind",
    [
        (move_castling, "king step"),
        (move_castling, "en passant"),
        (move_castling, "castling without its rook"),
        (move_castling, "castling with an enemy rook on the corner"),
        (move_en_passant, "king step"),
        (move_en_passant, "castling"),
        (move_en_passant, "en passant without a victim"),
        (move_en_passant, "en passant beside its own knight"),
        (move_en_passant, "en passant beside its own pawn"),
        (move_en_passant, "en passant beside an enemy knight"),
        (move_other, "castling"),
        (move_other, "en passant"),
    ],
)
def test_a_named_rule_rejects_a_move_of_another_kind(rule, kind):
    king, pawn, black_king = P(KING, 5, 1), P(PAWN, 5, 5), P(KING, 5, 8, B)
    double_push = M(P(PAWN, 4, 7, B), 4, 5)
    board = Board({king, P(ROOK, 8, 1), pawn, double_push.to_}, (double_push,))
    moves = {
        "king step": M(king, 5, 2),
        "castling": M(king, 7, 1),
        "castling without its rook": M(king, 3, 1),
        "en passant": M(pawn, 4, 6),
        "en passant without a victim": M(pawn, 6, 6),
        "en passant beside its own knight": M(pawn, 4, 6),
        "en passant beside its own pawn": M(pawn, 4, 6),
        "en passant beside an enemy knight": M(pawn, 4, 6),
        "castling with an enemy rook on the corner": M(king, 7, 1),
    }
    other_boards = {
        "castling with an enemy rook on the corner": {king, P(ROOK, 8, 1, B), black_king},
        "en passant beside its own knight": {king, pawn, P(KNIGHT, 4, 5), black_king},
        "en passant beside its own pawn": {king, pawn, P(PAWN, 4, 5), black_king},
        "en passant beside an enemy knight": {king, pawn, P(KNIGHT, 4, 5, B), black_king},
    }
    if kind in other_boards:
        board = Board(other_boards[kind])
    with pytest.raises(IllegalMoveError):
        rule(board, moves[kind])


def test_a_named_rule_refuses_a_mover_that_is_not_on_its_square():
    # each move meets its rule's pre-condition but for the mover's absence
    rook = P(ROOK, 1, 3)  # a3 is empty at the start
    king, white_rook, black_king = P(KING, 4, 1), P(ROOK, 8, 1), P(KING, 5, 8, B)
    double_push = M(P(PAWN, 4, 7, B), 4, 5)
    cases = [
        (move_other, default_board(), M(rook, 1, 5)),
        (move_castling, Board({king, white_rook, black_king}), M(P(KING, 5, 1), 7, 1)),
        (move_en_passant, Board({P(KING, 5, 1), double_push.to_, black_king}, (double_push,)),
         M(P(PAWN, 5, 5), 4, 6)),
    ]
    for rule, board, stray in cases:
        with pytest.raises(IllegalMoveError, match="piece not on the board"):
            rule(board, stray)
        with pytest.raises(IllegalMoveError, match="piece not on the board"):
            move(board, stray)


def _named_rule(board, mov):
    if iss_castling(board, mov):
        return move_castling
    return move_en_passant if iss_en_passant(board, mov) else move_other


def _rebuilt_square_map(board):
    """The square map a board built afresh from the same pieces and history
    computes."""
    return Board(board.board_state, board.history)._contexts[None]


def test_the_gate_and_the_named_rules_return_boards_whose_square_map_their_pieces_give():
    rules = set()
    for fen in (KIWIPETE, POSITION_3, POSITION_4, POSITION_5):
        game = parse_fen(fen)
        for mov in legal_moves(game.board, game.turn):
            child = move(game.board, mov)
            for reply in legal_moves(child, opposite_colour(game.turn)):
                for board, m in ((game.board, mov), (child, reply)):
                    rule = _named_rule(board, m)
                    rules.add(rule)
                    for after in (move(board, m), rule(board, m)):
                        assert after._contexts[None] == _rebuilt_square_map(after), m
    assert rules == {move_other, move_castling, move_en_passant}


def test_a_king_jump_from_the_other_colour_s_home_is_no_castling():
    king, rook, white_king = P(KING, 5, 1, B), P(ROOK, 8, 1, B), P(KING, 5, 8)
    board = Board({king, rook, white_king})
    jump = M(king, 7, 1)
    assert not iss_castling(board, jump)
    with pytest.raises(IllegalMoveError):
        move_castling(board, jump)
    assert move_other(board, jump).board_state == {P(KING, 7, 1, B), rook, white_king}


def test_move_dispatches_en_passant_through_the_gate():
    board = play(
        default_board(),
        M(P(PAWN, 5, 2), 5, 4),
        M(P(PAWN, 1, 7, B), 1, 6),
        M(P(PAWN, 5, 4), 5, 5),
        M(P(PAWN, 4, 7, B), 4, 5),
    )
    after = move(board, M(P(PAWN, 5, 5), 4, 6))
    assert len(after.board_state) == 31
    assert P(PAWN, 4, 6) in after.board_state


def test_move_dispatches_castling_through_the_gate():
    board = play(
        default_board(),
        M(P(PAWN, 5, 2), 5, 4),
        M(P(PAWN, 5, 7, B), 5, 5),
        M(P(KNIGHT, 7, 1), 6, 3),
        M(P(KNIGHT, 2, 8, B), 3, 6),
        M(P(BISHOP, 6, 1), 5, 2),
        M(P(PAWN, 4, 7, B), 4, 6),
    )
    after = move(board, M(P(KING, 5, 1), 7, 1))
    assert P(KING, 7, 1) in after.board_state
    assert P(ROOK, 6, 1) in after.board_state


# --- perft ------------------------------------------------------------------


def test_perft_depth_zero_counts_one_empty_sequence():
    assert perft(default_board(), W, 0) == 1


def test_perft_depth_one_is_twenty():
    assert perft(default_board(), W, 1) == 20


def test_perft_depth_two_is_four_hundred():
    assert perft(default_board(), W, 2) == 400


def test_perft_depth_three():
    assert perft(default_board(), W, 3) == 8902


def test_perft_rejects_negative_depth():
    with pytest.raises(ValueError):
        perft(default_board(), W, -1)


# --- rendering ---------------------------------------------------------------


def test_ascii_rendering_of_the_initial_position():
    art = board_to_ascii(default_board().board_state)
    assert art.splitlines() == [
        "r n b q k b n r",
        "p p p p p p p p",
        ". . . . . . . .",
        ". . . . . . . .",
        ". . . . . . . .",
        ". . . . . . . .",
        "P P P P P P P P",
        "R N B Q K B N R",
    ]


# --- properties --------------------------------------------------------------

coords = st.builds(Coordinate, st.integers(1, 8), st.integers(1, 8))
colours_st = st.sampled_from([W, B])
non_king_types = st.sampled_from([PAWN, ROOK, KNIGHT, BISHOP, QUEEN])


@st.composite
def states_with_kings(draw):
    extras = draw(st.dictionaries(coords, st.tuples(non_king_types, colours_st),
                                  max_size=10))
    free = [C(x, y) for x in range(1, 9) for y in range(1, 9)
            if C(x, y) not in extras]
    king_squares = draw(st.permutations(free).map(lambda seq: seq[:2]))
    pieces = {Piece(t, sq, c) for sq, (t, c) in extras.items()}
    pieces.add(Piece(KING, king_squares[0], W))
    pieces.add(Piece(KING, king_squares[1], B))
    return frozenset(pieces)


@given(states_with_kings(), colours_st)
def test_in_check_agrees_with_attacked_squares(state, colour):
    king = next(p for p in state if p.type is KING and p.colour is colour)
    expected = king.square in attacked_squares(state, opposite_colour(colour))
    assert in_check(state, colour) == expected


@given(states_with_kings(), colours_st)
def test_legal_moves_round_trip_through_the_gate(state, colour):
    board = Board(state, ())
    occupied = {p.square for p in state}
    for m in legal_moves(board, colour):
        after = move(board, m)  # must not raise
        assert len(after.history) == len(board.history) + 1
        assert after.history[0] == m
        # the count drops by one exactly on captures (incl. en passant)
        captured = m.to_.square in occupied or (
            m.from_.type is PAWN and m.from_.square.x != m.to_.square.x
        )
        delta = len(board.board_state) - len(after.board_state)
        assert delta == (1 if captured else 0)
        assert not in_check(after.board_state, colour)


# --- the terminal test and the derived piece set -----------------------------


@given(states_with_kings())
def test_the_terminal_test_agrees_with_the_legal_moves_on_sparse_boards(state):
    board = Board(state, ())
    for colour in (W, B):
        assert has_legal_move(board, colour) == bool(legal_moves(board, colour))


def _seeded_boards(seeds):
    """Every board along seeded random games, as move() builds them."""
    for seed in seeds:
        board = default_board()
        for m in play_random_game(seed)[0]:
            board = move(board, m)
            yield board


def test_the_terminal_test_agrees_with_the_legal_moves_along_games_and_perft_positions():
    boards = [default_board(), *_seeded_boards(range(4))]
    for fen in (KIWIPETE, POSITION_3, POSITION_4, POSITION_4_MIRROR, POSITION_5):
        game = parse_fen(fen)
        boards += [game.board] + [move(game.board, m) for m in legal_moves(game.board, game.turn)]
    for board in boards:
        for colour in (W, B):
            assert has_legal_move(board, colour) == bool(legal_moves(board, colour)), board


def _free_pushes(board, colour):
    """The side's pawns whose square ahead is on the board and empty,
    pinned or not."""
    held, ahead = {p.square for p in board.board_state}, 1 if colour is W else -1
    return {
        p for p in board.board_state
        if p.type is PAWN and p.colour is colour and 1 <= p.square.y + ahead <= 8
        and C(p.square.x, p.square.y + ahead) not in held
    }


# White to move in each: (the FEN, a piece no FEN may hold or None, white's
# legal moves in coordinate notation or None for "at least one", whether a
# white pawn has an empty square ahead).
_TERMINAL_CASES = {
    # fool's mate: mated, with pushes to spare
    "mate-with-free-pushes": (
        "rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/RNBQKBNR w KQkq - 1 3", None, set(), True,
    ),
    # the h8 bishop checks along the long diagonal; only c2-c3 blocks it
    "check-blocked-by-a-push": ("4k2b/8/8/8/8/8/P1P5/KB6 w - - 0 1", None, {"c2c3"}, True),
    # the e4 rook pins the e2 pawn along its file, which its push stays on
    "only-a-file-pinned-push": ("3r1r1k/8/8/8/4r3/8/4P3/4K3 w - - 0 1", None, {"e2e3"}, True),
    # the a5 bishop pins the d2 pawn off its file: stalemate
    "stalemate-with-a-diagonally-pinned-pawn": (
        "7k/8/8/b7/8/4n3/3P3r/4K3 w - - 0 1", None, set(), True,
    ),
    # the b3 pawn is blocked, with the square behind it empty: stalemate
    "stalemate-with-a-blocked-pawn": ("8/8/8/8/1p6/1P4p1/5k2/7K w - - 0 1", None, set(), False),
    # a pawn on its last rank has no square ahead: still stalemate
    "stalemate-with-a-pawn-on-its-last-rank": (
        "8/8/8/8/1p6/1P4p1/5k2/7K w - - 0 1", P(PAWN, 1, 8), set(), False,
    ),
    # a blocked pawn, and a knight that moves
    "a-blocked-pawn-and-a-knight": ("8/8/8/8/1p6/1P4p1/5k2/N6K w - - 0 1", None, None, False),
}


def _fen_board(fen, extra):
    state = parse_fen(fen).board.board_state
    return Board(state if extra is None else state | {extra})


@pytest.mark.parametrize("name", _TERMINAL_CASES)
def test_the_terminal_test_at_the_limits_of_its_pawn_push_mask(name):
    fen, extra, expected, pushes = _TERMINAL_CASES[name]
    board = _fen_board(fen, extra)
    assert bool(_free_pushes(board, W)) == pushes
    moves = legal_moves(board, W)
    if expected is not None:
        assert set(map(_coordinate_text, moves)) == expected
    else:
        assert moves
    assert has_legal_move(_fen_board(fen, extra), W) == bool(moves)


def _fold(held, m):
    """Play a move from a game's start on a square -> piece dict, from the
    move alone: a castling's rook and an en-passant victim included."""
    origin, target = m.from_.square, m.to_.square
    del held[origin]
    if m.from_.type is KING and abs(target.x - origin.x) == 2:
        rook = held.pop(C(8 if target.x == 7 else 1, origin.y))
        crossed = C((origin.x + target.x) // 2, origin.y)
        held[crossed] = Piece(ROOK, crossed, rook.colour)
    elif m.from_.type is PAWN and target.x != origin.x and target not in held:
        del held[C(target.x, origin.y)]
    held[target] = m.to_


def _corpus_moves(games):
    """The moves of the corpus's first games."""
    text = (Path(__file__).parent / "data" / "corpus.pgn").read_text()
    return [[mov for mov, *_ in replay(game.tokens)] for game in parse_pgn(text)[:games]]


def test_an_applied_board_derives_its_piece_set_on_first_read_as_the_value_it_was():
    games = [play_random_game(seed)[0] for seed in range(2)] + _corpus_moves(3)
    for moves in games:
        board = default_board()
        held = {p.square: p for p in board.board_state}
        for m in moves:
            child = move(board, m)
            assert "board_state" not in vars(child)  # derived, not built eagerly
            state = child.board_state
            assert "board_state" in vars(child)  # and kept
            _fold(held, m)
            assert state == frozenset(held.values())
            fresh = Board(state, child.history)
            # each reader, on a board whose piece set nothing read yet
            for reads in (
                lambda b: b == fresh and fresh == b,
                lambda b: hash(b) == hash(fresh),
                lambda b: repr(b) == repr(fresh),
                lambda b: pickle.loads(pickle.dumps(b)) == fresh,
                lambda b: replace(b) == fresh,
            ):
                unread = move(board, m)
                assert "board_state" not in vars(unread)
                assert reads(unread), m
            board = child


def test_an_applied_board_derives_no_attribute_but_its_piece_set():
    child = move(default_board(), M(P(PAWN, 5, 2), 5, 4))
    for name in ("history_", "__deepcopy__", "_boards"):  # copy.deepcopy asks for __deepcopy__
        with pytest.raises(AttributeError):
            getattr(child, name)
    assert "board_state" not in vars(child)
    assert deepcopy(child) == child


# Per castling-rights bit (KQkq), the square indices whose leaving or
# entering ends it.
_RIGHTS_SQUARES = {1: {4, 7}, 2: {4, 0}, 4: {60, 63}, 8: {60, 56}}


def _square_map_from(state, history):
    """A board's square map worked out here from its pieces and history
    alone: the occupancy, the bitboards in slot order (white's pawns,
    knights, bishops, rooks, queens and king, then black's) and the
    castling rights no recorded move ended."""
    occ, boards = [None] * 64, [0] * 12
    for p in state:
        s = p.square.x - 1 + 8 * (p.square.y - 1)
        occ[s] = p
        boards[6 * (p.colour is B) + (PAWN, KNIGHT, BISHOP, ROOK, QUEEN, KING).index(p.type)] |= 1 << s
    touched = {sq.x - 1 + 8 * (sq.y - 1) for m in history for sq in (m.from_.square, m.to_.square)}
    return occ, boards, sum(bit for bit, squares in _RIGHTS_SQUARES.items() if not touched & squares)


# Every way a board comes to exist from another, besides move().
_REMADE = {
    "constructor": lambda b: Board(b.board_state, b.history),
    "replace": replace,
    "pickle": lambda b: pickle.loads(pickle.dumps(b)),
    "copy": copy,
    "deepcopy": deepcopy,
}


def test_every_way_a_board_comes_to_exist_holds_its_square_map_from_birth():
    def check(board, way):
        assert set(vars(board)["_contexts"]) == {None}, way  # built at birth, nothing more
        assert board._contexts[None] == _square_map_from(board.board_state, board.history), way

    fens = (KIWIPETE, POSITION_3, POSITION_4, POSITION_5, "r3k2r/8/8/8/8/8/8/R3K2R w Kq - 0 1")
    made = [default_board()] + [parse_fen(fen).board for fen in fens]
    check(made[0], "default_board")
    for board in made[1:]:
        check(board, "parse_fen")
    for seed in range(2):
        board = default_board()
        for m in play_random_game(seed)[0]:
            board = move(board, m)
            check(board, "move")
            made.append(board)
    for board in made:
        for way, remake in _REMADE.items():
            check(remake(board), way)


def test_a_freshly_constructed_board_that_nothing_queried_can_be_applied_to():
    for fen in (KIWIPETE, POSITION_3, POSITION_4, POSITION_5):
        game = parse_fen(fen)
        for m in legal_moves(game.board, game.turn):
            fresh = Board(game.board.board_state, game.board.history)
            assert _apply(fresh, m) == move(game.board, m), m


# --- concurrent calls on one board ------------------------------------------


def _shared_board_trial(boards, expected) -> list:
    """One trial of four threads sharing fresh copies of `boards`: two first
    pass every legal move through the move() gate, then all four list every
    board's legal moves.  Returns what went wrong: an exception raised in a
    thread, a refused legal move or a listing unequal to `expected`."""
    fresh = [(Board(b.board_state, b.history), turn) for b, turn in boards]
    start, failures = threading.Barrier(4), []

    def call(gate: bool) -> None:
        try:
            start.wait(timeout=10)
            for (board, _), listed in zip(fresh, expected):
                for m in listed if gate else ():
                    move(board, m)
            for (board, turn), listed in zip(fresh, expected):
                got = legal_moves(board, turn)
                if got != listed:
                    failures.append(("listed", len(got), len(listed)))
        except Exception as error:  # a refused move, or a dict changed in iteration
            failures.append(error)

    threads = [threading.Thread(target=call, args=(n < 2,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    return failures


def test_concurrent_calls_on_one_board_agree_with_a_serial_call():
    # Boards are shared values that fill their contexts on first use: a
    # thread must never see a move list before it is whole, nor walk a dict
    # another thread adds to.  A 1-us switch interval makes the threads
    # interleave inside the walk; at the default 5 ms a race is rarely seen.
    games = [play_random_game(seed, max_plies=30)[2] for seed in range(20)]
    boards = [(game.board, game.turn) for game in games]
    expected = [legal_moves(Board(b.board_state, b.history), turn) for b, turn in boards]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):
            failures = _shared_board_trial(boards, expected)
            assert not failures, failures[:3]
    finally:
        sys.setswitchinterval(interval)


def test_a_thread_switch_at_any_line_of_the_walk_shows_only_whole_lists():
    # The threaded test above depends on the scheduler; this one stands a
    # trace hook in for a thread switch at every line the walk and the
    # mask helper run.  There another thread reads each kept list, which
    # must be whole, and stores one whole list not yet kept, which must not
    # break a reader walking the kept lists.
    for seed in range(20):
        game = play_random_game(seed, max_plies=30)[2]
        serial = Board(game.board.board_state, game.board.history)
        listed = legal_moves(serial, game.turn)
        whole, seen = dict(_context(serial, game.turn).moves), []
        board = Board(game.board.board_state, game.board.history)
        kept = _context(board, game.turn).moves

        def switch(frame, event, arg):
            if frame.f_code.co_name not in ("_legal_for_piece", "_mask"):
                return None
            if event == "line":
                seen.extend(s for s, moves in list(kept.items()) if moves != whole[s])
                missing = sorted(whole.keys() - kept.keys())
                if missing and frame.f_code.co_name == "_mask":
                    kept[missing[0]] = whole[missing[0]]
            return switch

        previous = sys.gettrace()
        sys.settrace(switch)
        try:
            answer = legal_moves(board, game.turn)
        finally:
            sys.settrace(previous)
        assert not seen, (seed, seen[:3])
        assert answer == listed, seed
