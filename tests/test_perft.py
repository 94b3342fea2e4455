"""Perft on the standard tricky positions, and the legality context.

The counts are the published values from
https://www.chessprogramming.org/Perft_Results, the deepest ones (Kiwipete
and positions 4 and 5 to depth 4, position 3 to depth 5) included; these
positions exercise castling through attacked squares, promotions and
en-passant pins, which the initial position barely reaches.  The check
evasions, pin lines and per-square legal lists of the context, the attack
probe behind them and the table-driven piece targets are compared with
the oracle, and the square map a child board inherits (its occupancy,
bitboards and castling rights) with the one built from its pieces.
Perft with a pool, which hands its workers square maps and keys, is
checked against the serial count where the map carries a partial
castling-rights mask, an en-passant window or a played history.  Perft's
incremental Zobrist key is checked against the key from scratch at every
node it visits, and to give one key to a position reached by two move
orders and different keys to positions differing only in castling rights
or a live en-passant capture.  The
interned move table, the piece rows and the per-square masks are checked
to start empty, the move table to be a pure cache read under one int key
per row, the masks to be filled by a FEN parse only where its check test
reads, and a pickled move or piece to be hashed afresh where it is
unpickled.  The start board holds the interned pieces, moves a caller
builds from fresh pieces act like the generated ones, move equality is
not decided by the hash alone, the gate refuses a mover not on its
square, and castling is probed only while the side holds a castling
right.  The count of per-piece walks one corpus validation makes is
checked to be the same in every process.
"""

import multiprocessing
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chessval import board as board_module
from chessval.board import (
    FULL,
    Board,
    IllegalMoveError,
    Move,
    _apply,
    _boards,
    _changes,
    _child_key,
    _context,
    _Context,
    _divide,
    _en_passant_targets,
    _king_context,
    _legal_for_piece,
    _moves_onto,
    _occupancy,
    _square_attacked,
    attacked_squares,
    has_legal_move,
    in_check,
    legal_moves,
    move,
    perft,
    possible_moves,
)
from chessval.cli import _coordinate_text
from chessval.fen import parse_fen
from chessval.game import game_move, new_game
from chessval.pieces import (
    SQUARES,
    Colour,
    Coordinate,
    Piece,
    PieceType,
    _ROWS,
    _Table,
    moves_with_colours,
    opposite_colour,
    pieces_to_obstacles,
    square_at,
    square_index,
    type_based_moves,
)

from drivers import canonical_order
from oracles import (
    _pseudo_legal,
    move_key,
    oracle_attacked,
    oracle_legal_moves,
    random_sparse_board,
)
from positions import KIWIPETE, POSITION_3, POSITION_4, POSITION_4_MIRROR, POSITION_5

PUBLISHED = [
    (KIWIPETE, [48, 2039, 97862, 4085603]),
    (POSITION_3, [14, 191, 2812, 43238, 674624]),
    (POSITION_4, [6, 264, 9467, 422333]),
    (POSITION_4_MIRROR, [6, 264, 9467, 422333]),
    (POSITION_5, [44, 1486, 62379, 2103487]),
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


def _move_kinds(occ, mov):
    """The kinds of mov, against the occupancy before it, that patch more
    than its own two squares, move a king or open an en-passant window:
    castling (by the king's destination file), en passant, promotion by
    push or by capture, a rook taken on its corner, any king move, a double
    push landing beside an enemy pawn or beside none."""
    origin, target = mov.from_.square, mov.to_.square
    dead = occ[square_at(target.x, target.y)]
    pawn, king = mov.from_.type is PieceType.PAWN, mov.from_.type is PieceType.KING
    beside = [occ[square_at(x, target.y)] for x in (target.x - 1, target.x + 1) if 1 <= x <= 8]
    enemy_beside = any(
        p is not None and p.type is PieceType.PAWN and p.colour is not mov.from_.colour
        for p in beside
    )
    kinds = {
        ("castling", target.x): king and abs(target.x - origin.x) == 2,
        "en passant": pawn and target.x != origin.x and dead is None,
        "promotion by push": mov.to_.type is not mov.from_.type and target.x == origin.x,
        "promotion by capture": mov.to_.type is not mov.from_.type and target.x != origin.x,
        "rook taken on its corner": dead is not None and dead.type is PieceType.ROOK
        and target.x in (1, 8) and target.y in (1, 8),
        "king move": king,
        "double push beside an enemy pawn": pawn and abs(target.y - origin.y) == 2 and enemy_beside,
        "double push beside none": pawn and abs(target.y - origin.y) == 2 and not enemy_beside,
    }
    return {kind for kind, holds in kinds.items() if holds}


def _rights_from_history(board):
    """The castling-rights mask a board built afresh from the same pieces
    and history computes."""
    return Board(board.board_state, board.history)._contexts[None][2]


def test_a_child_inherits_the_square_map_its_pieces_give():
    def check(board, colour, depth):
        for mov, _ in _divide(board, colour, 1):
            seen.update(_move_kinds(_occupancy(board.board_state), mov))
            child = _apply(board, mov)
            occ, boards, rights = child._contexts[None]
            assert occ == _occupancy(child.board_state), mov
            assert boards == _boards(child.board_state), mov  # the XOR-patched bitboards
            assert rights == _rights_from_history(child), mov
            if depth > 1:
                check(child, opposite_colour(colour), depth - 1)

    seen = set()
    for fen, _ in PUBLISHED:
        game = parse_fen(fen)
        check(game.board, game.turn, 2)
    for board, colour in _sample_positions():
        check(board, colour, 1)
    assert seen >= {
        ("castling", 7), ("castling", 3), "en passant", "promotion by push",
        "promotion by capture", "rook taken on its corner", "king move",
    }


def test_counting_the_last_ply_agrees_with_lifting_it():
    def check(board, colour, depth):
        children = [(mov, _apply(board, mov)) for mov, _ in _divide(board, colour, 1)]
        assert perft(board, colour, 1) == len(children)
        enemy = opposite_colour(colour)
        assert perft(board, colour, 2) == sum(
            len(_divide(child, enemy, 1)) for _, child in children
        )
        for mov, child in children:
            seen.update(_move_kinds(_occupancy(board.board_state), mov))
            if depth > 1:
                check(child, enemy, depth - 1)

    seen = set()
    for fen, _ in PUBLISHED:
        game = parse_fen(fen)
        check(game.board, game.turn, 2)
    for board, colour in _sample_positions():
        check(board, colour, 1)
    assert seen >= {
        ("castling", 7), ("castling", 3), "en passant", "promotion by push",
        "promotion by capture", "rook taken on its corner",
    }


def _scratch_key(square_map, last, colour):
    """The full key of a square map's position after `last` with `colour`
    to move, from scratch, field by field: the pieces' Zobrist numbers
    XORed, the castling-rights mask at bit 128 and, while one of the side's
    pawns stands beside the pawn that double-pushed, the square it captures
    onto at bit 132."""
    occ, boards, rights = square_map
    key = rights << 128
    for s, piece in enumerate(occ):
        if piece is not None:
            key ^= board_module._ZOBRIST[piece.colour, piece.type][s]
    beside, skipped = _en_passant_targets(last, colour)
    if boards[board_module._SIDE[colour]] & beside:
        key |= skipped << 132
    return key


def test_the_incremental_key_equals_the_key_from_scratch(monkeypatch):
    # perft keeps keys in a tree with a depth to look up (depth 4 on); each
    # node it visits there is checked, and the square map of the node above
    # tells the kind of move that led to it.  Keys are relative to the root,
    # whose key is 0: a node's is its key from scratch XOR the root's with
    # the en-passant field clear
    perft_, parents, seen, root = board_module._perft, [], set(), []

    def checking(square_map, last, colour, depth, key, tables):
        assert key == _scratch_key(square_map, last, colour) ^ root[0], last
        seen.update(_move_kinds(parents[-1][0], last))
        parents.append(square_map)
        try:
            return perft_(square_map, last, colour, depth, key, tables)
        finally:
            parents.pop()

    monkeypatch.setattr(board_module, "_perft", checking)
    # position 4 promotes; the second castles on both wings, takes a rook on
    # its corner and double-pushes beside an enemy pawn and beside none; the
    # third's root holds a live en-passant capture (its count is the oracle's)
    for fen, nodes in (
        (POSITION_4, 422333),
        ("r3k3/8/8/8/1p6/8/P7/4K2R w Kq - 0 1", 71194),
        ("r3k3/8/8/8/3pP3/8/8/4K2R b Kq e3 0 1", 72442),
    ):
        game = parse_fen(fen)
        square_map, history = game.board._contexts[None], game.board.history
        last = history[0] if history else None
        root[:] = [_scratch_key(square_map, last, game.turn) & board_module._LESS_PASSANT]
        parents[:] = [square_map]
        assert perft(game.board, game.turn, 4) == nodes
    assert seen >= {
        ("castling", 7), ("castling", 3), "en passant", "promotion by push",
        "promotion by capture", "rook taken on its corner",
        "double push beside an enemy pawn", "double push beside none",
    }


def _key_after(fen, plies):
    """The key perft's chain gives the position after `plies` (from and to
    squares, as "g1f3") from a FEN position, checked against the key from
    scratch there."""
    game = parse_fen(fen)
    board, colour = game.board, game.turn

    def from_scratch():
        last = board.history[0] if board.history else None
        return _scratch_key(board._contexts[None], last, colour)

    key = from_scratch()
    for ply in plies:
        context = _context(board, colour)
        key &= board_module._LESS_PASSANT  # the en-passant field cleared, as _perft clears it
        mov = next(m for m in legal_moves(board, colour) if _coordinate_text(m) == ply)
        key = _child_key(key, board._contexts[None], mov, _changes(context.occ, mov))
        board, colour = _apply(board, mov), opposite_colour(colour)
    assert key == from_scratch()
    return key


@pytest.mark.parametrize(
    "fen, one_order, another",
    [
        (
            "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1",
            ["g1f3", "g8f6", "b1c3"], ["b1c3", "g8f6", "g1f3"],
        ),
        # each order gives up the same three castling rights
        (
            "r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1",
            ["a1b1", "h8g8", "h1h2"], ["h1h2", "h8g8", "a1b1"],
        ),
        ("4k3/8/8/3p4/8/2N5/8/4K3 w - - 0 1", ["c3d5", "e8d7", "e1d2"], ["e1d2", "e8d7", "c3d5"]),
    ],
    ids=["quiet", "castling-rights", "capture"],
)
def test_two_move_orders_reaching_one_position_give_one_key(fen, one_order, another):
    assert _key_after(fen, one_order) == _key_after(fen, another)


@pytest.mark.parametrize(
    "fen, other, same",
    [
        ("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1", "r3k2r/8/8/8/8/8/8/R3K2R w Kkq - 0 1", False),
        ("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1", "r3k2r/8/8/8/8/8/8/R3K2R w - - 0 1", False),
        # a live en-passant capture, one on another file, and a window no
        # pawn stands beside
        ("4k3/8/8/8/3pP3/8/8/4K3 b - e3 0 1", "4k3/8/8/8/3pP3/8/8/4K3 b - - 0 1", False),
        ("4k3/8/8/8/3PpP2/8/8/4K3 b - d3 0 1", "4k3/8/8/8/3PpP2/8/8/4K3 b - f3 0 1", False),
        ("4k3/8/8/8/2p1P3/8/8/4K3 b - e3 0 1", "4k3/8/8/8/2p1P3/8/8/4K3 b - - 0 1", True),
    ],
    ids=[
        "one-right", "all-rights", "live-en-passant", "live-en-passant-on-another-file",
        "en-passant-window-without-a-pawn",
    ],
)
def test_castling_rights_and_a_live_en_passant_capture_are_in_the_key(fen, other, same):
    assert (_key_after(fen, []) == _key_after(other, [])) is same


def test_the_legal_move_list_never_holds_a_move_twice():
    for board, colour in _sample_positions():
        moves = [m for m, _ in _divide(board, colour, 1)]
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
        # double check: only king steps
        ("R3r2k/8/8/8/8/3n4/8/4K3 w - - 0 1", 3),
        # en passant captures the checking pawn
        ("8/8/8/2k5/3Pp3/8/8/4K3 b - d3 0 1", 9),
        # a pinned bishop may not block a check
        ("4r2k/8/8/8/8/8/4B3/4K2q w - - 0 1", 2),
        # a knight blocks a diagonal check
        ("4k3/8/8/8/1b6/8/8/R2NK3 w Q - 0 1", 4),
        # the king takes an unprotected checker
        ("4k3/8/8/8/8/8/4q3/4K3 w - - 0 1", 1),
        # no castling through an attacked square
        ("4k3/8/8/8/8/8/5r2/R3K2R w KQ - 0 1", 22),
    ],
)
def test_pin_and_check_edge_cases_match_the_oracle(fen, count):
    game = parse_fen(fen)
    engine = {move_key(m) for m in legal_moves(game.board, game.turn)}
    assert engine == oracle_legal_moves(game.board, game.turn)
    assert len(engine) == count


def _oracle_king_context(grid, colour):
    """The check flag, the pin lines and the check evasions by the book:
    per enemy piece, whether it attacks the king (every other enemy piece
    turned to the king's colour, so it still blocks); a piece is pinned by
    an enemy slider that attacks the king once that piece is lifted off,
    its line running from the king up to the pinner; one checker's
    evasions are its square and, for a slider, the squares between."""
    king = next(sq for sq, p in grid.items() if p.type is PieceType.KING and p.colour is colour)
    enemy = opposite_colour(colour)

    def attacks(by_sq, pieces):
        alone = {sq: p if sq == by_sq else Piece(p.type, p.square, colour) for sq, p in pieces.items()}
        return oracle_attacked(alone, *king, enemy)

    def line(to_sq):
        (kx, ky), (tx, ty) = king, to_sq
        dx, dy = (tx > kx) - (tx < kx), (ty > ky) - (ty < ky)
        n = max(abs(tx - kx), abs(ty - ky))
        return {(kx + i * dx, ky + i * dy) for i in range(1, n + 1)}

    enemies = [sq for sq, p in grid.items() if p.colour is enemy]
    checkers = [sq for sq in enemies if attacks(sq, grid)]
    pins = {}
    for sq, p in grid.items():
        if p.colour is colour and p.type is not PieceType.KING:
            lifted = {t: q for t, q in grid.items() if t != sq}
            for by in enemies:
                if grid[by].type in (PieceType.BISHOP, PieceType.ROOK, PieceType.QUEEN) and (
                    attacks(by, lifted) and not attacks(by, grid)
                ):
                    pins[sq] = line(by)
    if not checkers:
        evasions = {(x, y) for x in range(1, 9) for y in range(1, 9)}
    elif len(checkers) > 1:
        evasions = set()
    elif grid[checkers[0]].type in (PieceType.BISHOP, PieceType.ROOK, PieceType.QUEEN):
        evasions = line(checkers[0])
    else:
        evasions = {checkers[0]}
    return bool(checkers), pins, evasions


def _squares_of(mask):
    return {(s % 8 + 1, s // 8 + 1) for s in range(64) if mask >> s & 1}


def test_the_king_context_masks_match_the_oracle():
    rng = random.Random(16)
    checked = pinned = double = 0
    while checked < 150 or pinned < 100 or double < 5:
        board, colour = random_sparse_board(rng, max_extra=10)
        grid = {(p.square.x, p.square.y): p for p in board.board_state}
        for side in Colour:
            expected_check, expected_pins, expected_evasions = _oracle_king_context(grid, side)
            *_, flag, pins, evasions = _king_context(_boards(board.board_state), side)
            assert flag == expected_check
            assert {(s % 8 + 1, s // 8 + 1): _squares_of(m) for s, m in pins.items()} == expected_pins
            assert _squares_of(evasions) == expected_evasions
            checked += flag
            pinned += bool(pins)
            double += flag and not evasions


def test_sparse_positions_in_check_or_with_a_pin_match_the_oracle():
    rng = random.Random(6)
    checked = pinned = 0
    while checked < 200 or pinned < 50:
        board, colour = random_sparse_board(rng, max_extra=8)
        engine = {move_key(m) for m in legal_moves(board, colour)}
        assert engine == oracle_legal_moves(board, colour)
        checked += in_check(board.board_state, colour)
        pinned += bool(_context(board, colour).pins)


def test_the_attack_probe_agrees_with_attacked_squares_and_the_oracle():
    # on a square the side holds only its pawns count: there attacked_squares
    # answers the oracle's pawn rule alone, and the probe is not asked
    rng = random.Random(7)
    defended = 0
    for _ in range(1000):
        board, _ = random_sparse_board(rng, max_extra=10)
        grid = {(p.square.x, p.square.y): p for p in board.board_state}
        pawns = {xy: p for xy, p in grid.items() if p.type is PieceType.PAWN}
        boards = _boards(board.board_state)
        for by in Colour:
            listed = attacked_squares(board.board_state, by)
            for x in range(1, 9):
                for y in range(1, 9):
                    if (x, y) in grid and grid[x, y].colour is by:
                        expected = oracle_attacked(pawns, x, y, by)
                        assert (Coordinate(x, y) in listed) == expected, (x, y, by)
                        defended += expected
                        continue
                    probe = _square_attacked(_king_context(boards, opposite_colour(by))[2], sum(boards), square_at(x, y))
                    expected = oracle_attacked(grid, x, y, by)
                    assert probe == (Coordinate(x, y) in listed) == expected, (x, y, by)
    assert defended


def _oracle_targets(grid, piece):
    """The oracle's basic-pattern squares for a piece: its pseudo-legal
    targets on an empty history, less the double push and castling."""
    fx, fy = piece.square.x, piece.square.y
    return {
        Coordinate(tx, ty)
        for tx in range(1, 9)
        for ty in range(1, 9)
        if (tx, ty) != (fx, fy)
        and _pseudo_legal(grid, (), piece, fx, fy, tx, ty)
        and not (piece.type is PieceType.PAWN and abs(ty - fy) == 2)
        and not (piece.type is PieceType.KING and abs(tx - fx) == 2)
    }


def _unfiltered(occ, colour):
    """A context with no king to guard: the walk's targets unfiltered."""
    boards = _boards(p for p in occ if p is not None)
    return _Context(
        occ=occ, boards=boards, rights=15, colour=colour,
        us=sum(boards[:6] if colour is Colour.WHITE else boards[6:]), occupied=sum(boards),
        attackers=_king_context(boards, colour)[2], king=None, checked=False,
        pins={}, evasions=FULL, moves={}, passant=(0, 0), slides=None,
    )


def _walked(context, s):
    """The moves one walk over the piece on square index s lists."""
    _legal_for_piece(context, 1 << s)
    return context.moves[s]


def _geometry_matches_the_oracle(pieces, piece):
    """Assert that moves_with_colours, type_based_moves and the oracle give
    a piece the same targets among `pieces`, and return them."""
    targets = moves_with_colours(piece, _occupancy(pieces))
    assert len(targets) == len(set(targets))
    lifted = {SQUARES[s] for s in targets}
    assert lifted == type_based_moves(piece, pieces_to_obstacles(pieces))
    assert lifted == _oracle_targets({(p.square.x, p.square.y): p for p in pieces}, piece), piece
    return lifted


def test_the_table_driven_targets_match_the_obstacle_api_and_the_oracle():
    rng = random.Random(8)
    for _ in range(300):
        board, _ = random_sparse_board(rng, max_extra=12)
        occ = _occupancy(board.board_state)
        grid = {(p.square.x, p.square.y): p for p in board.board_state}
        for piece in board.board_state:
            lifted = _geometry_matches_the_oracle(board.board_state, piece)
            walked = _walked(_unfiltered(occ, piece.colour), square_at(piece.square.x, piece.square.y))
            assert len(walked) == len(set(walked))
            walked = {m.to_.square for m in walked}
            if piece.type is PieceType.PAWN:
                x, y = piece.square.x, piece.square.y
                forward = 2 if piece.colour is Colour.WHITE else -2
                if 1 <= y + forward <= 8 and _pseudo_legal(grid, (), piece, x, y, x, y + forward):
                    lifted.add(Coordinate(x, y + forward))
            assert walked == lifted, piece
        for colour in Colour:  # one walk over a side is its pieces' walks in turn
            side = [s for s, p in enumerate(occ) if p is not None and p.colour is colour]
            each = {s: _walked(_unfiltered(occ, colour), s) for s in side}
            whole = _unfiltered(occ, colour)
            _legal_for_piece(whole, FULL)
            assert whole.moves == each
            assert _legal_for_piece(whole, FULL, True) == sum(map(len, each.values()))
    # a pawn of either colour on every square, ranks 1 and 8 included, among
    # random pieces (the walk never meets a pawn on its last rank)
    for colour in Colour:
        for square in SQUARES:
            board, _ = random_sparse_board(rng, max_extra=12)
            pawn = Piece(PieceType.PAWN, square, colour)
            others = {p for p in board.board_state if p.square != square}
            _geometry_matches_the_oracle(others | {pawn}, pawn)


def test_the_legal_lists_do_not_depend_on_which_query_filled_them(monkeypatch):
    computed = []
    legal_for_piece = board_module._legal_for_piece

    def counting(context, wanted, count=False, onto=FULL):
        if not count and onto == FULL:  # the pieces whose lists this walk keeps
            own = board_module._SIDE[context.colour]
            pieces = sum(context.boards[own:own + 6]) & wanted
            computed.extend((context.colour, s) for s in range(64) if pieces >> s & 1)
        return legal_for_piece(context, wanted, count, onto)

    monkeypatch.setattr(board_module, "_legal_for_piece", counting)
    for board, colour in _sample_positions():
        expected = legal_moves(Board(board.board_state, board.history), colour)
        mov = canonical_order(expected)[0]
        fillers = [
            lambda b: has_legal_move(b, colour),
            lambda b: move(b, mov),
            lambda b: _moves_onto(_context(b, colour), mov.from_.type, square_index(mov.to_.square)),
            lambda b: has_legal_move(b, opposite_colour(colour)),
        ]
        for fill in fillers:
            fresh = Board(board.board_state, board.history)
            computed.clear()
            fill(fresh)
            if fill is fillers[2]:  # the onto walk keeps no list
                assert not computed and not _context(fresh, colour).moves
            assert legal_moves(fresh, colour) == expected
            assert possible_moves(fresh, mov.from_) == {
                m for m in expected if m.from_ == mov.from_
            }
            assert len(computed) == len(set(computed))  # once per piece


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


def _played(plies):
    game = new_game()
    for _ in range(plies):
        game, _ = game_move(game, canonical_order(legal_moves(game.board, game.turn))[0])
    return game


@pytest.mark.parametrize(
    "game, nodes",
    [
        (parse_fen("r3k2r/8/8/8/8/8/8/R3K2R w Kq - 0 1"), 287755),  # a partial rights mask
        (parse_fen("8/8/8/KPp4r/8/8/8/7k w - c6 0 1"), 4225),  # an en-passant window
        (_played(4), 186356),
    ],
    ids=["partial-rights", "en-passant-window", "four-plies-played"],
)
def test_the_pool_receives_each_root_move_s_square_map(game, nodes):
    # the rights mask, the last move and the key must reach the workers with
    # the map; from depth 4 the workers look positions up in the count table
    assert perft(game.board, game.turn, 4, jobs=2) == perft(game.board, game.turn, 4) == nodes
    assert dict(_divide(game.board, game.turn, 4, jobs=2)) == dict(
        _divide(game.board, game.turn, 4)
    )


def test_the_move_table_starts_empty_on_import():
    path = [p for p in sys.path if p]
    code = (
        f"import sys; sys.path[:0] = {path!r}; import chessval.board as b, chessval.pieces as p; "
        "print([len(t) for t in (b._MOVES, b._MOVE_KEYS, b._ZOBRIST,"
        " p._ROWS, p._STEPS, p._BETWEEN, p._SLIDES)])"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0]"


def test_an_import_fills_no_square_masks_and_a_parse_only_those_it_reads():
    path = [p for p in sys.path if p]
    code = (
        f"import sys; sys.path[:0] = {path!r}; import chessval, chessval.board as b; "
        "filled = lambda: [sorted(t) for t in (b._STEPS, b._BETWEEN, b._SLIDES)]; "
        "print(filled()); chessval.fen.parse_fen(sys.argv[1]); print(filled())"
    )
    start = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"
    run = subprocess.run(
        [sys.executable, "-c", code, start], capture_output=True, text=True, check=True
    )
    # parsing tests only that black, not to move, is not in check: e8's step
    # masks; no white slider shares a line with e8, so nothing lies between
    assert run.stdout.split("\n")[:2] == ["[[], [], []]", "[[60], [], []]"]


_COUNT_WALKS = """
import io, sys
sys.path[:0] = {path!r}
import chessval.board as b, chessval.cli as cli
calls, walk = [0], b._legal_for_piece
def counting(*args):
    calls[0] += 1
    return walk(*args)
b._legal_for_piece = counting
cli.cmd_validate([sys.argv[1]], out=io.StringIO(), err=io.StringIO())
print(calls[0])
"""


def test_a_corpus_validation_walks_the_same_pieces_in_every_process():
    # Colour and PieceType hash by identity, so a piece set iterates in an
    # order that differs from process to process; the walks must not.
    code = _COUNT_WALKS.format(path=[p for p in sys.path if p])
    corpus = str(Path(__file__).parent / "data" / "corpus.pgn")
    runs = [
        subprocess.Popen([sys.executable, "-c", code, corpus], stdout=subprocess.PIPE, text=True)
        for _ in range(3)
    ]
    counts = {run.communicate(timeout=300)[0].strip() for run in runs}
    assert len(counts) == 1 and int(counts.pop()) > 0


def _row_key(mov):
    """The key of mov's row in the move table: moving slot << 10 | arriving
    slot << 6 | from-square index."""
    slot = board_module._SLOT
    f = square_at(mov.from_.square.x, mov.from_.square.y)
    return slot[mov.from_.colour, mov.from_.type] << 10 | slot[mov.to_.colour, mov.to_.type] << 6 | f


def test_the_move_table_is_a_pure_cache(monkeypatch):
    for board, colour in _sample_positions():
        moves = [m for m, _ in _divide(board, colour, 1)]
        for mov, again in zip(moves, [m for m, _ in _divide(board, colour, 1)], strict=True):
            fresh = Move(mov.from_, mov.to_)
            assert mov == fresh and hash(mov) == hash(fresh) and repr(mov) == repr(fresh)
            assert again is mov
            # every kind of move, castling and promotion included, is read from
            # the row under its (moving slot, arriving slot, from-square) key
            t = square_at(mov.to_.square.x, mov.to_.square.y)
            assert board_module._MOVES[_row_key(mov)][t] is mov
        filled = legal_moves(board, colour)
        with monkeypatch.context() as patch:
            patch.setattr(board_module, "_MOVES", _Table(board_module._move_row))
            assert legal_moves(Board(board.board_state, board.history), colour) == filled


def test_a_promotion_target_yields_the_four_interned_moves():
    game = parse_fen("4k3/P7/8/8/8/8/8/4K3 w - - 0 1")
    a7, a8 = square_at(1, 7), square_at(1, 8)
    moves = [m for m, _ in _divide(game.board, game.turn, 1) if m.from_.type is PieceType.PAWN]
    slot = board_module._SLOT
    interned = [
        board_module._MOVES[slot[Colour.WHITE, PieceType.PAWN] << 10 | slot[Colour.WHITE, kind] << 6 | a7][a8]
        for kind in (PieceType.QUEEN, PieceType.ROOK, PieceType.BISHOP, PieceType.KNIGHT)
    ]
    assert len(moves) == 4 and {id(m) for m in moves} == {id(m) for m in interned}
    assert {m.to_.type for m in interned} == {
        PieceType.QUEEN, PieceType.ROOK, PieceType.BISHOP, PieceType.KNIGHT
    }


def test_the_start_board_holds_the_interned_pieces():
    pieces = new_game().board.board_state
    assert len(pieces) == 32
    for p in pieces:
        assert p is _ROWS[p.type, p.colour][square_at(p.square.x, p.square.y)]
        assert p.square is SQUARES[square_at(p.square.x, p.square.y)]


def _uninterned(piece):
    """A Piece equal to `piece` built from a fresh Coordinate, as a caller
    would build it."""
    return Piece(piece.type, Coordinate(piece.square.x, piece.square.y), piece.colour)


def test_moves_a_caller_builds_from_fresh_pieces_act_like_the_generated_ones():
    for board, colour in list(_sample_positions())[::7]:
        # the same position, its pieces not the interned ones
        rebuilt = Board(frozenset(map(_uninterned, board.board_state)), board.history)
        assert legal_moves(rebuilt, colour) == legal_moves(board, colour)
        for mov in legal_moves(board, colour):
            fresh = Move(_uninterned(mov.from_), _uninterned(mov.to_))
            assert fresh is not mov and fresh.from_ is not mov.from_
            assert fresh == mov and mov == fresh and hash(fresh) == hash(mov)
            assert fresh in legal_moves(board, colour)
            after = move(board, mov)
            assert move(board, fresh) == after == move(rebuilt, fresh) == move(rebuilt, mov)


def test_move_equality_does_not_answer_from_the_hash_alone():
    mov, other = sorted(legal_moves(new_game().board, Colour.WHITE), key=repr)[:2]
    twin = Move(other.from_, other.to_)
    object.__setattr__(twin, "_hash", mov._hash)  # a hash collision
    assert twin != mov and mov != twin
    assert len({mov, twin}) == 2


def test_the_gate_refuses_a_mover_that_is_not_on_its_square():
    board = new_game().board
    knight = Piece(PieceType.KNIGHT, Coordinate(2, 1), Colour.WHITE)
    jump = Move(knight, Piece(PieceType.KNIGHT, Coordinate(3, 3), Colour.WHITE))
    assert move(board, jump).history == (jump,)
    for mover in (
        Piece(PieceType.BISHOP, Coordinate(2, 1), Colour.WHITE),  # another piece on b1
        Piece(PieceType.KNIGHT, Coordinate(2, 1), Colour.BLACK),  # another colour
        Piece(PieceType.KNIGHT, Coordinate(4, 4), Colour.WHITE),  # an empty square
    ):
        stray = Move(mover, Piece(mover.type, Coordinate(3, 3), mover.colour))
        with pytest.raises(IllegalMoveError, match="piece not on the board"):
            move(board, stray)


def test_castling_is_probed_only_while_the_side_holds_a_right(monkeypatch):
    probed, probe = [], board_module._castling_moves
    monkeypatch.setattr(board_module, "_castling_moves", lambda c: probed.append(c.colour) or probe(c))
    for rights, expected in (("KQkq", 2), ("-", 0), ("k", 0)):
        probed.clear()
        game = parse_fen(f"r3k2r/8/8/8/8/8/8/R3K2R w {rights} - 0 1")
        castlings = [m for m in legal_moves(game.board, game.turn) if board_module.iss_castling(game.board, m)]
        assert len(castlings) == expected
        assert has_legal_move(game.board, game.turn)
        assert probed == ([Colour.WHITE] if expected else [])


def _rehashed_where_unpickled(payload: bytes) -> list[bool]:
    """Run in a spawned process: unpickle a move and a board with history
    and compare them with moves built in this process."""
    mov, board, colour = pickle.loads(payload)
    checks = []
    for m in (mov, *board.history):
        fresh = Move(m.from_, m.to_)
        checks += [hash(m) == hash(fresh), m in frozenset({fresh})]
    legal = legal_moves(board, colour)
    return checks + [mov in legal, Move(mov.from_, mov.to_) in legal]


def _pieces_hashed_afresh(payload: bytes) -> list[bool]:
    """Run in a spawned process: unpickle pieces and compare their hashes
    with those of pieces built in this process."""
    return [hash(p) == hash(_uninterned(p)) and p in {_uninterned(p)} for p in pickle.loads(payload)]


def test_a_pickled_piece_is_hashed_afresh_in_a_spawned_process():
    pieces = sorted(new_game().board.board_state, key=repr)
    payload = pickle.dumps(pieces)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        checks = pool.apply(_pieces_hashed_afresh, (payload,))
    assert len(checks) == 32 and all(checks)


def test_a_pickled_move_is_hashed_afresh_in_a_spawned_process():
    # spawn, not fork: a forked child keeps the parent's object ids, so the
    # identity-based Colour and PieceType hashes would still agree there.
    game = _played(4)
    mov = canonical_order(legal_moves(game.board, game.turn))[0]
    payload = pickle.dumps((mov, game.board, game.turn))
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        checks = pool.apply(_rehashed_where_unpickled, (payload,))
    assert len(checks) == 2 * 5 + 2 and all(checks)
