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
Perft with a pool, which hands its workers square maps, is checked
against the serial count where the map carries a partial castling-rights
mask, an en-passant window or a played history.  The
interned move table, the piece rows and the per-square masks are checked
to start empty, the move table to be a pure cache, the masks to be
filled by a FEN parse only where its check test reads, and a pickled move
to be hashed afresh where it is unpickled.  The count of per-piece walks
one corpus validation makes is checked to be the same in every process.
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
    Move,
    _apply,
    _attackers,
    _boards,
    _context,
    _Context,
    _divide,
    _king_context,
    _legal_for_piece,
    _occupancy,
    _square_attacked,
    attacked_squares,
    has_legal_move,
    in_check,
    iss_castling,
    iss_en_passant,
    legal_moves,
    move,
    perft,
    possible_moves,
)
from chessval.fen import parse_fen
from chessval.game import Game, game_move, new_game
from chessval.pgn import _candidates
from chessval.pieces import (
    SQUARES,
    Colour,
    Coordinate,
    Piece,
    PieceType,
    moves_with_colours,
    opposite_colour,
    pieces_to_obstacles,
    square_at,
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


def _move_kinds(board, mov):
    """The kinds of mov that patch more than its own two squares or move a
    king: castling (by the king's destination file), en passant, promotion
    by push or by capture, a rook taken on its corner, any king move."""
    origin, target = mov.from_.square, mov.to_.square
    dead = _context(board, mov.from_.colour).occ[square_at(target.x, target.y)]
    kinds = {
        ("castling", target.x): iss_castling(board, mov),
        "en passant": iss_en_passant(board, mov),
        "promotion by push": mov.to_.type is not mov.from_.type and target.x == origin.x,
        "promotion by capture": mov.to_.type is not mov.from_.type and target.x != origin.x,
        "rook taken on its corner": dead is not None and dead.type is PieceType.ROOK
        and target.x in (1, 8) and target.y in (1, 8),
        "king move": mov.from_.type is PieceType.KING,
    }
    return {kind for kind, holds in kinds.items() if holds}


def _rights_from_history(board):
    """The castling-rights mask a board built afresh from the same pieces
    and history computes."""
    fresh = Board(board.board_state, board.history)
    _context(fresh, Colour.WHITE)
    return fresh._contexts[None][2]


def test_a_child_inherits_the_square_map_its_pieces_give():
    def check(board, colour, depth):
        for mov, _ in _divide(board, colour, 1):
            seen.update(_move_kinds(board, mov))
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
            seen.update(_move_kinds(board, mov))
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
    rng = random.Random(7)
    for _ in range(1000):
        board, _ = random_sparse_board(rng, max_extra=10)
        grid = {(p.square.x, p.square.y): p for p in board.board_state}
        boards = _boards(board.board_state)
        for by in Colour:
            listed = attacked_squares(board.board_state, by)
            for x in range(1, 9):
                for y in range(1, 9):
                    if (x, y) in grid and grid[x, y].colour is by:
                        continue
                    probe = _square_attacked(_attackers(boards, by), sum(boards), square_at(x, y))
                    expected = oracle_attacked(grid, x, y, by)
                    assert probe == (Coordinate(x, y) in listed) == expected, (x, y, by)


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
        attackers=_attackers(boards, opposite_colour(colour)), king=None, checked=False,
        pins={}, evasions=FULL, moves={}, passant={}, slides=None,
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

    def counting(context, wanted, count=False):
        if not count:  # the pieces whose lists this walk fills
            own = board_module._SIDE[context.colour]
            pieces = sum(context.boards[own:own + 6]) & wanted
            computed.extend((context.colour, s) for s in range(64) if pieces >> s & 1)
        return legal_for_piece(context, wanted, count)

    monkeypatch.setattr(board_module, "_legal_for_piece", counting)
    for board, colour in _sample_positions():
        expected = legal_moves(Board(board.board_state, board.history), colour)
        mov = canonical_order(expected)[0]
        fillers = [
            lambda b: has_legal_move(b, colour),
            lambda b: move(b, mov),
            lambda b: _candidates(Game(b, colour), mov.from_.type, mov.to_.square),
            lambda b: has_legal_move(b, opposite_colour(colour)),
        ]
        for fill in fillers:
            fresh = Board(board.board_state, board.history)
            computed.clear()
            fill(fresh)
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
        (parse_fen("r3k2r/8/8/8/8/8/8/R3K2R w Kq - 0 1"), 12647),  # a partial rights mask
        (parse_fen("8/8/8/KPp4r/8/8/8/7k w - c6 0 1"), 259),  # an en-passant window
        (_played(4), 7812),
    ],
    ids=["partial-rights", "en-passant-window", "four-plies-played"],
)
def test_the_pool_receives_each_root_move_s_square_map(game, nodes):
    # the rights mask and the last move must reach the workers with the map
    assert perft(game.board, game.turn, 3, jobs=2) == perft(game.board, game.turn, 3) == nodes
    assert dict(_divide(game.board, game.turn, 3, jobs=2)) == dict(
        _divide(game.board, game.turn, 3)
    )


def test_the_move_table_starts_empty_on_import():
    path = [p for p in sys.path if p]
    code = (
        f"import sys; sys.path[:0] = {path!r}; import chessval.board as b, chessval.pieces as p; "
        "print([len(t) for t in (b._MOVES, p._ROWS, p._STEPS, p._BETWEEN, p._SLIDES)])"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[0, 0, 0, 0, 0]"


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


def test_the_move_table_is_a_pure_cache(monkeypatch):
    for board, colour in _sample_positions():
        moves = [m for m, _ in _divide(board, colour, 1)]
        for mov, again in zip(moves, [m for m, _ in _divide(board, colour, 1)], strict=True):
            fresh = Move(mov.from_, mov.to_)
            assert mov == fresh and hash(mov) == hash(fresh) and repr(mov) == repr(fresh)
            assert again is mov
        filled = legal_moves(board, colour)
        with monkeypatch.context() as patch:
            patch.setattr(board_module, "_MOVES", {})
            assert legal_moves(Board(board.board_state, board.history), colour) == filled


def test_a_promotion_target_yields_the_four_interned_moves():
    game = parse_fen("4k3/P7/8/8/8/8/8/4K3 w - - 0 1")
    a7, a8 = square_at(1, 7), square_at(1, 8)
    moves = [m for m, _ in _divide(game.board, game.turn, 1) if m.from_.type is PieceType.PAWN]
    interned = [
        board_module._MOVES[PieceType.PAWN, kind, Colour.WHITE, a7][a8]
        for kind in (PieceType.QUEEN, PieceType.ROOK, PieceType.BISHOP, PieceType.KNIGHT)
    ]
    assert len(moves) == 4 and {id(m) for m in moves} == {id(m) for m in interned}


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


def test_a_pickled_move_is_hashed_afresh_in_a_spawned_process():
    # spawn, not fork: a forked child keeps the parent's object ids, so the
    # identity-based Colour and PieceType hashes would still agree there.
    game = _played(4)
    mov = canonical_order(legal_moves(game.board, game.turn))[0]
    payload = pickle.dumps((mov, game.board, game.turn))
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        checks = pool.apply(_rehashed_where_unpickled, (payload,))
    assert len(checks) == 2 * 5 + 2 and all(checks)
