"""Movement-pattern tests: frozen enumerations plus geometric properties."""

import pytest
from hypothesis import given, strategies as st

from chessval.pieces import (
    _BETWEEN,
    _SLIDES,
    _STEPS,
    ALL_DIRECTIONS,
    DIAGONAL_DIRECTIONS,
    KNIGHT_OFFSETS,
    ORTHOGONAL_DIRECTIONS,
    SQUARES,
    Colour,
    Coordinate,
    Obstacle,
    Piece,
    PieceType,
    _rays,
    coordinate_factory,
    opposite_colour,
    pieces_to_obstacles,
    possible_move_direction,
    possible_moves_direction,
    square_at,
    square_index,
    type_based_moves,
)

W, B = Colour.WHITE, Colour.BLACK


def C(x, y):
    return Coordinate(x, y)


def piece(t, x, y, colour=W):
    return Piece(t, C(x, y), colour)


def obstacles(*items):
    return frozenset(Obstacle(C(x, y), colour) for x, y, colour in items)


def initial_pieces():
    back = [
        PieceType.ROOK, PieceType.KNIGHT, PieceType.BISHOP, PieceType.QUEEN,
        PieceType.KING, PieceType.BISHOP, PieceType.KNIGHT, PieceType.ROOK,
    ]
    pieces = set()
    for x, t in enumerate(back, start=1):
        pieces.add(Piece(t, C(x, 1), W))
        pieces.add(Piece(PieceType.PAWN, C(x, 2), W))
        pieces.add(Piece(PieceType.PAWN, C(x, 7), B))
        pieces.add(Piece(t, C(x, 8), B))
    return frozenset(pieces)


def test_opposite_colour():
    assert opposite_colour(W) is B
    assert opposite_colour(B) is W


@pytest.mark.parametrize("colour", [W, B])
def test_opposite_colour_is_an_involution(colour):
    assert opposite_colour(opposite_colour(colour)) is colour


def test_coordinate_factory_in_range():
    assert coordinate_factory(1, 1) == C(1, 1)
    assert coordinate_factory(8, 8) == C(8, 8)


def test_coordinate_factory_takes_whole_valued_numbers():
    assert coordinate_factory(2.0, 1) is coordinate_factory(2, 1)
    assert coordinate_factory(True, 8.0) is coordinate_factory(1, 8)


@pytest.mark.parametrize(
    "x, y", [(0, 5), (8, 9), (-3, 4), (9, 1), (4, 0), (2.5, 1), ("a", 1), (1, None)]
)
def test_coordinate_factory_out_of_range_is_none(x, y):
    assert coordinate_factory(x, y) is None


def test_coordinate_rejects_out_of_range_construction():
    with pytest.raises(ValueError):
        Coordinate(0, 4)
    with pytest.raises(ValueError):
        Coordinate(3, 9)
    # nor a value that is not a whole number: a Piece there would get a
    # float square index, and 2.0 equals 2 but indexes nothing
    for x, y in ((1.5, 2), (2.0, 3), (4, 3.0), ("2", 3), (5, None)):
        with pytest.raises(ValueError, match="off the board"):
            Coordinate(x, y)


def test_single_step_on_empty_board():
    knight = piece(PieceType.KNIGHT, 2, 1)
    assert possible_move_direction(knight, frozenset(), (1, 2)) == C(3, 3)


def test_single_step_blocked_by_friendly_piece():
    knight = piece(PieceType.KNIGHT, 2, 1)
    assert possible_move_direction(knight, obstacles((3, 3, W)), (1, 2)) is None


def test_single_step_onto_enemy_is_a_capture():
    knight = piece(PieceType.KNIGHT, 2, 1)
    assert possible_move_direction(knight, obstacles((3, 3, B)), (1, 2)) == C(3, 3)


def test_single_step_off_board_is_none():
    knight = piece(PieceType.KNIGHT, 2, 1)
    assert possible_move_direction(knight, frozenset(), (-1, -2)) is None


def test_ray_runs_to_the_edge():
    rook = piece(PieceType.ROOK, 1, 1)
    expected = {C(1, y) for y in range(2, 9)}
    assert possible_moves_direction(rook, frozenset(), (0, 1)) == expected


def test_ray_ends_on_enemy_piece_inclusively():
    rook = piece(PieceType.ROOK, 1, 1)
    result = possible_moves_direction(rook, obstacles((1, 4, B)), (0, 1))
    assert result == {C(1, 2), C(1, 3), C(1, 4)}


def test_ray_stops_before_friendly_piece():
    rook = piece(PieceType.ROOK, 1, 1)
    assert possible_moves_direction(rook, obstacles((1, 2, W)), (0, 1)) == frozenset()


def test_ray_rejects_zero_direction():
    rook = piece(PieceType.ROOK, 1, 1)
    with pytest.raises(ValueError):
        possible_moves_direction(rook, frozenset(), (0, 0))


@pytest.mark.parametrize("others", [frozenset(), obstacles((5, 5, B))])
def test_single_step_rejects_zero_direction_as_the_ray_does(others):
    # the step once returned the piece's own square for (0, 0)
    knight = piece(PieceType.KNIGHT, 2, 1)
    with pytest.raises(ValueError, match="ray direction must be non-zero"):
        possible_move_direction(knight, others, (0, 0))
    with pytest.raises(ValueError, match="ray direction must be non-zero"):
        possible_moves_direction(knight, others, (0, 0))


def test_ray_rejects_two_obstacles_on_one_square():
    # which of them stops the ray would otherwise depend on the set's order
    rook = piece(PieceType.ROOK, 1, 1)
    with pytest.raises(ValueError, match="share a square"):
        possible_moves_direction(rook, obstacles((1, 4, W), (1, 4, B)), (0, 1))


def test_single_step_rejects_two_obstacles_on_one_square():
    rook = piece(PieceType.ROOK, 1, 1)
    with pytest.raises(ValueError, match="share a square"):
        possible_move_direction(rook, obstacles((1, 2, W), (1, 2, B)), (0, 1))


@given(
    st.frozensets(st.tuples(st.integers(0, 63), st.sampled_from([W, B])), max_size=16),
    st.sampled_from([W, B]),
)
def test_the_step_is_the_ray_s_nearest_square(holders, colour):
    others = frozenset(Obstacle(SQUARES[s], c) for s, c in holders)
    shared = len({s for s, _ in holders}) < len(holders)
    for s in range(64):
        p = Piece(PieceType.QUEEN, SQUARES[s], colour)
        for step in (possible_move_direction, possible_moves_direction):
            with pytest.raises(ValueError, match="ray direction must be non-zero"):
                step(p, others, (0, 0))
        for direction in ALL_DIRECTIONS + KNIGHT_OFFSETS:
            if shared:
                for step in (possible_move_direction, possible_moves_direction):
                    with pytest.raises(ValueError, match="share a square"):
                        step(p, others, direction)
                continue
            ray = possible_moves_direction(p, others, direction)
            nearest = min(
                ray, key=lambda c: max(abs(c.x - p.square.x), abs(c.y - p.square.y)), default=None
            )
            assert possible_move_direction(p, others, direction) == nearest


def test_type_based_moves_rejects_two_obstacles_on_one_square():
    rook = piece(PieceType.ROOK, 1, 1)
    with pytest.raises(ValueError, match="share a square"):
        type_based_moves(rook, obstacles((1, 4, W), (1, 4, B)))


def test_knight_moves_from_initial_position():
    os = pieces_to_obstacles(initial_pieces())
    knight = piece(PieceType.KNIGHT, 2, 1)
    assert type_based_moves(knight, os) == {C(1, 3), C(3, 3)}


def test_queen_is_boxed_in_at_the_start():
    os = pieces_to_obstacles(initial_pieces())
    queen = piece(PieceType.QUEEN, 4, 1)
    assert type_based_moves(queen, os) == frozenset()


def test_pawn_moves_forward_on_empty_board():
    pawn = piece(PieceType.PAWN, 5, 2)
    assert type_based_moves(pawn, frozenset()) == {C(5, 3)}


def test_pawn_attacks_diagonally_but_not_through_a_blocked_front():
    pawn = piece(PieceType.PAWN, 5, 4)
    os = obstacles((4, 5, B), (5, 5, B))
    assert type_based_moves(pawn, os) == {C(4, 5)}


def test_pawn_forward_square_blocked_by_any_colour():
    pawn = piece(PieceType.PAWN, 5, 4)
    assert type_based_moves(pawn, obstacles((5, 5, W))) == frozenset()


def test_black_pawn_moves_down_the_board():
    pawn = piece(PieceType.PAWN, 5, 7, B)
    assert type_based_moves(pawn, obstacles((4, 6, W))) == {C(5, 6), C(4, 6)}


def test_king_steps_one_square_in_all_directions():
    king = piece(PieceType.KING, 4, 4)
    assert type_based_moves(king, frozenset()) == {
        C(3, 3), C(3, 4), C(3, 5), C(4, 3), C(4, 5), C(5, 3), C(5, 4), C(5, 5),
    }


def test_bishop_in_a_corner():
    bishop = piece(PieceType.BISHOP, 1, 1)
    assert type_based_moves(bishop, frozenset()) == {C(i, i) for i in range(2, 9)}


def test_pieces_to_obstacles_empty():
    assert pieces_to_obstacles(frozenset()) == frozenset()


def test_pieces_to_obstacles_projects_square_and_colour():
    pawn = piece(PieceType.PAWN, 5, 2)
    assert pieces_to_obstacles({pawn}) == {Obstacle(C(5, 2), W)}


def test_pieces_to_obstacles_preserves_cardinality_of_initial_position():
    assert len(pieces_to_obstacles(initial_pieces())) == 32


# --- property tests -------------------------------------------------------

coords = st.builds(Coordinate, st.integers(1, 8), st.integers(1, 8))
colours = st.sampled_from([W, B])
piece_types = st.sampled_from(list(PieceType))
pieces_st = st.builds(Piece, piece_types, coords, colours)
obstacle_sets = st.dictionaries(coords, colours, max_size=12).map(
    lambda d: frozenset(Obstacle(sq, c) for sq, c in d.items())
)


@given(pieces_st, obstacle_sets)
def test_moves_stay_on_board_and_off_friendly_squares(p, os):
    friendly = {o.square for o in os if o.colour is p.colour}
    for target in type_based_moves(p, os):
        assert 1 <= target.x <= 8 and 1 <= target.y <= 8
        assert target not in friendly


@given(pieces_st, obstacle_sets, st.sampled_from(ALL_DIRECTIONS))
def test_rays_are_short_and_collinear(p, os, direction):
    ray = possible_moves_direction(p, os, direction)
    assert len(ray) <= 7
    dx, dy = direction
    for target in ray:
        steps_x = (target.x - p.square.x) * dy
        steps_y = (target.y - p.square.y) * dx
        if dx and dy:
            assert steps_x == steps_y
        elif dx:
            assert target.y == p.square.y
        else:
            assert target.x == p.square.x


@given(pieces_st, obstacle_sets, coords, colours)
def test_adding_an_obstacle_never_adds_moves_for_non_pawns(p, os, square, colour):
    if p.type is PieceType.PAWN:
        return
    if any(o.square == square for o in os):
        return
    grown = os | {Obstacle(square, colour)}
    assert type_based_moves(p, grown) <= type_based_moves(p, os)


@given(
    st.builds(Piece, st.just(PieceType.PAWN), coords, colours),
    obstacle_sets,
    coords,
)
def test_an_enemy_obstacle_adds_at_most_pawn_attack_squares(pawn, os, square):
    if any(o.square == square for o in os):
        return
    grown = os | {Obstacle(square, opposite_colour(pawn.colour))}
    dy = 1 if pawn.colour is W else -1
    attacks = {
        coordinate_factory(pawn.square.x + dx, pawn.square.y + dy) for dx in (-1, 1)
    }
    added = type_based_moves(pawn, grown) - type_based_moves(pawn, os)
    assert added <= attacks


@given(st.builds(Piece, st.just(PieceType.KNIGHT), coords, colours), obstacle_sets)
def test_knights_ignore_pieces_between_them_and_their_targets(knight, os):
    targets = {
        coordinate_factory(knight.square.x + dx, knight.square.y + dy)
        for dx, dy in ((1, 2), (-1, 2), (1, -2), (-1, -2), (2, 1), (-2, 1), (2, -1), (-2, -1))
    }
    restricted = frozenset(o for o in os if o.square in targets)
    assert type_based_moves(knight, os) == type_based_moves(knight, restricted)


def _mirror_coord(c):
    return Coordinate(c.x, 9 - c.y)


@given(pieces_st, obstacle_sets)
def test_movement_is_symmetric_under_board_mirroring(p, os):
    mirrored_piece = Piece(p.type, _mirror_coord(p.square), opposite_colour(p.colour))
    mirrored_os = frozenset(
        Obstacle(_mirror_coord(o.square), opposite_colour(o.colour)) for o in os
    )
    expected = {_mirror_coord(c) for c in type_based_moves(p, os)}
    assert type_based_moves(mirrored_piece, mirrored_os) == expected


def _walk(square, dx, dy, limit=7):
    """Square indices from `square` stepping (dx, dy), by coordinates."""
    out = []
    x, y = square.x + dx, square.y + dy
    while len(out) < limit and 1 <= x <= 8 and 1 <= y <= 8:
        out.append(x + 8 * y - 9)
        x, y = x + dx, y + dy
    return out


def _bits(squares):
    return sum(1 << t for t in squares)


def test_the_step_and_ray_tables_match_a_coordinate_walk():
    assert len(SQUARES) == 64
    for s, square in enumerate(SQUARES):
        assert square_index(square) == square_at(square.x, square.y) == s
        assert coordinate_factory(square.x, square.y) is square
        walks = {(dx, dy): _walk(square, dx, dy) for dx, dy in ALL_DIRECTIONS}
        assert _rays(s) == [_bits(walks[d]) for d in ALL_DIRECTIONS]

        def steps(offsets):
            return _bits(t for dx, dy in offsets for t in _walk(square, dx, dy, 1))

        # a white pawn attacks s from the diagonals below it, a black one from above
        below = [(dx, -1) for dx in (-1, 1)]
        above = [(dx, 1) for dx in (-1, 1)]
        assert _STEPS[s] == (
            steps(KNIGHT_OFFSETS), steps(ALL_DIRECTIONS), steps(below), steps(above),
            _bits(t for d in ORTHOGONAL_DIRECTIONS for t in walks[d]),
            _bits(t for d in DIAGONAL_DIRECTIONS for t in walks[d]),
        )
        between = [0] * 64
        for walk in walks.values():
            for n, t in enumerate(walk):
                between[t] = _bits(walk[:n])
        assert _BETWEEN[s] == tuple(between)
        # each slider's lines run through s, the upward ray first
        rook = [((0, 1), (0, -1)), ((1, 0), (-1, 0))]
        bishop = [((1, 1), (-1, -1)), ((-1, 1), (1, -1))]
        for field, pairs in enumerate((rook, bishop, rook + bishop)):
            lines = [
                (_bits(walks[up] + walks[down]), _bits(walks[down]), _bits(walks[up]))
                for up, down in pairs
            ]
            reach = _bits(t for up, down in pairs for t in walks[up] + walks[down])
            assert _SLIDES[s][field] == (reach, lines, (s << 2 | field) << 64)
