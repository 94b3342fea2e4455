"""PGN parsing, SAN resolution and serialization tests."""

import re
from pathlib import Path

import pytest

from chessval import pgn
from chessval.board import Board, IllegalMoveError, Move
from chessval.game import Game, game_move, new_game
from chessval.pgn import (
    CheckMark,
    GameResult,
    PgnGame,
    PgnParseError,
    SanError,
    SanKind,
    SanToken,
    canonical_text,
    char_maps,
    move_to_pgn_string,
    parse_pgn,
    replay,
    resolve_san,
    san_text,
    serialize_game,
)
from chessval.pieces import Colour, Coordinate, Piece, PieceType

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


FOOLS_MATE_TEXT = "1. f3 e5 2. g4 Qh4# 0-1"
FOOLS_MATE_MOVES = (
    M(P(PAWN, 6, 2), 6, 3),
    M(P(PAWN, 5, 7, B), 5, 5),
    M(P(PAWN, 7, 2), 7, 4),
    M(P(QUEEN, 4, 8, B), 8, 4),
)


# --- character maps ---------------------------------------------------------


def test_file_map_runs_a_to_h():
    files, ranks, letters = char_maps()
    assert files["a"] == 1 and files["h"] == 8
    assert ranks["1"] == 1 and ranks["8"] == 8
    assert letters[KNIGHT] == "N"
    assert letters[PAWN] == ""


def test_char_maps_invert_cleanly():
    files, ranks, letters = char_maps()
    assert sorted(files.values()) == list(range(1, 9))
    assert sorted(ranks.values()) == list(range(1, 9))
    inverse = {v: k for k, v in letters.items()}
    assert len(inverse) == len(letters)
    for piece_type, letter in letters.items():
        assert inverse[letter] is piece_type


# --- parsing ----------------------------------------------------------------


def test_parse_a_tagged_single_game():
    games = parse_pgn('[Event "x"]\n\n1. e4 e5 1-0\n')
    assert len(games) == 1
    game = games[0]
    assert game.tags == (("Event", "x"),)
    assert len(game.tokens) == 2
    assert game.result is GameResult.WHITE_WINS


def test_parse_fools_mate_movetext():
    (game,) = parse_pgn(FOOLS_MATE_TEXT)
    assert len(game.tokens) == 4
    assert game.tokens[-1].check_mark is CheckMark.MATE
    assert game.result is GameResult.BLACK_WINS


def test_variations_are_rejected():
    with pytest.raises(PgnParseError, match="variation"):
        parse_pgn("1. e4 (1. d4) e5 *")


def test_token_fields_for_a_pawn_capture():
    (game,) = parse_pgn("1. e4 d5 2. exd5 *")
    capture = game.tokens[2]
    assert capture.piece_type is PAWN
    assert capture.is_capture
    assert capture.origin_file == 5
    assert capture.target == C(4, 5)


def test_token_fields_for_promotion():
    (game,) = parse_pgn("1. e8=Q *")
    token = game.tokens[0]
    assert token.promotion is QUEEN
    assert token.target == C(5, 8)


def test_token_fields_for_disambiguation():
    (game,) = parse_pgn("1. Nbd2 R1a3 *")
    knight, rook = game.tokens
    assert knight.piece_type is KNIGHT and knight.origin_file == 2
    assert rook.piece_type is ROOK and rook.origin_rank == 1


def test_castle_tokens():
    (game,) = parse_pgn("1. O-O O-O-O+ *")
    short, long = game.tokens
    assert short.kind is SanKind.KINGSIDE_CASTLE
    assert long.kind is SanKind.QUEENSIDE_CASTLE
    assert long.check_mark is CheckMark.CHECK


def test_comments_and_annotations_are_dropped():
    text = """
    [Event "demo"]

    1. e4 {a fine start} e5 ; rest of the line
    2. Nf3!? $14 Nc6 1/2-1/2
    """
    (game,) = parse_pgn(text)
    assert len(game.tokens) == 4
    assert game.result is GameResult.DRAW


def test_black_continuation_numbers_are_accepted():
    (game,) = parse_pgn("1. e4 e5 2. Nf3 2... Nc6 *")
    assert len(game.tokens) == 4


@pytest.mark.parametrize(
    "text, sans",
    [
        ("1.e4 e5 2.Nf3 *", ["e4", "e5", "Nf3"]),
        ("1. e4 e5 2. Nf3 Nc6 3.Bb5 *", ["e4", "e5", "Nf3", "Nc6", "Bb5"]),
        ("1.e4 1...e5 *", ["e4", "e5"]),
    ],
)
def test_a_period_is_a_token_of_its_own(text, sans):
    (game,) = parse_pgn(text)
    assert [san for _, _, _, san in replay(game.tokens)] == sans


def test_escape_lines_are_skipped():
    text = '%escaped\n[Event "x"]\n%another one\r\n\n1. e4\n% mid-game\ne5 *\n'
    (game,) = parse_pgn(text)
    assert game.tag("Event") == "x"
    assert len(game.tokens) == 2
    with pytest.raises(PgnParseError, match="unrecognized token") as exc:
        parse_pgn("1. e4 %e5 *")  # only a % in the first column starts one
    assert (exc.value.line, exc.value.column) == (1, 7)


@pytest.mark.parametrize(
    "text",
    [
        "1.\u00a0e4 \x85e5 *",  # Unicode whitespace before a token is skipped
        "1. e4\r\n%escaped\r\ne5 *",  # an escape line right after a CRLF
        "1. e4 e5 * ; a comment that ends the text",
    ],
)
def test_trivia_between_tokens_is_skipped(text):
    (game,) = parse_pgn(text)
    assert len(game.tokens) == 2


@pytest.mark.parametrize(
    "text, line, column, lexeme",
    [
        ("1. e4\u00a0e5 *", 1, 4, "e4\xa0e5"),  # a word breaks on ASCII only
        ("1. e4 } e5 *", 1, 7, "}"),
        ("1. e4\r\n2. Z9 *", 2, 4, "Z9"),
    ],
)
def test_unrecognized_tokens_are_located(text, line, column, lexeme):
    with pytest.raises(PgnParseError, match="unrecognized token") as exc:
        parse_pgn(text)
    assert (exc.value.line, exc.value.column, exc.value.lexeme) == (line, column, lexeme)


@pytest.mark.parametrize(
    "text, column, lexeme",
    [
        ("\u0661. e4 \u0662. *", 1, "\u0661"),  # Arabic-Indic move numbers
        ("1. e4 \u0662. e5 *", 7, "\u0662"),
        ("1. e4 $\u0661\u0662 *", 7, "$\u0661\u0662"),  # a NAG in Arabic-Indic digits
        ("1. e4 $\u00b2 *", 7, "$\u00b2"),  # superscript two
    ],
)
def test_move_numbers_and_nags_are_ascii_digits(text, column, lexeme):
    with pytest.raises(PgnParseError, match="unrecognized token") as exc:
        parse_pgn(text)
    assert (exc.value.line, exc.value.column) == (1, column)
    assert repr(lexeme) in str(exc.value)
    (game,) = parse_pgn("1. e4 $12 e5 *")
    assert len(game.tokens) == 2


def test_multiple_games_in_one_text():
    text = '[Result "1-0"]\n\n1. e4 1-0\n\n[Result "0-1"]\n\n1. d4 0-1\n'
    games = parse_pgn(text)
    assert [g.result for g in games] == [GameResult.WHITE_WINS, GameResult.BLACK_WINS]


def test_empty_text_has_no_games():
    assert parse_pgn("") == []
    assert parse_pgn("\n  \n") == []


def test_crlf_line_endings_are_accepted():
    text = '[Event "x"]\r\n\r\n1. e4 e5 ; eol comment\r\n2. Nf3 1-0\r\n'
    (game,) = parse_pgn(text)
    assert len(game.tokens) == 3
    assert game.result is GameResult.WHITE_WINS


def test_malformed_tag_pair_reports_its_position():
    with pytest.raises(PgnParseError, match="malformed tag pair") as exc:
        parse_pgn('[Event missing quotes]\n\n1. e4 *')
    assert exc.value.line == 1
    assert exc.value.column == 1


def test_a_set_up_position_tag_reports_its_position():
    with pytest.raises(PgnParseError, match="unsupported set-up tag") as exc:
        parse_pgn('[Event "x"]\n[SetUp "1"]\n[FEN "4k3/8/8/8/8/8/8/4K3 w - - 0 1"]\n\n*')
    assert exc.value.lexeme == "SetUp"
    assert (exc.value.line, exc.value.column) == (2, 1)
    (game,) = parse_pgn('[SetUp "0"]\n\n1. e4 *')
    assert game.tag("SetUp") == "0"


def test_unterminated_comment_reports_its_position():
    with pytest.raises(PgnParseError, match="unterminated comment") as exc:
        parse_pgn("1. e4 {never closed")
    assert exc.value.line == 1
    assert exc.value.column == 7


def test_unrecognized_token_reports_the_lexeme():
    with pytest.raises(PgnParseError, match="unrecognized token") as exc:
        parse_pgn("1. e4 Z9 *")
    assert exc.value.lexeme == "Z9"
    assert exc.value.line == 1


def test_missing_result_marker_is_an_error():
    with pytest.raises(PgnParseError, match="result marker"):
        parse_pgn("1. e4 e5")


def test_result_tag_must_match_the_marker():
    with pytest.raises(PgnParseError, match="does not match"):
        parse_pgn('[Result "1-0"]\n\n1. e4 0-1')


def test_pgn_game_invariant_rejects_contradicting_result():
    with pytest.raises(ValueError, match="contradicts"):
        PgnGame((("Result", "1-0"),), (), GameResult.DRAW)


def test_tag_values_unescape_quotes_and_backslashes():
    (game,) = parse_pgn('[Event "a \\"quoted\\" name\\\\"]\n\n*')
    assert game.tag("Event") == 'a "quoted" name\\'


def test_promotion_on_a_piece_move_is_rejected():
    with pytest.raises(PgnParseError, match="promote"):
        parse_pgn("1. Ne8=Q *")


def test_a_parse_reads_a_repeated_word_to_an_equal_token():
    # numbers and NAGs repeat too, between words the parse has already read
    words = ["Nf3", "Nf3+", "Nf3", "Nf3#", "Nf3!", "Nf3", "O-O+", "O-O", "exd6", "e8=Q+", "e8=Q"]
    text = " ".join(f"{n % 3 + 1}. {word} $1" for n, word in enumerate(words)) + " *"
    (game,) = parse_pgn(text)
    assert game.tokens == tuple(parse_pgn(f"{word} *")[0].tokens[0] for word in words)
    assert game.tokens[0] is game.tokens[2]  # one token per distinct word


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("1. e4 e5 2. e4 e5\n3. e4 Qe9 *", 2, 7, "unrecognized token"),
        ("1. e4 e5 2. e4 e5 3. e4 e5\n4. e4 Ne8=Q *", 2, 7, "only pawn moves can promote"),
    ],
)
def test_a_bad_word_after_repeated_words_reports_its_own_position(text, line, column, message):
    with pytest.raises(PgnParseError, match=message) as exc:
        parse_pgn(text)
    assert (exc.value.line, exc.value.column) == (line, column)


# --- resolution -------------------------------------------------------------


def pawn_token(x, y, **kwargs):
    return SanToken(target=C(x, y), **kwargs)


def test_resolve_simple_pawn_push():
    mov = resolve_san(pawn_token(5, 4), new_game())
    assert mov == M(P(PAWN, 5, 2), 5, 4)


def test_resolve_knight_development():
    token = SanToken(piece_type=KNIGHT, target=C(6, 3))
    assert resolve_san(token, new_game()) == M(P(KNIGHT, 7, 1), 6, 3)


def two_knight_game():
    board = Board(
        {P(KNIGHT, 2, 1), P(KNIGHT, 4, 1), P(KING, 8, 1), P(KING, 8, 8, B)}
    )
    return Game(board, W)


def test_resolution_uses_the_disambiguation_file():
    token = SanToken(piece_type=KNIGHT, target=C(3, 3), origin_file=2)
    assert resolve_san(token, two_knight_game()) == M(P(KNIGHT, 2, 1), 3, 3)


def test_ambiguous_san_is_an_error():
    token = SanToken(piece_type=KNIGHT, target=C(3, 3))
    with pytest.raises(SanError, match="ambiguous"):
        resolve_san(token, two_knight_game())


def test_resolve_castling():
    board = Board({P(KING, 5, 1), P(ROOK, 8, 1), P(KING, 8, 8, B)})
    king_move = resolve_san(
        SanToken(kind=SanKind.KINGSIDE_CASTLE, piece_type=KING), Game(board, W)
    )
    assert king_move == M(P(KING, 5, 1), 7, 1)
    # a castling token is the king's whatever its piece_type field says
    assert resolve_san(SanToken(kind=SanKind.KINGSIDE_CASTLE), Game(board, W)) == king_move


def test_a_plain_king_token_does_not_match_a_castling():
    opening = "1. e4 e5 2. Nf3 Nc6 3. Bc4 Bc5 4. {} *"
    castled = parse_pgn(opening.format("O-O"))[0].tokens
    assert [san for _, _, _, san in replay(castled)][-1] == "O-O"
    plies = replay(parse_pgn(opening.format("Kg1"))[0].tokens)
    with pytest.raises(SanError, match="no legal move matches 'Kg1'"):
        for _ in range(7):
            next(plies)


def test_en_passant_resolves_only_as_a_capture():
    (game,) = parse_pgn("1. e4 Nf6 2. e5 d5 3. exd6 *")
    mov, after, _, san = list(replay(game.tokens))[-1]
    assert (mov, san) == (M(P(PAWN, 5, 5), 4, 6), "exd6")
    assert P(PAWN, 4, 5, B) not in after.board.board_state
    with pytest.raises(SanError, match="no legal move matches 'ed6'"):
        list(replay(parse_pgn("1. e4 Nf6 2. e5 d5 3. ed6 *")[0].tokens))


def test_resolution_spells_nothing(monkeypatch):
    def spell(*args):
        raise AssertionError("resolution spelled a move")

    monkeypatch.setattr(pgn, "_san_token", spell)
    text = "1. e4 Nf6 2. e5 d5 3. exd6 e6 4. Nf3 Bxd6 5. Bb5+ c6 6. O-O *"
    game = new_game()
    for token in parse_pgn(text)[0].tokens:
        game, _ = game_move(game, resolve_san(token, game))
    game = new_game()
    for token in parse_pgn(FOOLS_MATE_TEXT)[0].tokens:
        game, winner = game_move(game, resolve_san(token, game))
    assert winner is B


def test_resolve_promotion_picks_the_promoted_type():
    board = Board({P(PAWN, 5, 7), P(KING, 1, 1), P(KING, 8, 8, B)})
    game = Game(board, W)
    mov = resolve_san(pawn_token(5, 8, promotion=QUEEN), game)
    assert mov.to_.type is QUEEN
    rook_move = resolve_san(pawn_token(5, 8, promotion=ROOK), game)
    assert rook_move.to_.type is ROOK


def test_resolve_rejects_illegal_san():
    token = SanToken(piece_type=KING, target=C(5, 3))
    with pytest.raises(SanError, match="no legal move"):
        resolve_san(token, new_game())


def test_resolve_rejects_a_false_capture_claim():
    with pytest.raises(SanError, match="no legal move"):
        resolve_san(pawn_token(5, 4, is_capture=True), new_game())


def test_resolve_rejects_a_false_check_claim():
    with pytest.raises(SanError, match="claims check"):
        resolve_san(pawn_token(5, 4, check_mark=CheckMark.CHECK), new_game())


def test_resolve_rejects_a_false_mate_claim():
    board = Board({P(ROOK, 1, 1), P(KING, 5, 1), P(KING, 5, 8, B)})
    token = SanToken(piece_type=ROOK, target=C(1, 8), check_mark=CheckMark.MATE)
    with pytest.raises(SanError, match="claims mate"):
        resolve_san(token, Game(board, W))


def test_resolve_validates_a_true_mate_claim():
    game = new_game()
    for mov in FOOLS_MATE_MOVES[:3]:
        game, _ = game_move(game, mov)
    token = SanToken(piece_type=QUEEN, target=C(8, 4), check_mark=CheckMark.MATE)
    assert resolve_san(token, game) == FOOLS_MATE_MOVES[3]


# --- serialization ----------------------------------------------------------


def test_san_for_a_knight_move():
    assert move_to_pgn_string(M(P(KNIGHT, 2, 1), 3, 3), new_game()) == "Nc3"


def test_san_for_a_pawn_push():
    assert move_to_pgn_string(M(P(PAWN, 5, 2), 5, 4), new_game()) == "e4"


def test_san_for_the_mating_move():
    game = new_game()
    for mov in FOOLS_MATE_MOVES[:3]:
        game, _ = game_move(game, mov)
    assert move_to_pgn_string(FOOLS_MATE_MOVES[3], game) == "Qh4#"


def test_san_for_a_pawn_capture_carries_the_origin_file():
    game = new_game()
    for mov in (M(P(PAWN, 5, 2), 5, 4), M(P(PAWN, 4, 7, B), 4, 5)):
        game, _ = game_move(game, mov)
    assert move_to_pgn_string(M(P(PAWN, 5, 4), 4, 5), game) == "exd5"


def test_san_for_castling():
    board = Board({P(KING, 5, 1), P(ROOK, 8, 1), P(ROOK, 1, 1), P(KING, 5, 8, B)})
    game = Game(board, W)
    assert move_to_pgn_string(M(P(KING, 5, 1), 7, 1), game) == "O-O"
    assert move_to_pgn_string(M(P(KING, 5, 1), 3, 1), game) == "O-O-O"


def test_san_for_a_quiet_promotion():
    board = Board({P(PAWN, 5, 7), P(KING, 8, 2), P(KING, 1, 1, B)})
    game = Game(board, W)
    assert move_to_pgn_string(M(P(PAWN, 5, 7), 5, 8, QUEEN), game) == "e8=Q"


def test_san_disambiguates_by_file_when_it_can():
    assert (
        move_to_pgn_string(M(P(KNIGHT, 2, 1), 3, 3), two_knight_game()) == "Nbc3"
    )


def test_san_disambiguates_by_rank_when_files_clash():
    board = Board(
        {P(KNIGHT, 2, 1), P(KNIGHT, 2, 5), P(KING, 8, 1), P(KING, 8, 8, B)}
    )
    game = Game(board, W)
    assert move_to_pgn_string(M(P(KNIGHT, 2, 1), 3, 3), game) == "N1c3"


def test_san_disambiguates_by_file_and_rank_as_a_last_resort():
    board = Board(
        {
            P(QUEEN, 1, 1), P(QUEEN, 1, 3), P(QUEEN, 3, 1),
            P(KING, 8, 1), P(KING, 8, 4, B),
        }
    )
    game = Game(board, W)
    assert move_to_pgn_string(M(P(QUEEN, 1, 1), 2, 2), game) == "Qa1b2"


def test_san_refuses_an_illegal_move():
    with pytest.raises(IllegalMoveError):
        move_to_pgn_string(M(P(KING, 5, 1), 5, 3), new_game())


def test_serialize_the_empty_game():
    text = serialize_game([("Event", "empty")], [], GameResult.UNKNOWN)
    assert '[Event "empty"]' in text
    assert '[Result "*"]' in text
    assert text.rstrip().endswith("*")


def test_serialize_fools_mate():
    text = serialize_game(
        [("Event", "demo")], FOOLS_MATE_MOVES, GameResult.BLACK_WINS
    )
    assert FOOLS_MATE_TEXT in text
    assert '[Result "0-1"]' in text


def test_serialized_games_parse_back_to_the_same_tokens():
    text = serialize_game([], FOOLS_MATE_MOVES, GameResult.BLACK_WINS)
    (reparsed,) = parse_pgn(text)
    (original,) = parse_pgn(FOOLS_MATE_TEXT)
    assert reparsed.tokens == original.tokens


@pytest.mark.parametrize(
    "moves, ply, reason",
    [
        ((M(P(KING, 5, 1), 5, 3),), 1, "illegal move"),
        ((M(P(PAWN, 5, 2), 5, 4), M(P(PAWN, 4, 2), 4, 4)), 2, "not white's turn"),
        (FOOLS_MATE_MOVES[:2] + (M(P(QUEEN, 4, 4), 4, 5),), 3, "piece not on the board"),
        (FOOLS_MATE_MOVES + (M(P(KNIGHT, 2, 8, B), 3, 6),), 5, "already ended"),
    ],
    ids=["illegal-move", "wrong-side", "piece-not-on-the-board", "move-after-mate"],
)
def test_serialize_rejects_an_unreplayable_sequence(moves, ply, reason):
    with pytest.raises(ValueError, match=f"not replayable at ply {ply}: .*{reason}"):
        serialize_game([], moves, GameResult.UNKNOWN)


def test_serialized_corpus_games_reproduce_the_corpus_text():
    # pins tag order, move numbers and the 79-column wrap, for the move
    # serializer and for the writer that spells SAN during the replay
    corpus = (Path(__file__).parent / "data" / "corpus.pgn").read_text()
    games = parse_pgn(corpus)[:12]
    serialized = [
        serialize_game(
            parsed.tags, [mov for mov, _, _, _ in replay(parsed.tokens)], parsed.result
        )
        for parsed in games
    ]
    written = [canonical_text(parsed) for parsed in games]
    for blocks in (serialized, written):
        assert corpus.startswith("\n".join(blocks))


def test_serialize_rejects_a_contradicting_result_tag():
    with pytest.raises(ValueError, match="contradicts"):
        serialize_game([("Result", "1-0")], [], GameResult.DRAW)


@pytest.mark.parametrize("name, value", [("Bad Name", "x"), ("", "x"), ("Event", "a\nb")])
def test_serialize_rejects_a_tag_its_parser_cannot_read(name, value):
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        serialize_game([(name, value)], [])


@pytest.mark.parametrize(
    "name, value", [("FEN", "8/8/8/8/8/8/8/8 w - - 0 1"), ("SetUp", "1")]
)
def test_serialize_rejects_a_set_up_tag_as_its_parser_does(name, value):
    with pytest.raises(PgnParseError, match="unsupported set-up tag"):
        parse_pgn(f'[{name} "{value}"]\n\n*')
    with pytest.raises(ValueError, match=f"set-up tag {re.escape(repr(name))}"):
        serialize_game([(name, value)], [])


def test_a_set_up_tag_of_zero_is_written_and_read_back():
    text = serialize_game([("SetUp", "0")], FOOLS_MATE_MOVES[:2])
    (game,) = parse_pgn(text)
    assert game.tag("SetUp") == "0"
    assert canonical_text(game) == text


def test_tag_values_escape_on_output():
    text = serialize_game([("Event", 'say "hi" \\')], [], GameResult.UNKNOWN)
    assert '[Event "say \\"hi\\" \\\\"]' in text
    (game,) = parse_pgn(text)
    assert game.tag("Event") == 'say "hi" \\'


def test_resolution_inverts_serialization_over_a_short_game():
    game = new_game()
    for mov in FOOLS_MATE_MOVES:
        san = move_to_pgn_string(mov, game)
        (parsed,) = parse_pgn(f"{san} *")
        assert resolve_san(parsed.tokens[0], game) == mov
        game, _ = game_move(game, mov)


def test_resolution_inverts_serialization_for_every_legal_move():
    import random

    from chessval.board import legal_moves

    rng = random.Random(321)
    game = new_game()
    for _ply in range(12):
        moves = sorted(
            legal_moves(game.board, game.turn),
            key=lambda m: (m.from_.square.x, m.from_.square.y,
                           m.to_.square.x, m.to_.square.y, m.to_.type.value),
        )
        for mov in moves:
            san = move_to_pgn_string(mov, game)
            (parsed,) = parse_pgn(f"{san} *")
            assert resolve_san(parsed.tokens[0], game) == mov
        game, winner = game_move(game, rng.choice(moves))
        if winner is not None:
            break


def test_san_text_round_trips_token_spellings():
    (game,) = parse_pgn("1. e4 exd5 2. Nbd2 e8=Q# 3. O-O O-O-O 1-0")
    for token in game.tokens:
        assert san_text(token) in {
            "e4", "exd5", "Nbd2", "e8=Q#", "O-O", "O-O-O",
        }


def test_emitted_disambiguation_is_minimal():
    # dropping the hint from the emitted SAN must stop identifying the move
    import dataclasses

    game = two_knight_game()
    mov = M(P(KNIGHT, 2, 1), 3, 3)
    san = move_to_pgn_string(mov, game)
    assert san == "Nbc3"
    (parsed,) = parse_pgn(f"{san} *")
    token = parsed.tokens[0]
    stripped = dataclasses.replace(token, origin_file=None, origin_rank=None)
    with pytest.raises(SanError, match="ambiguous"):
        resolve_san(stripped, game)
