"""CLI contract tests: exit codes, report lines, perft and round trips."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chessval import pgn
from chessval.cli import cmd_perft, cmd_roundtrip, cmd_validate, main

FOOLS_MATE_PGN = '[Event "demo"]\n[Result "0-1"]\n\n1. f3 e5 2. g4 Qh4# 0-1\n'


@pytest.fixture()
def fools_mate_file(tmp_path):
    path = tmp_path / "fools.pgn"
    path.write_text(FOOLS_MATE_PGN)
    return path


def test_validate_accepts_a_clean_game(fools_mate_file, capsys):
    code = main(["validate", str(fools_mate_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "game 1: ok" in out
    assert "engine result 0-1" in out


def test_validate_reads_unspaced_move_numbers_and_escape_lines(tmp_path, capsys):
    path = tmp_path / "compact.pgn"
    path.write_text('%exported\n[Result "0-1"]\n\n1.f3 e5 2.g4 2...Qh4# 0-1\n')
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "game 1: ok - untagged, 4 plies, engine result 0-1" in out


def test_validate_rejects_non_ascii_move_numbers_in_one_line(tmp_path, capsys):
    path = tmp_path / "arabic.pgn"
    path.write_text("\u0661. e4 \u0662. *\n", encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "unrecognized token at line 1, column 1" in captured.err


def test_validate_reports_an_illegal_san_with_its_ply(tmp_path, capsys):
    path = tmp_path / "bad.pgn"
    path.write_text("1. Ke3 *\n")
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "error" in out
    assert "ply 1" in out
    assert "Ke3" in out


def test_validate_rejects_a_king_token_for_a_castling(tmp_path, capsys):
    path = tmp_path / "kg1.pgn"
    path.write_text("1. e4 e5 2. Nf3 Nc6 3. Bc4 Bc5 4. Kg1 *\n")
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "error at ply 7 ('Kg1'): no legal move matches 'Kg1'" in out


def test_validate_unreadable_path_is_an_io_failure(tmp_path, capsys):
    code = main(["validate", str(tmp_path / "missing.pgn")])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read" in err


def test_validate_parse_errors_go_to_stderr(tmp_path, capsys):
    path = tmp_path / "variation.pgn"
    path.write_text("1. e4 (1. d4) e5 *\n")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "parse error" in captured.err
    assert "variation" in captured.err


def test_validate_verbose_prints_boards(fools_mate_file, capsys):
    code = main(["validate", "--verbose", str(fools_mate_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ply 1: f3" in out
    assert "r n b q k b n r" in out
    # final position shows the delivered mate
    assert "ply 4: Qh4#" in out


def test_validate_mismatched_result_tag_is_a_warning(tmp_path, capsys):
    path = tmp_path / "mislabelled.pgn"
    path.write_text("1. f3 e5 2. g4 Qh4# 1/2-1/2\n")
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning" in out
    assert "disagrees" in out


def test_validate_strict_promotes_the_warning_to_an_error(tmp_path, capsys):
    path = tmp_path / "mislabelled.pgn"
    path.write_text("1. f3 e5 2. g4 Qh4# 1/2-1/2\n")
    code = main(["validate", "--strict", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "error" in out


def test_validate_rejects_moves_after_the_game_ended(tmp_path, capsys):
    path = tmp_path / "zombie.pgn"
    path.write_text("1. f3 e5 2. g4 Qh4# 3. a3 0-1\n")
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "ply 5" in out
    assert "already ended" in out


@pytest.mark.parametrize(
    "movetext, engine_result",
    [("1. e4 f6 2. Qh5 *", "*"), ("1. f3 e5 2. g4 Qh4 0-1", "0-1")],
)
def test_validate_accepts_checks_and_mates_written_without_marks(
    tmp_path, capsys, movetext, engine_result
):
    path = tmp_path / "unmarked.pgn"
    path.write_text(movetext + "\n")
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "game 1: ok" in out
    assert f"engine result {engine_result}" in out


@pytest.mark.parametrize("verbose", [False, True])
def test_validate_spells_no_san(tmp_path, monkeypatch, verbose):
    # a check, a castling, an en-passant capture, a mate and a failing game
    path = tmp_path / "games.pgn"
    path.write_text(
        "1. e4 Nf6 2. e5 d5 3. exd6 e6 4. Nf3 Bxd6 5. Bb5+ c6 6. O-O *\n\n"
        + FOOLS_MATE_PGN
        + "\n1. e4 e5 2. Ke3 *\n"
    )
    before = io.StringIO()
    assert cmd_validate([str(path)], verbose=verbose, out=before)[0] == 1

    def spell(*args):
        raise AssertionError("validate spelled a move")

    monkeypatch.setattr(pgn, "_san_token", spell)
    after = io.StringIO()
    code, reports = cmd_validate([str(path)], verbose=verbose, out=after)
    assert code == 1
    assert after.getvalue() == before.getvalue()
    assert [(r.status, r.ply) for r in reports] == [("ok", None), ("ok", None), ("error", 3)]


@pytest.mark.parametrize("command", ["validate", "roundtrip"])
def test_a_utf8_byte_order_mark_is_skipped(tmp_path, capsys, command):
    path = tmp_path / "bom.pgn"
    path.write_bytes(b"\xef\xbb\xbf" + FOOLS_MATE_PGN.encode())
    assert main([command, str(path)]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "roundtrip"])
def test_a_non_utf8_file_is_a_one_line_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.pgn"
    path.write_bytes('[White "M\u00fcller"]\n\n1. e4 *\n'.encode("latin-1"))
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "utf-8" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "roundtrip"])
@pytest.mark.parametrize("tag", ["SetUp", "FEN"])
def test_a_set_up_position_is_a_one_line_error_naming_the_tag(
    tmp_path, capsys, command, tag
):
    fen = "4k3/8/8/8/8/8/8/4K2R w K - 0 1"
    tags = {"SetUp": f'[SetUp "1"]\n[FEN "{fen}"]', "FEN": f'[FEN "{fen}"]'}[tag]
    path = tmp_path / "setup.pgn"
    path.write_text(tags + "\n\n1. O-O *\n")
    code = main([command, str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"unsupported set-up tag at line 1, column 1: '{tag}'" in err
    assert err.count("\n") == 1


def test_validate_output_carries_no_ansi_codes_when_piped(fools_mate_file, capsys):
    main(["validate", str(fools_mate_file)])
    assert "\x1b[" not in capsys.readouterr().out


def test_validate_returns_structured_reports(fools_mate_file):
    code, reports = cmd_validate([str(fools_mate_file)])
    assert code == 0
    (report,) = reports
    assert report.status == "ok"
    assert report.engine_result.value == "0-1"
    assert report.tag_result.value == "0-1"


def test_perft_depth_zero(capsys):
    assert main(["perft", "--depth", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_perft_depth_two(capsys):
    assert main(["perft", "--depth", "2"]) == 0
    assert capsys.readouterr().out.strip() == "400"


def test_perft_depth_four(capsys):
    assert main(["perft", "--depth", "4"]) == 0
    assert capsys.readouterr().out.strip() == "197281"


def test_perft_divide_lists_all_root_moves(capsys):
    assert main(["perft", "--depth", "2", "--divide"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 21
    assert lines[0] == "a2a3: 20"
    assert lines[-1] == "total: 400"


def test_perft_divide_spells_each_promotion_with_its_type(capsys):
    assert main(["perft", "--depth", "1", "--divide", "--fen", "8/1P6/8/8/8/8/8/K6k w - - 0 1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line for line in lines if line.startswith("b7b8")] == [
        "b7b8b: 1", "b7b8n: 1", "b7b8q: 1", "b7b8r: 1",
    ]
    assert lines[-1] == "total: 7"


def test_perft_accepts_a_fen_position(capsys):
    code = main(["perft", "--depth", "1", "--fen", "8/8/8/8/8/8/8/K6k w - -"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3"


def test_perft_rejects_a_bad_fen(capsys):
    code = main(["perft", "--depth", "1", "--fen", "not a fen"])
    captured = capsys.readouterr()
    assert code == 1
    assert "bad FEN" in captured.err


def test_perft_rejects_a_fen_with_a_non_ascii_digit(capsys):
    fen = "rnbqkbnr/pppppppp/\u00b2/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"
    code = main(["perft", "--depth", "1", "--fen", fen])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("bad FEN")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "fen",
    [
        "4k2R/8/8/8/8/8/8/4K3 w - - 0 1",  # black in check, white to move
        "P3k3/8/8/8/8/8/8/4K3 w - - 0 1",  # a pawn on rank 8
        "8/8/8/8/8/8/8/4K3 w - - 0 1",     # no black king
    ],
)
def test_perft_rejects_an_impossible_fen_position(capsys, fen):
    code = main(["perft", "--depth", "2", "--fen", fen])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("bad FEN")
    assert len(captured.err.splitlines()) == 1


def test_perft_too_deep_for_the_recursion_limit_reports_one_line(capsys):
    code = main(["perft", "--depth", "5000", "--fen", "4k3/8/8/8/8/8/8/4K3 w - - 0 1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_perft_of_a_stalemate_is_zero_at_any_depth(capsys):
    assert main(["perft", "--depth", "5000", "--fen", "7k/5Q2/6K1/8/8/8/8/8 b - - 0 1"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_perft_rejects_negative_depth(capsys):
    code = cmd_perft(-1)
    captured = capsys.readouterr()
    assert code == 1
    assert "non-negative" in captured.err


def test_roundtrip_of_a_clean_file(fools_mate_file, tmp_path, capsys):
    code = main(["roundtrip", str(fools_mate_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "round trip ok" in out
    out_path = tmp_path / "fools.out.pgn"
    assert out_path.exists()
    assert "1. f3 e5 2. g4 Qh4# 0-1" in out_path.read_text()


def test_roundtrip_rejects_variations_at_the_parse_stage(tmp_path, capsys):
    path = tmp_path / "variation.pgn"
    path.write_text("1. e4 (1. d4) e5 *\n")
    code = main(["roundtrip", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "parse stage" in err


def test_roundtrip_reports_the_replay_stage(tmp_path, capsys):
    path = tmp_path / "illegal.pgn"
    path.write_text("1. Ke3 *\n")
    code = main(["roundtrip", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "replay stage" in err


def test_roundtrip_rejects_moves_after_the_game_ended(tmp_path, capsys):
    path = tmp_path / "zombie.pgn"
    path.write_text("1. f3 e5 2. g4 Qh4# 3. Nc6# 0-1\n")
    code = main(["roundtrip", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "replay stage" in err
    assert "already ended" in err


@pytest.mark.parametrize(
    "movetext",
    [
        "1. Ngf3 *",  # over-disambiguated
        "1. e4 e5 2. Qh5 Nc6 3. Bc4 Nf6 4. Qxf7+ 1-0",  # a mate marked as check
    ],
)
def test_roundtrip_respells_rather_than_echoes(tmp_path, capsys, movetext):
    path = tmp_path / "respelled.pgn"
    path.write_text(movetext + "\n")
    code = main(["roundtrip", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "compare stage" in err


def test_roundtrip_of_an_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.pgn"
    path.write_text("")
    code = main(["roundtrip", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 games" in out


def test_roundtrip_missing_file_is_an_io_failure(tmp_path, capsys):
    code = cmd_roundtrip(str(tmp_path / "absent.pgn"))
    assert code == 2


def test_roundtrip_handles_multiple_games(tmp_path, capsys):
    path = tmp_path / "two.pgn"
    path.write_text(FOOLS_MATE_PGN + "\n" + '[Result "*"]\n\n1. e4 e5 *\n')
    code = main(["roundtrip", str(path)])
    assert code == 0
    assert "2 games" in capsys.readouterr().out


def test_roundtrip_that_cannot_write_its_output_is_an_io_failure(fools_mate_file, tmp_path):
    (tmp_path / "fools.out.pgn").mkdir()
    out, err = io.StringIO(), io.StringIO()
    assert cmd_roundtrip(str(fools_mate_file), out=out, err=err) == 2
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1 and "cannot write" in err.getvalue()


@pytest.mark.parametrize(
    "args, lines",
    [
        (["validate", "--verbose", "corpus.pgn"], 1),  # stdout fails while the command runs
        (["perft", "--depth", "1", "--divide"], 0),  # stdout fails at its last flush
    ],
)
def test_a_reader_that_closes_stdout_early_ends_the_command_quietly(args, lines):
    data = Path(__file__).parent / "data"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in sys.path if p))
    run = subprocess.Popen(
        [sys.executable, "-m", "chessval.cli", *args],
        cwd=data, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    for _ in range(lines):
        assert run.stdout.readline()
    run.stdout.close()
    err = run.stderr.read()
    assert run.wait(timeout=60) == 2
    assert err == b""
