"""Fuzz guards: bad PGN, FEN and command lines end in the documented error
types and exit codes, never in another exception or a traceback.

Inputs are random text, random sequences of notation fragments, and real
games and positions with a few spans overwritten by such fragments, so
that most examples get past the first token before they break.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chessval.cli import main
from chessval.fen import FenError, parse_fen
from chessval.pgn import PgnParseError, SanError, parse_pgn, replay

FUZZ = settings(max_examples=150, deadline=None)

CORPUS = Path(__file__).parent / "data" / "corpus.pgn"
PGN_SEEDS = [
    '[Event "demo"]\n[Result "0-1"]\n\n1. f3 e5 2. g4 Qh4# 0-1\n',
    CORPUS.read_text(encoding="utf-8").split("\n\n[")[0] + "\n",
]
PGN_FRAGMENTS = [
    " ", "\n", "1.", "2...", ".", "e4", "e5", "Nf3", "Nbd7", "exd5", "e8=Q",
    "O-O", "O-O-O", "Qh4#", "Kxe2+", "x", "+", "#", "=", "{c}", "{", "}",
    ";c\n", "%e\n", "%", "(", ")", "[", "]", '"', '[Event "x"]',
    '[Result "1-0"]', '[SetUp "1"]', "$1", "!?", "*", "1-0", "0-1",
    "1/2-1/2", "a", "h9", "K", "9", "\ufeff", "\x00", "\\",
]
FEN_SEEDS = [
    "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1",
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
    "8/8/8/2k5/3Pp3/8/8/4K3 b - d3 0 1",
]
FEN_FRAGMENTS = list("pnbrqkPNBRQK123456789/ wb-KQkqacdeh0²") + ["8/", " - ", "e3", "e6"]


@st.composite
def mutated(draw, seeds, fragments):
    """A seed text with one to three short spans replaced by fragments."""
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(st.sampled_from(fragments)) + text[end:]
    return text


def _texts(seeds, fragments):
    return st.one_of(
        st.text(max_size=120),
        st.lists(st.sampled_from(fragments), max_size=40).map("".join),
        mutated(seeds, fragments),
    )


@FUZZ
@given(_texts(PGN_SEEDS, PGN_FRAGMENTS))
def test_pgn_input_fails_only_with_a_parse_or_san_error(text):
    try:
        games = parse_pgn(text)
    except PgnParseError:
        return
    for game in games:
        try:
            for _ in replay(game.tokens):
                pass
        except SanError:
            pass


@FUZZ
@given(_texts(FEN_SEEDS, FEN_FRAGMENTS))
def test_fen_input_fails_only_with_a_fen_error(text):
    try:
        parse_fen(text)
    except FenError:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    """main's exit code and stderr; argparse's usage errors exit through
    SystemExit."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@FUZZ
@given(
    st.sampled_from(["validate", "roundtrip"]),
    st.one_of(
        _texts(PGN_SEEDS, PGN_FRAGMENTS).map(lambda t: t.encode("utf-8")),
        st.binary(max_size=120),
    ),
)
def test_a_bad_pgn_file_exits_1_without_a_traceback(workdir, command, data):
    path = workdir / "fuzz.pgn"
    path.write_bytes(data)
    code, err = _run([command, str(path)])
    assert code in (0, 1)
    assert "Traceback" not in err


@FUZZ
@given(
    st.lists(
        st.sampled_from(
            ["validate", "perft", "roundtrip", "--depth", "0", "1", "-1", "x",
             "--fen", "--divide", "--strict", "--verbose", "--bogus", "PATH",
             "MISSING", "DIR"]
        ),
        max_size=6,
    ),
    _texts(FEN_SEEDS, FEN_FRAGMENTS),
)
def test_a_bad_command_line_exits_1_or_2_without_a_traceback(workdir, words, fen):
    (workdir / "ok.pgn").write_text("1. e4 *\n")
    places = {
        "PATH": str(workdir / "ok.pgn"),
        "MISSING": str(workdir / "missing.pgn"),
        "DIR": str(workdir),
    }
    argv = [places.get(word, word) for word in words]
    if "--fen" in argv:
        argv.insert(argv.index("--fen") + 1, fen)
    code, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
