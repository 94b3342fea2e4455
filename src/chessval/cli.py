"""Command line front end: replay PGN files, run perft, round-trip games.

Exit codes are the machine contract: 0 success, 1 parse or validation
failure, 2 an environment or I/O failure.  Reports go to stdout, errors
to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, TextIO

from .board import _divide, board_to_ascii, perft
from .fen import FenError, parse_fen
from .game import new_game
from .pgn import (
    PIECE_LETTERS,
    RESULT_BY_WINNER,
    GameResult,
    PgnGame,
    PgnParseError,
    SanError,
    X_TO_FILE,
    _play_san,
    _plays,
    canonical_text,
    parse_pgn,
    san_text,
)

OK_EXIT = 0
INVALID_EXIT = 1
IO_EXIT = 2


def _styled(text: str, code: str, stream: TextIO) -> str:
    if os.environ.get("NO_COLOR") or not getattr(stream, "isatty", lambda: False)():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


@dataclass
class ValidationReport:
    """Outcome of replaying one PGN game through the engine."""

    path: str
    index: int
    tag_summary: str
    status: str = "ok"
    ply: Optional[int] = None
    lexeme: Optional[str] = None
    reason: Optional[str] = None
    engine_result: GameResult = GameResult.UNKNOWN
    tag_result: GameResult = GameResult.UNKNOWN
    warnings: list[str] = field(default_factory=list)


def _tag_summary(parsed: PgnGame) -> str:
    white = parsed.tag("White")
    black = parsed.tag("Black")
    event = parsed.tag("Event")
    if white or black:
        summary = f"{white or '?'} vs {black or '?'}"
        return f"{summary} ({event})" if event else summary
    return f"({event})" if event else "untagged"


def _validate_game(
    parsed: PgnGame,
    path: str,
    index: int,
    verbose: bool,
    out: TextIO,
) -> ValidationReport:
    report = ValidationReport(
        path=path,
        index=index,
        tag_summary=_tag_summary(parsed),
        tag_result=parsed.result,
    )
    game, winner, played = new_game(), None, 0
    plays = _plays(_play_san, parsed.tokens, game)
    try:
        for played, (_, _, game, winner, _, _) in enumerate(plays, start=1):
            if verbose:
                lexeme = san_text(parsed.tokens[played - 1])
                print(f"{path} game {index} ply {played}: {lexeme}", file=out)
                print(board_to_ascii(game.board.board_state), file=out)
                print(file=out)
    except SanError as exc:
        report.status = "error"
        report.ply, report.lexeme = played + 1, san_text(parsed.tokens[played])
        report.reason = str(exc)
    if report.status == "ok":
        report.engine_result = RESULT_BY_WINNER[winner]
        if (
            report.engine_result is not GameResult.UNKNOWN
            and report.engine_result is not report.tag_result
        ):
            report.warnings.append(
                f"engine result {report.engine_result.value} disagrees with "
                f"Result tag {report.tag_result.value}"
            )
    return report


def cmd_validate(
    paths: list[str],
    verbose: bool = False,
    strict: bool = False,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> tuple[int, list[ValidationReport]]:
    """Replay every game in every file, reporting one line per game."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    reports: list[ValidationReport] = []
    io_failed = False
    parse_failed = False
    for path in paths:
        try:
            games = parse_pgn(Path(path).read_text(encoding="utf-8-sig"))
        except OSError as exc:
            print(f"{path}: cannot read: {exc}", file=err)
            io_failed = True
            continue
        except (PgnParseError, UnicodeDecodeError) as exc:
            print(f"{path}: parse error: {exc}", file=err)
            parse_failed = True
            continue
        for index, parsed in enumerate(games, start=1):
            report = _validate_game(parsed, path, index, verbose, out)
            if strict and report.status == "ok" and report.warnings:
                report.status = "error"
                report.reason = "; ".join(report.warnings)
            reports.append(report)
            label = f"{path} game {report.index}"
            if report.status == "ok":
                status = _styled("ok", "32", out)
                plies = f"{len(parsed.tokens)} plies"
                line = (
                    f"{label}: {status} - {report.tag_summary}, {plies}, "
                    f"engine result {report.engine_result.value}, "
                    f"tag {report.tag_result.value}"
                )
                print(line, file=out)
                for warning in report.warnings:
                    print(f"{label}: warning - {warning}", file=out)
            else:
                status = _styled("error", "31", out)
                detail = (
                    f"at ply {report.ply} ({report.lexeme!r}): {report.reason}"
                    if report.ply is not None
                    else report.reason
                )
                print(f"{label}: {status} {detail}", file=out)
    if io_failed:
        return IO_EXIT, reports
    if parse_failed or any(r.status == "error" for r in reports):
        return INVALID_EXIT, reports
    return OK_EXIT, reports


def _coordinate_text(mov) -> str:
    text = (
        X_TO_FILE[mov.from_.square.x]
        + str(mov.from_.square.y)
        + X_TO_FILE[mov.to_.square.x]
        + str(mov.to_.square.y)
    )
    if mov.to_.type is not mov.from_.type:
        text += PIECE_LETTERS[mov.to_.type].lower()
    return text


def cmd_perft(
    depth: int,
    fen: Optional[str] = None,
    divide: bool = False,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> int:
    """Count move sequences from the initial (or a FEN) position, serially:
    a pool's task would see only its own root move's transpositions."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if depth < 0:
        print("perft depth must be non-negative", file=err)
        return INVALID_EXIT
    try:
        game = parse_fen(fen) if fen is not None else new_game()
    except FenError as exc:
        print(f"bad FEN: {exc}", file=err)
        return INVALID_EXIT
    try:  # perft recurses once per ply, so a deep tree can pass Python's limit
        if divide and depth >= 1:
            counts = _divide(game.board, game.turn, depth)
            lines = [
                f"{_coordinate_text(root)}: {count}"
                for root, count in sorted(counts, key=lambda pair: _coordinate_text(pair[0]))
            ]
            lines.append(f"total: {sum(count for _, count in counts)}")
        else:
            lines = [str(perft(game.board, game.turn, depth))]
    except RecursionError:
        print(f"perft depth {depth} is too deep: Python's recursion limit was reached", file=err)
        return INVALID_EXIT
    print("\n".join(lines), file=out)
    return OK_EXIT


def cmd_roundtrip(
    path: str, out: Optional[TextIO] = None, err: Optional[TextIO] = None
) -> int:
    """Parse, replay, serialize and re-parse a PGN file; write the
    serialized form next to the input and compare token sequences."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        games = parse_pgn(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        print(f"{path}: cannot read: {exc}", file=err)
        return IO_EXIT
    except (PgnParseError, UnicodeDecodeError) as exc:
        print(f"{path}: failed at parse stage: {exc}", file=err)
        return INVALID_EXIT

    serialized: list[str] = []
    for index, parsed in enumerate(games, start=1):
        try:
            serialized.append(canonical_text(parsed))
        except SanError as exc:
            print(f"{path}: game {index} failed at replay stage: {exc}", file=err)
            return INVALID_EXIT

    out_path = Path(path).with_suffix(".out.pgn")
    out_text = "\n".join(serialized)
    try:
        out_path.write_text(out_text, encoding="utf-8")
    except OSError as exc:
        print(f"{out_path}: cannot write: {exc}", file=err)
        return IO_EXIT

    try:
        reparsed = parse_pgn(out_text)
    except PgnParseError as exc:
        print(f"{path}: failed at reparse stage: {exc}", file=err)
        return INVALID_EXIT
    originals = [g.tokens for g in games]
    replayed = [g.tokens for g in reparsed]
    if originals != replayed:
        print(f"{path}: failed at compare stage: token sequences differ", file=err)
        return INVALID_EXIT
    print(f"{path}: round trip ok ({len(games)} games) -> {out_path}", file=out)
    return OK_EXIT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chessval",
        description="Validate, measure and round-trip chess games.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="replay PGN files through the rules engine"
    )
    validate.add_argument("paths", nargs="+", metavar="FILE")
    validate.add_argument(
        "--verbose", action="store_true", help="print the board after each ply"
    )
    validate.add_argument(
        "--strict",
        action="store_true",
        help="treat result-tag mismatches as errors",
    )

    perft_cmd = commands.add_parser(
        "perft", help="count legal move sequences to a fixed depth"
    )
    perft_cmd.add_argument("--depth", type=int, required=True)
    perft_cmd.add_argument("--fen", help="start from a FEN position")
    perft_cmd.add_argument(
        "--divide", action="store_true", help="print per-root-move subtotals"
    )

    roundtrip = commands.add_parser(
        "roundtrip", help="parse, replay, serialize and re-parse a PGN file"
    )
    roundtrip.add_argument("path", metavar="FILE")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        code, _ = cmd_validate(args.paths, verbose=args.verbose, strict=args.strict)
        return code
    if args.command == "perft":
        return cmd_perft(args.depth, fen=args.fen, divide=args.divide)
    return cmd_roundtrip(args.path)


if __name__ == "__main__":
    sys.exit(main())
