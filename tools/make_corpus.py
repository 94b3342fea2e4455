#!/usr/bin/env python3
"""Build tests/data/corpus.pgn: famous games plus seeded self-play.

Each game is canonicalized by replaying it through the engine and
re-serializing, so the corpus is guaranteed to be in minimal-SAN export
form.  Any transcription error in the famous games (an illegal move, a
wrong mate claim, an ambiguous SAN) makes the build fail loudly.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from chessval.pgn import RESULT_BY_WINNER, canonical_text, parse_pgn, serialize_game

from drivers import play_random_game

FAMOUS = [
    """[Event "Fool's mate"]
[Site "?"]
[Date "????.??.??"]
[White "NN"]
[Black "NN"]
[Result "0-1"]

1. f3 e5 2. g4 Qh4# 0-1
""",
    """[Event "Scholar's mate"]
[Site "?"]
[Date "????.??.??"]
[White "NN"]
[Black "NN"]
[Result "1-0"]

1. e4 e5 2. Bc4 Nc6 3. Qh5 Nf6 4. Qxf7# 1-0
""",
    """[Event "Legal's mate"]
[Site "Paris"]
[Date "????.??.??"]
[White "de Legal"]
[Black "Saint Brie"]
[Result "1-0"]

1. e4 e5 2. Nf3 d6 3. Bc4 Bg4 4. Nc3 g6 5. Nxe5 Bxd1 6. Bxf7+ Ke7 7. Nd5# 1-0
""",
    """[Event "Opera game"]
[Site "Paris"]
[Date "1858.??.??"]
[White "Morphy, Paul"]
[Black "Duke Karl / Count Isouard"]
[Result "1-0"]

1. e4 e5 2. Nf3 d6 3. d4 Bg4 4. dxe5 Bxf3 5. Qxf3 dxe5 6. Bc4 Nf6 7. Qb3 Qe7
8. Nc3 c6 9. Bg5 b5 10. Nxb5 cxb5 11. Bxb5+ Nbd7 12. O-O-O Rd8 13. Rxd7 Rxd7
14. Rd1 Qe6 15. Bxd7+ Nxd7 16. Qb8+ Nxb8 17. Rd8# 1-0
""",
    """[Event "Immortal game"]
[Site "London"]
[Date "1851.06.21"]
[White "Anderssen, Adolf"]
[Black "Kieseritzky, Lionel"]
[Result "1-0"]

1. e4 e5 2. f4 exf4 3. Bc4 Qh4+ 4. Kf1 b5 5. Bxb5 Nf6 6. Nf3 Qh6 7. d3 Nh5
8. Nh4 Qg5 9. Nf5 c6 10. g4 Nf6 11. Rg1 cxb5 12. h4 Qg6 13. h5 Qg5 14. Qf3
Ng8 15. Bxf4 Qf6 16. Nc3 Bc5 17. Nd5 Qxb2 18. Bd6 Bxg1 19. e5 Qxa1+ 20. Ke2
Na6 21. Nxg7+ Kd8 22. Qf6+ Nxf6 23. Be7# 1-0
""",
    """[Event "Evergreen game"]
[Site "Berlin"]
[Date "1852.??.??"]
[White "Anderssen, Adolf"]
[Black "Dufresne, Jean"]
[Result "1-0"]

1. e4 e5 2. Nf3 Nc6 3. Bc4 Bc5 4. b4 Bxb4 5. c3 Ba5 6. d4 exd4 7. O-O d3
8. Qb3 Qf6 9. e5 Qg6 10. Re1 Nge7 11. Ba3 b5 12. Qxb5 Rb8 13. Qa4 Bb6
14. Nbd2 Bb7 15. Ne4 Qf5 16. Bxd3 Qh5 17. Nf6+ gxf6 18. exf6 Rg8 19. Rad1
Qxf3 20. Rxe7+ Nxe7 21. Qxd7+ Kxd7 22. Bf5+ Ke8 23. Bd7+ Kf8 24. Bxe7# 1-0
""",
    """[Event "Blackburne shilling gambit"]
[Site "?"]
[Date "????.??.??"]
[White "NN"]
[Black "Blackburne, Joseph Henry"]
[Result "0-1"]

1. e4 e5 2. Nf3 Nc6 3. Bc4 Nd4 4. Nxe5 Qg5 5. Nxf7 Qxg2 6. Rf1 Qxe4+ 7. Be2
Nf3# 0-1
""",
    """[Event "Budapest trap"]
[Site "Paris"]
[Date "1924.??.??"]
[White "Gibaud, Amedee"]
[Black "Lazard, Frederic"]
[Result "0-1"]

1. d4 Nf6 2. c4 e5 3. dxe5 Ng4 4. Bf4 Nc6 5. Nf3 Bb4+ 6. Nbd2 Qe7 7. a3
Ngxe5 8. axb4 Nd3# 0-1
""",
    """[Event "Caro-Kann smothered mate"]
[Site "?"]
[Date "????.??.??"]
[White "NN"]
[Black "NN"]
[Result "1-0"]

1. e4 c6 2. d4 d5 3. Nc3 dxe4 4. Nxe4 Nd7 5. Qe2 Ngf6 6. Nd6# 1-0
""",
    """[Event "Englund gambit trap"]
[Site "?"]
[Date "????.??.??"]
[White "NN"]
[Black "NN"]
[Result "0-1"]

1. d4 e5 2. dxe5 Nc6 3. Nf3 Qe7 4. Bf4 Qb4+ 5. Bd2 Qxb2 6. Bc3 Bb4 7. Qd2
Bxc3 8. Qxc3 Qc1# 0-1
""",
    """[Event "Greco's miniature"]
[Site "?"]
[Date "1619.??.??"]
[White "Greco, Gioachino"]
[Black "NN"]
[Result "1-0"]

1. e4 b6 2. d4 Bb7 3. Bd3 f5 4. exf5 Bxg2 5. Qh5+ g6 6. fxg6 Nf6 7. gxh7+
Nxh5 8. Bg6# 1-0
""",
    """[Event "Reti's queen sacrifice"]
[Site "Vienna"]
[Date "1910.??.??"]
[White "Reti, Richard"]
[Black "Tartakower, Savielly"]
[Result "1-0"]

1. e4 c6 2. d4 d5 3. Nc3 dxe4 4. Nxe4 Nf6 5. Qd3 e5 6. dxe5 Qa5+ 7. Bd2
Qxe5 8. O-O-O Nxe4 9. Qd8+ Kxd8 10. Bg5+ Kc7 11. Bd8# 1-0
""",
]

GENERATED_GAMES = 100
MAX_PLIES = 250


def canonicalize(text: str) -> str:
    (parsed,) = parse_pgn(text)
    return canonical_text(parsed)


def generated_game(seed: int) -> str:
    moves, winner, _ = play_random_game(seed, max_plies=MAX_PLIES)
    tags = [
        ("Event", "Seeded self-play"),
        ("Site", "chessval"),
        ("Date", "????.??.??"),
        ("Round", str(seed)),
        ("White", "Random mover"),
        ("Black", "Random mover"),
    ]
    return serialize_game(tags, moves, RESULT_BY_WINNER[winner])


def main() -> None:
    blocks = [canonicalize(text) for text in FAMOUS]
    for seed in range(1, GENERATED_GAMES + 1):
        blocks.append(generated_game(seed))
    corpus = "\n".join(blocks)
    games = parse_pgn(corpus)
    assert len(games) == len(FAMOUS) + GENERATED_GAMES
    out = ROOT / "tests" / "data" / "corpus.pgn"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(corpus)
    mates = sum(1 for g in games for t in g.tokens if t.check_mark.value == "#")
    print(f"wrote {out} with {len(games)} games ({mates} mate marks)")


if __name__ == "__main__":
    main()
