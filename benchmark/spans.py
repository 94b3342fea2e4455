"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each chessval module from the
outside: it replaces every module's binding of a wrapped name (the
package, the defining module and each module that imported the name with
`from .x import name`) and puts the originals back when the traced
operation ends.  Nothing inside `src/` is changed.

Each call becomes a span (id, parent id, function, operation id, start,
end).  Calls, inclusive time and self time are aggregated exactly for
every call; the spans themselves are kept in memory up to a cap and
written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

#: module -> wrapped public functions; these are the benchmark's layers.
WRAPPED = {
    "cli": ("cmd_validate", "cmd_roundtrip"),
    "pgn": ("parse_pgn", "resolve_san", "move_to_pgn_string", "serialize_game"),
    "game": ("game_move",),
    "fen": ("parse_fen",),
    "board": (
        "perft",
        "legal_moves",
        "possible_moves",
        "move",
        "has_legal_move",
        "in_check",
        "move_other",
        "move_castling",
        "move_en_passant",
        "board_to_ascii",
    ),
    "pieces": ("moves_with_colours",),
}

FUNCTIONS = tuple(f"{mod}.{name}" for mod, names in WRAPPED.items() for name in names)

# Spans kept in memory; the aggregates still count every call beyond it.
SPAN_CAP = 500_000

# Field layout of the binary span file, in write order.
SPAN_FIELDS = (
    ("span", "q"),
    ("parent", "q"),
    ("function", "H"),
    ("op", "I"),
    ("start_s", "d"),
    ("end_s", "d"),
)


class Tracer:
    """Wraps the chessval layer functions while an operation is traced."""

    def __init__(self):
        count = len(FUNCTIONS)
        self.calls = [0] * count
        self.total_s = [0.0] * count
        self.self_s = [0.0] * count
        self.wall_s = 0.0
        self.ops: list[str] = []
        self.dropped = 0
        self._spans = {name: array(code) for name, code in SPAN_FIELDS}
        self._depth = [0] * count
        self._stack: list[list] = []
        self._next_span = [0]
        self._bindings = self._find_bindings()
        self._wrappers = {}
        for _, _, original, index in self._bindings:
            if id(original) not in self._wrappers:
                self._wrappers[id(original)] = self._wrap(original, index)

    @staticmethod
    def _find_bindings():
        """(module object, attribute, original, index) for every binding of
        a wrapped function in any loaded chessval module."""
        loaded = [
            mod
            for name, mod in sys.modules.items()
            if name == "chessval" or name.startswith("chessval.")
        ]
        bindings = []
        for index, qualified in enumerate(FUNCTIONS):
            mod_name, fn_name = qualified.split(".")
            original = getattr(sys.modules[f"chessval.{mod_name}"], fn_name)
            for mod in loaded:
                for attr, value in vars(mod).items():
                    if value is original:
                        bindings.append((mod, attr, original, index))
        return bindings

    def _wrap(self, fn, index: int):
        stack = self._stack
        calls, total_s, self_s, depth = self.calls, self.total_s, self.self_s, self._depth
        next_span = self._next_span
        record = self._record
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = next_span[0]
            next_span[0] = span + 1
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            depth[index] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[index] += duration - frame[1]
                depth[index] -= 1
                if not depth[index]:
                    total_s[index] += duration
                calls[index] += 1
                if parent is None:
                    record(span, -1, index, start, end)
                else:
                    parent[1] += duration
                    record(span, parent[0], index, start, end)

        return traced

    def _record(self, span, parent, index, start, end):
        spans = self._spans
        if len(spans["span"]) >= SPAN_CAP:
            self.dropped += 1
            return
        spans["span"].append(span)
        spans["parent"].append(parent)
        spans["function"].append(index)
        spans["op"].append(len(self.ops) - 1)
        spans["start_s"].append(start)
        spans["end_s"].append(end)

    @contextmanager
    def traced(self, op_label: str):
        """Trace one operation: wrap every binding, run the body, unwrap."""
        self.ops.append(op_label)
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, self._wrappers[id(original)])
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)
            self._stack.clear()

    @property
    def span_count(self) -> int:
        return len(self._spans["span"])

    def write(self, stem: Path) -> None:
        """Write `<stem>.json` (function and operation names, field layout)
        and `<stem>.bin` (the span arrays, one field after another)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "functions": list(FUNCTIONS),
            "ops": self.ops,
            "fields": [[name, code] for name, code in SPAN_FIELDS],
            "count": self.span_count,
            "dropped": self.dropped,
            "byteorder": sys.byteorder,
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as sink:
            for name, _ in SPAN_FIELDS:
                self._spans[name].tofile(sink)
