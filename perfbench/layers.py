"""Per-layer spans around the program's public functions.

The tracer wraps each function listed in SPANS by name and patches every
module attribute of the loaded ``pillowdeg`` modules that binds it, so a
call through a re-export (``degeneration`` imports
``count_disjoint_line_pairs`` directly) is traced too.  A function that no
longer exists is recorded as missing and keeps zero calls.  Wrappers pass
``*args, **kwargs`` through, so signature changes do not break them.

Each span records an id, the invocation it belongs to, its name, its
parent's id (-1 at the top), start and end.  A span's self time is its
duration minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, function).  Several functions may share a span name;
# the layer is the part of the span name before the first dot.
SPANS = (
    ("cli", "cli", "main"),
    ("pillow.build_pillow", "pillow", "build_pillow"),
    ("pillow.verify_sphere_triangulation", "pillow", "verify_sphere_triangulation"),
    ("pillow.count_disjoint_line_pairs", "pillow", "count_disjoint_line_pairs"),
    ("pillow.disjoint_pairs_via_degrees", "pillow", "disjoint_pairs_via_degrees"),
    ("pillow.stages", "pillow", "quadric_stage"),
    ("pillow.stages", "pillow", "two_surface_stage"),
    ("pillow.transpose", "pillow", "transpose_map"),
    ("pillow.transpose", "pillow", "is_complex_isomorphism"),
    ("pillow.export", "pillow", "config_to_dict"),
    ("pillow.export", "pillow", "dot_face_adjacency"),
    ("pillow.export", "pillow", "dot_line_intersection"),
    ("pairs.count_disjoint_pairs", "pairs", "count_disjoint_pairs"),
    ("degeneration.build_table", "degeneration", "build_table"),
    ("degeneration.verify_conservation", "degeneration", "verify_conservation"),
    ("surfaces", "surfaces", "branch_characters"),
    ("surfaces", "surfaces", "verify_character_identities"),
)
LAYERS = ("cli", "pillow", "pairs", "degeneration", "surfaces")
PAIR_KERNEL = "pairs.count_disjoint_pairs"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.calls: dict[tuple[str, str], int] = defaultdict(int)  # (span, command) -> calls
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.comparisons = 0
        self.pairs_found = 0
        self.export_bytes = 0
        self.missing: list[str] = []
        self.invocation = 0
        self.command = ""
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._last_error: BaseException | None = None

    def calls_of(self, span: str, command: str | None = None) -> int:
        return sum(n for (s, cmd), n in self.calls.items()
                   if s == span and command in (None, cmd))

    def _wrap(self, span: str, fn):
        layer = span.split(".", 1)[0]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span == PAIR_KERNEL and args:
                e = len(args[0])
                self.comparisons += e * (e - 1) // 2
            frame = [self._next_id, time.perf_counter(), 0.0]
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:  # count where it is first raised
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.calls[(span, self.command)] += 1
                self.self_s[span] += duration - frame[2]
                parent = stack[-1][0] if stack else -1
                if stack:
                    stack[-1][2] += duration
                self.spans.append((frame[0], self.invocation, span, parent, frame[1], end))
            if span == PAIR_KERNEL and isinstance(result, int):
                self.pairs_found += result
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block."""
        modules = {}
        for _, module, _ in SPANS:
            try:
                modules[module] = importlib.import_module(f"pillowdeg.{module}")
            except ImportError:
                modules[module] = None
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "pillowdeg" or name.startswith("pillowdeg."))]
        restore = []
        try:
            for span, module, function in SPANS:
                original = getattr(modules[module], function, None)
                if not callable(original):
                    self.missing.append(f"{module}.{function}")
                    continue
                wrapper = self._wrap(span, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            restore.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)
