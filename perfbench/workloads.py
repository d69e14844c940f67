"""Seeded workloads: each is a list of CLI invocations plus the oracle that
checks each one's output.

A workload is a fixed cycle of invocations repeated ``cycles`` times.  The
seed picks the shape (a, b) of every bidegree, the orientation of every
verify box, the output formats and the order; the sizes (the products a*b,
so E = 6ab, and the boxes' sets of products) are fixed per slot.  Every
seed therefore does the same work and has the same spread of invocation
costs, so runs of different seeds measure the same thing.  Odd cycles use
the transposed shapes and the other output format, so each cycle pair
covers (a, b) and (b, a) in text and in JSON.

The slots repeat the products around the median and the tail: the median
invocation and the one at the tail percentile fall inside a group of
equal-cost invocations rather than between two different ones.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle

# a*b of each table slot: E = 6ab from 384 to 6144.
TABLE_PRODUCTS = (64, 128, 256, 256, 256, 256, 512, 512, 512, 1024)
# verify boxes tile 2..VERIFY_LIMIT squared along these intervals of each
# axis; the seed lists each box as (a-range, b-range) or transposed, which
# keeps its cost.
VERIFY_LIMIT = 12
VERIFY_INTERVALS = ((2, 4), (5, 8), (9, 12))
# a*b of each single-bidegree `pillow --verify` slot.
PILLOW_VERIFY_PRODUCTS = (64, 144, 256, 576)
# a*b of each export slot; the STDOUT_PRODUCT slots print their export
# inside the --format json document, every other slot writes --out.
EXPORT_PRODUCTS = (256, 1024, 2304, 4096)
EXPORT_KINDS = (("json", "faces"), ("dot", "faces"), ("dot", "lines"))
STDOUT_PRODUCT = 1024


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    configs: int                     # bidegrees (a, b) the invocation processes
    out: str | None                  # --out file, relative to the working directory
    validate: Callable[[str, str | None], str | None]  # (stdout, out file text) -> reason

    @property
    def command(self) -> str:
        return self.argv[0]


def _shape(rng: random.Random, product: int) -> tuple[int, int]:
    """A seeded (a, b) with a*b = product and a, b >= 2."""
    a = rng.choice([d for d in range(2, product // 2 + 1) if product % d == 0])
    return a, product // a


def _orient(shape: tuple[int, int], cycle: int) -> tuple[int, int]:
    return shape if cycle % 2 == 0 else (shape[1], shape[0])


def _format(slot: int, cycle: int, offset: int) -> str:
    return "json" if (slot + cycle + offset) % 2 else "text"


def _fmt_args(fmt: str) -> tuple[str, ...]:
    return ("--format", "json") if fmt == "json" else ()


def _ignore_out(check, stdout: str, out_content: str | None) -> str | None:
    return check(stdout)


def table_invocation(a: int, b: int, fmt: str) -> Invocation:
    return Invocation(
        ("table", "--a", str(a), "--b", str(b), *_fmt_args(fmt)), 1, None,
        partial(_ignore_out, partial(oracle.check_table, a, b, fmt)))


def pillow_verify_invocation(a: int, b: int, fmt: str) -> Invocation:
    return Invocation(
        ("pillow", "--a", str(a), "--b", str(b), "--verify", *_fmt_args(fmt)), 1, None,
        partial(_ignore_out, partial(oracle.check_pillow_verify, a, b, fmt)))


def verify_invocation(a_range: tuple[int, int], b_range: tuple[int, int],
                      fmt: str) -> Invocation:
    configs = (a_range[1] - a_range[0] + 1) * (b_range[1] - b_range[0] + 1)
    return Invocation(
        ("verify", "--a", f"{a_range[0]}..{a_range[1]}", "--b", f"{b_range[0]}..{b_range[1]}",
         "--limit", str(VERIFY_LIMIT), *_fmt_args(fmt)), configs, None,
        partial(_ignore_out, partial(oracle.check_verify, a_range, b_range, fmt)))


def export_invocation(a: int, b: int, export: str, graph: str, out: str | None) -> Invocation:
    argv = ["pillow", "--a", str(a), "--b", str(b), "--export", export]
    if graph == "lines":
        argv += ["--dot-graph", "lines"]
    argv += ["--out", out] if out else ["--format", "json"]
    fmt = "text" if out else "json"
    return Invocation(tuple(argv), 1, out,
                      partial(oracle.check_export, a, b, export, graph, fmt, out))


def table_sweep(seed: int, cycles: int) -> tuple[Invocation, list[Invocation]]:
    rng = random.Random(seed)
    shapes = [_shape(rng, p) for p in TABLE_PRODUCTS]
    offset = rng.randrange(2)
    runs = []
    for cycle in range(cycles):
        for slot in rng.sample(range(len(shapes)), len(shapes)):
            a, b = _orient(shapes[slot], cycle)
            runs.append(table_invocation(a, b, _format(slot, cycle, offset)))
    return table_invocation(2, 2, "text"), runs


def verify_sweep(seed: int, cycles: int) -> tuple[Invocation, list[Invocation]]:
    rng = random.Random(seed)
    boxes = [_orient((ra, rb), rng.randrange(2))
             for ra in VERIFY_INTERVALS for rb in VERIFY_INTERVALS]
    points = [_shape(rng, p) for p in PILLOW_VERIFY_PRODUCTS]
    offset = rng.randrange(2)
    runs = []
    for cycle in range(cycles):
        slots = [("box", i) for i in range(len(boxes))] + [("point", i) for i in range(len(points))]
        for kind, i in rng.sample(slots, len(slots)):
            fmt = _format(i, cycle, offset)
            if kind == "box":
                runs.append(verify_invocation(*_orient(boxes[i], cycle), fmt))
            else:
                runs.append(pillow_verify_invocation(*_orient(points[i], cycle), fmt))
    return verify_invocation((2, 2), (2, 2), "text"), runs


def pillow_export(seed: int, cycles: int) -> tuple[Invocation, list[Invocation]]:
    rng = random.Random(seed)
    slots = [(p, _shape(rng, p), kind) for p in EXPORT_PRODUCTS for kind in EXPORT_KINDS]
    runs = []
    for cycle in range(cycles):
        for i in rng.sample(range(len(slots)), len(slots)):
            product, shape, (export, graph) = slots[i]
            out = None
            if product != STDOUT_PRODUCT:
                ext = "json" if export == "json" else "dot"
                out = f"export-{cycle}-{i}.{ext}"
            runs.append(export_invocation(*_orient(shape, cycle), export, graph, out))
    return export_invocation(2, 2, "json", "faces", "warmup.json"), runs


WORKLOADS = {
    "table_sweep": table_sweep,
    "verify_sweep": verify_sweep,
    "pillow_export": pillow_export,
}
