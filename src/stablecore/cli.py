"""Command-line front door: analyze trees, generate corpora, verify claims.

Input trees use a plain edge-list text format: lines starting with '#' are
comments, the first data line is the vertex count n >= 2, and each of the
following n-1 data lines is an edge "u v" with 0-based endpoints.

Exit codes: 0 success, 1 usage error (an empty ``--claims`` list or an
unknown claim id included), a random tree too large to allocate or an
output that cannot be written, 2 parse/validation error (an input file
that cannot be read or is not UTF-8 included), 3 at least one claim
refuted during ``verify`` (distinct from a harness crash).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from array import array
from dataclasses import asdict
from operator import eq
from pathlib import Path
from typing import Iterable

from .bonding import vertex_bond
from .errors import OutOfRange, ParseError, StablecoreError
from .graph_model import Tree, _edge_error, _tree_from_ends
from .harness import (
    CLAIM_IDS,
    CorpusSpec,
    Verdict,
    _kept_indices,
    _trees,
    check_suite,
    run_suite,
)
from .independence import AnalysisReport, analyze


def parse_tree_text(text: str) -> Tree:
    """Parse the edge-list format. Raises ParseError with the offending 1-based
    line number ahead of any NotATree/OutOfRange from tree validation.

    Each edge is checked when it is read, by ``_edge_error`` as in
    ``tree_from_edges``, and the first bad edge's error is raised once the
    whole text has parsed and the edge count holds. The good edges'
    endpoints are packed into an unsigned ``array`` (two machine ints an
    edge) for the build that ``tree_from_edges`` uses. The text is read a
    piece at a time, each piece cut just after a "\n" (every line break of
    ``str.splitlines`` ends with one or holds none): the first line, which
    is the header in a usual document, then about ``_PIECE_CHARS`` at a
    time. A piece is converted whole if ``_whole_piece`` takes it, else
    read line by line.
    """
    n = bad = None
    m = count = lineno = 0
    start = size = 0
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        piece = text[start:end]
        start, size = end, _PIECE_CHARS
        k = piece.count("\n")
        if n is not None and count + k <= m and (block := _whole_piece(piece, k, n)):
            ends.extend(block)
            count += k
            lineno += k
            continue
        for raw in piece.splitlines():
            lineno += 1
            fields = raw.split()
            if not fields or fields[0][0] == "#":
                continue
            if n is None:
                n = _vertex_count(fields, raw, lineno)
                m = n - 1
                # no text holds 2^64 edge lines: the count check rejects a
                # larger n, so its endpoints need not fit the array
                ends = array("Q") if n <= 1 << 64 else []
                put = ends.append
                continue
            if count == m:
                raise ParseError(
                    f"expected {m} edges, found extra data {raw.strip()!r}", line=lineno
                )
            if len(fields) != 2:
                raise ParseError(f"expected an edge 'u v', got {raw.strip()!r}", line=lineno)
            try:
                u = int(fields[0])
                v = int(fields[1])
            except ValueError:
                raise ParseError(f"edge endpoints are not integers: {raw.strip()!r}", line=lineno)
            count += 1
            if (error := _edge_error(u, v, n)) is None:
                put(u)
                put(v)
            bad = bad or error
    if n is None:
        raise ParseError("no data lines found", line=lineno or 1)
    if count != m:
        raise ParseError(f"edge count mismatch: expected {m}, found {count}", line=lineno)
    if bad:
        raise bad
    return _tree_from_ends(n, ends)


def _whole_piece(piece: str, k: int, n: int) -> list[int] | None:
    """The endpoints of the k edge lines of ``piece`` if each line is written
    as ``format_tree_file`` writes it, ASCII digits on either side of one
    space, every endpoint is in 0..n-1 and no edge is a self-loop; else
    None, and the piece is read line by line."""
    if not piece.isascii() or piece.encode().translate(None, b"0123456789") != b" \n" * k:
        return None
    try:
        ints = list(map(int, piece.split()))  # fewer than 2k if a line lacks a number
    except ValueError:  # past int()'s limit on digits
        return None
    it = iter(ints)
    if len(ints) != 2 * k or max(ints) >= n or any(map(eq, it, it)):
        return None
    return ints


def _vertex_count(fields: list[str], raw: str, lineno: int) -> int:
    """n from the fields of the header line ``raw``."""
    if len(fields) != 1:
        raise ParseError(f"expected the vertex count, got {raw.strip()!r}", line=lineno)
    try:
        n = int(fields[0])
    except ValueError:
        raise ParseError(f"vertex count is not an integer: {raw.strip()!r}", line=lineno)
    if n < 2:
        raise ParseError(f"a tree needs at least 2 vertices, got n={n}", line=lineno)
    return n


# Characters of text split into lines at a time: a 10^6-line document split
# whole would hold a million line strings at once.
_PIECE_CHARS = 1 << 16


def parse_tree_file(path: str) -> Tree:
    """``parse_tree_text`` of a file, or of stdin's bytes for "-". Input
    that cannot be read, or is not UTF-8, raises ParseError too."""
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", line=None) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text (byte {exc.start})", line=data.count(b"\n", 0, exc.start) + 1
        ) from None
    return parse_tree_text(text)


def format_tree_file(t: Tree) -> str:
    """Edge-list text document; ``parse_tree_text`` inverts it exactly. The
    edge lines are joined a block of vertices at a time, so no list of all
    the edges or lines is built."""
    adjacency = t.adjacency
    blocks = [f"{t.n}\n"]
    for start in range(0, t.n, _BLOCK_VERTICES):
        blocks.append("".join([
            f"{v} {w}\n"
            for v in range(start, min(start + _BLOCK_VERTICES, t.n))
            for w in adjacency[v] if v < w
        ]))
    return "".join(blocks)


# vertices whose edge lines are joined into one string at a time
_BLOCK_VERTICES = 1 << 12


# ---------------------------------------------------------------------------
# Reports


def report_to_obj(rep: AnalysisReport) -> dict:
    return {
        "n": rep.n,
        "alpha": rep.alpha,
        "mu": rep.mu,
        "xi": rep.xi,
        "core": sorted(rep.core),
        "pendants": sorted(rep.pendants),
        "bipartition": {"a": sorted(rep.bipartition.a), "b": sorted(rep.bipartition.b)},
        "perfect_matching": rep.has_perfect_matching,
        "strong_unique": rep.strong_unique,
        "num_maximum_stable_sets": rep.num_maximum_stable_sets,
    }


def _to_obj(item: AnalysisReport | Verdict) -> dict:
    # a Verdict's fields, its corpus's and its witnesses' are the report's keys
    return report_to_obj(item) if isinstance(item, AnalysisReport) else asdict(item)


def write_report(item) -> str:
    """Byte-stable JSON for an AnalysisReport, a Verdict, or a list of them."""
    if isinstance(item, (AnalysisReport, Verdict)):
        obj = _to_obj(item)
    else:
        obj = [_to_obj(x) for x in item]
    # An exact count of maximum stable sets passes the interpreter's limit on
    # int-to-str conversion (4300 digits by default) from about 10^5 vertices.
    # The limit is lifted for this dump only: parse_tree_text calls int() on
    # outside input and relies on it. Python before 3.10.7 has no limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def export_dot(t: Tree, rep: AnalysisReport) -> str:
    """Undirected DOT document: core vertices filled, pendant vertices boxed."""
    lines = ["graph tree {"]
    for v in range(t.n):
        attrs = []
        if v in rep.core:
            attrs.append("style=filled, fillcolor=lightblue")
        if v in rep.pendants:
            attrs.append("shape=box")
        if attrs:
            lines.append(f"  {v} [{', '.join(attrs)}];")
    lines.extend(f"  {u} -- {v};" for u, v in t.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` to the file ``out``, or to stdout for None or "-".
    Returns the exit code: 0, or 1 when the file cannot be written."""
    if out is None or out == "-":
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        return _cannot_write(out, exc)
    return 0


def _cannot_write(path: str | Path, exc: OSError) -> int:
    return _error(f"cannot write {path}: {exc.strerror or exc}", 1)


def _error(message, code: int) -> int:
    """Print ``message`` as one error line on stderr; returns the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_analyze(args) -> int:
    try:
        t = parse_tree_file(args.file)
    except StablecoreError as exc:
        return _error(exc, 2)
    rep = analyze(t)
    # the JSON report goes to --json, or to stdout when no output is named
    if (args.json is not None or args.dot is None) and _emit(write_report(rep), args.json):
        return 1
    return 0 if args.dot is None else _emit(export_dot(t, rep), args.dot)


def _cmd_gen(args) -> int:
    # an exhaustive corpus reads neither sample_size nor seed
    spec = CorpusSpec(
        mode="random" if args.random else "exhaustive", n_min=args.n, n_max=args.n,
        sample_size=args.count, seed=args.seed, dedup_isomorphism=args.dedup_iso,
    )
    try:
        indices = _kept_indices(spec)  # validates the spec before any output
    except StablecoreError as exc:
        return _error(exc, 1)
    # each document is written as it is built; none is kept
    to_dir = args.out is not None and args.out != "-"
    out_dir = path = Path(args.out) if to_dir else "-"
    width = max(5, len(str(max(len(indices) - 1, 0))))
    try:
        if to_dir:
            out_dir.mkdir(parents=True, exist_ok=True)
        for k, t in enumerate(_trees(spec, indices)):
            text = format_tree_file(t)
            if to_dir:
                path = out_dir / f"tree_{k:0{width}d}.txt"
                path.write_text(text, encoding="utf-8")
            else:
                sys.stdout.write(("\n" if k else "") + text)
    except OSError as exc:
        return _cannot_write(path, exc)
    except StablecoreError as exc:  # a tree too large to build
        return _error(exc, 1)
    if to_dir:
        print(f"wrote {len(indices)} trees to {out_dir}")
    return 0


def _parse_claims(raw: str) -> list[str]:
    """The ids of a ``--claims`` list, ``all`` naming every claim; the
    harness rejects unknown ids. Raises StablecoreError for a list of none."""
    if raw == "all":
        return list(CLAIM_IDS)
    claims = [c.strip() for c in raw.split(",") if c.strip()]
    if not claims:
        raise StablecoreError(f"--claims names no claim: {raw!r}")
    return claims


def _cmd_verify(args) -> int:
    # an exhaustive corpus reads neither sample_size nor seed, so its
    # report records neither
    drawn = args.mode == "random"
    spec = CorpusSpec(
        mode=args.mode, n_min=args.n_min, n_max=args.n_max,
        sample_size=args.sample if drawn else None, seed=args.seed if drawn else None,
        dedup_isomorphism=args.dedup_iso,
    )
    try:
        claims = check_suite(_parse_claims(args.claims), spec, args.jobs)
    except StablecoreError as exc:
        return _error(exc, 1)
    if args.out != "-":
        # fail before the run if the path cannot be written, leaving it as it was
        try:
            new = not os.path.exists(args.out)
            open(args.out, "a").close()
            if new:  # a link's new target goes, the link stays
                os.remove(os.path.realpath(args.out))
        except OSError as exc:
            return _cannot_write(args.out, exc)
    try:
        verdicts = run_suite(claims, spec, jobs=args.jobs)
    except StablecoreError as exc:  # a tree too large to build
        return _error(exc, 1)
    if _emit(write_report(verdicts), args.out):
        return 1
    if args.out != "-":
        for v in verdicts:
            print(
                f"{v.claim}: checked={v.checked} held={v.held} "
                f"refuted={v.refuted} skipped={v.skipped}"
            )
    if any(v.refuted for v in verdicts):
        return 3
    return 0


def _cmd_bond(args) -> int:
    try:
        t1 = parse_tree_file(args.file1)
        t2 = parse_tree_file(args.file2)
    except StablecoreError as exc:
        return _error(exc, 2)
    try:
        bond = vertex_bond(t1, args.v1, t2, args.v2)
    except OutOfRange as exc:
        return _error(exc, 1)
    return _emit(format_tree_file(bond.tree), args.out)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default would exit 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stablecore", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stability structure of one tree")
    p.add_argument("file", help="edge-list file, or - for stdin")
    p.add_argument("--json", metavar="OUT", help="write the JSON report here (- for stdout)")
    p.add_argument("--dot", metavar="OUT", help="write a DOT drawing here (- for stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gen", help="generate a tree corpus")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--random", action="store_true", help="seeded uniform labeled trees")
    mode.add_argument("--exhaustive", action="store_true", help="every labeled tree on n vertices")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--count", type=int, help="number of random trees")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dedup-iso", action="store_true", help="drop isomorphic duplicates")
    p.add_argument("--out", metavar="DIR|-", help="directory for one file per tree; - for stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run claim suites over a corpus")
    p.add_argument("--claims", required=True, help="comma-separated claim ids, or 'all'")
    p.add_argument("--mode", choices=["exhaustive", "random"], required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--sample", type=int, help="sample size (random mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="worker count; never changes output bytes")
    p.add_argument("--dedup-iso", action="store_true")
    p.add_argument("--out", required=True, metavar="FILE|-", help="JSON report destination")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bond", help="glue two trees at one vertex")
    p.add_argument("file1")
    p.add_argument("v1", type=int)
    p.add_argument("file2")
    p.add_argument("v2", type=int)
    p.add_argument("--out", metavar="FILE|-")
    p.set_defaults(func=_cmd_bond)

    p = sub.add_parser("convert", help="edge-list to annotated DOT (analyze --dot)")
    p.add_argument("file")
    p.add_argument("--dot", required=True, metavar="OUT")
    p.set_defaults(func=_cmd_analyze, json=None)
    return parser


def main(argv: Iterable[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.command == "gen" and args.random and args.count is None:
        parser.error("--random needs --count")
    if args.command == "verify" and args.mode == "random" and args.sample is None:
        parser.error("--mode random needs --sample")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
