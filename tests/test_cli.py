import gc
import hashlib
import io
import json
import random
import re
import sys
import tracemalloc

import pytest

from stablecore import (
    NotATree,
    OutOfRange,
    ParseError,
    analyze,
    enumerate_labeled_trees,
    random_tree,
    tree_from_edges,
)
from stablecore import cli
from stablecore.cli import (
    export_dot,
    format_tree_file,
    main,
    parse_tree_file,
    parse_tree_text,
    write_report,
)
from stablecore.harness import fig5_tree


def path(n):
    return tree_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    return str(f)


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_minimal():
    assert parse_tree_text("2\n0 1\n") == path(2)


def test_parse_with_comments_and_blanks():
    assert parse_tree_text("# comment\n3\n\n0 1\n1 2\n") == path(3)


def test_parse_edge_count_mismatch():
    with pytest.raises(ParseError) as exc:
        parse_tree_text("3\n0 1\n")
    assert exc.value.line == 2


def test_parse_extra_edge_line():
    with pytest.raises(ParseError) as exc:
        parse_tree_text("2\n0 1\n1 0\n")
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "text",
    ["", "# only comments\n", "x\n", "3 4\n0 1\n", "2\n0\n", "2\na b\n"],
)
def test_parse_malformed(text):
    with pytest.raises(ParseError):
        parse_tree_text(text)


@pytest.mark.parametrize("text, line", [("0\n", 1), ("1\n", 1), ("# c\n-4\n0 1\n", 2)])
def test_parse_vertex_count_below_two(text, line):
    with pytest.raises(ParseError, match="a tree needs at least 2 vertices") as exc:
        parse_tree_text(text)
    assert exc.value.line == line


def test_parse_invalid_tree_propagates():
    with pytest.raises(NotATree):
        parse_tree_text("3\n0 1\n0 1\n")


def test_round_trip_exhaustive():
    for n in range(2, 9):
        for t in enumerate_labeled_trees(n):
            assert parse_tree_text(format_tree_file(t)) == t


def _reference_parse(text):
    """The parser that collects every edge before it validates, kept as the
    reference for the streamed ``parse_tree_text``."""
    n = None
    edges = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError(f"expected the vertex count, got {line!r}", line=lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise ParseError(f"vertex count is not an integer: {line!r}", line=lineno)
            if n < 2:
                raise ParseError(f"a tree needs at least 2 vertices, got n={n}", line=lineno)
            continue
        if len(edges) == n - 1:
            raise ParseError(f"expected {n - 1} edges, found extra data {line!r}", line=lineno)
        if len(fields) != 2:
            raise ParseError(f"expected an edge 'u v', got {line!r}", line=lineno)
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ParseError(f"edge endpoints are not integers: {line!r}", line=lineno)
    if n is None:
        raise ParseError("no data lines found", line=last_line or 1)
    if len(edges) != n - 1:
        raise ParseError(
            f"edge count mismatch: expected {n - 1}, found {len(edges)}", line=last_line
        )
    return tree_from_edges(n, edges)


_SEPARATORS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c"]
_NOISE = ["# note", "   # indented note", "#", "\t#x 1 2", "", "  ", "\t \t"]
_ODD_INTS = ["+1", "1_0", "\u0661", "-1", "0x1", "1.0"]


def _random_document(rng):
    """An edge-list document built from comments, blank lines, odd separators,
    odd integer spellings, wrong field counts and wrong edge counts."""
    n = rng.randint(2, 6) if rng.random() < 0.9 else rng.randint(0, 1)
    if rng.random() < 0.5 and n >= 2:
        t = random_tree(n, seed=rng.randrange(1 << 30))
        edges = [[str(u), str(v)] for u, v in t.edges]
        rng.shuffle(edges)
    else:
        edges = [[str(rng.randint(-1, n)), str(rng.randint(-1, n))] for _ in range(max(n - 1, 0))]
    if rng.random() < 0.2 and edges:
        edges.pop(rng.randrange(len(edges)))
    if rng.random() < 0.2:
        edges.append([str(rng.randint(0, n)), str(rng.randint(0, n))])
    for fields in edges:
        if rng.random() < 0.05:
            fields[rng.randrange(2)] = rng.choice(_ODD_INTS)
        if rng.random() < 0.03:
            del fields[1:]
        if rng.random() < 0.03:
            fields.append(rng.choice(["# trailing note", "7", "#"]))
    header = [rng.choice(_ODD_INTS)] if rng.random() < 0.05 else [str(n)]
    if rng.random() < 0.03:
        header.append(rng.choice(["# vertices", "3"]))
    lines = [" ".join(header)] + [rng.choice([" ", "\t", "  "]).join(f) for f in edges]
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(_NOISE))
    if rng.random() < 0.03:
        lines = [rng.choice(_NOISE) for _ in range(rng.randint(0, 3))] + lines[:rng.randint(0, 1)]
    text = ""
    for line in lines:
        pad = rng.choice(["", "", " ", "\t"])
        text += pad + line + pad + rng.choice(_SEPARATORS)
    return text if rng.random() < 0.9 else text.rstrip("\n")


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, NotATree, OutOfRange) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def test_parse_matches_reference_on_random_documents():
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(20_000):
        text = _random_document(rng)
        expected = _parse_outcome(_reference_parse, text)
        assert _parse_outcome(parse_tree_text, text) == expected, text
        kinds.add(expected[0] if isinstance(expected, tuple) else "tree")
    assert kinds == {"tree", ParseError, NotATree, OutOfRange}


def test_parse_errors_come_before_validation_errors():
    # line 2 is a self-loop, but the malformed line 3 is reported first
    with pytest.raises(ParseError) as exc:
        parse_tree_text("3\n0 0\nx y\n")
    assert exc.value.line == 3


def _traced(fn):
    """fn's value, and the memory it left allocated and its peak, in bytes.
    A full collection first empties the interpreter's free lists, whose
    objects would be reused without being traced."""
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        value = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, kept - base, peak - base


def test_parse_peak_memory_is_at_most_twice_the_tree():
    # the endpoints are packed, two machine ints an edge, and cut away as the
    # adjacency lists grow; no list of pairs or of lines is built (1.57 to
    # 1.60 on Python 3.10 to 3.13, 1.81 with a list of edge tuples; the
    # bound leaves room for other interpreter builds)
    text = format_tree_file(random_tree(10**5, seed=3))
    t, kept, peak = _traced(lambda: parse_tree_text(text))
    assert t.n == 10**5
    assert peak <= 1.75 * kept, (peak, kept)


def test_parsed_tree_holds_one_int_object_per_vertex():
    # every endpoint is taken from one label list, as in a decoded tree
    t = random_tree(5000, seed=7)
    parsed = parse_tree_text(format_tree_file(t))
    fresh = [(int(str(u)), int(str(v))) for u, v in t.edges]
    for built in (parsed, tree_from_edges(t.n, fresh)):
        assert built == t
        assert len({id(v) for a in built.adjacency for v in a}) == t.n


def test_format_peak_memory_is_at_most_three_times_its_output():
    # lines are joined a block of vertices at a time: neither the edge list
    # nor a list of all the lines is built (2.0 here, 12.7 with both)
    t = random_tree(10**5, seed=3)
    text, _, peak = _traced(lambda: format_tree_file(t))
    assert peak <= 3 * len(text), (peak, len(text))


class _Sink:
    """A stdout that keeps only a digest of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode("utf-8"))


def test_gen_writes_each_document_as_it_is_built(monkeypatch):
    # the 16,807 documents of --n 7 are neither listed nor joined (a traced
    # peak of 11 MiB when they were); the bytes are those of one join
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    code, _, peak = _traced(lambda: main(["gen", "--exhaustive", "--n", "7", "--out", "-"]))
    assert code == 0
    assert peak < 2 << 20, peak
    joined = "\n".join(format_tree_file(t) for t in enumerate_labeled_trees(7))
    assert sink.digest.hexdigest() == hashlib.sha256(joined.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("end", ["99999999999999999999999", "18446744073709551616", "-1"])
def test_endpoint_past_the_machine_range_is_out_of_range(end):
    # such an endpoint does not pack: it is reported as the edge it is on,
    # after any parse error and after the edge count, before a later edge
    name = f"^edge \\(1,{end}\\) has an endpoint outside 0..3$"
    for last in ((2, 3), (2, 2)):
        with pytest.raises(OutOfRange, match=name):
            parse_tree_text(f"4\n0 1\n1 {end}\n{last[0]} {last[1]}\n")
        with pytest.raises(OutOfRange, match=name):
            tree_from_edges(4, [(0, 1), (1, int(end)), last])
    with pytest.raises(NotATree, match="self-loop at vertex 0"):
        parse_tree_text(f"4\n0 0\n1 {end}\n2 3\n")
    with pytest.raises(ParseError) as exc:
        parse_tree_text(f"4\n0 1\n1 {end}\nx y\n")
    assert exc.value.line == 4
    with pytest.raises(ParseError, match="edge count mismatch") as exc:
        parse_tree_text(f"4\n0 1\n1 {end}\n")
    assert exc.value.line == 3
    with pytest.raises(NotATree, match="needs 3 edges, got 2"):
        tree_from_edges(4, [(0, 1), (1, int(end))])


def test_endpoint_past_the_digit_limit_is_a_parse_error():
    # int() refuses more than 4,300 digits by default: the line is reported
    # as an edge whose endpoints are not integers, as by the reference
    doc = "3\n0 1\n1 " + "9" * 5000 + "\n"
    with pytest.raises(ParseError, match="edge endpoints are not integers") as exc:
        parse_tree_text(doc)
    assert exc.value.line == 3
    assert _parse_outcome(parse_tree_text, doc) == _parse_outcome(_reference_parse, doc)


def test_parse_reads_a_long_document_piece_by_piece():
    # 20,000 lines span several pieces of text; the line numbers of errors
    # and every spelling follow the whole document, as in the reference
    t = random_tree(20000, seed=11)
    lines = format_tree_file(t).splitlines()
    docs = ["\n".join(lines) + "\n", "\r\n".join(lines), "\n".join(lines[:9000])
            + "\n# a comment\n\n" + "\n".join(lines[9000:]) + "\n"]
    for doc in docs:
        assert parse_tree_text(doc) == t
    # an endpoint of 5,000 digits is past int()'s default limit on digits
    for i, bad in [(15000, "x y"), (18000, "3 20000"), (19000, "7 7"), (12000, "5"),
                   (19999, f"{lines[19999]} 4"), (16000, " 1 2"), (17000, "1 " + "9" * 5000)]:
        doc = "\n".join(lines[:i] + [bad] + lines[i + 1:]) + "\n"
        assert _parse_outcome(parse_tree_text, doc) == _parse_outcome(_reference_parse, doc), bad
    doc = "\n".join(lines + lines[1:2]) + "\n"
    assert _parse_outcome(parse_tree_text, doc) == _parse_outcome(_reference_parse, doc)


def test_first_bad_edge_wins_across_whole_and_line_by_line_pieces():
    # one bad edge in a piece otherwise in format_tree_file's form, and one
    # in a piece that holds a comment or CRLF line ends, in either order:
    # the first in the document is reported, as by the reference
    lines = format_tree_file(random_tree(20000, seed=13)).splitlines()
    errors = {"5 5": "self-loop at vertex 5",
              "3 20000": "edge (3,20000) has an endpoint outside 0..19999"}
    for first, second in [("5 5", "3 20000"), ("3 20000", "5 5")]:
        edited = lines[:2000] + [first] + lines[2001:15000] + [second] + lines[15001:]

        def noted(i):
            # a comment on either side: the piece that holds line i holds one
            return "\n".join(edited[:i] + ["# note", edited[i], "# note"] + edited[i + 1:]) + "\n"

        docs = [
            noted(2000),
            noted(15000),
            # pieces hold about 5,000 lines of this tree: CRLF in the first
            # 2,001 lines or from line 12,000 on reaches only one of the two
            "\r\n".join(edited[:2001]) + "\r\n" + "\n".join(edited[2001:]) + "\n",
            "\n".join(edited[:12000]) + "\n" + "\r\n".join(edited[12000:]) + "\r\n",
        ]
        for doc in docs:
            expected = _parse_outcome(_reference_parse, doc)
            assert expected[1] == errors[first]
            assert _parse_outcome(parse_tree_text, doc) == expected


def test_vertex_count_past_the_machine_range_is_an_edge_count_mismatch():
    # endpoints up to n-1 are good edges but do not fit a machine int; no
    # such tree fits in memory, and the edge count is reported
    big = 1 << 64
    for doc in (f"{big + 1}\n0 {big}\n", f"{big + 1}\n0 {big}\n# c\n", f"{big}\n0 {big - 1}\n"):
        expected = _parse_outcome(_reference_parse, doc)
        assert expected[0] is ParseError and "edge count mismatch" in expected[1]
        assert _parse_outcome(parse_tree_text, doc) == expected


# ---------------------------------------------------------------------------
# reports and DOT


def test_write_report_analyze_values():
    obj = json.loads(write_report(analyze(path(4))))
    assert obj["xi"] == 0 and obj["perfect_matching"] is True
    obj = json.loads(write_report(analyze(path(5))))
    assert obj["core"] == [0, 2, 4]
    assert obj["bipartition"] == {"a": [0, 2, 4], "b": [1, 3]}


def test_write_report_empty_list():
    assert write_report([]) == "[]\n"


def test_write_report_count_past_int_str_limit():
    # a hub with two leaves and 15,000 two-edge legs: 2^15000 maximum stable
    # sets, a count of 4516 digits, past the default 4300-digit limit
    legs = 15_000
    edges = [(0, 1), (0, 2)]
    for i in range(legs):
        a, b = 3 + 2 * i, 4 + 2 * i
        edges += [(0, a), (a, b)]
    t = tree_from_edges(2 * legs + 3, edges)
    before = sys.get_int_max_str_digits()
    text = write_report(analyze(t))
    assert sys.get_int_max_str_digits() == before
    digits = re.search(r'"num_maximum_stable_sets": (\d+)', text).group(1)
    assert len(digits) == 4516
    sys.set_int_max_str_digits(0)
    try:
        assert int(digits) == 2**legs
    finally:
        sys.set_int_max_str_digits(before)


def test_dot_p2_single_edge():
    dot = export_dot(path(2), analyze(path(2)))
    assert dot.count("--") == 1
    assert "0 -- 1;" in dot


def test_dot_marks_core_and_pendants():
    t = path(5)
    dot = export_dot(t, analyze(t))
    for v in (0, 2, 4):
        assert f"{v} [" in dot and "fillcolor" in dot
    marked_core = [ln for ln in dot.splitlines() if "fillcolor" in ln]
    assert len(marked_core) == 3


def test_dot_fig5_two_core_pendants():
    t = fig5_tree()
    dot = export_dot(t, analyze(t))
    both = [ln for ln in dot.splitlines() if "fillcolor" in ln and "shape=box" in ln]
    assert len(both) == 2


# ---------------------------------------------------------------------------
# command driver


def test_analyze_stdout_and_exit_zero(tmp_path, capsys):
    f = write(tmp_path, "p4.txt", format_tree_file(path(4)))
    assert main(["analyze", f]) == 0
    first = capsys.readouterr().out
    obj = json.loads(first)
    assert obj["alpha"] == 2 and obj["perfect_matching"] is True
    assert main(["analyze", f]) == 0
    assert capsys.readouterr().out == first  # byte-identical reruns


def test_analyze_writes_json_and_dot(tmp_path):
    f = write(tmp_path, "p5.txt", format_tree_file(path(5)))
    out_json = tmp_path / "report.json"
    out_dot = tmp_path / "p5.dot"
    assert main(["analyze", f, "--json", str(out_json), "--dot", str(out_dot)]) == 0
    assert json.loads(out_json.read_text())["core"] == [0, 2, 4]
    assert "0 -- 1;" in out_dot.read_text()


def test_parse_error_exits_two(tmp_path, capsys):
    f = write(tmp_path, "bad.txt", "3\n0 1\n")
    assert main(["analyze", f]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for argv in (["analyze", missing], ["convert", missing, "--dot", "-"],
                 ["bond", missing, "0", missing, "0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and "Traceback" not in err


def test_non_utf8_file_exits_two(tmp_path, capsys):
    f = tmp_path / "latin.txt"
    f.write_bytes(b"3\n0 1\n1 \xff2\n")
    assert main(["analyze", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: line 3: ")
    with pytest.raises(ParseError) as exc:
        parse_tree_file(str(f))
    assert exc.value.line == 3 and "not UTF-8" in str(exc.value)


def test_non_utf8_stdin_exits_two_like_a_file(tmp_path, monkeypatch, capsys):
    # stdin is read as bytes and decoded as a file is, whatever the locale
    data = b"2\n0 1\n# \xff\n"
    f = tmp_path / "latin.txt"
    f.write_bytes(data)

    def stdin(raw):
        # a text stream that would decode the bytes without complaint
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="latin-1"))

    for name in (str(f), "-"):
        stdin(data)
        assert main(["analyze", name]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: ")
        stdin(data)
        with pytest.raises(ParseError, match="is not UTF-8 text") as exc:
            parse_tree_file(name)
        assert exc.value.line == 3
    stdin(b"3\r\n0 1\r\n1 2\r\n")
    assert parse_tree_file("-") == path(3)


def test_unwritable_output_exits_one(tmp_path, capsys):
    f = write(tmp_path, "p3.txt", format_tree_file(path(3)))
    missing = str(tmp_path / "no-such-dir" / "out")
    for argv in (["analyze", f, "--json", missing], ["analyze", f, "--dot", missing],
                 ["analyze", f, "--json", "-", "--dot", missing],
                 ["verify", "--claims", "C7", "--mode", "exhaustive", "--n-min", "2",
                  "--n-max", "3", "--out", missing],
                 ["bond", f, "1", f, "1", "--out", missing],
                 ["convert", f, "--dot", missing]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err == f"error: cannot write {missing}: No such file or directory\n", argv
    assert main(["gen", "--exhaustive", "--n", "3", "--out", f]) == 1
    assert capsys.readouterr().err == f"error: cannot write {f}: File exists\n"


def test_unwritable_verify_output_fails_before_the_run(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("run_suite called despite an unwritable report path")

    monkeypatch.setattr(cli, "run_suite", no_run)
    missing = str(tmp_path / "missing-dir" / "out")
    argv = ["verify", "--claims", "C7", "--mode", "exhaustive", "--n-min", "2",
            "--n-max", "9", "--out", missing]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {missing}: No such file or directory\n"


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--random", "--n", "5"])  # missing --count
    assert exc.value.code == 1


def test_gen_exhaustive_stdout(capsys):
    assert main(["gen", "--exhaustive", "--n", "3", "--out", "-"]) == 0
    docs = [d for d in capsys.readouterr().out.split("\n\n") if d.strip()]
    assert len(docs) == 3
    assert all(parse_tree_text(d).n == 3 for d in docs)


def test_gen_random_to_directory(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main([
        "gen", "--random", "--n", "9", "--count", "4", "--seed", "11",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    files = sorted(out.iterdir())
    assert len(files) == 4
    trees = [parse_tree_text(f.read_text()) for f in files]
    assert all(t.n == 9 for t in trees)
    # same invocation regenerates the same bytes
    out2 = tmp_path / "corpus2"
    assert main([
        "gen", "--random", "--n", "9", "--count", "4", "--seed", "11",
        "--out", str(out2),
    ]) == 0
    assert [f.read_text() for f in files] == [f.read_text() for f in sorted(out2.iterdir())]


def test_gen_dedup(capsys):
    assert main(["gen", "--exhaustive", "--n", "4", "--dedup-iso", "--out", "-"]) == 0
    docs = [d for d in capsys.readouterr().out.split("\n\n") if d.strip()]
    assert len(docs) == 2


@pytest.mark.parametrize("args", [
    ["--exhaustive", "--n", "6"],
    ["--exhaustive", "--n", "7", "--dedup-iso"],
    ["--random", "--n", "6", "--count", "300", "--seed", "3", "--dedup-iso"],
], ids=["exhaustive", "exhaustive-dedup", "random-dedup"])
def test_gen_directory_holds_the_stdout_documents(tmp_path, capsys, args):
    assert main(["gen", *args, "--out", "-"]) == 0
    docs = capsys.readouterr().out
    assert main(["gen", *args, "--out", str(tmp_path)]) == 0
    files = sorted(tmp_path.iterdir())
    assert capsys.readouterr().out == f"wrote {len(files)} trees to {tmp_path}\n"
    assert "\n".join(f.read_text(encoding="utf-8") for f in files) == docs


def test_random_sizes_past_2_64_are_usage_errors(capsys):
    # a size drawn below more than 2^64 looped for ever; no tree is built
    n = str(2**70)
    for argv in (["verify", "--claims", "C7", "--mode", "random", "--n-min", "2",
                  "--n-max", n, "--sample", "1", "--seed", "1", "--out", "-"],
                 ["gen", "--random", "--n", n, "--count", "1"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"error: random corpus needs n_max <= 2^64, got {n}\n", argv


def test_bond_cli(tmp_path, capsys):
    f = write(tmp_path, "p3.txt", format_tree_file(path(3)))
    assert main(["bond", f, "1", f, "1"]) == 0
    bonded = parse_tree_text(capsys.readouterr().out)
    assert bonded.n == 5 and bonded.degree(1) == 4


def test_bond_vertex_out_of_range_is_usage_error(tmp_path, capsys):
    f = write(tmp_path, "p3.txt", format_tree_file(path(3)))
    assert main(["bond", f, "3", f, "0"]) == 1
    assert capsys.readouterr().err == "error: v1=3 outside 0..2\n"
    assert main(["bond", f, "0", f, "-1"]) == 1
    assert capsys.readouterr().err == "error: v2=-1 outside 0..2\n"


def test_convert_cli(tmp_path):
    f = write(tmp_path, "fig5.txt", format_tree_file(fig5_tree()))
    out = tmp_path / "fig5.dot"
    assert main(["convert", f, "--dot", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("graph tree {") and text.rstrip().endswith("}")


@pytest.mark.parametrize("tree", [fig5_tree(), random_tree(200, 13)], ids=["fig5", "random-200"])
def test_convert_writes_the_bytes_of_analyze_dot(tmp_path, capsys, tree):
    f = write(tmp_path, "tree.txt", format_tree_file(tree))
    converted, drawn = tmp_path / "convert.dot", tmp_path / "analyze.dot"
    assert main(["convert", f, "--dot", str(converted)]) == 0
    assert main(["analyze", f, "--dot", str(drawn)]) == 0
    assert capsys.readouterr().out == ""
    assert converted.read_bytes() == drawn.read_bytes()
    assert main(["convert", f, "--dot", "-"]) == 0
    assert capsys.readouterr().out == drawn.read_text()


def test_verify_exit_codes_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = main([
        "verify", "--claims", "C3,C7", "--mode", "exhaustive",
        "--n-min", "2", "--n-max", "5", "--out", str(report),
    ])
    assert rc == 0
    capsys.readouterr()
    verdicts = json.loads(report.read_text())
    assert [v["claim"] for v in verdicts] == ["C3", "C7"]
    assert all(v["refuted"] == 0 for v in verdicts)
    assert all(v["checked"] == 145 for v in verdicts)  # 1 + 3 + 16 + 125

    # C12 is refuted on the 5-vertex path, so the exit code flips to 3
    rc = main([
        "verify", "--claims", "C12", "--mode", "exhaustive",
        "--n-min", "2", "--n-max", "5", "--out", str(report),
    ])
    assert rc == 3
    capsys.readouterr()
    (verdict,) = json.loads(report.read_text())
    assert verdict["refuted"] == 60
    assert all(w["status"] == "refuted" for w in verdict["witnesses"])


def test_gen_exhaustive_beyond_ceiling_is_usage_error(capsys):
    assert main(["gen", "--exhaustive", "--n", "12", "--out", "-"]) == 1
    assert "n_max" in capsys.readouterr().err


def test_verify_exhaustive_beyond_ceiling_is_usage_error(tmp_path, capsys):
    rc = main([
        "verify", "--claims", "C7", "--mode", "exhaustive",
        "--n-min", "2", "--n-max", "12", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "n_max" in capsys.readouterr().err


def test_verify_all_claims_small_corpus(tmp_path, capsys):
    report = tmp_path / "all.json"
    rc = main([
        "verify", "--claims", "all", "--mode", "exhaustive",
        "--n-min", "2", "--n-max", "5", "--out", str(report),
    ])
    # C12(b) and C13 refutations are expected findings on this corpus
    assert rc == 3
    capsys.readouterr()
    verdicts = json.loads(report.read_text())
    assert len(verdicts) == 14
    refuted = {v["claim"] for v in verdicts if v["refuted"]}
    assert refuted == {"C12", "C13"}


def test_verify_unknown_claim_is_usage_error(tmp_path, capsys):
    rc = main([
        "verify", "--claims", "C99,C7,X1", "--mode", "exhaustive",
        "--n-min", "2", "--n-max", "4", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "unknown claims: 'C99', 'X1'; valid: C1, " in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("raw", [",", "", " , "])
@pytest.mark.parametrize("n_min, n_max", [("2", "4"), ("1", "0")],
                         ids=["corpus-valid", "corpus-invalid"])
def test_verify_empty_claim_list_is_usage_error(capsys, raw, n_min, n_max):
    # "--claims ," once wrote the report [] and exited 0, even for a corpus
    # that validation rejects
    rc = main(["verify", "--claims", raw, "--mode", "exhaustive", "--n-min", n_min,
               "--n-max", n_max, "--out", "-"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --claims names no claim: {raw!r}\n"


def test_verify_repeated_claim_is_usage_error(tmp_path, capsys):
    rc = main([
        "verify", "--claims", "C7,C7,C12", "--mode", "exhaustive", "--n-min", "2",
        "--n-max", "5", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "C7" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_verify_jobs_zero_is_usage_error(tmp_path, capsys):
    rc = main([
        "verify", "--claims", "C7", "--mode", "exhaustive", "--n-min", "2",
        "--n-max", "4", "--jobs", "0", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_verify_stdout_summary_is_deterministic(tmp_path, capsys):
    args = [
        "verify", "--claims", "C7,C10", "--mode", "random", "--n-min", "12",
        "--n-max", "18", "--sample", "25", "--seed", "9",
        "--out", str(tmp_path / "r.json"),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    byte1 = (tmp_path / "r.json").read_bytes()
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert (tmp_path / "r.json").read_bytes() == byte1
