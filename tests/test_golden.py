"""Golden digests: the bytes of a few reports, pinned by SHA-256.

A change that should not move any output (a faster pass, a refactor) must
leave every digest here as it is. A change that moves an output on purpose
updates the digest and says why in CHANGES.md.
"""

import hashlib

import pytest

from stablecore import analyze, random_tree, tree_from_edges
from stablecore.cli import export_dot, format_tree_file, main, write_report
from stablecore.harness import CorpusSpec, fig5_tree, run_claim


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def test_analysis_report_digests():
    f5 = fig5_tree()
    rep = analyze(f5)
    assert sha256(write_report(rep)) == (
        "b8e411443e1b0ffd6e39050f1499c049fb608c7e7e37bd8d654da03a3aa822a2"
    )
    assert sha256(export_dot(f5, rep)) == (
        "b195e31f1c7cae2023d0b7a64462bae4941b44c2877bd45773bc74ff41ffdc67"
    )
    assert sha256(write_report(analyze(random_tree(10**4, 1)))) == (
        "8a408764945fb78d77544df59e45d380119b7debe92e63e7d93bd297b0816d42"
    )


@pytest.mark.parametrize("corpus,digest", [
    (["--mode", "exhaustive", "--n-min", "2", "--n-max", "6"],
     "ede200d06b354a927a2208194ecdcb9bfb3ab203cd49d25e4e12238a8f93f31b"),
    (["--mode", "random", "--n-min", "10", "--n-max", "20", "--sample", "500", "--seed", "3"],
     "be149eca63b2b6b2b00d4f59e421c0fdf755f5ddf37ee299fd35a16229c85abd"),
    # nine chunks over two workers: pins each chunk's witness selection and the merge
    (["--mode", "exhaustive", "--n-min", "2", "--n-max", "7", "--jobs", "2"],
     "7061d35bed73d21348dd3af4bea136c6f1532b8aba0302b8defa222005a5ec38"),
], ids=["exhaustive-2-6", "random-10-20", "exhaustive-2-7-jobs-2"])
def test_verify_report_digests(tmp_path, capsys, corpus, digest):
    out = tmp_path / "report.json"
    assert main(["verify", "--claims", "all", *corpus, "--out", str(out)]) == 3  # C12, C13
    capsys.readouterr()
    assert sha256(out.read_bytes()) == digest


def test_e1_report_digest_up_to_the_scan_ceiling():
    # every E1 measurement of 400 draws with n in 13..16; the verify digests
    # keep only its first 16 witnesses
    verdict = run_claim("E1", CorpusSpec("random", 13, 16, sample_size=400, seed=7),
                        witness_limit=None)
    assert sha256(write_report(verdict)) == (
        "161063cd701e63d8cdb97013c8000da6efdcea19c222742275f8422f427e343d"
    )


def test_bond_digest(tmp_path, capsys):
    left = tmp_path / "fig5.txt"
    left.write_text(format_tree_file(fig5_tree()), encoding="utf-8")
    right = tmp_path / "spur.txt"
    right.write_text(format_tree_file(tree_from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)])),
                     encoding="utf-8")
    assert main(["bond", str(left), "6", str(right), "1", "--out", "-"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "4e4a356a8574e00c4120001b4bf9de2ca3095c41f88e1553c5911c5e20bde381"
    )


def test_gen_exhaustive_digest(capsys):
    assert main(["gen", "--exhaustive", "--n", "6", "--out", "-"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "f899e651dd1b07d93026e5cf72569bffb57781d57a4c8c3d78c05c9e570efa72"
    )


def test_gen_random_digest(capsys):
    assert main(["gen", "--random", "--n", "50", "--count", "40", "--seed", "5", "--out", "-"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "704a66152098ccd0e568d82d6b5d5d5ddab054e686a6df0328bd7b9d22835b11"
    )
