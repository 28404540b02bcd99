"""One SHA-256 over the stdout of the CLI's read-only commands on small graphs.

A change that means to keep every printed byte keeps this digest.  It covers
`params`, `bounds --exact` and `ng` at k = 1..3, and `recognize` for each
family (`lk-eq-k` at k = 2), on the 208 isomorphism classes of order <= 6 and
the 94 tree classes of order 2..9: 3,322 calls.  Each call adds the JSON line
[argv, exit code, stdout] to the digest.  A deliberate output change records
the new digest, printed by

    PYTHONPATH=src python tests/test_cli_digest.py
"""
import contextlib
import hashlib
import io
import json

from limpack import emit_graph6
from limpack.cli import main
from limpack.corpus import enumerate_tree_classes, labeled_class, parse_corpus_spec

DIGEST = "7cb6e83cf407547aa8f03f331f320ea29e9cc7c36bebc1f6b3d9e03831439276"
CALLS = 3322


def graphs() -> list[str]:
    first = {}
    for g in parse_corpus_spec("all_labeled(6)"):
        first.setdefault(labeled_class(g), g)
    trees = [g for n in range(2, 10) for g in enumerate_tree_classes(n)]
    return [emit_graph6(g) for g in [*first.values(), *trees]]


def calls(g6: str) -> list[list[str]]:
    out = [["params", "--graph", g6]]
    for k in ("1", "2", "3"):
        out += [["bounds", "--graph", g6, "--k", k, "--exact"], ["ng", "--graph", g6, "--k", k]]
    out += [["recognize", "--graph", g6, "--family", fam] for fam in ("classG", "spider", "classT")]
    out.append(["recognize", "--graph", g6, "--family", "lk-eq-k", "--k", "2"])
    return out


def cli_digest() -> tuple[str, int]:
    sha, count = hashlib.sha256(), 0
    for g6 in graphs():
        for argv in calls(g6):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
            sha.update(json.dumps([argv, rc, buf.getvalue()]).encode() + b"\n")
            count += 1
    return sha.hexdigest(), count


def test_cli_stdout_digest():
    assert cli_digest() == (DIGEST, CALLS)


if __name__ == "__main__":
    print(*cli_digest())
