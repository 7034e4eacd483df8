"""Every byte pin of the project, in one table.

Each digest was recorded before the change its comment names, so it does
not depend on the code it checks; none is re-recorded to make a change
pass. Each CLI row runs in this process through cli_runner.invoke and must
finish within its wall bound.
"""

import hashlib
import re
import time
from collections import Counter
from pathlib import Path

import pytest

from quiverdeg.degeneration import enumerate_nilpotent
from quiverdeg.formats import canonical_dumps
from quiverdeg.singularity import _dim_vectors, classify

import oracles
from cli_runner import invoke

# argv -> (SHA-256 of stdout, wall bound in s)
CLI_GOLDENS = {
    # The annotated (3,3,3) diagram, recorded before the bitset covers.
    "hasse --n 3 --dim 3,3,3 --annotate --format dot": (
        "9d1d46f29245dabfeaeffce62b46fe4b7adc02173cae30dc020472bc4323fb18", 20),
    "hasse --n 3 --dim 3,3,3 --annotate --format json": (
        "2733b95bbe7dbb54f962f9f22aa67e03de404a61e047c31ae23004c669dd7ad4", 20),
    # The annotated (5,5,5) diagram (2,899 nodes, 11,313 edges), recorded
    # before the covers were peeled off a graded numbering.
    "hasse --n 3 --dim 5,5,5 --annotate --format dot": (
        "cfd3ffe42187a30e736902ed069fd3dbda33f793427e0c5e1b08675a658b6209", 20),
    "hasse --n 3 --dim 5,5,5 --annotate --format json": (
        "f72bbba9b505f8dc82e729dd6d9c0bc263b675f5f4ee62b9922ff60ac761675a", 20),
    # 9,818 nodes, 43,047 edges and their labels; the cover loop that walked
    # every comparable pair took about 45 s.
    "hasse --n 3 --dim 6,6,6 --annotate --format json": (
        "502fb54e77b7ce5ab9db2351a1e18686ce4a541bba56e5a19c6c5936e891a03f", 20),
    # The largest desk-scale diagram, 31,011 nodes, so any change to window
    # hashing or order shows; recorded before windows became named tuples.
    "hasse --n 3 --dim 7,7,7 --annotate --format json": (
        "7bb1698a70cbb1e08f3d327f03bb2017e470a71f9256ac194b6a865773b0c62d", 60),
    # The only rank-4 diagram, 8,425 nodes and 38,644 edges. hasse reads
    # self-Hom off residues mod n; recorded while it still summed a
    # window x window Hom table.
    "hasse --n 4 --dim 4,4,4,4 --annotate --format json": (
        "c2187eae99dffb6f2935c2085bd3cbddb05fc3eab251ebd802d20dda69567871", 20),
    # The only rank-5 diagram, 8,093 nodes and 38,855 edges. Recorded while
    # hasse still filled the per-window rank rows lazily, only for the
    # windows that fit the vector.
    "hasse --n 5 --dim 3,3,3,3,3 --annotate --format json": (
        "e33c0a27092ce1401ca36259262f81c14e84da1daadd554bb100d3a8100c206e", 20),
    # The scan tables below were recorded before the rank order and the
    # verdict memo; (4, 9) before top_reduce became socle_reduce on the dual,
    # and (2, 12), about half of whose pairs are composites of two
    # codimension-1 covers, before scan read its pairs off the Hasse covers.
    "scan --max-n 2 --max-dim 12": (
        "f1e9034250ec6f31384bc84eb7bcc620aa1816780adfdfe4ae75dfd6a1e1f3dd", 30),
    "scan --max-n 3 --max-dim 9": (
        "76b0615395e0313da627b26c1bc25eeefe316f3b2ab93001e78ebef097e5baab", 30),
    "scan --max-n 4 --max-dim 8": (
        "3f5603d1df51b238b7e13643ccfb8020a5caef7cec0a7b83ae4049d0fdbadd05", 30),
    "scan --max-n 4 --max-dim 9": (
        "dec94d13367236f9736df97bbd445c6dbe5f38b7f650a95b9f9596a872e5e1a1", 30),
    # 40,395 codimension-2 pairs, recorded before scan read its pairs off
    # the Hasse covers.
    "scan --max-n 4 --max-dim 10": (
        "c532360593449c5849369c53d6aba8559a23fb8b203a3ccd5569839799418307", 30),
    # 36,721 classes and 63,668 codimension-2 pairs, recorded before the
    # window and move tables were shared by every vector of one rank and
    # total (up to 105 vectors share one table here).
    "scan --max-n 3 --max-dim 13": (
        "a84f274c5f47af0138afdf8a941e2dd1e7d47096bd473eb02d4e0432dfb066cc", 30),
    # The only pin with totals above 13: the windows of one start run 16 to
    # a stride, the widest step of the position arithmetic in the
    # enumeration and hasse. Recorded before that arithmetic replaced the
    # stored window index and skip tables.
    "scan --max-n 2 --max-dim 16": (
        "34c2a273ef2e1fb26c574bb69dcb1938c87385b97054da55a92de0ca951e6eec", 30),
    # The only scan pin with rank-5 rotations in its Unresolved listing (140
    # pairs, 45 at n = 5), recorded before scan shared one row across each
    # rotation orbit and rotated the first vector's Unresolved pairs.
    "scan --max-n 5 --max-dim 8": (
        "7017653de25a442f647ac093464cb42726ee9756b26efe30e6d84244d0be4cbf", 30),
}


@pytest.mark.parametrize(
    "argv", CLI_GOLDENS, ids=lambda argv: "-".join(argv.replace("--", "").split())
)
def test_cli_output_is_pinned(argv):
    digest, bound = CLI_GOLDENS[argv]
    start = time.perf_counter()
    result = invoke(argv.split())
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
    assert elapsed < bound


def test_enumeration_888_is_pinned():
    # The digest, of the classes' reprs joined by newlines, was recorded
    # before the move table replaced the depth-first search, which
    # re-explored every dead end under each prefix.
    start = time.perf_counter()
    classes = enumerate_nilpotent(3, (8, 8, 8))
    digest = hashlib.sha256("\n".join(map(repr, classes)).encode()).hexdigest()
    assert time.perf_counter() - start < 20
    assert (len(classes), digest) == (
        92464, "735dc0b4fc5e7067d740144b543af0d1c3876f2f4c954234f50865a293884be2")


# Recorded before the socle/top end move was shared and windows became
# canonical on construction; any change to a step, a pair or a verdict shows.
TRACES_N3_DIM7_SHA256 = "27a87a3092a6b7c8019beb788fe5941eb4cf9632a5536e9583d362222b8ae76d"


def test_codim2_traces_golden():
    digest = hashlib.sha256()
    kinds = Counter()
    pairs = 0
    for n in range(1, 4):
        for d in _dim_vectors(n, 7):
            nodes = enumerate_nilpotent(n, d)
            for x, y in oracles.codim2_pairs_from_masks(n, d):
                _, trace = classify(nodes[x], nodes[y])
                digest.update(canonical_dumps(trace.to_obj()).encode())
                kinds.update(s.kind for s in trace.steps)
                pairs += 1
    assert pairs == 1005
    assert kinds == {"cancel": 860, "socle": 239, "top": 67, "relabel": 64, "terminal": 64}
    assert digest.hexdigest() == TRACES_N3_DIM7_SHA256


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_no_workflow_step_pins_bytes():
    # This file is the one home of the byte pins, so tier-1 runs all of
    # them; a workflow step that hashes quiverdeg's output is a second one.
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    code = "\n".join(line for line in lines if not line.lstrip().startswith("#"))
    steps = re.split(r"\n\s*- (?=name:|uses:)", code)
    assert len(steps) > 1
    hashing = [
        step.splitlines()[0]
        for step in steps
        if re.search(r"hashlib|sha256", step, re.IGNORECASE)
        and re.search(r"quiverdeg|enumerate_nilpotent", step)
    ]
    assert hashing == []
