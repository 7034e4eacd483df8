"""Record the references the benchmark checks outputs against.

    python3 perfbench/make_refs.py

Run it only on a commit whose outputs are trusted: it overwrites
``perfbench/refs/`` with that commit's outputs. The files are

* ``scan.json``: the parsed ``scan --max-n 3 --max-dim 8`` table;
* ``hasse.json``: SHA-256 and size of annotated ``hasse`` on (4,4,4) in DOT
  and JSON, with its node and edge counts;
* ``pairs.json``: every codimension-2 pair with n <= 3 and total dimension
  <= 7, with its ``classify`` verdict (the ``cli`` workload draws from it);
* ``hasse_small.json``: SHA-256 of annotated ``hasse --format json`` for each
  dimension vector with n <= 3, total dimension 3 to 5 and no zero entry.
"""

from __future__ import annotations

import json
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

import workloads  # noqa: E402
from quiverdeg import degeneration, formats, singularity, windows  # noqa: E402

PAIRS_MAX_N, PAIRS_MAX_DIM = 3, 7


def _lines(value) -> str:
    """JSON with one list item per line, so reference diffs stay readable."""
    if isinstance(value, list):
        return "[\n" + ",\n".join(json.dumps(e) for e in value) + "\n]"
    return json.dumps(value)


def _write(name: str, value) -> None:
    if isinstance(value, dict):
        text = "{\n" + ",\n".join(
            f"{json.dumps(k)}: {_lines(v)}" for k, v in value.items()) + "\n}\n"
    else:
        text = _lines(value) + "\n"
    (workloads.REFS / name).write_text(text, encoding="utf-8")


def _dims(n: int, total: int):
    return [d for d in product(range(total + 1), repeat=n) if sum(d) == total]


def _run(args) -> str:
    code, out, err = workloads.run_inprocess(args)
    if code != 0:
        raise SystemExit(f"{args}: exit {code}: {err}")
    return out


def scan_ref() -> dict:
    return workloads.parse_scan(_run(workloads.Scan.args))


def hasse_ref() -> dict:
    ref = {"dim": "4,4,4"}
    for fmt in ("dot", "json"):
        out = _run(workloads.Hasse._args(ref["dim"], fmt))
        ref[fmt] = {"sha256": workloads.sha256(out), "bytes": len(out.encode())}
        if fmt == "json":
            obj = json.loads(out)
            ref["nodes"], ref["edges"] = len(obj["nodes"]), len(obj["edges"])
    return ref


def pairs_ref() -> list[dict]:
    entries = []
    for n in range(1, PAIRS_MAX_N + 1):
        for total in range(1, PAIRS_MAX_DIM + 1):
            for d in _dims(n, total):
                nodes = degeneration.enumerate_nilpotent(n, d)
                self_hom = [windows.multiset_hom_dim(x, x) for x in nodes]
                for a, b in product(range(len(nodes)), repeat=2):
                    if self_hom[b] - self_hom[a] != 2:
                        continue
                    if not degeneration.degenerates(nodes[a], nodes[b]):
                        continue
                    verdict, _ = singularity.classify(nodes[a], nodes[b])
                    entries.append({
                        "n": n,
                        "m": formats.windows_to_obj(nodes[a])["windows"],
                        "nn": formats.windows_to_obj(nodes[b])["windows"],
                        "verdict": str(verdict),
                    })
    return entries


def hasse_small_ref() -> list[dict]:
    entries = []
    for n in range(1, 4):
        for total in range(3, 6):
            for d in _dims(n, total):
                if 0 in d:
                    continue  # keep vectors whose diagram has several classes
                dim = ",".join(map(str, d))
                out = _run(["hasse", "--n", str(n), "--dim", dim, "--annotate",
                            "--format", "json"])
                entries.append({"n": n, "dim": dim, "sha256": workloads.sha256(out)})
    return entries


def main() -> None:
    workloads.REFS.mkdir(exist_ok=True)
    _write("scan.json", scan_ref())
    _write("hasse.json", hasse_ref())
    _write("pairs.json", pairs_ref())
    _write("hasse_small.json", hasse_small_ref())


if __name__ == "__main__":
    main()
