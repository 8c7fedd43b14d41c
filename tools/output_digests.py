"""sha256 of every output file of a fixed matrix of ce-dynamics calls, to show two trees agree.

    python tools/output_digests.py write DIGESTS.json
    python tools/output_digests.py compare DIGESTS.json

Both modes run, in-process through ``cli.main``, the package in the ``src/`` next to this
script:

* ``run`` on 7 dynamics x action counts (3,3), (3,4,3), (5,5), (2,4) x ``--eta 0.05``,
  ``--eta 5``, adaptive, adaptive with ``--adaptive-budget 1e-7``, each at T = 600 with
  ``--rvu-constant 64 --variance-budget 1 --smoothness-order 3 --save-trace``;
* every self-play ``run`` of the four perfbench workloads at workload seed 0, on the game
  files their set-up writes;
* ``diagnose --table --out`` on 7 dynamics x (3,3), (3,4,3) x the default order,
  ``--smoothness-order 5`` and ``--smoothness-alpha 0.01``, at T = 600, ``--eta 0.05``.

Each call's exit code and each file it wrote are recorded; the temporary directory's path
is replaced by ``<tmp>`` before hashing, so the echoed game path compares across
checkouts. ``write`` stores the table; ``compare`` recomputes it, reports how many files
match and exits 1 naming the first call and file that differ. The digests hold for one
machine: numpy's CPU dispatch and the OpenBLAS core can move a run's last bits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ce_dynamics import cli  # noqa: E402
from ce_dynamics.games import save_game  # noqa: E402
from workloads import WORKLOADS, SelfPlayRun  # noqa: E402  (perfbench/workloads.py)

DYNAMICS = ("omwu", "mwu", "sl-omwu", "sl-mwu", "bm-omwu", "bm-mwu", "arbo")
RUN_SHAPES = ("3,3", "3,4,3", "5,5", "2,4")
RUN_ETAS = {
    "eta0.05": ["--eta", "0.05"],
    "eta5": ["--eta", "5"],
    "adaptive": ["--eta-rule", "adaptive"],
    "adaptive1e-7": ["--eta-rule", "adaptive", "--adaptive-budget", "1e-7"],
}
RUN_EXTRA = ["--rvu-constant", "64", "--variance-budget", "1", "--smoothness-order", "3",
             "--save-trace"]
DIAGNOSE_SHAPES = ("3,3", "3,4,3")
DIAGNOSE_ORDERS = {"default": [], "order5": ["--smoothness-order", "5"],
                   "alpha0.01": ["--smoothness-alpha", "0.01"]}


def _game_source(shape: str) -> list[str]:
    return ["--players", str(shape.count(",") + 1), "--actions", shape]


def calls(tmp: Path):
    """(label, argv) of every call, in a fixed order; ``<out>`` stands for the call's directory."""
    for dyn in DYNAMICS:
        for shape in RUN_SHAPES:
            for name, eta in RUN_ETAS.items():
                yield (f"run/{dyn}/{shape}/{name}",
                       ["run", *_game_source(shape), "--dynamics", dyn, "--horizon", "600",
                        *eta, *RUN_EXTRA, "--out", "<out>"])
    for workload in WORKLOADS.values():
        games = workload.setup(0)
        files = {}
        for label, game in games.items():
            files[label] = tmp / "games" / workload.name / f"{label}.json"
            files[label].parent.mkdir(parents=True, exist_ok=True)
            files[label].write_bytes(save_game(game))
        for op in workload.operations(0, games, files, Path("<out>"), smoke=False):
            if isinstance(op, SelfPlayRun):
                yield f"{workload.name}/{op.label}", op.argv
    for dyn in DYNAMICS:
        for shape in DIAGNOSE_SHAPES:
            for name, order in DIAGNOSE_ORDERS.items():
                yield (f"diagnose/{dyn}/{shape}/{name}",
                       ["diagnose", *_game_source(shape), "--dynamics", dyn, "--horizon", "600",
                        "--eta", "0.05", *order, "--table", "<out>/table.csv",
                        "--out", "<out>/report.json"])


def digests() -> dict:
    """label -> {"exit": code, "files": {name: sha256}} for every call of :func:`calls`."""
    table = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for k, (label, argv) in enumerate(calls(tmp)):
            out = tmp / f"call{k}"
            out.mkdir()
            argv = [a.replace("<out>", str(out)) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            files = {}
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                data = path.read_bytes().replace(str(tmp).encode(), b"<tmp>")
                files[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
            table[label] = {"exit": code, "files": files}
    return table


def compare(want: dict, got: dict) -> list[str]:
    """Every difference between two tables, in call order."""
    diffs = []
    for label in [*want, *(k for k in got if k not in want)]:
        a, b = want.get(label), got.get(label)
        if a is None or b is None:
            diffs.append(f"{label}: only in the {'new' if a is None else 'stored'} table")
        elif a["exit"] != b["exit"]:
            diffs.append(f"{label}: exit {a['exit']} -> {b['exit']}")
        else:
            diffs += [f"{label}/{f}: {a['files'].get(f)} -> {b['files'].get(f)}"
                      for f in sorted({*a["files"], *b["files"]})
                      if a["files"].get(f) != b["files"].get(f)]
    return diffs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] not in ("write", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, path = argv
    got = digests()
    files = sum(len(v["files"]) for v in got.values())
    if mode == "write":
        Path(path).write_text(json.dumps(got, indent=1) + "\n")
        print(f"{len(got)} calls, {files} files -> {path}")
        return 0
    diffs = compare(json.loads(Path(path).read_text()), got)
    if diffs:
        print(f"{len(diffs)} differences; first: {diffs[0]}")
        return 1
    print(f"{len(got)} calls, {files} files: all match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
