"""sha256 of every output file of a fixed matrix of ce-dynamics calls, to show two trees agree.

    python tools/output_digests.py write [TABLE]      # TABLE: tests/golden_runs.json
    python tools/output_digests.py compare [TABLE]
    python tools/output_digests.py drift OTHER_SRC

Every mode runs, through ``cli.main`` in a child process, the package in the ``src/`` next
to this script:

* ``run`` on 7 dynamics x action counts (3,3), (3,4,3), (5,5), (2,4) x ``--eta 0.05``,
  ``--eta 5``, adaptive, adaptive with ``--adaptive-budget 1e-7``, each at T = 600 with
  ``--rvu-constant 64 --variance-budget 1 --smoothness-order 3 --save-trace``;
* every self-play ``run`` of the four perfbench workloads at workload seed 0, on the game
  files their set-up writes;
* ``diagnose --table --out`` on 7 dynamics x (3,3), (3,4,3) x the default order,
  ``--smoothness-order 5`` and ``--smoothness-alpha 0.01``, at T = 600, ``--eta 0.05``;
* ``trees --n 7 --root 3``, and ``stationary --method tree`` on a seeded 7-state chain.

Each call's exit code and each file it wrote are recorded; a call that writes no file is
recorded by its standard output, as ``stdout``. The temporary directory's path is replaced
by ``<tmp>`` before hashing, so the echoed game path compares across
checkouts. A run's last bits depend on the CPU code paths numpy and OpenBLAS pick, so the
child caps numpy's dispatch at x86-64-v3 and fixes the OpenBLAS core (``CAPPED``): any
x86-64-v3 machine with the table's numpy and OpenBLAS versions computes the same table. The
child also reports its machine and whether numpy dispatches x86-64-v3 loops there.
``write`` stores the table; ``compare`` recomputes it, reports how many files match and
exits 1 naming the machine if it is not x86-64-v3, else the versions if they differ from the
table's, else the first call and file that differ. ``drift`` runs the calls on this ``src/``
and on ``OTHER_SRC`` (another checkout's ``src/``) and prints how many files differ and, per
``run.csv`` column and per numeric ``summary.json`` key, the worst absolute and relative
difference: the report a change that moves last bits gives beside its regenerated table.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_runs.json"
CAPPED = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
          "OPENBLAS_CORETYPE": "Haswell"}

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
    import numpy as np
    from ce_dynamics.games import save_game
    from workloads import WORKLOADS, SelfPlayRun  # perfbench/workloads.py

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
    yield "trees/7/root3", ["trees", "--n", "7", "--root", "3"]
    chain = tmp / "chain7.json"
    Q = np.random.default_rng(7).uniform(0.01, 1.0, (7, 7))
    chain.write_text(json.dumps((Q / Q.sum(axis=1, keepdims=True)).tolist()))
    yield "stationary/tree/7", ["stationary", "--matrix", str(chain), "--method", "tree"]


def _machine() -> dict:
    """This process's machine and whether numpy dispatches x86-64-v3 loops on it: the table's
    bits need both, and a capped numpy reports the level it was capped at."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    return {"machine": platform.machine(), "x86_v3": bool(__cpu_features__.get("X86_V3"))}


def _digests(tmp: Path) -> dict:
    """The table of this process's package: its machine (:func:`_machine`), numpy and BLAS
    versions, and per call label {"exit": code, "files": {name: sha256}}; each call writes under
    ``tmp/call<k>``."""
    import numpy
    from ce_dynamics import cli

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    table = {**_machine(), "numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}",
             "calls": {}}
    for k, (label, argv) in enumerate(calls(tmp)):
        out = tmp / f"call{k}"
        out.mkdir()
        argv = [a.replace("<out>", str(out)) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        outputs = {path.relative_to(out).as_posix(): path.read_bytes()
                   for path in sorted(p for p in out.rglob("*") if p.is_file())}
        outputs = outputs or {"stdout": stdout.getvalue().encode()}
        files = {name: hashlib.sha256(data.replace(str(tmp).encode(), b"<tmp>")).hexdigest()
                 for name, data in outputs.items()}
        table["calls"][label] = {"exit": code, "files": files}
    return table


def capped_table(src: Path = ROOT / "src", keep: Path | None = None) -> dict:
    """The table of the package in ``src``, computed in a child process under ``CAPPED``; with
    ``keep``, the calls' outputs stay under that directory."""
    argv = [sys.executable, __file__, "_child", str(src), *([str(keep)] if keep else [])]
    child = subprocess.run(argv, env={**os.environ, **CAPPED}, capture_output=True, text=True)
    if child.returncode:
        raise RuntimeError(f"digest child failed:\n{child.stderr}")
    return json.loads(child.stdout)


def compare(want: dict, got: dict) -> list[str]:
    """Every difference between two tables, in call order: their versions, or else their calls.
    A ``got`` computed off x86-64-v3 (see :func:`_machine`) fails first, naming the cause."""
    if got.get("machine") not in ("x86_64", "AMD64") or not got.get("x86_v3"):
        return [f"computed on {got.get('machine')} with numpy's X86_V3 {got.get('x86_v3')}: the "
                f"digests hold only where numpy dispatches x86-64-v3 loops"]
    versions = [f"{k} {want.get(k)} -> {got.get(k)}" for k in ("numpy", "blas")
                if want.get(k) != got.get(k)]
    if versions:
        return [f"table recorded on other versions ({', '.join(versions)}); the digests hold "
                f"only for the recorded ones: regenerate with `write` on them"]
    want, got, diffs = want["calls"], got["calls"], []
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


def _numbers(path: Path):
    """(column or dotted key, value) of every number in a ``run.csv`` or ``summary.json``."""
    if path.suffix == ".csv":
        for row in csv.DictReader(io.StringIO(path.read_text())):
            yield from ((k, float(v)) for k, v in row.items())
        return

    def walk(key, node):
        if isinstance(node, dict):
            for k, v in node.items():
                yield from walk(f"{key}.{k}" if key else k, v)
        elif isinstance(node, list):
            for v in node:
                yield from walk(key, v)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            yield key, float(node)

    yield from walk("", json.loads(path.read_text()))


def drift(other_src: Path) -> str:
    """How many files differ between the calls on ``other_src`` and on this ``src/``, and the
    worst absolute and relative difference per ``run.csv`` column and ``summary.json`` key."""
    with tempfile.TemporaryDirectory() as name:
        old, new = Path(name, "old"), Path(name, "new")
        a, b = capped_table(other_src, old), capped_table(keep=new)
        digests = [(h, a["calls"].get(label, {"files": {}})["files"].get(f))
                   for label, v in b["calls"].items() for f, h in v["files"].items()]
        lines = [f"{sum(h != g for h, g in digests)} of {len(digests)} files differ"]
        worst = {}  # (file name, key) -> [worst absolute, worst relative]
        for k, call in enumerate(b["calls"].values()):
            for path in call["files"]:
                file = Path(path).name
                if file not in ("run.csv", "summary.json"):
                    continue
                pairs = zip(_numbers(old / f"call{k}" / path), _numbers(new / f"call{k}" / path))
                for (key, x), (_, y) in pairs:
                    w = worst.setdefault((file, key), [0.0, 0.0])
                    if x != y and not (math.isnan(x) and math.isnan(y)):
                        gap = abs(x - y) if math.isfinite(x - y) else math.inf
                        w[0] = max(w[0], gap)
                        w[1] = max(w[1], gap / max(abs(x), abs(y)) if gap < math.inf else gap)
        moved = {k: w for k, w in worst.items() if k[0] == "run.csv" or max(w)}
        lines += [f"{file} {key}: worst absolute {w[0]:.2g}, relative {w[1]:.2g}"
                  for (file, key), w in moved.items()]
        lines.append(f"summary.json: {len(worst) - len(moved)} other numeric keys the same")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_child"]:  # the child of capped_table: its table on stdout
        sys.path[:0] = [argv[1], str(ROOT / "perfbench")]
        with tempfile.TemporaryDirectory() as name:
            keep = Path(argv[2]) if len(argv) > 2 else Path(name)
            keep.mkdir(parents=True, exist_ok=True)
            print(json.dumps(_digests(keep)))
        return 0
    if argv[:1] == ["drift"] and len(argv) == 2:
        print(drift(Path(argv[1]).resolve()))
        return 0
    if argv[:1] not in (["write"], ["compare"]) or len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = Path(argv[1]) if len(argv) == 2 else GOLDEN
    got = capped_table()
    files = sum(len(v["files"]) for v in got["calls"].values())
    if argv[0] == "write":
        path.write_text(json.dumps(got, indent=1) + "\n")
        print(f"{len(got['calls'])} calls, {files} files -> {path}")
        return 0
    diffs = compare(json.loads(path.read_text()), got)
    if diffs:
        print(f"{len(diffs)} differences; first: {diffs[0]}")
        return 1
    print(f"{len(got['calls'])} calls, {files} files: all match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
