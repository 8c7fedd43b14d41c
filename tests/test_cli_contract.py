"""The run contract over the CLI's configuration space, as a property test.

Every accepted ``run`` or ``diagnose`` configuration either finishes (exit 0,
strict JSON, every requested report present) or fails typed (exit 2 or 3)
with nothing written: no output file, no report on stdout. The examples are
derandomized, so every run of the suite sees the same ones.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ce_dynamics.cli import main
from ce_dynamics.runner import DYNAMICS, ETA_RULES

EXAMPLES = 300

# Mostly a positive float drawn log-uniformly over the whole range, or a usual value; sometimes
# any float at all, NaN, the infinities and the negatives included.
numbers = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-323, 308)),
    st.sampled_from([0.05, 0.5, 5.0, 1.0, 64.0]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-8, 2)),
    st.floats(),
)


def sometimes(strategy):
    """None (the option left out) three times in four."""
    return st.one_of(st.none(), st.none(), st.none(), strategy)


@st.composite
def configurations(draw):
    """A ``run`` or ``diagnose`` argv, and the output flags (``--out``, ``--table``) it takes."""
    command = draw(st.sampled_from(["run", "diagnose"]))
    dynamics = draw(st.sampled_from(DYNAMICS))
    players = draw(st.integers(2, 3))
    top = 5 if dynamics == "arbo" else 6
    actions = draw(st.lists(st.integers(2, top), min_size=players, max_size=players))
    order = draw(sometimes(st.integers(-1, 6)))
    ceiling = 1.0 / (max(order or 0, 0) + 3)  # the largest alpha the order allows
    alpha = st.one_of(st.floats(0.0, 1.0, exclude_min=True).map(lambda f: f * ceiling), numbers)
    argv = [command, "--players", str(players), "--actions", ",".join(map(str, actions)),
            "--dynamics", dynamics, "--horizon", str(draw(st.integers(1, 40))),
            "--game-seed", str(draw(st.integers(0, 3))),
            "--log-base", draw(st.sampled_from(["e", "2"]))]
    rule = draw(st.sampled_from([None, *ETA_RULES]))
    options = {
        "--eta-rule": rule,
        "--eta": draw(numbers if rule in (None, "fixed") else sometimes(numbers)),
        "--schedule-constant": draw(sometimes(numbers)),
        "--adaptive-budget": draw(sometimes(numbers)),
        "--smoothness-order": order,
        "--smoothness-alpha": draw(sometimes(alpha)),
        "--rvu-constant": draw(sometimes(numbers)),
        "--variance-budget": draw(sometimes(numbers)),
    }
    for flag, value in options.items():  # "=" keeps a value such as -1e+16 off the flag list
        if value is not None:
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    if command == "run":
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
        if draw(st.booleans()):
            argv.append("--save-trace")
        return argv, ["--out"]
    return argv, [flag for flag in ("--out", "--table") if draw(st.booleans())]


def strict(text):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
@given(configurations())
def test_every_configuration_finishes_or_fails_typed_writing_nothing(case):
    argv, outputs = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"--out": Path(tmp, "out"), "--table": Path(tmp, "table.csv")}
        for flag in outputs:
            argv = [*argv, flag, str(paths[flag])]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        assert code in (0, 2, 3), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue() and "RuntimeWarning" not in stderr.getvalue()
        written = sorted(p.relative_to(tmp) for p in Path(tmp).rglob("*"))
        if code:
            assert written == [] and stdout.getvalue() == "", (argv, written)
            return
        if argv[0] == "run":
            out = paths["--out"]
            strict(stdout.getvalue())
            for name in ("summary.json", "run.json"):
                if (out / name).exists():
                    strict((out / name).read_text())
            summary = strict((out / "summary.json").read_text())
        else:
            text = paths["--out"].read_text() if "--out" in outputs else stdout.getvalue()
            summary = strict(text)
            assert ("--table" in outputs) == paths["--table"].exists()
        requested = {"rvu": "--rvu-constant", "variance_check": "--variance-budget",
                     "smoothness": "--smoothness-order"}
        for report, flag in requested.items():
            wanted = argv[0] == "diagnose" or any(a.startswith(flag + "=") for a in argv)
            assert (report in summary["diagnostics"]) is wanted, (argv, report)
