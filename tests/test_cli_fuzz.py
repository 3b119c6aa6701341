"""Fuzzed command lines and input files: `main` ends with a documented exit code.

Each example writes an input table, and a maps file for ``verify --maps``,
into a fresh directory and runs one subcommand in-process.  Whatever the
flags and files, `main` must return 0, 2, 3 or 4 and raise nothing; under
the suite's ``error::RuntimeWarning`` filter a numpy warning counts as a
raised exception.  No report it writes may hold ``NaN``, which is not
valid JSON; ``Infinity`` is allowed, since reverse KL is +inf on a zero
cell.  Single-valued flags are written as ``--flag=value`` so
that argparse reads negative values as values.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from infosep.cli import EXIT_IO, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main

#: nonnegative finite cells within a few decades of each other.  Tables
#: that span the float range still raise RuntimeWarnings in the
#: density-ratio code (`check_sufficiency`, `f_information`), so only the
#: explicit examples below, which the package handles, go that far.
GOOD = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 3.0])
#: cells no table may hold: negatives, non-finite floats, every other JSON
#: type and an integer too large for a float
BAD = st.sampled_from([-1.0, float("nan"), float("inf"), "a", None, True,
                       [1.0], {}, 10**400])
LABELS = st.one_of(st.none(), st.none(), st.none(), st.none(),
                   st.lists(st.sampled_from(["a", "b", "c"]), max_size=4),
                   st.sampled_from([5, "ab", {"k": 1}, [None, [1]]]))


def matrices(cells):
    return st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=3))


@st.composite
def json_tables(draw):
    p = draw(st.one_of(matrices(GOOD), matrices(GOOD), matrices(GOOD),
                       matrices(st.one_of(GOOD, GOOD, GOOD, BAD)),
                       st.lists(st.lists(GOOD, max_size=3), max_size=3)))
    doc = {"p": p}
    for key in ("x_labels", "y_labels"):
        labels = draw(LABELS)
        if labels is not None:
            doc[key] = labels
    return "t.json", json.dumps(doc).encode()


CSV_CELLS = st.sampled_from(["0", "1e-3", "0.5", "1", "3", "-1", "nan",
                             "inf", "a", ""])
CSV_TABLES = st.lists(st.lists(CSV_CELLS, min_size=1, max_size=3),
                      min_size=1, max_size=3).map(
    lambda rows: ("t.csv", "\n".join(",".join(r) for r in rows).encode()))
OTHER_FILES = st.sampled_from([b"[[0.5, 0.5]]", b"3", b'"p"', b"null",
                               b"{broken", b"\xff\xfe"]).map(
    lambda blob: ("t.json", blob))

MAP_ENTRIES = st.one_of(st.integers(-1, 3),
                        st.sampled_from([1.5, "0", True, None, 1e30,
                                         10**400]))
MAPS = st.one_of(
    st.fixed_dictionaries({"s": st.lists(MAP_ENTRIES, max_size=4),
                           "t": st.lists(MAP_ENTRIES, max_size=4)}),
    st.sampled_from([{"s": [0, 1], "t": [0, 1]}, {"s": [0, 0], "t": [0, 1]},
                     {"s": [0, 1, 1], "t": [0, 1, 2]},
                     {"s": [0, 1, 2], "t": [0, 0, 1]}]),
    st.sampled_from([{"s": [0, 1]}, [0, 1], "s", 0]))


def weighted(good, bad):
    """Values drawn from ``good`` three times as often as from ``bad``."""
    good = st.sampled_from(good)
    return st.one_of(good, good, good, st.sampled_from(bad))


BETAS = weighted(["1e-308", "0.5", "2", "1e308"], ["0", "-1", "nan", "inf"])
CARDS = weighted(["1", "2", "5"], ["0", "-1"])
SIZES = weighted(["3", "4"], ["-1", "0", "1", "2"])
#: a file in the example's directory, or the directory itself (unwritable)
OUT = st.sampled_from(["{tmp}/out", "{tmp}"])


@st.composite
def command_lines(draw):
    """An argv with ``{input}``, ``{maps}`` and ``{tmp}`` placeholders."""
    command = draw(st.sampled_from(["measures", "reduce", "verify",
                                    "ib-sweep"]))
    argv = [command, "{input}"]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")

    if command == "reduce":
        if draw(st.booleans()):
            argv.append("--strict")
        maybe("--out", OUT)
        return argv
    argv.append(f"--restarts={draw(st.integers(0, 1))}")
    if command == "measures":
        argv += [f"--beta={b}" for b in draw(st.lists(BETAS, max_size=2))]
        maybe("--wyner-card", CARDS)
        maybe("--json-out", OUT)
    elif command == "verify":
        source = draw(st.sampled_from(["minimal", "maps", "refine"]))
        if source == "maps":
            argv.append("--maps={maps}")
        elif source == "refine":
            argv += ["--auto-refine", draw(SIZES), draw(SIZES)]
        if draw(st.booleans()):
            argv.append("--strict")
        maybe("--wyner-card", CARDS)
        maybe("--json-out", OUT)
    else:
        maybe("--beta-grid", st.lists(BETAS, min_size=1, max_size=3).map(
            ",".join) | st.just(""))
        maybe("--card-u", CARDS)
        maybe("--csv-out", OUT)
    return argv


OVERFLOW = ("t.json", b'{"p": [[1e308, 1e308], [1.0, 1.0]]}')
SUBNORMAL = ("t.json", b'{"p": [[1, 1], [1e-310, 1e-310]]}')
DSBS = ("t.csv", b"0.45,0.05\n0.05,0.45")
#: the products of marginals in the Wyner residual underflow on this table
TINY_ROW = ("t.json", b'{"p": [[1e-200, 0], [0.5, 0.5]]}')


@settings(max_examples=400)
@given(table=st.one_of(json_tables(), json_tables(), CSV_TABLES,
                       OTHER_FILES),
       argv=command_lines(), maps=MAPS)
@example(table=OVERFLOW, argv=["measures", "{input}"], maps=0)
@example(table=SUBNORMAL, argv=["verify", "{input}", "--restarts=0"], maps=0)
@example(table=TINY_ROW, argv=["measures", "{input}", "--restarts=0"], maps=0)
@example(table=DSBS, argv=["verify", "{input}", "--restarts=0",
                           "--auto-refine", "3", "3"], maps=0)
@example(table=DSBS, argv=["verify", "{input}", "--restarts=0",
                           "--maps={maps}"], maps={"s": [0, 0], "t": [0, 1]})
def test_main_ends_with_a_documented_exit_code(table, argv, maps):
    name, blob = table
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, name)
        path.write_bytes(blob)
        maps_path = pathlib.Path(tmp, "maps.json")
        maps_path.write_text(json.dumps(maps))
        argv = [a.format(input=path, maps=maps_path, tmp=tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        reports = [out.getvalue()]
        out_file = pathlib.Path(tmp, "out")
        if out_file.is_file():
            reports.append(out_file.read_text())
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_IO, EXIT_VERIFY), argv
    assert not any("NaN" in report for report in reports), argv
    # a failure says why in one line; a failed verification may say nothing
    text = err.getvalue()
    if code == EXIT_OK or (code == EXIT_VERIFY and not text):
        assert text == ""
    else:
        assert text.startswith("error: ") and text.count("\n") == 1, text
