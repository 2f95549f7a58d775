"""Golden records: every CLI example in README.md, run with --json, must print
exactly the canonical record stored under tests/golden/, and run without it
must print its human lines and write that record to --out PATH.  Every file
under tests/golden/ is the record of one README example.

The records pin behaviour across refactors.  Regenerate one only when its
output changes on purpose:

    PYTHONPATH=src python -m kzeta <example args> --json > tests/golden/<name>.json

where <name> is `record_name(args)` below.
"""

import pathlib
import shlex

import pytest

import kzeta.cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def readme_examples() -> list[list[str]]:
    """Argument vectors of the `kzeta ...` lines in README.md's code blocks."""
    out = []
    in_block = False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("kzeta "):
            out.append(shlex.split(line, comments=True)[1:])
    return out


def record_name(argv: list[str]) -> str:
    return "_".join(a.lstrip("-") for a in argv).replace(":", "-")


EXAMPLES = readme_examples()


def test_readme_examples_found():
    assert len(EXAMPLES) >= 11
    assert EXAMPLES[0] == ["korder", "--m", "7", "--k", "1"]
    assert EXAMPLES[-1] == ["selftest", "--level", "full"]


@pytest.mark.parametrize("argv", EXAMPLES, ids=record_name)
def test_cli_example_matches_golden_record(argv, capsys):
    expected = (GOLDEN / (record_name(argv) + ".json")).read_text(encoding="utf-8")
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("argv", EXAMPLES, ids=record_name)
def test_cli_example_prints_human_lines_and_writes_golden_record(argv, tmp_path, capsys):
    expected = (GOLDEN / (record_name(argv) + ".json")).read_text(encoding="utf-8")
    path = tmp_path / "record.json"
    code = cli.main(argv + ["--out", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() and out != expected
    assert path.read_text(encoding="utf-8") == expected


def test_every_golden_record_has_its_readme_example():
    # a record whose example has left the README is an orphan
    records = sorted(path.name for path in GOLDEN.iterdir())
    assert records == sorted(record_name(argv) + ".json" for argv in EXAMPLES)
