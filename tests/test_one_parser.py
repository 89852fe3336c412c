"""The command line has one parser path.

``cli.main`` reads a well-formed line off the verb table with
``_read_line`` and leaves every other line to ``build_parser``, which
builds the one argparse tree of every verb, whose ``parse_args`` prints
help, usage and errors.  So the package constructs ``ArgumentParser`` in
``build_parser`` alone, only ``main`` calls ``build_parser``,
``_read_line`` and ``parse_args``, and nothing calls
``parse_known_args``: a second parser, or a second way through one,
would show here as a new site.

The check reads each module with ``ast``, so no linter is needed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multisect"
PARSING = {"ArgumentParser", "build_parser", "_read_line", "parse_args", "parse_known_args"}
SITES = ["cli.build_parser: ArgumentParser", "cli.main: _read_line",
         "cli.main: build_parser", "cli.main: parse_args"]


def parser_sites(sources: dict[str, str]) -> list[str]:
    """``module.definition: name`` for each call of a name in ``PARSING``,
    and each import of one, by the module (keyed by name in ``sources``)
    and top-level definition that hold it."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = f"{module}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.Call):
                    names = [getattr(node.func, "attr", getattr(node.func, "id", None))]
                else:
                    continue
                found += [f"{owner}: {name}" for name in names if name in PARSING]
    return sorted(found)


def test_the_check_finds_a_second_parser_path():
    source = ("import argparse\nfrom argparse import ArgumentParser as Parser\n"
              "def build_parser():\n    return argparse.ArgumentParser(prog='x')\n"
              "def help_only(argv):\n    return argparse.ArgumentParser().parse_known_args(argv)\n"
              "def main(argv):\n    return _read_line(argv) or build_parser().parse_args(argv)\n")
    assert parser_sites({"cli": source}) == [
        "cli.<module>: ArgumentParser", "cli.build_parser: ArgumentParser",
        "cli.help_only: ArgumentParser", "cli.help_only: parse_known_args",
        "cli.main: _read_line", "cli.main: build_parser", "cli.main: parse_args"]
    assert parser_sites({"words": "def parse_word(text):\n    return text.split()\n"}) == []


def test_main_alone_reaches_the_one_argparse_tree():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert parser_sites(sources) == SITES
