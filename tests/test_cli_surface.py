"""The CLI surface: every (subcommand, option, default), pinned.

A change that adds, removes or renames an option, or moves a default,
fails here until ``cli_surface.json`` is regenerated and the change is
written down in CHANGES.md::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/cli_surface.json

Help texts and option order are not pinned.
"""
import argparse
import json
from pathlib import Path

from repro.cli import build_parser

PIN = Path(__file__).with_name("cli_surface.json")


def cli_surface() -> dict:
    """``{"fleet plan": {"--fleet": 2, ...}, ...}`` for every subcommand:
    each option by its longest flag (a positional by its dest)."""
    surface: dict = {}

    def walk(parser, command):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, command + (name,))
            elif not isinstance(action, argparse._HelpAction):
                name = max(
                    action.option_strings, key=len, default=action.dest
                )
                options = surface.setdefault(" ".join(command), {})
                options[name] = action.default

    walk(build_parser(), ())
    return surface


def test_cli_surface_matches_the_pin():
    assert cli_surface() == json.loads(PIN.read_text())


if __name__ == "__main__":
    print(json.dumps(cli_surface(), indent=1, sort_keys=True))
