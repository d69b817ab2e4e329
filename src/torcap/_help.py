"""Help pages and usage errors of the command line grammar `cli._COMMANDS`.

The CLI imports this module only to print one of them, so that a command
line that runs a command does not compile it.  The CLI passes its grammar
in: this module imports nothing from `cli`, which under `python -m
torcap.cli` runs as `__main__` and would load a second time."""

from __future__ import annotations

import shutil
import sys
import textwrap


def subcommands(commands: dict, words: str) -> dict:
    """The entries of the grammar `commands` in the group `words`, by their
    last word."""
    return {sub.rpartition(" ")[2]: entry for sub, entry in commands.items()
            if sub and sub.rpartition(" ")[0] == words}


def stop(commands: dict, prog: str, words: str, error: str | None) -> None:
    """Print the help page of the group or command `words` of the grammar
    `commands` and exit 0, or, given an error, print its usage line and the
    error on stderr and exit 2."""
    entry = commands[words]
    # (indent, name, help) rows of the two sections of the page
    options = [(2, "-h, --help", "show this help message and exit")]
    if isinstance(entry, str):
        doc, usage = entry, "COMMAND ..."
        operands = [(2, "COMMAND", ""), *((4, word, sub if isinstance(sub, str) else sub[0].__doc__)
                                          for word, sub in subcommands(commands, words).items())]
    else:
        doc = entry[0].__doc__
        usage = " ".join((*(o[0] if o[1] is ... else f"[{o[0]}]" for o in entry[2:]), entry[1]))
        operands = [(2, name.strip("[]"), "") for name in entry[1].split()]
        options += [(2, option[0], option[2]) for option in entry[2:]]
    usage = f"usage: {prog} [-h] {usage}"
    if error is not None:
        print(usage, f"{prog}: error: {error}", sep="\n", file=sys.stderr)
        sys.exit(2)
    # the standard library's layout: the help texts start in one column, at
    # most 24, that the longest name sets as if it were not indented, and wrap
    # at the terminal's width; a name too long for that column has its own line
    width = shutil.get_terminal_size().columns - 2
    column = min(max(len(name) for _, name, _ in operands + options) + 4, 24, max(width - 20, 4))
    lines = [usage, "", textwrap.fill(doc, width)]
    for title, rows in (("positional arguments:", operands), ("options:", options)):
        lines += ["", title]
        for indent, name, text in rows:
            wrapped = textwrap.wrap(text, max(width - column, 11))
            line = " " * indent + name
            if wrapped and len(line) <= column - 2:
                line = f"{line:<{column}}{wrapped.pop(0)}"
            lines += [line, *(" " * column + rest for rest in wrapped)]
    print("\n".join(lines))
    sys.exit(0)
