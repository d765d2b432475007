"""Count the code-only lines of Python source files.

A code-only line holds part of a token that is neither a comment nor a
docstring (a string that is a whole statement); blank lines do not count.
Prints one fenced block, a line per file and the total, for a Markdown
summary:

    python tools/source_size.py src/glauert_bem/*.py

With ``--base REV`` each line also gives the change against the git
revision REV, whose source is read with ``git show REV:./path`` (a file
missing there counts 0):

    python tools/source_size.py --base main src/glauert_bem/*.py
"""

import argparse
import io
import subprocess
import tokenize

NOISE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source):
    """The number of code-only lines of the Python ``source`` (bytes)."""
    toks = [tok for tok in tokenize.tokenize(io.BytesIO(source).readline)
            if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, tok in enumerate(toks):
        doc = (tok.type == tokenize.STRING and toks[k - 1].type in NOISE
               and toks[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in NOISE and not doc:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def base_lines(rev, path):
    """The code-only lines of ``path`` at the git revision ``rev``; 0 where it is missing."""
    shown = subprocess.run(["git", "show", f"{rev}:./{path}"], capture_output=True)
    return code_lines(shown.stdout) if shown.returncode == 0 else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="Count code-only lines of Python files.")
    parser.add_argument("--base", metavar="REV", help="also print the change against REV")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    print("```")
    total = old_total = 0
    for path in args.paths:
        with open(path, "rb") as handle:
            count = code_lines(handle.read())
        total += count
        if args.base is None:
            print(f"{count:5d} {path}")
            continue
        old = base_lines(args.base, path)
        old_total += old
        print(f"{count:5d} {count - old:+5d} {path}")
    if args.base is None:
        print(f"{total:5d} code-only total")
    else:
        print(f"{total:5d} {total - old_total:+5d} code-only total, change against {args.base}")
    print("```")


if __name__ == "__main__":
    main()
