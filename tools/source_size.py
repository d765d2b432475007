"""Count the code-only lines of Python source files.

A code-only line holds part of a token that is neither a comment nor a
docstring (a string that is a whole statement); blank lines do not count.
Prints one fenced block, a line per file and the total, for a Markdown
summary:

    python tools/source_size.py src/glauert_bem/*.py
"""

import sys
import tokenize

NOISE = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code-only lines of the file at ``path``."""
    with open(path, "rb") as handle:
        toks = [tok for tok in tokenize.tokenize(handle.readline)
                if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, tok in enumerate(toks):
        doc = (tok.type == tokenize.STRING and toks[k - 1].type in NOISE
               and toks[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in NOISE and not doc:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths):
    print("```")
    total = 0
    for path in paths:
        count = code_lines(path)
        print(f"{count:5d} {path}")
        total += count
    print(f"{total:5d} code-only total")
    print("```")


if __name__ == "__main__":
    main(sys.argv[1:])
