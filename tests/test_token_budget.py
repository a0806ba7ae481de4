"""Every module stays inside the parser's first token-array size.

With bytecode caching off (``PYTHONDONTWRITEBYTECODE``), every lpsurf command
compiles every module it imports.  CPython 3.11's parser keeps a module's
tokens in one array that doubles when full, and a module of more than 8,192
tokens doubles it to 16,384 entries, which raises the peak memory of every
command.  Comments, blank lines and line continuations are not parser tokens,
and a docstring is one token however long it is.  Measured on CPython 3.11.7
(2-vCPU Xeon VM), when ``surface.py`` was at exactly 8,192 tokens:

- at 8,194 tokens, ``compile()`` of ``surface.py`` peaked at 3,584 KB instead
  of 3,072 KB (resident set; 3,312 KB instead of 2,856 KB under tracemalloc);
- at 8,209 tokens, ``flips_large`` ``peak_rss_mb`` rose by 0.2 MB;
- at 8,781 tokens, ``ladder`` ``peak_rss_mb`` rose by 0.4 MB.

New code in a module at the limit is paid for by deleting code.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

import pytest

import lpsurf

TOKEN_LIMIT = 8192
MODULES = sorted(Path(lpsurf.__file__).parent.glob("*.py"))


def parser_tokens(path: Path) -> int:
    """Tokens the parser stores for ``path``: no comments, no NL tokens."""
    with path.open(encoding="utf-8") as f:
        return sum(1 for tok in tokenize.generate_tokens(f.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


def test_every_module_is_checked():
    assert {"build.py", "surface.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_within_token_limit(path):
    assert parser_tokens(path) <= TOKEN_LIMIT


def test_count_leaves_out_comments_and_blank_lines(tmp_path):
    plain = tmp_path / "plain.py"
    plain.write_text("x = 1\n")
    commented = tmp_path / "commented.py"
    commented.write_text('"""A docstring of several words."""\n\n# a comment\nx = 1  # another\n')
    # x, =, 1, NEWLINE and ENDMARKER; the docstring adds a STRING and a NEWLINE
    assert (parser_tokens(plain), parser_tokens(commented)) == (5, 7)
