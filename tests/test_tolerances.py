"""The tolerance table is the one home of every threshold in ``src/momentkit``.

Read from the source tokens: no float literal in (0, 1e-2) outside
``tolerances.py``, every entry of the table read by some other module, and
every entry stating its unit on the comment line above it.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "momentkit"
TABLE = SRC / "tolerances.py"
UNITS = ("Absolute", "Relative", "Scale-free")


def _tokens(path: Path):
    return list(tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline))


def _small_float(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:  # an imaginary literal
        return False
    return 0.0 < value < 1e-2


def _names_read(path: Path) -> set[str]:
    """The names a module uses outside its import statements."""
    names, statement = set(), []
    for tok in _tokens(path):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if statement and statement[0].string not in ("import", "from"):
                names.update(t.string for t in statement if t.type == tokenize.NAME)
            statement = []
        elif tok.type not in (tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
            statement.append(tok)
    return names


def _table():
    """``(name, line)`` of each entry of the table."""
    tree = ast.parse(TABLE.read_text(encoding="utf-8"))
    return [(node.targets[0].id, node.lineno) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)]


def test_no_threshold_literal_outside_the_table():
    found = [f"{path.name}:{tok.start[0]}: {tok.string}"
             for path in sorted(SRC.glob("*.py")) if path != TABLE
             for tok in _tokens(path)
             if tok.type == tokenize.NUMBER and _small_float(tok.string)]
    assert found == []


@pytest.mark.parametrize("name", [name for name, _ in _table()])
def test_every_entry_is_read(name):
    readers = [path.name for path in sorted(SRC.glob("*.py"))
               if path != TABLE and name in _names_read(path)]
    assert readers, f"{name} is read nowhere in src/"


def test_every_entry_states_its_unit():
    lines = TABLE.read_text(encoding="utf-8").splitlines()
    for name, line in _table():
        comment = lines[line - 2].strip()
        assert comment.startswith("# ") and comment[2:].startswith(UNITS), name
