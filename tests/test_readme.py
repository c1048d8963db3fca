"""README.md against the code it names: the ids of its claims table exist, and
its library quick start runs and spends the total of the cost model."""

import ast
import re
from pathlib import Path

from composolve import oracle, verification

ROOT = Path(__file__).resolve().parents[1]


def section(title):
    """The text of README's section `## title`, up to the next section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    head = f"\n## {title}\n"
    assert head in text, title
    return text.split(head, 1)[1].split("\n## ", 1)[0]


def claim_rows():
    """The cells of each body row of the claims table; `\\|` is a literal bar."""
    lines = [line for line in section("Claims and the tests that check them").splitlines()
             if line.startswith("|")]
    return [[cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in lines[2:]]


def defines(path, names):
    """Whether the test file at path defines the function or class names[0],
    and within it names[1:]; a parametrized id's [...] is not part of a name."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name == name.split("[")[0]]
        if not found:
            return False
        body = found[0].body
    return True


def exists(ref):
    if "::" not in ref:
        return getattr(verification, ref, None) in verification.ALL_CHECKS
    path, *names = ref.split("::")
    return (ROOT / path).is_file() and defines(ROOT / path, names)


def test_every_claim_names_ids_that_exist():
    rows = claim_rows()
    assert len(rows) >= 6 and all(len(row) == 5 for row in rows), rows
    refs = []
    for claim, ids, _, _, status in rows:
        named = re.findall(r"`([^`]+)`", ids)
        # a claim that no test checks says so, and names none
        assert bool(named) != status.startswith("untested"), claim
        refs += named
    assert [ref for ref in refs if not exists(ref)] == []


def test_quick_start_spends_the_cost_model_total(capsys):
    block = re.search(r"```python\n(.*?)```", section("Quick start (library)"), re.S)
    scope = {}
    exec(compile(block.group(1), "README.md", "exec"), scope)
    total = oracle.vrsc_pg_cost(200, 200, 200, 5, 5, 5, 50)
    assert scope["res"].counter.total == total == 330_000
    assert capsys.readouterr().out.startswith(f"{total} oracle queries,")
