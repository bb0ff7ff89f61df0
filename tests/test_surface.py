"""The package surface carries weight, and the README's tour runs.

Every public function, class, method and module constant of `src/opwords/`
must be read somewhere other than its own definition: elsewhere in `src/`,
in `README.md`, or in `perfbench/tracing.py`, which wraps library functions
by name.  The only names exempt are the entry points and the helpers that
tests use as oracles for library behaviour.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

import opwords

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(opwords.__file__).resolve().parent

# read by no library code, but checked against by the tests as references
KEPT_AS_ORACLES = (
    "words.compose_perms",
    "words.inverse_perm",
    "words.identity_perm",
    "words.lift_morphism",
    "words.Word.to_record",
    "families.membership.has_repeated_letter",
    "families.paths.motzkin_prefixes",
    "families.trees.leaf_count",
    "families.trees.is_schroeder_tree",
    "presentations.graft_term",
    "monoids.identity_morphism",
    "monoids.compose_morphisms",
    "monoids.Monoid.combine",
)
# `__version__` starts with an underscore, so the walk below never meets it
ENTRY_POINTS = ("cli.main",)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(p for p in parts if p != "__init__")


def _public_definitions(trees):
    """(qualified name, bare name, defining node) of each public top-level
    function, class, class method and assigned module constant."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named = [(node.name, node)]
                if isinstance(node, ast.ClassDef):
                    named += [
                        (f"{node.name}.{m.name}", m)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef)
                    ]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                named = [(t.id, node) for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name, own in named:
                bare = name.rsplit(".", 1)[-1]
                if not bare.startswith("_"):
                    yield f"{module}.{name}".lstrip("."), bare, own


def _read_in_src(bare, own, trees) -> bool:
    inside = {id(n) for n in ast.walk(own)}
    for tree in trees.values():
        for n in ast.walk(tree):
            if id(n) in inside:
                continue
            if isinstance(n, ast.Name) and n.id == bare and isinstance(n.ctx, ast.Load):
                return True
            if isinstance(n, ast.Attribute) and n.attr == bare:
                return True
    return False


def test_every_public_name_is_read():
    trees = {_module_name(p): ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    text = (ROOT / "README.md").read_text() + (ROOT / "perfbench" / "tracing.py").read_text()
    exempt = set(KEPT_AS_ORACLES + ENTRY_POINTS)
    walked = set()
    unread = []
    for qualified, bare, own in _public_definitions(trees):
        walked.add(qualified)
        if qualified in exempt or _read_in_src(bare, own, trees):
            continue
        if not re.search(rf"\b{re.escape(bare)}\b", text):
            unread.append(qualified)
    assert not unread, f"public names nothing reads; delete them: {unread}"
    assert exempt <= walked, f"stale exemptions: {sorted(exempt - walked)}"


def _tour_block() -> str:
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("## Library tour") :]
    start = tour.index("```python\n") + len("```python\n")
    return tour[start : tour.index("\n```", start)]


def test_readme_library_tour_runs():
    """Each expression of the tour equals the literal in its trailing
    comment, shown as the value or as its `str`; an expression whose comment
    is prose, or that has none, must be true."""
    source = _tour_block()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = comments.get(stmt.end_lineno, "")
        try:
            expected = ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            assert value, ast.unparse(stmt)
            continue
        assert value == expected or str(value) == str(expected), ast.unparse(stmt)
        checked.append(comment)
    for shown in ("24142423", "12011", "(1, 1, 2, 5, 14, 42, 132)", '"(()(()))"',
                  "(0, 1, 2, 1, 2)", '"UDDUUUDDDDDUUDDDDD"', "(2, 1, 1)", "True"):
        assert shown in checked
