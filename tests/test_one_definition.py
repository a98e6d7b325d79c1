"""Each shared rule has one definition in src/cuspquot: the argument check,
the prime check, the rank order, the seat of each rank after gamma_j and
each MAX_ rank limit.
The unchecked matrix constructor GFMatrix._of stays inside varieties.
The lane cap _COLUMN is assigned once, like the rank limits, one rule
sizes every packed lane (its width and Barrett constant), and the
checks of groebner, the oracles and the packed lanes are raises, which
python -O keeps.  Every memo is a functools cache: no module binds an
empty container at module level, and no cache_clear is assigned by hand.
The tests read the modules' syntax trees, so a restated copy fails here."""

import ast
import pathlib

import pytest

import cuspquot
from cuspquot.strata import LeadingTermDatum

SOURCES = sorted(pathlib.Path(cuspquot.__file__).parent.glob("*.py"))

# (function, message) of each "must be >= 0" raise; the cli ones are usage
# messages about command line flags, not about a function argument
NONNEGATIVE_RAISES = {
    "qalgebra": [("check_nonnegative", "{} must be >= 0")],
    "cli": [("_cmd_series", "--d must be >= 0"), ("_cmd_series", "--order must be >= 0")],
}


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _enclosing(tree: ast.Module) -> dict[int, str]:
    """id of every node -> name of the innermost function defining it."""
    out = {}
    for fn in ast.walk(tree):  # breadth first: inner functions overwrite outer ones
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                out[id(node)] = fn.name
    return out


def _text(node: ast.AST) -> str:
    """The literal text of a string constant or f-string, placeholders as {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_text(v) if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return ""


def test_sources_are_found():
    assert {p.stem for p in SOURCES} >= {"cli", "qalgebra", "series", "strata", "varieties"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_nonnegative_argument_message_only_in_check_nonnegative(path):
    tree = _tree(path)
    owner = _enclosing(tree)
    raised = [
        (owner.get(id(node)), _text(node.exc.args[0]))
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args
    ]
    sites = [(fn, text) for fn, text in raised if "must be >= 0" in text]
    assert sorted(sites) == NONNEGATIVE_RAISES.get(path.stem, [])


def _level_seat_sorts(tree: ast.Module) -> list[str]:
    """Functions that sort by a key lambda whose tuple starts with a level lookup."""
    owner = _enclosing(tree)
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sorted"):
            continue
        for kw in node.keywords:
            body = kw.value.body if isinstance(kw.value, ast.Lambda) else None
            if (kw.arg == "key" and isinstance(body, ast.Tuple) and body.elts
                    and "levels" in ast.unparse(body.elts[0])):
                out.append(owner.get(id(node)))
    return out


def test_only_strata_rank_seats_sorts_by_level_and_seat():
    found = {path.stem: _level_seat_sorts(_tree(path)) for path in SOURCES}
    assert {stem: fns for stem, fns in found.items() if fns} == {"strata": ["rank_seats"]}


def test_cli_checks_primes_through_check_prime():
    names = {
        alias.name
        for node in ast.walk(_tree(pathlib.Path(cuspquot.__file__).parent / "cli.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "check_prime" in names and "is_prime" not in names


def test_no_second_gamma_seat_map():
    assert not hasattr(LeadingTermDatum, "seats_after_gamma")
    assert [p.stem for p in SOURCES if "seats_after_gamma" in p.read_text(encoding="utf-8")] == []


def test_unchecked_matrix_constructor_stays_in_varieties():
    # GFMatrix._of neither reduces nor checks its rows, so only varieties'
    # own arithmetic, on rows it has already reduced, may reach it
    found = {
        path.stem: sum(isinstance(node, ast.Attribute) and node.attr == "_of" for node in ast.walk(_tree(path)))
        for path in SOURCES
    }
    assert {stem for stem, uses in found.items() if uses} == {"varieties"}


def test_each_rank_limit_is_assigned_in_one_module():
    # the cli imports MAX_MOTIVE_D from varieties, where the motive walk
    # enforces it, and both lane consumers read the lane cap _COLUMN there;
    # a second assignment could drift from the first
    assigned: dict[str, list[str]] = {}
    for path in SOURCES:
        for node in _tree(path).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Name) and (target.id.startswith("MAX_") or target.id == "_COLUMN"):
                    assigned.setdefault(target.id, []).append(path.stem)
    assert assigned["MAX_MOTIVE_D"] == assigned["_COLUMN"] == ["varieties"]
    assert {name: stems for name, stems in assigned.items() if len(stems) > 1} == {}


def _rounds_to_bytes(node: ast.AST) -> bool:
    """node is `... // 8 * 8` or `-(-... // 8) * 8`: a bit count rounded to whole bytes."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.right, ast.Constant) and node.right.value == 8):
        return False
    left = node.left.operand if isinstance(node.left, ast.UnaryOp) else node.left
    return (isinstance(left, ast.BinOp) and isinstance(left.op, ast.FloorDiv)
            and isinstance(left.right, ast.Constant) and left.right.value == 8)


def _barrett_constant(node: ast.AST) -> bool:
    """node is `-(-(1 << k) // p)`, the ceiling of a power of two over p."""
    inner = node.operand if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) else None
    if not (isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.FloorDiv)
            and isinstance(inner.left, ast.UnaryOp)):
        return False
    power = inner.left.operand
    return (isinstance(power, ast.BinOp) and isinstance(power.op, ast.LShift)
            and isinstance(power.left, ast.Constant) and power.left.value == 1)


def test_one_rule_sizes_every_packed_lane():
    # columns of candidates and packed rows take their lane width and Barrett
    # constant from _Lanes._fill, and only the two caches _lanes and
    # _row_lanes build lanes; the signed digits of the motive rows are a
    # second packing with their own width, _digit_width
    sites, builders = [], []
    for path in SOURCES:
        tree = _tree(path)
        owner = _enclosing(tree)
        for node in ast.walk(tree):
            if _rounds_to_bytes(node):
                sites.append((path.stem, owner.get(id(node)), "width"))
            if _barrett_constant(node):
                sites.append((path.stem, owner.get(id(node)), "barrett"))
            if isinstance(node, ast.Call) and "_Lanes" in {
                getattr(node.func, "id", None), getattr(getattr(node.func, "value", None), "id", None)
            }:
                builders.append((path.stem, owner.get(id(node))))
    assert sorted(sites) == [
        ("varieties", "_digit_width", "width"),
        ("varieties", "_fill", "barrett"),
        ("varieties", "_fill", "width"),
    ]
    assert sorted(builders) == [("varieties", "_lanes"), ("varieties", "_row_lanes")]


def test_contract_checks_survive_python_O():
    # python -O strips assert statements; every check of the division
    # contracts, the oracles and the lane primitive must be a raise
    folder = pathlib.Path(cuspquot.__file__).parent
    lanes = [node for node in _tree(folder / "varieties.py").body
             if getattr(node, "name", None) in ("_lane_coords", "_Lanes", "_lanes")]
    trees = [_tree(folder / f"{m}.py") for m in ("groebner", "oracles")]
    assert len(lanes) == 3
    assert [node for tree in trees + lanes for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
    assert any(isinstance(node, ast.Raise) for tree in trees for node in ast.walk(tree))


def _empty_container(node: ast.AST) -> bool:
    """node is {}, [] or a call of dict, list or set with no arguments."""
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) in {"dict", "list", "set"}
            and not node.args and not node.keywords)


def test_every_memo_is_a_functools_cache():
    # a module-level empty container filled by a function is a hand-rolled
    # memo, and a cache_clear set on a function dresses one up as a cache
    found = []
    for path in SOURCES:
        tree = _tree(path)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value and _empty_container(node.value):
                found.append((path.stem, ast.unparse(node)))
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if any(isinstance(t, ast.Attribute) and t.attr == "cache_clear" for t in targets):
                found.append((path.stem, ast.unparse(node)))
    assert found == []
