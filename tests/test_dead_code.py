"""Dead-code gate over src/quiverdeg, read with the stdlib ast module.

`__init__.py` is only its docstring, and importing the package loads no
submodule: the API is the submodules. Importing the CLI newly loads none of
click, dataclasses and inspect. Every name a module imports is used
in that module, every module-level `_private` function or class is
referenced somewhere in src/ outside its own definition, and every public
module-level function and public method (classmethods and properties
included) is referenced in src/ outside its own body or by the acceptance
suite. References are matched by name: a function by any read of its name,
a method only by an attribute access `x.name`, and not by `self.name` inside
a class with no method of that name (that reads the class's own field).
No decorator exempts a definition: the CLI commands are reached by name
from its parser. The size caps are assigned only in reps.py, and only
reps.check_cap formats a cap message. Only the functions of UNCHECKED build
a named tuple with `_make`, and `tuple.__new__` is read only in a `__new__`.
No check raises ValueError or TypeError: every one raises a class of
quiverdeg.errors.
"""

import ast
import copy
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quiverdeg"
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
TREES = {name: ast.parse(source) for name, source in SOURCES.items()}
ACCEPTANCE = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))


def _reference_counts(node) -> Counter:
    """How often each name is read, taken as an attribute or imported under node."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            counts.update(alias.name for alias in sub.names)
    return counts


def _attribute_counts(node) -> Counter:
    """How often each name is taken as an attribute x.name under node.

    self.name inside a class that defines no method name reads that class's
    own data, so it reaches no method and is not counted.
    """
    counts = Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))
    for cls in ast.walk(node):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
        counts -= Counter(
            sub.attr
            for sub in ast.walk(cls)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
            and sub.attr not in methods
        )
    return counts


def _referenced(node) -> set[str]:
    return set(_reference_counts(node))


def test_package_init_is_only_its_docstring():
    tree = TREES["__init__.py"]
    assert ast.get_docstring(tree) and len(tree.body) == 1


def test_importing_the_package_loads_no_submodule():
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, quiverdeg; "
            "print(sorted(m for m in sys.modules if m.startswith('quiverdeg.')))",
        ],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert loaded.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_slow_module():
    # click took about 25 ms of the CLI's start-up, and dataclasses about
    # 10 ms more, most of it in inspect (which loads ast, dis and tokenize).
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; before = set(sys.modules); import quiverdeg.cli; "
            "print(sorted(set(sys.modules) - before))",
        ],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    new = ast.literal_eval(loaded.stdout)
    assert "quiverdeg.cli" in new
    assert {"click", "dataclasses", "inspect"}.isdisjoint(new), new


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node
        used = set()
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= _referenced(node)
        unused.extend(f"{name}: {alias}" for alias in sorted(set(imported) - used))
    assert not unused, unused


def test_every_private_definition_is_referenced():
    unreferenced = []
    for name, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            elsewhere = set()
            for other_name, other in TREES.items():
                for stmt in other.body:
                    if stmt is not node:
                        elsewhere |= _referenced(stmt)
            if node.name not in elsewhere:
                unreferenced.append(f"{name}: {node.name}")
    assert not unreferenced, unreferenced


def _public_definitions(tree):
    """(qualified name, def node) of public module-level functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def unreached_public_definitions(trees, acceptance) -> list[str]:
    counts = (_reference_counts, _attribute_counts)
    in_src = {count: Counter() for count in counts}
    for tree in trees.values():
        for count in counts:
            in_src[count] += count(tree)
    in_acceptance = {count: count(acceptance) for count in counts}
    unreached = []
    for name, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            if node.name.startswith("_"):
                continue
            count = _attribute_counts if "." in qualified else _reference_counts
            outside = in_src[count][node.name] - count(node)[node.name]
            if outside <= 0 and not in_acceptance[count][node.name]:
                unreached.append(f"{name}: {qualified}")
    return unreached


def test_every_public_definition_is_reached():
    unreached = unreached_public_definitions(TREES, ACCEPTANCE)
    assert not unreached, unreached


def test_public_gate_flags_a_method_only_tests_call():
    # SimpleMultiset.total as it stood before its one test inlined it; no
    # .total attribute is read in src/.
    method = ast.parse(
        "def total(self):\n"
        "    return sum(self.counts)\n"
    ).body[0]
    windows = copy.deepcopy(TREES["windows.py"])
    multiset = next(
        node for node in windows.body
        if isinstance(node, ast.ClassDef) and node.name == "SimpleMultiset"
    )
    multiset.body.append(method)
    trees = dict(TREES, **{"windows.py": windows})
    assert unreached_public_definitions(trees, ACCEPTANCE) == [
        "windows.py: SimpleMultiset.total"
    ]


def test_public_gate_flags_a_method_whose_name_is_also_a_field():
    # Window.shift as it stood before it was deleted. Only tests called it,
    # and name matching missed that: ReductionStep has a field shift, read
    # as self.shift, and classify passes shift=shift.
    method = ast.parse(
        "def shift(self, c):\n"
        "    return Window(self.n, self.i + c, self.j + c)\n"
    ).body[0]
    windows = copy.deepcopy(TREES["windows.py"])
    window = next(
        node for node in windows.body
        if isinstance(node, ast.ClassDef) and node.name == "Window"
    )
    window.body.append(method)
    trees = dict(TREES, **{"windows.py": windows})
    assert unreached_public_definitions(trees, ACCEPTANCE) == ["windows.py: Window.shift"]


def test_public_gate_flags_a_classmethod_only_tests_call():
    # RatMatrix.from_rows as it stood before it moved to tests/oracles.py.
    method = ast.parse(
        "@classmethod\n"
        "def from_rows(cls, data):\n"
        "    rows = len(data)\n"
        "    cols = len(data[0]) if rows else 0\n"
        "    return cls(rows, cols, (x for r in data for x in r))\n"
    ).body[0]
    linalg = copy.deepcopy(TREES["linalg.py"])
    matrix = next(
        node for node in linalg.body
        if isinstance(node, ast.ClassDef) and node.name == "RatMatrix"
    )
    matrix.body.append(method)
    trees = dict(TREES, **{"linalg.py": linalg})
    assert unreached_public_definitions(trees, ACCEPTANCE) == ["linalg.py: RatMatrix.from_rows"]


def _is_named_tuple_base(base) -> bool:
    """namedtuple(...) (plain or collections.namedtuple) or NamedTuple."""
    if isinstance(base, ast.Call):
        base = base.func
    name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
    return name in ("namedtuple", "NamedTuple")


def unconventional_classes(trees) -> list[str]:
    """Classes that are neither a named tuple nor an exception, or that define
    __init__, __eq__ or __hash__ by hand."""
    classes = [
        (name, node)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    errors = {"Exception"}
    grown = True
    while grown:
        found = {
            node.name
            for _, node in classes
            if any(isinstance(b, ast.Name) and b.id in errors for b in node.bases)
        }
        grown = not found <= errors
        errors |= found
    flagged = []
    for name, node in classes:
        if node.name not in errors and not any(map(_is_named_tuple_base, node.bases)):
            flagged.append(f"{name}: {node.name}")
        defined = {
            item.name for item in node.body if isinstance(item, ast.FunctionDef)
        }
        flagged.extend(
            f"{name}: {node.name}.{dunder}"
            for dunder in ("__init__", "__eq__", "__hash__")
            if dunder in defined
        )
    return flagged


def test_every_class_is_a_named_tuple_or_an_error():
    unconventional = unconventional_classes(TREES)
    assert not unconventional, unconventional


def test_convention_gate_flags_a_hand_written_class():
    # RatMatrix's equality as it stood before RatMatrix became a named tuple.
    matrix = ast.parse(
        "class RatMatrix:\n"
        "    def __eq__(self, other):\n"
        "        return self.entries == other.entries\n"
    ).body[0]
    linalg = copy.deepcopy(TREES["linalg.py"])
    linalg.body.append(matrix)
    trees = dict(TREES, **{"linalg.py": linalg})
    assert unconventional_classes(trees) == [
        "linalg.py: RatMatrix",
        "linalg.py: RatMatrix.__eq__",
    ]


CAPS = {"MAX_RANK", "MAX_TOTAL_DIM", "MAX_HOM_ENTRIES"}


def size_policy_breaches(sources) -> list[str]:
    """Size caps assigned outside reps.py, and cap messages outside check_cap.

    Every `<field> <value> exceeds the cap of <cap>` message comes from
    reps.check_cap.
    """
    breaches = []
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        breaches.extend(
            f"{name}:{node.lineno}: assigns {node.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)
            and node.id in CAPS
            and name != "reps.py"
        )
        functions = _functions(tree)
        for lineno, line in enumerate(source.splitlines(), 1):
            if "exceeds the cap of" not in line:
                continue
            if (name, _owner(functions, lineno)) != ("reps.py", "check_cap"):
                breaches.append(f"{name}:{lineno}: cap message outside check_cap")
    return breaches


def _functions(tree) -> list:
    return [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]


def _owner(functions, lineno: int) -> str | None:
    """Name of the innermost of functions around line lineno, if any."""
    owner = max(
        (f for f in functions if f.lineno <= lineno <= f.end_lineno),
        key=lambda f: f.lineno,
        default=None,
    )
    return getattr(owner, "name", None)


def test_size_caps_are_declared_once_and_checked_by_one_helper():
    breaches = size_policy_breaches(SOURCES)
    assert not breaches, breaches


def test_size_policy_gate_flags_a_second_declaration_and_check():
    # formats' caps, one of its inline windows.windows messages and
    # cli._check_cap as they stood before all moved to reps.
    check = '        check_cap("windows.windows: total dimension", total, MAX_TOTAL_DIM)\n'
    inline = (
        "        if total > MAX_TOTAL_DIM:\n"
        '            raise ParseError(f"windows.windows: total dimension exceeds '
        'the cap of {MAX_TOTAL_DIM}")\n'
    )
    assert SOURCES["formats.py"].count(check) == 1
    formats = SOURCES["formats.py"].replace(check, inline) + "MAX_RANK = 40\n"
    inline_line = formats.splitlines().index(inline.splitlines()[1]) + 1
    cli = SOURCES["cli.py"] + (
        "def _check_cap(field, value, cap):\n"
        "    if value > cap:\n"
        '        raise ParseError(f"{field} {value} exceeds the cap of {cap}")\n'
    )
    sources = dict(SOURCES, **{"formats.py": formats, "cli.py": cli})
    assert size_policy_breaches(sources) == [
        f"cli.py:{len(cli.splitlines())}: cap message outside check_cap",
        f"formats.py:{len(formats.splitlines())}: assigns MAX_RANK",
        f"formats.py:{inline_line}: cap message outside check_cap",
    ]


# The functions that build values derived from checked ones with _make,
# skipping the checks of __new__: each result must equal what the checked
# constructor returns (test_derived_values_equal_their_checked_construction).
UNCHECKED = {
    "degeneration.py": {"_walk", "_tables"},
    "singularity.py": {"cancel_common", "_rotate"},
    "windows.py": {"socle", "quotient_by_socle", "dual"},
}


def unchecked_constructions(sources) -> list[str]:
    """Reads of `_make` outside the functions of UNCHECKED, and of
    `tuple.__new__` outside a `__new__` method: both build a named tuple
    without its checks."""
    found = []
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        functions = _functions(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = _owner(functions, node.lineno)
            if node.attr == "_make" and owner not in UNCHECKED.get(name, ()):
                found.append(f"{name}:{node.lineno}: _make in {owner}")
            elif (
                node.attr == "__new__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "tuple"
                and owner != "__new__"
            ):
                found.append(f"{name}:{node.lineno}: tuple.__new__ in {owner}")
    return found


def test_checks_are_skipped_only_on_derived_values():
    found = unchecked_constructions(SOURCES)
    assert not found, found


def test_unchecked_gate_flags_a_new_site():
    # reconstruct_from_socle_quotient grows its windows from a quotient the
    # caller passes in, so its result must go through the checks.
    checked = "    return WindowMultiset(n, entries)\n"
    assert SOURCES["windows.py"].count(checked) == 1
    windows = SOURCES["windows.py"].replace(
        checked, "    return WindowMultiset._make((n, tuple(sorted(entries))))\n"
    ) + "def _window(n, i, j):\n    return tuple.__new__(Window, (n, i, j))\n"
    lines = windows.splitlines()
    planted = lines.index("    return WindowMultiset._make((n, tuple(sorted(entries))))") + 1
    sources = dict(SOURCES, **{"windows.py": windows})
    assert unchecked_constructions(sources) == [
        f"windows.py:{planted}: _make in reconstruct_from_socle_quotient",
        f"windows.py:{len(lines)}: tuple.__new__ in _window",
    ]


BUILTIN_ERRORS = {"ValueError", "TypeError"}


def builtin_raises(sources) -> list[str]:
    """`raise ValueError` and `raise TypeError` statements, called or bare.

    `except ValueError` clauses that translate a standard-library error
    (json, int(), Fraction()) into a quiverdeg error are not raises.
    """
    found = []
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                found.append((name, node.lineno, exc.id))
    return [f"{name}:{lineno}: raise {exc}" for name, lineno, exc in sorted(found)]


def test_every_check_raises_a_quiverdeg_error():
    found = builtin_raises(SOURCES)
    assert not found, found


def test_error_gate_flags_a_builtin_raise():
    # SingularityType.a_type's check as it stood, and a bare TypeError.
    checked = '            raise ParseError("A-type index must be at least 1")\n'
    assert SOURCES["singularity.py"].count(checked) == 1
    singularity = SOURCES["singularity.py"].replace(
        checked, checked.replace("ParseError", "ValueError")
    ) + "def _integer(x):\n    raise TypeError\n"
    lines = singularity.splitlines()
    planted = lines.index(checked.replace("ParseError", "ValueError").rstrip("\n")) + 1
    sources = dict(SOURCES, **{"singularity.py": singularity})
    assert builtin_raises(sources) == [
        f"singularity.py:{planted}: raise ValueError",
        f"singularity.py:{len(lines)}: raise TypeError",
    ]
