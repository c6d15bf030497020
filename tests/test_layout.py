"""Layout guard: every function, class and method in `src/lyapcert` is used by the
library itself, so no entry point lives on for tests alone; every dataclass
field is read by it, so no field is only written or checked; and every defaulted
parameter of a function is passed by some call in it, so no parameter serves
tests alone.
The modules that only receive settings raise no ValueError: the config blocks
and `cli` check every setting once, when the config is parsed. Every `lyapcert`
name a script in `scripts/` imports or reads as `<module>.<attr>` exists, so a
rename in `src/` fails here rather than when the script next runs.

A use is any read of the bare name (or attribute of that name) in `src/` outside
the definition's own body, except that `self.<name>` inside a class C counts as
a use of C's `<name>` only; a field read is any load of an attribute of the
field's name in `src/` outside the field's own class's `__post_init__`, so a
field that is only checked there is unread. Other names are matched without
their owner, so a use of a same-named attribute elsewhere also counts. A
parameter is passed when a call of the function's bare name gives it by keyword,
reaches its position, or splats `*args` or `**kwargs`.
"""

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lyapcert"

# definitions nothing in src/ references, each with the reason it stays
ALLOWED = {
    "net.hvp": "perfbench/traced_cli.py wraps it by name",
    "net.MlpLyapunov.gradient": "perfbench/traced_cli.py wraps it by name",
    "loss.empirical_loss": "perfbench/traced_cli.py wraps it by name",
    "cli.main": "the console entry point",
}

# dataclass fields nothing in src/ reads, each with the reason it stays
ALLOWED_FIELDS = {}


# modules whose every setting arrives checked at parse
TRUSTING = ("meta", "verify", "roa", "svg", "baselines", "dynamics", "control")


def _references(tree, module: str, owner: str | None = None) -> Counter:
    """Every name read or attribute accessed in an AST, counted by bare name, except
    `self.<name>` inside a class, counted as "<module>.<class>.<name>". `owner` is
    the qualified class a method's body belongs to."""
    names = Counter()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = f"{module}.{node.name}"
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            own = cls and isinstance(node.value, ast.Name) and node.value.id == "self"
            names[f"{cls}.{node.attr}" if own else node.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, owner)
    return names


def _attribute_loads(tree) -> Counter:
    """Every attribute read (load context) in an AST, counted by attribute name."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _is_dataclass(node) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _fields():
    """(qualified name, field name, reads in the class's own `__post_init__`) of every
    annotated field of a src/ dataclass."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                checks = sum((_attribute_loads(item) for item in node.body
                              if isinstance(item, ast.FunctionDef)
                              and item.name == "__post_init__"), Counter())
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        name = item.target.id
                        yield f"{path.stem}.{node.name}.{name}", name, checks[name]


def _definitions():
    """(qualified name, bare name, node) of every top-level def/class and method."""
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def test_every_definition_is_used_in_src():
    total = Counter()
    for path in SRC.glob("*.py"):
        total += _references(ast.parse(path.read_text()), path.stem)
    unused = []
    for qualified, name, node in _definitions():
        module, *path = qualified.split(".")
        own = _references(node, module, f"{module}.{path[0]}" if len(path) == 2 else None)
        uses = total[name] + total[qualified] - own[name] - own[qualified]
        if uses <= 0 and qualified not in ALLOWED:
            unused.append(qualified)
    assert not unused, f"defined in src/ but used only outside it: {unused}"


def test_allowlist_names_existing_definitions():
    defined = {qualified for qualified, _, _ in _definitions()}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)


def test_every_dataclass_field_is_read_in_src():
    reads = Counter()
    for path in SRC.glob("*.py"):
        reads += _attribute_loads(ast.parse(path.read_text()))
    unread = [qualified for qualified, name, checks in _fields()
              if reads[name] <= checks and qualified not in ALLOWED_FIELDS]
    assert not unread, f"dataclass fields no code in src/ reads: {unread}"


def test_field_allowlist_names_existing_fields():
    defined = {qualified for qualified, _, _ in _fields()}
    assert set(ALLOWED_FIELDS) <= defined, sorted(set(ALLOWED_FIELDS) - defined)


def _calls(tree) -> dict:
    """Every call in an AST, grouped by the called bare name."""
    calls = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.setdefault(name, []).append(node)
    return calls


def _passes(call, position, name: str) -> bool:
    """Whether a call gives the parameter at `position` (None: keyword-only) named `name`."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_in_src():
    calls = {}
    for path in SRC.glob("*.py"):
        for name, nodes in _calls(ast.parse(path.read_text())).items():
            calls.setdefault(name, []).extend(nodes)
    unpassed = []
    for qualified, name, node in _definitions():
        if not isinstance(node, ast.FunctionDef) or qualified in ALLOWED:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
        defaulted = [(i - bound, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for position, param in defaulted:
            if not any(_passes(call, position, param) for call in calls.get(name, [])):
                unpassed.append(f"{qualified}({param}=)")
    assert not unpassed, f"defaulted parameters no call in src/ passes: {unpassed}"


def test_parsed_settings_are_not_checked_again():
    raising = [f"{module}.py:{node.lineno}" for module in TRUSTING
               for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text()))
               if isinstance(node, ast.Raise) and node.exc is not None
               and any(getattr(n, "id", None) == "ValueError" for n in ast.walk(node.exc))]
    assert not raising, f"ValueError raised on settings checked at parse: {raising}"



_ABSENT = object()


def _lookup(module: str, name: str | None = None):
    """What `import <module>` binds or, given a name, `from <module> import <name>`;
    _ABSENT when the import fails."""
    try:
        owner = importlib.import_module(module)
        if name is None:
            return owner
        found = getattr(owner, name, _ABSENT)
        return importlib.import_module(f"{module}.{name}") if found is _ABSENT else found
    except ModuleNotFoundError:
        return _ABSENT


def test_script_references_resolve():
    """The scripts' AST is walked, not run: every lyapcert module they import, name
    they import from one and attribute they read of an imported module exists."""
    missing = []
    for path in sorted((ROOT / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}   # local name -> the lyapcert module bound to it
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "lyapcert":
                        if _lookup(alias.name) is _ABSENT:
                            missing.append(f"{path.name}: {alias.name}")
                        modules[alias.asname or root] = alias.name if alias.asname else root
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "lyapcert"):
                for alias in node.names:
                    found = _lookup(node.module, alias.name)
                    if found is _ABSENT:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                    elif isinstance(found, types.ModuleType):
                        modules[alias.asname or alias.name] = found.__name__
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and _lookup(modules[node.value.id], node.attr) is _ABSENT):
                missing.append(f"{path.name}:{node.lineno}: {modules[node.value.id]}.{node.attr}")
    assert not missing, f"lyapcert names the scripts use but src/ lacks: {missing}"
