"""Every definition of ``src/bergproj`` is reached from a verdict.

The walk starts at the six experiment drivers and ``cli.main``, at the
package names ``bergbench/workloads.py`` imports, and at the names the
benchmark's layer tracer wraps (``layertrace.FUNCTIONS`` and ``METHODS``,
read only).  A top-level definition (module-level function, class or
assigned name) is reached when a reached definition names it: directly,
through a relative import, or as an attribute of an imported package
module.  A method that is not a dunder is a definition of its own: it is
reached when its class is and a reached definition, ``workloads.py`` or
``layertrace.METHODS`` names it as an attribute.  The rest of a class
body, dunder methods included, goes with the class.  Names are matched
without scopes, so the walk can only err toward keeping code.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bergbench"))

import layertrace  # noqa: E402

DRIVERS = (
    "blowup_experiment",
    "boundedness_scan",
    "identity_suite",
    "annihilation_check",
    "growth_class_check",
    "weight_class_check",
)

#: definitions no entry point reaches, kept on purpose
KEEP = {
    # the published report schema, which the tests validate against
    ("experiments", "REPORT_SCHEMA"),
}


def _is_method(node):
    name = getattr(node, "name", "__")
    return isinstance(node, ast.FunctionDef) and not (name.startswith("__") and name.endswith("__"))


def _attributes(nodes):
    return {sub.attr for node in nodes for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _graph():
    """(module, name) -> (line, the (module, name) pairs its body uses),
    where a method's name is "Class.method"; a resolver of a (module,
    name) through re-exporting imports; and method name -> its keys."""
    modules, methods = {}, {}
    for path in sorted((ROOT / "src" / "bergproj").glob("*.py")):
        tree = ast.parse(path.read_text())
        defs, aliases = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (node.module, alias.name) if node.module else (alias.name, None)
                    aliases[alias.asname or alias.name] = target
        for node in tree.body:
            parts = [node]
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.ClassDef):
                names = [node.name]
                # the class stands for its body without its methods
                parts = node.decorator_list + node.bases + node.keywords
                for sub in node.body:
                    if not _is_method(sub):
                        parts.append(sub)
                        continue
                    key = f"{node.name}.{sub.name}"
                    defs[key] = (sub.lineno, [sub])
                    methods.setdefault(sub.name, []).append((path.stem, key))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defs.update((name, (node.lineno, parts)) for name in names if not name.startswith("__"))
        modules[path.stem] = (defs, aliases)

    def resolve(module, name):
        while module in modules and name not in modules[module][0]:
            module, name = modules[module][1].get(name, (None, None))
        return (module, name) if module in modules else None

    graph = {}
    for module, (defs, aliases) in modules.items():
        for name, (line, parts) in defs.items():
            used = {key for attr in _attributes(parts) for key in methods.get(attr, ())}
            for sub in (sub for part in parts for sub in ast.walk(part)):
                if isinstance(sub, ast.Name) and sub.id in defs:
                    used.add((module, sub.id))
                elif isinstance(sub, ast.Name) and aliases.get(sub.id, (0, None))[1]:
                    used.add(resolve(*aliases[sub.id]))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    target = aliases.get(sub.value.id)
                    if target is not None and target[1] is None:
                        used.add(resolve(target[0], sub.attr))
            graph[(module, name)] = (line, used - {None})
    return graph, resolve, methods


def _entry_points(methods):
    entries = [("experiments", name) for name in DRIVERS] + [("cli", "main")]
    workloads = ast.parse((ROOT / "bergbench" / "workloads.py").read_text())
    for node in ast.walk(workloads):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bergproj."):
            entries += [(node.module.split(".")[1], alias.name) for alias in node.names]
    entries += [key for attr in _attributes([workloads]) for key in methods.get(attr, ())]
    entries += [(home.split(".")[1], name) for name, (home, *_) in layertrace.FUNCTIONS.items()]
    for label, (home, _) in layertrace.METHODS.items():
        entries += [(home.split(".")[1], label.split(".")[0])]
        entries += [key for key in methods.get(label.split(".")[1], ()) if key[1] == label]
    return entries


def _closure(graph, roots):
    """Everything the roots reach; a method waits until its class is reached."""
    reached, waiting, todo = set(), {}, list(roots)
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        owner = (key[0], key[1].split(".")[0])
        if owner != key and owner not in reached:
            waiting.setdefault(owner, []).append(key)
            continue
        reached.add(key)
        todo.extend(graph[key][1])
        todo.extend(waiting.pop(key, ()))
    return reached


def test_every_definition_is_reached():
    graph, resolve, methods = _graph()
    roots = [resolve(*entry) for entry in _entry_points(methods)]
    assert None not in roots, "an entry point has no definition in src/bergproj"
    unreached = sorted(set(graph) - _closure(graph, roots + sorted(KEEP)))
    assert not unreached, "reached by no entry point: " + ", ".join(
        f"{module}.{name} (line {graph[(module, name)][0]})" for module, name in unreached
    )
    stale = sorted(KEEP - (set(graph) - _closure(graph, roots)))
    assert not stale, f"KEEP entries that are gone or already reached: {stale}"
