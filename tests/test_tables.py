"""Every module-level table of the package, pinned by name.

A cache that grows with the work is memory a caller never sees, so a new
one must name itself here, in the diff that adds it.
"""

import importlib
import pkgutil

import scoreplay

#: the tables that grow as the engine works
GROWING = {
    "game._nodes", "game._index", "game._negate_memo", "game._shift_memo",
    "evaluate._scores_memo",
    "operators._build_memo", "operators._seq_join_memo",
    "octal._gs_tables", "octal._tree_memo",
}
#: fixed at import
FIXED = {"operators._TREE_MOVES", "__init__.__all__"}


def _module_tables() -> dict[int, set[str]]:
    """id -> the "module.name" bindings of each module-level dict, list or set.

    Dunder attributes other than `__all__` (`__path__`, `__builtins__`,
    `__annotations__`) belong to the import system, not to the engine.
    `__main__` runs the command line when imported, and binds no table.
    """
    modules = {"__init__": scoreplay}
    for info in pkgutil.iter_modules(scoreplay.__path__):
        if info.name != "__main__":
            modules[info.name] = importlib.import_module(f"scoreplay.{info.name}")
    found: dict[int, set[str]] = {}
    for mod_name, module in modules.items():
        for name, value in vars(module).items():
            if name.startswith("__") and name != "__all__":
                continue
            if isinstance(value, (dict, list, set)):
                found.setdefault(id(value), set()).add(f"{mod_name}.{name}")
    return found


def test_module_level_tables_are_the_known_ones():
    assert len(GROWING) == 9
    found = _module_tables()
    # a table imported elsewhere is one table under several names
    known = {}
    for qualified in GROWING | FIXED:
        mod_name, name = qualified.split(".")
        module = scoreplay if mod_name == "__init__" else importlib.import_module(
            f"scoreplay.{mod_name}")
        known[id(getattr(module, name))] = qualified
    unknown = sorted(min(names) for key, names in found.items() if key not in known)
    assert unknown == []
    assert len(known) == len(GROWING | FIXED)       # no two names bind one table
    assert set(known) <= set(found)                 # each is a module-level table
