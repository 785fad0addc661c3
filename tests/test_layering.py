"""The package's import layering: intra-package imports run one way, from
errors and polynomials up through lattice, ideal, syzygy and oracle, betti
to cli, and no module imports another module's private names.  Importing
the command line stays lean: it loads neither dataclasses nor inspect, nor
fractions nor decimal.  The
public names are pinned, so an API change shows as an edit here."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hibiring

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hibiring"

# A module may import only modules of a strictly lower layer; __init__ is the
# package's face and may import any of them.
LAYER = {"errors": 0, "polynomials": 1, "lattice": 2, "ideal": 3,
         "syzygy": 4, "oracle": 4, "betti": 5, "cli": 6}
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _imports(name):
    """(module imported, names taken from it, line) for each intra-package
    import of the module, and the local names the imported modules are bound
    to."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imports, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import module
                for a in node.names:
                    imports.append((a.name, [], node.lineno))
                    aliases[a.asname or a.name] = a.name
            else:
                imports.append((node.module, [a.name for a in node.names],
                                node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.level > 1:
            imports.append(("..", [], node.lineno))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.partition(".")[0] == "hibiring":
                    imports.append((a.name, [], node.lineno))
    return tree, imports, aliases


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER)


def test_imports_run_one_way():
    wrong = []
    for name in MODULES:
        for module, _, line in _imports(name)[1]:
            if LAYER.get(module, LAYER[name]) >= LAYER[name]:
                wrong.append(f"{name}.py:{line} imports {module}")
    assert wrong == []


def test_no_private_imports():
    wrong = []
    for name in MODULES + ["__init__"]:
        tree, imports, aliases = _imports(name)
        for module, names, line in imports:
            wrong += [f"{name}.py:{line} imports {n} from {module}"
                      for n in names if n.startswith("_")]
        wrong += [f"{name}.py:{node.lineno} reads {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name)
                  and node.value.id in aliases]
    assert wrong == []


def test_cli_import_loads_no_dataclasses():
    """A fresh interpreter without site imports hibiring.cli and holds
    neither dataclasses nor inspect: the records are named tuples, and
    dataclasses alone would pull in inspect, ast, dis and tokenize.  Nor does
    it hold fractions or decimal: all arithmetic is on ints."""
    probe = ("import sys, hibiring.cli; "
             "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'}"
             " & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_public_names():
    assert hibiring.__all__ == [
        "HibiIdeal",
        "Lattice",
        "LinearityVerdict",
        "PlanarBettiBreakdown",
        "TypedSyzygy",
        "apply_phi",
        "buchberger_check",
        "enumerate_distributive",
        "errors",
        "first_betti_oracle",
        "from_covers",
        "from_json_dict",
        "from_points",
        "graded_betti_oracle",
        "grid",
        "hibi_ideal",
        "is_linear_first_syzygy",
        "iter_typed_generators",
        "k_of",
        "planar_betti",
        "planar_linearity",
        "typed_generator",
        "typed_minimal_histogram",
    ]
    assert all(hasattr(hibiring, name) for name in hibiring.__all__)
