"""The package's modules import one another only downwards, in one fixed order."""

import pathlib
import re

# lowest layer first: a module may import only from modules before it
ORDER = ("lattice", "walsh", "hamiltonian", "circuits", "trotter", "simulator", "cli")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "u1rotor"
# "from .x import a, b" or "from . import x" (x a sibling module), names possibly parenthesized
IMPORT = re.compile(r"^from \.(\w*) import (\([^)]*\)|[^\n]*)", re.MULTILINE)


def _imports(path: pathlib.Path) -> set[str]:
    """The sibling modules one module imports from."""
    found = set()
    for module, names in IMPORT.findall(path.read_text()):
        found |= {module} if module else {n.strip(" \n()") for n in names.split(",")} & set(ORDER)
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(ORDER)


def test_modules_import_only_lower_layers():
    upward = {(p.stem, m) for p in SRC.glob("*.py") if p.stem in ORDER
              for m in _imports(p) if ORDER.index(m) >= ORDER.index(p.stem)}
    assert upward == set()


def test_the_pattern_reads_both_import_forms():
    assert _imports(SRC / "walsh.py") == {"lattice"}
    assert _imports(SRC / "simulator.py") == {"circuits", "hamiltonian", "lattice", "trotter",
                                              "walsh"}
