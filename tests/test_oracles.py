import ast
import sys
from pathlib import Path

ALLOWED = {"cyheights.finite_field", "cyheights.cyclotomic",
           "cyheights.errors"}


def test_oracles_import_only_the_lower_layers():
    """The oracles may lean on the field, Z[zeta_m] and the error types,
    never on the layers whose fast paths they check."""
    source = Path(__file__).with_name("oracles.py").read_text()
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracles.py"
            modules.append(node.module)
    assert modules
    outside = [name for name in modules if name not in ALLOWED
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"oracles.py imports {outside}"
