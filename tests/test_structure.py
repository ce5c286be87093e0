import ast
from pathlib import Path

import cyheights

ALLOWED = {("errors", "check_budget"), ("finite_field", "is_prime")}


class _BudgetRaises(ast.NodeVisitor):
    """The (module, enclosing function) of every raise BudgetError."""

    def __init__(self, module: str):
        self.module, self.function, self.sites = module, "<module>", set()

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "BudgetError":
            self.sites.add((self.module, self.function))


def test_budget_errors_are_raised_only_by_check_budget():
    """Every size guard goes through errors.check_budget; the primality
    bound of is_prime, a proof limit, keeps its own raise."""
    sites = set()
    for path in Path(cyheights.__file__).parent.glob("*.py"):
        visitor = _BudgetRaises(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        sites |= visitor.sites
    assert sites == ALLOWED
