"""Denotation of ExprLow expressions into modules (section 4.5).

The denotation ⟦e⟧ε is a structural fold:

* a base component looks its module up in the environment and renames its
  canonical ports through the component's port maps;
* a product denotes to the ⊎ of the two sub-denotations;
* a connect denotes to the ``[o ⇝ i]`` combinator.
"""

from __future__ import annotations

from ..errors import SemanticsError
from .environment import Environment
from .exprlow import Base, Connect, ExprLow, Product
from .module import Module, connect_ports, product, rename


def denote(expr: ExprLow, env: Environment) -> Module:
    """Compute ⟦expr⟧env."""
    if isinstance(expr, Base):
        module = env.lookup(expr.typ)
        if module.inputs.keys() != expr.inputs.keys():
            raise SemanticsError(
                f"component {expr.typ!r}: port map covers {sorted(map(str, expr.inputs))} "
                f"but the module has inputs {sorted(map(str, module.inputs))}"
            )
        if module.outputs.keys() != expr.outputs.keys():
            raise SemanticsError(
                f"component {expr.typ!r}: port map covers {sorted(map(str, expr.outputs))} "
                f"but the module has outputs {sorted(map(str, module.outputs))}"
            )
        return rename(module, expr.inputs, expr.outputs)
    if isinstance(expr, Product):
        return product(denote(expr.left, env), denote(expr.right, env))
    if isinstance(expr, Connect):
        return connect_ports(denote(expr.expr, env), expr.output, expr.input)
    raise SemanticsError(f"cannot denote expression of type {type(expr).__name__}")
