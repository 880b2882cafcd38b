"""An e-graph with equality saturation over the function algebra.

Section 3.2 of the paper uses egg as an oracle to find the order in which
Split/Join associativity, commutativity and elimination rewrites collapse
the residual Split–Join network.  This module plays the same role over the
combinator terms of :mod:`repro.rewriting.algebra`: the region purifier
composes a (possibly clumsy) term for the loop body and asks
:func:`simplify` for the smallest equivalent term under the pairing laws.

The implementation is a classic e-graph: hash-consed e-nodes over e-class
ids with union-find and egg-style deferred congruence closure, rule
application by e-matching, and smallest-term extraction.  Each rule
direction is compiled once into a nested-loop matcher over a per-iteration
op index and a straight-line instantiator for its right-hand side, and
every container is insertion-ordered, so the result and the rule log do
not depend on the hash seed.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from ..errors import GraphitiError
from .algebra import _parse_call  # canonical combinator-call syntax

# Terms are nested tuples: ("sym", name) for atoms (including base function
# names), or (op, child, ...) with op in {"comp", "par", "first", "second",
# "tup"}; "tup" children are atoms.

Term = tuple


def parse_term(text: str) -> Term:
    """Parse the combinator syntax of :mod:`repro.rewriting.algebra`."""
    head, args = _parse_call(text)
    if head is None:
        return ("sym", text.strip())
    return (head,) + tuple(parse_term(arg) for arg in args)


def render_term(term: Term) -> str:
    """Render a term back into canonical combinator syntax."""
    if term[0] == "sym":
        return term[1]
    head = term[0]
    return f"{head}({','.join(render_term(child) for child in term[1:])})"


def term_size(term: Term) -> int:
    if term[0] == "sym":
        return 1
    return 1 + sum(term_size(child) for child in term[1:])


def _index_key(node: tuple) -> tuple:
    """The op-index key of an e-node or pattern: the atom itself, or (op, arity)."""
    return node if node[0] == "sym" else (node[0], len(node) - 1)


class EGraph:
    """A small e-graph over function-algebra terms.

    E-nodes are plain tuples shaped like terms with e-class ids as children:
    ``("sym", name)`` for atoms and ``(op, child, ...)`` otherwise.  Every
    e-node is born with a fresh e-class, so its birth class id names it:
    ``_node_of[i]`` is the canonical form of the e-node born with class
    ``i``, or ``None`` once congruence merged it into an older duplicate.
    Walking ``_node_of`` therefore visits e-nodes in creation order.
    """

    def __init__(self):
        self._parent: list[int] = []
        self._node_of: list[tuple | None] = []
        self._memo: dict[tuple, int] = {}  # hash-cons: e-node -> birth id
        self._uses: list[list[int]] = []  # class -> birth ids of e-nodes using it
        self._pending: list[int] = []  # classes merged since the last rebuild

    def __len__(self) -> int:
        """Number of hash-consed e-nodes (canonical right after a rebuild)."""
        return len(self._memo)

    # -- union-find -----------------------------------------------------------

    def find(self, cls: int) -> int:
        parent = self._parent
        while parent[cls] != cls:
            parent[cls] = parent[parent[cls]]
            cls = parent[cls]
        return cls

    # -- construction ---------------------------------------------------------

    def add_term(self, term: Term) -> int:
        if term[0] == "sym":
            return self._add(term)
        return self._add((term[0],) + tuple(self.add_term(child) for child in term[1:]))

    def _add(self, node: tuple) -> int:
        """Hash-cons *node*, whose children must be canonical."""
        existing = self._memo.get(node)
        if existing is not None:
            return self.find(existing)
        return self._insert(node)

    def _insert(self, node: tuple) -> int:
        """Add *node* (canonical, not yet hash-consed) in a fresh e-class."""
        cls = len(self._parent)
        self._parent.append(cls)
        self._node_of.append(node)
        self._uses.append([])
        self._memo[node] = cls
        if node[0] != "sym":
            uses = self._uses
            for child in node[1:]:
                uses[child].append(cls)
        return cls

    def union(self, a: int, b: int) -> int:
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        self._parent[b] = a
        self._uses[a].extend(self._uses[b])
        self._uses[b] = []
        self._pending.append(a)
        return a

    def rebuild(self) -> None:
        """Restore congruence closure after unions.

        Only e-nodes using a class merged since the last rebuild can have
        gone stale, so only those are re-canonicalised (egg's deferred
        rebuilding).  Of two congruent e-nodes the older one survives.
        """
        find = self.find
        while self._pending:
            todo = dict.fromkeys(find(cls) for cls in self._pending)
            self._pending = []
            for cls in todo:
                self._repair(find(cls))

    def _repair(self, cls: int) -> None:
        """Re-canonicalise the e-nodes using *cls*, then merge congruent ones."""
        find, memo, node_of = self.find, self._memo, self._node_of
        users: list[int] = []
        congruent: list[tuple[int, int]] = []
        for i in dict.fromkeys(self._uses[cls]):
            node = node_of[i]
            if node is None:
                continue
            canon = (node[0],) + tuple(find(child) for child in node[1:])
            if canon != node:
                del memo[node]
            other = memo.setdefault(canon, i)
            if other == i:
                node_of[i] = canon
                users.append(i)
            elif other < i:
                node_of[i] = None
                congruent.append((other, i))
            else:
                memo[canon] = i
                node_of[i] = canon
                node_of[other] = None
                users.append(i)
                congruent.append((i, other))
        self._uses[cls] = users
        for keep, drop in congruent:
            self.union(keep, drop)

    def _index(self) -> dict[tuple, dict[int, list[tuple]]]:
        """Op index of the (rebuilt) e-graph: key -> class -> e-nodes.

        Keys are :func:`_index_key`.  Classes and e-nodes appear in creation
        order, which fixes the order matches are found and applied in.
        """
        find = self.find
        tables: dict[tuple, dict[int, list[tuple]]] = {}
        for i, node in enumerate(self._node_of):
            if node is None:
                continue
            key = _index_key(node)
            table = tables.get(key)
            if table is None:
                table = tables[key] = {}
            cls = find(i)
            nodes = table.get(cls)
            if nodes is None:
                table[cls] = [node]
            else:
                nodes.append(node)
        return tables

    # -- extraction -------------------------------------------------------------

    def extract(self, cls: int) -> Term:
        """Smallest term (by node count) representing e-class *cls*.

        E-nodes are visited in creation order and only a strictly smaller
        term replaces a class's best, so ties go to the oldest e-node.
        """
        find = self.find
        entries = [
            (find(i), node, tuple(find(child) for child in node[1:]) if node[0] != "sym" else ())
            for i, node in enumerate(self._node_of)
            if node is not None
        ]
        costs = [math.inf] * len(self._parent)
        choice: dict[int, tuple[tuple, tuple[int, ...]]] = {}
        changed = True
        while changed:
            changed = False
            for owner, node, children in entries:
                total = 1
                for child in children:
                    total += costs[child]
                if total < costs[owner]:
                    costs[owner] = total
                    choice[owner] = (node, children)
                    changed = True
        root = find(cls)
        if root not in choice:
            raise GraphitiError("extraction failed: class has no finite-cost term")
        # A class's best only changes to a strictly cheaper one, so the
        # children a choice was made with kept their best terms since.
        terms: dict[int, Term] = {}

        def term_of(owner: int) -> Term:
            term = terms.get(owner)
            if term is None:
                node, children = choice[owner]
                term = node if node[0] == "sym" else (node[0],) + tuple(map(term_of, children))
                terms[owner] = term
            return term

        return term_of(root)


def _v(name: str) -> Term:
    return ("var", name)


#: Equational rules of the pairing algebra: (name, lhs, rhs) triples.
#: Genuine two-way laws are also applied in reverse during saturation.
RULES: list[tuple[str, Term, Term]] = [
    # comp is associative with identity `id`
    ("comp-assoc",
     ("comp", ("comp", _v("a"), _v("b")), _v("c")), ("comp", _v("a"), ("comp", _v("b"), _v("c")))),
    ("comp-id-left", ("comp", ("sym", "id"), _v("a")), _v("a")),
    ("comp-id-right", ("comp", _v("a"), ("sym", "id")), _v("a")),
    # par laws
    ("par-id", ("par", ("sym", "id"), ("sym", "id")), ("sym", "id")),
    ("par-fusion",
     ("comp", ("par", _v("a"), _v("b")), ("par", _v("c"), _v("d"))),
     ("par", ("comp", _v("a"), _v("c")), ("comp", _v("b"), _v("d")))),
    # first/second are par with id
    ("first-as-par", ("first", _v("a")), ("par", _v("a"), ("sym", "id"))),
    ("second-as-par", ("second", _v("a")), ("par", ("sym", "id"), _v("a"))),
    # projections: par(a,b);fst = fst;a   (split past parallel maps)
    ("proj-par-left",
     ("comp", ("par", _v("a"), _v("b")), ("sym", "fst")), ("comp", ("sym", "fst"), _v("a"))),
    ("proj-par-right",
     ("comp", ("par", _v("a"), _v("b")), ("sym", "snd")), ("comp", ("sym", "snd"), _v("b"))),
    # dup then project is the identity (Split of a Join)
    ("split-of-join-left", ("comp", ("sym", "dup"), ("sym", "fst")), ("sym", "id")),
    ("split-of-join-right", ("comp", ("sym", "dup"), ("sym", "snd")), ("sym", "id")),
    # re-pairing the projections is the identity (Join of a Split)
    ("join-of-split",
     ("comp", ("sym", "dup"), ("par", ("sym", "fst"), ("sym", "snd"))), ("sym", "id")),
    # swap is an involution, and implementable with dup and projections
    ("swap-involution", ("comp", ("sym", "swap"), ("sym", "swap")), ("sym", "id")),
    ("swap-as-dup",
     ("comp", ("sym", "dup"), ("par", ("sym", "snd"), ("sym", "fst"))), ("sym", "swap")),
    # dup duplicates through any following map on one side:
    # dup;par(f,g) ; fst = f  etc. follow from the laws above.
]


def _pattern_vars(pattern: Term) -> frozenset[str]:
    if pattern[0] == "var":
        return frozenset({pattern[1]})
    if pattern[0] == "sym":
        return frozenset()
    return frozenset().union(*(_pattern_vars(child) for child in pattern[1:]))


# -- rule compilation -----------------------------------------------------------


def _compile_matcher(lhs: Term) -> tuple[Callable, list[str]]:
    """Compile *lhs* into a nested-loop matcher over :meth:`EGraph._index`.

    Returns ``(match, names)``.  ``match(tables, append, tag)`` calls
    ``append((tag, root, bindings))`` once per match, with *bindings* the
    matched class ids of the pattern variables in the order of *names*.
    Atoms in the pattern become membership tests, variables plain reads.
    """
    if lhs[0] == "var":
        raise GraphitiError("a rule's left-hand side must not be a bare variable")
    keys: list[tuple] = []
    names: list[str] = []
    body: list[str] = []

    def table(pattern: Term) -> str:
        key = _index_key(pattern)
        if key not in keys:
            keys.append(key)
        return f"t{keys.index(key)}"

    def emit_children(pattern: Term, node: str, depth: int) -> int:
        pad = "    " * depth
        nested = []
        for pos, child in enumerate(pattern[1:], 1):
            ref = f"{node}[{pos}]"
            if child[0] == "var":
                if child[1] in names:
                    body.append(f"{pad}if {ref} != v_{child[1]}: continue")
                else:
                    names.append(child[1])
                    body.append(f"{pad}v_{child[1]} = {ref}")
            elif child[0] == "sym":
                body.append(f"{pad}if {ref} not in {table(child)}: continue")
            else:
                nested.append((child, ref))
        for child, ref in nested:
            loop_var = f"n{depth}"
            body.append(f"{'    ' * depth}for {loop_var} in {table(child)}.get({ref}, ()):")
            depth = emit_children(child, loop_var, depth + 1)
        return depth

    if lhs[0] == "sym":
        body.append(f"    for root in {table(lhs)}:")
        depth = 2
    else:
        body.append(f"    for root, nodes in {table(lhs)}.items():")
        body.append("        for n1 in nodes:")
        depth = emit_children(lhs, "n1", 3)
    bindings = "".join(f"v_{name}, " for name in names)
    body.append(f"{'    ' * depth}append((tag, root, ({bindings})))")

    head = ["def match(tables, append, tag):"]
    for index, key in enumerate(keys):
        head.append(f"    t{index} = tables.get({key!r})")
        head.append(f"    if t{index} is None: return")
    namespace: dict = {}
    exec("\n".join(head + body), namespace)
    return namespace["match"], names


def _compile_instantiator(rhs: Term, names: list[str]) -> Callable:
    """Compile *rhs* into ``instantiate(find, lookup, insert, *bindings) -> class``.

    The instantiator hash-conses the instance of *rhs* under the bindings (given
    in the order of *names*) bottom-up and returns its canonical class.
    """
    lines = [f"def instantiate(find, lookup, insert, {''.join(f'v_{name}, ' for name in names)}):"]

    def emit(pattern: Term) -> str:
        if pattern[0] == "var":
            return f"find(v_{pattern[1]})"
        if pattern[0] == "sym":
            key = repr(pattern)
        else:
            key = f"({pattern[0]!r}, {''.join(emit(child) + ', ' for child in pattern[1:])})"
        var = f"x{len(lines)}"
        lines.append(f"    k = {key}")
        lines.append(f"    {var} = lookup(k)")
        lines.append(f"    {var} = insert(k) if {var} is None else find({var})")
        return var

    lines.append(f"    return {emit(rhs)}")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["instantiate"]


class _Direction(NamedTuple):
    name: str
    match: Callable
    instantiate: Callable


def _compile_rules() -> list[_Direction]:
    """Compile every rule direction :func:`saturate` applies, in :data:`RULES` order."""
    directions = []
    for name, lhs, rhs in RULES:
        sides = [(name, lhs, rhs)]
        lhs_vars, rhs_vars = _pattern_vars(lhs), _pattern_vars(rhs)
        if rhs[0] != "var" and lhs_vars and lhs_vars == rhs_vars:
            sides.append((f"{name}-rev", rhs, lhs))
        for rule_name, source, target in sides:
            match, names = _compile_matcher(source)
            directions.append(_Direction(rule_name, match, _compile_instantiator(target, names)))
    return directions


_DIRECTIONS = _compile_rules()


def saturate(
    egraph: EGraph,
    iterations: int = 8,
    node_limit: int = 20_000,
    log: list[str] | None = None,
) -> None:
    """Run equality saturation with :data:`RULES`.

    Rules run forward; the reverse direction is also applied when it is a
    genuine two-way law (same non-empty variable set on both sides).
    Ground identities are never reversed — expanding ``id`` into
    ``comp(swap, swap)`` or ``par(id, id)`` only inflates the e-graph,
    feeding combinatorial cross-products through the par-fusion law.

    Each iteration matches every rule against the e-graph as it stood when
    the iteration started, applies the matches in rule order, then
    rebuilds.  Saturation stops once the e-graph holds more than
    *node_limit* e-nodes.

    When *log* is given, every rule application that merged two previously
    distinct e-classes appends its rule name — the reproduction's analogue
    of egg handing back a replayable rewrite sequence (section 3.2).
    """
    find, lookup, insert = egraph.find, egraph._memo.get, egraph._insert
    egraph.rebuild()
    for _ in range(iterations):
        if len(egraph) > node_limit:
            break  # saturated past budget: matching itself would be O(n²)
        tables = egraph._index()
        matches: list[tuple[_Direction, int, tuple[int, ...]]] = []
        for direction in _DIRECTIONS:
            direction.match(tables, matches.append, direction)
        del tables  # free the index before the e-graph grows
        changed = False
        for direction, root, bindings in matches:
            if len(egraph) > node_limit:
                break
            new_cls = direction.instantiate(find, lookup, insert, *bindings)
            if new_cls != find(root):
                egraph.union(new_cls, root)
                if log is not None:
                    log.append(direction.name)
                changed = True
        egraph.rebuild()
        if not changed or len(egraph) > node_limit:
            break


def simplify(text: str, iterations: int = 8, node_limit: int = 20_000) -> str:
    """Simplify a combinator term using equality saturation.

    This is the oracle entry point used by the region purifier: the result
    is an equivalent term, usually much smaller, e.g.::

        >>> simplify("comp(dup,par(fst,snd))")
        'id'

    *node_limit* bounds the e-graph: matching is quadratic in the node
    count, so callers with large composed terms pass a tighter budget.
    """
    egraph = EGraph()
    root = egraph.add_term(parse_term(text))
    saturate(egraph, iterations, node_limit)
    return render_term(egraph.extract(root))


def simplify_with_log(
    text: str, iterations: int = 8, node_limit: int = 20_000
) -> tuple[str, list[str]]:
    """Like :func:`simplify`, also returning the applied-rule sequence."""
    egraph = EGraph()
    root = egraph.add_term(parse_term(text))
    log: list[str] = []
    saturate(egraph, iterations, node_limit, log)
    return render_term(egraph.extract(root)), log
