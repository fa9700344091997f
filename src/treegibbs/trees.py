"""Plane trees and their correspondence with 2-Motzkin paths.

The encoding labels each edge of a rooted ordered tree by how it sits
under its parent (root edges and middle edges H, only-child edges I,
leftmost/rightmost edges of branching nodes U/D), reads the labels in
preorder, and drops the guaranteed leading H.  A tree with n edges maps
to a path of length n - 1, and the inverse is a single left-to-right
stack pass over the path.

Trees are stored as an index-based arena (node 0 is the root, each node
holds a tuple of child ids) so traversals are iterative and safe for
path-like trees millions of edges deep.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import (
    EmptyTreeError,
    InternalInvariantViolationError,
    UnbalancedParensError,
)
from .paths import D, H, I, U, TwoMotzkinPath


class DegreeProfile(NamedTuple):
    """Leaf count, single-child internal-node count, root degree, edge count."""

    d0: int
    d1: int
    r: int
    n: int


class PlaneTree:
    """Rooted ordered tree over nodes 0..n; node 0 is the root."""

    __slots__ = ("children",)

    children: tuple[tuple[int, ...], ...]

    def __init__(self, children: Iterable[Iterable[int]]):
        arena = tuple(tuple(kids) for kids in children)
        _check_arena(arena)
        object.__setattr__(self, "children", arena)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), (self.children,))

    @classmethod
    def _trusted(cls, arena: tuple[tuple[int, ...], ...]) -> "PlaneTree":
        self = object.__new__(cls)
        object.__setattr__(self, "children", arena)
        return self

    @property
    def edge_count(self) -> int:
        return len(self.children) - 1

    def __eq__(self, other) -> bool:
        if isinstance(other, PlaneTree):
            return self.children == other.children
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.children)

    def __repr__(self) -> str:
        return f"PlaneTree({tree_to_text(self)!r})"


def _check_arena(arena: tuple[tuple[int, ...], ...]) -> None:
    n = len(arena)
    if n == 0:
        raise ValueError("a plane tree has at least its root node")
    seen = bytearray(n)
    seen[0] = 1
    for kids in arena:
        for c in kids:
            if not 0 <= c < n:
                raise ValueError(f"child id {c} out of range")
            if seen[c]:
                raise ValueError(f"node {c} has two parents or is the root")
            seen[c] = 1
    if not all(seen):
        raise ValueError(f"node {seen.index(0)} has no parent")
    # Single-parenthood alone admits cycles detached from the root; an
    # explicit walk from the root rules them out.
    reached = 1
    stack = list(arena[0])
    while stack:
        node = stack.pop()
        reached += 1
        stack.extend(arena[node])
    if reached != n:
        raise ValueError("tree contains nodes unreachable from the root")


def degree_profile(t: PlaneTree) -> DegreeProfile:
    """Count leaves and single-child internal nodes in one pass."""
    if t.edge_count == 0:
        raise EmptyTreeError("degree profile requires at least one edge")
    d0 = 0
    d1 = 0
    for node in range(1, len(t.children)):
        degree = len(t.children[node])
        if degree == 0:
            d0 += 1
        elif degree == 1:
            d1 += 1
    return DegreeProfile(d0=d0, d1=d1, r=len(t.children[0]), n=t.edge_count)


def _edge_labels_preorder(t: PlaneTree) -> bytearray:
    """Labels of all edges in preorder, before the leading H is dropped."""
    labels = bytearray()
    # Stack of (parent, child position); children pushed right-to-left so
    # the leftmost edge is read first.
    stack: list[tuple[int, int]] = [(0, k) for k in range(len(t.children[0]) - 1, -1, -1)]
    while stack:
        parent, pos = stack.pop()
        kids = t.children[parent]
        child = kids[pos]
        if parent == 0:
            labels.append(H)
        elif len(kids) == 1:
            labels.append(I)
        elif pos == 0:
            labels.append(U)
        elif pos == len(kids) - 1:
            labels.append(D)
        else:
            labels.append(H)
        for k in range(len(t.children[child]) - 1, -1, -1):
            stack.append((child, k))
    return labels


def encode(t: PlaneTree) -> TwoMotzkinPath:
    """Map a tree with n >= 1 edges to its 2-Motzkin path of length n - 1."""
    if t.edge_count == 0:
        raise EmptyTreeError("encoding requires at least one edge")
    labels = _edge_labels_preorder(t)
    if labels[0] != H:
        raise InternalInvariantViolationError(
            f"first preorder edge label is {chr(labels[0])!r}, expected 'H'"
        )
    return TwoMotzkinPath._trusted(bytes(labels[1:]))


def decode(x: TwoMotzkinPath) -> PlaneTree:
    """Inverse of :func:`encode`: build the tree with len(x) + 1 edges."""
    children: list[list[int]] = [[], []]
    attach = 0  # receives new nodes for H and D symbols
    last = 1  # most recently created node
    children[0].append(1)
    stack: list[int] = []
    for s in x.symbols:
        node = len(children)
        children.append([])
        if s == U:
            children[last].append(node)
            stack.append(attach)
            attach = last
        elif s == I:
            children[last].append(node)
        elif s == H:
            children[attach].append(node)
        else:  # D
            children[attach].append(node)
            attach = stack.pop()
        last = node
    return PlaneTree._trusted(tuple(tuple(kids) for kids in children))


def tree_to_text(t: PlaneTree) -> str:
    """Balanced-parenthesis form: '(' on edge descent, ')' on ascent."""
    out: list[str] = []
    walk: list[tuple[int, bool]] = [(c, False) for c in reversed(t.children[0])]
    while walk:
        node, closing = walk.pop()
        if closing:
            out.append(")")
            continue
        out.append("(")
        walk.append((node, True))
        for c in reversed(t.children[node]):
            walk.append((c, False))
    return "".join(out)


def text_to_tree(s: str) -> PlaneTree:
    """Parse a balanced-parenthesis word into a plane tree."""
    children: list[list[int]] = [[]]
    path: list[int] = [0]
    opens: list[int] = []  # indices of currently open parentheses
    for idx, ch in enumerate(s):
        if ch == "(":
            node = len(children)
            children.append([])
            children[path[-1]].append(node)
            path.append(node)
            opens.append(idx)
        elif ch == ")":
            if len(path) == 1:
                raise UnbalancedParensError("unmatched ')'", idx)
            path.pop()
            opens.pop()
        else:
            raise UnbalancedParensError(f"unexpected character {ch!r}", idx)
    if len(path) > 1:
        raise UnbalancedParensError("unmatched '('", opens[0])
    return PlaneTree._trusted(tuple(tuple(kids) for kids in children))
