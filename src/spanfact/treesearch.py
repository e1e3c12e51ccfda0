"""Branch-and-bound kernel for the maximum relocatable tree.

Search states are element sets (evaluation images as ``bytes``), grown one
frontier element at a time; branching is include-first on the oldest
frontier entry.  An element is admissible when it is not excluded and
disagrees with every member at every vertex; a node's closure is what its
frontier reaches through admissible elements.  The bound at a node is the
member count plus, minimized over vertices, the number of distinct images
the closure takes at that vertex.  A node is pruned iff that count is at
most its slack, the best size so far minus the member count.

The count is at most n minus the member count, its ceiling: an admissible
element avoids each member's image at each vertex, and the members' images
there are distinct.  The count only grows as the closure grows, so the BFS
checks it when the closure reaches n, 2n, 4n, ... elements and stops as
soon as it exceeds the slack: the rest of the closure could not change the
decision.  When the slack reaches the ceiling no count can exceed it, so
the BFS makes no checks and only the cap decides.  A check joins the
closure into one ``bytes``, one byte per cell and so smaller than the
closure's own elements, and counts each vertex's images from its slice.
Checks stop at half of ``closure_cap``: a later one would read more cells
than the BFS elements left before the cap.  A closure that passes
``closure_cap`` elements counts as n, so a cap hit means a prune may really
have been lost: the bound was still within the slack at the last check.

A node whose BFS ran to completion hands its closure to both children.  The
include child only adds a member and the exclude child only excludes an
element, so each child's closure lies within it.  A child's BFS then keeps a
successor iff it lies in that closure, is not excluded and, on the include
child, disagrees with the element included; it makes no test against all
members.  The root and the children of a BFS that stopped early or passed
the cap search as the root does.  Witnesses are returned as (parent,
symbol) pairs indexing the member list, so callers can rebuild the tree
words.

"Does ``e`` agree with some member at some vertex?" is one test on a
``perm.ImageBlob`` of the members.  With n <= 255 its lanes are 1 byte, so
the ``bytes`` elements are already in lane form.
"""
from __future__ import annotations

from .errors import PreconditionError
from .perm import ImageBlob

MAX_POINTS = 255

# stack entries of the depth-first walk: visit a frontier; drop the last
# member and exclude it; end that exclusion
_VISIT, _EXCLUDE, _READMIT = 0, 1, 2


def active_kernel_name() -> str:
    """Name recorded in search results; there is one kernel."""
    return "python"


def run_search(n, f1_images, f2_images, node_cap, closure_cap):
    """Return (best_size, witness, nodes, certified).

    witness is a list of (parent_index, symbol) in member order; the root has
    parent -1.  certified is False when the node cap cut the search short.
    """
    if n > MAX_POINTS:
        raise PreconditionError(
            f"tree search supports at most {MAX_POINTS} vertices, got n = {n}"
        )
    tables = (
        bytes(f1_images) + bytes(range(n, 256)),
        bytes(f2_images) + bytes(range(n, 256)),
    )
    identity = bytes(range(n))

    blob = ImageBlob(n, (identity,))
    agrees = blob.agrees_packed
    prov: list[tuple[int, int]] = [(-1, 0)]
    excluded: set[bytes] = set()

    def within(closure, slack: int) -> bool:
        """Whether some vertex takes at most slack distinct images over
        closure."""
        flat = b"".join(closure)
        return any(len(set(flat[v::n])) <= slack for v in range(n))

    def closure_bound(frontier, slack: int, parent, elem_agrees):
        """Return (prune, closure): whether the bound is at most slack, and
        the complete closure, or None when the BFS stopped early (the branch
        then survives whatever the rest of the closure adds) or passed the
        cap.  parent is the complete closure of the parent node or None;
        elem_agrees, given on an include child, tests against the element
        its parent included."""
        # at a slack of at least the ceiling no count can exceed it: only the
        # cap decides
        checks = slack < n - blob.count
        seen = set()
        check_at = n if checks else 0
        queue = [entry[0] for entry in frontier]
        for e in queue:
            if e in seen:
                continue
            seen.add(e)
            if len(seen) > closure_cap:
                return False, None
            if len(seen) == check_at and 2 * check_at <= closure_cap:
                if not within(seen, slack):
                    return False, None
                check_at *= 2
            for table in tables:
                ne = e.translate(table)
                if ne in seen or ne in excluded:
                    continue
                if parent is None:
                    if agrees(ne):
                        continue
                elif ne not in parent or (elem_agrees and elem_agrees(ne)):
                    continue
                queue.append(ne)
        return not checks or within(seen, slack), seen

    frontier0 = []
    for s, table in ((1, tables[0]), (2, tables[1])):
        ne = identity.translate(table)
        if not agrees(ne) and all(ne != f[0] for f in frontier0):
            frontier0.append((ne, 0, s))

    best_size = 1
    best_witness = list(prov)
    nodes = 0
    aborted = False
    # depth-first with an explicit stack rather than a recursive closure,
    # which would reference itself and be left to the cyclic collector; a
    # visit carries its frontier, its parent's complete closure or None, and
    # on an include child the test against the element included
    stack = [(_VISIT, (frontier0, None, None))]
    while stack:
        op, arg = stack.pop()
        if op == _EXCLUDE:
            blob.pop()
            prov.pop()
            excluded.add(arg)
            continue
        if op == _READMIT:
            excluded.discard(arg)
            continue
        frontier, parent, elem_agrees = arg
        if nodes >= node_cap:
            aborted = True
            break
        nodes += 1
        if not frontier:
            continue
        slack = best_size - blob.count
        prune, closure = closure_bound(frontier, slack, parent, elem_agrees)
        if prune:
            continue
        (elem, parent_index, sym), rest = frontier[0], frontier[1:]
        stack += ((_READMIT, elem), (_VISIT, (rest, closure, None)), (_EXCLUDE, elem))

        # include
        blob.push(elem)
        prov.append((parent_index, sym))
        my_index = blob.count - 1
        # every frontier entry disagrees with every earlier member, so it
        # agrees with the blob iff it agrees with elem
        elem_agrees = ImageBlob(n, (elem,)).agrees_packed
        new_frontier = [f for f in rest if not elem_agrees(f[0])]
        for s, table in ((1, tables[0]), (2, tables[1])):
            ne = elem.translate(table)
            if ne in excluded or any(ne == f[0] for f in new_frontier) or agrees(ne):
                continue
            new_frontier.append((ne, my_index, s))
        if blob.count > best_size:
            best_size = blob.count
            best_witness = list(prov)
        stack.append((_VISIT, (new_frontier, closure, elem_agrees)))
    return best_size, best_witness[:best_size], nodes, not aborted
