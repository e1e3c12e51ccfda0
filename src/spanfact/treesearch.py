"""Branch-and-bound kernel for the maximum relocatable tree.

Search states are element sets (evaluation images as ``bytes``), grown one
frontier element at a time; branching is include-first on the oldest
frontier entry.  The bound at a node is the member count plus, minimized
over vertices, the number of distinct images that elements reachable
through still-admissible elements can take at that vertex.  A node is
pruned iff that count is at most its slack, the best size so far minus the
member count.  The count only grows as the closure grows, so the BFS checks
it when the closure reaches n, 2n, 4n, ... elements and stops as soon as it
exceeds the slack: the rest of the closure could not change the decision.
Checks stop at half of ``closure_cap``: a later one would read more cells
than the BFS elements left before the cap, and the column tuples it builds
would raise the search's peak memory above that of a capped closure.
A closure that passes ``closure_cap`` elements counts as n, so a cap hit
means a prune may really have been lost: the bound was still within the
slack at the last check.  Witnesses are returned as (parent, symbol) pairs
indexing the member list, so callers can rebuild the tree words.

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

    def closure_bound(frontier, slack: int) -> int:
        """Upper bound on how many more members this branch can gain, or a
        partial bound as soon as it exceeds slack (the branch then survives
        whatever the rest of the closure adds)."""
        seen = set()
        check_at = n
        queue = [entry[0] for entry in frontier]
        for e in queue:
            if e in seen:
                continue
            seen.add(e)
            if len(seen) > closure_cap:
                return n
            if len(seen) == check_at and 2 * check_at <= closure_cap:
                partial = min(len(set(col)) for col in zip(*seen))
                if partial > slack:
                    return partial
                check_at *= 2
            for table in tables:
                ne = e.translate(table)
                if ne in seen or ne in excluded or agrees(ne):
                    continue
                queue.append(ne)
        return min(len(set(col)) for col in zip(*seen))

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
    # which would reference itself and be left to the cyclic collector
    stack = [(_VISIT, frontier0)]
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
        frontier = arg
        if nodes >= node_cap:
            aborted = True
            break
        nodes += 1
        if not frontier:
            continue
        slack = best_size - blob.count
        if closure_bound(frontier, slack) <= slack:
            continue
        (elem, parent, sym), rest = frontier[0], frontier[1:]
        stack += ((_READMIT, elem), (_VISIT, rest), (_EXCLUDE, elem))

        # include
        blob.push(elem)
        prov.append((parent, sym))
        my_index = blob.count - 1
        # every frontier entry disagrees with every earlier member, so it
        # agrees with the blob iff it agrees with elem
        new_frontier = [f for f in rest if not agrees(f[0])]
        for s, table in ((1, tables[0]), (2, tables[1])):
            ne = elem.translate(table)
            if ne in excluded or any(ne == f[0] for f in new_frontier) or agrees(ne):
                continue
            new_frontier.append((ne, my_index, s))
        if blob.count > best_size:
            best_size = blob.count
            best_witness = list(prov)
        stack.append((_VISIT, new_frontier))
    return best_size, best_witness[:best_size], nodes, not aborted
