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

"Does ``e`` agree with some member at some vertex?" is one SWAR (SIMD within
a register) test: the k members are kept as one integer blob, member i in
bytes [i*n, (i+1)*n), and ``x = int(e * k) ^ blob`` has a zero byte exactly
when ``e`` agrees with a member somewhere.  The zero-byte test is "haszero"
from Bit Twiddling Hacks: ``(x - 0x01..01) & ~x & 0x80..80`` is nonzero iff
some byte of ``x`` is zero.
"""
from __future__ import annotations

from .errors import PreconditionError

MAX_POINTS = 255


def active_kernel_name() -> str:
    """Name recorded in search results; there is one kernel."""
    return "python"


def _conflicts(a: bytes, b: bytes) -> bool:
    return any(x == y for x, y in zip(a, b))


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
    from_bytes = int.from_bytes

    members: list[bytes] = [identity]
    member_set = {identity}
    blob = from_bytes(identity, "little")
    prov: list[tuple[int, int]] = [(-1, 0)]
    excluded: set[bytes] = set()
    # per member count k: (0x01 in every byte, 0x80 in every byte) over k*n bytes
    masks: dict[int, tuple[int, int]] = {}

    def lanes(k: int) -> tuple[int, int]:
        if k not in masks:
            low = from_bytes(b"\x01" * (n * k), "little")
            masks[k] = (low, low << 7)
        return masks[k]

    best_size = 1
    best_witness = list(prov)
    nodes = 0
    aborted = False

    def closure_bound(frontier, slack: int) -> int:
        """Upper bound on how many more members this branch can gain, or a
        partial bound as soon as it exceeds slack (the branch then survives
        whatever the rest of the closure adds)."""
        k = len(members)
        low, high = lanes(k)
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
                if ne in seen or ne in excluded:
                    continue
                x = from_bytes(ne * k, "little") ^ blob
                if (x - low) & ~x & high:
                    continue
                queue.append(ne)
        return min(len(set(col)) for col in zip(*seen))

    def rec(frontier) -> None:
        nonlocal best_size, best_witness, nodes, aborted, blob
        if nodes >= node_cap:
            aborted = True
            return
        nodes += 1
        if not frontier:
            return
        slack = best_size - len(members)
        if closure_bound(frontier, slack) <= slack:
            return
        elem, parent, sym = frontier[0]

        # include
        outer_blob = blob
        blob |= from_bytes(elem, "little") << (8 * n * len(members))
        members.append(elem)
        member_set.add(elem)
        prov.append((parent, sym))
        my_index = len(members) - 1
        k = len(members)
        low, high = lanes(k)
        new_frontier = [f for f in frontier[1:] if not _conflicts(f[0], elem)]
        for s, table in ((1, tables[0]), (2, tables[1])):
            ne = elem.translate(table)
            if ne in excluded or ne in member_set:
                continue
            if any(ne == f[0] for f in new_frontier):
                continue
            x = from_bytes(ne * k, "little") ^ blob
            if (x - low) & ~x & high:
                continue
            new_frontier.append((ne, my_index, s))
        if len(members) > best_size:
            best_size = len(members)
            best_witness = list(prov)
        rec(new_frontier)
        members.pop()
        member_set.discard(elem)
        prov.pop()
        blob = outer_blob
        if aborted:
            return

        # exclude
        excluded.add(elem)
        rec(frontier[1:])
        excluded.discard(elem)

    frontier0 = []
    for s, table in ((1, tables[0]), (2, tables[1])):
        ne = identity.translate(table)
        if not _conflicts(ne, identity) and all(ne != f[0] for f in frontier0):
            frontier0.append((ne, 0, s))
    rec(frontier0)
    return best_size, best_witness[:best_size], nodes, not aborted
