"""Warp-level memory coalescing unit.

When the 32 threads of a warp execute a memory instruction, accesses that
fall into the same cache line are merged into one memory transaction
(Section 2.1).  The covert channel deliberately defeats coalescing — 32
uncoalesced requests per warp make contention robust to sender/receiver
misalignment (Figure 12) and drop the error rate from >50% to ~0.1%
(Figure 13) — so the coalescer is a first-class, controllable mechanism
here rather than an implementation detail.

:func:`coalesce` returns plain line-aligned addresses in one pass; the SM
keeps them as the warp's pending transactions, with no per-transaction
object.
"""

from __future__ import annotations

from typing import List, Sequence


def coalesce(addresses: Sequence[int], line_bytes: int) -> List[int]:
    """Merge lane addresses into unique line-aligned transactions.

    Returns one representative (line-aligned) address per touched cache
    line, in first-touch order — the transactions a real coalescer would
    emit for this warp instruction.  The list is new on every call, so
    the caller may consume it.
    """
    return list(dict.fromkeys(
        [(address // line_bytes) * line_bytes for address in addresses]
    ))


def lane_addresses_coalesced(
    base: int, line_bytes: int, lanes: int = 32, element_bytes: int = 4
) -> List[int]:
    """Lane addresses for a fully-coalescable access.

    All ``lanes`` threads read consecutive elements of one cache line
    (classic ``arr[base + tid]`` pattern), producing a single transaction
    after coalescing (assuming ``lanes * element_bytes <= line_bytes``).
    """
    return [base + lane * element_bytes for lane in range(lanes)]


def lane_addresses_uncoalesced(
    base: int, line_bytes: int, lanes: int = 32, stride_lines: int = 1
) -> List[int]:
    """Lane addresses that defeat coalescing entirely.

    Each thread touches a different cache line (``arr[base + tid*stride]``
    with a stride of at least one line), producing ``lanes`` transactions —
    the pattern the attack uses to guarantee interconnect contention.
    """
    stride = line_bytes * stride_lines
    return [base + lane * stride for lane in range(lanes)]


def lane_addresses_partial(
    base: int, line_bytes: int, unique_lines: int, lanes: int = 32
) -> List[int]:
    """Lane addresses touching exactly ``unique_lines`` cache lines.

    Used by the multi-level channel (Figure 14): modulating the number of
    unique lines per warp (e.g. 0/8/16/32) modulates the *degree* of
    contention, communicating more than one bit per slot.
    """
    if not 1 <= unique_lines <= lanes:
        raise ValueError("unique_lines must be in [1, lanes]")
    return [
        base + (lane % unique_lines) * line_bytes for lane in range(lanes)
    ]
