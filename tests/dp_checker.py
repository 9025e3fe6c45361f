"""Exact optima by dynamic programming over a vertex order; shares no code
with ``limpack.solver``.

An instance is a vertex count and a list of constraints (members, cap):
a set X is feasible when it has at most cap members in each constraint.
The vertices are decided one at a time.  Each step takes the vertex that
leaves the fewest "open" constraints (some members decided, some not),
ties by index.  A state holds the member count of each open constraint,
and its value is the largest selection that reaches it.
"""

from __future__ import annotations

from operator import add


def max_feasible(n: int, constraints: list[tuple[list[int], int]]) -> int:
    """Size of the largest feasible X; every cap must be at least 0."""
    cons_of: list[list[int]] = [[] for _ in range(n)]
    for c, (members, _) in enumerate(constraints):
        for v in members:
            cons_of[v].append(c)
    left = [len(members) for members, _ in constraints]

    def is_open(c: int, undecided: int) -> bool:
        return 0 < undecided < len(constraints[c][0])

    def opened_by(v: int) -> int:
        return sum(is_open(c, left[c] - 1) - is_open(c, left[c]) for c in cons_of[v])

    todo = set(range(n))
    opened: list[int] = []
    states = {(): 0}
    while todo:
        v = min(todo, key=lambda u: (opened_by(u), u))
        todo.remove(v)
        for c in cons_of[v]:
            left[c] -= 1
        slot = {c: i for i, c in enumerate(opened)}
        after = [c for c in opened if left[c]]
        after += [c for c in cons_of[v] if left[c] and c not in slot]
        # Slot -1 reads the 0 appended to each state: a constraint not yet open.
        where = [slot.get(c, -1) for c in after]
        bump = [int(c in cons_of[v]) for c in after]
        limits = [(slot.get(c, -1), constraints[c][1]) for c in cons_of[v]]
        step: dict[tuple[int, ...], int] = {}
        for state, value in states.items():
            state += (0,)
            kept = [state[i] for i in where]
            key = tuple(kept)
            if step.get(key, -1) < value:
                step[key] = value
            if all(state[i] < cap for i, cap in limits):
                key = tuple(map(add, kept, bump))
                if step.get(key, -1) <= value:
                    step[key] = value + 1
        opened, states = after, step
    return max(states.values())
