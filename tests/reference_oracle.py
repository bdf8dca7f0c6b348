"""Reference stage checks that recount every stage's pair sums from scratch.

These are the O(K^3) bodies `urbasis.oracle.verify_unique_window` and
`urbasis.oracle.verify_decomposition` had before they moved onto one live
count table, and then onto one tagged pass.  They share no code with the
oracle: the tests compare the two on corrupted traces and require
identical verdicts, witnesses included, on every nested trace.  The
`union-mismatch` branch is kept, so those comparisons also show it never
fires.
"""

from urbasis import ConstructionStep, Verdict


def _witness_order(n):
    return (abs(n), n < 0)


def _pair_counts(elements, lo=None, hi=None):
    counts = {}
    for i, a in enumerate(elements):
        for b in elements[i:]:
            s = a + b
            if lo is not None and (s < lo or s > hi):
                continue
            counts[s] = counts.get(s, 0) + 1
    return counts


def _element_pairs_for(elements, n):
    return [(a, b) for i, a in enumerate(elements) for b in elements[i:] if a + b == n]


def verify_unique_window(trace):
    for step in trace.steps:
        counts = _pair_counts(step.basis.elements)
        doubled = [n for n, c in counts.items() if c >= 2]
        if doubled:
            n = min(doubled, key=_witness_order)
            return Verdict(False, "unique-window", {
                "reason": "repeated-sum",
                "stage": step.k,
                "n": n,
                "pairs": _element_pairs_for(step.basis.elements, n),
            })
    for step in trace.steps:
        if step.k % 2:
            continue
        half = step.k // 2
        counts = _pair_counts(step.basis.elements, -half, half)
        missing = [n for n in range(-half, half + 1) if counts.get(n, 0) != 1]
        if missing:
            n = min(missing, key=_witness_order)
            return Verdict(False, "unique-window", {
                "reason": "uncovered",
                "stage": step.k,
                "n": n,
                "count": counts.get(n, 0),
            })
    return Verdict(True, "unique-window")


def verify_decomposition(prev: ConstructionStep, nxt: ConstructionStep) -> Verdict:
    if nxt.k != prev.k + 1:
        raise ValueError(f"stages are not consecutive: {prev.k} then {nxt.k}")
    prev_set = set(prev.basis.elements)
    nxt_set = set(nxt.basis.elements)
    if not prev_set <= nxt_set or len(nxt_set) != len(prev_set) + 2:
        raise ValueError("next stage does not extend the previous one by exactly two elements")
    added = sorted(nxt_set - prev_set)
    e_neg, e_pos = added
    if e_neg >= 0 or e_pos <= 0:
        raise ValueError(f"added pair {added} is not one negative and one positive element")
    if prev.positive_branch:
        anchor, reach3 = e_pos, -e_neg
    else:
        anchor, reach3 = -e_neg, e_pos
    if reach3 % 3 != 0 or anchor != prev.gap + reach3:
        raise ValueError(f"added pair {added} does not follow the branch rule for gap {prev.gap}")
    reach = reach3 // 3
    if reach < prev.radius:
        raise ValueError(f"implied reach {reach} below radius {prev.radius}: extension precondition violated")
    if prev.reach is not None and prev.reach != reach:
        return Verdict(False, "decomposition", {
            "reason": "reach-mismatch", "stage": prev.k, "recorded": prev.reach, "implied": reach,
        })

    old = prev.basis.elements
    parts = {
        "old-sums": set(_pair_counts(old)),
        "shift-by-first": {a + e_neg for a in old},
        "shift-by-second": {a + e_pos for a in old},
        "new-pair-sums": {2 * e_neg, e_neg + e_pos, 2 * e_pos},
    }
    names = list(parts)
    for i, p in enumerate(names):
        for q in names[i + 1:]:
            overlap = parts[p] & parts[q]
            if overlap:
                n = min(overlap, key=_witness_order)
                return Verdict(False, "decomposition", {
                    "reason": "overlap", "stage": nxt.k, "n": n, "parts": [p, q],
                })
    union = set().union(*parts.values())
    full = set(_pair_counts(nxt.basis.elements))
    if union != full:
        n = min(union ^ full, key=_witness_order)
        return Verdict(False, "decomposition", {
            "reason": "union-mismatch",
            "stage": nxt.k,
            "n": n,
            "in_union": n in union,
        })
    return Verdict(True, "decomposition")


def decomposition_row(trace):
    """The `decomposition` row `urbasis verify` prints, built on the reference check.

    A reach recorded on the final stage fails the row, since no later stage
    places the pair it would imply.
    """
    ok, witness = True, None
    for prev, nxt in zip(trace.steps, trace.steps[1:]):
        try:
            verdict = verify_decomposition(prev, nxt)
        except ValueError as e:
            ok, witness = False, {"refused": str(e), "stage": nxt.k}
            break
        if not verdict:
            ok, witness = False, verdict.witness
            break
    if ok and trace.final.reach is not None:
        ok, witness = False, {"reason": "final-reach", "stage": trace.final.k, "recorded": trace.final.reach}
    return {"name": "decomposition", "ok": ok, "witness": witness, "pairs": len(trace.steps) - 1}
