"""Statistics helpers of the benchmark: percentiles, span self times and
failure fractions. Pure functions, tested by test_lgstats.py."""

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)


def quantile(values, q):
    """Linearly interpolated quantile of `values` at q in [0, 1]."""
    if not values:
        raise ValueError("quantile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER with at least ten of `n`
    samples beyond it, or None when even p90 has fewer."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def fail_frac(units):
    """(attempted, failed, failed / attempted) over units with an `ok`
    flag."""
    attempted = len(units)
    if attempted == 0:
        raise ValueError("no units attempted")
    failed = sum(1 for u in units if not u["ok"])
    return attempted, failed, failed / attempted


def covered_length(intervals, lo, hi):
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time per span: its duration minus the part of its interval its
    children cover (overlapping children counted once). `spans` are dicts
    with id, parent, start, end and name; returns {id: self seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        out[s["id"]] = (s["end"] - s["start"]) - covered_length(
            kids, s["start"], s["end"])
    return out


def self_by_name(spans):
    """({name: (calls, total self seconds)}, total wall of the root
    spans)."""
    st = self_times(spans)
    by = {}
    for s in spans:
        calls, total = by.get(s["name"], (0, 0.0))
        by[s["name"]] = (calls + 1, total + st[s["id"]])
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
    return by, roots


def read_spans(path):
    """Parse the span log lgbench writes: id parent op start end name."""
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, op, start, end, name = line.split()
            spans.append({"id": int(sid), "parent": int(parent),
                          "op": int(op), "start": float(start),
                          "end": float(end), "name": name})
    return spans
