"""Pure logic of the benchmark: seeded request lists, the Zipf sampler,
percentiles with the ten-beyond rule, the class-share guard, and span
self times. Kept free of I/O so perfbench/tests can check it directly.
"""

import bisect
import math
import random

# Request classes of the serve workloads, in the order of their expected
# latency (cheapest first). The class-share guard reads this order.
# `coldgroups` is serve_churn's full `groups` pull right after a swap: it
# waits for the new generation's detection, scoring and rendering, so it
# is slower than any warm request.
LATENCY_ORDER = ("rescore", "reload", "lookup", "bigrescore", "groups",
                 "coldgroups")

# Shares of the read mix: assumed, not observed traffic, and chosen so
# that `lookup` holds the median and `groups` (the full susGroup.txt
# report) the 99th percentile. No class sits within the guard's margin
# of either cut.
READ_MIX = (
    ("rescore", 0.30),     # rescore?sub=K of a small subTPIIN (cached)
    ("lookup", 0.64),      # explain?company=X / groups?company=X, Zipf X
    ("bigrescore", 0.03),  # rescore of the two subTPIINs with most trails
    ("groups", 0.03),      # the full groups report
)

CUTS = (0.50, 0.99)
MIN_BEYOND = 10

# serve_churn: reads between two hot reloads. Each reload is followed by
# one cold `groups` pull, so the pulls are 1 / (RELOAD_EVERY + 2) of all
# requests. The guard needs that share at 2.5% or more, or p99 falls
# between the cold pulls and the next mode: 38 is the largest that keeps
# p99 among the cold pulls.
RELOAD_EVERY = 38


class ZipfSampler:
    """Draws ranks 0..n-1 with P(rank r) proportional to 1 / (r + 1)**s."""

    def __init__(self, n, s, rng):
        if n < 1:
            raise ValueError("ZipfSampler needs n >= 1")
        self._rng = rng
        weights = [1.0 / (r + 1) ** s for r in range(n)]
        total = sum(weights)
        self._cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def sample(self):
        return bisect.bisect_left(self._cdf, self._rng.random())


def class_share_violations(shares, cuts=CUTS, order=LATENCY_ORDER):
    """Returns the (cut, boundary) pairs where a latency-class boundary
    lies too close to a percentile cut. Classes are stacked in latency
    order; a boundary closer than the margin to a cut puts that
    percentile between two modes. Margin: 5 points at the median, and
    1.5 points (1.5x the tail share) at p99."""
    present = [c for c in order if shares.get(c, 0) > 0]
    unknown = set(shares) - set(order)
    if unknown:
        raise ValueError("classes without a latency rank: %s" % sorted(unknown))
    total = sum(shares[c] for c in present)
    boundaries = []
    acc = 0.0
    for c in present[:-1]:
        acc += shares[c] / total
        boundaries.append(acc)
    bad = []
    for q in cuts:
        margin = min(0.05, 1.5 * (1 - q))
        for b in boundaries:
            if abs(b - q) < margin - 1e-12:
                bad.append((q, b))
    return bad


def churn_shares(read_shares, reload_every):
    """Class shares of serve_churn: per `reload_every` reads of the list,
    the deployer adds one reload and one cold full `groups` pull."""
    cycle = reload_every + 2
    shares = {c: share * reload_every / cycle
              for c, share in read_shares.items()}
    shares["reload"] = 1.0 / cycle
    shares["coldgroups"] = 1.0 / cycle
    return shares


def build_request_list(seed, companies, small_subs, giant_subs, length):
    """The seeded operation list of the serve workloads.

    Returns [(class, request line)]. Class counts are exact (shares x
    length), positions are shuffled by the seed, companies are Zipf
    ranked over a seeded permutation. The same inputs give the same list.
    """
    if not companies or not small_subs or not giant_subs:
        raise ValueError("request list needs companies and subTPIINs")
    rng = random.Random(seed)
    ranked = list(companies)
    rng.shuffle(ranked)
    zipf = ZipfSampler(len(ranked), 1.0, rng)
    counts = {c: round(share * length) for c, share in READ_MIX}
    counts["lookup"] += length - sum(counts.values())
    classes = [c for c, n in counts.items() for _ in range(n)]
    rng.shuffle(classes)
    out = []
    for cls in classes:
        if cls == "lookup":
            verb = "explain" if rng.random() < 0.5 else "groups"
            out.append((cls, "%s?company=%s" % (verb, ranked[zipf.sample()])))
        elif cls == "rescore":
            out.append((cls, "rescore?sub=%d" % rng.choice(small_subs)))
        elif cls == "bigrescore":
            out.append((cls, "rescore?sub=%d" % rng.choice(giant_subs)))
        else:
            out.append((cls, "groups"))
    return out


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the
    sample at or below it. Infinite values (failed requests) sort last."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    """Samples strictly beyond the nearest-rank q-percentile of n."""
    return n - max(1, math.ceil(q * n))


def tail_percentile(values, q):
    """The q-percentile, or None when fewer than MIN_BEYOND samples lie
    beyond it: such a percentile is a property of a handful of requests
    and is refused."""
    if beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def self_times(spans):
    """Self time per span: its duration minus the part of it its direct
    children cover. `spans` maps index -> (parent, start, end)."""
    children = {}
    for idx, (parent, start, end) in spans.items():
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for idx, (parent, start, end) in spans.items():
        covered = 0
        cursor = start
        for s, e in sorted(children.get(idx, [])):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out[idx] = (end - start) - covered
    return out
