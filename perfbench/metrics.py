"""The benchmark's own arithmetic, kept free of I/O so it can be tested.

Percentiles use the nearest-rank rule: the q-quantile of N sorted samples
is the sample at rank ceil(q * N) (1-based). A percentile is only reported
as trustworthy when at least ten samples lie beyond it.
"""

import math
import statistics

INF = float("inf")

# svc_mixed's goodput rule: a rung counts when its p99 (failures counted as
# missing the limit) is within the latency limit, at most this share of its
# requests failed, and its backlog did not grow.
P99_LIMIT_US = 5000.0
FAIL_LIMIT = 0.001
# A rung whose generator ran later than this at its p99 did not offer the
# load it names, and is not scored.
GEN_LATE_LIMIT_US = 2000.0
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of `values`; None when empty."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-quantile."""
    if n == 0:
        return 0
    return n - max(1, math.ceil(q * n - 1e-9))


def tail_is_supported(n, q):
    """True when at least MIN_BEYOND samples lie beyond the q-quantile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def fail_frac(attempted, failed):
    """Share of attempted operations that failed, were shed or were wrong."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def latencies_with_failures(latencies, ok_flags):
    """Latencies where every failed request counts as missing any limit."""
    return [lat if ok else INF for lat, ok in zip(latencies, ok_flags)]


def backlog_grows(samples, slack=8.0):
    """True when the backlog at the end of a rung exceeds its early level.

    Compares the mean of the last quarter of the samples with the mean of
    the second quarter (the first quarter is the ramp from empty): growth
    means late > 2 * early + slack requests.
    """
    if len(samples) < 4:
        return False
    q = len(samples) // 4
    early = statistics.fmean(samples[q:2 * q])
    late = statistics.fmean(samples[3 * q:])
    return late > 2.0 * early + slack


def windowed_rate(phases, window_s=0.1, q=0.5):
    """Completions per second in the nearest-rank q-quantile window of some
    phases (q = 0.5: the median window).

    `phases` is a list of (done_ns, seconds): completion times since that
    phase's start, and its length; completions at or after `seconds` (the
    drain) are ignored. A quantile over the windows of every phase keeps a
    stall of the host in one window from moving the rate.
    """
    counts = []
    width = window_s * 1e9
    for done_ns, seconds in phases:
        windows = int(seconds / window_s + 1e-9)
        if windows < 1:
            raise ValueError("phase shorter than one window")
        phase = [0] * windows
        for t in done_ns:
            w = int(t // width)
            if 0 <= t and w < windows:
                phase[w] += 1
        counts.extend(phase)
    if not counts:
        raise ValueError("no phases")
    return percentile(counts, q) / window_s


def quiet_median(samples, windows=20, q=0.25):
    """Median of the run's quieter windows.

    Splits the time-ordered `samples` into `windows` windows of equal count,
    takes each window's median and returns the nearest-rank q-quantile of
    those medians. On a host that alternates between a quiet and a
    contended state for seconds at a time, this tracks the quiet state
    whenever it covers at least a q share of the run, where the plain
    median lands in whichever state covered more of it.
    """
    if len(samples) < windows:
        raise ValueError("fewer samples than windows")
    n = len(samples)
    medians = [statistics.median(samples[i * n // windows:(i + 1) * n // windows])
               for i in range(windows)]
    return percentile(medians, q)


def rung_verdict(p99_us, frac_failed, grows, gen_late_p99_us):
    """'invalid', 'pass' or 'fail' for one ladder rung."""
    if gen_late_p99_us > GEN_LATE_LIMIT_US:
        return "invalid"
    if p99_us <= P99_LIMIT_US and frac_failed <= FAIL_LIMIT and not grows:
        return "pass"
    return "fail"


def goodput(rungs):
    """Achieved rate of the highest passing rung, and that rung's offered rate.

    `rungs` is a list of dicts with keys rate, verdict and achieved_rps.
    Invalid rungs are skipped; returns (0.0, None) when no rung passes.
    """
    best = None
    for r in rungs:
        if r["verdict"] == "pass" and (best is None or r["rate"] > best["rate"]):
            best = r
    if best is None:
        return 0.0, None
    return best["achieved_rps"], best["rate"]


def self_times(t0, t1, parent):
    """Self time of every span: its duration minus the part its children cover.

    Children are the spans whose parent index points at the span; their
    intervals are clipped to the parent's and merged, so overlapping
    children are not subtracted twice.
    """
    children = [[] for _ in t0]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        start, end = t0[i], t1[i]
        covered = 0
        cur_s = cur_e = None
        for s, e in sorted((max(t0[k], start), min(t1[k], end)) for k in kids):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def layer_self_time(names, name_idx, t0, t1, parent):
    """Total self time per layer, the layer being the span name's prefix."""
    selfs = self_times(t0, t1, parent)
    totals = {}
    for idx, st in zip(name_idx, selfs):
        layer = names[idx].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0) + st
    return totals


def mflops(n, seconds):
    """The paper's normalized rate: 5 n log2(n) / t, in millions per second."""
    return 5.0 * n * math.log2(n) / seconds / 1e6

