#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from this checkout's
sources, runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload fft_large --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are its per-layer metrics.
Lines above it are a human-readable report with run provenance. Builds,
raw records and spans go under .bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as M  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fft_large", "svc_mixed", "stream_chain")
BINARY_TIMEOUT_S = 170
FFT_HEADLINE = ("ddl", 1)  # fft_large's latency metrics: the DDL tree at 1 thread
FFT_TAIL_Q = 0.90          # ~100 headline transforms per run: p90 has 10 beyond
TAIL_Q = 0.99
CAPACITY_Q = 0.75          # svc_mixed capacity: upper quartile of 100 ms windows
# stream_chain's latency_us: the 2nd percentile block. About 6000 blocks lie
# below it in a run, and it stays near the uncontended block time when a
# busy neighbour slows most blocks of a run (perfbench/README.md).
STREAM_LATENCY_Q = 0.02
WRONG_OUTPUT = 101  # svc_mixed status of a completed request outside tolerance


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the binary; returns its path or None."""
    BUILD.mkdir(parents=True, exist_ok=True)
    logf = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(logf, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                log(f"perfbench: build failed ({' '.join(cmd)}); see {logf}")
                log(logf.read_text()[-3000:])
                return None
    return BUILD / "perfbench"


def source_digest():
    """sha256 over the sources the binary is built from (git sha stand-in)."""
    h = hashlib.sha256()
    for sub in ("src", "include", "perfbench"):
        base = ROOT / sub
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def us(ns):
    return None if ns is None else ns / 1e3


def tail(values, q, label, notes):
    """q-quantile, with a note when fewer than ten samples lie beyond it."""
    if not M.tail_is_supported(len(values), q):
        notes.append(f"{label}: only {M.samples_beyond(len(values), q)} of {len(values)} "
                     f"samples beyond p{q * 100:g}")
    return M.percentile(values, q)


# --- fft_large ---------------------------------------------------------------

def fft_config_rates(configs, n):
    rates = {}
    for c in configs:
        key = (c["tree"], c["threads"])
        rates[key] = M.mflops(n, statistics.median(c["samples_ns"]) * 1e-9)
    return rates


def derive_fft_large(raw, notes):
    f = raw["fft_large"]
    n = f["n"]
    cfgs = f["configs"]
    head = next(c for c in cfgs if (c["tree"], c["threads"]) == FFT_HEADLINE)
    s = head["samples_ns"]
    ops = sum(len(c["samples_ns"]) for c in cfgs)
    nt = raw["host"]["nproc"]
    rates = fft_config_rates(cfgs, n)
    named = {}
    for tree in ("rightmost", "ddl"):
        named[f"fft_{tree}_mflops_1t"] = ("MFLOPS", rates[(tree, 1)])
        named[f"fft_{tree}_mflops_nt"] = ("MFLOPS", rates.get((tree, nt), rates[(tree, 1)]))
    named["fft_roundtrip_err"] = ("ratio", f["roundtrip_err"])
    named["fft_ddl_p90_us_1t"] = ("us", us(tail(s, FFT_TAIL_Q, "fft_large ddl@1t", notes)))
    # Transforms per second of the 1-thread schedule (both trees in their
    # share of a round) at each configuration's median speed: medians keep
    # a burst of host noise in one round from moving the rate. The nproc
    # configurations are left out: on a host whose vCPUs share cores their
    # speed-up flips between about 1x and 3x from run to run.
    one = [c for c in cfgs if c["threads"] == 1]
    sched_s = sum(len(c["samples_ns"]) * statistics.median(c["samples_ns"]) * 1e-9
                  for c in one)
    e2e = {
        "latency_us": us(M.percentile(s, 0.5)),
        "throughput_per_s": sum(len(c["samples_ns"]) for c in one) / sched_s,
        "rel_err": f["roundtrip_err"],
    }
    samples = {f"{c['tree']}@{c['threads']}t": len(c["samples_ns"]) for c in cfgs}
    # The checks run transforms of their own, outside the timed loop.
    checks = raw["checks"]
    return e2e, named, ops + checks["attempted"], checks["failed"], samples


def layers_fft_large(raw):
    f = raw["fft_large"]
    n = f["n"]
    nt = raw["host"]["nproc"]
    rates = fft_config_rates(f["configs"], n)
    out = {}
    for tree in ("rightmost", "ddl"):
        out[f"fft.{tree}_mflops_1t"] = rates[(tree, 1)]
        out[f"fft.{tree}_mflops_nt"] = rates.get((tree, nt), rates[(tree, 1)])
        out[f"parallel.scaling_eff_{tree}"] = (
            rates.get((tree, nt), rates[(tree, 1)]) / (nt * rates[(tree, 1)]))
        st = f["stage_self_s"][tree]
        per = max(1, st["transforms"])
        for stage, secs in st.items():
            if stage != "transforms":
                out[f"fft.stage.{tree}.{stage}_s"] = secs / per
    out["fft.roundtrip_err"] = f["roundtrip_err"]
    head = lambda cs: next(c for c in cs if (c["tree"], c["threads"]) == FFT_HEADLINE)
    base = statistics.median(head(f["configs"])["samples_ns"])
    traced = statistics.median(head(f["traced_configs"])["samples_ns"])
    return out, (traced - base) / base, sum(len(c["samples_ns"]) for c in f["traced_configs"])


# --- svc_mixed ---------------------------------------------------------------

def rung_summary(r):
    ok = [s == 0 for s in r["status"]]
    lat = M.latencies_with_failures(r["latency_ns"], ok)
    attempted = len(r["status"])
    failed = attempted - sum(ok)
    late = [max(0, x) for x in r["late_ns"]]
    p99 = M.percentile(lat, TAIL_Q)
    frac = M.fail_frac(attempted, failed)
    grows = M.backlog_grows(r["backlog"])
    late99 = M.percentile(late, TAIL_Q)
    light = [x for x, t in zip(lat, r["tenant"]) if t == 1]
    return {
        "rate": r["rate"],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": frac,
        "p50_ns": M.percentile(lat, 0.5),
        "p99_ns": p99,
        "light_p99_ns": M.percentile(light, TAIL_Q),
        "light_n": len(light),
        "late_p99_ns": late99,
        "backlog_grows": grows,
        "verdict": M.rung_verdict(us(p99), frac, grows, us(late99)),
        "achieved_rps": sum(ok) / r["seconds"],
    }


def derive_svc_mixed(raw, notes):
    s = raw["svc_mixed"]
    rungs = [rung_summary(r) for r in s["rungs"]]
    meas = next(r for r in rungs if r["rate"] == s["measured_rate"])
    mr = next(r for r in s["rungs"] if r["rate"] == s["measured_rate"])
    if meas["verdict"] == "invalid":
        notes.append("svc_mixed: the measured rung's generator ran late; its latency is invalid")
    tail(mr["status"], TAIL_Q, "svc_mixed p99", notes)
    tail([t for t in mr["tenant"] if t == 1], TAIL_Q, "svc_mixed light p99", notes)
    gp, gp_rate = M.goodput(rungs)
    for r in rungs:
        notes.append(f"svc_mixed rung {r['rate']:.0f}/s: {r['verdict']} (p50 {us(r['p50_ns']):.1f} us,"
                     f" p99 {us(r['p99_ns']):.1f} us, fail_frac {r['fail_frac']:.5f},"
                     f" gen late p99 {us(r['late_p99_ns']):.1f} us,"
                     f" backlog {'grows' if r['backlog_grows'] else 'steady'}, n={r['attempted']})")
    # The quiet quarter of the closed-loop windows, as for latency_us.
    capacity = M.windowed_rate(
        [([t for t, st in zip(c["done_ns"], c["status"]) if st == 0], c["seconds"])
         for c in s["closed"]], q=CAPACITY_Q)
    named = {
        "svc_p50_us": ("us", us(meas["p50_ns"])),
        "svc_p99_us": ("us", us(meas["p99_ns"])),
        "svc_light_p99_us": ("us", us(meas["light_p99_ns"])),
        "svc_goodput_rps": ("1/s", gp),
        "svc_capacity_rps": ("1/s", capacity),
    }
    notes.append(f"svc_mixed goodput rung: {gp_rate:.0f}/s offered" if gp_rate is not None
                 else "svc_mixed goodput: no rung passed")
    ok = [v == 0 for v in mr["status"]]
    e2e = {
        "latency_us": us(M.quiet_median(M.latencies_with_failures(mr["latency_ns"], ok))),
        "throughput_per_s": capacity,
        "rel_err": raw["checks"]["rms_rel_err"],
    }
    # Every request sent, in every phase, plus the WHT round trip (a check
    # of its own); a wrong output is already a failed request.
    phases = s["rungs"] + s["closed"] + s.get("untraced_rungs", [])
    sent = [rung_summary(r) for r in phases]
    wrong = sum(1 for r in phases for v in r["status"] if v == WRONG_OUTPUT)
    attempted = sum(x["attempted"] for x in sent) + 1
    failed = sum(x["failed"] for x in sent) + raw["checks"]["failed"] - wrong
    samples = {f"rung_{r['rate']:.0f}": r["attempted"] for r in rungs}
    samples[f"closed_{s['closed_window']}"] = sum(len(c["status"]) for c in s["closed"])
    samples["light_at_measured_rung"] = meas["light_n"]
    return e2e, named, attempted, failed, samples


def layers_svc_mixed(raw):
    s = raw["svc_mixed"]
    r = next(x for x in s["rungs"] if x["rate"] == s["measured_rate"])
    disp = [i for i, w in enumerate(r["wait_ns"]) if w >= 0]
    ex = lambda tid: [r["exec_ns"][i] for i in disp if r["tenant"][i] == tid]
    st = s["stats"]
    phases = s["rungs"] + s["closed"]
    attempted = sum(len(x["status"]) for x in phases)
    shed = sum(1 for x in phases for v in x["status"] if v not in (0, WRONG_OUTPUT))
    out = {
        "svc.wait_p50_us": us(M.percentile([r["wait_ns"][i] for i in disp], 0.5)),
        "svc.wait_p99_us": us(M.percentile([r["wait_ns"][i] for i in disp], TAIL_Q)),
        "svc.exec_light_p50_us": us(M.percentile(ex(1), 0.5)),
        "svc.exec_heavy_p50_us": us(M.percentile(ex(2), 0.5)),
        "svc.exec_wht_p50_us": us(M.percentile(ex(3), 0.5)),
        "svc.submit_p50_us": us(M.percentile(r["submit_ns"], 0.5)),
        "svc.batch_occupancy": st["batched_requests"] / max(1, st["batches"]),
        "svc.shed_frac": shed / max(1, attempted),
        "svc.fallback_plans": float(st["fallback_plans"]),
        "svc.model_fallbacks": float(st["model_fallbacks"]),
        "svc.gen_late_p99_us": us(M.percentile([max(0, x) for x in r["late_ns"]], TAIL_Q)),
    }
    base = next(x for x in s["untraced_rungs"] if x["rate"] == s["measured_rate"])
    ok = lambda x: [v for v, st_ in zip(x["latency_ns"], x["status"]) if st_ == 0]
    b = statistics.median(ok(base))
    t = statistics.median(ok(r))
    return out, (t - b) / b, attempted


# --- stream_chain ------------------------------------------------------------

def derive_stream_chain(raw, notes):
    c = raw["stream_chain"]
    s = c["block_ns"]
    p50 = us(M.percentile(s, 0.5))
    p99 = us(tail(s, TAIL_Q, "stream_chain p99", notes))
    blocks_per_s = len(s) / (sum(s) * 1e-9)
    named = {
        "block_p50_us": ("us", p50),
        "block_p99_us": ("us", p99),
        "stream_msps": ("Msamples/s", blocks_per_s * c["block"] / 1e6),
    }
    e2e = {
        "latency_us": us(M.percentile(s, STREAM_LATENCY_Q)),
        "throughput_per_s": blocks_per_s,
        "rel_err": raw["checks"]["rms_rel_err"],
    }
    # The checks compare a sample of these same blocks.
    return e2e, named, len(s), raw["checks"]["failed"], {"blocks": len(s)}


def layers_stream_chain(raw):
    c = raw["stream_chain"]
    sp = raw["spans"]
    names = sp["names"]
    stft = [b - a for nm, a, b in zip(sp["name"], sp["t0_ns"], sp["t1_ns"])
            if names[nm] == "stream.stft"]
    conv = [b - a for nm, a, b in zip(sp["name"], sp["t0_ns"], sp["t1_ns"])
            if names[nm] == "stream.conv"]
    blocks = max(1, c["traced_blocks"])
    stage = c["stage_self_s"]
    out = {
        "stream.stft_p50_us": us(M.percentile(stft, 0.5)),
        "stream.conv_p50_us": us(M.percentile(conv, 0.5)),
        "stream.allocs_per_block": c["allocs"] / max(1, c["alloc_blocks"]),
        "stream.stage.pack_us_per_block": stage.get("stream_pack", 0.0) / blocks * 1e6,
        "stream.stage.fdl_us_per_block": stage.get("stream_fdl", 0.0) / blocks * 1e6,
        "stream.stage.ola_us_per_block": stage.get("stream_ola", 0.0) / blocks * 1e6,
    }
    b = statistics.median(c["block_ns"])
    t = statistics.median(c["traced_block_ns"])
    return out, (t - b) / b, blocks


DERIVE = {"fft_large": derive_fft_large, "svc_mixed": derive_svc_mixed,
          "stream_chain": derive_stream_chain}
LAYERS = {"fft_large": layers_fft_large, "svc_mixed": layers_svc_mixed,
          "stream_chain": layers_stream_chain}

# Probe fields reported as per-layer metrics, by metric name.
PROBES = {
    "plan.model_dp_s": "model_dp_s",
    "plan.cost_keys": "cost_keys",
    "plan.probe_dp_s": "probe_dp_s",
    "plan.pick_vs_rightmost_1t": "pick_vs_rightmost_1t",
    "fft.exec_build_s": "exec_build_s",
    "layout.stride_permute_gbps": "stride_permute_gbps",
    "layout.transpose_gather_gbps": "transpose_gather_gbps",
    "layout.twiddle_scatter_gbps": "twiddle_scatter_gbps",
    "layout.copy_gbps": "copy_gbps",
    "codelets.dft32_batch_ns_per_pt": "dft32_batch_ns_per_pt",
    "codelets.dft16_batch_ns_per_pt": "dft16_batch_ns_per_pt",
    "parallel.fork_join_us": "fork_join_us",
    "wht.exec_4096_us": "wht_4096_us",
    "stream.rfft_2048_us": "rfft_2048_us",
}
SPAN_LAYERS = ("bench", "fft", "svc", "stream")


def per_layer_metrics(raw, spec):
    """Every per-layer metric of BENCHMARK.json; 0 for a layer off this
    workload's path (its sample count in the report is 0 too)."""
    values = {m["name"]: 0.0 for m in spec["per_layer"]}
    for name, key in PROBES.items():
        if key in raw["probes"]:
            values[name] = float(raw["probes"][key])
    own, overhead, ops = LAYERS[raw["workload"]](raw)
    values.update({k: (0.0 if v is None else float(v)) for k, v in own.items()})
    sp = raw["spans"]
    roots = sum(1 for p in sp["parent"] if p < 0)
    selfs = M.layer_self_time(sp["names"], sp["name"], sp["t0_ns"], sp["t1_ns"], sp["parent"])
    for layer in SPAN_LAYERS:
        values[f"self.{layer}_us_per_op"] = selfs.get(layer, 0) / max(1, roots) / 1e3
    values["trace.overhead_frac"] = overhead
    values["trace.spans"] = float(len(sp["parent"]))
    return values, ops


def run_workload(binary, spec, workload, args):
    """Run one workload, print its report and result line; returns an exit code."""
    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    raw_path = runs / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(raw_path)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("DDL_")}
    t0 = time.monotonic()
    try:
        rc = subprocess.run(cmd, env=env, timeout=BINARY_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {BINARY_TIMEOUT_S} s")
        return 3
    if rc != 0:
        log(f"perfbench: {workload} exited with {rc}")
        return 3
    wall = time.monotonic() - t0
    raw = json.loads(raw_path.read_text())

    notes = []
    e2e, named, attempted, failed, samples = DERIVE[workload](raw, notes)
    checks = raw["checks"]
    correct = checks["failed"] == 0 and failed == 0
    setup = statistics.median(raw["setup_s"])

    host = raw["host"]
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={wall:.1f}s")
    print(f"  host: {cpu_model()}; nproc={host['nproc']}; isa={host['isa']}; "
          f"L1d={host['l1d_bytes']} L2={host['l2_bytes']} L3={host['l3_bytes']} "
          f"line={host['line_bytes']}")
    print(f"  source: git {git_sha()}; tree sha256 {source_digest()}; threads 1 and {host['nproc']}")
    print(f"  samples: {json.dumps(samples)}; setups: {len(raw['setup_s'])}")
    print(f"  checks: {checks['attempted']} attempted, {checks['failed']} failed, max rel err "
          f"{checks['max_rel_err']:.3e}, rms {checks['rms_rel_err']:.3e} "
          f"(tolerance {checks['tolerance']:.3e})")
    for note in checks["notes"]:
        print(f"  check failed: {note}")
    print(f"  fail_frac: {M.fail_frac(attempted, failed):.6f} ({failed}/{attempted})")
    for name, (unit, value) in named.items():
        print(f"  {name}: {value:.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")

    if args.trace == 0:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = dict(e2e, setup_s=setup)
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, traced_ops = per_layer_metrics(raw, spec)
        print(f"  traced ops: {traced_ops}; spans written to {raw_path.relative_to(ROOT)}")
        if "probe_pick" in raw["probes"]:
            print(f"  planner pick at 2^20: {raw['probes']['probe_pick']}")
    out = {}
    for name, unit in units.items():
        v = values.get(name)
        if v is None:
            log(f"perfbench: metric {name} was not measured")
            return 4
        out[name] = {"value": float(v), "unit": unit}
        print(f"  {name}: {v:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}), flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn (one report and result each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        log("perfbench: --seed must be >= 0 and --seconds > 0")
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    if binary is None:
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rc = run_workload(binary, spec, workload, args)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
