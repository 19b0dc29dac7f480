#!/usr/bin/env python3
"""Outside-in benchmark of the LIFEGUARD reproduction.

    python3 perfbench/run.py --workload inet70k|outage_repair|service_stream \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the program's libraries from src/ plus the lgbench
harness in cpp/) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload in its own process, checks its
outputs, prints a report and, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. See README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import lgstats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("inet70k", "outage_repair", "service_stream")
# World builds per run; setup_s is their median.
SETUPS = {"inet70k": 5, "outage_repair": 3, "service_stream": 5}
WORLD_THREADS = "1"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Knobs that change the measured program. LG_WORLD_THREADS and LG_THREADS
# are pinned instead (any other value is refused).
REFUSED_PREFIXES = ("LG_TOPOLOGY_", "LG_FAULTS", "LG_ADVERSARY", "LG_SERVICE_")
REFUSED = ("LG_CHECK", "LG_SPANS", "LG_TRACE_OUT", "LG_MEM_POOL",
           "LG_METRICS", "LG_TRACE")

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms",
             "throughput_per_s": "1/s"}

# Per-layer metrics: every one is reported for every workload, and a layer a
# workload does not exercise reads 0. Only counts and ratios can read 0;
# the two times here are measured on every workload.
LAYER_SPANS = ("bgp.converge.announce", "bgp.converge.poison",
               "bgp.converge.withdraw", "bgp.converge.unpoison",
               "core.atlas_refresh", "core.isolate", "core.decide",
               "measure.verify_ping", "fleet.run", "fleet.run_until",
               "fleet.write_checkpoint", "fleet.read_checkpoint",
               "fleet.resume")
LAYERS = ("bench", "bgp", "core", "measure", "dataplane", "fleet")
LAYER_UNITS = dict(
    [("topology.generate_s", "s"), ("obs.traced_wall_s", "s"),
     ("obs.trace_overhead", "ratio"), ("obs.layer_coverage", "ratio")]
    + [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    + [(f"{name}.share", "ratio") for name in LAYER_SPANS]
    + [("bgp.updates_delivered.announce", "count"),
       ("bgp.updates_delivered.poison", "count"),
       ("bgp.updates_delivered.withdraw", "count"),
       ("bgp.updates_delivered.unpoison", "count"),
       ("bgp.updates_per_best_change", "ratio"),
       ("bgp.mrai_deferrals", "count"),
       ("bgp.rib_bytes", "B"), ("bgp.bytes_per_route", "B"),
       ("bgp.rib_bytes_idle", "B"),
       ("util.scheduler_events", "count"), ("util.queue_hwm", "count"),
       ("measure.pings", "count"), ("measure.traceroute_probes", "count"),
       ("measure.spoofed_pings", "count"), ("measure.option_probes", "count"),
       ("core.isolation_probes", "count"), ("core.repair_ratio", "ratio"),
       ("fleet.episodes_closed", "count"), ("fleet.resolved_self", "count"),
       ("fleet.remediated", "count"), ("fleet.announce_denied", "count"),
       ("fleet.checkpoint_bytes", "B"), ("fleet.shard_imbalance", "ratio"),
       ("run.parallel_efficiency", "ratio")])


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def pinned_env(threads):
    env = dict(os.environ)
    for k in env:
        if k.startswith(REFUSED_PREFIXES) or k in REFUSED:
            fail(f"refusing to run with {k} set: it changes the measured "
                 "program")
    for k, want in (("LG_WORLD_THREADS", WORLD_THREADS),
                    ("LG_THREADS", str(threads))):
        if env.get(k, want) != want:
            fail(f"refusing to run with {k}={env[k]}: pinned to {want}")
        env[k] = want
    return env


def run_proc(cmd, timeout, **kw):
    """Run `cmd` as its own process group; on timeout kill the group and
    wait for it, so no compiler or worker outlives the benchmark."""
    with subprocess.Popen(cmd, start_new_session=True, **kw) as p:
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.communicate()
            raise
        return p.returncode, out, err


def build(build_dir, env):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no program sources under {ROOT / 'src'}")
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "lgbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            rc, _, _ = run_proc(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                stderr=sys.stderr, env=env)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if rc != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return build_dir / "lgbench"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_determinism(raw, store):
    """Setup digests agree within the run, traced replays match the
    untraced pass, and every digest matches earlier runs of this seed."""
    if len(set(raw["setup_digest"])) != 1:
        return f"set-ups of one seed disagree: {raw['setup_digest']}"
    untraced = [u["digest"] for u in raw["units"] if not u["traced"]]
    traced = [u["digest"] for u in raw["units"] if u["traced"]]
    if traced and traced != untraced:
        return "traced replay disagrees with the untraced pass"
    period = int(raw["info"].get("units_per_step", "0"))
    if period and any(d != untraced[i % period]
                      for i, d in enumerate(untraced)):
        return "repeated passes over the same episodes disagree"
    digests = {"setup": raw["setup_digest"][0], "units": untraced}
    if store.exists():
        old = json.loads(store.read_text())
        n = min(len(old["units"]), len(untraced))
        if (old["setup"] != digests["setup"]
                or old["units"][:n] != untraced[:n]):
            return f"outputs differ from an earlier run of this seed ({store})"
        if len(old["units"]) > len(untraced):
            digests["units"] = old["units"]
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(digests))
    return None


def figs(units, key):
    return [u["figures"][key] for u in units if key in u["figures"]]


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def end_to_end(raw, units, report):
    """The four end-to-end metrics plus the workload's named figures."""
    w = raw["workload"]
    m = {"setup_s": statistics.median(raw["setup_s"]),
         "peak_rss_mb": raw["peak_rss_mb"]}
    if w == "inet70k":
        cycles = [sum(u["wall_s"] for u in units[i:i + 3])
                  for i in range(0, len(units) - 2, 3)]
        m["op_ms_p50"] = 1000.0 * statistics.median(cycles)
        m["throughput_per_s"] = (sum(figs(units, "updates"))
                                 / sum(u["wall_s"] for u in units))
        for kind in ("announce", "poison", "withdraw"):
            walls = [u["wall_s"] for u in units if u["kind"] == kind]
            report.append((f"{kind}_s", statistics.median(walls), "s",
                           f"median of {len(walls)}"))
        report.append(("updates_per_s", m["throughput_per_s"], "1/s",
                       "BGP updates delivered per second of converge"))
    elif w == "outage_repair":
        walls = [1000.0 * u["wall_s"] for u in units]
        m["op_ms_p50"] = statistics.median(walls)
        m["throughput_per_s"] = 1000.0 * len(walls) / sum(walls)
        report.append(("workload.sim_world_s",
                       raw["figures"]["workload.sim_world_s"], "s",
                       "SimWorld construction in the last set-up"))
        report.append(("episode_ms_p50", m["op_ms_p50"], "ms",
                       f"{len(walls)} episodes"))
        report.append(("episode_ms_p90", lgstats.quantile(walls, 0.9), "ms",
                       f"{len(walls)} episodes"))
        declined = sum(1 for u in units if not u["figures"]["poisoned"])
        report.append(("episodes_declined", declined, "count",
                       "isolation blamed an AS the decider would not poison"))
        tail = lgstats.tail_percentile(len(walls))
        if tail is not None:
            report.append((f"episode_ms_p{tail:g}",
                           lgstats.quantile(walls, tail / 100.0), "ms",
                           "highest percentile with >= 10 samples beyond"))
    else:
        walls = [1000.0 * u["wall_s"] for u in units]
        m["op_ms_p50"] = statistics.median(walls)
        m["throughput_per_s"] = statistics.median(
            [u["figures"]["episodes_closed"] / u["figures"]["run_s"]
             for u in units])
        report.append(("episodes_per_s", m["throughput_per_s"], "1/s",
                       "closed episodes per second of ServiceScheduler::run, "
                       f"median of {len(units)} cycles"))
        for name, note in (("restart_s", "read_checkpoint + resume"),
                           ("checkpoint_io_s", "write + read_checkpoint"),
                           ("resume_s", "resume to the horizon")):
            report.append((name, statistics.median(figs(units, name)), "s",
                           f"{note}, median of {len(units)}"))
    return m


def per_layer(raw, units, spans):
    """Every per-layer metric, from the traced replay and the counters."""
    w = raw["workload"]
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    rf = raw["figures"]
    by, roots = lgstats.self_by_name(spans)
    m["topology.generate_s"] = rf["topology.generate_s"]
    m["obs.traced_wall_s"] = roots
    traced = [u for u in raw["units"] if u["traced"]]
    m["obs.trace_overhead"] = (sum(u["wall_s"] for u in traced)
                               / sum(u["wall_s"] for u in units) - 1.0)
    layer_self = {}
    for name, (_, total) in by.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + total
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self.get(layer, 0.0) / roots
    m["obs.layer_coverage"] = 1.0 - m["bench.self_share"]
    for name in LAYER_SPANS:
        m[f"{name}.share"] = by.get(name, (0, 0.0))[1] / roots

    updates = figs(units, "updates")
    best = figs(units, "best_changes")
    if sum(best):
        m["bgp.updates_per_best_change"] = sum(updates) / sum(best)
    m["util.scheduler_events"] = mean(figs(units, "scheduler_events"))
    m["util.queue_hwm"] = rf.get("util.queue_hwm", 0.0)
    if w == "inet70k":
        for kind in ("announce", "poison", "withdraw"):
            m[f"bgp.updates_delivered.{kind}"] = statistics.median(
                [u["figures"]["updates"] for u in units if u["kind"] == kind])
        m["bgp.mrai_deferrals"] = mean(figs(units, "mrai_deferrals"))
        ann = [u["figures"] for u in units if u["kind"] == "announce"]
        m["bgp.rib_bytes"] = statistics.median([f["rib_bytes"] for f in ann])
        m["bgp.bytes_per_route"] = statistics.median(
            [f["rib_bytes"] / f["rib_routes"] for f in ann])
        m["bgp.rib_bytes_idle"] = statistics.median(
            [u["figures"]["rib_bytes"] for u in units
             if u["kind"] == "withdraw"])
    elif w == "outage_repair":
        m["bgp.updates_delivered.poison"] = mean(figs(units, "updates_poison"))
        m["bgp.updates_delivered.unpoison"] = mean(
            figs(units, "updates_unpoison"))
        m["bgp.rib_bytes"] = rf["bgp.rib_bytes"]
        m["bgp.bytes_per_route"] = rf["bgp.rib_bytes"] / rf["bgp.rib_routes"]
        for k in ("pings", "traceroute_probes", "spoofed_pings",
                  "option_probes"):
            m[f"measure.{k}"] = mean(figs(units, k))
        m["core.isolation_probes"] = mean(figs(units, "isolation_probes"))
        poisoned = [u for u in units if u["figures"]["poisoned"]]
        if poisoned:
            m["core.repair_ratio"] = mean(figs(poisoned, "verified"))
    else:
        for k in ("episodes_closed", "resolved_self", "remediated",
                  "announce_denied"):
            m[f"fleet.{k}"] = mean(figs(units, k))
        m["fleet.checkpoint_bytes"] = mean(figs(units, "checkpoint_bytes"))
        m["fleet.shard_imbalance"] = rf["fleet.shard_imbalance"]
        m["run.parallel_efficiency"] = rf["fleet.shard_s_sum"] / (
            int(raw["info"]["threads"]) * rf["fleet.run_s_step0"])
    return m, by, roots


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    threads = min(4, os.cpu_count() or 1)
    env = pinned_env(threads)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    # Compiler and run temporaries stay inside the checkout too.
    env["TMPDIR"] = str(build_dir / "tmp")
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    binary = build(build_dir, env)
    work = build_dir / "runs"
    work.mkdir(parents=True, exist_ok=True)
    spans_path = work / f"spans-{args.workload}-{args.seed}.txt"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", str(spans_path), "--scratch", str(work),
           "--threads", str(threads), "--setups",
           str(SETUPS[args.workload])]
    try:
        rc, out, err = run_proc(cmd, RUN_TIMEOUT_S, env=env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(err)
    if rc != 0:
        fail(f"lgbench exited with {rc}")
    raw = json.loads(out)

    problem = check_determinism(
        raw, build_dir / "digests" / f"{args.workload}-{args.seed}.json")
    if problem:
        fail(f"determinism check failed: {problem}")
    units = [u for u in raw["units"] if not u["traced"]]
    attempted, failed, frac = lgstats.fail_frac(raw["units"])
    for u in raw["units"]:
        if not u["ok"]:
            print(f"# FAILED {u['kind']}: {u['why']}")

    info = raw["info"]
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} commit={commit()} "
          f"nproc={os.cpu_count()} threads={info['threads']} "
          f"world_threads={WORLD_THREADS} compiler={info['compiler']} "
          f"build={info['build_type']}")
    ops = hashlib.sha256(
        "".join(u["digest"] for u in units).encode()).hexdigest()[:16]
    print(f"# determinism digest: set-up {raw['setup_digest'][0]}, "
          f"{len(units)} ops {ops}")
    report = []
    e2e = end_to_end(raw, units, report)
    report.append(("fail_frac", frac, "ratio", f"{failed} of {attempted}"))
    for name, value in e2e.items():
        print(f"  {name:<28} {value:>16.6f} {E2E_UNITS[name]}")
    for name, value, unit, note in report:
        print(f"  {name:<28} {value:>16.6f} {unit:<6} {note}")

    if args.trace:
        spans = lgstats.read_spans(spans_path)
        metrics, by, roots = per_layer(raw, units, spans)
        print("# run-level figures:")
        for name, value in raw["figures"].items():
            print(f"  {name:<28} {value:>16.6f}")
        print(f"# traced replay: {len(spans)} spans, {roots:.3f} s timed "
              "wall; self time by span:")
        for name, (calls, total) in sorted(by.items(),
                                           key=lambda kv: -kv[1][1]):
            print(f"  {name:<28} {calls:>8} calls {total:>10.4f} s "
                  f"{100.0 * total / roots:6.2f}% "
                  f"{1000.0 * total / calls:10.4f} ms/call")
        result = {k: {"value": v, "unit": LAYER_UNITS[k]}
                  for k, v in metrics.items()}
    else:
        result = {k: {"value": v, "unit": E2E_UNITS[k]}
                  for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()
