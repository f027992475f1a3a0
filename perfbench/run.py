#!/usr/bin/env python3
"""The repository benchmark: runs the shipped sdpcm-sim and sdpcm-serve
binaries from outside, checks their outputs and reports end-to-end and
per-layer metrics. See perfbench/README.md.

    python3 perfbench/run.py --workload sim-mcf-all3 --seed 42 --seconds 20 --trace 0

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ledger.
"""
import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from datetime import datetime

sys.dont_write_bytecode = True  # the benchmark writes only under .bench_build
import pprof  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
DIGESTS = os.path.join(HERE, "digests.json")
PINNED_SEED = 42
# Wall-clock time at perf_counter() == 0: trace timestamps are epoch-based so
# client spans line up with the server's own job times.
EPOCH = time.time() - time.perf_counter()

# One sdpcm-sim invocation per timed repetition. The reference counts put a
# repetition at 2-3 s on a 2-core x86 host: long enough that process start
# is noise, short enough for several repetitions per run.
SIM_WORKLOADS = {
    "sim-mcf-all3": (["-bench", "mcf", "-cores", "8", "-scheme", "all",
                      "-shards", "1", "-no-baseline"], 8, 40000),
    "sim-lbm-vnc": (["-bench", "lbm", "-cores", "8", "-scheme", "baseline",
                     "-no-baseline"], 8, 50000),
}

# Set-up is the same invocation at one reference per core (~8 ms), so it is
# mostly process start. A few set-up processes run before every timed
# repetition: spread over the whole run, their median follows the host's
# state over the run rather than over one instant.
SETUP_PER_REP = 5

# Every simulation-backed registry experiment, at the golden-table scale.
SWEEP_EXPERIMENTS = ["fig4", "fig5", "fig11", "fig12", "fig13", "fig14", "fig15",
                     "fig16", "fig17", "fig18", "fig19", "fig-topo2"]
SWEEP_KNOBS = {"refs_per_core": 2000, "cores": 4, "mem_mb": 128,
               "region_pages": 256, "benchmarks": ["gemsFDTD", "lbm", "mcf"]}
SWEEP_IN_FLIGHT = 2
# The warm pass takes ~40 ms; several fresh warm servers per repetition
# give its median enough samples.
WARM_PASSES = 8

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]
SELF_LAYERS = [n[:-len(".self_s")] for n, _ in PER_LAYER if n.endswith(".self_s")]

WORKLOADS = list(SIM_WORKLOADS) + ["sweep-serve"]


class CheckFailed(Exception):
    """An output check failed; the operation counts as failed."""


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def fail(self, msg):
        self.failed += 1
        self.errors.append(msg)


# ---------------------------------------------------------------- processes

_live = set()


def _kill_live():
    for p in list(_live):
        if p.poll() is None:
            p.kill()
        p.wait()
        _live.discard(p)


def _on_term(signum, _frame):
    raise SystemExit(128 + signum)


def reap(p, timeout):
    """Waits for p and returns (exit code, user+sys CPU s, max RSS MB). A
    blocking wait keeps short timings exact; a timer kills a hung child."""
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    _live.discard(p)
    return p.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def spawn(argv, stdout, stderr):
    p = subprocess.Popen(argv, stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL)
    _live.add(p)
    return p


def build():
    """Builds the three binaries from the checkout's source. The Go caches
    live under .bench_build so nothing is written outside the checkout."""
    env = dict(os.environ, GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"), GOTOOLCHAIN="local", GOENV="off",
               GOFLAGS="-mod=readonly", XDG_CONFIG_HOME=os.path.join(BUILD, "config"))
    os.makedirs(BIN, exist_ok=True)
    r = subprocess.run(["go", "build", "-o", BIN + os.sep, "./cmd/sdpcm-sim",
                        "./cmd/sdpcm-serve", "./cmd/sdpcm-bench"],
                       cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       timeout=840)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise SystemExit("perfbench: build failed")


def probe_ms():
    """A fixed, repository-independent CPU probe: host speed beside each
    repetition, so drift between runs can be told from a regression."""
    t = time.perf_counter()
    h = b"sdpcm"
    for _ in range(20000):
        h = hashlib.sha256(h).digest()
    return (time.perf_counter() - t) * 1e3


def median(xs):
    return statistics.median(xs) if xs else 0.0


def pct(xs, q):
    """The q-quantile (0 < q < 1) by the inclusive method."""
    if not xs:
        return 0.0
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


# ------------------------------------------------------------------ digests

def sha(data):
    return hashlib.sha256(data).hexdigest()


class Digests:
    """Checks outputs: against the record in perfbench/digests.json at the
    pinned seed, and at any seed against the first run of the same binaries
    in this checkout (kept under .bench_build)."""

    def __init__(self, workload, seed, record):
        self.workload, self.seed, self.record = workload, seed, record
        with open(DIGESTS) as f:
            self.pinned_all = json.load(f)
        h = hashlib.sha256()
        for name in sorted(os.listdir(BIN)):
            with open(os.path.join(BIN, name), "rb") as f:
                h.update(f.read())
        self.state = os.path.join(BUILD, "digests", f"{h.hexdigest()[:16]}-{workload}-{seed}.json")
        self.seen = {}
        if os.path.exists(self.state):
            with open(self.state) as f:
                self.seen = json.load(f)
        self.dirty = False

    def check(self, key, digest):
        if self.record and self.seed == PINNED_SEED:
            self.pinned_all.setdefault(self.workload, {})[key] = digest
        elif self.seed == PINNED_SEED:
            want = self.pinned_all.get(self.workload, {}).get(key)
            if want != digest:
                raise CheckFailed(f"{key}: digest {digest[:12]} != recorded {str(want)[:12]}")
        first = self.seen.get(key)
        if first is None:
            self.seen[key] = digest
            self.dirty = True
        elif first != digest:
            raise CheckFailed(f"{key}: digest {digest[:12]} differs from earlier run {first[:12]}")

    def save(self):
        if self.dirty:
            os.makedirs(os.path.dirname(self.state), exist_ok=True)
            with open(self.state, "w") as f:
                json.dump(self.seen, f, indent=1, sort_keys=True)
        if self.record and self.seed == PINNED_SEED:
            with open(DIGESTS, "w") as f:
                json.dump(self.pinned_all, f, indent=1, sort_keys=True)
                f.write("\n")


# ------------------------------------------------------------------ sim-*

def sim_digest(out):
    """Digest of the simulated-statistics lines. The shards line is left out
    (a default-shard change is not a result change), and so is any metrics
    block, which carries host-side executor counters."""
    lines = []
    for line in out.decode().splitlines():
        if line.startswith("{"):
            break
        if line.startswith("shards"):
            continue
        lines.append(line)
    return sha("\n".join(lines).rstrip("\n").encode())


def parse_result(out):
    text = out.decode()
    stats = {}
    for line in text.splitlines():
        if line.startswith("{"):
            break
        key, _, rest = line.partition(" ")
        stats[key] = rest.strip()
    start = text.find("\n{")
    metrics = json.loads(text[start + 1:]) if start >= 0 else None
    return stats, metrics


class SimRunner(Tally):
    def __init__(self, name, seed, digests, workdir):
        super().__init__()
        flags, self.cores, self.refs = SIM_WORKLOADS[name]
        self.argv = [os.path.join(BIN, "sdpcm-sim")] + flags + ["-seed", str(seed)]
        self.digests, self.workdir = digests, workdir

    def once(self, refs, extra=()):
        """One sdpcm-sim process: (wall s, cpu s, rss MB, stdout, start)."""
        out_path = os.path.join(self.workdir, "sim.out")
        self.attempted += 1
        with open(out_path, "wb") as out, open(os.path.join(self.workdir, "sim.err"), "wb") as err:
            t0 = time.perf_counter()
            p = spawn(self.argv + ["-refs", str(refs)] + list(extra), out, err)
            rc, cpu, rss = reap(p, 150)
        wall = time.perf_counter() - t0
        with open(out_path, "rb") as f:
            stdout = f.read()
        try:
            if rc != 0:
                raise CheckFailed(f"sdpcm-sim exited {rc}")
            self.digests.check(f"refs={refs}", sim_digest(stdout))
        except CheckFailed as e:
            self.fail(str(e))
        return wall, cpu, rss, stdout, t0


def run_sim(name, seed, seconds, digests, workdir, log):
    r = SimRunner(name, seed, digests, workdir)
    setup, walls, cpus, rsss, probes = [], [], [], [], []
    start = time.perf_counter()
    while True:
        probes.append(probe_ms())
        setup.extend(r.once(1)[0] for _ in range(SETUP_PER_REP))
        wall, cpu, rss, _, _ = r.once(r.refs)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        elapsed = time.perf_counter() - start
        if len(walls) >= 4 and elapsed + median(walls) > seconds:
            break
    refs = r.cores * r.refs
    log(f"{name}: {len(walls)} reps, wall s {[round(w, 3) for w in walls]}, "
        f"probe ms median {median(probes):.2f}")
    # sdpcm-sim keeps no result store, so asking for the same point again
    # re-simulates: repetitions alternate as the cold and the warm request.
    m = {"refs_per_s": median([refs / w for w in walls]), "cpu_s": median(cpus),
         "peak_rss_mb": median(rsss), "setup_s": median(setup),
         "sweep_cold_s": median(walls[0::2]), "sweep_warm_s": median(walls[1::2])}
    return r, m


def ratio(a, b):
    return a / b if b else 0.0


def sim_counts(stats, metrics, cores, refs):
    c = {x["name"]: x["value"] for x in metrics["counters"]}
    h = {x["name"]: x for x in metrics["histograms"]}
    writes = c["mc.write_ops"]
    reads = c.get("exec.reads_inline", 0) + c.get("exec.reads_rendezvous", 0)
    occ = h.get("exec.batch_occupancy", {"sum": 0, "count": 0})
    return {
        "vm.tlb_miss_per_ref": c["sim.tlb_misses"] / (cores * refs),
        "vm.page_faults": c["sim.page_faults"],
        "mc.verify_reads_per_write": ratio(c["mc.verify_reads"], writes),
        "mc.cascade_reads_per_write": ratio(c["mc.cascade_reads"], writes),
        "mc.corrections_per_write": ratio(c["mc.correction_writes"], writes),
        "mc.bursty_drains": c["mc.drains"],
        "mc.preread_issued_per_write": ratio(c["mc.preread_issued"], writes),
        "mc.preread_useful_ratio": ratio(c["mc.preread_hits"], c["mc.preread_issued"]),
        "ecp.lazy_records_per_write": ratio(c["mc.lazy_records"], writes),
        "wd.bitline_flips_per_write": ratio(c["wd.bitline_flips"], writes),
        "pcm.cell_writes_per_write": ratio(c["pcm.set_pulses"] + c["pcm.reset_pulses"], writes),
        # The resolved count, e.g. "shards        2".
        "exec.shards": int(stats.get("shards", "1").split()[0]),
        "exec.read_steal_ratio": ratio(c.get("exec.read_steals", 0), reads),
        "exec.rendezvous_per_read": ratio(c.get("exec.reads_rendezvous", 0), reads),
        "exec.worker_parks": c.get("exec.worker_parks", 0),
        "exec.ring_stalls": c.get("exec.ring_stalls", 0),
        "exec.batch_occupancy_mean": ratio(occ["sum"], occ["count"]),
    }


def trace_sim(name, seed, seconds, digests, workdir, log):
    """Alternates untraced and traced (-cpuprofile, -metrics json)
    repetitions; the difference between them is the tracing overhead."""
    r = SimRunner(name, seed, digests, workdir)
    walls = {False: [], True: []}
    profiles, spans, counts = [], [], None
    start = time.perf_counter()
    while not profiles or (time.perf_counter() - start + median(walls[False])
                           + median(walls[True]) < seconds):
        # Pairs alternate which side runs first.
        first = len(profiles) % 2 == 1
        for with_trace in (first, not first):
            extra = []
            if with_trace:
                profiles.append(os.path.join(workdir, f"{name}-{len(profiles)}.pprof"))
                extra = ["-cpuprofile", profiles[-1], "-metrics", "json"]
            wall, _, _, out, t0 = r.once(r.refs, extra)
            walls[with_trace].append(wall)
            label = "sdpcm-sim -cpuprofile" if with_trace else "sdpcm-sim"
            spans.append((label, t0, wall, {"job": label}))
            if with_trace and counts is None:
                stats, metrics = parse_result(out)
                counts = sim_counts(stats, metrics, r.cores, r.refs)
                has_exec = any(x["name"].startswith("exec.") for x in metrics["counters"])
                check_sim_coverage(name, counts, has_exec, r)
    m = zero_ledger()
    m.update(layer_self(profiles, len(profiles)))
    m.update(counts)
    plain, traced = median(walls[False]), median(walls[True])
    m["trace.overhead_pct"] = 100 * (traced / plain - 1)
    log(f"{name} traced: {len(profiles)} pairs, untraced {plain:.3f}s, traced {traced:.3f}s")
    write_chrome_trace(os.path.join(workdir, f"{name}.trace.json"), spans)
    return r, m


def check_sim_coverage(name, counts, has_exec, r):
    """Fails the traced run when a workload stops exercising what it claims:
    a silent change to a workload must not read as "no change"."""
    lazy_preread = (counts["ecp.lazy_records_per_write"], counts["mc.preread_issued_per_write"])
    problems = []
    if name == "sim-mcf-all3" and not all(lazy_preread):
        problems.append(f"lazy ECP records / PreReads per write {lazy_preread}, want both > 0")
    if name == "sim-lbm-vnc":
        if any(lazy_preread):
            problems.append(f"lazy ECP records / PreReads per write {lazy_preread}, want 0")
        if counts["mc.corrections_per_write"] <= 1:
            problems.append("eager VnC corrections per write fell to <= 1")
    if has_exec != (counts["exec.shards"] > 1):
        problems.append(f"exec metrics present={has_exec} with {counts['exec.shards']} shard(s)")
    for p in problems:
        r.fail(f"coverage: {p}")


# ------------------------------------------------------------- sweep-serve

class Server:
    """One sdpcm-serve process on a free loopback port."""

    def __init__(self, store, workdir, tag):
        self.log_path = os.path.join(workdir, f"serve-{tag}.log")
        self.log = open(self.log_path, "wb")
        t0 = time.perf_counter()
        self.proc = spawn([os.path.join(BIN, "sdpcm-serve"), "-listen", "127.0.0.1:0",
                           "-store", store, "-log", "json"], subprocess.DEVNULL, self.log)
        self.addr = None
        deadline = t0 + 30
        while self.addr is None:
            with open(self.log_path, "rb") as f:
                for line in f:
                    if line.startswith(b"serve: listening on http://"):
                        self.addr = line.split(b"http://", 1)[1].strip().decode()
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"sdpcm-serve did not start; see {self.log_path}")
            if self.addr is None:
                time.sleep(0.0005)
        while True:
            try:
                if self.get("/readyz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("sdpcm-serve never became ready")
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - t0

    def request(self, method, path, body=None, timeout=60):
        host, port = self.addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"} if body else {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def get(self, path):
        return self.request("GET", path, timeout=5)

    def stop(self):
        """SIGTERM drains; returns (exit code, cpu s, rss MB)."""
        self.proc.send_signal(signal.SIGTERM)
        res = reap(self.proc, 60)
        self.log.close()
        return res


class SweepClient:
    """A closed-loop client: submits the experiment list with at most
    SWEEP_IN_FLIGHT jobs outstanding, follows each job's SSE stream to its
    terminal status, then fetches the result table."""

    def __init__(self, server, seed, spans, label):
        self.server, self.seed, self.spans, self.label = server, seed, spans, label
        self.lock = threading.Lock()

    def span(self, name, t0, dur, args):
        if self.spans is not None:
            with self.lock:
                self.spans.append((name, t0, dur, dict(args, server=self.label)))

    def job(self, exp):
        spec = dict(SWEEP_KNOBS, experiment=exp, seed=self.seed)
        t0 = time.perf_counter()
        code, body = self.server.request("POST", "/api/v1/jobs", json.dumps(spec).encode())
        submit = time.perf_counter() - t0
        if code != 202:
            raise CheckFailed(f"{exp}: POST returned {code}")
        jid = json.loads(body)["id"]
        self.span("POST /api/v1/jobs", t0, submit, {"job": jid, "experiment": exp})
        points, status = self.stream(jid)
        t1 = time.perf_counter()
        code, table = self.server.request("GET", f"/api/v1/jobs/{jid}/result")
        result = time.perf_counter() - t1
        self.span("GET result", t1, result, {"job": jid})
        self.lifecycle(jid, status)
        if status.get("state") != "done":
            raise CheckFailed(f"{exp}: job {jid} ended {status.get('state')}: {status.get('error')}")
        if code != 200:
            raise CheckFailed(f"{exp}: GET result returned {code}")
        return {"id": jid, "status": status, "points": points, "table": table,
                "submit_ms": submit * 1e3, "result_ms": result * 1e3, "done_at": t1}

    def lifecycle(self, jid, status):
        """The job's queued and running spans, from its server-side times."""
        times = [status.get(k) for k in ("created", "started", "finished")]
        if self.spans is None or None in times:
            return
        c, s, f = (datetime.fromisoformat(t).timestamp() - EPOCH for t in times)
        self.span("job queued", c, s - c, {"job": jid})
        self.span("job running", s, f - s, {"job": jid})

    def stream(self, jid):
        host, port = self.server.addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=120)
        t0 = time.perf_counter()
        try:
            conn.request("GET", f"/api/v1/jobs/{jid}/stream")
            resp = conn.getresponse()
            if resp.status != 200:
                raise CheckFailed(f"job {jid}: stream returned {resp.status}")
            points, status, event = [], {}, None
            for raw in resp:
                line = raw.decode().rstrip("\n")
                if line.startswith("event: "):
                    event = line[7:]
                elif line.startswith("data: "):
                    data = json.loads(line[6:])
                    if event == "point":
                        now = time.perf_counter()
                        points.append(data)
                        self.span(f"point {data['scheme']}/{data['bench']}", now - data["wall_ms"] / 1e3,
                                  data["wall_ms"] / 1e3, {"job": jid, "cached": data["cached"],
                                                          "stored": data["stored"]})
                    elif event == "status":
                        status = data
        finally:
            conn.close()
        self.span("GET stream", t0, time.perf_counter() - t0, {"job": jid})
        return points, status

    def run(self):
        """Runs the list; returns (makespan s, {experiment: job record})."""
        todo = list(SWEEP_EXPERIMENTS)
        out = {}

        def worker():
            while True:
                with self.lock:
                    if not todo:
                        return
                    exp = todo.pop(0)
                try:
                    rec = self.job(exp)
                except (CheckFailed, OSError, ValueError) as e:
                    rec = {"error": str(e)}
                with self.lock:
                    out[exp] = rec

        t0 = time.perf_counter()
        threads = [threading.Thread(target=worker) for _ in range(SWEEP_IN_FLIGHT)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        done = [r["done_at"] for r in out.values() if "done_at" in r]
        return (max(done) if done else time.perf_counter()) - t0, out


class SweepRunner(Tally):
    def __init__(self, seed, digests, workdir):
        super().__init__()
        self.seed, self.digests, self.workdir = seed, digests, workdir
        self.reps = 0

    def check_pass(self, jobs, warm, cold_tables):
        for exp in SWEEP_EXPERIMENTS:
            self.attempted += 1
            rec = jobs.get(exp, {"error": "not run"})
            try:
                if "error" in rec:
                    raise CheckFailed(rec["error"])
                st = rec["status"]
                if warm:
                    if rec["table"] != cold_tables.get(exp):
                        raise CheckFailed(f"{exp}: warm result differs from cold")
                    # A point shared with an earlier experiment of the pass is
                    # answered by the in-memory memo before the store sees it.
                    if st["sim_runs"] != 0 or st["store_hits"] + st["cache_hits"] != st["points"]:
                        raise CheckFailed(f"{exp}: warm pass sim_runs={st['sim_runs']} "
                                          f"store_hits={st['store_hits']} "
                                          f"cache_hits={st['cache_hits']} points={st['points']}")
                else:
                    self.digests.check(exp, sha(rec["table"]))
            except CheckFailed as e:
                self.fail(str(e))

    def rep(self, spans=None):
        """Cold pass on an empty store, then WARM_PASSES fresh servers over
        the populated store."""
        store = os.path.join(self.workdir, f"store-{self.reps}")
        self.reps += 1
        cold = Server(store, self.workdir, f"{self.reps}-cold")
        try:
            cold_s, cold_jobs = SweepClient(cold, self.seed, spans, f"{self.reps}-cold").run()
        finally:
            rc, cpu_cold, rss_cold = cold.stop()
        if rc != 0:
            self.fail(f"cold sdpcm-serve exited {rc} on SIGTERM")
        self.check_pass(cold_jobs, False, None)
        tables = {e: r.get("table") for e, r in cold_jobs.items()}
        warm = []
        for i in range(WARM_PASSES):
            srv = Server(store, self.workdir, f"{self.reps}-warm{i}")
            try:
                warm_s, warm_jobs = SweepClient(srv, self.seed, spans if i == 0 else None,
                                                f"{self.reps}-warm").run()
            finally:
                rc, cpu, rss = srv.stop()
            if rc != 0:
                self.fail(f"warm sdpcm-serve exited {rc} on SIGTERM")
            self.check_pass(warm_jobs, True, tables)
            warm.append((warm_s, srv.setup_s, cpu, rss, warm_jobs))
        store_bytes = sum(os.path.getsize(os.path.join(dp, f))
                          for dp, _, fs in os.walk(store) for f in fs)
        shutil.rmtree(store, ignore_errors=True)
        return {"cold_s": cold_s, "cpu_cold": cpu_cold, "warm_s": [w[0] for w in warm],
                "setup_s": cold.setup_s + median([w[1] for w in warm]),
                "cpu_s": cpu_cold + median([w[2] for w in warm]),
                "rss": max(rss_cold, max(w[3] for w in warm)),
                "cold_jobs": cold_jobs, "warm_jobs": warm[0][4], "store_bytes": store_bytes}


def sweep_refs(jobs):
    sims = sum(r["status"]["sim_runs"] for r in jobs.values() if "status" in r)
    return sims * SWEEP_KNOBS["cores"] * SWEEP_KNOBS["refs_per_core"]


def run_sweep(seed, seconds, digests, workdir, log):
    r = SweepRunner(seed, digests, workdir)
    reps, probes = [], []
    start = time.perf_counter()
    while True:
        probes.append(probe_ms())
        reps.append(r.rep())
        per = (time.perf_counter() - start) / len(reps)
        if len(reps) >= 3 and time.perf_counter() - start + per > seconds:
            break
    log(f"sweep-serve: {len(reps)} reps, cold s {[round(x['cold_s'], 3) for x in reps]}, "
        f"warm s {[round(median(x['warm_s']), 4) for x in reps]}, probe ms median {median(probes):.2f}")
    m = {"refs_per_s": median([sweep_refs(x["cold_jobs"]) / x["cold_s"] for x in reps]),
         "cpu_s": median([x["cpu_s"] for x in reps]),
         "peak_rss_mb": median([x["rss"] for x in reps]),
         "setup_s": median([x["setup_s"] for x in reps]),
         "sweep_cold_s": median([x["cold_s"] for x in reps]),
         "sweep_warm_s": median([w for x in reps for w in x["warm_s"]])}
    return r, m


def bench_profile(seed, workdir, r):
    """sdpcm-bench over the same experiment list and store layout, cold then
    warm, under -cpuprofile: the sweep path's layer self-times."""
    store = os.path.join(workdir, "bench-store")
    shutil.rmtree(store, ignore_errors=True)
    argv = [os.path.join(BIN, "sdpcm-bench"), "-exp", ",".join(SWEEP_EXPERIMENTS),
            "-refs", str(SWEEP_KNOBS["refs_per_core"]), "-cores", str(SWEEP_KNOBS["cores"]),
            "-mem-mb", str(SWEEP_KNOBS["mem_mb"]), "-region-pages", str(SWEEP_KNOBS["region_pages"]),
            "-benchmarks", ",".join(SWEEP_KNOBS["benchmarks"]), "-seed", str(seed),
            "-result-store", store, "-shards", "0"]
    profiles, record = [], None
    for phase in ("cold", "warm"):
        prof = os.path.join(workdir, f"sweep-bench-{phase}.pprof")
        rec = os.path.join(workdir, f"sweep-bench-{phase}.json")
        r.attempted += 1
        with open(os.path.join(workdir, "bench.out"), "wb") as out:
            p = spawn(argv + ["-cpuprofile", prof, "-bench-json", rec], out, subprocess.DEVNULL)
            rc, _, _ = reap(p, 150)
        if rc != 0:
            r.fail(f"sdpcm-bench ({phase}) exited {rc}")
            continue
        profiles.append(prof)
        if phase == "cold":
            with open(rec) as f:
                record = json.load(f)
    shutil.rmtree(store, ignore_errors=True)
    return profiles, record


def trace_sweep(seed, seconds, digests, workdir, log):
    """Alternates untraced and traced (client spans) repetitions, then
    profiles sdpcm-bench over the same list for the layer self-times."""
    r = SweepRunner(seed, digests, workdir)
    spans, plain, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds / 2:
        # Pairs alternate which side runs first.
        if len(plain) % 2 == 0:
            plain.append(r.rep())
            traced.append(r.rep(spans))
        else:
            traced.append(r.rep(spans))
            plain.append(r.rep())
    profiles, record = bench_profile(seed, workdir, r)
    m = zero_ledger()
    m.update(layer_self(profiles, 1))
    if record:
        # The aggregate folds every point the sweep touched, cached ones too.
        m.update({k: v for k, v in sim_counts({}, record["metrics"], SWEEP_KNOBS["cores"],
                                                record["points"] * SWEEP_KNOBS["refs_per_core"]).items()
                  if not k.startswith("exec.")})
    cold = [j for t in traced for j in t["cold_jobs"].values()]
    warm = [j for t in traced for j in t["warm_jobs"].values()]
    sim_pts = [p["wall_ms"] / 1e3 for j in cold for p in j.get("points", [])
               if not p["cached"] and not p["stored"]]
    load_pts = [p["wall_ms"] for j in warm for p in j.get("points", []) if p["stored"]]
    cold_st = [j["status"] for j in cold if "status" in j]
    warm_st = [j["status"] for j in warm if "status" in j]
    workers = len(os.sched_getaffinity(0))
    cold_s = median([t["cold_s"] for t in traced])
    m.update({
        "runner.point_s_p50": median(sim_pts), "runner.point_s_p80": pct(sim_pts, 0.8),
        "runner.point_samples": len(sim_pts),
        "runner.memo_hit_ratio": ratio(sum(s["cache_hits"] for s in cold_st),
                                       sum(s["points"] for s in cold_st)),
        # A point's wall time includes its wait for a worker slot, so busy
        # time is the cold server's CPU time instead.
        "runner.worker_busy_share": median([t["cpu_cold"] / (workers * t["cold_s"]) for t in traced]),
        "store.load_ms_p50": median(load_pts), "store.load_ms_p80": pct(load_pts, 0.8),
        "store.load_samples": len(load_pts),
        # Of the warm pass's lookups that reached the store, the share it answered.
        "store.hit_ratio": ratio(sum(s["store_hits"] for s in warm_st),
                                 sum(s["points"] - s["cache_hits"] for s in warm_st)),
        "store.bytes": traced[0]["store_bytes"],
        "serve.submit_ms_p50": median([j["submit_ms"] for j in cold + warm if "submit_ms" in j]),
        "serve.result_ms_p50": median([j["result_ms"] for j in cold + warm if "result_ms" in j]),
        "trace.overhead_pct": 100 * (cold_s / median([t["cold_s"] for t in plain]) - 1),
    })
    if not sim_pts or m["store.hit_ratio"] != 1:
        r.fail(f"coverage: cold pass simulated {len(sim_pts)} points, "
               f"warm store hit ratio {m['store.hit_ratio']}")
    log(f"sweep-serve traced: {len(traced)} pairs, cold untraced "
        f"{median([t['cold_s'] for t in plain]):.3f}s traced {cold_s:.3f}s")
    write_chrome_trace(os.path.join(workdir, "sweep-serve.trace.json"), spans)
    return r, m


# ------------------------------------------------------------------ ledger

def zero_ledger():
    return {name: 0.0 for name, _ in PER_LAYER}


def layer_self(profiles, runs):
    """CPU seconds per layer per run, from the innermost sdpcm/internal
    frame of each sample; internal modules outside the ledger go to other."""
    acc = pprof.self_seconds(profiles)
    out = {f"{layer}.self_s": 0.0 for layer in SELF_LAYERS}
    for layer, s in acc.items():
        key = f"{layer}.self_s" if layer in SELF_LAYERS else "other.self_s"
        out[key] += s / runs
    return out


def write_chrome_trace(path, spans):
    """Spans as Chrome trace-event JSON, one track per job: the job id is
    the identifier its HTTP requests, SSE point events and lifecycle share."""
    tids, events = {}, []
    for name, t0, dur, args in spans:
        tid = tids.setdefault((args.get("server"), args.get("job")), len(tids) + 1)
        events.append({"name": name, "ph": "X", "pid": 1, "tid": tid,
                       "ts": (EPOCH + t0) * 1e6, "dur": dur * 1e6, "args": args})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# -------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="at the pinned seed, write the observed output digests to digests.json")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _on_term)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    build()
    workdir = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    digests = Digests(args.workload, args.seed, args.record)
    try:
        if args.workload == "sweep-serve":
            fn = trace_sweep if args.trace else run_sweep
            r, m = fn(args.seed, args.seconds, digests, workdir, log)
        else:
            fn = trace_sim if args.trace else run_sim
            r, m = fn(args.workload, args.seed, args.seconds, digests, workdir, log)
    finally:
        _kill_live()
    digests.save()
    if args.trace:
        keep = os.path.join(BUILD, "trace")
        os.makedirs(keep, exist_ok=True)
        for f in os.listdir(workdir):
            if f.endswith((".pprof", ".trace.json")):
                os.replace(os.path.join(workdir, f), os.path.join(keep, f))
        log(f"profiles and Chrome traces in {os.path.relpath(keep, ROOT)}")
    shutil.rmtree(workdir, ignore_errors=True)
    for e, n in Counter(r.errors).items():
        log(f"FAILED ({n}x): {e}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, unit in (PER_LAYER if args.trace else END_TO_END):
        print(f"{name:32s} {m[name]:.6g} {unit}")
    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed,
                      "metrics": {k: {"value": m[k], "unit": units[k]} for k in units}}))
    return 0 if r.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        _kill_live()
