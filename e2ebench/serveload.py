"""The serve workload: a real ``repro-psc serve`` process under HTTP load.

The load comes from this process over two persistent HTTP/1.1 keep-alive
connections (``http.client``, one thread each), in a closed loop: each
connection sends its next request as soon as the previous reply arrives,
as a caller that keeps using the service would.

Server-side layer timings come from the server's own ``/debug/requests``
flight records and ``/debug/trace/<request id>`` span trees.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

CONNECTIONS = 2
#: Closed-loop load sent and thrown away before the timed load starts.
WARMUP_SECONDS = 1.0
BOOT_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0


@dataclass
class Sample:
    #: Position in the order requests were taken; ``index // len(pool)``
    #: is the round the request belongs to.
    index: int
    query: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: dict = field(default_factory=dict)


class Server:
    """One ``repro-psc serve`` child process bound to an ephemeral port."""

    def __init__(self, bank: str, traced: bool, env: dict, log: str) -> None:
        cmd = [
            sys.executable, "-m", "repro.cli", "serve", bank,
            "--port", "0", "--workers", "2",
            "--flight-records", "16384", "--trace-records", "16384",
        ]
        if not traced:
            cmd.append("--no-request-tracing")
        self._log = open(log, "ab")  # noqa: SIM115 - closed in stop()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, env=env, text=True
        )
        try:
            self.port = self._read_port(t0 + BOOT_TIMEOUT)
            while self.get("/readyz")[0] != 200:
                if time.perf_counter() > t0 + BOOT_TIMEOUT:
                    raise RuntimeError("server never became ready")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        #: Launch until ``/readyz`` answers 200.
        self.setup_s = time.perf_counter() - t0

    def _read_port(self, deadline: float) -> int:
        out = self.proc.stdout
        while True:
            ready, _, _ = select.select([out], [], [], max(0.0, deadline - time.perf_counter()))
            if not ready:
                raise RuntimeError("server did not report its port in time")
            line = out.readline()
            if not line:
                raise RuntimeError(f"server exited with code {self.proc.wait()}")
            if " on http://" in line:
                return int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()

    def peak_rss_kb(self) -> int:
        """Peak RSS of the server plus the largest peak among its workers."""
        pid = str(self.proc.pid)
        children = [p for p in os.listdir("/proc") if p.isdigit() and _ppid(p) == pid]
        return _vm_hwm_kb(pid) + max((_vm_hwm_kb(c) for c in children), default=0)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


def _ppid(pid: str) -> str | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            return fh.read().rsplit(")", 1)[1].split()[1]
    except OSError:  # the process exited while the table was listed
        return None


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # a worker that exited between listing and reading
        pass
    return 0


def drive(port: int, pool: list[tuple[str, str]], seconds: float, seed: int) -> list[Sample]:
    """Send requests for *seconds*, in rounds that each send the whole pool
    once in a seeded order."""
    t0 = time.perf_counter() + 0.05
    lock = threading.Lock()
    rng = np.random.default_rng([seed, 5])
    order = enumerate(int(q) for _ in itertools.count() for q in rng.permutation(len(pool)))
    done: list[Sample] = []
    errors: list[BaseException] = []

    def next_sample(free_at: float) -> Sample | None:
        # A request is due the moment its connection became free.
        with lock:
            if free_at - t0 >= seconds:
                return None
            return Sample(*next(order), free_at)

    def connection() -> None:
        free_at = t0
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
        try:
            while (s := next_sample(free_at)) is not None:
                payload = json.dumps({"queries": [list(pool[s.query])]}).encode()
                s.sent = time.perf_counter()
                conn.request("POST", "/search", payload, {"Content-Type": "application/json"})
                resp = conn.getresponse()
                raw = resp.read()
                s.done = free_at = time.perf_counter()
                s.status = resp.status
                s.body = json.loads(raw)
                with lock:
                    done.append(s)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return sorted(done, key=lambda s: s.index)


def complete_rounds(samples: list[Sample], pool_size: int) -> list[list[Sample]]:
    """The samples of every round whose requests all got an answer."""
    rounds: dict[int, list[Sample]] = {}
    for s in samples:
        rounds.setdefault(s.index // pool_size, []).append(s)
    return [r for _, r in sorted(rounds.items()) if len(r) == pool_size]


def run_phase(bank: str, pool, seconds: float, seed: int, traced: bool, env: dict, log: str, boots: int) -> dict:
    """Boot the server *boots* times (timing each), load the last one, collect."""
    setups = []
    for _ in range(boots - 1):
        server = Server(bank, traced, env, log)
        setups.append(server.setup_s)
        server.stop()
    server = Server(bank, traced, env, log)
    setups.append(server.setup_s)
    try:
        drive(server.port, pool, WARMUP_SECONDS, seed + 1)
        samples = drive(server.port, pool, seconds, seed)
        _, flight = server.get(f"/debug/requests?limit={len(samples) + 16}")
        records = {r["request_id"]: r for r in flight["records"]}
        traces = {}
        if traced:
            for s in samples:
                rid = s.body.get("request_id")
                if s.status == 200:
                    traces[rid] = server.get(f"/debug/trace/{rid}")[1]
        rss_kb = server.peak_rss_kb()
    finally:
        server.stop()
    return {"samples": samples, "records": records, "traces": traces, "setups": setups, "rss_kb": rss_kb}


_BODY_KEYS = ("n_seed_pairs", "n_ungapped_hits", "n_gapped_extensions", "n_alignments", "alignments")


def _row_key(row: dict) -> tuple:
    return tuple(json.dumps(row[k]) for k in sorted(row))


def check_responses(phases: list[dict], pool, bank: str, failures: list[str]) -> dict:
    """Warm-equals-cold and determinism over every 200 response.

    One cold in-process ``compare_banks`` of the whole query pool against
    the resident bank gives each query's alignments; every served body
    must carry exactly those.  Bodies for the same query must also repeat
    exactly.  Returns the cold run's step-3 DP cells and seconds.
    """
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import SeedComparisonPipeline
    from repro.seqs.fasta import load_bank
    from repro.seqs.sequence import BankBuilder

    import checks

    builder = BankBuilder()
    for name, seq in pool:
        builder.add(name, seq)
    pipe = SeedComparisonPipeline(PipelineConfig(workers=1))
    report = pipe.compare_banks(builder.build(), load_bank(bank))
    cold: dict[str, list] = {name: [] for name, _ in pool}
    for row in checks.report_rows(report):
        cold[row["query"]].append(_row_key(row))
    first: dict[int, dict] = {}
    for phase in phases:
        for s in phase["samples"]:
            if s.status != 200:
                continue
            body = {k: s.body[k] for k in _BODY_KEYS}
            if first.setdefault(s.query, body) != body:
                failures.append(f"response for query {pool[s.query][0]} differs between requests")
            if sorted(_row_key(r) for r in s.body["alignments"]) != sorted(cold[pool[s.query][0]]):
                failures.append(f"warm response for {pool[s.query][0]} differs from the cold compare_banks")
    missing = len(pool) - len(first)
    if missing:
        failures.append(f"{missing} pool queries got no 200 response")
    return {"bodies": first, "dp_cells": pipe.profile.step3.operations, "step3_s": pipe.profile.step3.wall_seconds}
