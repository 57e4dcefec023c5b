"""Run one chaindyn benchmark workload and print its metrics as JSON.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload full-doubling --seed 7 --seconds 25 --trace 0

The workload's spec files are generated into ``.bench_out/`` and the public
entry point ``chaindyn.cli.main(argv)`` is called in this process, one
request after another (a closed loop with one client and no threads), for
as many passes over the workload's request sequence as fit in ``--seconds``.
Times are calibrated by the machine's current speed (see ``calibrate.py``).
Every report is checked against reference digests (``reference_digests.json``),
against the reports of earlier passes, and, for the doubling-64/seed-7
request, byte for byte against ``tests/golden/full_doubling64_seed7.json``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; both lists, with units, come from ``BENCHMARK.json``.
The last line of standard output is the JSON result; the lines before it
give run metadata and the report digests, so that a parent commit and a
change can be compared on a seed that has no recorded reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCES = HERE / "reference_digests.json"
GOLDEN = Path("tests/golden/full_doubling64_seed7.json")
GOLDEN_LABEL = "full-doubling64"
SETUP_PROBES = 5


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program or inputs)."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stage_digests(report: bytes) -> dict[str, str]:
    results = json.loads(report)["results"]
    return {stage: sha256(json.dumps(values, sort_keys=True).encode())
            for stage, values in results.items()}


def load_program(root: Path):
    src = root / "src"
    if not (src / "chaindyn" / "__init__.py").is_file():
        raise BenchError(f"no chaindyn package under {src}")
    os.environ.pop("CHAINDYN_THREADS", None)
    sys.path.insert(0, str(src))
    import chaindyn
    from chaindyn import cli

    if Path(chaindyn.__file__).resolve().parent != (src / "chaindyn").resolve():
        raise BenchError(f"imported chaindyn from {chaindyn.__file__}, not from {src}")
    return chaindyn, cli


@dataclass
class Pass:
    """Seconds per request, and the machine's slowness before each request and after the last."""

    request_s: list[float]
    slowness: list[float]

    def calibrated(self) -> list[float]:
        """Each request's seconds divided by the mean slowness around it."""
        slow = self.slowness
        return [t * 2 / (slow[i] + slow[i + 1]) for i, t in enumerate(self.request_s)]


class Session:
    """Sends a workload's requests and checks every report it gets back."""

    def __init__(self, cli, workload, workdir: Path, references: dict | None,
                 golden: bytes | None):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.references = references
        self.golden = golden
        self.specs = {}
        for name, text in workload.specs.items():
            path = workdir / f"{name}.yaml"
            path.write_text(text, encoding="utf-8")
            self.specs[name] = str(path)
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @staticmethod
    def key(req) -> str:
        return req.label if req.seed is None else f"{req.label}@seed{req.seed}"

    def send(self, req) -> tuple[float, bytes | None, bytes | None]:
        out, graph = self.workdir / "report.out", self.workdir / "graph.txt"
        for path in (out, graph):
            path.unlink(missing_ok=True)
        argv = [a.format(spec=self.specs[req.spec], out=out, graph=graph) for a in req.argv]
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = "exception"
        elapsed = time.perf_counter() - t0
        if code != 0 or not out.is_file():
            self.problems.append(f"{self.key(req)}: exit {code}")
            return elapsed, None, None
        return elapsed, out.read_bytes(), graph.read_bytes() if req.dump_graph else None

    def check(self, req, report: bytes | None, graph: bytes | None) -> dict | None:
        """Count the request; return its digests, or None when it failed."""
        self.attempted += 1
        if report is None:
            self.failed += 1
            return None
        key = self.key(req)
        got = {"report": sha256(report)}
        if graph is not None:
            got["graph"] = sha256(graph)
        problems = self._compare(req, key, report, got)
        if self.seen.setdefault(key, got["report"]) != got["report"]:
            problems.append("report differs from an earlier pass")
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}: {p}" for p in problems)
        return got

    def _compare(self, req, key: str, report: bytes, got: dict) -> list[str]:
        if req.label == GOLDEN_LABEL and report != self.golden:
            return [f"differs from {GOLDEN}"]
        if self.references is None:  # recording new references
            return []
        ref = self.references.get(self.workload.name, {}).get(key)
        if ref is not None:
            return [f"{part} digest differs from reference"
                    for part in got if got[part] != ref.get(part)]
        # A seed without a recorded reference: the seed-independent parts of
        # the report must still match the default seed's reference.
        ref = next((r for k, r in self.references.get(self.workload.name, {}).items()
                    if k.split("@")[0] == req.label), None)
        if ref is None:
            return ["no reference recorded for this request"]
        doc = json.loads(report)
        problems = []
        if doc["request"]["seed"] != req.seed or doc["provenance"]["seed"] != req.seed:
            problems.append("report does not echo the request seed")
        for stage, digest in stage_digests(report).items():
            if stage not in workloads.STOCHASTIC_STAGES and digest != ref["stages"].get(stage):
                problems.append(f"stage {stage} differs from reference")
        if "graph" in got and got["graph"] != ref.get("graph"):
            problems.append("graph digest differs from reference")
        return problems

    def run_pass(self, rec: tracer.Recorder | None = None) -> tuple[Pass, dict]:
        """Send every request once; return its timings and the report digests."""
        times, digests, slow = [], {}, []
        for req in self.workload.requests:
            slow.append(calibrate.slowness())
            if rec is not None:
                rec.request = self.key(req)
            elapsed, report, graph = self.send(req)
            times.append(elapsed)
            got = self.check(req, report, graph)
            if got is not None:
                got["stages"] = stage_digests(report)
                digests[self.key(req)] = got
        slow.append(calibrate.slowness())
        return Pass(times, slow), digests


def probe_setup(root: Path, specs: list[str]) -> tuple[float, float]:
    """Seconds to import chaindyn and load every spec in a fresh interpreter,
    and the same time calibrated by the loop run right after it there."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(root / "src"),
                           *specs], capture_output=True, text=True, timeout=120, check=True)
    elapsed, slowness = map(float, done.stdout.strip().splitlines()[-1].split())
    return elapsed, elapsed / slowness


def sequence_seconds(per_request: list[list[float]]) -> float:
    """Time of one pass over the request sequence: the sum of per-request medians.

    The machine's speed drifts from one second to the next, so each request's
    median over the run is steadier than the median of whole passes.
    """
    return sum(statistics.median(col) for col in zip(*per_request))


def _layer_values(rec: tracer.Recorder) -> dict[str, float]:
    counts, totals = rec.counts, rec.span_totals()
    values: dict[str, float] = {name: float(n) for name, n in counts.items()}
    for name, row in totals.items():
        values[f"{name}.s"] = row["s"]
        values[f"{name}.calls"] = float(row["calls"])
    values["uniform.compose.s"] = rec.hot_s.get("uniform.compose", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    get = values.get
    values["shadowing.after_witness_ratio"] = ratio(
        get("shadowing.after_witness", 0), get("shadowing.candidates_evaluated", 0))
    values["shadowing.shadowed_ratio"] = ratio(
        get("shadowing.shadowed", 0), get("shadowing.find_shadow_point.calls", 0))
    values["chaingraph.scc_calls_per_graph"] = ratio(
        get("chaingraph.strongly_connected_components.calls", 0),
        get("chaingraph.build_transition_graph.calls", 0))
    values["recurrence.nonwandering_points_per_request"] = ratio(
        get("recurrence.nonwandering_points.calls", 0), get("cli.stage.recurrence.calls", 0))
    return values


def measure(root: Path, session: Session, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Repeat the request sequence until the next round would overrun ``seconds``.

    Each round is one untraced pass, one traced pass when tracing, and one
    set-up probe, so that set-up samples are spread over the whole run.
    """
    untraced, traced_passes, recorders, setup, rounds = [], [], [], [], []
    digests: dict = {}
    specs = list(session.specs.values())
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        done, digests = session.run_pass()
        untraced.append(done)
        if traced:
            rec = tracer.Recorder()
            with tracer.installed(rec):
                traced_passes.append(session.run_pass(rec)[0])
            recorders.append(rec)
        setup.append(probe_setup(root, specs))
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(root, specs))
    values = {
        "cal_wall_s": sequence_seconds([p.calibrated() for p in untraced]),
        "wall_s": sequence_seconds([p.request_s for p in untraced]),
        "setup_s": statistics.median(cal for _, cal in setup),
        "raw_setup_s": statistics.median(raw for raw, _ in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"passes": len(untraced), "setup_samples": setup,
             "pass_request_s": [p.request_s for p in untraced],
             "pass_slowness": [p.slowness for p in untraced],
             "digests": digests}
    if traced:
        extra["recorders"] = recorders
        values["trace.wall_s"] = sequence_seconds([p.calibrated() for p in traced_passes])
    return values, extra


def layer_metrics(session: Session, values: dict, extra: dict, names: list[str]) -> None:
    """Per-layer values: counts must repeat exactly, times are per-pass medians."""
    recorders = extra.pop("recorders")
    per_pass = [_layer_values(rec) for rec in recorders]
    for name in names:
        if name.startswith("trace."):
            continue
        samples = [p.get(name, 0.0) for p in per_pass]
        if not name.endswith((".s", "_s")) and len(set(samples)) > 1:
            session.problems.append(f"trace count {name} differs between passes: {samples}")
        values[name] = statistics.median(samples)
    values["trace.untraced_wall_s"] = values["cal_wall_s"]
    values["trace.overhead_s"] = values["trace.wall_s"] - values["cal_wall_s"]
    extra["unreached"] = [name for name in names if not name.startswith("trace.")
                          and not any(name in p for p in per_pass)]
    extra["span_totals"] = recorders[-1].span_totals()
    extra["spans"] = [vars(sp) for sp in recorders[-1].spans]


def metadata(root: Path, chaindyn, workload, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "chaindyn").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "n": workload.n,
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "chaindyn_threads": chaindyn._parallel.thread_count(),
    }


def record_references(root: Path) -> None:
    """Write reference digests from one pass of every workload at the default seed."""
    _, cli = load_program(root)
    golden = (root / GOLDEN).read_bytes()
    refs = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, workloads.DEFAULT_SEED)
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            session = Session(cli, workload, Path(tmp), None, golden)
            _, digests = session.run_pass()
        if session.failed:
            raise BenchError(f"{name}: a request failed while recording: {session.problems}")
        refs[name] = digests
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def run(args) -> dict:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    chaindyn, cli = load_program(root)
    golden = None
    if args.workload == "full-doubling":
        if not (root / GOLDEN).is_file():
            raise BenchError(f"missing {GOLDEN}")
        golden = (root / GOLDEN).read_bytes()
    references = json.loads(REFERENCES.read_text())
    workload = workloads.make(args.workload, args.seed)
    outdir = root / ".bench_out"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=outdir))
    try:
        session = Session(cli, workload, workdir, references, golden)
        values, extra = measure(root, session, args.seconds, bool(args.trace))
        if args.trace:
            layer_metrics(session, values, extra, [m["name"] for m in listed])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = metadata(root, chaindyn, workload, args.seed)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed_share = session.failed / session.attempted
    for m in listed:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"wall_s = {values['wall_s']:.6g} s (uncalibrated)")
        print(f"raw_setup_s = {values['raw_setup_s']:.6g} s (uncalibrated)")
    print(f"failed_share = {failed_share:.6g} ({session.failed} of {session.attempted} requests)")
    print(f"passes = {extra['passes']}, "
          f"setup samples = {[round(s, 4) for s, _ in extra['setup_samples']]}")
    if extra.get("unreached"):
        print("not reached on this workload (reported as 0): " + ", ".join(extra["unreached"]))
    for problem in session.problems[:20]:
        print(f"problem: {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for key, got in sorted(extra["digests"].items()):
        print(f"digest {workload.name} {key} {got['report']}")
    detail = {"meta": meta, "metrics": metrics, "failed_share": failed_share,
              "problems": session.problems, **extra}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (outdir / name).write_text(json.dumps(detail, sort_keys=True) + "\n")
    return {"correct": session.failed == 0 and not session.problems,
            "attempted": session.attempted, "failed": session.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite reference_digests.json from the checkout's program")
    args = parser.parse_args(argv)
    try:
        if args.record_references:
            record_references(Path.cwd())
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except (BenchError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
