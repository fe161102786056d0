"""Benchmark for naimark: three closed-loop workloads with one client each.

    python3 perfbench/run.py --workload cli-flow --seed 1 --seconds 30 --trace 0

Workloads (perfbench/README.md records why each exists):

  cli-flow     build -> verify -> simulate --check, one CLI process per command, d = 16
  tomo-stream  admit a fiducial, then round-trip 3 states through U and tomography, d = 32
               (3 states per fiducial is a chosen share, not measured traffic)
  circuit-n4   synthesize the n = 4 circuit, expand it, check it against the Bell route

Every operation's output is checked against an oracle.  The last stdout line
is the result ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json measured with tracing
off, with ``--trace 1`` its per-layer metrics from a traced run.  The line
before it is a report under the workload's own metric names, with fail_ratio
and the environment.  Run it from the root of a checkout; it imports naimark
from ``src/`` there and fails if that is missing.
"""

import os

# Cap BLAS threads at the CPUs this process may use.  This must happen before
# NumPy is first imported, and child processes inherit it.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    if not (_cur.isdigit() and 1 <= int(_cur) <= NPROC):
        os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import (  # noqa: E402
    TOL,
    TOL_RHO,
    Tally,
    check,
    check_sic,
    closed_form_u,
    haar_ket,
    haar_unitary,
    ket_json,
    matrix_from_obj,
    max_dev,
    outcome_probs,
    unitary_failures,
)
from tracer import DECODE, ENCODE, LAYERS, Profile, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT = 120
SETUP_REPEATS = 10

# Functions whose inclusive time per operation is a per-layer metric.
TIMED = (
    "fiducials.is_informationally_complete", "fiducials.sic_report", "fiducials.wh_orbit",
    "wh.bell_change_of_basis", "block.build_block_naimark", "block.structure_report",
    "block.complete_unitary", "bell.build_bell_naimark", "simulate.measure_probabilities",
    "simulate.direct_probabilities", "simulate.tomography_reconstruct", "simulate.sample",
    "circuits.full_naimark_circuit", "circuits.expand",
)
COUNTED = ("fiducials.sic_report", "fiducials.wh_orbit", "wh.displacement", "wh.fourier")
# Functions of the tomo-stream operation whose log-log slope in d is reported.
SLOPED = (
    "fiducials.is_informationally_complete", "fiducials.wh_orbit", "block.complete_unitary",
    "block.build_block_naimark", "simulate.measure_probabilities",
    "simulate.direct_probabilities", "simulate.tomography_reconstruct",
)
SLOPE_REPEATS = {8: 5, 16: 3, 32: 2}


def import_naimark():
    """Import naimark from the checkout's src/, never from an installed copy."""
    init = SRC / "naimark" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a naimark checkout")
    sys.path.insert(0, str(SRC))
    import naimark
    import naimark.cli  # noqa: F401

    if Path(naimark.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported naimark from {naimark.__file__}, expected {init}")
    return naimark


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One closed-loop client; ``op`` runs one operation and returns its failures.

    Stage times go to ``pending`` and reach ``samples`` only when the whole
    operation passed its checks, so a failed operation is counted but not timed.
    """

    name = ""
    stages: tuple[str, str, str] = ("", "", "")
    op_label = ""

    def __init__(self, nm, rng: np.random.Generator, workdir: Path) -> None:
        self.nm = nm
        self.rng = rng
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.pending: dict[str, list[float]] = defaultdict(list)
        self.tracer: Tracer | None = None

    def span(self, name: str, layer: str):
        return self.tracer.span(name, layer) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def timed(self, stage: str):
        with self.span(f"stage.{stage}", "bench"):
            t0 = time.perf_counter()
            yield
            dt = time.perf_counter() - t0
        self.pending[stage].append(dt)

    def op(self) -> list[str]:
        raise NotImplementedError


class CliFlow(Workload):
    """The README's user flow, one fresh ``python -m naimark.cli`` per command."""

    name = "cli-flow"
    stages = ("build_s", "verify_s", "simulate_s")
    op_label = "flow_s"
    d = 16
    shots = 10000

    def __init__(self, nm, rng, workdir):
        super().__init__(nm, rng, workdir)
        self.env = child_env()
        self.u_file = str(workdir / "u.json")
        self.spans_file = str(workdir / "spans.json")

    def cli(self, stage: str, argv: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "naimark.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_runner.py"), self.spans_file, *argv]
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.spans_file)
        with self.timed(stage), self.span(f"cli.process.{stage}", "cli.startup") as idx:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT
            )
        if self.tracer is not None:
            with open(self.spans_file, encoding="utf-8") as fh:
                rec = json.load(fh)
            self.tracer.adopt(rec["spans"], rec["counters"], idx)
            self.tracer.counters["cli.nonzero_exits"] += proc.returncode != 0
        return proc

    def op(self) -> list[str]:
        phi, psi = haar_ket(self.rng, self.d), haar_ket(self.rng, self.d)
        seed = int(self.rng.integers(2**31))
        proc = self.cli("build_s", ["build", "--ket", ket_json(phi), "--out", self.u_file])
        if proc.returncode:
            return [f"build exited {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        with self.span("check.build", "bench"), open(self.u_file, encoding="utf-8") as fh:
            built = json.load(fh)
            m = matrix_from_obj(built["M"])
            failures = unitary_failures(phi, m, matrix_from_obj(built["U"]))
            check(failures, "build unitarity_residual", built["unitarity_residual"], TOL)
            if built["informationally_complete"] is not True:
                failures.append("build judged a Haar fiducial not informationally complete")
            check_sic(failures, "build sic_deviation", built["sic_deviation"], phi)

        proc = self.cli("verify_s", ["verify", "--u", self.u_file, "--m", self.u_file])
        if proc.returncode:
            failures.append(f"verify exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        else:
            with self.span("check.verify", "bench"):
                report = json.loads(proc.stdout)
                if report["pass"] is not True:
                    failures.append("verify did not pass")
                for key, residual in report["checks"].items():
                    check(failures, f"verify {key}", residual, TOL)
                check_sic(failures, "verify fiducial_sic_deviation",
                          report["fiducial_sic_deviation"], phi)
                compound = report["compound_sic_deviations"]
                if len(compound) != self.d:
                    failures.append(f"verify gave {len(compound)} compound SIC deviations, not {self.d}")
                for i, dev in enumerate(compound[: self.d]):
                    check_sic(failures, f"verify compound_sic_deviations[{i}]", dev, m[i].conj())

        argv = ["simulate", "--ket", ket_json(phi), "--state", ket_json(psi), "--check",
                "--shots", str(self.shots), "--seed", str(seed)]
        proc = self.cli("simulate_s", argv)
        if proc.returncode:
            failures.append(f"simulate exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        else:
            with self.span("check.simulate", "bench"):
                sim = json.loads(proc.stdout)
                check(failures, "simulate check_residual", sim["check_residual"], TOL)
                check(failures, "simulate probs vs oracle",
                      max_dev(sim["probs"], outcome_probs(phi, psi)), TOL)
                counts = np.asarray(sim["counts"])
                if counts.shape != (self.d**2,) or counts.min() < 0 or counts.sum() != self.shots:
                    failures.append("simulate counts are not a histogram of all shots")
        return failures


class TomoStream(Workload):
    """Admit a new fiducial, then stream states through U and tomography.

    Each fiducial serves ``states`` states.  The default of 3 is a chosen
    share: nothing in the package or its documents says how many states a
    caller measures per fiducial.
    """

    name = "tomo-stream"
    stages = ("new_fiducial_s", "forward_s", "check_inverse_s")
    op_label = "fiducial_op_s"

    def __init__(self, nm, rng, workdir, d: int = 32, states: int = 3):
        super().__init__(nm, rng, workdir)
        self.d = d
        self.states = states

    def op(self) -> list[str]:
        nm, d = self.nm, self.d
        phi = haar_ket(self.rng, d)
        with self.timed("new_fiducial_s"):
            m = nm.block.complete_unitary(phi)
            ic = nm.fiducials.is_informationally_complete(phi)
            ext = nm.block.build_block_naimark(m)
        with self.span("check.admit", "bench"):
            failures = unitary_failures(phi, m, ext.U)
            if not (ic.is_ic and ic.gram_rank == d * d):
                failures.append(f"Haar fiducial judged not IC (Gram rank {ic.gram_rank})")
        for _ in range(self.states):
            psi = haar_ket(self.rng, d)
            with self.timed("forward_s"):
                dist = nm.simulate.measure_probabilities(ext, psi, 0)
            with self.timed("check_inverse_s"):
                oracle = nm.simulate.direct_probabilities(phi, psi)
                check(failures, "probs vs direct_probabilities", max_dev(dist.probs, oracle.probs), TOL)
                rho = nm.simulate.tomography_reconstruct(phi, dist)
                check(failures, "rho vs |psi><psi|", max_dev(rho.matrix, np.outer(psi, psi.conj())), TOL_RHO)
            self.pending["roundtrip_s"].append(self.pending["forward_s"][-1] + self.pending["check_inverse_s"][-1])
        return failures


class CircuitN4(Workload):
    """Synthesize the full n = 4 circuit for a random M and expand it."""

    name = "circuit-n4"
    stages = ("synthesize_s", "expand_s", "check_s")
    op_label = "circuit_s"
    n = 4

    def op(self) -> list[str]:
        nm, d = self.nm, 2**self.n
        m = haar_unitary(self.rng, d)
        failures: list[str] = []
        with self.timed("synthesize_s"):
            circ = nm.circuits.full_naimark_circuit(m, self.n)
        if self.tracer:
            self.tracer.counters["circuits.gates"] += len(circ)
        with self.timed("expand_s"):
            u = nm.circuits.expand(circ)
        with self.timed("check_s"):
            ref = nm.bell.build_bell_naimark(m).U
            check(failures, "expanded circuit vs Bell route", max_dev(u, ref), TOL)
        with self.span("check.closed_form", "bench"):
            check(failures, "Bell route vs closed form", max_dev(ref, closed_form_u(m)), TOL)
        return failures


WORKLOADS = {w.name: w for w in (CliFlow, TomoStream, CircuitN4)}


def run_op(w: Workload, tally: Tally, tracer: Tracer | None, op_id: int) -> float:
    """One checked operation; returns its wall time including the checks."""
    w.tracer = tracer
    w.pending.clear()
    with tracer.active() if tracer else contextlib.nullcontext():
        if tracer:
            tracer.op = op_id
        t0 = time.perf_counter()
        with w.span("op", "bench"):
            try:
                failures = w.op()
            except Exception as exc:  # an operation that raises is a failed operation
                failures = [f"op raised {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
    if not failures:
        w.samples["op"].append(sum(sum(w.pending[stage]) for stage in w.stages))
        for name, times in w.pending.items():
            w.samples[name].extend(times)
    tally.record(failures)
    return wall


def measure(w: Workload, seconds: float, tally: Tally, tracer: Tracer | None) -> dict:
    """Closed loop: the next operation starts when the previous one ends.

    With a tracer, odd operations are traced and even ones are not, so the
    tracing overhead is measured on interleaved operations of one run.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    min_ops = 2 if tracer else 1
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        walls[traced].append(run_op(w, tally, tracer if traced else None, i))
        i += 1
    return walls


def slope_sweep(nm, rng, tally: Tally) -> dict[str, float]:
    """Traced tomo-stream operations (one state each) at d = 8, 16, 32.

    Returns the least-squares slope of log(time per call) against log(d).
    """
    per_call: dict[str, list[float]] = defaultdict(list)
    for d, repeats in SLOPE_REPEATS.items():
        w = TomoStream(nm, rng, OUT, d=d, states=1)
        reps: dict[str, list[float]] = defaultdict(list)
        for i in range(repeats):
            tracer = Tracer()
            run_op(w, tally, tracer, i)
            prof = Profile(tracer.spans)
            for fn in SLOPED:
                reps[fn].append(prof.inclusive(fn) / max(prof.calls(fn), 1))
        for fn in SLOPED:
            per_call[fn].append(statistics.median(reps[fn]))
    logd = np.log(list(SLOPE_REPEATS))
    return {fn: float(np.polyfit(logd, np.log(t), 1)[0]) for fn, t in per_call.items()}


def layer_metrics(tracer: Tracer, walls: dict, slopes: dict) -> dict:
    """Per-operation layer metrics of the traced operations."""
    n = len(walls[True])
    prof = Profile(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = (prof.self_by_layer[layer] / n, "s")
    out["cli.startup_s"] = (prof.self_by_layer["cli.startup"] / n, "s")
    for cmd in ("build", "verify", "simulate"):
        out[f"cli.{cmd}.s"] = (prof.inclusive(f"cli.cmd_{cmd}") / n, "s")
    out["io.encode_s"] = (prof.inclusive(ENCODE) / n, "s")
    out["io.decode_s"] = (prof.inclusive(DECODE) / n, "s")
    for key in ("cli.nonzero_exits", "circuits.gates", "io.bytes_written", "io.bytes_read"):
        out[key] = (tracer.counters[key] / n, "bytes" if key.startswith("io.") else "count")
    for fn in TIMED:
        out[f"{fn}.s"] = (prof.inclusive(fn) / n, "s")
    for fn in COUNTED:
        out[f"{fn}.calls"] = (prof.calls(fn) / n, "count")
    for fn, slope in slopes.items():
        out[f"{fn}.slope"] = (slope, "ratio")
    # Means, like every other per-operation metric here, so that the self
    # times above add up to trace.op_s.
    traced, untraced = statistics.fmean(walls[True]), statistics.fmean(walls[False])
    out["trace.op_s"] = (traced, "s")
    out["trace.untraced_op_s"] = (untraced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing every naimark module."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import naimark, naimark.cli"],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=CHILD_TIMEOUT,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def summary(values: list[float], unit: str) -> dict:
    """Median plus the highest percentile that has at least ten samples above it."""
    out = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = float(np.percentile(values, pct))
            break
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "naimark").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def check_against_spec(metrics: dict, spec: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if have != want:
        sys.exit(f"error: metrics do not match BENCHMARK.json: {sorted(set(have) ^ set(want))}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nm = import_naimark()
    spec = load_spec()
    rng = np.random.default_rng(args.seed)
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    tracer = Tracer() if args.trace else None
    setup = None if args.trace else measure_setup(child_env())
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        w = WORKLOADS[args.workload](nm, rng, Path(tmp))
        walls = measure(w, args.seconds, tally, tracer)
    who = resource.RUSAGE_CHILDREN if isinstance(w, CliFlow) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    missing = [stage for stage in ("op", *w.stages) if not w.samples[stage]]
    if missing:
        sys.exit(f"error: no operation passed its checks, so {missing} have no time: {tally.messages[:3]}")

    report = {"workload": w.name, "loop": "closed, 1 client", "seconds": args.seconds,
              "trace": args.trace, "env": environment(args.seed)}
    named = {}
    if args.trace:
        slopes = slope_sweep(nm, rng, tally)
        metrics = layer_metrics(tracer, walls, slopes)
        check_against_spec(metrics, spec["per_layer"])
        trace_file = OUT / f"trace-{w.name}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op"],
                       "spans": tracer.spans, "counters": tracer.counters, "report": report}, fh)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        named = {name: summary(w.samples[name], "s") for name in w.stages}
        named[w.op_label] = summary(w.samples["op"], "s")
        if "roundtrip_s" in w.samples:
            named["roundtrip_s"] = summary(w.samples["roundtrip_s"], "s")
        metrics = {"op_s": (named[w.op_label]["value"], "s")}
        for i, name in enumerate(w.stages, start=1):
            metrics[f"stage{i}_s"] = (named[name]["value"], "s")
        metrics["setup_s"] = (setup, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
        check_against_spec(metrics, spec["end_to_end"])
        named["setup_s"] = {"value": setup, "unit": "s", "n": SETUP_REPEATS}
        named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    named["fail_ratio"] = {"value": tally.fail_ratio, "unit": "ratio"}
    named["ops"] = {"value": tally.attempted, "unit": "count"}
    named["ops_failed"] = {"value": tally.failed, "unit": "count"}
    report["metrics"] = named
    report["failures"] = tally.messages[:10]
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
