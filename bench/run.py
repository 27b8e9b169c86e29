"""Benchmark of ``hodge-residue verify``: time to a verdict, and where it goes.

Run from the root of a checkout::

    python3 bench/run.py --workload interior --seed 0 --seconds 10 --trace 0

Workloads (each a real CLI command at its default sizes, 20 trials):

* ``interior``: ``verify --suite theorems`` (T1-T5, m in {2, 3}).
* ``lemmas``:   ``verify --suite lemmas`` (19 identities, n in {4, 6}).
* ``boundary``: ``verify --suite boundary`` then ``verify --suite commutators``.

The load is a closed loop with one client: each invocation is a fresh
process (``bench/entry.py``) started after the previous one has ended.  The
seed is passed through as ``--seed``; the benchmark never sets
``HODGE_RESIDUE_THREADS``.

``--trace 0`` repeats the workload's round of invocations for ``--seconds``
(at least once), with processes that only import the CLI started before the
rounds and, up to ``SETUP_SAMPLES`` set-up samples in all, after them.  It
reports:

* ``setup_s``: process start until ``hodge_residue.cli`` is imported (median
  over every process started, probes included);
* ``verify_s``: wall time of a round's ``verify`` calls, set-up excluded;
* ``cpu_s``: user plus system CPU time of those calls;
* ``peak_rss_mb``: peak resident memory of the largest process of a round.

The last three are medians over batches of consecutive rounds (at least
``BATCH_S`` each), of the batch's mean round.

``--trace 1`` runs each command of the workload once in a fresh process with
only its check calls hooked (the reference: wall time, and ``cli.glue_s``,
the time no check runs), then the traced replay (``bench/replay.py``) in a
fresh process, and reports the per-layer metrics.  The two count passes run
one beside each of these two phases when there are two CPUs or more (so that
the run ends well inside ``DEADLINE_S`` on a slow host), else after them.

Every invocation passes through the output gate (``bench/golden.json``): the
recorded verdict of every check id, the recorded exit code, the recorded
report bytes at the recorded seed, and identical bytes for every run of one
seed on one source tree.  A recorded ``fail`` verdict is a correct output.
Failed operations (``failed``) are gate violations (a check that raises
leaves no readable report, so all the command's checks fail), checks that
raise in the replay, value-check failures and count mismatches;
``op_failure_ratio`` is ``failed / attempted``.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The machine record and
the report digests are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from entry import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
ENTRY = BENCH / "entry.py"
REPLAY = BENCH / "replay.py"

WORKLOADS = {
    "interior": ("theorems",),
    "lemmas": ("lemmas",),
    "boundary": ("boundary", "commutators"),
}
SETUP_PROBES_BEFORE = 2
SETUP_SAMPLES = 6
BATCH_S = 8.0
DEADLINE_S = 170.0  # every run ends well inside three minutes
COUNT_BESIDE = len(os.sched_getaffinity(0)) >= 2
BUDGETS = {  # informational: acceptance-criterion runtime budgets
    "lemmas": ("criterion 2 (lemma suite)", 10.0),
    "interior": ("criterion 3 (theorem coefficients)", 30.0),
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "verify_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class RunFailure(Exception):
    """A child process that could not produce a measurement."""


class Run:
    """State of one benchmark run: deadline, gate tallies, report digests."""

    def __init__(self, seed: int, golden: dict):
        self.seed = seed
        self.golden = golden
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.src_digest = _source_digest()
        self.digests_path = OUT / "report-digests.json"
        try:
            self.digests = json.loads(self.digests_path.read_text())
        except (OSError, ValueError):
            self.digests = {}

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def timeout(self) -> float:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailure("run deadline passed")
        return remaining

    def invoke(self, suite: str) -> dict:
        """One ``hodge-residue verify --suite <suite>`` process, gated."""
        argv = ["verify", "--suite", suite, "--seed", str(self.seed)]
        fields, stdout, code = self._child(argv)
        self.gate(suite, stdout, code)
        return fields

    def probe_setup(self) -> float:
        fields, _, code = self._child(["--setup-only"])
        if code != 0:
            raise RunFailure(f"set-up probe exited {code}")
        return fields["setup_s"]

    def _child(self, argv):
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(ENTRY), *argv],
                cwd=ROOT,
                capture_output=True,
                timeout=self.timeout(),
            )
        except subprocess.TimeoutExpired:
            raise RunFailure(f"{' '.join(argv)} did not finish before the deadline") from None
        lines = [
            line for line in proc.stderr.decode(errors="replace").splitlines()
            if line.startswith(MARKER)
        ]
        if not lines:
            tail = proc.stderr.decode(errors="replace")[-2000:]
            raise RunFailure(f"{' '.join(argv)} exited {proc.returncode} without timings:\n{tail}")
        fields = json.loads(lines[-1][len(MARKER):])
        fields["setup_s"] = fields["ready"] - start
        return fields, proc.stdout, proc.returncode

    def gate(self, suite: str, stdout: bytes, code: int) -> None:
        expected = self.golden["suites"][suite]
        verdicts = expected["verdicts"]
        self.attempted += len(verdicts)
        if code != expected["exit"]:
            self.fail(1, f"{suite}: exit code {code}, expected {expected['exit']}")
        try:
            report = json.loads(stdout)
            got = {f"{c['id']}@{c['n']}": c.get("status") for c in report["checks"]}
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(len(verdicts), f"{suite}: unreadable report ({exc})")
            return
        for check_id, want in sorted(verdicts.items()):
            if got.get(check_id) != want:
                self.fail(1, f"{suite}: {check_id} is {got.get(check_id)!r}, expected {want!r}")
        digest = hashlib.sha256(stdout).hexdigest()
        if self.seed == self.golden["recorded_seed"] and digest != expected["sha256"]:
            self.fail(1, f"{suite}: report bytes differ from the recorded report")
        key = f"{self.src_digest}:{suite}:{self.seed}"
        if self.digests.setdefault(key, digest) != digest:
            self.fail(1, f"{suite}: report bytes differ between runs of seed {self.seed}")

    def save_digests(self) -> None:
        tmp = self.digests_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True))
        tmp.replace(self.digests_path)


def _source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def machine_record(run: Run) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "commit": _commit(),
        "source_digest": run.src_digest,
        "HODGE_RESIDUE_THREADS": os.environ.get("HODGE_RESIDUE_THREADS"),
    }


def run_round(run: Run, workload: str) -> dict:
    """Every command of the workload once; timings summed, peak memory maxed."""
    fields = [run.invoke(suite) for suite in WORKLOADS[workload]]
    return {
        "setup": [f["setup_s"] for f in fields],
        "verify_s": sum(f["verify_s"] for f in fields),
        "cpu_s": sum(f["cpu_s"] for f in fields),
        "peak_rss_mb": max(f["peak_rss_kb"] for f in fields) / 1024.0,
    }


def _batches(rounds):
    """Consecutive rounds grouped into batches of at least ``BATCH_S`` wall
    time (a short last batch joins the one before it)."""
    batches = [[]]
    for r in rounds:
        if sum(x["wall_s"] for x in batches[-1]) >= BATCH_S:
            batches.append([])
        batches[-1].append(r)
    if len(batches) > 1 and sum(x["wall_s"] for x in batches[-1]) < BATCH_S:
        batches[-2].extend(batches.pop())
    return batches


def end_to_end(run: Run, workload: str, seconds: int) -> dict:
    # Set-up probes before the rounds and, if the rounds started too few
    # processes, after them, so that they sample both ends of the run.
    setups = [run.probe_setup() for _ in range(SETUP_PROBES_BEFORE)]
    start = time.monotonic()
    rounds = []
    # No round starts that would end after ``seconds`` (judged by the last one).
    while not rounds or time.monotonic() - start + rounds[-1]["wall_s"] <= seconds:
        t0 = time.monotonic()
        rounds.append(run_round(run, workload))
        rounds[-1]["wall_s"] = time.monotonic() - t0
    setups += [s for r in rounds for s in r["setup"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.probe_setup())
    # The machine's speed drifts over seconds, so a sample is a batch of
    # rounds (its mean round); the metric is the median over batches.
    batches = _batches(rounds)
    values = {"setup_s": statistics.median(setups)}
    for name in ("verify_s", "cpu_s"):
        values[name] = statistics.median(statistics.fmean(r[name] for r in b) for b in batches)
    values["peak_rss_mb"] = statistics.median(max(r["peak_rss_mb"] for r in b) for b in batches)
    print(f"rounds: {len(rounds)} in {len(batches)} batches; set-up samples: {len(setups)}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:18s} {values[name]:12.4f} {unit}")
    if workload in BUDGETS:
        label, budget = BUDGETS[workload]
        print(
            f"budget (information only): verify_s {values['verify_s']:.2f} s "
            f"against the {budget:.0f} s budget of {label}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _replay(run: Run, mode: str, *args):
    return subprocess.Popen(
        [sys.executable, str(REPLAY), "--seed", str(run.seed), "--mode", mode, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _collect(run: Run, proc) -> dict:
    try:
        stdout, stderr = proc.communicate(timeout=run.timeout())
    except (subprocess.TimeoutExpired, RunFailure):
        proc.kill()
        proc.communicate()
        raise RunFailure("replay did not finish before the deadline") from None
    if proc.returncode != 0 or not stdout.strip():
        raise RunFailure(f"replay exited {proc.returncode}:\n{stderr.decode(errors='replace')[-2000:]}")
    return json.loads(stdout.decode().splitlines()[-1])


def _beside_count_pass(run: Run, workload: str, work):
    """``work()`` and one count pass of the workload, side by side when
    ``COUNT_BESIDE``, else one after the other; both results."""
    proc = _replay(run, "count", "--workload", workload) if COUNT_BESIDE else None
    try:
        result = work()
        if proc is None:
            proc = _replay(run, "count", "--workload", workload)
        return result, _collect(run, proc)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()


def _reference(run: Run, workload: str) -> dict:
    reference = {"verify_s": 0.0, "glue_s": 0.0, "missing": []}
    for suite in WORKLOADS[workload]:
        cli = _collect(run, _replay(run, "cli", "--suite", suite))
        run.gate(suite, cli["report"].encode(), cli["exit"])
        reference["verify_s"] += cli["wall_s"]
        reference["glue_s"] += cli["wall_s"] - cli["covered_s"]
        reference["missing"] += cli["missing"]
    return reference


def traced(run: Run, workload: str) -> dict:
    reference, first = _beside_count_pass(run, workload, lambda: _reference(run, workload))
    timed, second = _beside_count_pass(
        run, workload, lambda: _collect(run, _replay(run, "timed", "--workload", workload))
    )
    counts = [first, second]

    for result in (timed, *counts):
        run.attempted += result["tasks"]
        for problem in result["raised"]:
            run.fail(1, f"{result['mode']} replay: {problem}")
    checks = timed["value_checks"]
    run.attempted += checks["attempted"]
    for failure in checks["failures"]:
        run.fail(1, f"value check: {failure}")
    run.attempted += 1
    if counts[0] != counts[1]:
        run.fail(1, "the two count passes disagree")
    run.attempted += 1
    mismatched = [g for g, c in counts[0]["calls"].items() if timed["stats"][g]["calls"] != c]
    if mismatched:
        run.fail(1, f"timed and count passes disagree on calls of {mismatched}")

    stats, count = timed["stats"], counts[0]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for group in ("residue.spectral_density", "residue.lemma_check", "boundary.boundary_density"):
        put(f"{group}.p50_ms", stats[group]["p50_ms"], "ms")
        put(f"{group}.tail_ms", stats[group]["tail_ms"], "ms")
    for group in (
        "residue.sandwich_integrand", "forms.lift", "forms.form_contract",
        "exterior.clifford_word", "exterior.trace_product", "symbols.interior_integrand",
        "symbols.trace_integrate", "symbols.check_flat_commutators",
        "boundary.resolvent_symbol_channels", "boundary.pi_plus", "boundary.trace_against",
        "boundary.line_integral", "scalars.compare", "scalars.render", "oracle.float_density",
    ):
        put(f"{group}.self_s", stats[group]["self_s"], "s")
    for group in (
        "forms.lift", "exterior.clifford_word", "exterior.trace_product",
        "symbols.trace_integrate", "symbols.interior_integrand", "symbols.sphere_moment",
        "residue.spectral_density", "residue.sandwich_integrand",
        "boundary.resolvent_symbol_channels", "boundary.boundary_density",
    ):
        put(f"{group}.calls", count["calls"][group], "count")
    put("scalars.fraction_new.calls", count["fraction_new"], "count")
    put("symbols.moment_hit_ratio", count["moment_hits"] / max(count["moments"], 1), "ratio")
    put(
        "boundary.channel_reuse_ratio",
        count["channel_distinct"] / count["channel_builds"] if count["channel_builds"] else 0.0,
        "ratio",
    )
    put("oracle.max_rel_dev", checks["max_rel_dev"], "ratio")
    put("cli.import_s", timed["import_s"], "s")
    put("cli.glue_s", reference["glue_s"], "s")
    put("trace.overhead_ratio", timed["wall_s"] / reference["verify_s"], "ratio")
    put("trace.uncovered_ratio", (timed["wall_s"] - timed["top_level_s"]) / timed["wall_s"], "ratio")
    missing = (set(timed["missing"]) | set(count["missing"]) | set(reference["missing"])
               | set(checks["unavailable"]))
    put("trace.spans_missing", len(missing), "count")

    print(f"reference verify_s {reference['verify_s']:.4f} s; traced replay {timed['wall_s']:.4f} s, "
          f"{timed['spans']} spans; count passes "
          f"{'beside the reference and the replay' if COUNT_BESIDE else 'after them'}")
    if missing:
        print(f"missing spans: {', '.join(sorted(missing))}")
    for group in ("residue.spectral_density", "residue.lemma_check", "boundary.boundary_density"):
        s = stats[group]
        print(f"  {group}: {s['n']} calls, p50 {s['p50_ms']:.3f} ms, "
              f"tail p{s['tail_pct']} {s['tail_ms']:.3f} ms")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hodge_residue" / "cli.py").is_file():
        print(f"no hodge_residue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    OUT.mkdir(exist_ok=True)
    golden = json.loads((BENCH / "golden.json").read_text())
    run = Run(args.seed, golden)
    record = machine_record(run)
    (OUT / "machine.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine: " + json.dumps(record, sort_keys=True))

    try:
        if args.trace:
            metrics = traced(run, args.workload)
        else:
            metrics = end_to_end(run, args.workload, args.seconds)
    except RunFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        run.save_digests()
    for problem in run.problems:
        print(f"gate: {problem}")
    # 0 when all is well, so not a benchmark metric (those are never 0); its
    # parts are the result's "failed" and "attempted".
    print(f"  {'op_failure_ratio':18s} {run.failed / run.attempted:12.4f} ratio "
          f"({run.failed}/{run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
