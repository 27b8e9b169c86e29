"""Traced replay of one benchmark workload, layer by layer.

Run from the root of a checkout::

    python3 bench/replay.py --workload lemmas --seed 0 --mode timed
    python3 bench/replay.py --workload lemmas --seed 0 --mode count
    python3 bench/replay.py --suite lemmas --seed 0 --mode cli

The replay does the work of the workload's ``hodge-residue verify``
command(s) serially, in the command's task order, by calling the package's
public check functions (``verify_theorem``, ``lemma_check``,
``verify_boundary``, ``check_flat_commutators``).  While it runs, each
public function listed in ``TARGETS`` reports its calls:

* ``--mode timed`` times every call as a span and derives self times (a
  span minus its child spans), call counts and per-call latencies.
  Afterwards it runs the value checks (see ``ValueChecks``).
* ``--mode cli`` runs ``hodge-residue verify`` itself in this process with
  only the check functions hooked (the untraced reference of a traced run):
  the report, the exit code, the wall time and the part of it that no check
  call covers.  A check that raises gives exit code 1, as in ``entry.py``.
* ``--mode count`` records call counts only, plus the number of
  ``fractions.Fraction`` objects constructed, exact-hit counts of
  ``sphere_moment`` and the distinct arguments of
  ``resolvent_symbol_channels``.  Two count passes must agree exactly.

In the timed and count modes a check that raises is listed under ``raised``
and the replay goes on with the next one.

A function is hooked by swapping its code object for a trampoline, so the
calls are seen whichever way they are reached (module attribute, the
``FUNCTIONALS`` table, ``from ... import``).  A target that no longer exists,
or that cannot be hooked, is listed under ``missing`` and the replay goes on.

The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

from entry import run_cli

ROOT = Path(__file__).resolve().parent.parent

TRIALS = 20  # the CLI's default --trials
LEMMA_DIMENSIONS = (4, 6)  # the CLI's default lemma --n values
SYMBOL_ORDERS = (2, 3)  # the CLI's default theorem/boundary --m values
COMMUTATOR_DIMENSIONS = (2, 4)  # the CLI's default commutator --n values
BOUNDARY_WORDS = {"psi1": ("c", "c", "c"), "psi2": ("c", "chat", "chat")}
ORACLE_TOLERANCE = 1e-9

# (layer metric group, module of hodge_residue, qualified name)
TARGETS = (
    ("residue.verify_theorem", "residue", "verify_theorem"),
    ("residue.lemma_check", "residue", "lemma_check"),
    ("residue.spectral_density", "residue", "spectral_density"),
    ("residue.sandwich_integrand", "residue", "sandwich_integrand"),
    ("forms.lift", "forms", "lift_two_chat"),
    ("forms.lift", "forms", "lift_three_c"),
    ("forms.lift", "forms", "lift_three_mixed"),
    ("forms.lift", "forms", "lift_torsion_assembly"),
    ("forms.lift", "forms", "lift_four_mixed"),
    ("forms.lift", "forms", "lift_four_chat"),
    ("forms.form_contract", "forms", "form_contract"),
    ("exterior.clifford_word", "exterior", "clifford_word"),
    ("exterior.trace_product", "exterior", "trace_product"),
    ("symbols.interior_integrand", "symbols", "interior_integrand"),
    ("symbols.trace_integrate", "symbols", "trace_integrate"),
    ("symbols.sphere_moment", "symbols", "sphere_moment"),
    ("symbols.check_flat_commutators", "symbols", "check_flat_commutators"),
    ("boundary.verify_boundary", "boundary", "verify_boundary"),
    ("boundary.boundary_density", "boundary", "boundary_density"),
    ("boundary.resolvent_symbol_channels", "boundary", "resolvent_symbol_channels"),
    ("boundary.pi_plus", "boundary", "pi_plus"),
    ("boundary.trace_against", "boundary", "RationalXnOp.trace_against"),
    ("boundary.line_integral", "boundary", "line_integral"),
    ("boundary.line_integral", "boundary", "ScalarRational.line_integral"),
    ("scalars.compare", "scalars", "SymbolicScalar.__eq__"),
    ("scalars.render", "scalars", "SymbolicScalar.render"),
)
# The check functions the CLI's worker pool calls, one per report entry.
CHECK_TARGETS = (
    ("check", "residue", "verify_theorem"),
    ("check", "residue", "lemma_check"),
    ("check", "boundary", "verify_boundary"),
    ("check", "symbols", "check_flat_commutators"),
)
# Hooked only while the value checks run (the oracle is off the verify path).
ORACLE_TARGETS = (("oracle.float_density", "oracle", "float_density"),)

GROUPS = tuple(dict.fromkeys(group for group, _, _ in TARGETS + ORACLE_TARGETS))

_TRAMPOLINE = (lambda *args, _bench_hook=None, **kwargs: _bench_hook(args, kwargs)).__code__


def _package():
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    importlib.import_module("hodge_residue.cli")
    return time.perf_counter() - t0


def _lookup(module: str, qualname: str):
    """``hodge_residue.<module>.<qualname>`` (a class attribute as the class
    stores it), or None when it no longer exists."""
    try:
        owner = importlib.import_module(f"hodge_residue.{module}")
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    return vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)


def _resolve(module: str, qualname: str):
    """The plain function behind ``hodge_residue.<module>.<qualname>``, or None."""
    raw = _lookup(module, qualname)
    if isinstance(raw, staticmethod):
        raw = raw.__func__
    if not isinstance(raw, types.FunctionType) or raw.__code__.co_freevars:
        return None
    if raw.__code__ is _TRAMPOLINE:
        return None  # already hooked under another name
    return raw


class Hooks:
    """Code-object swaps that route calls of the targets through a recorder."""

    def __init__(self, targets, wrap):
        self.missing = []
        self._saved = []
        try:
            for group, module, qualname in targets:
                fn = _resolve(module, qualname)
                if fn is None:
                    self.missing.append(f"{module}.{qualname}")
                    continue
                clone = types.FunctionType(
                    fn.__code__, fn.__globals__, fn.__name__, fn.__defaults__, fn.__closure__
                )
                clone.__kwdefaults__ = dict(fn.__kwdefaults__) if fn.__kwdefaults__ else None
                hook = wrap(group, clone)
                self._saved.append((fn, fn.__code__, fn.__defaults__, fn.__kwdefaults__))
                fn.__code__ = _TRAMPOLINE
                fn.__defaults__ = None
                fn.__kwdefaults__ = {"_bench_hook": hook}
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._saved:
            fn, code, defaults, kwdefaults = self._saved.pop()
            fn.__code__ = code
            fn.__defaults__ = defaults
            fn.__kwdefaults__ = kwdefaults

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()


class SpanRecorder:
    """One span per hooked call; self time is a span minus its child spans."""

    def __init__(self):
        self.spans = 0
        self.stats = {group: {"calls": 0, "self_s": 0.0, "durations": []} for group in GROUPS}
        self.top_level_s = 0.0
        self._stack = []
        self._depth = {group: 0 for group in GROUPS}

    def wrap(self, group, fn):
        stats = self.stats[group]
        durations = stats["durations"]
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def hook(args, kwargs):
            self.spans += 1
            child_s = [0.0]  # time covered by this span's child spans
            stack.append(child_s)
            outermost = depth[group] == 0
            depth[group] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[group] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_level_s += duration
                stats["self_s"] += duration - child_s[0]
                if outermost:
                    stats["calls"] += 1
                    durations.append(duration)

        return hook


class IntervalRecorder:
    """(start, end) of every hooked call, from any thread."""

    def __init__(self):
        self.intervals = []

    def wrap(self, group, fn):
        intervals = self.intervals
        clock = time.perf_counter

        def hook(args, kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals.append((start, clock()))

        return hook

    def covered_s(self) -> float:
        """Length of the union of the recorded intervals."""
        total, reach = 0.0, float("-inf")
        for start, end in sorted(self.intervals):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return total


class CallCounter:
    """Outermost calls per layer group, plus value observations."""

    def __init__(self):
        self.calls = {group: 0 for group, _, _ in TARGETS}
        self.moments = 0
        self.moment_hits = 0
        self.channel_args = set()
        self._depth = dict(self.calls)

    def wrap(self, group, fn):
        calls, depth = self.calls, self._depth
        observe = {
            "symbols.sphere_moment": self._moment,
            "boundary.resolvent_symbol_channels": self._channels,
        }.get(group)

        def hook(args, kwargs):
            if depth[group] == 0:
                calls[group] += 1
            depth[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[group] -= 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return hook

    def _moment(self, args, kwargs, result):
        self.moments += 1
        self.moment_hits += 0 if result.is_zero else 1

    def _channels(self, args, kwargs, result):
        self.channel_args.add(repr((args, sorted(kwargs.items()))))


class FractionCounter:
    """Counts ``fractions.Fraction`` constructions while installed."""

    def __init__(self):
        self.count = 0
        self._saved = {}

    def __enter__(self):
        for name in ("__new__", "_from_coprime_ints"):
            raw = vars(Fraction).get(name)
            if raw is None:
                continue
            self._saved[name] = raw
            if isinstance(raw, classmethod):
                setattr(Fraction, name, classmethod(self._counting(raw.__func__)))
            else:
                setattr(Fraction, name, self._counting(raw.__func__ if isinstance(raw, staticmethod) else raw))
        return self

    def _counting(self, fn):
        def counted(cls, *args, **kwargs):
            self.count += 1
            return fn(cls, *args, **kwargs)

        return counted

    def __exit__(self, *exc):
        for name, raw in self._saved.items():
            setattr(Fraction, name, raw)


def workload_tasks(workload: str, seed: int):
    """The workload's checks as (label, call) pairs, in the order
    ``hodge-residue verify`` builds them."""
    from hodge_residue import boundary, residue, symbols

    tasks = []
    if workload == "interior":
        for functional_id in sorted(residue.FUNCTIONALS):
            for m in SYMBOL_ORDERS:
                tasks.append((f"{functional_id} m={m}",
                              lambda f=functional_id, mm=m: residue.verify_theorem(f, mm, TRIALS, seed)))
    elif workload == "lemmas":
        for lemma_id in residue.lemma_ids():
            for n in LEMMA_DIMENSIONS:
                tasks.append((f"{lemma_id} n={n}",
                              lambda lid=lemma_id, nn=n: residue.lemma_check(lid, nn, TRIALS, seed)))
    elif workload == "boundary":
        for flavor in ("psi1", "psi2"):
            for m in SYMBOL_ORDERS:
                tasks.append((f"{flavor} m={m}",
                              lambda fl=flavor, mm=m: boundary.verify_boundary(fl, mm, TRIALS, seed)))
        # ``verify --suite commutators`` runs one task per identity and n.
        for identity in ("c", "chat"):
            for n in COMMUTATOR_DIMENSIONS:
                tasks.append((f"commutator {identity} n={n}",
                              lambda nn=n: symbols.check_flat_commutators(nn)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tasks


def run_tasks(tasks) -> list:
    """Every task in turn; the labels (with the exception) of those that raise."""
    raised = []
    for label, task in tasks:
        try:
            task()
        except Exception as exc:  # a failed operation; the replay goes on
            raised.append(f"{label}: {type(exc).__name__}: {exc}")
    return raised


def _rel_dev(exact: complex, approx: complex) -> float:
    """Relative deviation, absolute below 1 (T3's density is exactly 0)."""
    return abs(exact - approx) / max(abs(exact), 1.0)


class ValueChecks:
    """Exact and float cross-checks of the values the replay composes.

    A composition whose public functions are gone is skipped and its names
    are listed in ``unavailable`` (they count as missing spans).
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.unavailable = set()
        self.max_rel_dev = 0.0

    def can_compose(self, *names) -> bool:
        gone = [name for name in names if _lookup(*name.split(".", 1)) is None]
        self.unavailable.update(gone)
        return not gone

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def oracle(self, exact: complex, approx: complex, what: str) -> None:
        dev = _rel_dev(exact, approx)
        self.max_rel_dev = max(self.max_rel_dev, dev)
        self.expect(dev <= ORACLE_TOLERANCE, f"{what}: oracle deviation {dev:.3e}")

    def run(self, workload: str, seed: int) -> None:
        check = {"interior": self.interior, "lemmas": self.lemmas, "boundary": self.boundary}[workload]
        try:
            check(seed)
        except Exception as exc:  # a failed check, not a crashed replay
            self.expect(False, f"value checks raised {type(exc).__name__}: {exc}")

    def interior(self, seed: int) -> None:
        """Composed ``trace_integrate(word, interior_integrand(lift))`` equals
        ``spectral_density`` exactly; ``float_density`` agrees with both."""
        from hodge_residue import exterior, forms, oracle, residue, symbols

        compose = self.can_compose(
            "exterior.clifford_word", "symbols.interior_integrand", "symbols.trace_integrate"
        )
        for functional_id in sorted(residue.FUNCTIONALS):
            spec = residue.FUNCTIONALS[functional_id]
            for m in SYMBOL_ORDERS:
                n = 2 * m
                rng = random.Random(f"bench:{seed}:interior:{functional_id}:{m}")
                form = forms.random_form(n, spec.torsion_degree, rng)
                vectors = [forms.random_vector(n, rng) for _ in spec.arg_flavors]
                what = f"{functional_id} m={m}"
                direct = residue.spectral_density(functional_id, form, vectors, m)
                if compose:
                    word = exterior.clifford_word(n, list(zip(spec.arg_flavors, vectors)))
                    integrand = symbols.interior_integrand(spec.lift(form), m, spec.prefactor)
                    composed = symbols.trace_integrate(word, integrand)
                    self.expect(composed == direct, f"{what}: composed density != spectral_density")
                approx = oracle.float_density(
                    spec.arg_flavors,
                    spec.lift.__name__[len("lift_"):],
                    complex(spec.prefactor),
                    form,
                    vectors,
                    m,
                )
                self.oracle(direct.numeric(), approx, what)

    def lemmas(self, seed: int) -> None:
        """Each placement's composed trace matches the dense float oracle."""
        from hodge_residue import exterior, forms, oracle, residue, symbols

        plain = self.can_compose("exterior.clifford_word", "exterior.trace_product")
        sandwich = self.can_compose(
            "exterior.clifford_word", "residue.sandwich_integrand", "symbols.trace_integrate"
        )
        for lemma_id in residue.lemma_ids():
            spec = residue.LEMMA_CHECKS[lemma_id]
            for n in LEMMA_DIMENSIONS:
                rng = random.Random(f"bench:{seed}:lemma:{lemma_id}:{n}")
                vectors = [forms.random_vector(n, rng) for _ in spec.word_flavors]
                form = forms.random_form(n, spec.form_degree, rng) if spec.form_degree else None
                letters = list(zip(spec.word_flavors, vectors))
                if spec.lift is None:
                    lift = exterior.LinearOp.identity(n)
                elif spec.lift == "normal_c":
                    lift = exterior.clifford_generator("c", n, n)
                else:
                    lift = getattr(forms, f"lift_{spec.lift}")(form)
                dense_word = oracle.dense_word(n, letters)
                dense_lift = oracle.dense_lift(spec.lift, form, n)
                for placement in spec.placements:
                    what = f"{lemma_id} n={n} {placement}"
                    if placement == "plain" and plain:
                        word = exterior.clifford_word(n, letters)
                        exact = complex(exterior.trace_product(word, lift))
                        approx = oracle.float_plain_trace(dense_word, dense_lift)
                    elif placement != "plain" and sandwich:
                        word = exterior.clifford_word(n, letters)
                        poly = residue.sandwich_integrand(lift, placement)
                        exact = symbols.trace_integrate(word, poly).numeric()
                        approx = oracle.float_sandwich_integral(dense_word, dense_lift, placement, n)
                    else:
                        continue
                    self.oracle(exact, approx, what)

    def boundary(self, seed: int) -> None:
        """Composed channel-by-channel boundary density equals
        ``boundary_density`` exactly."""
        from hodge_residue import boundary, exterior, forms, scalars, symbols

        compose = self.can_compose(
            "exterior.clifford_word",
            "boundary.normal_derivative_symbol",
            "boundary.resolvent_symbol_channels",
            "boundary.pi_plus",
            "boundary.RationalXnOp.trace_against",
            "boundary.ScalarRational.line_integral",
            "symbols.sphere_moment",
        )
        if not compose:
            return
        for flavor in ("psi1", "psi2"):
            for m in SYMBOL_ORDERS:
                n = 2 * m
                rng = random.Random(f"bench:{seed}:boundary:{flavor}:{m}")
                u, v, w = (tuple(forms.random_vector(n, rng)) for _ in range(3))
                direct = boundary.boundary_density(boundary.BoundaryArgs(flavor, u, v, w, m))
                word = exterior.clifford_word(n, list(zip(BOUNDARY_WORDS[flavor], (u, v, w))))
                derivative = boundary.normal_derivative_symbol(m)
                composed = scalars.SymbolicScalar()
                for alpha, channel in boundary.resolvent_symbol_channels(n).items():
                    scalar = boundary.pi_plus(channel).trace_against(word) * derivative
                    composed = composed + symbols.sphere_moment(alpha, n - 1) * scalar.line_integral()
                self.expect(composed == direct, f"{flavor} m={m}: composed density != boundary_density")


def _percentile_summary(durations):
    """Median and tail (ms): the tail is the highest percentile with at least
    ten samples above it, or the median when that percentile is below it
    (fewer than 21 samples)."""
    if not durations:
        return {"n": 0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": None}
    ordered = sorted(durations)
    count = len(ordered)
    p50 = statistics.median(ordered)
    if count < 21:
        return {"n": count, "p50_ms": p50 * 1e3, "tail_ms": p50 * 1e3, "tail_pct": 50}
    index = count - 11
    return {
        "n": count,
        "p50_ms": p50 * 1e3,
        "tail_ms": ordered[index] * 1e3,
        "tail_pct": 100 * (index + 1) // count,
    }


def cli(suite: str, seed: int) -> dict:
    """``hodge-residue verify --suite <suite>`` in this process, check calls
    hooked: the time no check is running is the CLI's own glue (argument
    parsing, worker pool, sorting, rendering)."""
    _package()
    recorder = IntervalRecorder()
    buffer = io.StringIO()
    with Hooks(CHECK_TARGETS, recorder.wrap) as hooks, contextlib.redirect_stdout(buffer):
        t0 = time.perf_counter()
        code = run_cli(["verify", "--suite", suite, "--seed", str(seed)])
        wall_s = time.perf_counter() - t0
    return {
        "mode": "cli",
        "exit": code,
        "report": buffer.getvalue(),
        "wall_s": wall_s,
        "covered_s": recorder.covered_s(),
        "checks": len(recorder.intervals),
        "missing": hooks.missing,
    }


def timed(workload: str, seed: int) -> dict:
    import_s = _package()
    tasks = workload_tasks(workload, seed)
    recorder = SpanRecorder()
    with Hooks(TARGETS, recorder.wrap) as hooks:
        t0 = time.perf_counter()
        raised = run_tasks(tasks)
        wall_s = time.perf_counter() - t0
    missing = list(hooks.missing)

    checks = ValueChecks()
    oracle_recorder = SpanRecorder()
    with Hooks(ORACLE_TARGETS, oracle_recorder.wrap) as oracle_hooks:
        checks.run(workload, seed)
    missing += oracle_hooks.missing

    stats = {}
    for group in GROUPS:
        source = oracle_recorder if group.startswith("oracle.") else recorder
        entry = source.stats[group]
        stats[group] = {"calls": entry["calls"], "self_s": entry["self_s"]}
        stats[group].update(_percentile_summary(entry["durations"]))

    return {
        "mode": "timed",
        "import_s": import_s,
        "wall_s": wall_s,
        "top_level_s": recorder.top_level_s,
        "spans": recorder.spans,
        "tasks": len(tasks),
        "raised": raised,
        "missing": missing,
        "stats": stats,
        "value_checks": {
            "attempted": checks.attempted,
            "failures": checks.failures,
            "unavailable": sorted(checks.unavailable),
            "max_rel_dev": checks.max_rel_dev,
        },
    }


def count(workload: str, seed: int) -> dict:
    _package()
    tasks = workload_tasks(workload, seed)
    counter = CallCounter()
    with Hooks(TARGETS, counter.wrap) as hooks, FractionCounter() as fractions:
        raised = run_tasks(tasks)
    return {
        "mode": "count",
        "tasks": len(tasks),
        "raised": raised,
        "missing": hooks.missing,
        "calls": counter.calls,
        "fraction_new": fractions.count,
        "moments": counter.moments,
        "moment_hits": counter.moment_hits,
        "channel_builds": counter.calls["boundary.resolvent_symbol_channels"],
        "channel_distinct": len(counter.channel_args),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("interior", "lemmas", "boundary"))
    parser.add_argument("--suite", help="suite of --mode cli")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("cli", "timed", "count"))
    args = parser.parse_args(argv)
    if (args.mode == "cli") != (args.suite is not None) or (args.mode == "cli") == (args.workload is not None):
        parser.error("--mode cli takes --suite; the other modes take --workload")
    if args.mode == "cli":
        result = cli(args.suite, args.seed)
    elif args.mode == "timed":
        result = timed(args.workload, args.seed)
    else:
        result = count(args.workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
