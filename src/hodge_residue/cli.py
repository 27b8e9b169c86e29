"""Command-line front end: verification suites, densities, boundary values.

``hodge-residue verify`` runs the selected check suites and writes a
deterministic JSON (or markdown) report; the exit code doubles as a CI gate
(0 all checks pass, 1 at least one failed, 2 bad configuration or input).
``density`` and ``boundary`` evaluate single functionals on user-supplied
inputs.  The parser is the standard library's ``argparse``, built at import."""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from pathlib import Path
from typing import Dict, Iterator, List, NoReturn, Optional, Sequence

from .boundary import (
    boundary_density,
    closed_form_boundary_coefficient,
    verify_boundary,
)
from .exterior import MAX_DIMENSION
from .forms import form_from_json, vectors_from_json
from .residue import (
    FUNCTIONALS,
    CheckReport,
    _check_trials,
    _symbol_order,
    boundary_contraction,
    lemma_check,
    lemma_ids,
    spectral_density,
    verify_theorem,
)
from .scalars import SymbolicScalar, sphere_volume
from .symbols import check_flat_commutators

SUITES = ("lemmas", "theorems", "boundary", "commutators", "all")
# the suites each override applies to: lemma and commutator checks run at a
# dimension n, theorem and boundary checks at a symbol order m (n = 2m)
N_SUITES = ("lemmas", "commutators", "all")
M_SUITES = ("theorems", "boundary", "all")

DEFAULT_LEMMA_DIMENSIONS = (4, 6)
DEFAULT_SYMBOL_ORDERS = (2, 3)
DEFAULT_COMMUTATOR_DIMENSIONS = (2, 4)
# a check's status is decided before its trials, which only pick the values
# shown: they stop at the first trial with a nonzero unit, or for a failure
# the first on which its sides disagree, so --suite lemmas --n 14 takes about
# 0.09 s at this many trials (cold process, 2 vCPU, Python 3.11).  The cap
# bounds a run whose draws show no such trial, which draws every one, and a
# four_mixed kernel is contracted on each (about 0.8 ms per trial at n = 14)
MAX_TRIALS = 1000


def _usage(message: str) -> NoReturn:
    """Bad configuration or input: the message on stderr, exit code 2."""
    sys.stderr.write(f"Error: {message}\n")
    sys.exit(2)


def _order_option(text: str) -> int:
    """A symbol order m, by the library's rule; a refusal is the rule's message."""
    try:
        m = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        _symbol_order(m)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return m


def _commutator_reports(n: int) -> List[CheckReport]:
    """One report per identity, from a single run of the commutator check."""
    records = check_flat_commutators(n)
    reports = []
    for identity in ("c", "chat"):
        mine = [r for r in records if r["identity"] == identity]
        mismatches = sum(r["mismatches"] for r in mine)
        reports.append(CheckReport(
            check_id=f"commutator.{identity}",
            n=n,
            trials=sum(r["monomials"] for r in mine),
            status="pass" if mismatches == 0 else "fail",
            computed=f"{mismatches} mismatching monomials",
            expected="0 mismatching monomials",
        ))
    return reports


def _run_checks(suite: str, n_values: Sequence[int], m_values: Sequence[int],
                commutator_ns: Sequence[int], trials: int, seed: int) -> Iterator[CheckReport]:
    if suite in ("lemmas", "all"):
        for lemma_id in lemma_ids():
            for n in n_values:
                yield lemma_check(lemma_id, n, trials, seed)
    if suite in ("theorems", "all"):
        for functional_id in sorted(FUNCTIONALS):
            for m in m_values:
                yield verify_theorem(functional_id, m, trials, seed)
    if suite in ("boundary", "all"):
        for flavor in ("psi1", "psi2"):
            for m in m_values:
                yield verify_boundary(flavor, m, trials, seed)
    if suite in ("commutators", "all"):
        for n in commutator_ns:
            yield from _commutator_reports(n)


def _render_markdown(report: Dict) -> str:
    lines = [
        "# Verification report",
        "",
        f"- suite: `{report['config']['suite']}`",
        f"- seed: {report['config']['seed']}, trials: {report['config']['trials']}",
        f"- summary: {report['summary']['pass']} pass, {report['summary']['fail']} fail",
        "",
        "| id | n | trials | status | computed | expected |",
        "|----|---|--------|--------|----------|----------|",
    ]
    for check in report["checks"]:
        lines.append(
            "| {id} | {n} | {trials} | {status} | `{computed}` | `{expected}` |".format(**check)
        )
    lines.append("")
    return "\n".join(lines)


def _render(value: SymbolicScalar) -> str:
    """The exact value's text; one the interpreter will not print is bad input."""
    try:
        return value.render()
    except ValueError:  # Fraction.__str__ of an integer past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        _usage(f"invalid input: the exact value has an integer of more than {limit} digits")


def cmd_verify(suite: str, n_value: Optional[int], m_value: Optional[int], trials: int,
               seed: int, out: Optional[Path], fmt: str) -> None:
    """Run verification suites and emit a deterministic report."""
    try:
        _check_trials(trials)
    except ValueError as exc:  # the library's message, named as the option
        _usage(f"--{exc}")
    if trials > MAX_TRIALS:
        _usage(f"--trials must be <= {MAX_TRIALS}: a check draws trials until one shows the values it "
               f"reports, and one whose draws never do draws every one; got {trials}")
    if n_value is not None and suite not in N_SUITES:
        _usage(f"--n does not apply to --suite {suite}: its checks run at n = 2m; use --m")
    if m_value is not None and suite not in M_SUITES:
        _usage(f"--m does not apply to --suite {suite}: its checks run at a dimension n; use --n")
    if n_value is not None and not (
        2 <= n_value <= MAX_DIMENSION and (suite == "commutators" or n_value % 2 == 0 and n_value >= 4)
    ):
        _usage(
            f"--n must be even with 4 <= n <= {MAX_DIMENSION} for --suite lemmas and --suite all, "
            f"and 2 <= n <= {MAX_DIMENSION} for --suite commutators; got {n_value} for --suite {suite}"
        )
    if out is not None and (out.is_dir() or out.exists() and not os.access(out, os.W_OK)):
        _usage(f"--out: {out} is a directory or a file that cannot be written")
    if out is not None and not out.parent.is_dir():
        _usage(f"--out: directory {out.parent} does not exist")
    n_values = (n_value,) if n_value is not None else DEFAULT_LEMMA_DIMENSIONS
    m_values = (m_value,) if m_value is not None else DEFAULT_SYMBOL_ORDERS
    commutator_ns = (n_value,) if n_value is not None else DEFAULT_COMMUTATOR_DIMENSIONS

    reports = sorted(
        _run_checks(suite, n_values, m_values, commutator_ns, trials, seed),
        key=lambda r: (r.check_id, r.n),
    )

    passed = sum(1 for r in reports if r.passed)
    failed = len(reports) - passed
    report = {
        "version": 1,
        "config": {
            "suite": suite,
            "n": sorted(n_values),
            "m": sorted(m_values),
            "trials": trials,
            "seed": seed,
        },
        "checks": [r.to_dict() for r in reports],
        "summary": {"pass": passed, "fail": failed},
    }
    rendered = (
        json.dumps(report, indent=2, sort_keys=True) + "\n"
        if fmt == "json"
        else _render_markdown(report)
    )
    if out is not None:
        out.write_text(rendered, encoding="utf-8")
        print(f"{passed} pass, {failed} fail -> {out}")
    else:
        sys.stdout.write(rendered)
    if failed:
        sys.exit(1)


def cmd_density(functional_id: str, m: int, form_path: Path, vectors_path: Path) -> None:
    """Evaluate one interior density on a form/vectors pair (exact + float)."""
    try:
        form = form_from_json(form_path)
        vectors = vectors_from_json(vectors_path)
        value = spectral_density(functional_id, form, vectors, m)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _usage(f"invalid input: {exc}")
    print(_render(value))
    try:
        numeric = value.numeric()
    except OverflowError:
        numeric = complex("inf")
    print(f"float: {numeric}" if cmath.isfinite(numeric) else "float: outside float range")


def cmd_boundary(flavor: str, m: int, vectors_path: Path) -> None:
    """Evaluate one boundary density and compare with its closed form."""
    try:
        vectors = vectors_from_json(vectors_path)
        if len(vectors) != 3:
            raise ValueError("boundary densities take exactly three vectors")
        u, v, w = (tuple(vec) for vec in vectors)
        engine = boundary_density(flavor, u, v, w, m)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _usage(f"invalid input: {exc}")
    n = 2 * m
    closed = (
        closed_form_boundary_coefficient(flavor, m)
        * boundary_contraction(flavor, u, v, w)
        * (1 << n)
        * sphere_volume(n - 2)
    )
    # both rendered before either is printed
    print(f"engine: {_render(engine)}\nclosed form: {_render(closed)}")
    verdict = "match" if engine == closed else "MISMATCH"
    print(f"verdict: {verdict}")
    if verdict != "match":
        sys.exit(1)


# built once, at import, not per call; options are spelled in full, and help is --help only
_HELP = argparse.ArgumentParser(add_help=False)
_HELP.add_argument("--help", action="help", help="Show this message and exit.")
_OPTIONS = dict(add_help=False, allow_abbrev=False, parents=[_HELP])
_PARSER = argparse.ArgumentParser(prog="hodge-residue", description=__doc__.splitlines()[0], **_OPTIONS)
_commands = _PARSER.add_subparsers(required=True, metavar="COMMAND", dest="command")

_verify = _commands.add_parser("verify", help=cmd_verify.__doc__, **_OPTIONS)
_verify.add_argument("--suite", choices=SUITES, default="all", help="(default: %(default)s)")
_verify.add_argument("--n", dest="n_value", metavar="N", type=int,
                     help="Single dimension override (lemma/commutator suites).")
_verify.add_argument("--m", dest="m_value", metavar="M", type=_order_option,
                     help="Single symbol-order override (theorem/boundary suites).")
_verify.add_argument("--trials", type=int, default=20, help="(default: %(default)s)")
_verify.add_argument("--seed", type=int, default=0, help="(default: %(default)s)")
_verify.add_argument("--out", metavar="FILE", type=Path)
_verify.add_argument("--format", dest="fmt", choices=("json", "md"), default="json", help="(default: %(default)s)")
_verify.set_defaults(run=cmd_verify)

_density = _commands.add_parser("density", help=cmd_density.__doc__, **_OPTIONS)
_density.add_argument("functional_id", choices=sorted(FUNCTIONALS))
_density.add_argument("--m", type=_order_option, required=True)
_density.add_argument("--form", dest="form_path", metavar="FILE", type=Path, required=True)
_density.add_argument("--vectors", dest="vectors_path", metavar="FILE", type=Path, required=True)
_density.set_defaults(run=cmd_density)

_boundary = _commands.add_parser("boundary", help=cmd_boundary.__doc__, **_OPTIONS)
_boundary.add_argument("flavor", choices=("psi1", "psi2"))
_boundary.add_argument("--m", type=_order_option, required=True)
_boundary.add_argument("--vectors", dest="vectors_path", metavar="FILE", type=Path, required=True)
_boundary.set_defaults(run=cmd_boundary)


def main(args: Optional[Sequence[str]] = None, prog_name: Optional[str] = None,
         standalone_mode: bool = True) -> None:
    """Run ``hodge-residue`` on ``args`` (default ``sys.argv[1:]``); ``prog_name`` and
    ``standalone_mode`` are ignored, accepted because ``bench/entry.py`` passes them."""
    namespace, unknown = _PARSER.parse_known_args(args)
    options = vars(namespace)
    parser = _commands.choices[options.pop("command")]
    if unknown:  # the subcommand's parser reports them, so its usage line is printed
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    command = options.pop("run")
    command(**options)


if __name__ == "__main__":  # pragma: no cover
    main()
