"""Unified command-line front end.

Every command echoes its configuration (seed included) into the report
it emits, so identical configurations produce byte-identical reports up
to the timestamp and elapsed-time fields.  Exit codes: 0 success, 2
usage or malformed input, 3 resource limit, 4 precondition failure, 5
internal invariant breach.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from functools import wraps
from typing import Optional

import click

from . import __version__
from .errors import (
    ConfigurationError,
    InternalInvariantError,
    MalformedInputError,
    PreconditionError,
    ResourceLimitError,
    TsGroupsError,
)
from .groups import FreeOracle, make_oracle
from .sequences import (
    label_tree_adversarial,
    label_tree_three_letters,
    random_tree_adversary,
    squarefree_ternary,
)
from .testers import (
    PropertySpec,
    SearchBudget,
    XiParams,
    _product_check_scale,
    _replay_witness,
    burnside_pipeline,
    construct_xi,
    test_property,
    verify_product_aperiodicity,
)
from .tours import (
    RelatedSet,
    SamplerConfig,
    folner_traversal_demo,
    revise,
    tsp_exact,
    tsp_heuristic,
    ts_lambda_experiment,
)
from .forests import build_forest_p, build_forest_p10, verify_forest
from .trees import PlaneTernaryTree
from .words import format_word, parse_word


# Input caps: past them a command exits 3 before any work.  Timed on a
# 2-vCPU VM.
SEQ_LETTERS_CAP = 10_000_000  # seq thue --n: 1.6 s and 116 MB at the cap
TREE_VERTICES_CAP = 100_000  # tree label --vertices: 1.0 s (3letter), 1.9 s (adversarial)
# property test --r: when the r-ball is too big, the sampled pool draws
# 5,000 elements of up to r letters, so --r 1000 takes 2.7 s on free:2
# and 39 s for P10 on f2xz:n=2; --r 3000 takes 11.6 s on free:2
PROPERTY_RADIUS_CAP = 1_000
# property test --k-max: each sample multiplies up to k-max pairs, so
# P10 at --r 12 on free:2 takes 0.9 s at 100 and 15.8 s at 1,000
PROPERTY_K_CAP = 100
# experiment ts-lambda --max-size: the sampler builds sets of up to this
# many points.  Free groups solve every size in closed form: 5 samples on
# free:2 (--xi "a b a", seed 1) take 11.5 s and 718 MB at 10,000, 17 s
# with --lprime, most of it on one 8,540-point chain of 87 M letters.
# Other groups' exact solver refuses sets past 15 points; 10^11 runs out
# of memory
SAMPLE_SIZE_CAP = 10_000
# folner demo --box: points the traversal walks; 10^5 take 1.6 s, 10^6
# take 17 s and 525 MB
BOX_POINTS_CAP = 100_000


def _check_cap(what: str, value: int, cap: int):
    if value > cap:
        raise ResourceLimitError(f"{what} {value} exceeds cap {cap}")


def ball_limit_from_env() -> int:
    """The property tester's ball limit: min(20,000, N * 10,000) elements
    when TS_GROUPS_BUDGET_MB=N is set (N counts elements, not megabytes),
    else 20,000."""
    default = SearchBudget().ball_limit
    mb = os.environ.get("TS_GROUPS_BUDGET_MB")
    if not mb:
        return default
    try:
        return min(default, max(1, int(mb)) * 10_000)
    except ValueError:
        raise ConfigurationError(f"bad TS_GROUPS_BUDGET_MB value {mb!r}") from None


def emit_report(config: dict, payload: dict, started: float, out: Optional[str] = None,
                fmt: str = "json", csv_rows=None):
    report = {
        "schema": 1,
        "version": __version__,
        "config": config,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        **payload,
    }
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        if csv_rows is None:
            raise ConfigurationError("this command has no CSV projection")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0]) if csv_rows else ["empty"])
        writer.writeheader()
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in report.items()) + "\n"
    _write_or_echo(text, out)


def _write_or_echo(text: str, out: Optional[str]):
    if out:
        with _user_file(out, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


def _user_file(path, mode="r"):
    """open() for a file named on the command line; one that cannot be
    opened is malformed input."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise MalformedInputError(f"cannot open {path!r}: {exc.strerror}") from None


def _read_text(path) -> str:
    """The whole text of a file named on the command line or in a stored
    report; one that is not UTF-8 is malformed input."""
    with _user_file(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise MalformedInputError(f"{path!r} is not UTF-8 text") from None


def _text_lines(path):
    return [ln.strip() for ln in _read_text(path).split("\n") if ln.strip()]


class _StoredObject(dict):
    """A JSON object read from a stored report; a missing key is malformed input."""

    def __missing__(self, key):
        raise MalformedInputError(f"stored report has no {key!r} field")


def _load_report(path) -> dict:
    """A stored report: a JSON object whose ``config`` echo is an object."""
    try:
        report = json.loads(_read_text(path), object_hook=_StoredObject)
    except ValueError as exc:
        raise MalformedInputError(f"{path!r} is not JSON: {exc}") from None
    if not isinstance(report, dict) or not isinstance(report.get("config"), dict):
        raise MalformedInputError(f"{path!r} is not a report: no config object")
    return report


def _is_text(value):
    return isinstance(value, str)


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_text_list(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_object(value):
    return isinstance(value, dict)


def _is_object_list(value):
    return isinstance(value, list) and all(isinstance(v, dict) for v in value)


def _is_sign_list(value):
    return isinstance(value, list) and all(_is_integer(v) and v in (1, -1) for v in value)


_FAMILIES = ("P", "P'", "P10", "P10'", "Pn'")
_MODES = ("P", "P10")
_TOURS = ("exact", "heuristic")


_REQUIRED = object()


def _stored(obj, key, valid, default=_REQUIRED):
    """A field of a stored report that must pass ``valid``; a field with a
    default may also be missing or null."""
    if default is _REQUIRED:
        value = obj[key]
    else:
        value = obj.get(key)
        if value is None:
            return default
    if not valid(value):
        raise MalformedInputError(f"stored report field {key!r} has a bad value {value!r}")
    return value


def _stored_input(cfg, key, valid, option):
    """A command input that a stored config echo may hold: an option
    fills it in or repeats it, and contradicting it is a usage error."""
    value = _stored(cfg, key, valid, None)
    if value is None:
        return option
    if option is not None and option != value:
        raise ConfigurationError(f"{key} {option!r} contradicts the stored {value!r}")
    return value


def _parse_lambda(text) -> Fraction:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise MalformedInputError(f"bad lambda value {text!r}") from None


def cli_errors(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except TsGroupsError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


def reporting(subcommand: str):
    """Decorator for the commands that emit a report.

    The command returns a dict with ``config`` (the echo of its inputs),
    ``payload`` and optionally ``out``, ``fmt``, ``csv_rows`` (passed on
    to `emit_report`) and ``failure``: an error raised only after the
    report is out, so a failed check still leaves its evidence.  The
    config echo always carries ``subcommand`` and ``seed`` (null for
    commands without one).
    """

    def decorate(fn):
        @wraps(fn)
        def command(*args, **kwargs):
            started = time.perf_counter()
            run = fn(*args, **kwargs)
            failure = run.pop("failure", None)
            config = {"subcommand": subcommand, "seed": None, **run.pop("config")}
            emit_report(config, run.pop("payload"), started, **run)
            if failure is not None:
                raise failure

        return cli_errors(command)

    return decorate


def _property_spec(family, n, r, oracle, xi) -> PropertySpec:
    """The spec a CLI family stands for: P' is Pn' at n=1, P10 and P10'
    are Pn' at n=10, and Pn' takes its n from the caller."""
    if family == "P":
        return PropertySpec("P", r=r, oracle=oracle, xi=xi)
    n = {"P'": 1, "P10": 10, "P10'": 10}.get(family, n)
    if n is None:
        raise ConfigurationError("family Pn' needs --n")
    return PropertySpec("Pn'", r=r, oracle=oracle, xi=xi, n=n)


def _read_elements(oracle, path):
    return tuple(oracle.parse_element(ln) for ln in _text_lines(path))


def _xi_argument(oracle, text):
    """Accept either an element in text form or a path to a word file."""
    if os.path.exists(text):
        return oracle.parse_element(_read_text(text).strip())
    return oracle.parse_element(text)


@click.group()
@click.version_option(__version__)
def main():
    """Word combinatorics and traveling-salesman bounds on Cayley
    metrics."""


# -- seq ---------------------------------------------------------------------


@main.group()
def seq():
    """Sequence generators."""


@seq.command("thue")
@click.option("--n", type=int, required=True, help="number of letters")
@cli_errors
def seq_thue(n):
    """Print the first N letters of the square-free ternary sequence."""
    _check_cap("--n", n, SEQ_LETTERS_CAP)
    click.echo(squarefree_ternary(n))


# -- tree --------------------------------------------------------------------


@main.group()
def tree():
    """Plane ternary tree labelings."""


@tree.command("label")
@click.option("--mode", type=click.Choice(["3letter", "adversarial"]), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--vertices", type=click.IntRange(min=1), default=60, show_default=True)
@click.option("--tree-file", type=click.Path(exists=True), default=None,
              help="read the tree instead of generating one")
@click.option("--out", type=click.Path(), default=None)
@cli_errors
def tree_label(mode, seed, vertices, tree_file, out):
    """Label a tree and dump edges as TSV: edge_from edge_to token."""
    if tree_file:
        t = PlaneTernaryTree.parse(_read_text(tree_file))
    else:
        _check_cap("--vertices", vertices, TREE_VERTICES_CAP)
        t = PlaneTernaryTree.random(vertices, seed)
    if mode == "3letter":
        labeled = label_tree_three_letters(t)
    else:
        labeled = label_tree_adversarial(t, set("wxyz"), random_tree_adversary(seed))
    lines = [
        f"{t.parent[child]}\t{child}\t{labeled.edge_labels[child]}"
        for child in sorted(labeled.edge_labels)
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    _write_or_echo(text, out)


# -- tsp ---------------------------------------------------------------------


@main.command("tsp")
@click.option("--group", "descriptor", required=True)
@click.option("--set", "set_file", type=click.Path(exists=True), required=True)
@click.option("--exact/--heuristic", default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
@reporting("tsp")
def tsp_cmd(descriptor, set_file, exact, seed, out, fmt):
    """Solve the closed tour over a point-set file."""
    oracle = make_oracle(descriptor)
    pts = _read_elements(oracle, set_file)
    rset = RelatedSet(oracle, None, pts)
    tour = tsp_exact(rset) if exact else tsp_heuristic(rset, seed)
    return {
        "config": {"group": descriptor, "set": set_file, "exact": exact, "seed": seed},
        "payload": {
            "L": tour.length,
            "kind": tour.kind,
            "order": [oracle.format_element(g) for g in tour.order],
        },
        "out": out,
        "fmt": fmt,
    }


# -- experiment --------------------------------------------------------------


@main.group()
def experiment():
    """Sampled experiments."""


@experiment.command("ts-lambda")
@click.option("--group", "descriptor", default="free:2", show_default=True)
@click.option("--xi", "xi_text", required=True)
@click.option("--lambda", "lam", required=True)
@click.option("--samples", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--style", type=click.Choice(["pairs", "chains", "mixed", "box-pairs"]),
              default="mixed", show_default=True)
@click.option("--max-size", type=int, default=12, show_default=True)
@click.option("--lprime", is_flag=True, help="also compute the credited cost")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
@reporting("experiment ts-lambda")
def experiment_ts_lambda(descriptor, xi_text, lam, samples, seed, style, max_size,
                         lprime, jobs, out, fmt):
    """Sample related sets and test L(S) >= lambda |S|."""
    _check_cap("--max-size", max_size, SAMPLE_SIZE_CAP)
    oracle = make_oracle(descriptor)
    xi = oracle.parse_element(xi_text)
    _parse_lambda(lam)
    config = SamplerConfig(
        samples=samples, seed=seed, max_size=max_size, style=style,
        compute_lprime=lprime,
    )
    if jobs > 1:
        # imported here: a serial run should not pay for loading the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            report = ts_lambda_experiment(oracle, xi, lam, config, pool.map)
    else:
        report = ts_lambda_experiment(oracle, xi, lam, config)
    return {
        "config": {"group": descriptor, "xi": xi_text, "lambda": str(lam), "style": style,
                   "samples": samples, "max_size": max_size, "jobs": jobs, "seed": seed},
        "payload": report.to_dict(),
        "out": out,
        "fmt": fmt,
        "csv_rows": report.per_sample,
    }


# -- forest ------------------------------------------------------------------


@main.group()
def forest():
    """Cluster-tree forest construction and verification."""


def _load_revised(descriptor, set_file, xi_text):
    oracle = make_oracle(descriptor)
    xi = _xi_argument(oracle, xi_text)
    pts = _read_elements(oracle, set_file)
    return oracle, revise(RelatedSet(oracle, xi, pts))


def _build_forest(mode, rset, r, tour_kind, seed):
    tour = tsp_exact(rset) if tour_kind == "exact" else tsp_heuristic(rset, seed)
    build = build_forest_p if mode == "P" else build_forest_p10
    return build(rset, r, tour)


@forest.command("build")
@click.option("--mode", type=click.Choice(_MODES), required=True)
@click.option("--r", type=int, required=True)
@click.option("--group", "descriptor", default="free:2", show_default=True)
@click.option("--set", "set_file", type=click.Path(exists=True), required=True)
@click.option("--xi", "xi_text", required=True, help="xi word/element text")
@click.option("--tour", "tour_kind", type=click.Choice(_TOURS),
              default="exact", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@reporting("forest build")
def forest_build(mode, r, descriptor, set_file, xi_text, tour_kind, seed, out):
    """Build a forest over a related set and emit forest.json."""
    oracle, rset = _load_revised(descriptor, set_file, xi_text)
    fo = _build_forest(mode, rset, r, tour_kind, seed)
    return {
        "config": {"mode": mode, "r": r, "group": descriptor, "set": set_file, "xi": xi_text,
                   "tour": tour_kind, "seed": seed},
        "payload": fo.to_dict(oracle),
        "out": out,
    }


@forest.command("verify")
@click.argument("forest_json", type=click.Path(exists=True), required=False)
@click.option("--mode", type=click.Choice(_MODES), default=None)
@click.option("--r", type=int, default=None)
@click.option("--group", "descriptor", default=None)
@click.option("--set", "set_file", type=click.Path(exists=True), default=None)
@click.option("--xi", "xi_text", default=None)
@click.option("--tour", "tour_kind", type=click.Choice(_TOURS),
              default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@reporting("forest verify")
def forest_verify(forest_json, mode, r, descriptor, set_file, xi_text, tour_kind,
                  seed, out):
    """Re-check every forest invariant.

    Given a forest.json produced by `forest build`, its config echo
    supplies the inputs; the forest is rebuilt deterministically,
    compared against the stored trees, and re-verified.  The inputs can
    also be given explicitly through the options; with a forest.json an
    option may fill in or repeat a stored input but not contradict it,
    so a mismatch with the stored trees means the report was altered.
    """
    stored = None
    if forest_json is not None:
        stored = _load_report(forest_json)
        cfg = stored["config"]
        mode = _stored_input(cfg, "mode", _MODES.__contains__, mode)
        r = _stored_input(cfg, "r", _is_integer, r)
        descriptor = _stored_input(cfg, "group", _is_text, descriptor)
        set_file = _stored_input(cfg, "set", _is_text, set_file)
        xi_text = _stored_input(cfg, "xi", _is_text, xi_text)
        tour_kind = _stored_input(cfg, "tour", _TOURS.__contains__, tour_kind)
        seed = _stored_input(cfg, "seed", _is_integer, seed)
    descriptor = descriptor or "free:2"
    if None in (mode, r, set_file, xi_text):
        raise ConfigurationError(
            "give a forest.json or all of --mode/--r/--set/--xi"
        )
    tour_kind = tour_kind or "exact"
    seed = seed or 0
    oracle, rset = _load_revised(descriptor, set_file, xi_text)
    fo = _build_forest(mode, rset, r, tour_kind, seed)
    rep = verify_forest(fo, rset, r)
    payload = rep.to_dict()
    if stored is not None:
        rebuilt = fo.to_dict(oracle)
        payload["matches_stored"] = all(
            stored.get(k) == rebuilt[k]
            for k in ("mode", "r", "trees", "census", "certified_bound")
        )
    failed = not rep.ok or (stored is not None and not payload["matches_stored"])
    return {
        "config": {"mode": mode, "r": r, "group": descriptor, "set": set_file, "xi": xi_text,
                   "tour": tour_kind, "seed": seed},
        "payload": payload,
        "out": out,
        "failure": InternalInvariantError("forest verification failed") if failed else None,
    }


# -- property ----------------------------------------------------------------


@main.group(name="property")
def property_group():
    """Alternating-product property testers."""


@property_group.command("test")
@click.option("--family", type=click.Choice(_FAMILIES),
              required=True)
@click.option("--n", "n_ap", type=int, default=None, help="aperiodicity order for Pn'")
@click.option("--r", type=int, required=True)
@click.option("--group", "descriptor", default="free:2", show_default=True)
@click.option("--xi", "xi_text", default=None)
@click.option("--xi-from-lemma4", is_flag=True,
              help="use the constructed marker word as xi")
@click.option("--k-max", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=5000, show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=None,
              help="overrides --samples and the exhaustion threshold")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@reporting("property test")
def property_test(family, n_ap, r, descriptor, xi_text, xi_from_lemma4, k_max,
                  samples, budget, seed, out):
    """Search for counterexamples to an alternating-product property."""
    _check_cap("--r", r, PROPERTY_RADIUS_CAP)
    _check_cap("--k-max", k_max, PROPERTY_K_CAP)
    oracle = make_oracle(descriptor)
    if xi_from_lemma4:
        if not (isinstance(oracle, FreeOracle) and oracle.rank == 2):
            raise ConfigurationError("--xi-from-lemma4 requires the free group free:2")
        xi = construct_xi(seed).word
    elif xi_text is not None:
        xi = _xi_argument(oracle, xi_text)
    else:
        raise ConfigurationError("give --xi or --xi-from-lemma4")
    spec = _property_spec(family, n_ap, r, oracle, xi)
    if budget is not None:
        samples = budget
    search = SearchBudget(
        k_max=k_max,
        samples=samples,
        seed=seed,
        exhaustive_limit=budget if budget is not None else SearchBudget().exhaustive_limit,
        ball_limit=ball_limit_from_env(),
    )
    verdict = test_property(spec, search)
    return {
        "config": {"family": family, "n": spec.n if spec.family == "Pn'" else None,
                   "r": r, "group": descriptor,
                   "xi": oracle.format_element(xi) if not xi_from_lemma4 else "<constructed>",
                   "k_max": k_max, "samples": samples, "seed": seed},
        "payload": verdict.to_dict(),
        "out": out,
    }


# -- xi ----------------------------------------------------------------------


@main.group()
def xi():
    """Marker-word construction."""


@xi.command("construct")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--desk-scale", is_flag=True)
@click.option("--out", type=click.Path(), default="xi.word", show_default=True,
              help="word file to write")
@click.option("--report", "report_out", type=click.Path(), default=None)
@reporting("xi construct")
def xi_construct(seed, desk_scale, out, report_out):
    """Construct the marker word and verify its contract."""
    params = XiParams.desk() if desk_scale else XiParams()
    rep = construct_xi(seed, params)
    if out:
        with _user_file(out, "w") as fh:
            fh.write(format_word(rep.word) + "\n")
        click.echo(f"wrote {out} ({rep.n} letters)")
    return {
        "config": {"desk_scale": desk_scale, "seed": seed},
        "payload": rep.to_dict(),
        "out": report_out,
        "fmt": "json" if report_out else "text",
    }


# -- lemma5 ------------------------------------------------------------------


@main.group()
def lemma5():
    """Long-product aperiodicity verification."""


@lemma5.command("verify")
@click.option("--xi", "xi_file", type=click.Path(exists=True), required=True)
@click.option("--xs", "xs_file", type=click.Path(exists=True), required=True)
@click.option("--eps", "eps_text", required=True, help='sign string like "+-+"')
@click.option("--desk-scale", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
@reporting("lemma5 verify")
def lemma5_verify(xi_file, xs_file, eps_text, desk_scale, out):
    """Check that the alternating product of the word files is
    500-aperiodic (50 at desk scale)."""
    xi_word = parse_word(_read_text(xi_file), 2)
    xs = [parse_word(ln, 2) for ln in _text_lines(xs_file)]
    eps = []
    for c in eps_text.strip():
        if c == "+":
            eps.append(1)
        elif c == "-":
            eps.append(-1)
        else:
            raise MalformedInputError(f"bad sign character {c!r}")
    bound, max_x = _product_check_scale(desk_scale)
    # desk scale skips only the full-scale length floor
    ok, analysis = verify_product_aperiodicity(
        xi_word, xs, eps, bound=bound, max_x_len=max_x, xi_floor=0 if desk_scale else None
    )
    return {
        "config": {"xi": xi_file, "xs": xs_file, "eps": eps_text, "desk_scale": desk_scale},
        "payload": {"aperiodic": ok, "analysis": analysis},
        "out": out,
        "failure": None if ok else PreconditionError("product failed the aperiodicity bound"),
    }


# -- burnside ----------------------------------------------------------------


@main.group()
def burnside():
    """End-to-end pipeline."""


@burnside.command("pipeline")
@click.option("--samples", type=click.IntRange(min=0), default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--desk-scale", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
@reporting("burnside pipeline")
def burnside_cmd(samples, seed, desk_scale, out):
    """Marker word + sampled product verification + constant chain."""
    rep = burnside_pipeline(samples=samples, seed=seed, desk_scale=desk_scale)
    return {
        "config": {"samples": samples, "desk_scale": desk_scale, "seed": seed},
        "payload": rep.to_dict(),
        "out": out,
        "failure": None if rep.ok else InternalInvariantError(
            "a pipeline stage failed; see the report"),
    }


# -- folner ------------------------------------------------------------------


@main.group()
def folner():
    """Folner-set traversal demonstrations."""


@folner.command("demo")
@click.option("--box", "box_text", required=True, help='e.g. "0:9,0:9"')
@click.option("--xi", "xi_text", required=True, help='e.g. "3,0"')
@click.option("--group", "descriptor", default="abelian:2", show_default=True)
@click.option("--out", type=click.Path(), default=None)
@reporting("folner demo")
def folner_demo(box_text, xi_text, descriptor, out):
    """Spanning-tree traversal of a box and its ratio chain."""
    oracle = make_oracle(descriptor)
    box = []
    for part in box_text.split(","):
        lo, _, hi = part.partition(":")
        try:
            box.append((int(lo), int(hi)))
        except ValueError:
            raise MalformedInputError(f"bad --box range {part!r}; expected lo:hi") from None
    _check_cap("--box points", math.prod(max(0, hi - lo + 1) for lo, hi in box),
               BOX_POINTS_CAP)
    xi_el = oracle.parse_element(xi_text)
    rep = folner_traversal_demo(oracle, box, xi_el)
    return {
        "config": {"box": box_text, "xi": xi_text, "group": descriptor},
        "payload": rep.to_dict(),
        "out": out,
    }


# -- replay ------------------------------------------------------------------


@main.command("replay")
@click.argument("report_file", type=click.Path(exists=True))
@cli_errors
def replay(report_file):
    """Re-verify the witnesses stored in a report."""
    report = _load_report(report_file)
    config = report["config"]
    sub = config.get("subcommand", "")
    if sub == "property test":
        witness = _stored(report, "witness", _is_object, None)
        if witness is None:
            click.echo("no witness to replay")
            return
        _stored(witness, "xs", _is_text_list)
        _stored(witness, "eps", _is_sign_list)
        _stored(witness, "length", _is_integer)
        oracle = make_oracle(_stored(config, "group", _is_text))
        xi_text = _stored(config, "xi", _is_text)
        if xi_text == "<constructed>":
            xi_el = construct_xi(_stored(config, "seed", _is_integer, 0)).word
        else:
            xi_el = oracle.parse_element(xi_text)
        spec = _property_spec(
            _stored(config, "family", _FAMILIES.__contains__),
            _stored(config, "n", _is_integer, None),
            _stored(config, "r", _is_integer),
            oracle,
            xi_el,
        )
        if not _replay_witness(spec, witness):
            raise InternalInvariantError("stored witness failed replay")
        click.echo("witness replayed: ok")
    elif sub == "experiment ts-lambda":
        oracle = make_oracle(_stored(config, "group", _is_text))
        xi_el = oracle.parse_element(_stored(config, "xi", _is_text))
        lam = _parse_lambda(_stored(config, "lambda", _is_text))
        violations = _stored(report, "violations", _is_object_list, [])
        for v in violations:
            pts = tuple(oracle.parse_element(t) for t in _stored(v, "elements", _is_text_list))
            rset = RelatedSet(oracle, xi_el, pts)
            tour = tsp_exact(rset)
            if (tour.length != _stored(v, "L", _is_integer)
                    or not Fraction(tour.length) < lam * rset.size):
                raise InternalInvariantError("stored violation failed replay")
        click.echo(f"replayed {len(violations)} violations: ok")
    else:
        raise ConfigurationError(f"no replay handler for {sub!r}")


if __name__ == "__main__":
    main()
