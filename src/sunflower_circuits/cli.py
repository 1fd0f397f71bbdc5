"""Reproducible experiment runner: one subcommand per verification family.

Every experiment is described by an ExperimentConfig (flat key-value
parameters, master seed, engine selection, sample budget) and produces a
Report whose JSON serialization is byte-identical across runs with the
same config and seed, except for the wall-clock field.  Exit status is 0
iff every asserted check passed (1 otherwise); report-only rows never fail
a run.  Bad input -- a ConfigError (an unknown or missing key, a missing
seed), any other ValueError (an unknown engine or mode, a value out of
range) raised while building or running the experiment, or an OSError
reading --config or a family file or writing --out -- exits with
status 2 and a one-line ``config error:`` message; so does a refusal (a
``RefusalError``: a work cap exceeded, or a guarantee that does not hold
for the input), with a one-line ``refused:`` message.  ``--engine mc`` is
a config error for a subcommand without a Monte-Carlo path, and every
such path needs a --seed, except the Monte-Carlo fallbacks of
``sunflower-extract`` and ``clique-extract``, which run on seed 0 when
none is given.  The sample budget (--samples) serves every Monte-Carlo
path, the fallbacks of the extractions included.

Configs can come from a ``key=value`` file (--config): a flag given on
the command line beats it, and it beats the defaults.  ``run`` reads each
subcommand parameter once, by its ``_SUBCOMMANDS`` reader, and refuses an
unknown key or a malformed value before the runner starts.  Every
probability, bias and eps is an exact ``Fraction`` except clique-verify's
``p`` and ``delta``, which only feed an estimate and are floats.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import __version__
from .errors import ConfigError, RefusalError, TooLargeError
from .probability import (
    Estimate,
    ExactProbability,
    above_threshold,
    coverage_exact,
    coverage_mc,
    exact_engine,
)
from .rng import CounterStream
from .setfamily import SetFamily, check_spread, elements_of, family_from_text, mask_of
from .sunflowers import ThresholdParams, extract_robust_sunflower, spread_radius
from .monotone import ClosureParams, MonotoneFunction, closure, is_closed, iter_masks_of_weight
from .harnik_raz import (
    HRParams,
    build_hr_family,
    verify_cwise_independence,
    verify_minterm_spread,
    verify_negative_rejection,
    verify_positive_acceptance,
)
from .cliques import (
    clique_parameters,
    clique_spread_check,
    find_clique_sunflower,
    janson_certificate,
    pq_coverage_exact,
    verify_no_kclique_bound,
)
from .codes import (
    AGREEMENT_CAP,
    Decomposition,
    CoeffPoly,
    build_polynomial,
    canonical_decomposition,
    max_pairwise_agreement,
    reed_solomon_code,
    single_monomial_audit,
    size_lower_bound_report,
    verify_decomposition,
)


class Params(dict):
    """Subcommand parameters; looking up a missing one raises ConfigError."""

    def __missing__(self, key):
        raise ConfigError(f"missing parameter {key!r}")


@dataclass
class ExperimentConfig:
    subcommand: str
    params: dict
    seed: Optional[int] = None
    engine: str = "exact"
    samples: int = 100_000
    out: Optional[str] = None
    fmt: str = "json"

    def __post_init__(self):
        if self.fmt not in _FORMATS:
            raise ConfigError(f"unknown format {self.fmt!r}, expected 'json' or 'csv'")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("a --seed is mandatory for any Monte-Carlo path")
        return self.seed


def _check(name: str, value, bound=None, passed: Optional[bool] = None, **extra) -> dict:
    """One check row; an ``extra`` column named ``status`` never replaces pass/fail."""
    row = {k: _plain(v) for k, v in extra.items()}
    row.update(name=name, value=_plain(value), bound=_plain(bound))
    if passed is None:
        row["status"] = "report-only"
    else:
        row["status"] = "pass" if passed else "fail"
    return row


def _plain(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, ExactProbability):
        return _plain(v.value)
    if isinstance(v, Estimate):
        return dataclasses.asdict(v)
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))}
    return v


def _load_family(spec: str, n: int, seed: Optional[int]) -> SetFamily:
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return family_from_text(fh.read())
    kind, *args = spec.split(":")
    if len(args) != {"star": 1, "disjoint": 2, "random": 2}.get(kind):
        raise ConfigError(
            f"unknown family spec {spec!r} (path or star:<m>/disjoint:<m>:<l>/random:<m>:<l>)"
        )
    counts = [int(a) for a in args]
    if kind == "star":
        m = counts[0]
        if m + 1 > n:
            raise ConfigError("star family needs n >= m+1")
        return SetFamily.from_sets(n, [(1, x) for x in range(2, m + 2)])
    m, size = counts
    if kind == "disjoint":
        if m * size > n:
            raise ConfigError("disjoint family needs n >= m*size")
        return SetFamily.from_sets(
            n, [range(i * size + 1, (i + 1) * size + 1) for i in range(m)]
        )
    if seed is None:
        raise ConfigError(f"family {spec!r} needs a --seed to draw its members")
    stream = CounterStream(seed, stream=7)
    return SetFamily.from_masks(n, _random_masks(stream, n, size, m))


def _random_masks(stream: CounterStream, n: int, size: int, count: int) -> set[int]:
    """``count`` distinct random ``size``-subsets of [n], drawn element by element."""
    if count > math.comb(n, size):
        raise ConfigError(f"cannot draw {count} distinct {size}-subsets of [{n}]")
    masks: set[int] = set()
    while len(masks) < count:
        mask = 0
        while mask.bit_count() < size:
            mask |= 1 << stream.next_below(n)
        masks.add(mask)
    return masks


def _parse_elements(text: str, n: int) -> int:
    text = text.strip()
    if not text:
        return 0
    return mask_of((int(t) for t in text.split(",")), n)


# ---------------------------------------------------------------------------
# subcommand runners: each takes the config and its parsed parameters


def _run_coverage(config: ExperimentConfig, params: Params) -> dict:
    n = params["n"]
    family = _load_family(params["family"], n, config.seed)
    y = _parse_elements(params.get("Y", ""), n)
    if exact_engine(config.engine):
        prob = coverage_exact(family, y, params["p"])
    else:
        prob = coverage_mc(family, y, params["p"], config.samples, seed=config.require_seed())
    checks = [_check("coverage", prob, None, None, engine=config.engine)]
    return {"checks": checks, "payload": {"family_size": len(family), "Y": elements_of(y)}}


def _run_sunflower_extract(config: ExperimentConfig, params: Params) -> dict:
    family = _load_family(params["family"], params["n"], config.seed)
    seed = config.seed if config.seed is not None else 0
    threshold = ThresholdParams(B=params.get("B", 64.0))
    result = extract_robust_sunflower(family, params["p"], params["eps"], threshold,
                                      config.samples, seed)
    checks = [
        _check(
            "extraction-verified",
            result.verified,
            True,
            result.verified,
            probability=result.probability,
        )
    ]
    return {
        "checks": checks,
        "payload": {
            "kernel": elements_of(result.kernel),
            "petals": [list(elements_of(m)) for m in result.subfamily.members],
            "trace": [s.to_dict() for s in result.recursion_trace],
        },
    }


def _run_closure_demo(config: ExperimentConfig, params: Params) -> dict:
    n = params["n"]
    sets = params["minterms"].split(";")
    f = MonotoneFunction.from_masks(n, (_parse_elements(s, n) for s in sets))
    closure_params = ClosureParams(
        eps=params["eps"], c=params["c"], noise_p=params.get("noise_p", Fraction(1, 2))
    )
    seed = 0 if exact_engine(config.engine) else config.require_seed()
    how = (config.engine, config.samples, seed)
    cl = closure(f, closure_params, *how)
    closed_before = is_closed(f, closure_params, *how).closed
    closed_after = is_closed(cl, closure_params, *how).closed
    checks = [
        _check("input-closed", closed_before, None, None),
        _check("fixpoint-contains-input", f.le(cl), True, f.le(cl)),
        _check("fixpoint-closed", closed_after, True, closed_after),
    ]
    return {
        "checks": checks,
        "payload": {
            "closure_minterms": [list(elements_of(m)) for m in cl.minterms],
        },
    }


def _run_hr_verify(config: ExperimentConfig, params: Params) -> dict:
    hr_params = HRParams(n=params["n"], c=params["c"], k=params["k"])
    exact = exact_engine(params.get("mode", config.engine))
    hr = build_hr_family(hr_params)
    how = ("exact",) if exact else ("mc", config.samples, config.require_seed())
    value, bound = verify_positive_acceptance(hr, *how)
    accepted = value >= bound if exact else value.value + 3 * value.half_width >= bound
    checks = [_check("positive-accept-rate", value, bound, accepted)]
    nvalue, nbound = verify_negative_rejection(hr, *how)
    checks.append(_check("negative-reject-rate", nvalue, nbound, None))
    if exact:
        for size in range(1, min(hr_params.c, 2) + 1):
            v, b = max((verify_minterm_spread(hr, mask, "exact")
                        for mask in iter_masks_of_weight(hr_params.n, size)), key=lambda vb: vb[0])
            checks.append(_check(f"minterm-spread-l{size}", v, b, v <= b))
        pts = tuple(range(1, min(hr_params.c, hr_params.k) + 1))
        vals = tuple(0 for _ in pts)
        got, want = verify_cwise_independence(hr_params, pts, vals)
        checks.append(_check("cwise-independence", got, want, got == want))
    checks.append(
        _check("family-size", len(hr.family), hr_params.n_polynomials,
               len(hr.family) <= hr_params.n_polynomials)
    )
    return {"checks": checks, "payload": {"qualifying": hr.n_qualifying}}


def _run_clique_verify(config: ExperimentConfig, params: Params) -> dict:
    n = params["n"]
    if n < 1:
        raise ConfigError("clique-verify needs n >= 1")
    if "delta" in params:
        k, p, eps = clique_parameters(n, params["delta"])
    else:
        k = params["k"]
        if "p" not in params and k < 2:
            raise ConfigError("deriving p = n^(-2/(k-1)) needs k >= 2; give p instead")
        p = params["p"] if "p" in params else n ** (-2.0 / (k - 1))
        eps = float(n) ** (-k)
    if not 0 <= k <= n:  # refused before any graph is drawn
        raise ConfigError(f"clique-verify needs 0 <= k <= n, got k={k}, n={n}")
    seed = config.require_seed()
    est = verify_no_kclique_bound(n, k, p, config.samples, seed)
    checks = [
        _check(
            "kclique-probability",
            est,
            0.75,
            est.value <= 0.75 + 3 * est.half_width,
            engine="mc",  # the estimate is the only path, whatever the run's engine
        )
    ]
    # C(n-l, k-l)/C(n, k) <= (k/n)^l must hold for every l <= min(k, 4); the row shows the
    # largest l, where the bound is smallest
    size = min(k, 4)
    spread = [clique_spread_check(n, k, l) for l in range(size + 1)]
    value, bound = spread[-1]
    checks.append(_check("clique-spread", value, bound, all(v <= b for v, b in spread), size=size))
    return {"checks": checks, "payload": {"k": k, "p": p, "eps": eps}}


def _run_clique_extract(config: ExperimentConfig, params: Params) -> dict:
    # a family file brings its own n
    family = _load_family(params["family"], params["n"], config.seed)
    seed = config.seed if config.seed is not None else 0
    result = find_clique_sunflower(family, params["p"], params.get("q", 1), params["eps"],
                                   config.samples, seed)
    checks = [
        _check(
            "extraction-verified",
            result.verified,
            True,
            result.verified if result.status == "ok" else None,
            extraction_status=result.status,
            probability=result.probability,
        )
    ]
    payload = {
        "core": elements_of(result.core_set),
        "members": [list(elements_of(m)) for m in result.subfamily.members],
        "trace": [s.to_dict() for s in result.trace],
    }
    if result.certificate is not None:
        payload["janson"] = {
            "mu": result.certificate.mu,
            "delta_bar": result.certificate.delta_bar,
            "exponent": result.certificate.exponent,
            "bound": result.certificate.bound,
        }
    return {"checks": checks, "payload": payload}


def _run_janson(config: ExperimentConfig, params: Params) -> dict:
    n = params["n"]
    family = SetFamily.from_masks(n, _load_family(params["family"], n, config.seed).members)
    p, q = params["p"], params.get("q", 1)
    cert = janson_certificate(family, p, q)
    miss = 1 - pq_coverage_exact(family, 0, p, q).value
    checks = [
        _check(
            "janson-miss-bound",
            miss,
            cert.bound,
            float(miss) <= cert.bound * (1 + 1e-12),
            mu=cert.mu,
            delta_bar=cert.delta_bar,
        )
    ]
    return {"checks": checks, "payload": {"exponent": cert.exponent}}


def _run_code_poly(config: ExperimentConfig, params: Params) -> dict:
    q, n, dim = params["q"], params["n"], params["dim"]
    if q**dim > AGREEMENT_CAP:  # the pairwise scan below would refuse it; do so before building
        raise TooLargeError(f"{q**dim} codewords exceed the pairwise-scan cap {AGREEMENT_CAP}")
    code = reed_solomon_code(q, n, dim)
    poly = build_polynomial(code)
    agreement = max_pairwise_agreement(code)
    checks = [
        _check("monomial-count", len(poly), len(code), len(poly) == len(code)),
        _check("max-agreement", agreement, dim - 1, agreement == dim - 1),
    ]
    try:
        decomposition = canonical_decomposition(poly, n)
    except ValueError as exc:
        checks.append(_check("canonical-decomposition-valid", "skipped", None, None, reason=str(exc)))
        return {"checks": checks, "payload": {"codewords": len(code)}}
    ok, why = verify_decomposition(decomposition, poly, n)
    checks.append(_check("canonical-decomposition-valid", ok, True, ok, reason=why))
    s, csize, passed = size_lower_bound_report(code, decomposition)
    checks.append(_check("decomposition-size", s, csize, passed))
    if params.get("audit", False):
        ok1, _ = single_monomial_audit(decomposition, agreement)
        checks.append(_check("canonical-audit", ok1, True, ok1))
        merged = _merged_candidate(decomposition)
        ok2, counter = single_monomial_audit(merged, agreement)  # False: overlap > agreement
        rejected = ok2 is False
        checks.append(_check("merged-candidate-rejected", rejected, True, rejected,
                             overlap=counter[2] if counter else None))
    return {"checks": checks, "payload": {"codewords": len(code)}}


def _merged_candidate(d: Decomposition) -> Decomposition:
    if len(d.pairs) < 2:
        raise ConfigError("need at least two pairs to build a merged candidate")
    (g1, h1), (g2, _h2) = d.pairs[0], d.pairs[1]
    merged_g = CoeffPoly(tuple(g1.terms) + tuple(g2.terms))
    return Decomposition(((merged_g, h1),) + d.pairs[2:])


def _run_spread_experiment(config: ExperimentConfig, params: Params) -> dict:
    n, size, p, eps = params["n"], params["l"], params["p"], params["eps"]
    members, count = params.get("members", 12), params.get("count", 20)
    for key, value in (("l", size), ("count", count)):
        if value < 1:
            raise ConfigError(f"spread-experiment needs {key} >= 1, got {key}={value}")
    seed = config.require_seed()

    r = spread_radius(size, float(p), float(eps), ThresholdParams(B=params.get("B", 1.0)))
    stream = CounterStream(seed, stream=3)
    spread_count = 0
    covered_count = 0
    rows = []
    for trial in range(count):
        fam = SetFamily.from_masks(n, _random_masks(stream, n, size, members))
        rep = check_spread(fam, Fraction(r))
        cover = coverage_exact(fam, 0, p)
        hit = above_threshold(cover, eps)
        if rep.is_spread:
            spread_count += 1
            if hit:
                covered_count += 1
        rows.append({"trial": trial, "spread": rep.is_spread, "coverage": _plain(cover)})
    passed = covered_count == spread_count
    checks = [
        _check(
            "spread-families-covered",
            covered_count,
            spread_count,
            passed if spread_count else None,
            r=r,
        )
    ]
    return {"checks": checks, "payload": {"trials": rows}}


def _flag(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


def _estimate_p(text: str) -> float:  # a rational p that only feeds an estimate
    return float(Fraction(text))


# each subcommand's runner and, per key it accepts, the reader of that key's value
_SUBCOMMANDS = {
    "coverage": (_run_coverage, {"n": int, "family": str, "Y": str, "p": Fraction}),
    "sunflower-extract": (_run_sunflower_extract, {
        "n": int, "family": str, "p": Fraction, "eps": Fraction, "B": float}),
    "closure-demo": (_run_closure_demo, {
        "n": int, "minterms": str, "eps": Fraction, "c": int, "noise_p": Fraction}),
    "hr-verify": (_run_hr_verify, {"n": int, "c": int, "k": int, "mode": str}),
    "clique-verify": (_run_clique_verify, {"n": int, "k": int, "p": _estimate_p, "delta": float}),
    "clique-extract": (_run_clique_extract, {
        "n": int, "family": str, "p": Fraction, "q": Fraction, "eps": Fraction}),
    "janson": (_run_janson, {"n": int, "family": str, "p": Fraction, "q": Fraction}),
    "code-poly": (_run_code_poly, {"q": int, "n": int, "dim": int, "audit": _flag}),
    "spread-experiment": (_run_spread_experiment, {
        "n": int, "l": int, "count": int, "members": int, "p": Fraction, "eps": Fraction,
        "B": float}),
}
_MONTE_CARLO = {"coverage", "closure-demo", "hr-verify", "clique-verify"}  # the rest refuse mc


def run(config: ExperimentConfig) -> dict:
    """Dispatch a config to its runner and wrap the result in a report."""
    if config.subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    runner, readers = _SUBCOMMANDS[config.subcommand]
    unknown = set(config.params) - set(readers)
    if unknown:
        raise ConfigError(f"unknown config keys for {config.subcommand}: {sorted(unknown)}")
    if not exact_engine(config.engine) and config.subcommand not in _MONTE_CARLO:
        raise ConfigError(f"{config.subcommand} has no Monte-Carlo path; drop --engine mc")
    params = Params({key: readers[key](str(value)) for key, value in config.params.items()})
    start = time.monotonic()
    body = runner(config, params)
    elapsed = time.monotonic() - start
    return {
        "artifact_version": __version__,
        "subcommand": config.subcommand,
        "config": {
            "engine": config.engine,
            "params": _plain({k: config.params[k] for k in sorted(config.params)}),
            "samples": config.samples,
            "seed": config.seed,
        },
        "checks": body["checks"],
        "payload": _plain(body.get("payload", {})),
        "all_passed": all(c["status"] != "fail" for c in body["checks"]),
        "wall_clock_s": elapsed,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_csv(report: dict) -> str:
    lines = ["name,value,bound,status"]
    for c in report["checks"]:
        lines.append(
            ",".join(
                str(x).replace(",", ";")
                for x in (c["name"], c["value"], c["bound"], c["status"])
            )
        )
    return "\n".join(lines) + "\n"


_FORMATS = {"json": report_to_json, "csv": report_to_csv}


def emit(report: dict, fmt: str, path: Optional[str]) -> str:
    text = _FORMATS[fmt](report)
    if path:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


# the keys every subcommand shares, in ExperimentConfig's field order: (reader, default)
_COMMON_KEYS = {
    "seed": (int, None),
    "engine": (str, "exact"),
    "samples": (int, 100_000),
    "out": (str, None),
    "format": (str, "json"),
}


def build_config(argv: list[str]) -> ExperimentConfig:
    parser = argparse.ArgumentParser(
        prog="sunflower-circuits",
        description="exact and Monte-Carlo checks for sunflower/circuit experiments",
    )
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", help="key=value file; flags override it")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples", type=int, help="Monte-Carlo sample budget (default 100000)")
    parser.add_argument("--engine", choices=["exact", "mc"], help="default exact")
    parser.add_argument("--out", help="write the report here")
    parser.add_argument("--format", choices=sorted(_FORMATS), help="default json")
    parser.add_argument(
        "--param", "-P", action="append", default=[], metavar="KEY=VALUE",
        help="subcommand parameter (repeatable)",
    )
    args = parser.parse_args(argv)
    params = _read_config_file(args.config) if args.config else {}
    common = []
    for key, (read, default) in _COMMON_KEYS.items():
        flag, text = getattr(args, key), params.pop(key, None)
        common.append(flag if flag is not None else default if text is None else read(text))
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"bad --param {item!r}, expected KEY=VALUE")
        key, _, val = item.partition("=")
        if key in _COMMON_KEYS:
            raise ConfigError(f"{key} must be passed as a top-level flag")
        params[key] = val
    return ExperimentConfig(args.subcommand, params, *common)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
        report = run(config)
        text = emit(report, config.fmt, config.out)
    except (ValueError, OSError) as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RefusalError as exc:
        print(f"refused: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if not config.out:
        sys.stdout.write(text)
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
