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
such path needs a --seed.  The sample budget (--samples) serves every
Monte-Carlo path, the fallbacks of the extractions included.

Configs can come from a ``key=value`` file (--config) with command-line
flags taking precedence; unknown keys are rejected.
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
        self.params = Params(self.params)
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


def _load_family(config: ExperimentConfig, n: int) -> SetFamily:
    spec = config.params["family"]
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
    if config.seed is None:
        raise ConfigError(f"family {spec!r} needs a --seed to draw its members")
    stream = CounterStream(config.seed, stream=7)
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
# subcommand runners


def _run_coverage(config: ExperimentConfig) -> dict:
    n = int(config.params["n"])
    family = _load_family(config, n)
    y = _parse_elements(str(config.params.get("Y", "")), n)
    p = Fraction(str(config.params["p"]))
    if exact_engine(config.engine):
        prob = coverage_exact(family, y, p)
        checks = [_check("coverage", prob, None, None, engine="exact")]
    else:
        est = coverage_mc(family, y, p, config.samples, seed=config.require_seed())
        checks = [_check("coverage", est, None, None, engine="mc")]
    return {"checks": checks, "payload": {"family_size": len(family), "Y": elements_of(y)}}


def _run_sunflower_extract(config: ExperimentConfig) -> dict:
    n = int(config.params["n"])
    family = _load_family(config, n)
    p = float(Fraction(str(config.params["p"])))
    eps = float(Fraction(str(config.params["eps"])))
    params = ThresholdParams(B=float(config.params.get("B", 64.0)))
    seed = config.seed if config.seed is not None else 0
    result = extract_robust_sunflower(family, p, eps, params, config.samples, seed)
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


def _run_closure_demo(config: ExperimentConfig) -> dict:
    n = int(config.params["n"])
    sets = str(config.params["minterms"]).split(";")
    f = MonotoneFunction.from_masks(n, (_parse_elements(s, n) for s in sets))
    params = ClosureParams(
        eps=Fraction(str(config.params["eps"])),
        c=int(config.params["c"]),
        noise_p=Fraction(str(config.params.get("noise_p", "1/2"))),
    )
    seed = 0 if exact_engine(config.engine) else config.require_seed()
    how = (config.engine, config.samples, seed)
    cl = closure(f, params, *how)
    closed_before = is_closed(f, params, *how).closed
    closed_after = is_closed(cl, params, *how).closed
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


def _run_hr_verify(config: ExperimentConfig) -> dict:
    params = HRParams(
        n=int(config.params["n"]), c=int(config.params["c"]), k=int(config.params["k"])
    )
    exact = exact_engine(str(config.params.get("mode", config.engine)))
    hr = build_hr_family(params)
    checks = []
    if exact:
        value, bound = verify_positive_acceptance(hr, "exact")
        checks.append(_check("positive-accept-rate", value, bound, value >= bound))
        nvalue, nbound = verify_negative_rejection(hr, "exact")
        checks.append(_check("negative-reject-rate", nvalue, nbound, None))
        for size in range(1, min(params.c, 2) + 1):
            worst = None
            for mask_elems in iter_masks_of_weight(params.n, size):
                v, b = verify_minterm_spread(hr, mask_elems, "exact")
                if worst is None or v > worst[0]:
                    worst = (v, b)
            checks.append(
                _check(f"minterm-spread-l{size}", worst[0], worst[1], worst[0] <= worst[1])
            )
        pts = tuple(range(1, min(params.c, params.k) + 1))
        vals = tuple(0 for _ in pts)
        got, want = verify_cwise_independence(params, pts, vals)
        checks.append(_check("cwise-independence", got, want, got == want))
    else:
        seed = config.require_seed()
        est, bound = verify_positive_acceptance(hr, "mc", config.samples, seed)
        checks.append(
            _check("positive-accept-rate", est, bound, est.value + 3 * est.half_width >= bound)
        )
        nest, nbound = verify_negative_rejection(hr, "mc", config.samples, seed)
        checks.append(_check("negative-reject-rate", nest, nbound, None))
    checks.append(
        _check("family-size", len(hr.family), params.n_polynomials,
               len(hr.family) <= params.n_polynomials)
    )
    return {"checks": checks, "payload": {"qualifying": hr.n_qualifying}}


def _run_clique_verify(config: ExperimentConfig) -> dict:
    n = int(config.params["n"])
    if n < 1:
        raise ConfigError("clique-verify needs n >= 1")
    if "delta" in config.params:
        k, p, eps = clique_parameters(n, float(config.params["delta"]))
    else:
        k = int(config.params["k"])
        if "p" in config.params:
            p = float(Fraction(str(config.params["p"])))
        elif k < 2:
            raise ConfigError("deriving p = n^(-2/(k-1)) needs k >= 2; give p instead")
        else:
            p = n ** (-2.0 / (k - 1))
        eps = float(n) ** (-k)
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
    worst = None
    for size in range(0, min(k, 4) + 1):
        v, b = clique_spread_check(n, k, size)
        ok = v <= b
        if worst is None or not ok:
            worst = (v, b, ok, size)
    checks.append(_check("clique-spread", worst[0], worst[1], worst[2], size=worst[3]))
    return {"checks": checks, "payload": {"k": k, "p": p, "eps": eps}}


def _run_clique_extract(config: ExperimentConfig) -> dict:
    family = _load_family(config, int(config.params["n"]))  # a family file brings its own n
    p = float(Fraction(str(config.params["p"])))
    q = float(Fraction(str(config.params.get("q", 1))))
    eps = float(Fraction(str(config.params["eps"])))
    seed = config.seed if config.seed is not None else 0
    result = find_clique_sunflower(family, p, q, eps, config.samples, seed)
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


def _run_janson(config: ExperimentConfig) -> dict:
    n = int(config.params["n"])
    sf = _load_family(config, n)
    family = SetFamily.from_masks(n, sf.members)
    p = Fraction(str(config.params["p"]))
    q = Fraction(str(config.params.get("q", 1)))
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


def _run_code_poly(config: ExperimentConfig) -> dict:
    q = int(config.params["q"])
    n = int(config.params["n"])
    dim = int(config.params["dim"])
    audit = str(config.params.get("audit", "false")).lower() in ("1", "true", "yes")
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
    if audit:
        ok1, _ = single_monomial_audit(decomposition, agreement)
        checks.append(_check("canonical-audit", ok1, True, ok1))
        merged = _merged_candidate(decomposition)
        ok2, counter = single_monomial_audit(merged, agreement)
        overlap = counter[2] if counter else None
        checks.append(
            _check(
                "merged-candidate-rejected",
                not ok2,
                True,
                not ok2 and overlap is not None and 3 * overlap >= n,
                overlap=overlap,
            )
        )
    return {"checks": checks, "payload": {"codewords": len(code)}}


def _merged_candidate(d: Decomposition) -> Decomposition:
    if len(d.pairs) < 2:
        raise ConfigError("need at least two pairs to build a merged candidate")
    (g1, h1), (g2, _h2) = d.pairs[0], d.pairs[1]
    merged_g = CoeffPoly(tuple(g1.terms) + tuple(g2.terms))
    return Decomposition(((merged_g, h1),) + d.pairs[2:])


def _run_spread_experiment(config: ExperimentConfig) -> dict:
    n = int(config.params["n"])
    size = int(config.params["l"])
    count = int(config.params.get("count", 20))
    members = int(config.params.get("members", 12))
    p = float(Fraction(str(config.params["p"])))
    eps = float(Fraction(str(config.params["eps"])))
    B = float(config.params.get("B", 1.0))
    seed = config.require_seed()

    r = spread_radius(size, p, eps, ThresholdParams(B=B))
    stream = CounterStream(seed, stream=3)
    spread_count = 0
    covered_count = 0
    rows = []
    for trial in range(count):
        fam = SetFamily.from_masks(n, _random_masks(stream, n, size, members))
        rep = check_spread(fam, Fraction(r))
        cover = coverage_exact(fam, 0, Fraction(str(config.params["p"])))
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


_SUBCOMMANDS = {
    "coverage": (_run_coverage, {"n", "family", "Y", "p"}),
    "sunflower-extract": (_run_sunflower_extract, {"n", "family", "p", "eps", "B"}),
    "closure-demo": (_run_closure_demo, {"n", "minterms", "eps", "c", "noise_p"}),
    "hr-verify": (_run_hr_verify, {"n", "c", "k", "mode"}),
    "clique-verify": (_run_clique_verify, {"n", "k", "p", "delta"}),
    "clique-extract": (_run_clique_extract, {"n", "family", "p", "q", "eps"}),
    "janson": (_run_janson, {"n", "family", "p", "q"}),
    "code-poly": (_run_code_poly, {"q", "n", "dim", "audit"}),
    "spread-experiment": (_run_spread_experiment, {"n", "l", "count", "members", "p", "eps", "B"}),
}
_MONTE_CARLO = {"coverage", "closure-demo", "hr-verify", "clique-verify"}  # the rest refuse mc


def run(config: ExperimentConfig) -> dict:
    """Dispatch a config to its runner and wrap the result in a report."""
    if config.subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {config.subcommand!r}")
    runner, allowed = _SUBCOMMANDS[config.subcommand]
    unknown = set(config.params) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {config.subcommand}: {sorted(unknown)}")
    if not exact_engine(config.engine) and config.subcommand not in _MONTE_CARLO:
        raise ConfigError(f"{config.subcommand} has no Monte-Carlo path; drop --engine mc")
    start = time.monotonic()
    body = runner(config)
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


_COMMON_KEYS = {"seed", "samples", "engine", "out", "format"}


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
    params: dict = {}
    seed = args.seed
    samples = args.samples
    engine = args.engine
    out = args.out
    fmt = args.format
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key == "seed":
                seed = int(val) if seed is None else seed
            elif key == "samples":
                samples = int(val) if samples is None else samples
            elif key == "engine":
                engine = engine or val
            elif key == "out":
                out = out or val
            elif key == "format":
                fmt = fmt or val
            else:
                params[key] = val
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"bad --param {item!r}, expected KEY=VALUE")
        key, _, val = item.partition("=")
        if key in _COMMON_KEYS:
            raise ConfigError(f"{key} must be passed as a top-level flag")
        params[key] = val
    return ExperimentConfig(
        subcommand=args.subcommand,
        params=params,
        seed=seed,
        engine=engine or "exact",
        samples=100_000 if samples is None else samples,
        out=out,
        fmt=fmt or "json",
    )


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
