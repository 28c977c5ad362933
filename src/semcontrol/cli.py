"""Command-line driver: validate, analyze, plan, estimate, simulate.

Exit codes: 0 on success, 1 on a usage error, 2 when a validation,
stability, or numeric precondition fails.  Reports go to stdout as text by
default; ``--format json`` prints the JSON form and ``--out`` writes the
JSON form to a file instead (except ``simulate``, where ``--out`` names the
dataset CSV and the report stays on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .control import ControlPlan, PlanSpec, load_plan, optimal_b, plan_variance, resolve_plan
from .effects import EffectSummary, RegressionBlocks, implied_moments, total_effects
from .errors import InputFormatError, SemControlError, UnstableModel, UnstableModelWarning
from .estimation import (
    iv_estimate,
    iverson_model,
    iverson_moments,
    load_covariance,
    sample_moments,
    tsls_estimate,
)
from .model import (
    _write_whole,
    check_stability,
    is_stable,
    load_model,
    model_hash,
    partition_vertices,
    spectral_radius,
    validate_model,
)
from .simulate import Dataset, SimulationConfig, draw_equilibrium, save_run, simulate_plan


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_json(self) -> str:
        # np.float64 is a float subclass, so it prints as the same Python float
        return json.dumps(vars(self), indent=2, default=lambda value: value.tolist())

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.inputs:
            lines.append("inputs:")
            lines.extend(_text_items(self.inputs, indent=2))
        lines.append("results:")
        lines.extend(_text_items(self.results, indent=2))
        if self.warnings:
            lines.append("warnings:")
            lines.extend(f"  - {w}" for w in self.warnings)
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.4g}"
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _text_items(mapping: dict, indent: int) -> list[str]:
    pad = " " * indent
    lines = []
    for key, value in mapping.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_text_items(value, indent + 2))
        else:
            lines.append(f"{pad}{key}: {_fmt(value)}")
    return lines


def _names(raw: str | None, flag: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in (raw or "").split(",") if name.strip())
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise UsageError(f"{flag} names {repeated[0]} more than once")
    return names


def _floats(raw: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in raw.split(",") if v.strip() != ""])
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated list of numbers") from None


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _given(args, *flags) -> list[str]:
    """The flags among ``flags`` that the command line set."""
    return [flag for flag in flags
            if getattr(args, flag.lstrip("-").replace("-", "_"), None) is not None]


def _require(args, *flags):
    for flag in flags:
        if not _given(args, flag):
            raise UsageError(f"{args.command} requires {flag}")


_PLAN_FLAGS = ("--x", "--a", "--b", "--sigma-eps")


def _gains(raw: str | None, flag: str, names: tuple[str, ...], role: str) -> dict:
    if not raw:
        return {}
    values = _floats(raw, flag)
    if values.size != len(names):
        raise UsageError(f"{flag} supplies {values.size} gains for {len(names)} {role}")
    return dict(zip(names, values))


class _Analysis:
    """A command's model -> partition -> gate -> moments, effects, blocks ->
    optimal gains -> plan, each computed on first read.  Everything after the
    stability gate ``gated`` reads it first, so a command computes only what it
    reports, and nothing for a model that a gate refuses."""

    def __init__(self, args):
        self.args = args

    @cached_property
    def model(self):
        """The --model file, refused when ``validate`` would report a violation."""
        model = load_model(self.args.model)
        violations = validate_model(model)
        if violations:
            raise InputFormatError(
                f"{self.args.model} is not a valid model: {'; '.join(violations)}")
        return model

    @cached_property
    def inputs(self) -> dict:
        return {"model": self.args.model, "model_hash": model_hash(self.model)}

    @cached_property
    def partition(self):
        args = self.args
        _require(args, "--treatment", "--response")
        return partition_vertices(self.model, args.treatment, args.response,
                                  _names(args.F, "--F") or None, _names(args.W, "--W") or None)

    @cached_property
    def gated(self):
        """The partition, once ``StructuralModel.stable`` holds; a refusal prints both
        block spectral radii."""
        if self.model.stable:
            return self.partition
        report = check_stability(self.model, self.partition)
        raise UnstableModel(
            "model is not stable: spectral radii "
            f"(nondescendant block {report.nondescendant_radius:.6g}, "
            f"feedback block {report.feedback_radius:.6g}) must be below 1"
        )

    @cached_property
    def spec(self) -> PlanSpec:
        """The --plan file, or the --x/--a/--b/--sigma-eps flags as the same spec."""
        args = self.args
        given = _given(args, *_PLAN_FLAGS)
        if args.plan and given:
            raise UsageError(f"--plan cannot be combined with {', '.join(given)}")
        part = self.gated
        if args.plan:
            return load_plan(args.plan)
        feedback = _gains(args.a, "--a", part.controls, "controls")
        gains = "optimal" if args.b == "optimal" else _gains(
            args.b, "--b", part.covariates, "covariates")
        return PlanSpec(0.0 if args.x is None else args.x, feedback, gains,
                        0.0 if args.sigma_eps is None else args.sigma_eps)

    @cached_property
    def moments(self):
        part = self.gated  # first the gate, which also makes the implied moments exist
        if _moment_source(self.args):
            return _read_moments(self.args, (part.treatment, *part.controls, *part.covariates))
        return implied_moments(self.model)

    @cached_property
    def effects(self):
        return total_effects(self.model, self.gated)

    @cached_property
    def blocks(self):
        return RegressionBlocks.from_moments(self.moments, self.gated)

    @cached_property
    def optimal(self):
        return optimal_b(self.effects, self.blocks)

    @cached_property
    def plan(self):
        optimal = self.optimal if self.spec.covariate_gains == "optimal" else None
        return resolve_plan(self.spec, self.gated, optimal)


def _moment_source(args) -> dict:
    """``{"cov": path}``, ``{"data": path}`` or ``{}``: the command's moment file, if any."""
    return {"cov": args.cov} if args.cov else {"data": args.data} if args.data else {}


def _read_moments(args, needed):
    """The --cov or --data file's moments, refused unless it holds every name in ``needed``."""
    (kind, path), = _moment_source(args).items()
    moments = load_covariance(path) if kind == "cov" else sample_moments(Dataset.from_csv(path))
    missing = [name for name in dict.fromkeys(needed) if name not in moments.variables]
    if missing:
        raise InputFormatError(f"{path} lacks variables the command reads: {', '.join(missing)}")
    return moments


def _residual_max(analysis: _Analysis, report: Report) -> float:
    """max |residual| of the optimal gains; above 1e-9 it also warns in ``report``."""
    worst = float(np.abs(analysis.optimal.residual).max(initial=0.0))
    if worst > 1e-9:
        report.warnings.append(
            "optimal covariate gains do not solve the zero-covariance equation exactly "
            f"(max residual {worst:.4g}); they are its least-squares solution"
        )
    return worst


def _plan_inputs(analysis: _Analysis) -> dict:
    """A plan command's report inputs; reading them validates the model."""
    args = analysis.args
    source = _moment_source(args)
    plan = {"plan": args.plan} if args.plan else {}
    return {**analysis.inputs, **source, "source": "sample" if source else "implied", **plan}


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_validate(args):
    model = load_model(args.model)
    violations = validate_model(model)
    report = Report(
        "validate",
        inputs={"model": args.model, "model_hash": model_hash(model)},
        results={"valid": not violations, "violations": violations},
    )
    return report, (0 if not violations else 2)


def _cmd_stability(args):
    analysis = _Analysis(args)
    model = analysis.model
    if args.treatment or args.response:
        rep = check_stability(model, analysis.partition)
        results = {"spectral_radius_nondescendant_block": rep.nondescendant_radius,
                   "spectral_radius_feedback_block": rep.feedback_radius}
    else:
        results = {"spectral_radius": spectral_radius(model)}
    # the largest radius is also the larger block radius, so both forms share a margin
    radius = spectral_radius(model)
    stable = is_stable(radius)
    results.update(stable=stable, margin=1.0 - radius)
    report = Report("stability", inputs=analysis.inputs, results=results)
    if not stable:
        report.warnings.append("model is not stable: some spectral radius is not below 1")
    return report, (0 if stable else 2)


def _cmd_effects(args):
    analysis = _Analysis(args)
    part, eff = analysis.gated, analysis.effects
    results = {
        "total_effect_on_response": eff.to_response,
        "total_effects_on_controls": dict(zip(part.controls, eff.to_controls)),
        "total_effects_on_descendants": dict(zip(part.descendants, eff.to_descendants)),
    }
    return Report("effects", inputs=analysis.inputs, results=results), 0


def _cmd_plan_eval(args):
    analysis = _Analysis(args)
    report = Report("plan-eval", inputs=_plan_inputs(analysis))
    plan, part = analysis.plan, analysis.gated
    effect = plan_variance(analysis.moments, analysis.effects, analysis.blocks, plan)
    report.results = {
        "set_point": plan.set_point,
        "feedback": dict(zip(part.controls, plan.feedback)),
        "covariate_gains": dict(zip(part.covariates, plan.covariate_gains)),
        "noise_variance": plan.noise_variance,
        "nonrecursive": plan.is_nonrecursive,
        "perfect": plan.is_perfect,
        "mean_y": effect.response_mean,
        "var_y": effect.response_variance,
        "var_controls": effect.controls_covariance,
        "feedback_factor": effect.feedback_factor,
        "stability_margin": effect.margin,
    }
    if effect.margin < 0.1:
        report.warnings.append(
            f"feedback stability margin {effect.margin:.4g} is small; "
            "the plan operates close to |a'g| = 1"
        )
    if analysis.spec.covariate_gains == "optimal":
        report.results["optimal_gain_residual_max"] = _residual_max(analysis, report)
    return report, 0


def _cmd_plan_optimize(args):
    _require(args, "--W")
    analysis = _Analysis(args)
    report = Report("plan-optimize", inputs=_plan_inputs(analysis))
    plan = analysis.plan
    effect = plan_variance(analysis.moments, analysis.effects, analysis.blocks, plan)
    report.results = {
        "b_star": dict(zip(analysis.gated.covariates, analysis.optimal.covariate_gains)),
        "residual_max": _residual_max(analysis, report),
        "mean_y": effect.response_mean,
        "var_y": effect.response_variance,
        "feedback_factor": effect.feedback_factor,
    }
    return report, 0


def _cmd_estimate(args):
    if not _moment_source(args):
        raise UsageError("estimate requires --cov or --data")
    _require(args, "--treatment", "--response", "--instruments")
    instruments = _names(args.instruments, "--instruments")
    if not instruments:
        raise UsageError("--instruments expects at least one variable name")
    moments = _read_moments(args, (args.treatment, args.response, *instruments))
    if len(instruments) == 1:
        est = iv_estimate(moments, args.treatment, args.response, instruments[0])
        method = "iv"
    else:
        est = tsls_estimate(moments, args.treatment, args.response, instruments)
        method = "tsls"
    report = Report("estimate", inputs=_moment_source(args))
    report.results = {
        "gamma_hat": est.gamma_hat,
        "method": method,
        "instruments": list(est.instruments),
        "denominator": est.denominator,
    }
    if moments.n_obs is not None:
        report.results["n"] = moments.n_obs
    return report, 0


def _cmd_simulate(args):
    _require(args, "--out")
    planned = bool(args.plan or args.treatment)
    ignored = _given(args, *_PLAN_FLAGS, "--response", "--F", "--W", "--cov", "--data")
    if not planned and ignored:
        raise UsageError(
            "simulate without --plan or --treatment draws observational data "
            f"and cannot take {', '.join(ignored)}"
        )
    analysis = _Analysis(args)
    inputs = {**analysis.inputs, "seed": args.seed, "n": args.n, "law": args.law}
    if args.n < 2:  # the report's sample variances need two rows
        raise ValueError(f"simulate needs --n of at least 2, got {args.n}")
    config = SimulationConfig(n_draws=args.n, seed=args.seed, law=args.law)
    caught = []
    if planned:
        read = _given(args, "--cov", "--data")
        if read and analysis.spec.covariate_gains != "optimal":
            raise UsageError(
                "simulate with fixed covariate gains reads no moments "
                f"and cannot take {', '.join(read)}"
            )
        data = simulate_plan(analysis.model, analysis.gated, analysis.plan, config)
        post = "post-plan"
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UnstableModelWarning)
            data = draw_equilibrium(analysis.model, config)
        post = "observational"
    sidecar = save_run(data, args.out, inputs["model_hash"], config)
    report = Report("simulate", inputs=inputs, warnings=[str(w.message) for w in caught])
    report.results = {
        "regime": post,
        "out": str(args.out),
        "metadata": str(sidecar),
        "rows": data.n,
        "empirical_mean": dict(zip(data.columns, data.rows.mean(axis=0))),
        "empirical_variance": dict(zip(data.columns, data.rows.var(axis=0, ddof=1))),
    }
    return report, 0


def _cmd_reproduce_iverson(args):
    moments = iverson_moments()
    gamma = iv_estimate(moments, "X", "Y", "Z3").gamma_hat
    part = partition_vertices(iverson_model(), "X", "Y")
    effects = EffectSummary(part, [gamma])
    blocks = RegressionBlocks.from_moments(moments, part)
    # the means are zero, so at set point 1 the response mean is the mean coefficient
    plans = {a: plan_variance(moments, effects, blocks, ControlPlan(1.0, [a], []))
             for a in (0.0, -5.0, -10.0, -20.0)}
    base = plans.pop(0.0)
    base_var = base.response_variance
    published_var = 0.998

    report = Report("reproduce-iverson", inputs={
        "fixture": "iverson_covariance.json",
        "model_fixture": "iverson_model.json",
        "n": moments.n_obs,
    })
    report.results = {
        "gamma_hat_iv_z3": gamma,
        "observational_var_y": moments.var("Y"),
        "unconditional_plan": {
            "mean_coefficient": base.response_mean,
            "var_y_closed_form": base_var,
            "var_y_published": published_var,
        },
        "conditional_plan": {
            f"a={a:g}": {
                "mean_coefficient": effect.response_mean,
                "mean_factor": effect.feedback_factor,
                "variance_factor": effect.feedback_factor**2,
                "variance": effect.response_variance,
            }
            for a, effect in plans.items()
        },
        # a = -1/gamma sits on |a'g| = 1, which plan_variance refuses: closed limits
        "feedback_limit": {
            "mean_coefficient": gamma / 2.0,
            "variance_factor": 0.25,
            "var_y_closed_form": base_var / 4.0,
            "var_y_published": published_var / 4.0,
        },
    }
    report.warnings.append(
        f"closed-form unconditional variance {base_var:.4f} differs from the "
        f"published {published_var}; the published figure rests on fitted path "
        "coefficients that were never printed, so only the closed form is "
        "reproducible from the covariance matrix"
    )
    return report, 0


# ---------------------------------------------------------------------------
# Parser assembly


def _build_parser() -> _Parser:
    parser = _Parser(prog="semcontrol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler, command=name)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None)
        return p

    def add_partition_flags(p):
        p.add_argument("--treatment", default=None)
        p.add_argument("--response", default=None)
        p.add_argument("--F", default=None, help="comma-separated control set")
        p.add_argument("--W", default=None, help="comma-separated covariate set")

    def add_plan_flags(p):
        p.add_argument("--plan", default=None, help="plan JSON file")
        p.add_argument("--x", type=float, default=None, help="plan set point")
        p.add_argument("--a", default=None, help="feedback gains, comma-separated")
        p.add_argument("--b", default=None,
                       help="covariate gains, comma-separated, or 'optimal'")
        p.add_argument("--sigma-eps", type=float, default=None,
                       help="plan disturbance variance")

    def add_moment_flags(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--cov", default=None, help="covariance JSON file")
        source.add_argument("--data", default=None, help="observations CSV file")

    p = add("validate", _cmd_validate)
    p.add_argument("--model", required=True)

    p = add("stability", _cmd_stability)
    p.add_argument("--model", required=True)
    add_partition_flags(p)

    p = add("effects", _cmd_effects)
    p.add_argument("--model", required=True)
    add_partition_flags(p)

    p = add("plan-eval", _cmd_plan_eval)
    p.add_argument("--model", required=True)
    add_partition_flags(p)
    add_plan_flags(p)
    add_moment_flags(p)

    p = add("plan-optimize", _cmd_plan_optimize)
    p.add_argument("--model", required=True)
    add_partition_flags(p)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--sigma-eps", type=float, default=None)
    p.set_defaults(plan=None, b="optimal")
    add_moment_flags(p)

    p = add("estimate", _cmd_estimate)
    p.add_argument("--treatment", default=None)
    p.add_argument("--response", default=None)
    p.add_argument("--instruments", default=None, help="comma-separated instrument names")
    add_moment_flags(p)

    p = add("simulate", _cmd_simulate)
    p.add_argument("--model", required=True)
    add_partition_flags(p)
    add_plan_flags(p)
    add_moment_flags(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--law", choices=("gaussian", "uniform"), default="gaussian")

    add("reproduce-iverson", _cmd_reproduce_iverson)
    return parser


def _non_finite(results: dict, prefix: str = "") -> str | None:
    """The first key of ``results`` holding a NaN or an infinity, nested keys joined by dots."""
    for key, value in results.items():
        if isinstance(value, dict):
            found = _non_finite(value, f"{prefix}{key}.")
            if found:
                return found
        elif isinstance(value, (float, np.ndarray)) and not np.isfinite(value).all():
            return f"{prefix}{key}"
    return None


def run_command(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
        with np.errstate(all="ignore"):  # an overflow shows as a non-finite result instead
            report, code = args.handler(args)
        bad = _non_finite(report.results)
        if bad:
            raise ValueError(f"result {bad!r} is not finite")
        if args.command != "simulate" and args.out:
            with _write_whole(args.out) as fh:
                fh.write(report.to_json() + "\n")
        else:
            _print(report.to_json() if args.format == "json" else report.to_text())
    except UsageError as exc:
        _print(f"usage error: {exc}", sys.stderr)
        return 1
    except (SemControlError, ValueError, OSError, MemoryError) as exc:
        _print(f"error: {exc}", sys.stderr)
        return 2
    return code


def _print(text: str, stream=None) -> None:
    """Print a line to stdout, or ``stream``, as UTF-8 whatever the locale, with a path's
    undecodable bytes as they came; a reader that closed the pipe early is an ``OSError``."""
    stream = stream or sys.stdout
    try:
        stream.flush()
        stream.buffer.write(text.encode("utf-8", "surrogateescape") + b"\n")
        stream.buffer.flush()
    except BrokenPipeError as exc:
        # the stream now goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise OSError(exc.errno, exc.strerror, stream.name) from None


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
