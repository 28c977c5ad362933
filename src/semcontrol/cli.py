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
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .control import PlanSpec, load_plan, optimal_b, plan_variance, resolve_plan
from .effects import RegressionBlocks, _equilibrium_moments, total_effects
from .errors import InputFormatError, SemControlError, UnstableModel
from .estimation import (
    Dataset,
    iv_estimate,
    iverson_moments,
    load_covariance,
    sample_moments,
    tsls_estimate,
)
from .model import (
    check_stability,
    is_stable,
    load_model,
    model_hash,
    partition_vertices,
    spectral_radius,
    validate_model,
)
from .simulate import SimulationConfig, draw_equilibrium, save_run, simulate_plan


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

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": _jsonable(self.inputs),
            "results": _jsonable(self.results),
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

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


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


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


def _names(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(name.strip() for name in raw.split(",") if name.strip())


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


def _valid_model(args):
    """The --model file, refused when ``validate`` would report a violation."""
    model = load_model(args.model)
    violations = validate_model(model)
    if violations:
        raise InputFormatError(f"{args.model} is not a valid model: {'; '.join(violations)}")
    return model


def _partition(model, args):
    _require(args, "--treatment", "--response")
    controls = _names(args.F) or None
    covariates = _names(args.W) or None
    return partition_vertices(model, args.treatment, args.response, controls, covariates)


def _moments(model, args):
    if getattr(args, "cov", None):
        return load_covariance(args.cov), {"cov": args.cov, "source": "sample"}
    if getattr(args, "data", None):
        return sample_moments(Dataset.from_csv(args.data)), {"data": args.data, "source": "sample"}
    # only _eval_pipeline asks, after _require_stable has gated both block radii
    return _equilibrium_moments(model), {"source": "implied"}


def _require_stable(model, partition):
    report = check_stability(model, partition)
    if not report.stable:
        raise UnstableModel(
            "model is not stable: spectral radii "
            f"(nondescendant block {report.nondescendant_radius:.6g}, "
            f"feedback block {report.feedback_radius:.6g}) must be below 1"
        )


def _gains(raw: str | None, flag: str, names: tuple[str, ...], role: str) -> dict:
    if not raw:
        return {}
    values = _floats(raw, flag)
    if values.size != len(names):
        raise UsageError(f"{flag} supplies {values.size} gains for {len(names)} {role}")
    return dict(zip(names, values))


def _plan_spec(args, partition) -> PlanSpec:
    """The --plan file, or the --x/--a/--b/--sigma-eps flags as the same spec."""
    if args.plan:
        return load_plan(args.plan)
    feedback = _gains(args.a, "--a", partition.controls, "controls")
    gains = "optimal" if args.b == "optimal" else _gains(
        args.b, "--b", partition.covariates, "covariates")
    return PlanSpec(0.0 if args.x is None else args.x, feedback, gains,
                    0.0 if args.sigma_eps is None else args.sigma_eps)


def _eval_pipeline(args, model):
    """Everything a plan command needs, each quantity computed once.

    Returns (partition, moments, effects, blocks, optimal gains or None,
    resolved plan, report inputs); ``optimal_b`` runs only when the plan
    asks for optimal covariate gains.
    """
    given = _given(args, *_PLAN_FLAGS)
    if args.plan and given:
        raise UsageError(f"--plan cannot be combined with {', '.join(given)}")
    part = _partition(model, args)
    _require_stable(model, part)
    moments, source = _moments(model, args)
    eff = total_effects(model, part)
    blocks = RegressionBlocks.from_moments(moments, part)
    inputs = {"model": args.model, "model_hash": model_hash(model), **source}
    if args.plan:
        inputs["plan"] = args.plan
    spec = _plan_spec(args, part)
    optimal = optimal_b(eff, blocks) if spec.covariate_gains == "optimal" else None
    return part, moments, eff, blocks, optimal, resolve_plan(spec, part, optimal), inputs


def _residual_max(optimal) -> float:
    return float(np.abs(optimal.residual).max()) if optimal.residual.size else 0.0


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
    model = _valid_model(args)
    inputs = {"model": args.model, "model_hash": model_hash(model)}
    if args.treatment or args.response:
        part = _partition(model, args)
        rep = check_stability(model, part)
        results = {
            "spectral_radius_nondescendant_block": rep.nondescendant_radius,
            "spectral_radius_feedback_block": rep.feedback_radius,
            "stable": rep.stable,
            "margin": rep.margin,
        }
        stable = rep.stable
    else:
        rho = spectral_radius(model.coefficients)
        stable = is_stable(rho)
        results = {"spectral_radius": rho, "stable": stable, "margin": 1.0 - rho}
    report = Report("stability", inputs=inputs, results=results)
    if not stable:
        report.warnings.append("model is not stable: some spectral radius is not below 1")
    return report, (0 if stable else 2)


def _cmd_effects(args):
    model = _valid_model(args)
    part = _partition(model, args)
    _require_stable(model, part)
    eff = total_effects(model, part)
    results = {
        "total_effect_on_response": eff.to_response,
        "total_effects_on_controls": dict(zip(part.controls, eff.to_controls)),
        "total_effects_on_descendants": dict(zip(part.descendants, eff.to_descendants)),
    }
    report = Report(
        "effects",
        inputs={"model": args.model, "model_hash": model_hash(model)},
        results=results,
    )
    return report, 0


def _cmd_plan_eval(args):
    part, moments, eff, blocks, optimal, plan, inputs = _eval_pipeline(
        args, _valid_model(args)
    )
    effect = plan_variance(moments, eff, blocks, plan)
    report = Report("plan-eval", inputs=inputs)
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
    if optimal is not None:
        worst = _residual_max(optimal)
        report.results["optimal_gain_residual_max"] = worst
        if worst > 1e-9:
            report.warnings.append(
                "optimal covariate gains do not solve the zero-covariance equation "
                f"exactly (max residual {worst:.4g}); variance is reported at the "
                "least-squares gains"
            )
    return report, 0


def _cmd_plan_optimize(args):
    _require(args, "--W")
    part, moments, eff, blocks, optimal, plan, inputs = _eval_pipeline(
        args, _valid_model(args)
    )
    effect = plan_variance(moments, eff, blocks, plan)
    worst = _residual_max(optimal)
    report = Report("plan-optimize", inputs=inputs)
    report.results = {
        "b_star": dict(zip(part.covariates, optimal.covariate_gains)),
        "residual_max": worst,
        "mean_y": effect.response_mean,
        "var_y": effect.response_variance,
        "feedback_factor": effect.feedback_factor,
    }
    if worst > 1e-9:
        report.warnings.append(
            f"zero-covariance equation is inconsistent (max residual {worst:.4g}); "
            "returned gains are the least-squares solution"
        )
    return report, 0


def _cmd_estimate(args):
    if not args.cov and not args.data:
        raise UsageError("estimate requires --cov or --data")
    _require(args, "--treatment", "--response", "--instruments")
    if args.cov:
        moments = load_covariance(args.cov)
        inputs = {"cov": args.cov}
    else:
        moments = sample_moments(Dataset.from_csv(args.data))
        inputs = {"data": args.data}
    instruments = _names(args.instruments)
    if not instruments:
        raise UsageError("--instruments expects at least one variable name")
    if len(instruments) == 1:
        est = iv_estimate(moments, args.treatment, args.response, instruments[0])
        method = "iv"
    else:
        est = tsls_estimate(moments, args.treatment, args.response, instruments)
        method = "tsls"
    report = Report("estimate", inputs=inputs)
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
    model = _valid_model(args)
    config = SimulationConfig(n_draws=args.n, seed=args.seed, law=args.law)
    if planned:
        part, *_, plan, evaluated = _eval_pipeline(args, model)
        digest = evaluated["model_hash"]
        data = simulate_plan(model, part, plan, config)
        post = "post-plan"
    else:
        digest = model_hash(model)
        data = draw_equilibrium(model, config)
        post = "observational"
    sidecar = save_run(data, args.out, digest, config)
    inputs = {"model": args.model, "model_hash": digest, "seed": args.seed, "n": args.n,
              "law": args.law}
    report = Report("simulate", inputs=inputs)
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
    est = iv_estimate(moments, "X", "Y", "Z3")
    gamma = est.gamma_hat

    base_var = (
        moments.var("Y")
        + gamma**2 * moments.var("X")
        - 2.0 * gamma * moments.cov("X", "Y")
    )
    published_var = 0.998

    amplification = {}
    for a in (-5.0, -10.0, -20.0):
        factor = 1.0 / (1.0 - gamma * a)
        amplification[f"a={a:g}"] = {
            "mean_coefficient": gamma * factor,
            "mean_factor": factor,
            "variance_factor": factor**2,
            "variance": base_var * factor**2,
        }

    report = Report(
        "reproduce-iverson",
        inputs={"fixture": "iverson_covariance.json", "n": moments.n_obs},
    )
    report.results = {
        "gamma_hat_iv_z3": gamma,
        "observational_var_y": moments.var("Y"),
        "unconditional_plan": {
            "mean_coefficient": gamma,
            "var_y_closed_form": base_var,
            "var_y_published": published_var,
        },
        "conditional_plan": amplification,
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
        p.add_argument("--cov", default=None, help="covariance JSON file")
        p.add_argument("--data", default=None, help="observations CSV file")

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


def run_command(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        report, code = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SemControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = getattr(args, "out", None)
    if args.command != "simulate" and out:
        Path(out).write_text(report.to_json() + "\n")
    elif args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
