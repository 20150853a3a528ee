"""Command line surface: build and export operators, run verification
campaigns, list the registries.

Exit codes: 0 success/pass, 1 verification or construction failure, 2
usage error: anything argparse refuses (such as a non-finite or negative
tolerance, a --couplings value that is not seven complex numbers, a build
site count below 2 or beyond the register ceiling, or an --out path in a
missing directory or naming a directory), an --out file that cannot be
written once the work is done, and any verify request, its SIMPLEX_SEED
included, that verify.CampaignArgumentError refuses.  A reader that
closes stdout early changes no exit code (see ``_emit``)."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from . import operators as op_families
from . import verify
from .gates import CCNOT, CCZ, CZ, SWAP, n_toffoli
from .su2 import AxisAngle, DegenerateEigenvaluesError, fixed_gate
from .tensor import _unitarity, arity_of, frobenius_distance

_PI_RE = re.compile(
    r"^\s*([+-]?\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d*\.?\d+))?\s*$", re.IGNORECASE
)
_NAMED_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def parse_angle(text: str) -> float:
    """Decimal radians or a pi fraction: '0.5', 'pi', '-pi/2', '3pi/4'.
    Anything that does not give a finite number is rejected."""
    m = _PI_RE.match(text)
    try:
        if m:
            coeff_s, den_s = m.groups()
            coeff = float(coeff_s + "1") if coeff_s in ("", "+", "-") else float(coeff_s)
            value = coeff * math.pi
            if den_s:
                value /= float(den_s)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle {text!r} is not finite")
    return value


def parse_axis(text: str) -> tuple[float, float, float]:
    """'x'/'y'/'z' or three comma-separated components; vectors within 1e-6
    of unit length are normalized, anything farther is rejected."""
    t = text.strip().lower()
    if t in _NAMED_AXES:
        return _NAMED_AXES[t]
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"axis must be x|y|z or three components, got {text!r}")
    try:
        v = np.array([float(p) for p in parts])
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse axis {text!r}") from None
    norm = float(np.linalg.norm(v))
    if not math.isfinite(norm) or abs(norm - 1.0) > 1e-6:
        raise argparse.ArgumentTypeError(
            f"axis {text!r} has norm {norm:.8f}, not within 1e-6 of unit length")
    v = v / norm
    return (float(v[0]), float(v[1]), float(v[2]))


def parse_complex(text: str) -> complex:
    """Python complex syntax: '1', '-0.5', '1+0.5j', '2j'; both parts must be
    finite."""
    try:
        value = complex(text.strip().replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"complex number {text!r} is not finite")
    return value


def parse_tolerance(text: str) -> float:
    """A finite, non-negative residual bound."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse tolerance {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"tolerance {text!r} is not a finite non-negative number")
    return value


def parse_couplings(text: str) -> op_families.CouplingConstants:
    """Seven comma-separated complex numbers: alpha1, alpha2, alpha3, beta1,
    beta2, beta3, gamma."""
    vals = [parse_complex(v) for v in text.split(",")]
    if len(vals) != 7:
        raise argparse.ArgumentTypeError(
            f"needs 7 comma-separated values, got {len(vals)}")
    return op_families.CouplingConstants(*vals)


def parse_site_count(text: str) -> int:
    """Site count of an n-site family to build: at least 2, the smallest
    n-site family, and at most DENSE_SITE_LIMIT, so the operator holds at
    most 4**12 entries; checked while parsing, before any allocation."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse site count {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"build needs at least 2 sites, got {value}")
    if value > verify.DENSE_SITE_LIMIT:
        raise argparse.ArgumentTypeError(
            f"build supports at most {verify.DENSE_SITE_LIMIT} sites, got {value}")
    return value


def parse_out_path(text: str) -> str:
    """A file to write: its directory must exist and it must not be one."""
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory of {text!r} does not exist")
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _axis_angle(args: argparse.Namespace, label: str) -> AxisAngle:
    return AxisAngle(getattr(args, f"axis_{label}"), getattr(args, f"theta_{label}"))


def _add_axis_angle(parser, label: str, axis_default: str, theta_default: str) -> None:
    parser.add_argument(f"--axis-{label}", type=parse_axis, default=parse_axis(axis_default),
                        metavar="AXIS", help=f"site {label} axis (default {axis_default})")
    parser.add_argument(f"--theta-{label}", type=parse_angle, default=parse_angle(theta_default),
                        metavar="ANGLE", help=f"site {label} angle (default {theta_default})")


# ---------------------------------------------------------------------------
# family registry


@dataclass(frozen=True)
class Family:
    description: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    build: Callable[[argparse.Namespace], np.ndarray]
    reference: Callable[[argparse.Namespace], tuple[str, np.ndarray]] | None = None


def _generic_args(p):
    p.add_argument("--family-kind", choices=("pauli-exp", "seeded-random"),
                   default="seeded-random")
    p.add_argument("--family-seed", type=int, default=0)
    p.add_argument("--mu-i", type=parse_complex, default=complex(0.4, 0.2))
    p.add_argument("--mu-j", type=parse_complex, default=complex(-0.8, 0.5))
    p.add_argument("--mu-k", type=parse_complex, default=complex(1.1, -0.3))
    p.add_argument("--couplings", type=parse_couplings, default="1,1,1,1,1,1,1",
                   metavar="C1,...,C7", help="alpha1,alpha2,alpha3,beta1,beta2,beta3,gamma")


def _generic_build(args):
    family = (op_families.pauli_exp() if args.family_kind == "pauli-exp"
              else op_families.seeded_random(args.family_seed))
    return op_families.generic_tetrahedron(
        family, (args.mu_i, args.mu_j, args.mu_k), args.couplings)


def _4simplex_args(p):
    p.add_argument("--variant", choices=("two-control", "three-control"),
                   default="three-control")
    for label, axis, theta in (("i", "z", "pi/2"), ("j", "z", "pi/2"),
                               ("k", "z", "pi/2"), ("l", "x", "pi/2")):
        _add_axis_angle(p, label, axis, theta)
    p.add_argument("--alpha", type=parse_angle, default=0.0)
    p.add_argument("--special-point", action="store_true",
                   help="force the 4-Toffoli reduction point (z,z,z axes, x target, all pi/2, alpha 0)")


def _4simplex_build(args):
    if args.special_point:
        z, x = _NAMED_AXES["z"], _NAMED_AXES["x"]
        ps = [AxisAngle(z, math.pi / 2)] * 3 + [AxisAngle(x, math.pi / 2)]
        alpha = 0.0
    else:
        ps = [_axis_angle(args, lbl) for lbl in "ijkl"]
        alpha = args.alpha
    return op_families.su2_4simplex(*ps, alpha=alpha,
                                    variant=args.variant.replace("-", "_"))


def _ntoffoli_args(p):
    p.add_argument("--n", type=parse_site_count, default=3)
    p.add_argument("--control-axis", type=parse_axis, default=_NAMED_AXES["z"])
    p.add_argument("--control-theta", type=parse_angle, default=math.pi / 2)
    p.add_argument("--target-axis", type=parse_axis, default=_NAMED_AXES["x"])
    p.add_argument("--target-theta", type=parse_angle, default=math.pi / 2)


def _ntoffoli_build(args):
    params = [AxisAngle(args.control_axis, args.control_theta)] * (args.n - 1)
    params.append(AxisAngle(args.target_axis, args.target_theta))
    return op_families.n_simplex_su2_toffoli(params)


FAMILIES: dict[str, Family] = {
    "toffoli-family": Family(
        "phased Toffoli gate family (CCNOT at alpha 0)",
        lambda p: p.add_argument("--alpha", type=parse_angle, default=0.0),
        lambda args: op_families.toffoli_family(args.alpha),
        lambda args: ("CCNOT", CCNOT.copy()),
    ),
    "su2-tetrahedron": Family(
        "three-site rotation family (Toffoli family at its special point)",
        lambda p: (_add_axis_angle(p, "i", "z", "pi/2"), _add_axis_angle(p, "j", "z", "pi/2"),
                   _add_axis_angle(p, "k", "x", "pi/2"),
                   p.add_argument("--alpha", type=parse_angle, default=0.0)),
        lambda args: op_families.su2_tetrahedron(
            _axis_angle(args, "i"), _axis_angle(args, "j"), _axis_angle(args, "k"),
            alpha=args.alpha),
        lambda args: (f"toffoli-family(alpha={args.alpha:g})",
                      op_families.toffoli_family(args.alpha)),
    ),
    "general-toffoli": Family(
        "Toffoli with rotated control bases and rotated target flip",
        lambda p: (_add_axis_angle(p, "i", "z", "pi/2"), _add_axis_angle(p, "j", "z", "pi/2"),
                   _add_axis_angle(p, "k", "z", "0")),
        lambda args: op_families.general_toffoli(
            _axis_angle(args, "i"), _axis_angle(args, "j"), _axis_angle(args, "k")),
        lambda args: ("CCNOT", CCNOT.copy()),
    ),
    "generic-tetrahedron": Family(
        "coupled products of per-site operators from a chosen family",
        _generic_args,
        _generic_build,
    ),
    "constant-ccz": Family(
        "sign flip on |111>: the constant solution equal to CCZ",
        lambda p: None,
        lambda args: op_families.n_simplex_constant(3),
        lambda args: ("CCZ", CCZ.copy()),
    ),
    "constant-alpha": Family(
        "constant solution with a phased last factor",
        lambda p: p.add_argument("--alpha", type=parse_angle, default=0.0),
        lambda args: op_families.n_simplex_constant(3, args.alpha),
    ),
    "constant-alpha-beta": Family(
        "unitary constant solution with a two-phase last factor",
        lambda p: (p.add_argument("--alpha", type=parse_angle, default=0.0),
                   p.add_argument("--beta", type=parse_angle, default=0.0)),
        lambda args: op_families.constant_alpha_beta(args.alpha, args.beta),
    ),
    "constant-linear": Family(
        "a*identity + b*|111><111| (constant solution, rarely unitary)",
        lambda p: (p.add_argument("--a", type=parse_complex, default=complex(1.0)),
                   p.add_argument("--b", type=parse_complex, default=complex(-2.0))),
        lambda args: op_families.constant_linear(args.a, args.b),
    ),
    "cz-yangbaxter": Family(
        "two-site sign flip on |11> solving the Yang-Baxter equation",
        lambda p: None,
        lambda args: op_families.n_simplex_constant(2),
        lambda args: ("CZ", CZ.copy()),
    ),
    "su2-4simplex": Family(
        "four-site rotation family (two flip-control variants)",
        _4simplex_args,
        _4simplex_build,
        lambda args: ("NTOFFOLI(4)", n_toffoli(4)),
    ),
    "nsimplex-constant": Family(
        "diagonal constant n-site solution",
        lambda p: (p.add_argument("--n", type=parse_site_count, default=3),
                   p.add_argument("--alpha", type=parse_angle, default=0.0)),
        lambda args: op_families.n_simplex_constant(args.n, args.alpha),
    ),
    "nsimplex-su2toffoli": Family(
        "n-site Toffoli family with rotated control bases",
        _ntoffoli_args,
        _ntoffoli_build,
        lambda args: (f"NTOFFOLI({args.n})", n_toffoli(args.n)),
    ),
    "twisted-permutation": Family(
        "SWAP conjugated by the two site rotations",
        lambda p: (_add_axis_angle(p, "1", "z", "0"), _add_axis_angle(p, "2", "z", "0")),
        lambda args: op_families.twisted_permutation(_axis_angle(args, "1"),
                                                     _axis_angle(args, "2")),
        lambda args: ("SWAP", SWAP.copy()),
    ),
    "conjugated-site": Family(
        "single-site conjugation of a fixed gate into a rotated frame",
        lambda p: (_add_axis_angle(p, "1", "z", "0"),
                   p.add_argument("--gate", default="X", choices=("I", "X", "Y", "Z", "H"))),
        lambda args: op_families.conjugated_site_operator(_axis_angle(args, "1"),
                                                          fixed_gate(args.gate)),
    ),
}


# ---------------------------------------------------------------------------
# commands


def cmd_build(args: argparse.Namespace) -> int:
    fam = FAMILIES[args.family]
    try:
        # an overflow is reported once, by the non-finite check, not as numpy warnings too
        with np.errstate(over="ignore", invalid="ignore"):
            op = fam.build(args)
        if not np.isfinite(op).all():
            raise ValueError("operator has non-finite entries")
    except ValueError as exc:
        kind = "DegenerateEigenvalues: " if isinstance(exc, DegenerateEigenvaluesError) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1
    k = arity_of(op)
    deviation, unitary = _unitarity(op)
    lines = [f"family: {args.family}", f"arity: {k}  dim: {2 ** k}",
             f"unitary: {'yes' if unitary else 'no'} (deviation {deviation:.3e})"]
    if fam.reference is not None:
        ref_name, ref = fam.reference(args)
        lines.append(f"distance to {ref_name}: {frobenius_distance(op, ref):.6e}")
    _emit("\n".join(lines))
    if args.out:
        try:
            save_operator(op, args.out)
        except OSError as exc:
            return _unwritable(args.out, exc)
        _emit(f"wrote: {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        if args.seed is None:
            args.seed = _default_seed()
        report = verify.campaign(
            args.checks, trials=args.trials, seed=args.seed, tol=args.tol,
            n=args.n, mode=args.mode, vectors=args.vectors,
        )
    except verify.CampaignArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = {**vars(report), "checks": [vars(check) for check in report.checks],
           "config": {k: v for k, v in vars(args).items() if k != "func"}}
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        try:
            _write_text(args.out, text + "\n")
        except OSError as exc:
            return _unwritable(args.out, exc)
    else:
        _emit(text)
    return 0 if report.verdict == "pass" else 1


def cmd_list(args: argparse.Namespace) -> int:
    catalog = {"checks": {name: spec.description for name, spec in verify.CHECKS.items()}}
    if not args.checks:
        catalog["families"] = {name: fam.description for name, fam in FAMILIES.items()}
    if args.json:
        _emit(json.dumps(catalog, sort_keys=True, indent=2))
        return 0
    sections = [("operator families", catalog.get("families")),
                ("verification checks", catalog["checks"])]
    _emit("\n\n".join(f"{title}:\n" + "\n".join(
        f"  {name:{max(map(len, rows))}s} {text}" for name, text in rows.items())
        for title, rows in sections if rows))
    return 0


def save_operator(op: np.ndarray, path: str | Path) -> None:
    """Write the operator as JSON: {"arity": k, "dim": 2**k, "entries":
    [[re, im], ...]}, entries row-major.  Floats round-trip exactly through
    JSON; a non-finite entry raises ValueError and leaves ``path`` as it was."""
    op = np.asarray(op, dtype=complex)
    k = arity_of(op)
    entries = [[float(z.real), float(z.imag)] for z in op.reshape(-1)]
    _write_text(path, json.dumps({"arity": k, "dim": 2**k, "entries": entries},
                                 allow_nan=False) + "\n")


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``, a writable regular file there (no symlink) unlinked first
    if its directory allows: ext4 flushes one rewritten in place on close (55-75 ms, 2 vCPUs)."""
    path = Path(path)
    with contextlib.suppress(OSError):
        if path.is_file() and not path.is_symlink() and os.access(path, os.W_OK):
            path.unlink()
    path.write_text(text)


def _unwritable(path: str, exc: OSError) -> int:
    """Report an --out file that could not be written; a usage error."""
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _emit(text: str) -> None:
    """Print ``text`` to stdout and flush.  If the reader closed the pipe
    early, point stdout at devnull, so that the flush at exit cannot fail
    again, and return: each command keeps its exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _default_seed() -> int:
    """Base seed from SIMPLEX_SEED, else 0; a value that is not an integer
    raises CampaignArgumentError naming the variable."""
    text = os.environ.get("SIMPLEX_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise verify.CampaignArgumentError(
            f"SIMPLEX_SEED must be an integer, got {text!r}") from None


# built once per process: each parse_args fills a fresh Namespace, and no
# default is mutable, so no call sees another's arguments
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexgates",
        description="Build simplex operator families and verify their equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct an operator and report its properties")
    fam_sub = build.add_subparsers(dest="family", required=True, metavar="FAMILY")
    for name, fam in FAMILIES.items():
        fp = fam_sub.add_parser(name, help=fam.description)
        fam.add_arguments(fp)
        fp.add_argument("--out", type=parse_out_path, default=None, metavar="PATH",
                        help="write the operator as a JSON file")
        fp.set_defaults(func=cmd_build)

    ver = sub.add_parser("verify", help="run named verification checks")
    ver.add_argument("checks", nargs="+", metavar="CHECK")
    ver.add_argument("--n", type=int, default=None, help="simplex order for n-aware checks")
    ver.add_argument("--trials", type=int, default=20)
    # the environment is read only when verify runs without --seed
    ver.add_argument("--seed", type=int, default=None,
                     help="base seed (default from SIMPLEX_SEED, else 0)")
    ver.add_argument("--tol", type=parse_tolerance, default=None,
                     help="override the absolute tolerance on normalized residuals "
                          "(not the bound of an inverted check)")
    ver.add_argument("--mode", choices=verify.MODES, default=None)
    ver.add_argument("--vectors", type=int, default=verify.DEFAULT_VECTORS,
                     help="random unit vectors per matrix-free trial")
    ver.add_argument("--out", type=parse_out_path, default=None, metavar="PATH",
                     help="write the JSON report here")
    ver.set_defaults(func=cmd_verify)

    lst = sub.add_parser("list", help="list operator families and checks")
    lst.add_argument("--checks", action="store_true", help="only the verification checks")
    lst.add_argument("--json", action="store_true", help="machine-readable catalog")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
