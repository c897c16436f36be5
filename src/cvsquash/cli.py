"""Command-line surface: bound queries, sweep data, verification and oracle runs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain error,
4 I/O error, 5 cutoff refusal.
"""

import argparse
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import bounds, fock
from .bounds import (
    BoundReport,
    channel_esq,
    esq_bounds_channel_state,
    esq_bounds_tms,
    secret_key_capacity,
)
from .entropics import ChannelParam, g
from .errors import (CUTOFF, ENERGY, GAIN, CutoffError, DomainError, InvalidStateError,
                     SingularPointError, in_domain, memory_refusal)
from .states import extension_family, gaussian_cmi
from .verify import SUITES, run_suite

DEFAULT_PRECISION = 12

#: fixed, versioned sweep header
FIGURE1_HEADER = "kappa,E,esq_lower,esq_upper,esq_classical"
#: memory a figure1 row takes, by format: the worst tracemalloc peak of 1e5-row
#: sweeps at --precision 17
FIGURE1_ROW_BYTES = {"csv": 320, "json": 640}


def _fmt(x, precision):
    """Shortest round-trip decimal at the given precision; infinities as 'inf'."""
    x = float(x)
    if math.isinf(x):
        return "inf"
    return format(x, f".{precision}g")


def _json_value(x, precision):
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf"
    return float(format(x, f".{precision}g"))


def _emit(text, output):
    """Write text to stdout, or in place over the file at output.

    A regular file is overwritten from its start and then cut to the written
    length, with no truncation first: on ext4, a file truncated to zero and
    rewritten is flushed when it is closed.  The inode, its links and its mode
    stay as they were.  A failed write still cuts the file to the bytes written,
    so it holds a prefix of text and nothing of the old contents.
    """
    if output in (None, "-"):
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    fd = os.open(output, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)  # not /dev/null or a FIFO
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if regular:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _render_report(report, extras, fmt, precision):
    """Render a BoundReport (plus extra named quantities) as CSV or JSON."""
    if fmt == "json":
        payload = {
            "lower": _json_value(report.lower, precision),
            "upper": _json_value(report.upper, precision),
            "exact": _json_value(report.exact, precision),
            "provenance": list(report.provenance),
            "parameters": {k: _json_value(v, precision) if isinstance(v, float) else v
                           for k, v in report.parameters.items()},
        }
        for key, value in extras:
            payload[key] = _json_value(value, precision)
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    rows = [("esq_lower", report.lower), ("esq_upper", report.upper)]
    if report.exact is not None:
        rows.append(("esq_exact", report.exact))
    rows.extend(extras)
    lines = ["quantity,value"]
    lines.extend(f"{name},{_fmt(value, precision)}" for name, value in rows)
    return "\n".join(lines) + "\n"


def cmd_bounds(args):
    if args.family == "tms":
        report = esq_bounds_tms(args.kappa, args.energy)
    else:
        report = esq_bounds_channel_state(ChannelParam(args.family, args.param), args.energy)
    _emit(_render_report(report, [], args.format, args.precision), args.output)
    return 0


def cmd_channel(args):
    channel = ChannelParam(args.family, args.param)
    exact = channel_esq(channel)
    report = BoundReport(
        lower=exact,
        upper=exact,
        exact=exact,
        provenance=("theorem-2", channel.kind),
        parameters={"channel": channel.kind, "param": channel.value},
    )
    extras = [("secret_key_capacity", secret_key_capacity(channel))]
    _emit(_render_report(report, extras, args.format, args.precision), args.output)
    return 0


def _sweep(kappas, e_min, e_max, steps):
    """The figure1 sweep, one block per kappa: (kappa, esq_lower, table), where
    the (steps, 3) table holds the columns E, esq_upper and esq_classical.
    steps is an integer >= 2, checked by the caller.  The kappas and the grid's
    ends are validated once, for every block; every grid point is finite."""
    if not kappas:
        raise DomainError("the kappa list must be nonempty")
    in_domain("--kappas", kappas, GAIN)
    e_min = in_domain("--e-min", e_min, ENERGY)
    e_max = in_domain("--e-max", e_max, (e_min, ENERGY[1], f"finite and >= --e-min = {e_min}"))
    span = e_max - e_min
    with np.errstate(over="ignore"):
        if math.isinf(span * (steps - 1)):  # the grid's largest product
            # formed at span 2^-m, 2^m >= steps - 1, and scaled back: a power of two
            # commutes with rounding above the subnormals, so every point is as below
            m = (steps - 2).bit_length()
            grid = np.ldexp(math.ldexp(span, -m) * np.arange(steps) / (steps - 1), m)
        else:
            grid = span * np.arange(steps) / (steps - 1)
        energies = e_min + grid
    if math.isinf(energies[-1]):  # rounding carried the last point past e_max
        energies = np.minimum(energies, e_max)
    return [(kappa, *bounds._tms_sweep_block(kappa, energies)) for kappa in kappas]


def _figure1_text(blocks, fmt, precision):
    """The figure1 output of _sweep's blocks, as CSV or JSON.

    _sweep rejects non-finite values, so no value needs "inf".  Each block's rows
    are formatted in one % call; kappa, esq_lower and the trailing run of equal
    esq_classical values (every E >= E_kappa) are formatted once per block.
    """
    spec = f"%.{precision}g"
    if fmt == "json":
        # json.dumps prints _json_value's rounding of x as the repr of float(spec % x)
        def values(xs):
            return tuple(map(float, map(spec.__mod__, xs)))

        slot, parts = "%r", ["[\n"]
        row = "  {\n" + ",\n".join(f'    "{name}": %s' for name in FIGURE1_HEADER.split(","))
        row += "\n  },\n"
    else:
        slot, values, row, parts = spec, tuple, "%s,%s,%s,%s,%s\n", [FIGURE1_HEADER + "\n"]
    for kappa, lower, table in blocks:
        classical = table[:, 2]
        differ = np.flatnonzero(classical != classical[-1])
        run = int(differ[-1]) + 1 if differ.size else 0  # where the trailing run starts
        kappa, lower, tail = (slot % x for x in values([kappa, lower, classical[-1]]))
        parts.append(row % (kappa, slot, lower, slot, slot) * run
                     % values(table[:run].ravel().tolist()))
        parts.append(row % (kappa, slot, lower, slot, tail) * (len(table) - run)
                     % values(table[run:, :2].ravel().tolist()))
    if fmt == "json":
        parts[-1] = parts[-1][:-2] + "\n]\n"  # no comma after the last row
    return "".join(parts)


def cmd_figure1(args):
    rows = in_domain("--steps", args.steps, CUTOFF) * len(args.kappas)  # at least 2, as a cutoff
    nbytes = rows * FIGURE1_ROW_BYTES[args.format]
    refusal = memory_refusal(nbytes, "figure1 sweep of {} rows needs {}", rows)
    if refusal:  # refused before anything is allocated
        raise DomainError(refusal)
    text = _figure1_text(_sweep(args.kappas, args.e_min, args.e_max, args.steps),
                         args.format, args.precision)
    _emit(text, args.output)
    return 0


def cmd_verify(args):
    report = run_suite(args.suite, tolerance=args.tolerance, seed=args.seed)
    lines = [
        f"suite: {report.suite}",
        f"checks_run: {report.checks_run}",
        f"max_violation: {_fmt(report.max_violation, args.precision)}",
        f"tolerance: {_fmt(report.tolerance, args.precision)}",
        f"seed: {report.seed}",
        f"passed: {'true' if report.passed else 'false'}",
    ]
    _emit("\n".join(lines) + "\n", None)
    return 0 if report.passed else 1


def cmd_oracle(args):
    precision = args.precision
    if args.mode == "cmi":
        # one pass gives both numbers, after the refusals of oracle_cmi
        distributions = fock._oracle_distributions(args.kappa, args.energy, args.eta,
                                                   args.cutoff, enforce_cutoff=True)
        fock_value = fock._cmi_of(distributions)
        reference = gaussian_cmi(
            extension_family(args.kappa, args.energy, args.eta), "A", "B", "R"
        )
        lost = ("lost_norm", fock._lost_norm_of(distributions))
    else:
        channel = ChannelParam("attenuator" if args.kind == "att" else "amplifier", args.param)
        complement = args.kind == "comp"
        E = in_domain("mean energy", args.energy, ENERGY)
        # the covariance reference comes first, so that an overflow of its
        # output energy is named before the Fock route sees the input
        reference = g(channel.output_energy(E, complement))
        # a thermal input occupies one diagonal: the channel is refused before it is built
        fock._check_channel_memory(args.cutoff, 1, 1, max(E, channel.output_energy(E)))
        state = fock.thermal_fock(E, args.cutoff)
        out = fock.apply_channel_fock(state, channel, complement=complement)
        fock_value = fock.spectral_entropy(out)
        lost = ("tail_bound", out.tail_bound)
    lines = [
        f"fock: {_fmt(fock_value, precision)}",
        f"covariance: {_fmt(reference, precision)}",
        f"difference: {_fmt(fock_value - reference, precision)}",
        f"cutoff: {args.cutoff}",
        f"{lost[0]}: {_fmt(lost[1], precision)}",
    ]
    _emit("\n".join(lines) + "\n", None)
    return 0


def _parsed(convert, text, rule, allowed):
    """convert(text) if it converts and ``allowed`` accepts it, else a usage error
    that states the rule."""
    try:
        value = convert(text)
        if allowed(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{rule}, got {text}")


def _precision(text):
    # 17 significant digits round-trip every double; more print no information
    return _parsed(int, text, "must be an integer in [0, 17]", lambda p: 0 <= p <= 17)


def _tolerance(text):
    # a negative tolerance is allowed: it makes any suite fail (exit 1)
    return _parsed(float, text, "must be finite", math.isfinite)


def _seed(text):
    # numpy's generators take any integer >= 0, however large
    return _parsed(int, text, "must be an integer >= 0", lambda s: s >= 0)


def _add_output_flags(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
    parser.add_argument("--output", default=None, help="output path; default stdout")


def _csv_floats(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cvsquash",
        description="Squashed-entanglement bounds for Gaussian states and channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="state bound queries")
    b_sub = p_bounds.add_subparsers(dest="family", required=True)
    b_tms = b_sub.add_parser("tms", help="squeezed thermal-vacuum state")
    b_tms.add_argument("--kappa", type=float, required=True)
    b_tms.add_argument("--energy", type=float, required=True)
    b_att = b_sub.add_parser("attenuator", help="attenuator on half a TMSV")
    b_att.add_argument("--eta", type=float, required=True, dest="param", metavar="ETA")
    b_att.add_argument("--energy", type=float, required=True)
    b_amp = b_sub.add_parser("amplifier", help="amplifier on half a TMSV")
    b_amp.add_argument("--kappa", type=float, required=True, dest="param", metavar="KAPPA")
    b_amp.add_argument("--energy", type=float, required=True)
    for p in (b_tms, b_att, b_amp):
        _add_output_flags(p)
        p.set_defaults(func=cmd_bounds)

    p_channel = sub.add_parser("channel", help="exact channel values")
    c_sub = p_channel.add_subparsers(dest="family", required=True)
    c_att = c_sub.add_parser("attenuator")
    c_att.add_argument("--eta", type=float, required=True, dest="param", metavar="ETA")
    c_amp = c_sub.add_parser("amplifier")
    c_amp.add_argument("--kappa", type=float, required=True, dest="param", metavar="KAPPA")
    for p in (c_att, c_amp):
        _add_output_flags(p)
        p.set_defaults(func=cmd_channel)

    p_fig = sub.add_parser("figure1", help="bound/classical curves over an energy sweep")
    p_fig.add_argument("--kappas", type=_csv_floats, default=[1.5, 2.0, 3.0])
    p_fig.add_argument("--e-min", type=float, default=0.0, dest="e_min")
    p_fig.add_argument("--e-max", type=float, default=1.0, dest="e_max")
    p_fig.add_argument("--steps", type=int, default=200)
    _add_output_flags(p_fig)
    p_fig.set_defaults(func=cmd_figure1)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--tolerance", type=_tolerance, default=None)
    p_verify.add_argument("--seed", type=_seed, default=None)
    p_verify.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="Fock-route cross checks")
    o_sub = p_oracle.add_subparsers(dest="mode", required=True)
    o_cmi = o_sub.add_parser("cmi", help="conditional mutual information, both routes")
    o_cmi.add_argument("--kappa", type=float, required=True)
    o_cmi.add_argument("--energy", type=float, required=True)
    o_cmi.add_argument("--eta", type=float, required=True)
    o_cmi.add_argument("--cutoff", type=int, required=True)
    o_chan = o_sub.add_parser("channel", help="channel output entropy, both routes")
    o_chan.add_argument("--kind", choices=("amp", "att", "comp"), required=True)
    o_chan.add_argument("--param", type=float, required=True)
    o_chan.add_argument("--energy", type=float, required=True)
    o_chan.add_argument("--cutoff", type=int, required=True)
    for p in (o_cmi, o_chan):
        p.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION)
        p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, InvalidStateError, SingularPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CutoffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
