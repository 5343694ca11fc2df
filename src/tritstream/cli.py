"""Command-line surface: encode, decode and rd-curve.

Exit codes: 0 on success, 1 for usage problems (bad flags), 2 for data
problems (unreadable or malformed files, budgets below the header).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .codec import decode, encode_result, rd_trace, truncate
from .errors import TritstreamError
from .formats import read_lten, write_lflt

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this surface reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bases_arg(text: str) -> tuple[int, ...]:
    try:
        bases = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad base list {text!r}") from None
    if not bases or any(b not in (2, 3) for b in bases):
        raise argparse.ArgumentTypeError("bases must come from {2, 3}")
    return bases


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_file(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _cmd_encode(args) -> int:
    values, sigmas = read_lten(_read_file(args.input))
    result = encode_result(values, sigmas, base=args.base,
                           sigma_mode=args.sigma_mode)
    _write_file(args.output, result.stream)
    total = len(result.stream)
    print(f"{total} bytes, {8.0 * total / values.size:.4f} bits per element")
    return 0


def _cmd_decode(args) -> int:
    stream = _read_file(args.input)
    if args.budget is not None:
        stream = truncate(stream, args.budget)
    sigmas = None
    if args.sigma is not None:
        _, sigmas = read_lten(_read_file(args.sigma))
    recon = decode(stream, sigmas=sigmas)
    _write_file(args.output, write_lflt(recon.values))
    print(f"mse {recon.mse:.12g}")
    return 0


def _cmd_rd_curve(args) -> int:
    values, sigmas = read_lten(_read_file(args.input))
    lines = ["base,cumulative_bits,mse"]
    for base in args.bases:
        points, _ = rd_trace(values, sigmas, base=base,
                             sigma_mode=args.sigma_mode, group=args.group)
        lines.extend(f"{base},{int(bits)},{mse:.17g}" for bits, mse in points)
    with open(args.output, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines) - 1} points")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="tritstream",
                     description="Progressive coding of Gaussian integer latents.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode an LTEN file into a stream")
    enc.add_argument("input")
    enc.add_argument("output")
    enc.add_argument("--base", type=int, choices=(2, 3), default=3)
    enc.add_argument("--sigma-mode", type=int, choices=(0, 1), default=1)
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="decode a stream (or prefix) to floats")
    dec.add_argument("input")
    dec.add_argument("output")
    dec.add_argument("--sigma", help="LTEN file supplying scales for mode-0 streams "
                                     "(an error for mode-1 streams)")
    dec.add_argument("--budget", type=_non_negative_int,
                     help="truncate to this many bytes first")
    dec.set_defaults(func=_cmd_decode)

    curve = sub.add_parser("rd-curve", help="emit rate-distortion points as CSV")
    curve.add_argument("input")
    curve.add_argument("output")
    curve.add_argument("--bases", type=_bases_arg, default=(2, 3))
    curve.add_argument("--sigma-mode", type=int, choices=(0, 1), default=1)
    curve.add_argument("--group", type=_positive_int, default=256)
    curve.set_defaults(func=_cmd_rd_curve)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TritstreamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
