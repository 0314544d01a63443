"""Command-line surface: keygen, generate, detect, verify, experiment.

Exit codes form a three-value contract: 0 for success (for ``detect``,
watermark found; for ``verify``, every check passed), 1 for a clean
negative (no watermark / failed checks), 2 for any error. Machine-readable
output goes to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import keystream, oracles, textgen
from .core import json_text, parse_json, read_json, read_text
from .detector import detect
from .errors import InvalidInputError, TokenmarkError
from .experiments import load_config, run_experiments
from .keystream import CLOSED, OPEN, WatermarkKey


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenmark",
        description="Watermark token-sequence generators and detect the result.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="create a watermark key file")
    p.add_argument("--scheme", choices=[CLOSED, OPEN], required=True)
    p.add_argument("--d", type=int, required=True, help="dictionary size")
    p.add_argument("--epsilon", type=float, help="open scheme noise scale")
    p.add_argument("--k", type=int, help="open scheme support size")
    p.add_argument("--support-mode",
                   choices=[keystream.FIXED_SUPPORT, keystream.FRESH_SUPPORT])
    p.add_argument("--out", required=True, help="key file path")

    p = sub.add_parser("generate", help="sample a text, optionally watermarked")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="inline JSON model description")
    group.add_argument("--model-file", help="path to a JSON model description")
    p.add_argument("--n", type=int, required=True, help="number of tokens")
    p.add_argument("--seed", type=int, required=True, help="text RNG seed")
    p.add_argument("--key", help="key file; omit for unwatermarked text")
    p.add_argument("--out", required=True, help="output record path (JSON)")
    p.add_argument("--tokens-out", help="also write bare whitespace-separated ids")

    p = sub.add_parser("detect", help="score a text against a key")
    p.add_argument("--text", required=True,
                   help="record JSON or whitespace token file")
    p.add_argument("--key", required=True)
    p.add_argument("--delta", type=float, default=0.05,
                   help="false-positive tolerance (default 0.05)")
    p.add_argument("--out", help="also write the report JSON here")

    p = sub.add_parser("verify", help="run the analytic verification suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the report JSON here")

    p = sub.add_parser("experiment", help="run configured sweeps to CSV")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out-dir", required=True, help="directory for CSV + manifest")

    return parser


def cmd_keygen(args) -> int:
    d, padded = args.d, False
    if d < 2:
        raise InvalidInputError(f"--d must be at least 2, got {d}")
    if args.scheme == CLOSED and d % 2 != 0:
        # An odd dictionary gets one spurious never-sampled token so the
        # coloring can be balanced; detection accounts for it automatically.
        d, padded = d + 1, True
        print(f"note: padded dictionary to d={d}", file=sys.stderr)
    key = WatermarkKey(
        master_seed=keystream.new_master_seed(), d=d, scheme=args.scheme,
        epsilon=args.epsilon, k=args.k, support_mode=args.support_mode,
        padded=padded)
    keystream.save_key(key, args.out)
    return 0


def _load_model(args) -> textgen.SourceModel:
    if args.model is not None:
        return textgen.model_from_dict(parse_json(args.model, "inline model JSON"))
    return textgen.model_from_dict(read_json(args.model_file, "model file"))


def cmd_generate(args) -> int:
    if args.seed < 0:
        raise InvalidInputError(f"--seed must be a non-negative integer, got {args.seed}")
    model = _load_model(args)
    key = keystream.load_key(args.key) if args.key else None
    rng = np.random.default_rng(args.seed)
    record = textgen.generate(model, args.n, key, rng)
    textgen.save_record(record, args.out)
    if args.tokens_out:
        textgen.save_tokens(record.tokens, args.tokens_out)
    return 0


def _load_text_tokens(path, key: WatermarkKey) -> np.ndarray:
    """Tokens of a text record, a file whose first non-blank character is
    ``{`` and whose ``d`` must fit the key, or of a bare token file."""
    text = read_text(path, "text file")
    if not text.lstrip().startswith("{"):
        return textgen.tokens_from_text(text, path)
    record = textgen.record_from_dict(parse_json(text, f"text record {path}"))
    keystream.check_key_d(record.d, key)
    return record.tokens


def _print_json(obj, out=None) -> None:
    """Print ``obj`` as JSON, and write the same text to ``out`` if given."""
    text = json_text(obj)
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)


def cmd_detect(args) -> int:
    key = keystream.load_key(args.key)
    tokens = _load_text_tokens(args.text, key)
    report = detect(key, tokens, args.delta)
    _print_json(report.to_dict(), args.out)
    return 0 if report.verdict else 1


def cmd_verify(args) -> int:
    checks = oracles.verify_suite(args.level, seed=args.seed)
    report = oracles.suite_report(checks, args.level)
    _print_json(report, args.out)
    if report["all_pass"]:
        return 0
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
    return 1


def cmd_experiment(args) -> int:
    _print_json(run_experiments(load_config(args.config), args.out_dir))
    return 0


_COMMANDS = {
    "keygen": cmd_keygen,
    "generate": cmd_generate,
    "detect": cmd_detect,
    "verify": cmd_verify,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (TokenmarkError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
