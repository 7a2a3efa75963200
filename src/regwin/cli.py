"""Command-line harness: classify and analyze languages, run single
testers over streams, query the distance oracles, and drive reproducible
experiments from a JSON config.

Experiment configs look like::

    {
      "seed": 7,
      "trials": 100,
      "eps": 0.5,
      "window_sizes": [256, 4096],
      "languages": [{"id": "a-star", "regex": "a*", "alphabet": "ab"}],
      "testers": ["det", "two-sided"],
      "streams": [{"kind": "periodic", "block": "ba", "repeats": 4096}],
      "timing": false
    }

Reports are CSV (or ``--json``) with one row per language x tester x
window size x stream; rows carry the oracle distance of the final window
so every accept/reject frequency can be audited, and the maximum state
size in bits seen over the run.  With ``"timing": false`` the wall-time
column is zeroed so identical configs and seeds give byte-identical
reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from . import analysis, oracle, streams
from .automata import (
    Alphabet,
    AutomatonError,
    Dfa,
    automaton_from_json,
    automaton_to_json,
    determinize,
    minimize,
    parse_regex,
    rdfa_to_dfa,
)
from .testers_rand import TESTER_KINDS, Language, build_tester_factory


class ConfigError(ValueError):
    """Invalid experiment config; message carries the offending field path."""


def language_from_regex(ident: str, pattern: str, alphabet: Alphabet) -> Language:
    return Language(ident, minimize(determinize(parse_regex(pattern, alphabet))))


def language_from_file(ident: str, path: str) -> Language:
    with open(path, "r", encoding="utf-8") as handle:
        machine = automaton_from_json(json.load(handle))
    if not isinstance(machine, Dfa):
        machine = rdfa_to_dfa(machine)
    return Language(ident, machine)


def _language_from_config(entry: dict, path: str) -> Language:
    if not isinstance(entry, dict):
        raise ConfigError(f"{path}: expected an object")
    ident = entry.get("id")
    if not isinstance(ident, str) or not ident:
        raise ConfigError(f"{path}.id: expected a nonempty string")
    if "regex" in entry:
        alphabet_text = entry.get("alphabet")
        if not isinstance(alphabet_text, str) or not alphabet_text:
            raise ConfigError(f"{path}.alphabet: required with a regex")
        alphabet = Alphabet.from_string(alphabet_text, entry.get("pad"))
        pattern = entry["regex"]
        if not isinstance(pattern, str):
            raise ConfigError(f"{path}.regex: expected a string, got {pattern!r}")
        try:
            return language_from_regex(ident, pattern, alphabet)
        except AutomatonError as exc:
            raise ConfigError(f"{path}.regex: {exc}") from exc
    if "automaton" in entry:
        file_path = entry["automaton"]
        if not isinstance(file_path, str):
            raise ConfigError(f"{path}.automaton: expected a file path, got {file_path!r}")
        return language_from_file(ident, file_path)
    raise ConfigError(f"{path}: needs either 'regex' or 'automaton'")


REPORT_COLUMNS = (
    "language",
    "tester",
    "n",
    "eps",
    "stream",
    "trials",
    "accept_freq",
    "oracle_dist",
    "state_bits",
    "wall_time_s",
)


@dataclass(frozen=True)
class ReportRow:
    language: str
    tester: str
    n: int
    eps: float
    stream: str
    trials: int
    accept_freq: float
    oracle_dist: int | float
    state_bits: int
    wall_time_s: float

    def as_record(self) -> dict:
        record = {col: getattr(self, col) for col in REPORT_COLUMNS}
        if record["oracle_dist"] == math.inf:
            record["oracle_dist"] = "inf"
        return record


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _first_repeat(values: list) -> int | None:
    """Index of the first value that equals an earlier one, or None."""
    seen = set()
    for i, value in enumerate(values):
        if value in seen:
            return i
        seen.add(value)
    return None


def _final_pieces(pieces: Sequence[streams.Piece], alphabet: Alphabet, n: int) -> list[streams.Piece]:
    """The window after the stream of ``pieces``, as pieces: its last n
    symbols, padded on the left, taken from the right in whole copies and
    at most one suffix of a copy; ``regwin oracle dist`` prints it joined."""
    if n < 0:
        raise ValueError("window size must be nonnegative")
    window: list[streams.Piece] = []
    need = n
    for word, k in reversed(pieces):
        if not need:
            break
        if not word:
            continue
        whole = min(k, need // len(word))
        if whole:
            window.append((word, whole))
            need -= whole * len(word)
        if whole < k and need:
            window.append((word[len(word) - need :], 1))
            need = 0
    if need:
        window.append((alphabet.pad, need))
    return window[::-1]


def run_experiment(config: dict) -> list[ReportRow]:
    """Cross product of languages x testers x window sizes x streams."""
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    seed = config.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError("seed: expected an integer")
    trials = config.get("trials", 1)
    if not _is_int(trials) or trials < 1:
        raise ConfigError("trials: expected a positive integer")
    eps = config.get("eps", 0.5)
    if not _is_number(eps) or not 0 < eps <= 1:  # NaN fails the range test too
        raise ConfigError(f"eps: expected a number in (0, 1], got {eps!r}")
    timing = config.get("timing", True)
    if not isinstance(timing, bool):
        raise ConfigError(f"timing: expected true or false, got {timing!r}")

    window_sizes = config.get("window_sizes")
    if not isinstance(window_sizes, list) or not all(_is_int(n) and n >= 0 for n in window_sizes):
        raise ConfigError("window_sizes: expected a list of nonnegative integers")
    # report rows carry the language id, tester kind, window size and stream label: a repeat of
    # any of them would make rows indistinguishable
    if (i := _first_repeat(window_sizes)) is not None:
        raise ConfigError(f"window_sizes[{i}]: duplicate {window_sizes[i]}")

    raw_languages = config.get("languages")
    if not isinstance(raw_languages, list) or not raw_languages:
        raise ConfigError("languages: expected a nonempty list")
    languages = [
        _language_from_config(entry, f"languages[{i}]") for i, entry in enumerate(raw_languages)
    ]
    if (i := _first_repeat([language.ident for language in languages])) is not None:
        raise ConfigError(f"languages[{i}].id: duplicate {languages[i].ident!r}")

    kinds = config.get("testers", [])
    if not isinstance(kinds, list):
        raise ConfigError("testers: expected a list")
    for i, kind in enumerate(kinds):
        if kind not in TESTER_KINDS:
            raise ConfigError(f"testers[{i}]: unknown kind {kind!r}")
    if (i := _first_repeat(kinds)) is not None:
        raise ConfigError(f"testers[{i}]: duplicate {kinds[i]!r}")

    raw_streams = config.get("streams")
    if not isinstance(raw_streams, list) or not raw_streams:
        raise ConfigError("streams: expected a nonempty list")
    specs = []
    for i, entry in enumerate(raw_streams):
        try:
            specs.append(streams.spec_from_dict(entry))
        except ValueError as exc:
            raise ConfigError(f"streams[{i}]: {exc}") from exc
    if (i := _first_repeat([spec.label() for spec in specs])) is not None:
        raise ConfigError(f"streams[{i}]: duplicate {specs[i].label()!r}")

    rows = []
    for language in languages:
        factories = {
            n: {kind: build_tester_factory(kind, language, n, eps) for kind in kinds} for n in window_sizes
        }
        for spec in specs:
            pieces = streams.pieces(spec, language.alphabet)
            for n in window_sizes:
                dist = oracle.distance_to_language(_final_pieces(pieces, language.alphabet, n), language.dfa)
                for kind, factory in factories[n].items():
                    started = time.perf_counter()
                    result = streams.monte_carlo(factory, pieces, trials, seed)
                    elapsed = time.perf_counter() - started if timing else 0.0
                    rows.append(
                        ReportRow(
                            language=language.ident,
                            tester=kind,
                            n=n,
                            eps=eps,
                            stream=spec.label(),
                            trials=trials,
                            accept_freq=result.accept_rate,
                            oracle_dist=dist,
                            state_bits=result.max_state_bits,
                            wall_time_s=round(elapsed, 6),
                        )
                    )
    rows.sort(key=lambda r: (r.language, r.tester, r.n, r.stream))
    return rows


def report_to_csv(rows: list[ReportRow]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_record())
    return out.getvalue()


def report_to_json(rows: list[ReportRow]) -> str:
    return json.dumps([row.as_record() for row in rows], indent=2) + "\n"


# --- argparse front end --------------------------------------------------------


def _add_language_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--regex", help="language as a regex over --alphabet")
    parser.add_argument("--regex-file", help="file holding the regex on its first line")
    parser.add_argument("--alphabet", help="alphabet symbols, e.g. 'ab'")
    parser.add_argument("--pad", help="pad symbol (default: smallest alphabet symbol)")
    parser.add_argument("--automaton", help="automaton JSON file (direction left or right)")


def _language_from_args(args: argparse.Namespace) -> Language:
    pattern = args.regex
    if pattern is None and args.regex_file:
        with open(args.regex_file, "r", encoding="utf-8") as handle:
            pattern = handle.readline().strip()
    if pattern is not None:
        if not args.alphabet:
            raise SystemExit("a regex needs --alphabet")
        alphabet = Alphabet.from_string(args.alphabet, args.pad)
        return language_from_regex(pattern, pattern, alphabet)
    if args.automaton:
        return language_from_file(args.automaton, args.automaton)
    raise SystemExit("give a language with --regex, --regex-file or --automaton")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args: argparse.Namespace) -> int:
    language = _language_from_args(args)
    report = {
        "language": language.ident,
        "trivial": analysis.is_trivial(language.dfa),
        "suffix_free": analysis.is_suffix_free(analysis.reverse_to_rdfa(language.dfa)),
        "one_sided_class": analysis.one_sided_class(language.dfa).value,
    }
    excluded = analysis.find_excluded_factor(language.dfa)
    if excluded is None:
        report["excluded_factor"] = None
        report["excluded_factor_reason"] = (
            "trivial language"
            if report["trivial"]
            else f"bounded search exhausted (factors of length <= {analysis.FACTOR_MAX_LEN}, length progressions "
            f"of step <= {analysis.FACTOR_MAX_STEP_MULTIPLE} x the realized-length period)"
        )
    else:
        progression, factor = excluded
        report["excluded_factor"] = {
            "factor": factor,
            "lengths": {"offset": progression.offset, "step": progression.step},
        }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    language = _language_from_args(args)
    analyzed = analysis.analyze(language.dfa)
    scc = analyzed.scc
    report = {
        "language": language.ident,
        "period": analyzed.g,
        "threshold": analyzed.t,
        "states": analyzed.rdfa.n_states,
        "initial": analyzed.rdfa.initial,
        "finals": sorted(analyzed.rdfa.finals),
        "acceptance_sets": {str(q): analyzed.acc[q].to_dict() for q in range(analyzed.rdfa.n_states)},
        "acceptance_residues": {str(q): sorted(analyzed.acc_mod[q]) for q in range(analyzed.rdfa.n_states)},
        "sccs": [
            {
                "id": cid,
                "states": sorted(component),
                "transient": scc.transient[cid],
                "period": analyzed.periods.component_period[cid],
            }
            for cid, component in enumerate(scc.components)
        ],
        "classification": analysis.one_sided_class(language.dfa).value,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _cmd_tester_run(args: argparse.Namespace) -> int:
    if not 0 < args.eps <= 1:  # NaN fails the range test too
        raise ConfigError(f"--eps: expected a number in (0, 1], got {args.eps!r}")
    language = _language_from_args(args)
    spec = streams.spec_from_string(args.stream)
    pieces = streams.pieces(spec, language.alphabet)
    factory = build_tester_factory(args.kind, language, args.n, args.eps)
    result = streams.monte_carlo(factory, pieces, args.trials, args.seed, trace=args.trace)
    dist = oracle.distance_to_language(_final_pieces(pieces, language.alphabet, args.n), language.dfa)
    report = {
        "language": language.ident,
        "kind": args.kind,
        "n": args.n,
        "stream": spec.label(),
        "trials": args.trials,
        "accept_freq": result.accept_rate,
        "state_bits": result.max_state_bits,
        "oracle_dist": "inf" if dist == math.inf else dist,
    }
    if args.trace:
        report["traces"] = [list(t) for t in result.traces]
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    rows = run_experiment(config)
    text = report_to_json(rows) if args.json else report_to_csv(rows)
    _emit(text, args.out)
    return 0


def _cmd_oracle_dist(args: argparse.Namespace) -> int:
    language = _language_from_args(args)
    pieces = streams.pieces(streams.spec_from_string(args.stream), language.alphabet)
    contents = "".join(word * k for word, k in _final_pieces(pieces, language.alphabet, args.n))
    dist = oracle.distance_to_language(contents, language.dfa)
    pdist = oracle.prefix_distance_to_language(contents, language.dfa)
    report = {
        "language": language.ident,
        "n": args.n,
        "window": contents,
        "hamming_dist": "inf" if dist == math.inf else dist,
        "prefix_dist": "inf" if pdist == math.inf else pdist,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    language = _language_from_args(args)
    _emit(json.dumps(automaton_to_json(language.dfa), indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regwin", description="sliding-window property testers for regular languages"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="triviality / suffix-freeness / one-sided class")
    _add_language_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("analyze", help="period, threshold, SCCs and acceptance sets")
    _add_language_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("tester", help="tester subcommands")
    tester_sub = p.add_subparsers(dest="tester_command", required=True)
    run = tester_sub.add_parser("run", help="run one tester over a stream")
    _add_language_flags(run)
    run.add_argument("--kind", required=True, choices=TESTER_KINDS)
    run.add_argument("--n", type=int, required=True)
    run.add_argument("--eps", type=float, default=0.5)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--stream", required=True, help="e.g. literal:baaa or periodic:ba,64")
    run.add_argument("--trace", action="store_true", help="record per-step decisions")
    run.add_argument("--out")
    run.set_defaults(func=_cmd_tester_run)

    p = sub.add_parser("experiment", help="run a JSON experiment config")
    p.add_argument("config")
    p.add_argument("--json", action="store_true", help="JSON report instead of CSV")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("oracle", help="oracle subcommands")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    dist = oracle_sub.add_parser("dist", help="distances of the final window")
    _add_language_flags(dist)
    dist.add_argument("--n", type=int, required=True)
    dist.add_argument("--stream", required=True)
    dist.add_argument("--out")
    dist.set_defaults(func=_cmd_oracle_dist)

    p = sub.add_parser("export", help="emit the language's automaton as JSON")
    _add_language_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AutomatonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
