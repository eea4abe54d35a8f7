"""Command-line entry point.

Subcommands mirror the workflow stages: ``canonicalize`` audio,
``extract`` features, list ``vowels`` from an alignment, ``summarize``
feature tables, ``validate`` protocol metadata, and ``synth`` test
signals.  Exit code 0 means success, 1 means validation findings, and 2
an operational error, including input that cannot be read or decoded.
``extract`` does not stop at a file it cannot read: that file's rows carry
the read error as every feature's code.  Data goes to stdout, diagnostics
to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import find_target_vowels, read_textgrid
from .audio_io import read_wav, to_canonical, write_wav
from .dsp import CHUNK_BYTES, ONE_BLAS_THREAD
from .errors import RepSpeechError
from .pipeline import (
    LEVEL_FEATURES,
    ExtractionRequest,
    PipelineParams,
    S_FEATURES,
    extract_recording,
    record_to_row,
)
from .protocol import (
    DEFAULT_DEVICES,
    DEFAULT_TASKS,
    ManifestExpectation,
    SessionSchedule,
    checklist_template,
    lint_study_design,
    validate_manifest,
    validate_qc_log,
    validate_questionnaire,
    validate_schedule,
)
from .reporting import emit_table, summarize_features
from .synth import KINDS, SynthSpec, render_segment, synth_pattern

CONFIG_ENV = "REPSPEECH_CONFIG"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

CSV_COLUMNS = ["recording", "level", *S_FEATURES, "n_vowel_instances", "errors"]

# the vowel selection ``extract --level a`` and ``vowels`` share, and the spelling ``vowels`` first gave each flag
SELECTION_ALIASES = {"vowel_labels": "--labels", "min_vowel_duration": "--min-duration", "phone_tier": "--tier"}


def _labels(raw: str) -> frozenset[str]:
    return frozenset(raw.split(","))


# how an analysis flag reads its text, by the type of its setting's default
SETTING_TYPES = {float: float, frozenset: _labels, str: str}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="repspeech", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--json", action="store_true", help="machine-readable errors on stderr")
    parser.add_argument("--config", help="JSON config file providing flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canonicalize", help="convert audio to mono 16 kHz 16-bit")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)

    extract = sub.add_parser("extract", help="extract the exemplar feature set")
    extract.add_argument("inputs", nargs="+", help="WAV files")
    extract.add_argument("--level", default="S", help="comma-separated subset of S,a")
    extract.add_argument("--textgrid", help="alignment for a single input")
    extract.add_argument("--textgrid-dir", help="directory of <name>.TextGrid files")
    extract.add_argument("--format", choices=("csv", "json"), default="csv")
    extract.add_argument("-o", "--output", help="output path (default stdout)")
    extract.add_argument("--threads", type=int, default=1, help="worker processes, at most one per input")

    vowels = sub.add_parser("vowels", help="list selected vowel instances from a TextGrid")
    vowels.add_argument("textgrid")
    # one flag per analysis setting, its dest the setting's name; ``vowels`` takes the vowel selection's
    for f in fields(PipelineParams):
        alias = SELECTION_ALIASES.get(f.name)
        flags = ["--" + f.name.replace("_", "-"), *([alias] if alias else [])]
        for p in (extract, vowels) if alias else (extract,):
            p.add_argument(*flags, type=SETTING_TYPES[type(f.default)], help=f.metadata["help"])

    p = sub.add_parser("summarize", help="normative median (q1, q3) table from a feature CSV")
    p.add_argument("features_csv")
    p.add_argument("--group", required=True, help="grouping column name")
    p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
    p.add_argument("-o", "--output")

    p = sub.add_parser("validate", help="validate protocol metadata files")
    p.add_argument("what", choices=("manifest", "schedule", "questionnaire", "checklist", "qclog"))
    p.add_argument("file", help="JSON input; for manifest, a list of filenames")
    p.add_argument("--expect", help="manifest expectation grid (JSON)")
    p.add_argument("--devices", help="comma-separated device vocabulary")
    p.add_argument("--tasks", help="comma-separated task vocabulary")
    p.add_argument("--template", action="store_true", help="print a template and exit")

    p = sub.add_parser("synth", help="generate a test signal with a ground-truth sidecar")
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--f0", type=float)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, default=0.3)
    p.add_argument("--formants", help="freq:bw pairs, comma separated (e.g. 700:80,1200:90)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pattern", help="JSON file with a list of segment specs")
    p.add_argument("-o", "--output", required=True, help="output WAV path")
    return parser, sub.choices


def _emit_error(exc: Exception, as_json: bool) -> None:
    if as_json:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)


def _load_config(path: str | None) -> dict:
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise RepSpeechError(f"config file {path} must hold a JSON object of flag defaults")
    return config


def _write_out(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_canonicalize(args) -> int:
    buf = to_canonical(read_wav(args.input))
    write_wav(buf, args.output)
    print(f"wrote {args.output}: {buf.duration:.3f} s at {buf.sample_rate} Hz", file=sys.stderr)
    return EXIT_OK


def _pipeline_params(args) -> PipelineParams:
    """The settings of the analysis flags in ``args``; a setting whose flag is unset, or absent, keeps its default."""
    given = vars(args)
    return PipelineParams(**{f.name: given[f.name] for f in fields(PipelineParams) if given.get(f.name) is not None})


def _extract_one(req: ExtractionRequest):
    return [record_to_row(rec) for rec in extract_recording(req)]


def _train_allocator() -> None:
    """Pool-worker initializer: allocate and free one block larger than any chunk array.

    glibc maps each block above its mmap threshold (128 KiB in a new process)
    and unmaps it on free, but freeing a mapped block raises the threshold
    to that block's size.  A worker that starts with this block so serves
    its chunk arrays from the heap from its first file on, instead of
    mapping, faulting in and unmapping each one (on a 6 s voice, ~70,000
    minor page faults against ~7,000).  Under another allocator it is one
    passing allocation.
    """
    np.empty(8 * CHUNK_BYTES, np.uint8)


def _cmd_extract(args) -> int:
    levels = tuple(s.strip() for s in args.level.split(",") if s.strip())
    if not levels:
        raise RepSpeechError(f"--level names no extraction level; choose from {', '.join(LEVEL_FEATURES)}")
    unknown = [level for level in levels if level not in LEVEL_FEATURES]
    if unknown:
        raise RepSpeechError(f"unknown extraction level {unknown[0]!r}; choose from {', '.join(LEVEL_FEATURES)}")
    if args.threads < 1:
        raise RepSpeechError(f"--threads must be at least 1, got {args.threads}")
    if args.textgrid and (len(args.inputs) > 1 or args.textgrid_dir):
        raise RepSpeechError("--textgrid aligns a single input and excludes --textgrid-dir")
    if args.textgrid_dir and not Path(args.textgrid_dir).is_dir():
        raise RepSpeechError(f"--textgrid-dir {args.textgrid_dir} is not a directory")
    params = _pipeline_params(args)
    requests = []
    for path in sorted(args.inputs):
        textgrid = args.textgrid
        if args.textgrid_dir:
            candidate = Path(args.textgrid_dir) / (Path(path).stem + ".TextGrid")
            textgrid = str(candidate) if candidate.exists() else None
        requests.append(ExtractionRequest(path, textgrid, levels, params))
    workers = min(args.threads, len(requests))  # a fork pool starts all its workers at the first submit
    if workers > 1:
        # forked workers inherit OpenBLAS at one thread, so their frame loops never call its setter, which in a
        # forked process restarts OpenBLAS's own threads, and those spin beside the workers
        with ONE_BLAS_THREAD, ProcessPoolExecutor(max_workers=workers, initializer=_train_allocator) as pool:
            rows_nested = list(pool.map(_extract_one, requests))
    else:
        rows_nested = [_extract_one(req) for req in requests]
    rows = [row for group in rows_nested for row in group]
    rows.sort(key=lambda r: (str(r["recording"]), str(r["level"])))
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        out = _csv_text(rows)
        text = out
    _write_out(text, args.output)
    return EXIT_OK


def _csv_text(rows: list[dict]) -> str:
    import io

    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        clean = {k: ("" if row.get(k) is None else row.get(k)) for k in CSV_COLUMNS}
        writer.writerow(clean)
    return out.getvalue()


def _cmd_vowels(args) -> int:
    params = _pipeline_params(args)  # the selection ``extract --level a`` makes with the same flags
    grid = read_textgrid(args.textgrid)
    vowels = find_target_vowels(grid, params.vowel_labels, params.min_vowel_duration, params.phone_tier)
    for v in vowels:
        print(f"{v.start:.3f}\t{v.end:.3f}\t{v.label}")
    print(f"{len(vowels)} instances", file=sys.stderr)
    return EXIT_OK


def _cmd_summarize(args) -> int:
    with open(args.features_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if rows and args.group not in rows[0]:
        raise RepSpeechError(f"grouping column {args.group!r} not present in the CSV")
    table = summarize_features(rows, args.group)
    _write_out(emit_table(table, args.format), args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.template:
        if args.what == "checklist":
            print(json.dumps(checklist_template(), indent=2))
            return EXIT_OK
        raise RepSpeechError("--template is only available for the checklist")
    data = json.loads(Path(args.file).read_text(encoding="utf-8"))
    if args.what == "manifest":
        if not args.expect:
            raise RepSpeechError("manifest validation needs --expect with the expectation grid")
        expectation = ManifestExpectation.from_dict(json.loads(Path(args.expect).read_text(encoding="utf-8")))
        if not isinstance(data, list) or not all(isinstance(name, str) for name in data):
            raise RepSpeechError("a manifest is a JSON list of filenames")
        devices = tuple(args.devices.split(",")) if args.devices else DEFAULT_DEVICES
        tasks = tuple(args.tasks.split(",")) if args.tasks else DEFAULT_TASKS
        report = validate_manifest(data, expectation, devices, tasks)
    elif args.what == "schedule":
        schedules = data if isinstance(data, list) else [data]
        if not schedules:
            raise RepSpeechError("a schedule list holds no schedule")
        report = None
        for entry in schedules:
            one = validate_schedule(SessionSchedule.from_dict(entry))
            if report is None:
                report = one
            else:
                report.findings.extend(one.findings)
    elif args.what == "questionnaire":
        report = validate_questionnaire(data)
    elif args.what == "qclog":
        report = validate_qc_log(data)
    else:
        report = lint_study_design(data)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.ok else EXIT_FINDINGS


def _parse_formants(raw: str | None) -> tuple[tuple[float, float], ...]:
    if not raw:
        return ()
    try:
        return tuple((float(freq), float(bw)) for freq, bw in (item.split(":") for item in raw.split(",")))
    except ValueError:
        raise RepSpeechError(f"--formants takes freq:bw pairs, comma separated, got {raw!r}") from None


def _number_pairs(value: object) -> bool:
    """Whether ``value`` is a JSON list of ``[freq, bw]`` number pairs."""
    return isinstance(value, list) and all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in p)
        for p in value
    )


def _cmd_synth(args) -> int:
    if args.pattern:
        specs_raw = json.loads(Path(args.pattern).read_text(encoding="utf-8"))
        if not (isinstance(specs_raw, list) and specs_raw and all(isinstance(s, dict) for s in specs_raw)):
            raise RepSpeechError("a pattern is a non-empty JSON list of segment objects")
        for i, s in enumerate(specs_raw):
            if not {"kind", "duration"} <= s.keys():
                raise RepSpeechError(f"pattern segment {i} needs a kind and a duration")
            if not _number_pairs(s.get("formants", [])):
                raise RepSpeechError(f"pattern segment {i} formants must be a list of [freq, bw] number pairs")
        specs = [
            SynthSpec(
                kind=s["kind"],
                duration=s["duration"],
                f0=s.get("f0"),
                formants=tuple(tuple(p) for p in s.get("formants", [])),
                amplitude=s.get("amplitude", 0.3),
                seed=s.get("seed", 0),
            )
            for s in specs_raw
        ]
        result = synth_pattern(specs)
        buf = result.buffer
        truth = result.to_ground_truth()
    else:
        if not args.kind:
            raise RepSpeechError("synth needs either --pattern or --kind")
        spec = SynthSpec(
            kind=args.kind,
            duration=args.duration,
            f0=args.f0,
            formants=_parse_formants(args.formants),
            amplitude=args.amplitude,
            seed=args.seed,
        )
        buf = render_segment(spec)
        truth = {
            "sample_rate": buf.sample_rate,
            "duration": buf.duration,
            "kind": args.kind,
            "f0": args.f0,
            "formants": list(_parse_formants(args.formants)),
            "amplitude": args.amplitude,
            "seed": args.seed,
        }
    write_wav(buf, args.output)
    sidecar = str(Path(args.output).with_suffix(".json"))
    Path(sidecar).write_text(json.dumps(truth, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output} and {sidecar}", file=sys.stderr)
    return EXIT_OK


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, key: str, value: object) -> object:
    """Config ``value`` of ``key`` as ``action`` reads the same text on the command line."""
    if action.nargs == 0:  # a switch such as --json
        if not isinstance(value, bool):
            raise RepSpeechError(f"config key {key!r} takes true or false, got {json.dumps(value)}")
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        text = repr(value)
    elif isinstance(value, list) and all(isinstance(v, str) for v in value):
        if any("," in v for v in value):  # the flag's text splits at commas, so the list would change
            raise RepSpeechError(f"config key {key!r} takes list items without commas, got {json.dumps(value)}")
        text = ",".join(value)
    elif isinstance(value, str):
        text = value
    else:
        got = json.dumps(value)
        raise RepSpeechError(f"config key {key!r} takes a number, a string or a list of strings, got {got}")
    try:
        converted = parser._get_value(action, text)
        parser._check_value(action, converted)
    except argparse.ArgumentError as exc:
        raise RepSpeechError(f"config key {key!r}: {exc.message}") from None
    return converted


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    handlers = {
        "canonicalize": _cmd_canonicalize,
        "extract": _cmd_extract,
        "vowels": _cmd_vowels,
        "summarize": _cmd_summarize,
        "validate": _cmd_validate,
        "synth": _cmd_synth,
    }
    # the config file supplies flag defaults, read as the running subcommand reads the same text; explicit flags win
    config: dict = {}
    try:
        args, _ = parser.parse_known_args(argv)  # --config, --json and the subcommand, before the config is read
        config = _load_config(args.config)
        flags = {a.dest for p in (parser, *subparsers.values()) for a in p._actions if a.option_strings}
        unknown = sorted(set(config) - flags)
        if unknown:
            raise RepSpeechError(f"config key {unknown[0]!r} names no flag")
        for p in (parser, subparsers[args.command]):  # a key only another subcommand's flag takes is left unread
            actions = {a.dest: a for a in p._actions if a.option_strings}
            p.set_defaults(**{k: _config_value(p, actions[k], k, v) for k, v in config.items() if k in actions})
        args = parser.parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (RepSpeechError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _emit_error(exc, args.json or config.get("json") is True)  # a config's own json key holds for its errors
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
