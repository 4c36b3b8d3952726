#!/usr/bin/env python3
"""A fixed corpus of single-mutation documents and what parsing each gives.

Every body (the six reference bodies, and ``DOCGEN_SEEDS`` ``docgen``
bodies of each kind) is serialized, and mutations of its JSON at every
node, envelope included, are parsed one at a time: up to ``PER_POOL``
replacements (scalars of every type, including the literal texts
``1e999`` and ``NaN`` and a 400-digit integer, wrong containers, and the
node wrapped in an array) and up to ``PER_POOL`` deleted and unknown keys
and inserted, dropped and duplicated array items, each drawn with a fixed
seed.  Each document gives one outcome line::

    <body> <path> <mutation> ok <digest of its re-serialization>
    <body> <path> <mutation> (code, path, line, column, message)

``tests/data/diagnostics_corpus.json`` pins the number of documents and a
SHA-256 of their outcome lines, for the whole corpus and for each body.
A changed line is a change in parsing behaviour; the corpus is never
re-seeded, trimmed or regenerated to make a change pass.

Needs only the standard library and ``ranslicer``, so it also runs where
there is no pytest::

    PYTHONPATH=src python tests/diagnostics_corpus.py               # check the whole corpus
    PYTHONPATH=src python tests/diagnostics_corpus.py --lines FILE  # also write every outcome line

``--write-pin`` records the pin; it is for creating the corpus only.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import docgen
from ranslicer.builtin import builtin_catalog, reference_requests
from ranslicer.errors import DocumentError
from ranslicer.io import SliceRequest, envelope_for, parse_document, serialize_document
from ranslicer.model import Sst
from ranslicer.planner import PlannerConfig, plan_slice
from ranslicer.radio import default_policy
from ranslicer.topology import reference_area

PIN = Path(__file__).resolve().parent / "data" / "diagnostics_corpus.json"
SEED = 20261019
DOCGEN_SEEDS = 15
PER_POOL = 500

# JSON texts that replace a node: scalars of every type, values past the
# float range, and wrong containers.
_REPLACEMENTS = ("null", "true", "false", "0", "-1", "7", "2.5", "-0.0", '""', '"x"', '"\\u0000"',
                 "1e999", "-1e999", "NaN", "9" * 400, "[]", "{}", '[{"x": 0}]')
_MARK = "\x00mark"
_MARK_TEXT = json.dumps(_MARK)


@functools.cache
def reference_bodies() -> dict[str, object]:
    """The reference body of each kind, by kind."""
    catalog, area, requests = builtin_catalog(), reference_area(), reference_requests()
    bodies = (catalog, area, SliceRequest(Sst.EMBB, None, requests[Sst.EMBB]),
              plan_slice(requests[Sst.EMBB], Sst.EMBB, area, catalog), default_policy(), PlannerConfig())
    return {envelope_for(body).kind: body for body in bodies}


def body_labels() -> list[str]:
    """Every body of the corpus, as ``KIND:reference`` or ``KIND:docgen-<seed>``."""
    sources = ["reference"] + [f"docgen-{seed}" for seed in range(DOCGEN_SEEDS)]
    return [f"{kind}:{source}" for kind in sorted(docgen.GENERATORS) for source in sources]


def body(label: str):
    kind, _, source = label.partition(":")
    if source == "reference":
        return reference_bodies()[kind]
    return docgen.GENERATORS[kind](random.Random(SEED + int(source.removeprefix("docgen-"))))


def _nodes(value, path=()):
    """Yield ``(path, value)`` for every node of a JSON value, the root first."""
    yield path, value
    steps = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for step, item in steps:
        yield from _nodes(item, (*path, step))


def mutations(raw: dict) -> list[tuple]:
    """Every ``(path, operation, argument)`` mutation of a document."""
    found = []
    for path, value in _nodes(raw):
        found += [(path, "set", text) for text in _REPLACEMENTS]
        found.append((path, "wrap", None))
        if isinstance(value, dict):
            found += [(path, "delete", key) for key in value]
            found.append((path, "add", "unknown_field"))
        elif isinstance(value, list):
            for i in range(len(value)):
                found += [(path, "drop", i), (path, "duplicate", i), (path, "insert", i)]
            found.append((path, "insert", len(value)))
    return found


def render(raw: dict, path: tuple, operation: str, argument) -> str:
    """The document text with one mutation applied; ``raw`` is left as it was."""
    node = raw
    for step in path:
        node = node[step]
    if operation == "wrap":
        operation, argument = "set", f"[{json.dumps(node, sort_keys=True)}]"
    if operation == "set":
        if not path:  # the whole document replaced
            return argument
        parent = raw
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = _MARK
        text = json.dumps(raw, sort_keys=True).replace(_MARK_TEXT, argument)
        parent[path[-1]] = node
        return text
    if operation == "delete":
        kept = node.pop(argument)
        text = json.dumps(raw, sort_keys=True)
        node[argument] = kept
    elif operation == "add":
        node[argument] = 0
        text = json.dumps(raw, sort_keys=True)
        del node[argument]
    elif operation == "drop":
        kept = node.pop(argument)
        text = json.dumps(raw, sort_keys=True)
        node.insert(argument, kept)
    else:  # "duplicate" or "insert": a copy of the item, or a 0, at the index
        node.insert(argument, node[argument] if operation == "duplicate" else 0)
        text = json.dumps(raw, sort_keys=True)
        del node[argument]
    return text


def outcome(text: str) -> str:
    try:
        envelope = parse_document(text)
    except DocumentError as err:
        return repr((err.code, err.path, err.line, err.column, err.args[0]))
    except Exception as err:  # a crash is an outcome too, and pinned like any other
        return f"crash {type(err).__name__}: {err}"
    return "ok " + hashlib.sha256(serialize_document(envelope).encode()).hexdigest()[:16]


def _pools(found: list[tuple]) -> tuple[list, list]:
    """The replacements, and the key and item mutations, each in document order."""
    replacements = [m for m in found if m[1] in ("set", "wrap")]
    return replacements, [m for m in found if m[1] not in ("set", "wrap")]


def outcome_lines(label: str) -> list[str]:
    """One outcome line per mutated document of a body, in a fixed order."""
    raw = json.loads(serialize_document(envelope_for(body(label))))
    rng = random.Random(SEED * 1000 + body_labels().index(label))
    found = []
    for pool in _pools(mutations(raw)):
        found += pool if len(pool) <= PER_POOL else [pool[i] for i in sorted(rng.sample(range(len(pool)), PER_POOL))]
    return [f"{label} {''.join(f'[{s}]' if isinstance(s, int) else f'.{s}' for s in path) or '$'} "
            f"{operation} {argument!r} {outcome(render(raw, path, operation, argument))}"
            for path, operation, argument in found]


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", type=Path, help="write every outcome line to this file")
    parser.add_argument("--write-pin", action="store_true", help="record the pin (only when creating the corpus)")
    args = parser.parse_args(argv)
    pin = {"documents": 0, "sha256": "", "bodies": {}}
    every: list[str] = []
    for label in body_labels():
        lines = outcome_lines(label)
        pin["bodies"][label] = {"documents": len(lines), "sha256": digest(lines)}
        every += lines
    pin["documents"], pin["sha256"] = len(every), digest(every)
    if args.lines:
        args.lines.write_text("".join(line + "\n" for line in every), encoding="utf-8")
    if args.write_pin:
        PIN.write_text(json.dumps(pin, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    crashes = sum(" crash " in line for line in every)
    print(f"{pin['documents']} documents, {crashes} crashes, sha256 {pin['sha256']}")
    expected = json.loads(PIN.read_text(encoding="utf-8"))
    changed = [label for label, entry in pin["bodies"].items() if expected["bodies"].get(label) != entry]
    for label in changed:
        print(f"changed: {label}", file=sys.stderr)
    return 0 if pin == expected else 1


if __name__ == "__main__":
    sys.exit(main())
