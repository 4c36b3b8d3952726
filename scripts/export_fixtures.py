#!/usr/bin/env python3
"""Regenerate the shipped reference fixtures under fixtures/.

Writes the builtin catalog, the reference topology and the three
reference slice requests in canonical document form, plus the pinned
stdout of `ranslicer paper-example` used by the acceptance suite, the
`ranslicer plan` output for each reference request (tests/data/plan_*.json)
and the `ranslicer emit` bundle of each of those plans
(tests/data/bundle_*/).
Run from the repository root after changing the builtin data.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from ranslicer.builtin import builtin_catalog, reference_requests
from ranslicer.cli import cli_main
from ranslicer.io import SliceRequest, envelope_for, serialize_document, write_atomic
from ranslicer.topology import reference_area

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    fixtures = ROOT / "fixtures"
    fixtures.mkdir(exist_ok=True)
    write_atomic(fixtures / "builtin_catalog.json",
                 serialize_document(envelope_for(builtin_catalog())))
    write_atomic(fixtures / "reference_topology.json",
                 serialize_document(envelope_for(reference_area())))
    for sst, requirements in reference_requests().items():
        request = SliceRequest(sst, None, requirements)
        write_atomic(fixtures / f"request_{sst.name.lower()}.json",
                     serialize_document(envelope_for(request)))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(["paper-example"])
    if code != 0:
        print("paper-example failed; fixtures NOT updated", file=sys.stderr)
        return 1
    data = ROOT / "tests" / "data"
    write_atomic(data / "paper_example_output.txt", buffer.getvalue())
    for sst in reference_requests():
        name = sst.name.lower()
        code = cli_main(["plan", str(fixtures / f"request_{name}.json"),
                         str(fixtures / "reference_topology.json"), str(fixtures / "builtin_catalog.json"),
                         "--out", str(data / f"plan_{name}.json")])
        if code != 0:
            print(f"plan {name} failed", file=sys.stderr)
            return 1
        with redirect_stdout(io.StringIO()):
            code = cli_main(["emit", str(data / f"plan_{name}.json"), str(fixtures / "builtin_catalog.json"),
                             "--out-dir", str(data / f"bundle_{name}")])
        if code != 0:
            print(f"emit {name} failed", file=sys.stderr)
            return 1
    for path in sorted(fixtures.iterdir()):
        print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
