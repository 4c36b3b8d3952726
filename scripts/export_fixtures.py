#!/usr/bin/env python3
"""Regenerate the shipped reference fixtures under fixtures/.

Writes the builtin catalog, the reference topology and the three
reference slice requests in canonical document form, plus the pinned
stdout of `ranslicer paper-example` used by the acceptance suite, the
`ranslicer plan` output for each reference request (tests/data/plan_*.json)
and the `ranslicer emit` bundle of each of those plans
(tests/data/bundle_*/).  Each bundle directory is emptied before its
emit, so a file the new bundle no longer has does not stay behind.
Prints every path it wrote.
Run from the repository root after changing the builtin data.
"""

import io
import shutil
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
    written: list[Path] = []

    def write(path: Path, text: str) -> None:
        write_atomic(path, text)
        written.append(path)

    write(fixtures / "builtin_catalog.json", serialize_document(envelope_for(builtin_catalog())))
    write(fixtures / "reference_topology.json", serialize_document(envelope_for(reference_area())))
    for sst, requirements in reference_requests().items():
        request = SliceRequest(sst, None, requirements)
        write(fixtures / f"request_{sst.name.lower()}.json", serialize_document(envelope_for(request)))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(["paper-example"])
    if code != 0:
        print("paper-example failed; fixtures NOT updated", file=sys.stderr)
        return 1
    data = ROOT / "tests" / "data"
    write(data / "paper_example_output.txt", buffer.getvalue())
    for sst in reference_requests():
        name = sst.name.lower()
        plan = data / f"plan_{name}.json"
        code = cli_main(["plan", str(fixtures / f"request_{name}.json"),
                         str(fixtures / "reference_topology.json"), str(fixtures / "builtin_catalog.json"),
                         "--out", str(plan)])
        if code != 0:
            print(f"plan {name} failed", file=sys.stderr)
            return 1
        written.append(plan)
        bundle = data / f"bundle_{name}"
        if bundle.exists():
            shutil.rmtree(bundle)
        with redirect_stdout(io.StringIO()):
            code = cli_main(["emit", str(plan), str(fixtures / "builtin_catalog.json"), "--out-dir", str(bundle)])
        if code != 0:
            print(f"emit {name} failed", file=sys.stderr)
            return 1
        written += sorted(bundle.iterdir())
    for path in written:
        print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
