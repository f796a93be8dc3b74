"""Compare what two source trees write for the scenario files in configs/
and print for the scripts in demos/.

Usage: ``python tools/compare_outputs.py SRC_A SRC_B``

``SRC_A`` and ``SRC_B`` are roots of riemflow checkouts.  Each tree runs
every ``configs/*.json`` of its own through ``riemflow run`` and every
``demos/*.py`` of its own, one process per file with the tree's ``src`` on
the import path, in a temporary directory of its own.  The script compares
the exit status, stdout and every file the run wrote: CSV files byte for
byte, JSON summaries as parsed without ``wall_time_s``.  It prints each
file and output that differs, then the line count of ``src/riemflow/*.py``
in each tree (as ``wc -l`` counts it), and exits 1 if any output differs,
else 0.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# what each kind of file is run with, after the interpreter
KINDS = {"configs": ("*.json", ["-m", "riemflow.cli", "run"]), "demos": ("*.py", [])}


def run_file(root, kind, name):
    """Run ``<kind>/<name>`` of the tree at ``root``; its exit status,
    stdout and the files it wrote, by name, JSON files parsed without
    ``wall_time_s``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as out_dir:
        result = subprocess.run(
            [sys.executable, *KINDS[kind][1], str(root / kind / name)],
            cwd=out_dir, env=env, capture_output=True, text=True, timeout=600)
        files = {}
        for path in sorted(Path(out_dir).iterdir()):
            if path.suffix == ".json":
                summary = json.loads(path.read_text())
                summary.pop("wall_time_s", None)
                files[path.name] = summary
            else:
                files[path.name] = path.read_bytes()
    return {"exit status": result.returncode, "stdout": result.stdout}, files


def compare_file(root_a, root_b, kind, name):
    """What differs between the two trees' runs of ``<kind>/<name>``."""
    if not all((root / kind / name).is_file() for root in (root_a, root_b)):
        return ["in one tree only"]
    (streams_a, files_a), (streams_b, files_b) = (run_file(root, kind, name)
                                                  for root in (root_a, root_b))
    return ([key for key in streams_a if streams_a[key] != streams_b[key]]
            + [file for file in sorted(set(files_a) | set(files_b))
               if files_a.get(file) != files_b.get(file)])


def line_total(root):
    """The newline count of ``src/riemflow/*.py`` in the tree at ``root``."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "riemflow").glob("*.py"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    args = parser.parse_args(argv)
    roots = (args.src_a.resolve(), args.src_b.resolve())
    failed = 0
    for kind, (pattern, _) in KINDS.items():
        names = sorted({path.name for root in roots for path in (root / kind).glob(pattern)})
        differing = 0
        for name in names:
            differences = compare_file(*roots, kind, name)
            print(f"{kind}/{name}: "
                  + (f"differs: {', '.join(differences)}" if differences else "same"), flush=True)
            differing += bool(differences)
        print(f"{len(names) - differing} of {len(names)} {kind} give the same outputs", flush=True)
        failed += differing
    lines = [line_total(root) for root in roots]
    print(f"src/riemflow lines: {lines[0]} in {args.src_a}, {lines[1]} in {args.src_b} "
          f"({lines[1] - lines[0]:+d})", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
