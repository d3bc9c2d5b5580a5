"""Time one fresh-process set-up: ``import ltvlab`` and parse a system spec.

    python3 setup_probe.py SRC_DIR SPEC_FILE

Prints the wall seconds from before the import to after the parse, then the
same interval at the reference machine speed (see ``speed.py``).  For a
``kind: file`` spec the parse includes reading the matrix file.
"""

import sys

from speed import SpeedProbe  # stdlib only, so numpy is imported inside the probe

if __name__ == "__main__":
    src, spec_file = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    with SpeedProbe() as probe:
        from ltvlab.system import parse_generator_spec  # imports the ltvlab package

        with open(spec_file) as fh:
            parse_generator_spec(fh.read())
    print(repr(probe.wall), repr(probe.seconds()))
