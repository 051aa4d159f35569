"""Read a transcript back, check its row count, and write it again: the reader and the writer at full scale.

``python tests/transcript_roundtrip.py TRANSCRIPT ROWS COPY`` reads TRANSCRIPT with ``read_transcript``,
exits 1 unless it holds ROWS rounds, and writes them to COPY with ``write_transcript``; a ``cmp`` of the two
files then checks that the round trip kept every byte.  A run of many blocks walks the reader over every
block seam and a partial last block, and the writer spawns its pool, whose workers import this module:
hence the ``__main__`` guard.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import sys

from contqkd import read_transcript, write_transcript


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("transcript", help="the transcript to read")
    parser.add_argument("rows", type=int, help="the number of rounds it must hold")
    parser.add_argument("copy", help="where to write it again")
    args = parser.parse_args()
    transcript = read_transcript(args.transcript)
    if len(transcript) != args.rows:
        print(f"{args.transcript} holds {len(transcript)} rounds, not {args.rows}", file=sys.stderr)
        return 1
    write_transcript(transcript, args.copy)
    return 0


if __name__ == "__main__":
    sys.exit(main())
