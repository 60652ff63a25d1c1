"""CI assertion: sharded and merged stores are record-identical to a reference.

Usage: ``python scripts/assert_stores_identical.py REFERENCE OTHER [OTHER...]``

Every OTHER store must hold exactly the reference store's records — same
hashes, same deterministic ``result`` payloads — and, when both sides have
a manifest, the same manifest ``records`` entries.  This is the acceptance
check behind sharded execution: running a grid as ``--shard 0/2`` +
``--shard 1/2`` into a shared store (and merging it into another store)
must be indistinguishable from the unsharded run.
"""

from __future__ import annotations

import sys

from repro.runner import ResultStore


def payloads(store: ResultStore) -> list[tuple[str, dict]]:
    return [(record["hash"], record["result"]) for record in store.records()]


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    reference = ResultStore(argv[0])
    reference_payloads = payloads(reference)
    reference_manifest = reference.read_manifest()
    if not reference_payloads:
        print(f"reference store {argv[0]} is empty", file=sys.stderr)
        return 1
    for path in argv[1:]:
        other = ResultStore(path)
        if payloads(other) != reference_payloads:
            print(f"{path}: records differ from {argv[0]}", file=sys.stderr)
            return 1
        other_manifest = other.read_manifest()
        if (
            reference_manifest is not None
            and other_manifest is not None
            and other_manifest["records"] != reference_manifest["records"]
        ):
            print(f"{path}: manifest differs from {argv[0]}", file=sys.stderr)
            return 1
        print(
            f"{path}: {len(other)} records, "
            f"identical to {argv[0]}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
