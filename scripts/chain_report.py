#!/usr/bin/env python3
"""Print the chain capacity matrix of each catalog family, the walk
enumeration cross-check, and one verified chain certificate per entry.

Usage: python3 scripts/chain_report.py [families...]
"""

import sys

from invsemi.catalog import FAMILY_BUILDERS, named_family
from invsemi.families import chain_capacity_by_enumeration, chain_certificates, verify_chain


def report(name: str) -> bool:
    fam = named_family(name)
    certs = chain_certificates(fam)
    p = [[cert.m for cert in row] for row in certs]
    oracle = chain_capacity_by_enumeration(fam)
    agrees = p == oracle
    print(f"== {fam.name} ({len(fam.blocks)} blocks) "
          f"{'[oracle agrees]' if agrees else '[ORACLE DISAGREES]'}")
    for row in p:
        print("   " + " ".join(f"{v:>2}" for v in row))
    for cert in (c for row in certs for c in row if c.m > 0):
        route = "-".join(str(v) for v in (cert.i, *cert.interior, cert.j))
        flag = "" if verify_chain(fam, cert) else "  UNVERIFIED"
        print(f"   {cert.i}->{cert.j} at {cert.m}: chain {route}{flag}")
    print()
    return agrees


def main() -> int:
    names = sys.argv[1:] or sorted(FAMILY_BUILDERS)
    ok = all([report(n) for n in names])
    return 0 if ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
