"""Resource caps for the exact enumeration kernels.

All scans are exhaustive within these gates and raise ResourceLimitError
beyond them; nothing is ever sampled silently.  `scan_count_cap` is read
only by `homology.scannable`, the gate of every Hom and Ext scan, and
`random_tries` only by `homology.candidates`, for its seeded draws beyond
the scan cap.  `submodule_dim_cap` gates only the oracles' literal
submodule and quotient scans (`universe.all_submodules`): the fast paths
read submodule closure off member Hom spaces and quotient closure off the
Hom table.  The lattice of torsion classes has no gate: it reads two perps
of the Hom table per class.

Caps are set once, when the algebra is parsed (`parse_algebra`, or the
`BoundQuiverAlgebra` constructor), and every scan reads them from the
algebra of the modules it scans.  The CLI's `--cap-*` flags therefore
govern every scan of a run, the essentiality scan of the
hereditary-pullback suite included.
"""

from __future__ import annotations

from collections import namedtuple

_DEFAULTS = {
    # admissibility: path basis must stabilize at some length below this
    "length_cap": 32,
    # paths enumerated while building the algebra basis
    "path_count_cap": 20000,
    # per-vertex bound allowed for universe enumeration
    "dim_bound_cap": 8,
    # gate of the oracles' submodule scans: total dimension of the module
    "submodule_dim_cap": 12,
    # ext scans enumerate all p^d classes only while d stays within this
    "ext_dim_cap": 12,
    # a scan of a d-dimensional space runs only while p^d stays within this
    "scan_count_cap": 1 << 16,
    # seeded random draws of a candidate search beyond the scan cap
    "random_tries": 64,
}


class ResourceCaps(namedtuple("ResourceCaps", _DEFAULTS,
                              defaults=_DEFAULTS.values())):
    __slots__ = ()


DEFAULT_CAPS = ResourceCaps()
