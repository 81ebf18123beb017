"""Regression pins for the generator fast path.

The PR that introduced the incremental-index construction (hoisted
unused-pool, level-weight, and stitching-host scans) promised the exact
same RNG consumption as the historical per-gate-scan construction.
These fingerprints were captured from the pre-refactor generator; any
drift in the construction order or draw arguments changes them.
"""

from __future__ import annotations

import pytest

from repro.fingerprint import circuit_fingerprint
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.generator import (
    GeneratorProfile,
    TiledProfile,
    generate_circuit,
    generate_tiled_circuit,
)

# Captured from the pre-refactor (per-gate-scan) generator.  s27 is
# parsed from a .bench file, not generated, and is deliberately absent.
PRE_REFACTOR_FINGERPRINTS = {
    "s208": "794e5ea0346b6e0629ae55e062e1bdd5"
             "9b1d3cc581aeceaa14855f62a4c36028",
    "s298": "cd577029b170a1f6416dd1a3f501d58e"
             "190c510622460731fdb84993a795a098",
    "s344": "ab75d6f64f20d751da3bc2c756360264"
             "8ca50ed244b8aea7554216b114e931ac",
    "s349": "96931626685b637eeb58ad3f327ffea9"
             "44751bc9333e9f560f288ae305984eed",
    "s382": "53887a4fef2db81fe002b51ccf5d7609"
             "40666f156155ccb6226766f2b3dc1227",
    "s386": "73f56c8154b59bb63442244893cef1d4"
             "bec88a0e1ef9fe8354f7f28bc6450a3a",
    "s526": "9a7ea772d5035326ff32ecc2c8044f0a"
             "2d582a698e91f0cc573cd8b3cb9faa7a",
    "s1196": "f7c8920b6d52b9ead440cce3f40efd4d"
             "3912ece5662025cbf739e3f4d88c116a",
    "s1238": "afffb792f378a0fb76b614bc9c675bee"
             "6abc8308a84194a31f29ddab3fffce5a",
    "s5378": "c4ce9702cfff6cdb92d92ac6b53b76b6"
             "1a9ccb090612ef182c822d099ab3eb42",
    "s9234": "09adafd4a2fa3c11773c655fde7a7535"
             "562a45b3296e3a8e7d8a398926b7d41f",
}

AD_HOC_PROFILES = [
    (GeneratorProfile("t_small", 4, 3, 2, 30, 5, seed=11,
                      xor_fraction=0.1),
     "bf7a8a12f63e6d3da9c516df7f8aaaa33aa8b6a2cbd48defa5931e746478af39"),
    (GeneratorProfile("t_mid", 10, 8, 6, 400, 12, seed=99),
     "654a90128f3fa5a5324828fd73e32bc7441431a3500bea8e0af07b952366a82b"),
    (GeneratorProfile("t_deep", 6, 4, 3, 150, 25, seed=7,
                      xor_fraction=0.3),
     "0011304e242dd8a72bbcd6ba41e655ce1b229ec487941937fbf77589d3e84164"),
]


@pytest.mark.parametrize("name", sorted(PRE_REFACTOR_FINGERPRINTS))
def test_benchmark_fingerprints_unchanged(name: str) -> None:
    netlist = benchmark_circuit(name)
    assert (circuit_fingerprint(netlist)
            == PRE_REFACTOR_FINGERPRINTS[name])


@pytest.mark.parametrize("profile,expected", AD_HOC_PROFILES,
                         ids=[p.name for p, _ in AD_HOC_PROFILES])
def test_ad_hoc_profile_fingerprints_unchanged(
        profile: GeneratorProfile, expected: str) -> None:
    assert circuit_fingerprint(generate_circuit(profile)) == expected


def test_same_seed_same_netlist() -> None:
    profile = GeneratorProfile("twice", 8, 4, 4, 200, 10, seed=42,
                               xor_fraction=0.2)
    first = generate_circuit(profile)
    second = generate_circuit(profile)
    assert circuit_fingerprint(first) == circuit_fingerprint(second)
    assert [g.name for g in first.gates.values()] == [
        g.name for g in second.gates.values()]


def test_tiled_generator_deterministic_and_tiled() -> None:
    profile = TiledProfile("tiles", n_tiles=5, gates_per_tile=60,
                           inputs_per_tile=4, dffs_per_tile=2, depth=8,
                           seed=13, tile_variants=2, xor_fraction=0.1)
    first = generate_tiled_circuit(profile)
    second = generate_tiled_circuit(profile)
    assert circuit_fingerprint(first) == circuit_fingerprint(second)
    assert len(first.combinational_gates) == 5 * 60
    assert len(first.dffs) == 5 * 2
    # Tiles never reference each other's nets.
    for gate in first.combinational_gates:
        prefix = gate.name.split("_", 1)[0]
        assert all(src.startswith(prefix + "_") for src in gate.inputs)


def test_tiled_variants_are_isomorphic() -> None:
    from repro.hier import canonical_region
    from repro.netlist.partition import partition_netlist, subnetlist

    profile = TiledProfile("iso", n_tiles=6, gates_per_tile=50,
                           inputs_per_tile=5, dffs_per_tile=2, depth=7,
                           seed=23, tile_variants=3)
    netlist = generate_tiled_circuit(profile)
    partition = partition_netlist(netlist, profile.n_tiles)
    digests = [canonical_region(subnetlist(netlist, region))[0]
               for region in partition.regions]
    # 6 tiles over 3 variants: exactly 3 distinct structure digests,
    # each shared by the 2 replicas of its variant.
    assert len(set(digests)) == 3
    assert sorted(digests.count(d) for d in set(digests)) == [2, 2, 2]
